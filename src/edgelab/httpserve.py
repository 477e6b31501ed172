"""HTTP/1.1 serving for workers and the standalone content API.

Each served variant exposes its worker on one port (an IPv6 literal
host such as ``::1`` binds IPv6). A GET's page, which is also its cache
key, is the request path without its query string and without one
trailing slash: ``/posts/post-1/?utm=x`` is ``/posts/post-1``, and ``/``
stays ``/``. No page of the site depends on the query. Responses carry
two diagnostic headers consumed by the benchmark client and external
tools:

    x-edge-cache: HIT | MISS | STALE | BYPASS
    x-server-time-us: <integer microseconds>

Admin endpoints (POST): ``/__admin/purge`` empties the cache and
returns ``{"removed": n}``; ``/__admin/cold`` makes the next request
pay the cold-start penalty.

The content API mirrors the simulated origin over HTTP: ``GET /posts``
returns the full post list, ``GET /posts/<id>`` one post, both as JSON
objects with fields ``id``, ``slug``, ``title``, ``body``. Single-post
fetches pay the configured origin delay.
"""

from __future__ import annotations

import contextlib
import json
import socket
import threading
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

from .clock import SYSTEM_CLOCK
from .content import NotFoundError, UpstreamConfig, generate_posts, upstream_fetch
from .edge import EdgeWorker


class _SilentHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # One TCP segment per response: without these, headers and body go out
    # as separate writes and Nagle + delayed ACK stall loopback keep-alive
    # connections at ~40 ms per request.
    disable_nagle_algorithm = True
    wbufsize = 64 * 1024

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        pass

    def _send(self, status: int, body: bytes, content_type: str, extra: dict[str, str] | None = None) -> None:
        self.send_response(status)
        self.send_header("content-type", content_type)
        self.send_header("content-length", str(len(body)))
        for k, v in (extra or {}).items():
            self.send_header(k, v)
        self.end_headers()
        self.wfile.write(body)


class _VariantHandler(_SilentHandler):
    worker: EdgeWorker  # set on the subclass by VariantServer

    def do_GET(self) -> None:
        page = urlsplit(self.path).path.removesuffix("/") or "/"
        resp = self.worker.handle_request(page, SYSTEM_CLOCK)
        self._send(
            resp.status,
            resp.body,
            "text/html; charset=utf-8",
            {
                "x-edge-cache": resp.cache_status.value,
                "x-server-time-us": str(int(round(resp.server_time * 1e6))),
            },
        )

    def do_POST(self) -> None:
        if self.path == "/__admin/purge":
            removed = self.worker.purge_cache()
            body = json.dumps({"removed": removed}).encode()
            self._send(200, body, "application/json")
        elif self.path == "/__admin/cold":
            self.worker.cold_worker()
            self._send(200, b'{"ok": true}', "application/json")
        else:
            self._send(404, b'{"error": "unknown admin endpoint"}', "application/json")


class _ContentHandler(_SilentHandler):
    upstream: UpstreamConfig  # set on the subclass by ContentServer

    def do_GET(self) -> None:
        if self.path == "/posts":
            posts = generate_posts(
                self.upstream.seed, self.upstream.post_count,
                self.upstream.word_min, self.upstream.word_max,
            )
            body = json.dumps([asdict(p) for p in posts]).encode()
            self._send(200, body, "application/json")
            return
        if self.path.startswith("/posts/"):
            raw = self.path.removeprefix("/posts/")
            try:
                post = upstream_fetch(int(raw), self.upstream, SYSTEM_CLOCK)
            except (ValueError, NotFoundError):
                self._send(404, b'{"error": "no such post"}', "application/json")
                return
            self._send(200, json.dumps(asdict(post)).encode(), "application/json")
            return
        self._send(404, b'{"error": "not found"}', "application/json")


class _HTTPServer(ThreadingHTTPServer):
    """Binds IPv6 for an IPv6 literal and tracks open connections so a stop can end them."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], handler_cls: type[BaseHTTPRequestHandler]):
        self.address_family = socket.AF_INET6 if ":" in address[0] else socket.AF_INET
        self.open_connections: set[socket.socket] = set()
        super().__init__(address, handler_cls)

    def process_request(self, request, client_address) -> None:
        self.open_connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        self.open_connections.discard(request)
        super().shutdown_request(request)


class _Server:
    """Owns a ThreadingHTTPServer running on a daemon thread."""

    def __init__(self, handler_cls: type[BaseHTTPRequestHandler], host: str, port: int):
        self._httpd = _HTTPServer((host, port), handler_cls)
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://[{host}]:{port}" if ":" in host else f"http://{host}:{port}"

    def start(self) -> None:
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop accepting, and end open keep-alive connections so none reaches a stopped server."""
        self._httpd.shutdown()
        for conn in list(self._httpd.open_connections):
            with contextlib.suppress(OSError):  # closed by its handler meanwhile
                conn.shutdown(socket.SHUT_RDWR)
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class VariantServer(_Server):
    """Serves one worker. Port 0 binds an ephemeral port."""

    def __init__(self, worker: EdgeWorker, host: str = "127.0.0.1", port: int = 0):
        handler = type("BoundVariantHandler", (_VariantHandler,), {"worker": worker})
        super().__init__(handler, host, port)
        self.worker = worker


class ContentServer(_Server):
    """Standalone content API serving the simulated origin."""

    def __init__(self, upstream: UpstreamConfig, host: str = "127.0.0.1", port: int = 0):
        handler = type("BoundContentHandler", (_ContentHandler,), {"upstream": upstream})
        super().__init__(handler, host, port)
        self.upstream = upstream

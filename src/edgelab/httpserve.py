"""HTTP/1.1 serving for workers and the standalone content API.

Each served variant exposes its worker on one port (an IPv6 literal
host such as ``::1`` binds IPv6). A GET's page, which is also its cache
key, is the request path without its query string and without one
trailing slash: ``/posts/post-1/?utm=x`` is ``/posts/post-1``, and ``/``
stays ``/``. No page of the site depends on the query. The content API
reads its paths by the same rule (``request_page``). Responses carry
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

Framing: HTTP/1.0 and HTTP/1.1 only (HTTP/0.9 gets 400, other versions
505), keep-alive unless the request says ``Connection: close`` or is
HTTP/1.0 without ``keep-alive``. A request head has at most 100 header
lines of at most 65,536 bytes each (431 beyond). A request body framed
by ``content-length`` is read and discarded before dispatch (over 1 MiB
gets 413); ``Transfer-Encoding`` gets 501 and a close. Each response is
one write with a ``content-length``. ``read_headers`` is the header
reader of both this server and the load client in ``bench``.
"""

from __future__ import annotations

import contextlib
import json
import re
import socket
import threading
import time
from dataclasses import asdict
from email.utils import formatdate
from functools import lru_cache
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

from .clock import SYSTEM_CLOCK
from .content import NotFoundError, UpstreamConfig, generate_posts, upstream_fetch
from .edge import EdgeWorker

# Header limits at the stdlib's values: 100 header lines, 65,536 bytes a line.
MAX_HEADERS = 100
MAX_LINE = 65536
MAX_BODY = 1 << 20  # a larger request body gets 413
_END_OF_HEAD = (b"\r\n", b"\n", b"")
_FIELD_NAME = re.compile(rb"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")  # RFC 9110 section 5.6.2 token
_HTTP_VERSION = re.compile(r"HTTP/[0-9]+\.[0-9]+")
# How often ``serve_forever`` checks for a stop request: ``stop`` waits up to this long.
_POLL_INTERVAL = 0.01


class HeaderError(ValueError):
    """A malformed header line (``status`` 400) or an exceeded header limit (431)."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


def read_headers(fp) -> dict[str, str]:
    """Header lines from buffered ``fp`` up to the blank line or EOF, keyed by lower-case name.

    A repeated name keeps its values comma-joined (RFC 9110 section 5.3).
    Raises ``HeaderError`` on a malformed line or an exceeded limit.
    """
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        if (line := fp.readline(MAX_LINE + 1)) in _END_OF_HEAD:
            return headers
        if len(line) > MAX_LINE:
            raise HeaderError("header line too long", 431)
        name, colon, value = line.partition(b":")
        if not colon or not _FIELD_NAME.fullmatch(name):
            raise HeaderError(f"malformed header line {line[:64]!r}")
        key = name.decode().lower()
        value = value.strip().decode("iso-8859-1")
        headers[key] = f"{headers[key]}, {value}" if key in headers else value
    raise HeaderError(f"more than {MAX_HEADERS} headers", 431)


def request_page(target: str) -> str:
    """A GET's page: the request target without its query string and one trailing slash."""
    return urlsplit(target).path.removesuffix("/") or "/"


@lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    return formatdate(second, usegmt=True)


class _SilentHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Each response is one buffered write, flushed once by
    # handle_one_request; Nagle stays off so none waits on a delayed ACK.
    disable_nagle_algorithm = True
    wbufsize = 64 * 1024

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        pass

    def parse_request(self) -> bool:
        """The stdlib's checks, ``Connection``, ``Expect`` and ``//`` handling on ``read_headers``, plus body framing."""
        self.command = None
        self.request_version = "HTTP/1.0"  # so an error before the version is known has a status line
        self.close_connection = True
        self.requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if len(words) != 3:
            if words:
                self.send_error(400, f"Bad request syntax ({self.requestline!r})")
            return False
        command, path, version = words
        if version not in ("HTTP/1.1", "HTTP/1.0"):
            self.send_error(505 if _HTTP_VERSION.fullmatch(version) else 400, f"Bad request version ({version!r})")
            return False
        self.command, self.request_version = command, version
        # gh-87389: "//host/x" reads as a scheme-relative URL to clients.
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        try:
            self.headers = headers = read_headers(self.rfile)
        except HeaderError as exc:
            self.send_error(exc.status, str(exc))
            return False
        connection = headers.get("connection", "").lower()
        self.close_connection = connection == "close" or (version == "HTTP/1.0" and connection != "keep-alive")
        if "transfer-encoding" in headers:
            self.send_error(501, "Transfer-Encoding is not supported")
            return False
        length = headers.get("content-length", "0")
        if not (length.isascii() and length.isdigit()):
            self.send_error(400, f"Bad Content-Length ({length!r})")
            return False
        if int(length) > MAX_BODY:
            self.send_error(413)
            return False
        if version == "HTTP/1.1" and headers.get("expect", "").lower() == "100-continue":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            self.wfile.flush()
        self.rfile.read(int(length))
        return True

    def _send(self, status: int, body: bytes, content_type: str, extra: dict[str, str] | None = None) -> None:
        head = [
            f"HTTP/1.1 {status} {self.responses[status][0]}",
            f"Server: {self.version_string()}",
            f"Date: {_http_date(int(time.time()))}",
            f"content-type: {content_type}",
            f"content-length: {len(body)}",
            *(f"{k}: {v}" for k, v in (extra or {}).items()),
            "\r\n",
        ]
        self.wfile.write("\r\n".join(head).encode("iso-8859-1") + body)


class _VariantHandler(_SilentHandler):
    worker: EdgeWorker  # set on the subclass by VariantServer

    def do_GET(self) -> None:
        resp = self.worker.handle_request(request_page(self.path), SYSTEM_CLOCK)
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
        page = request_page(self.path)
        if page == "/posts":
            posts = generate_posts(
                self.upstream.seed, self.upstream.post_count,
                self.upstream.word_min, self.upstream.word_max,
            )
            body = json.dumps([asdict(p) for p in posts]).encode()
            self._send(200, body, "application/json")
            return
        if page.startswith("/posts/"):
            raw = page.removeprefix("/posts/")
            try:
                post_id = int(raw)
                if str(post_id) != raw:  # one URL per post: "03", "+3" and "0_3" are not ids
                    raise NotFoundError(raw)
                post = upstream_fetch(post_id, self.upstream, SYSTEM_CLOCK)
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
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, args=(_POLL_INTERVAL,), daemon=True
        )
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

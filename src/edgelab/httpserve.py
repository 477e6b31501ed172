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

Admin endpoints (POST, paths read by the same rule): ``/__admin/purge``
empties the cache and returns ``{"removed": n}``; ``/__admin/cold``
makes the next request pay the cold-start penalty.

The content API serves the posts it is given over HTTP: ``GET /posts``
returns the full list, ``GET /posts/<id>`` one post, both as JSON
objects with fields ``id``, ``slug``, ``title``, ``body``. Each body is
encoded once, when the server is made. A post is found only at its id
in canonical decimal (``/posts/3``, not ``/posts/03``), and a
single-post fetch waits the server's ``delay`` first, standing in for
the server-side work behind a real content API.

Framing: HTTP/1.0 and HTTP/1.1 only (HTTP/0.9 gets 400, other versions
505), keep-alive unless the request says ``Connection: close`` or is
HTTP/1.0 without ``keep-alive``. Lines end in CRLF or a bare LF, and one
empty line before a request line is ignored. A request line of 65,536
bytes or more gets 414; a request head has at most 100 header lines of
under 65,536 bytes each (431 beyond). A request body framed by
``content-length`` is read and discarded before dispatch (over 1 MiB gets
413); ``Transfer-Encoding`` gets 501 and a close. Each response is one
``sendall`` with a ``content-length``.

``parse_head`` is the head codec of both this server and the load client
in ``bench``: bytes in, start line and headers out, no socket.
``receive_head`` reads one head off a connection for both.
"""

from __future__ import annotations

import contextlib
import json
import re
import socket
import socketserver
import sys
import threading
import time
from dataclasses import asdict
from functools import lru_cache
from http import HTTPStatus
from typing import Callable, Iterable
from urllib.parse import urlsplit

from . import __version__
from .clock import SYSTEM_CLOCK
from .content import Post
from .edge import CacheStatus, EdgeWorker

# Head limits at the stdlib's values: 100 header lines, 65,536 bytes a line
# counted with its line end.
MAX_HEADERS = 100
MAX_LINE = 65536
MAX_BODY = 1 << 20  # a larger request body gets 413
_RECV_SIZE = 65536
_HEAD_END = re.compile(rb"\n\r?\n")  # the empty line that ends a head
_EMPTY_LINE = (b"\n", b"\r\n")
# A header line: RFC 9110 section 5.6.2 token, colon, value.
_FIELD = re.compile(r"([!#$%&'*+\-.^_`|~0-9A-Za-z]+):(.*)")
_WHITESPACE = " \t\r\x0b\x0c"  # what bytes.strip() strips, less the LF no line holds
_HTTP_VERSION = re.compile(r"HTTP/[0-9]+\.[0-9]+")
# How often ``serve_forever`` checks for a stop request: ``stop`` waits up to this long.
_POLL_INTERVAL = 0.01


class HeadError(ValueError):
    """A malformed head (``status`` 400) or an exceeded limit (414 for the start line, else 431)."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


def parse_head(head: bytes) -> tuple[str, dict[str, str]]:
    """The start line of a request or response head and its headers, keyed by lower-case name.

    ``head`` is the message up to the empty line that ends it, as
    ``receive_head`` returns it; its lines end in CRLF or a bare LF. A
    repeated name keeps its values comma-joined (RFC 9110 section 5.3).
    Raises ``HeadError`` for the first malformed line or exceeded limit,
    in line order.
    """
    start, *lines = head.decode("iso-8859-1").split("\n")
    if len(start) >= MAX_LINE:
        raise HeadError("start line too long", 414)
    headers: dict[str, str] = {}
    for line in lines[:MAX_HEADERS]:
        if len(line) >= MAX_LINE:
            raise HeadError("header line too long", 431)
        if (field := _FIELD.fullmatch(line)) is None:
            raise HeadError(f"malformed header line {line[:64]!r}")
        name, value = field[1].lower(), field[2].strip(_WHITESPACE)
        headers[name] = f"{headers[name]}, {value}" if name in headers else value
    if len(lines) > MAX_HEADERS:
        raise HeadError(f"more than {MAX_HEADERS} headers", 431)
    return start.rstrip("\r"), headers


def receive_head(recv: Callable[[int], bytes], buf: bytes) -> tuple[bytes, bytes]:
    """Call ``recv`` until ``buf`` holds a whole head; return the head and the bytes after it.

    A head whose first line is empty is empty. Each search for the end
    starts where the last one left off, and a head over several reads
    grows in place. While the head is unfinished, its unfinished line and
    its line count are held to ``parse_head``'s limits, so a head over
    them is not buffered to its end; a fault among its complete lines,
    which come first, is named before the limit. Raises
    ``ConnectionError`` at EOF before any byte, ``HeadError`` at EOF inside
    a head or beyond a limit.
    """
    seen = lines = line_start = 0
    if not buf and not (buf := recv(_RECV_SIZE)):
        raise ConnectionError("connection closed before a head")
    data = buf  # the bytes received, a bytearray once a second read is needed
    while not data.startswith(_EMPTY_LINE):
        if (end := _HEAD_END.search(data, max(seen - 2, 0))) is not None:
            return bytes(data[: end.start()]), bytes(data[end.end() :])
        if (last := data.rfind(b"\n", seen)) >= 0:
            lines += data.count(b"\n", seen)
            line_start = last + 1
        if len(data) - line_start >= MAX_LINE or lines > MAX_HEADERS + 1:
            if lines == 0:
                raise HeadError("start line too long", 414)
            # A fault in the complete lines, a line too many among them, comes first.
            parse_head(bytes(data[: line_start - 1]))
            raise HeadError("header line too long", 431)
        if not (chunk := recv(_RECV_SIZE)):
            raise HeadError("connection closed inside a head")
        seen = len(data)
        if data is buf:
            data = bytearray(buf)
        data += chunk
    return b"", bytes(data[data.index(b"\n") + 1 :])


def request_page(target: str) -> str:
    """A GET's page: the request target without its query, fragment and one trailing slash."""
    return urlsplit(target).path.removesuffix("/") or "/"


# Constant response parts, joined with the rest of each response once.
_STATUS_LINES = {s.value: b"HTTP/1.1 %d %s\r\n" % (s.value, s.phrase.encode()) for s in HTTPStatus}
_SERVER = f"edgelab/{__version__} Python/{sys.version.split()[0]}"
_HTML = b"content-type: text/html; charset=utf-8\r\n"
_JSON = b"content-type: application/json\r\n"
_TEXT = b"content-type: text/plain; charset=utf-8\r\n"
_CLOSE = b"Connection: close\r\n"
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"
_CACHE_FIELDS = {s: b"x-edge-cache: %s\r\n" % s.value.encode() for s in CacheStatus}


_DAY_NAMES = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTH_NAMES = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


@lru_cache(maxsize=1)  # made once a second
def _server_and_date(second: int) -> bytes:
    """``Server`` and ``Date`` fields, the date an IMF-fixdate (RFC 9110 section 5.6.7) with English names."""
    t = time.gmtime(second)
    date = (
        f"{_DAY_NAMES[t.tm_wday]}, {t.tm_mday:02d} {_MONTH_NAMES[t.tm_mon - 1]} {t.tm_year:04d} "
        f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT"
    )
    return f"Server: {_SERVER}\r\nDate: {date}\r\n".encode()


class _SilentHandler(socketserver.BaseRequestHandler):
    """One connection: receive a head, parse it, dispatch to ``do_<METHOD>``, answer; repeat.

    Bytes received past a head (a body, a pipelined request) stay in
    ``_buf`` for the next read. A peer that goes away ends the connection
    without a traceback.
    """

    def setup(self) -> None:
        # Each response is one sendall; Nagle stays off so none waits on a delayed ACK.
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = b""
        self.command: str | None = None

    def handle(self) -> None:
        self.close_connection = False
        with contextlib.suppress(ConnectionError):
            while not self.close_connection:
                self.handle_one_request()

    def handle_one_request(self) -> None:
        """Receive one request head, then parse, dispatch and answer it; at EOF, end the connection."""
        try:
            self.raw_head, self._buf = receive_head(self.request.recv, self._buf)
            if not self.raw_head:  # one empty line before a request line is ignored (RFC 9112 section 2.2)
                self.raw_head, self._buf = receive_head(self.request.recv, self._buf)
        except ConnectionError:
            self.close_connection = True
            return
        except HeadError as exc:
            self.send_error(exc.status, str(exc))
            return
        if self.parse_request():
            method = getattr(self, "do_" + self.command, None)
            if method is None:
                self.send_error(501, f"Unsupported method ({self.command!r})")
            else:
                method()

    def parse_request(self) -> bool:
        """Request line, headers, ``Connection``, ``Expect``, ``//`` and body framing of ``raw_head``.

        On a fault the fault is answered and the result is False.
        """
        self.command = None
        self.close_connection = True
        try:
            requestline, headers = parse_head(self.raw_head)
        except HeadError as exc:
            self.send_error(exc.status, str(exc))
            return False
        words = requestline.split()
        if len(words) != 3:
            if words:
                self.send_error(400, f"Bad request syntax ({requestline!r})")
            return False
        command, path, version = words
        if version not in ("HTTP/1.1", "HTTP/1.0"):
            self.send_error(505 if _HTTP_VERSION.fullmatch(version) else 400, f"Bad request version ({version!r})")
            return False
        self.command = command
        # gh-87389: "//host/x" reads as a scheme-relative URL to clients.
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        connection = headers.get("connection", "").lower()
        self.close_connection = connection == "close" or (version == "HTTP/1.0" and connection != "keep-alive")
        if "transfer-encoding" in headers:
            self.send_error(501, "Transfer-Encoding is not supported")
            return False
        size = 0
        if (length := headers.get("content-length")) is not None:
            if not (length.isascii() and length.isdigit()):
                self.send_error(400, f"Bad Content-Length ({length!r})")
                return False
            digits = length.lstrip("0")  # int() refuses a string of over 4,300 digits
            if len(digits) > len(str(MAX_BODY)) or (size := int(digits or "0")) > MAX_BODY:
                self.send_error(413, f"a body of {length[:20]} bytes is over {MAX_BODY}")
                return False
        if version == "HTTP/1.1" and headers.get("expect", "").lower() == "100-continue":
            self.request.sendall(_CONTINUE)
        if size:
            self._discard(size)
        return True

    def _discard(self, n: int) -> None:
        """Drop the next ``n`` bytes of the connection, a body nothing reads, or all up to EOF."""
        buf = self._buf
        while len(buf) < n and (chunk := self.request.recv(_RECV_SIZE)):
            n -= len(buf)
            buf = chunk
        self._buf = buf[n:]

    def _send(self, status: int, body: bytes, *fields: bytes) -> None:
        """One response in one ``sendall``: status line, ``Server``, ``Date``, ``content-length``, ``fields``, body."""
        head = b"%s%scontent-length: %d\r\n" % (_STATUS_LINES[status], _server_and_date(int(time.time())), len(body))
        self.request.sendall(b"".join((head, *fields, b"\r\n", body)))

    def send_error(self, status: int, message: str) -> None:
        """Answer ``status`` with ``message`` as plain text, and end the connection."""
        self.close_connection = True
        body = b"" if self.command == "HEAD" else f"{status} {HTTPStatus(status).phrase}: {message}\n".encode()
        self._send(status, body, _TEXT, _CLOSE)


class _VariantHandler(_SilentHandler):
    worker: EdgeWorker  # set on the subclass by VariantServer

    def do_GET(self) -> None:
        resp = self.worker.handle_request(request_page(self.path), SYSTEM_CLOCK)
        server_us = b"x-server-time-us: %d\r\n" % round(resp.server_time * 1e6)
        self._send(resp.status, resp.body, _HTML, _CACHE_FIELDS[resp.cache_status], server_us)

    def do_POST(self) -> None:
        endpoint = request_page(self.path)
        if endpoint == "/__admin/purge":
            removed = self.worker.purge_cache()
            body = json.dumps({"removed": removed}).encode()
            self._send(200, body, _JSON)
        elif endpoint == "/__admin/cold":
            self.worker.cold_worker()
            self._send(200, b'{"ok": true}', _JSON)
        else:
            self._send(404, b'{"error": "unknown admin endpoint"}', _JSON)


class _ContentHandler(_SilentHandler):
    # Set on the subclass by ContentServer.
    list_body: bytes
    post_bodies: dict[str, bytes]  # keyed by post id in canonical decimal
    delay: float

    def do_GET(self) -> None:
        page = request_page(self.path)
        if page == "/posts":
            self._send(200, self.list_body, _JSON)
        elif not page.startswith("/posts/"):
            self._send(404, b'{"error": "not found"}', _JSON)
        elif (body := self.post_bodies.get(page.removeprefix("/posts/"))) is None:
            self._send(404, b'{"error": "no such post"}', _JSON)
        else:
            time.sleep(self.delay)
            self._send(200, body, _JSON)


class _HTTPServer(socketserver.ThreadingTCPServer):
    """Binds IPv6 for an IPv6 literal and tracks open connections so a stop can end them."""

    allow_reuse_address = True  # as http.server's servers set them
    daemon_threads = True

    def __init__(self, address: tuple[str, int], handler_cls: type[socketserver.BaseRequestHandler]):
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
    """Owns a threading TCP server running on a daemon thread."""

    def __init__(self, handler_cls: type[socketserver.BaseRequestHandler], host: str, port: int):
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
        if self._thread is not None:  # else shutdown() waits forever for a serve_forever that never ran
            self._httpd.shutdown()
            self._thread.join(timeout=5)
        for conn in list(self._httpd.open_connections):
            with contextlib.suppress(OSError):  # closed by its handler meanwhile
                conn.shutdown(socket.SHUT_RDWR)
        self._httpd.server_close()

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
    """Content API serving ``posts``; a single-post GET waits ``delay`` seconds first."""

    def __init__(self, posts: Iterable[Post], delay: float = 0.1, host: str = "127.0.0.1", port: int = 0):
        if delay < 0:
            raise ValueError("delay must be >= 0")
        encoded = [(str(p.id), json.dumps(asdict(p)).encode()) for p in posts]
        attrs = {
            "list_body": b"[" + b", ".join(body for _, body in encoded) + b"]",
            "post_bodies": dict(encoded),
            "delay": delay,
        }
        super().__init__(type("BoundContentHandler", (_ContentHandler,), attrs), host, port)

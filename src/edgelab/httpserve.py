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
``content-length`` is skipped unread (over 1 MiB gets 413);
``Transfer-Encoding`` gets 501 and a close. Each response is one
``sendall`` with a ``content-length``.

``parse_head`` is the head codec of both this server and the load client
in ``bench``: bytes in, start line and headers out, no socket.
``receive_head`` reads one head off a connection for both. Each
connection is a loop: receive a head, ``respond`` to it (bytes in, bytes
out, no socket), send ``100 Continue`` if asked, skip the body, and
``sendall`` the reply. A refused request is a ``HeadError`` carrying its
status, 501 included.
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
    """A refused request and the ``status`` it is answered with.

    400 if malformed, 414 or 431 for a line over its limit, 413 for a body over ``MAX_BODY``,
    505 for an unsupported version, 501 for ``Transfer-Encoding`` or a method the route does not serve.
    """

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


def _reply(status: int, body: bytes, fields: tuple[bytes, ...]) -> bytes:
    """One whole response: status line, ``Server``, ``Date``, ``content-length``, ``fields``, body."""
    head = b"%s%scontent-length: %d\r\n" % (_STATUS_LINES[status], _server_and_date(int(time.time())), len(body))
    return b"".join((head, *fields, b"\r\n", body))


def _error(exc: HeadError, method: str | None = None) -> bytes:
    """A plain-text answer to ``exc`` that ends the connection; to a HEAD request, without its body."""
    body = b"" if method == "HEAD" else f"{exc.status} {HTTPStatus(exc.status).phrase}: {exc}\n".encode()
    return _reply(exc.status, body, (_TEXT, _CLOSE))


def respond(
    head: bytes, route: Callable[[str, str], tuple[int, bytes, tuple[bytes, ...]]]
) -> tuple[bytes, bool, int, bool]:
    """Answer one request head, no socket involved: ``(reply, close, body_length, expect_continue)``.

    ``head`` is what ``receive_head`` returns. The request line, version,
    headers and body framing are checked, a fault is answered in plain
    text with a close, and ``route(method, page)`` answers the rest: it
    returns ``(status, body, fields)``, each field a CRLF-ended header
    line, or raises ``HeadError(..., 501)`` for a method it does not serve.
    ``reply`` is empty for a request line of blanks, which gets no answer.
    The caller sends ``100 Continue`` first if ``expect_continue``, then
    skips ``body_length`` bytes of request body, then sends ``reply``.
    """
    method = None  # known once the request line and version are sound
    size, expect_continue = 0, False
    try:
        requestline, headers = parse_head(head)
        words = requestline.split()
        if not words:
            return b"", True, 0, False
        if len(words) != 3:
            raise HeadError(f"Bad request syntax ({requestline!r})")
        if (version := words[2]) not in ("HTTP/1.1", "HTTP/1.0"):
            raise HeadError(f"Bad request version ({version!r})", 505 if _HTTP_VERSION.fullmatch(version) else 400)
        method, target = words[:2]
        connection = headers.get("connection", "").lower()
        close = connection == "close" or (version == "HTTP/1.0" and connection != "keep-alive")
        if "transfer-encoding" in headers:
            raise HeadError("Transfer-Encoding is not supported", 501)
        if (length := headers.get("content-length")) is not None:
            if not (length.isascii() and length.isdigit()):
                raise HeadError(f"Bad Content-Length ({length!r})")
            digits = length.lstrip("0")  # int() refuses a string of over 4,300 digits
            if len(digits) > len(str(MAX_BODY)) or (n := int(digits or "0")) > MAX_BODY:
                raise HeadError(f"a body of {length[:20]} bytes is over {MAX_BODY}", 413)
            size = n
        expect_continue = version == "HTTP/1.1" and headers.get("expect", "").lower() == "100-continue"
        # gh-87389: "//host/x" reads as a scheme-relative URL to clients.
        page = request_page("/" + target.lstrip("/") if target.startswith("//") else target)
        status, body, fields = route(method, page)
    except HeadError as exc:
        return _error(exc, method), True, size, expect_continue
    return _reply(status, body, fields), close, size, expect_continue


class _SilentHandler(socketserver.BaseRequestHandler):
    """One connection: receive a request head, answer it with ``respond`` and the subclass's ``route``; repeat.

    Bytes received past a head (a body, a pipelined request) stay in
    ``_buf`` for the next read. A peer that goes away ends the connection
    without a traceback.
    """

    def setup(self) -> None:
        # Each response is one sendall; Nagle stays off so none waits on a delayed ACK.
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = b""

    def handle(self) -> None:
        with contextlib.suppress(ConnectionError):
            while self.handle_one_request():
                pass

    def handle_one_request(self) -> bool:
        """Receive one request and answer it; False once the connection is to end."""
        try:
            self._head, self._buf = receive_head(self.request.recv, self._buf)
            if not self._head:  # one empty line before a request line is ignored (RFC 9112 section 2.2)
                self._head, self._buf = receive_head(self.request.recv, self._buf)
        except ConnectionError:
            return False
        except HeadError as exc:
            reply, close = _error(exc), True
        else:
            reply, close, size, expect_continue = self.parse_request()
            if expect_continue:
                self.request.sendall(_CONTINUE)
            buf = self._buf  # skip the body, which no route reads, or all up to EOF
            while len(buf) < size and (chunk := self.request.recv(_RECV_SIZE)):
                size -= len(buf)
                buf = chunk
            self._buf = buf[size:]
        self.request.sendall(reply)
        return not close

    def parse_request(self) -> tuple[bytes, bool, int, bool]:
        # Its own method, though one call, so that a tracer can wrap the span
        # from a received head to the sent reply without the wait for the head.
        return respond(self._head, self.route)


class _VariantHandler(_SilentHandler):
    server: VariantServer

    def route(self, method: str, page: str) -> tuple[int, bytes, tuple[bytes, ...]]:
        worker = self.server.worker
        if method == "GET":
            resp = worker.handle_request(page, SYSTEM_CLOCK)
            server_us = b"x-server-time-us: %d\r\n" % round(resp.server_time * 1e6)
            return resp.status, resp.body, (_HTML, _CACHE_FIELDS[resp.cache_status], server_us)
        if method != "POST":
            raise HeadError(f"Unsupported method ({method!r})", 501)
        if page == "/__admin/purge":
            return 200, json.dumps({"removed": worker.purge_cache()}).encode(), (_JSON,)
        if page == "/__admin/cold":
            worker.cold_worker()
            return 200, b'{"ok": true}', (_JSON,)
        return 404, b'{"error": "unknown admin endpoint"}', (_JSON,)


class _ContentHandler(_SilentHandler):
    server: ContentServer

    def route(self, method: str, page: str) -> tuple[int, bytes, tuple[bytes, ...]]:
        if method != "GET":
            raise HeadError(f"Unsupported method ({method!r})", 501)
        if page == "/posts":
            return 200, self.server.list_body, (_JSON,)
        if not page.startswith("/posts/"):
            return 404, b'{"error": "not found"}', (_JSON,)
        if (body := self.server.post_bodies.get(page.removeprefix("/posts/"))) is None:
            return 404, b'{"error": "no such post"}', (_JSON,)
        time.sleep(self.server.delay)
        return 200, body, (_JSON,)


class _Server(socketserver.ThreadingTCPServer):
    """A threading TCP server that binds IPv6 for an IPv6 literal and serves on its own daemon thread.

    It tracks open connections, so a stop can end them.
    """

    allow_reuse_address = True  # as http.server's servers set them
    daemon_threads = True

    def __init__(self, handler_cls: type[_SilentHandler], host: str, port: int):
        self.address_family = socket.AF_INET6 if ":" in host else socket.AF_INET
        self.open_connections: set[socket.socket] = set()
        self._serving: threading.Thread | None = None
        super().__init__((host, port), handler_cls)

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://[{host}]:{port}" if ":" in host else f"http://{host}:{port}"

    def process_request(self, request, client_address) -> None:
        self.open_connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        self.open_connections.discard(request)
        super().shutdown_request(request)

    def start(self) -> None:
        self._serving = threading.Thread(target=self.serve_forever, args=(_POLL_INTERVAL,), daemon=True)
        self._serving.start()

    def stop(self) -> None:
        """Stop accepting, and end open keep-alive connections so none reaches a stopped server."""
        if self._serving is not None:  # else shutdown() waits forever for a serve_forever that never ran
            self.shutdown()
            self._serving.join(timeout=5)
        for conn in list(self.open_connections):
            with contextlib.suppress(OSError):  # closed by its handler meanwhile
                conn.shutdown(socket.SHUT_RDWR)
        self.server_close()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class VariantServer(_Server):
    """Serves one worker. Port 0 binds an ephemeral port."""

    def __init__(self, worker: EdgeWorker, host: str = "127.0.0.1", port: int = 0):
        self.worker = worker
        super().__init__(_VariantHandler, host, port)


class ContentServer(_Server):
    """Content API serving ``posts``; a single-post GET waits ``delay`` seconds first."""

    def __init__(self, posts: Iterable[Post], delay: float = 0.1, host: str = "127.0.0.1", port: int = 0):
        if delay < 0:
            raise ValueError("delay must be >= 0")
        encoded = [(str(p.id), json.dumps(asdict(p)).encode()) for p in posts]
        self.list_body = b"[" + b", ".join(body for _, body in encoded) + b"]"
        self.post_bodies = dict(encoded)  # keyed by post id in canonical decimal
        self.delay = delay
        super().__init__(_ContentHandler, host, port)

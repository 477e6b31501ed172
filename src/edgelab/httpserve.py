"""HTTP/1.1 at both ends of a served variant: the server and the load client.

Each served variant exposes its worker on one port (an IPv6 literal
host such as ``::1`` binds IPv6). A GET's page, which is also its cache
key, is the request path without its query string and without one
trailing slash: ``/posts/post-1/?utm=x`` is ``/posts/post-1``, and ``/``
stays ``/``. No page of the site depends on the query. Responses carry
two diagnostic headers, read by the load client here and by external
tools:

    x-edge-cache: HIT | MISS | STALE | BYPASS
    x-server-time-us: <integer microseconds>

Admin endpoints (POST, paths read by the same rule): ``/__admin/purge``
empties the cache and returns ``{"removed": n}``; ``/__admin/cold``
makes the next request pay the cold-start penalty.

Framing: HTTP/1.0 and HTTP/1.1 only (HTTP/0.9 gets 400, other versions
505), keep-alive unless the message says ``Connection: close`` or is
HTTP/1.0 without ``keep-alive``. Lines end in CRLF or a bare LF, and one
empty line before a request line is ignored. A request line of 65,536
bytes or more gets 414; a request head has at most 100 header lines of
under 65,536 bytes each (431 beyond). A body is framed by
``content-length`` (ASCII digits); a request body is skipped unread
(over 1 MiB gets 413), and ``Transfer-Encoding`` gets 501 and a close.
A request target that ``urlsplit`` refuses, as ``http://[x``, gets 400.
Each response is one ``sendall`` with a ``content-length``.

The load client, which ``bench`` drives, shares the server's head
reader (``_read_head``, which ``receive_head`` drives on a blocking
socket), its head codec (``parse_head``: bytes in, start line and
headers out, no socket) and every other rule of the wire: ``_framing``,
``_authority``, the diagnostic headers and admin paths. Its sockets are
non-blocking. An ``_HttpTarget`` is one keep-alive connection whose
requests are steps of one generator that stops at each wait for the
socket: an audit waits on its one socket, and ``_closed_loop`` drives
every connection of a load run from one thread on one selector, each
wait up to ``_TIMEOUT``. On the server, each connection is a loop: receive a head, ``respond``
to it (bytes in, bytes out, no socket), send ``100 Continue`` if asked,
skip the body, and ``sendall`` the reply. A refused request is a
``HeadError`` carrying its status, 501 included.

Each end reads a distinct head once per process. Every request head
edgelab's client sends for one path is byte-identical, and a variant's
reply head changes only with its ``Date`` second and its
``x-server-time-us``; so the server keeps what it takes from a request
head (``_request_of``) and the client what it takes from a reply head
(``_reply_of``) in a ``functools.lru_cache`` of ``_MEMO_HEADS`` heads
each. Only heads of at most ``_MEMO_HEAD_BYTES`` bytes are kept, so each
memo holds under 200 KiB; a longer head is read anew each time
(``__wrapped__``). A head that gets a fault is never kept: it raises on
every read, and the route, the worker and the ``Date`` field stay live
on every request.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import re
import selectors
import socket
import socketserver
import sys
import threading
import time
from functools import lru_cache
from http import HTTPStatus
from typing import Callable, Generator, Iterator
from urllib.parse import urlsplit

from . import __version__
from .clock import SYSTEM_CLOCK, Clock
from .edge import CacheStatus, EdgeWorker, Response

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
# Every line of a head's fields at once, each match one whole line, its value stripped on the left.
_FIELD_LINES = re.compile(r"^([!#$%&'*+\-.^_`|~0-9A-Za-z]+):[ \t\r\x0b\x0c]*(.*)$", re.MULTILINE)
_WHITESPACE = " \t\r\x0b\x0c"  # what bytes.strip() strips, less the LF no line holds
_HTTP_VERSION = re.compile(r"HTTP/[0-9]+\.[0-9]+")
# How often ``serve_forever`` checks for a stop request: ``stop`` waits up to this long.
_POLL_INTERVAL = 0.01
# The head memos at both ends: how many heads each keeps, and the longest head it keeps. A reply
# head changes with its Date second and its measured x-server-time-us (about 16 heads a second from
# a STATIC variant over loopback), so 128 heads hold the last few seconds' heads; 1,024 also held a
# 30 s run's stale heads and raised its peak RSS by 0.23 MB.
_MEMO_HEADS = 128
_MEMO_HEAD_BYTES = 1024


class HeadError(ValueError):
    """A refused request and the ``status`` it is answered with.

    400 if malformed, 414 or 431 for a line over its limit, 413 for a body over ``MAX_BODY``,
    505 for an unsupported version, 501 for ``Transfer-Encoding`` or a method the route does not serve.
    """

    method: str | None = None  # the request's method, set once its request line and version are sound

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
    start, newline, rest = head.decode("iso-8859-1").partition("\n")
    # The usual head in one pass: no line can be over the limit, every line is a field, no name repeats.
    if rest and len(head) < MAX_LINE:
        fields = _FIELD_LINES.findall(rest)
        if len(fields) == rest.count("\n") + 1 <= MAX_HEADERS:
            headers = {name.lower(): value.rstrip(_WHITESPACE) for name, value in fields}
            if len(headers) == len(fields):
                return start.rstrip("\r"), headers
    lines = rest.split("\n") if newline else []
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


def _read_head(recv: Callable[[int], bytes], buf: bytes) -> Generator[None, None, tuple[bytes, bytes]]:
    """Read a head from ``recv`` as its bytes arrive; return the head and the bytes after it.

    It starts from ``buf``, the bytes already received, and yields before
    each call of ``recv``: a caller with a non-blocking socket resumes it
    once the socket is readable, one with a blocking socket at once. A
    head whose first line is empty is empty. Each search for the end
    starts where the last one left off, and a head over several reads
    grows in place. While the head is unfinished, its unfinished line and
    its line count are held to ``parse_head``'s limits, so a head over
    them is not buffered to its end; a fault among its complete lines,
    which come first, is named before the limit. Raises
    ``ConnectionError`` at EOF before any byte, ``HeadError`` at EOF
    inside a head or beyond a limit.
    """
    seen = lines = line_start = 0
    if not buf:
        yield
        if not (buf := recv(_RECV_SIZE)):
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
        yield
        if not (chunk := recv(_RECV_SIZE)):
            raise HeadError("connection closed inside a head")
        seen = len(data)
        if data is buf:
            data = bytearray(buf)
        data += chunk
    return b"", bytes(data[data.index(b"\n") + 1 :])


def receive_head(recv: Callable[[int], bytes], buf: bytes) -> tuple[bytes, bytes]:
    """Call ``recv``, which blocks, until ``buf`` holds a whole head; return the head and the bytes after it.

    The head is read by ``_read_head``, with its limits and faults. A
    head found whole in the first bytes, as a request usually is, is cut
    out by the same search without starting the reader.
    """
    if (buf or (buf := recv(_RECV_SIZE))) and not buf.startswith(_EMPTY_LINE):
        if (end := _HEAD_END.search(buf)) is not None:
            return buf[: end.start()], buf[end.end() :]
    reader = _read_head(recv, buf)
    try:
        while True:
            next(reader)
    except StopIteration as done:
        return done.value


def request_page(target: str) -> str:
    """A GET's page: the request target without its query, fragment and one trailing slash."""
    return urlsplit(target).path.removesuffix("/") or "/"


def _authority(host: str, port: int) -> str:
    """``host:port``, an IPv6 host in brackets (RFC 3986 section 3.2.2)."""
    return f"[{host}]:{port}" if ":" in host else f"{host}:{port}"


def _framing(version: str, headers: dict[str, str], limit: int) -> tuple[int, bool]:
    """How a message ends: ``(body length, close)``, the length 0 without a ``content-length``.

    The length is ASCII digits, leading zeros ignored (``int()`` refuses over 4,300 digits);
    ``HeadError`` 501 for ``Transfer-Encoding``, which neither end reads, 400 for another value,
    413 over ``limit``. ``close``: ``Connection: close``, or HTTP/1.0 without ``keep-alive``.
    """
    connection = headers.get("connection", "").lower()
    close = connection == "close" or (version == "HTTP/1.0" and connection != "keep-alive")
    if "transfer-encoding" in headers:
        raise HeadError("Transfer-Encoding is not supported", 501)
    if (length := headers.get("content-length")) is None:
        return 0, close
    if not (length.isascii() and length.isdigit()):
        raise HeadError(f"Bad Content-Length ({length!r})")
    digits = length.lstrip("0")
    if len(digits) > len(str(limit)) or (n := int(digits or "0")) > limit:
        raise HeadError(f"a body of {length[:20]} bytes is over {limit}", 413)
    return n, close


# A response's status line: HTTP/1.<minor> <3-digit status>[ <reason>].
_STATUS_LINE = re.compile(r"(HTTP/1\.[0-9]) ([0-9]{3})(?: |\Z)")
# The diagnostic headers of a variant's GET, written by the server and read by the client: the cache
# status, bound once both ways so neither end calls the enum, and whole microseconds, 15 digits at most (31 years).
_CACHE_HEADER = "x-edge-cache"
_CACHE_FIELDS = {s: f"{_CACHE_HEADER}: {s.value}\r\n".encode() for s in CacheStatus}
_CACHE_STATUSES = {s.value: s for s in CacheStatus}
_SERVER_TIME_HEADER = "x-server-time-us"
_SERVER_TIME_FIELD = f"{_SERVER_TIME_HEADER}: %d\r\n".encode()
_MICROSECONDS = re.compile(r"[0-9]{1,15}")
# The admin endpoints, POSTed with an empty body; a purge answers {"removed": n}.
_PURGE = "/__admin/purge"
_COLD = "/__admin/cold"


# Constant response parts, joined with the rest of each response once.
_STATUS_LINES = {s.value: b"HTTP/1.1 %d %s\r\n" % (s.value, s.phrase.encode()) for s in HTTPStatus}
_SERVER = f"edgelab/{__version__} Python/{sys.version.split()[0]}"
_HTML = b"content-type: text/html; charset=utf-8\r\n"
_JSON = b"content-type: application/json\r\n"
_TEXT = b"content-type: text/plain; charset=utf-8\r\n"
_CLOSE = b"Connection: close\r\n"
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"


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


@lru_cache(maxsize=_MEMO_HEADS)
def _request_of(head: bytes) -> tuple[str, str, int, bool, bool] | None:
    """What a request head asks: ``(method, page, body_length, close, expect_continue)``, None for blanks.

    The request line, version, headers, body framing and target are
    checked; ``HeadError`` for a fault, carrying the method once the request line
    and version are sound. Memoized: see the module docstring.
    """
    requestline, headers = parse_head(head)
    words = requestline.split()
    if not words:
        return None
    if len(words) != 3:
        raise HeadError(f"Bad request syntax ({requestline!r})")
    if (version := words[2]) not in ("HTTP/1.1", "HTTP/1.0"):
        raise HeadError(f"Bad request version ({version!r})", 505 if _HTTP_VERSION.fullmatch(version) else 400)
    method, target = words[:2]
    try:
        size, close = _framing(version, headers, MAX_BODY)
        try:
            # gh-87389: "//host/x" reads as a scheme-relative URL to clients.
            page = request_page("/" + target.lstrip("/") if target.startswith("//") else target)
        except ValueError as exc:  # urlsplit refuses the target, as "http://[x"
            raise HeadError(f"Bad request target ({target[:64]!r}): {exc}") from exc
    except HeadError as exc:
        exc.method = method
        raise
    expect_continue = version == "HTTP/1.1" and headers.get("expect", "").lower() == "100-continue"
    return method, page, size, close, expect_continue


def respond(
    head: bytes, route: Callable[[str, str], tuple[int, bytes, tuple[bytes, ...]]]
) -> tuple[bytes, bool, int, bool]:
    """Answer one request head, no socket involved: ``(reply, close, body_length, expect_continue)``.

    ``head`` is what ``receive_head`` returns. The request line, version,
    headers and body framing are checked by ``_request_of``, a fault is
    answered in plain text with a close, and ``route(method, page)``
    answers the rest: it returns ``(status, body, fields)``, each field a
    CRLF-ended header line, or raises ``HeadError(..., 501)`` for a method
    it does not serve. ``reply`` is empty for a request line of blanks,
    which gets no answer. The caller sends ``100 Continue`` first if
    ``expect_continue``, then skips ``body_length`` bytes of request body,
    then sends ``reply``.
    """
    try:
        request = (_request_of if len(head) <= _MEMO_HEAD_BYTES else _request_of.__wrapped__)(head)
    except HeadError as exc:
        return _error(exc, exc.method), True, 0, False
    if request is None:
        return b"", True, 0, False
    method, page, size, close, expect_continue = request
    try:
        status, body, fields = route(method, page)
    except HeadError as exc:
        return _error(exc, method), True, size, expect_continue
    return _reply(status, body, fields), close, size, expect_continue


class _VariantHandler(socketserver.BaseRequestHandler):
    """One connection to a variant: receive a request head, answer it with ``respond`` and ``route``; repeat.

    Bytes received past a head (a body, a pipelined request) stay in
    ``_buf`` for the next read. A peer that goes away ends the connection
    without a traceback.
    """

    server: VariantServer

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

    def route(self, method: str, page: str) -> tuple[int, bytes, tuple[bytes, ...]]:
        worker = self.server.worker
        if method == "GET":
            resp = worker.handle_request(page, SYSTEM_CLOCK)
            server_us = _SERVER_TIME_FIELD % round(resp.server_time * 1e6)
            return resp.status, resp.body, (_HTML, _CACHE_FIELDS[resp.cache_status], server_us)
        if method != "POST":
            raise HeadError(f"Unsupported method ({method!r})", 501)
        if page == _PURGE:
            return 200, json.dumps({"removed": worker.purge_cache()}).encode(), (_JSON,)
        if page == _COLD:
            worker.cold_worker()
            return 200, b'{"ok": true}', (_JSON,)
        return 404, b'{"error": "unknown admin endpoint"}', (_JSON,)


class VariantServer(socketserver.ThreadingTCPServer):
    """Serves one worker on its own daemon thread. Port 0 binds an ephemeral port; an IPv6 literal binds IPv6.

    It tracks open connections, so a stop can end them.
    """

    allow_reuse_address = True  # as http.server's servers set them
    daemon_threads = True
    # The platform's listen backlog, not socketserver's 5: a load run opens all its connections at once,
    # and a handshake the backlog drops is sent again only about 1 s later.
    request_queue_size = socket.SOMAXCONN

    def __init__(self, worker: EdgeWorker, host: str = "127.0.0.1", port: int = 0):
        self.worker = worker
        self.address_family = socket.AF_INET6 if ":" in host else socket.AF_INET
        self.open_connections: set[socket.socket] = set()
        self._serving: threading.Thread | None = None
        super().__init__((host, port), _VariantHandler)

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{_authority(*self.server_address[:2])}"

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


class TargetUnreachableError(RuntimeError):
    """The benchmark target produced no successful response."""


# How long the client waits on a socket, for a connect, the room to send or the next bytes of a reply.
_TIMEOUT = 30.0
# What the client takes from a reply head: status, body length, close, server time (None without one), cache status.
_Reply = tuple[int, int, bool, float | None, CacheStatus]
# How a request ends: the reply's head and body, or the fault that ended its connection.
_Outcome = tuple[_Reply, bytes] | TargetUnreachableError


def _host_port(url: str) -> tuple[str, int]:
    """Host and port of a variant's base URL: ``http://host:port``, ``host:port`` or ``[::1]:port``.

    A variant is served at the root, so a base path is rejected rather
    than silently dropped. An empty port means 80 (RFC 3986 section
    3.2.3); port 0 names no server, so it is rejected.
    """
    split = urlsplit(url if "//" in url else f"//{url}")
    try:
        port = split.port
    except ValueError as exc:
        raise ValueError(f"unsupported target url: {url}: {exc}") from exc
    if split.scheme not in ("http", "") or not split.hostname or port == 0:
        raise ValueError(f"unsupported target url: {url}")
    if split.path not in ("", "/") or split.query or split.fragment:
        raise ValueError(f"target url must not carry a path or query: {url}")
    return split.hostname, 80 if port is None else port


@lru_cache(maxsize=_MEMO_HEADS)
def _reply_of(head: bytes) -> _Reply:
    """What a response head says, read by the server's codec and ``_framing``; memoized as ``_request_of``.

    The server time is x-server-time-us in seconds, None without that
    header, and the cache status is x-edge-cache, BYPASS without it.
    ``ValueError`` for a response that breaks HTTP/1.1, one not framed by
    ``content-length``, or a bad value of either diagnostic header.
    """
    status_line, headers = parse_head(head)
    if (status := _STATUS_LINE.match(status_line)) is None:
        raise ValueError(f"not an HTTP/1.x response: {status_line[:64]!r}")
    if "content-length" not in headers:
        raise ValueError("response not framed by content-length")
    n, close = _framing(status[1], headers, sys.maxsize)
    server_time = None
    if (server_us := headers.get(_SERVER_TIME_HEADER)) is not None:
        if not _MICROSECONDS.fullmatch(server_us):
            raise ValueError(f"a bad {_SERVER_TIME_HEADER}: {server_us!r}")
        server_time = int(server_us) / 1e6
    cache_header = headers.get(_CACHE_HEADER, "BYPASS")
    if (cache_status := _CACHE_STATUSES.get(cache_header)) is None:
        raise ValueError(f"an unknown {_CACHE_HEADER}: {cache_header!r}")
    return int(status[2]), n, close, server_time, cache_status


def _page_response(reply: _Reply, body: bytes, elapsed: float) -> Response:
    """A GET's reply as the worker's ``Response``: its server time, else ``elapsed`` seconds."""
    status, _, _, server_time, cache_status = reply
    return Response(status, body, elapsed if server_time is None else server_time, cache_status)


class _HttpTarget:
    """A served variant behind the worker's interface, over one keep-alive connection.

    Each request is a step of one generator (``_exchange``): it connects
    if need be, sends the request, reads the head with ``_read_head`` and
    the body as ``_reply_of`` frames it, and it stops at each wait for
    its socket. The socket is non-blocking and stays registered on
    ``selector`` for the event the exchange waits on, so one thread can
    drive many targets on one selector with ``begin`` and ``advance``
    (``_closed_loop``). A target made without a selector has one of its
    own: ``handle_request``, ``purge_cache`` and ``cold_worker`` wait on
    it, up to ``_TIMEOUT`` each time.

    The socket opens on the first request and is kept until ``close`` or
    a response that ends the connection (``_framing``). A request whose
    reused connection closes or resets before any byte of the reply (the
    server may have closed it while idle) is sent once more on a fresh
    connection, which RFC 9112 section 9.3.1 allows because GET and both
    admin POSTs are idempotent in effect; no other fault is retried. A
    failed connect, a reset, a close before the response or a wait over
    ``_TIMEOUT`` means the target is unreachable; a response that breaks
    HTTP/1.1 is reported as such. Server time comes from the
    x-server-time-us response header so the client's own overhead does
    not pollute the server-side metric.
    """

    def __init__(self, base_url: str, selector: selectors.BaseSelector | None = None):
        self._address = _host_port(base_url)
        self._authority = _authority(*self._address)
        self._head_tail = f" HTTP/1.1\r\nHost: {self._authority}\r\n"
        self._requests: dict[tuple[str, str], bytes] = {}  # each request's bytes, made once
        self._own_selector = selector is None
        self._selector = selectors.DefaultSelector() if selector is None else selector
        self._sock: socket.socket | None = None
        self._events = 0  # what the socket is registered for
        self._buf = b""
        self._received = False  # whether a byte of the reply being read has arrived
        self._exchanges = self._exchange()
        next(self._exchanges)

    def close(self) -> None:
        self._hang_up()
        if self._own_selector:
            self._selector.close()

    def _hang_up(self) -> None:
        if self._sock is not None:
            self._selector.unregister(self._sock)
            self._sock.close()
            self._sock, self._buf = None, b""

    def _wait_for(self, events: int) -> None:
        if events != self._events:
            self._selector.modify(self._sock, events, self)
            self._events = events

    def _recv(self, size: int) -> bytes:
        if chunk := self._sock.recv(size):
            self._received = True
        return chunk

    def _connect(self) -> Generator[None, None, None]:
        """Open a fresh connection, trying each address of the host in turn as ``socket.create_connection`` does."""
        error = OSError(f"no address found for {self._authority}")
        for family, kind, proto, _, address in socket.getaddrinfo(*self._address, type=socket.SOCK_STREAM):
            self._sock = sock = socket.socket(family, kind, proto)
            self._selector.register(sock, selectors.EVENT_WRITE, self)
            self._events = selectors.EVENT_WRITE
            sock.setblocking(False)
            # Each request is one send; Nagle stays off so none waits on a delayed ACK.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            try:
                if (code := sock.connect_ex(address)) == errno.EINPROGRESS:
                    yield
                    code = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
                if not code:
                    return
                error = OSError(code, os.strerror(code))
            except OSError as exc:  # a timeout thrown in as well
                error = exc
            self._hang_up()
        raise error

    def _exchange(self) -> Generator[_Outcome | None, tuple[str, str] | None, None]:
        """Every request on this target in turn: send it ``(method, path)`` to start one.

        It yields None at each wait for the socket; a wait that has lasted
        too long is ended by throwing ``TimeoutError`` in. Then it yields
        the request's outcome: the reply's ``(_reply_of(head), body)``, or
        the ``TargetUnreachableError`` that ended it.
        """
        outcome: _Outcome | None = None
        while True:
            method, path = yield outcome
            if (request := self._requests.get((method, path))) is None:
                framing = "Content-Length: 0\r\n" if method == "POST" else ""
                request = self._requests[method, path] = f"{method} {path}{self._head_tail}{framing}\r\n".encode()
            while True:
                reused, self._received = self._sock is not None, bool(self._buf)
                try:
                    if not reused:
                        yield from self._connect()
                    sock, unsent = self._sock, request
                    while unsent := unsent[sock.send(unsent) :]:
                        self._wait_for(selectors.EVENT_WRITE)
                        yield
                    self._wait_for(selectors.EVENT_READ)
                    head, rest = yield from _read_head(self._recv, self._buf)
                    reply = (_reply_of if len(head) <= _MEMO_HEAD_BYTES else _reply_of.__wrapped__)(head)
                    _, n, close, _, _ = reply
                    if len(rest) < n:
                        chunks, received = [rest], len(rest)
                        while received < n:
                            yield
                            if not (chunk := self._recv(_RECV_SIZE)):
                                raise ValueError(f"response body cut short at {received} of {n} bytes")
                            chunks.append(chunk)
                            received += len(chunk)
                        rest = b"".join(chunks)
                    outcome, self._buf = (reply, rest[:n]), rest[n:]
                    if close:
                        self._hang_up()
                except (OSError, ValueError) as exc:
                    self._hang_up()
                    if reused and not self._received and isinstance(exc, ConnectionError):
                        continue
                    fault = "unreachable" if isinstance(exc, OSError) else "broke HTTP/1.1"
                    outcome = TargetUnreachableError(f"{self._authority} {fault}: {exc}")
                    outcome.__cause__ = exc
                break

    def begin(self, method: str, path: str) -> _Outcome | None:
        """Start a request and take it as far as it goes: its outcome, or None while it waits on the socket."""
        return self._exchanges.send((method, path))

    def advance(self, fault: OSError | None = None) -> _Outcome | None:
        """Take the request on once the socket is ready, or end its wait with ``fault``: as ``begin``."""
        return next(self._exchanges) if fault is None else self._exchanges.throw(fault)

    def _request(self, method: str, path: str) -> tuple[_Reply, bytes]:
        outcome = self.begin(method, path)
        while outcome is None:
            outcome = self.advance(None if self._selector.select(_TIMEOUT) else TimeoutError("timed out"))
        if isinstance(outcome, TargetUnreachableError):
            raise outcome
        return outcome

    def handle_request(self, path: str, clock: Clock) -> Response:
        t0 = clock.now()
        reply, body = self._request("GET", path)
        return _page_response(reply, body, (clock.now() - t0) / 1e9)

    def purge_cache(self) -> int:
        (status, *_), body = self._request("POST", _PURGE)
        if status != 200:
            raise TargetUnreachableError(f"purge failed with status {status}")
        try:
            removed = json.loads(body)["removed"]
        except (ValueError, KeyError, TypeError):
            removed = None
        if type(removed) is not int:
            raise TargetUnreachableError(f"{_PURGE} answered without an integer 'removed': {body[:64]!r}")
        return removed

    def cold_worker(self) -> None:
        (status, *_), _ = self._request("POST", _COLD)
        if status != 200:
            raise TargetUnreachableError(f"cold reset failed with status {status}")


def _closed_loop(
    url: str, path: str, connections: int, deadline: float
) -> Iterator[tuple[float, float, Response | TargetUnreachableError]]:
    """GET ``path`` from ``url`` over ``connections`` keep-alive connections, all driven from this thread.

    Each connection sends its next request as soon as its last reply
    lands, until a request would start at or after ``deadline`` (a
    ``time.perf_counter`` reading) or it fails: a connection ends at its
    first failure. Yields ``(sent, done, outcome)`` for each request, the
    ``perf_counter`` readings when it started and ended and its
    ``Response`` or the ``TargetUnreachableError`` that ended its
    connection. One selector waits on every socket; a connection whose
    wait passes ``_TIMEOUT`` fails, however many connections wait.
    """
    perf_counter = time.perf_counter
    with selectors.DefaultSelector() as selector, contextlib.ExitStack() as opened:
        sent: dict[_HttpTarget, float] = {}  # each connection with a request in flight: when it started
        ready: list[tuple[_HttpTarget, _Outcome | None]] = []  # each connection that moved, and its outcome
        for _ in range(connections):
            target = opened.enter_context(contextlib.closing(_HttpTarget(url, selector)))
            sent[target] = perf_counter()
            ready.append((target, target.begin("GET", path)))
        since = dict(sent)  # when each connection's wait began
        now = perf_counter()
        while True:
            for target, outcome in ready:
                since[target] = now
                while outcome is not None:  # the request ended: record it and send the next
                    done = perf_counter()
                    if not isinstance(outcome, TargetUnreachableError):
                        outcome = _page_response(*outcome, done - sent[target])
                    yield sent[target], done, outcome
                    if isinstance(outcome, TargetUnreachableError) or (t0 := perf_counter()) >= deadline:
                        target.close()
                        del sent[target], since[target]
                        break
                    sent[target] = since[target] = t0
                    outcome = target.begin("GET", path)
            if not sent:
                return
            wake = min(since.values()) + _TIMEOUT
            events = selector.select(max(wake - perf_counter(), 0.0))
            now = perf_counter()
            # One ready connection a select; the next returns the others at once. Against a server in this
            # process this measured faster: the thread handling the request just sent takes the interpreter
            # lock at the select, instead of after the client has read every other reply.
            ready = [(key.data, key.data.advance()) for key, _ in events[:1]]
            if now >= wake:
                woken = {key.data for key, _ in events}
                ready += [
                    (target, target.advance(TimeoutError("timed out")))
                    for target, waited in since.items()
                    if waited <= now - _TIMEOUT and target not in woken
                ]

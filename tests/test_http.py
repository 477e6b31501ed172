"""HTTP layer: variant servers, admin endpoints, the wire rules and the load client."""

import contextlib
import email.utils
import http.client
import importlib.util
import io
import itertools
import json
import re
import socket
import sys
import threading
import time
from functools import lru_cache
from http.client import HTTPConnection
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from edgelab import httpserve
from edgelab.bench import BenchConfig, ResetPolicy, TargetUnreachableError, run_audit, run_load
from edgelab.cli import main
from edgelab.clock import SYSTEM_CLOCK, VirtualClock
from edgelab.edge import CacheStatus, EdgeWorker, Strategy, StrategyConfig
from edgelab.httpserve import VariantServer, _HttpTarget

pytestmark = pytest.mark.wallclock


@pytest.fixture
def isr_server(posts10, build10):
    worker = EdgeWorker(StrategyConfig(strategy=Strategy.ISR, upstream_delay=0.02))
    worker.deploy(build10, posts10)
    with VariantServer(worker) as server:
        yield server


def _get(server, path):
    conn = HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read(), {k.lower(): v for k, v in resp.getheaders()}
    finally:
        conn.close()


def _post(server, path):
    conn = HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        conn.request("POST", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


@given(st.integers(min_value=0, max_value=2**34))
@example(0)
@example(951_782_400 + 45_296)  # 12:34:56 on 29 February 2000
@example(2**31)  # past a signed 32-bit time_t
def test_date_field_is_the_imf_fixdate_of_its_second(second):
    expected = f"Server: {httpserve._SERVER}\r\nDate: {email.utils.formatdate(second, usegmt=True)}\r\n"
    assert httpserve._server_and_date(second).decode() == expected


def test_a_response_carries_the_current_date(isr_server):
    before = int(time.time())
    _, _, headers = _get(isr_server, "/")
    sent = email.utils.parsedate_to_datetime(headers["date"]).timestamp()
    assert before <= sent <= time.time()
    assert headers["server"].startswith("edgelab/")


def test_cache_status_header_miss_then_hit(isr_server, build10):
    status, body, headers = _get(isr_server, "/")
    assert status == 200
    assert headers["x-edge-cache"] == "MISS"
    assert body == build10.pages["/"].body
    _, _, headers = _get(isr_server, "/")
    assert headers["x-edge-cache"] == "HIT"


def test_server_time_header_is_microseconds(isr_server):
    # Each lower bound is what the request sleeps, in µs: a figure in ms falls
    # below it. Each upper bound is that sleep in ns, which a figure in ns
    # reaches, so a slow box cannot trip it.
    cfg = isr_server.worker.config
    hit = round((cfg.base_handling + cfg.kv_read_delay) * 1e6)
    miss = hit + round((cfg.cold_start_penalty + cfg.upstream_delay) * 1e6)  # a fresh worker is cold
    for cache_status, lower in (("MISS", miss), ("HIT", hit)):
        _, _, headers = _get(isr_server, "/")
        assert headers["x-edge-cache"] == cache_status
        assert lower <= int(headers["x-server-time-us"]) < lower * 1000


def test_keep_alive_reuses_one_connection(isr_server):
    conn = HTTPConnection("127.0.0.1", isr_server.port, timeout=10)
    try:
        for _ in range(3):
            conn.request("GET", "/")
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 200
    finally:
        conn.close()


@pytest.mark.parametrize("variant", ["{page}?utm=x", "{page}/", "{page}/?utm=x"])
def test_query_and_trailing_slash_share_the_page_and_its_cache_entry(isr_server, posts10, variant):
    page = f"/posts/{posts10[0].slug}"
    assert _get(isr_server, page)[2]["x-edge-cache"] == "MISS"
    status, _, headers = _get(isr_server, variant.format(page=page))
    assert status == 200
    assert headers["x-edge-cache"] == "HIT"
    assert _get(isr_server, "/?a=1")[0] == 200


def test_unknown_path_is_404_bypass(isr_server):
    status, _, headers = _get(isr_server, "/no/such/page")
    assert status == 404
    assert headers["x-edge-cache"] == "BYPASS"


def test_admin_purge_reports_count(isr_server, posts10):
    _get(isr_server, "/")
    _get(isr_server, f"/posts/{posts10[0].slug}")
    status, body = _post(isr_server, "/__admin/purge")
    assert status == 200
    assert json.loads(body) == {"removed": 2}
    _, _, headers = _get(isr_server, "/")
    assert headers["x-edge-cache"] == "MISS"


def test_admin_cold_penalizes_next_request(posts10, build10):
    worker = EdgeWorker(
        StrategyConfig(strategy=Strategy.STATIC, cold_start_penalty=0.05)
    )
    worker.deploy(build10, posts10)
    with VariantServer(worker) as server:
        _get(server, "/")  # burn the initial cold start
        _, _, warm = _get(server, "/")
        assert int(warm["x-server-time-us"]) < 30_000
        status, _ = _post(server, "/__admin/cold")
        assert status == 200
        _, _, cold = _get(server, "/")
        assert int(cold["x-server-time-us"]) >= 50_000


def test_unknown_admin_endpoint_404(isr_server):
    status, _ = _post(isr_server, "/__admin/nonsense")
    assert status == 404


@pytest.mark.parametrize("path", ["/__admin/purge/", "/__admin/purge?x=1", "/__admin/cold/"])
def test_admin_paths_follow_the_get_path_rule(isr_server, path):
    # An admin POST's path is read like a GET's: no query, one trailing slash.
    assert _post(isr_server, path)[0] == 200


def test_audit_over_http(isr_server):
    rep = run_audit(isr_server.url, "/", runs=5, reset=ResetPolicy(purge=True))
    assert rep.cache_statuses == ("MISS", "HIT", "HIT", "HIT", "HIT")
    assert rep.server_time.run_1 >= 0.02
    assert rep.server_time.median_rest < 0.02


def test_audit_over_http_uses_one_connection(isr_server, monkeypatch):
    accepted = []
    real_setup = httpserve._VariantHandler.setup

    def counted_setup(self):
        accepted.append(self.client_address)
        real_setup(self)

    monkeypatch.setattr(httpserve._VariantHandler, "setup", counted_setup)
    rep = run_audit(isr_server.url, "/", runs=5, reset=ResetPolicy(purge=True, cold=True))
    assert rep.cache_statuses == ("MISS", "HIT", "HIT", "HIT", "HIT")
    assert len(accepted) == 1


def test_stale_keep_alive_connection_is_retried(posts10, build10):
    # A restart ends the keep-alive connection; the next request on the same
    # target is retried once on a fresh connection to the new server.
    def isr_worker():
        worker = EdgeWorker(StrategyConfig(strategy=Strategy.ISR, upstream_delay=0.0))
        worker.deploy(build10, posts10)
        return worker

    first = VariantServer(isr_worker())
    with contextlib.closing(_HttpTarget(first.url)) as target:
        with first:
            assert target.handle_request("/", SYSTEM_CLOCK).cache_status is CacheStatus.MISS
            assert target.handle_request("/", SYSTEM_CLOCK).cache_status is CacheStatus.HIT
        with VariantServer(isr_worker(), port=first.port):
            resp = target.handle_request("/", SYSTEM_CLOCK)
    assert resp.status == 200
    assert resp.cache_status is CacheStatus.MISS  # the restarted server's empty cache


def test_serves_ipv6_literal_host(posts10, build10):
    worker = EdgeWorker(StrategyConfig(strategy=Strategy.ISR, upstream_delay=0.0))
    worker.deploy(build10, posts10)
    with VariantServer(worker, host="::1") as server:
        assert server.url == f"http://[::1]:{server.port}"
        rep = run_audit(server.url, "/", runs=3, reset=ResetPolicy(purge=True))
    assert rep.cache_statuses == ("MISS", "HIT", "HIT")


def test_server_stops_promptly(posts10, build10):
    worker = EdgeWorker(StrategyConfig(strategy=Strategy.STATIC))
    worker.deploy(build10, posts10)
    server = VariantServer(worker)
    server.start()
    try:
        statuses = [_get(server, "/posts/post-1")[0] for _ in range(3)]
    finally:
        t0 = time.perf_counter()
        server.stop()
        elapsed = time.perf_counter() - t0
    assert statuses == [200, 200, 200]
    assert elapsed < 0.1


def test_server_never_started_stops(posts10, build10, deadline):
    worker = EdgeWorker(StrategyConfig(strategy=Strategy.STATIC))
    worker.deploy(build10, posts10)
    with deadline(5.0):
        VariantServer(worker).stop()


# ------------------------------------------------ the server, over a raw socket


def _exchange(server, *chunks, wait_for=None):
    """Send ``chunks`` on a fresh connection and read until the server closes it.

    With ``wait_for``, the chunks after the first are sent only once the
    bytes read so far contain it. A close with request bytes still unread
    is a reset on Linux; it ends the read like a clean close.
    """
    received = b""
    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
        sock.sendall(chunks[0])
        if wait_for is not None:
            while wait_for not in received:
                received += sock.recv(65536)
        for chunk in chunks[1:]:
            sock.sendall(chunk)
        with contextlib.suppress(ConnectionResetError):
            while data := sock.recv(65536):
                received += data
    return received


def _responses(raw):
    """Split raw response bytes into ``(status, headers, body)`` by content-length."""
    out = []
    while raw:
        head, _, rest = raw.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("iso-8859-1").split("\r\n")
        headers = {k.strip().lower(): v.strip() for k, _, v in (line.partition(":") for line in lines)}
        length = int(headers.get("content-length", 0))
        out.append((int(status_line.split()[1]), headers, rest[:length]))
        raw = rest[length:]
    return out


@pytest.mark.parametrize("target", ["http://[x", "v://[v0b.", "t0://[#.", "a://]["])
def test_a_request_target_urlsplit_refuses_gets_400(isr_server, target):
    head = f"GET {target} HTTP/1.1".encode()
    before = httpserve._request_of.cache_info().currsize
    [(status, headers, body)] = _responses(_exchange(isr_server, head + b"\r\nHost: x\r\n\r\n"))
    assert (status, headers["connection"]) == (400, "close")
    assert body.startswith(b"400 Bad Request: Bad request target")
    # A HEAD request is answered without the body.
    reply, close, _, _ = httpserve.respond(b"HEAD" + head[3:], _route)
    [(status, headers, body)] = _responses(reply)
    assert (status, close, body) == (400, True, b"")
    assert httpserve._request_of.cache_info().currsize == before


@pytest.mark.parametrize("method", ["GET", "POST", "HEAD"])
def test_a_route_that_raises_gets_500_and_a_close(method, capsys):
    def route(method, page):
        raise RuntimeError("the worker broke")

    reply, close, size, _ = httpserve.respond(f"{method} / HTTP/1.1\r\nContent-Length: 3".encode(), route)
    [(status, headers, body)] = _responses(reply)
    assert (status, close, size, headers["connection"]) == (500, True, 3, "close")
    # A HEAD request is answered without the body.
    assert body == (b"" if method == "HEAD" else b"500 Internal Server Error: the route raised RuntimeError\n")
    assert "RuntimeError: the worker broke" in capsys.readouterr().err


def test_a_worker_never_deployed_gets_500_over_a_socket(capfd):
    with VariantServer(EdgeWorker(StrategyConfig(strategy=Strategy.STATIC))) as server:
        [(status, headers, body)] = _responses(_exchange(server, b"GET / HTTP/1.1\r\nHost: x\r\n\r\n"))
    assert (status, headers["connection"]) == (500, "close")
    assert body.startswith(b"500 Internal Server Error")
    assert "RuntimeError: no deployment" in capfd.readouterr().err


def test_leading_double_slash_collapses_to_one(isr_server, posts10, build10):
    page = f"/posts/{posts10[0].slug}"
    raw = _exchange(isr_server, f"GET /{page} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n".encode())
    [(status, _, body)] = _responses(raw)
    assert status == 200
    assert body == build10.pages[page].body


@pytest.mark.parametrize(
    "request_bytes, status",
    [
        pytest.param(b"GARBAGE\r\n\r\n", 400, id="garbage"),
        pytest.param(b"GET /\r\n\r\n", 400, id="http-0.9"),
        pytest.param(b"GET / HTTP/x\r\n\r\n", 400, id="bad-version"),
        pytest.param(b"GET / HTTP/2.0\r\n\r\n", 505, id="http-2.0"),
        pytest.param(
            b"GET / HTTP/1.1\r\n" + b"".join(b"x-h%d: v\r\n" % i for i in range(101)) + b"\r\n", 431, id="101-headers"
        ),
        pytest.param(b"GET / HTTP/1.1\r\nx-big: " + b"v" * 70_000 + b"\r\n\r\n", 431, id="70kb-line"),
        pytest.param(b"GET / HTTP/1.1\r\nno colon here\r\n\r\n", 400, id="no-colon"),
        pytest.param(b"GET / HTTP/1.1\r\nbad name: v\r\n\r\n", 400, id="bad-name"),
        pytest.param(b"POST /__admin/purge HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400, id="bad-length"),
        pytest.param(b"POST /__admin/purge HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n", 413, id="large-body"),
        pytest.param(
            b"POST /__admin/purge HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
            501,
            id="transfer-encoding",
        ),
    ],
)
def test_bad_request_gets_its_status_and_the_connection_closes(isr_server, request_bytes, status):
    # _exchange returns only once the server has closed the connection.
    [(got, headers, _)] = _responses(_exchange(isr_server, request_bytes))
    assert got == status
    assert headers["connection"] == "close"
    # The same head answered without a socket; no route is reached.
    head = request_bytes.split(b"\r\n\r\n", 1)[0]
    reply, close, _, _ = httpserve.respond(head, lambda method, page: pytest.fail(f"routed {method} {page}"))
    [(got, headers, _)] = _responses(reply)
    assert (got, close) == (status, True)


def test_a_bare_lf_head_is_served(isr_server):
    [(status, _, _)] = _responses(_exchange(isr_server, b"GET / HTTP/1.1\nHost: x\nConnection: close\n\n"))
    assert status == 200


def test_a_70kb_request_line_gets_414_and_a_close(isr_server):
    request = b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\nHost: x\r\n\r\n"
    [(status, headers, _)] = _responses(_exchange(isr_server, request))
    assert (status, headers["connection"]) == (414, "close")


def test_pipelined_requests_are_answered_in_order(isr_server, posts10, build10):
    page = f"/posts/{posts10[0].slug}"
    raw = _exchange(
        isr_server,
        f"GET {page} HTTP/1.1\r\nHost: x\r\n\r\nGET / HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n".encode(),
    )
    assert [(status, body) for status, _, body in _responses(raw)] == [
        (200, build10.pages[page].body),
        (200, build10.pages["/"].body),
    ]


def test_a_head_sent_one_byte_at_a_time_is_served(isr_server, build10):
    request = b"GET / HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    with socket.create_connection(("127.0.0.1", isr_server.port), timeout=5) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for i in range(len(request)):
            sock.sendall(request[i : i + 1])
        raw = b""
        while data := sock.recv(65536):
            raw += data
    [(status, _, body)] = _responses(raw)
    assert (status, body) == (200, build10.pages["/"].body)


@pytest.mark.parametrize("method", ["PUT", "HEAD"])
def test_an_unsupported_method_gets_501(isr_server, method):
    [(status, headers, _)] = _responses(_exchange(isr_server, f"{method} / HTTP/1.1\r\nHost: x\r\n\r\n".encode()))
    assert (status, headers["connection"]) == (501, "close")


@pytest.mark.parametrize(
    "request_bytes, statuses",
    [
        pytest.param(b"\r\nGET / HTTP/1.1\r\nConnection: close\r\n\r\n", [200], id="empty-line-first"),
        pytest.param(b"\nGET / HTTP/1.1\r\nConnection: close\r\n\r\n", [200], id="bare-lf-first"),
        pytest.param(
            b"POST /__admin/purge HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}\r\n"
            b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n",
            [200, 200],
            id="extra-crlf-after-a-body",
        ),
    ],
)
def test_one_empty_line_before_the_request_line_is_ignored(isr_server, request_bytes, statuses):
    # RFC 9112 section 2.2: a client may send a CRLF after a body.
    assert [status for status, _, _ in _responses(_exchange(isr_server, request_bytes))] == statuses


def test_a_second_empty_line_gets_no_response_and_a_close(isr_server):
    assert _exchange(isr_server, b"\r\n\r\n") == b""


@pytest.mark.parametrize(
    "length, status", [(b"9" * 5000, 413), (b"0" * 5000 + b"2", 200)], ids=["5000-nines", "zero-padded-2"]
)
def test_a_content_length_of_thousands_of_digits_is_answered(isr_server, length, status):
    # int() refuses over 4,300 digits: the request used to end in a traceback and no answer.
    request = b"POST /__admin/purge HTTP/1.1\r\nConnection: close\r\nContent-Length: " + length + b"\r\n\r\n{}"
    [(got, _, _)] = _responses(_exchange(isr_server, request))
    assert got == status


def test_one_hundred_headers_are_accepted(isr_server):
    request = b"GET / HTTP/1.1\r\n" + b"".join(b"x-h%d: v\r\n" % i for i in range(99)) + b"Connection: close\r\n\r\n"
    [(status, _, _)] = _responses(_exchange(isr_server, request))
    assert status == 200


@pytest.mark.parametrize(
    "head",
    [
        b"GET / HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        b"GET / HTTP/1.0\r\n\r\n",
    ],
)
def test_response_then_close(isr_server, build10, head):
    [(status, _, body)] = _responses(_exchange(isr_server, head))
    assert status == 200
    assert body == build10.pages["/"].body


def test_http_1_0_keep_alive_keeps_the_connection(isr_server):
    head = b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
    raw = _exchange(isr_server, head + b"GET / HTTP/1.0\r\n\r\n")
    assert [status for status, _, _ in _responses(raw)] == [200, 200]


def test_request_body_is_read_before_the_next_request(isr_server):
    # The body used to be left on the connection and read as the start of
    # the next request line: "501 Unsupported method ('{}GET')".
    raw = _exchange(
        isr_server,
        b"POST /__admin/purge HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}"
        b"GET / HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    )
    (purge_status, _, purge_body), (get_status, get_headers, _) = _responses(raw)
    assert (purge_status, json.loads(purge_body)) == (200, {"removed": 0})
    assert (get_status, get_headers["x-edge-cache"]) == (200, "MISS")


def test_expect_100_continue_is_answered_before_the_body_is_sent(isr_server):
    raw = _exchange(
        isr_server,
        b"POST /__admin/purge HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
        b"Content-Length: 2\r\nConnection: close\r\n\r\n",
        b"{}",
        wait_for=b"\r\n\r\n",
    )
    assert raw.startswith(b"HTTP/1.1 100 Continue\r\n\r\n")
    (cont, _, _), (status, _, body) = _responses(raw)
    assert (cont, status, json.loads(body)) == (100, 200, {"removed": 0})


# ------------------------------------------------ the client, against a fake server


class _FakeServer:
    """One-connection-at-a-time raw HTTP server for the client's sake.

    It answers the n-th request on its c-th connection with ``reply(c, n)``
    and keeps the connection open unless ``close`` is set, or until it has
    answered ``close_after`` requests on it. Request heads are kept in
    ``heads``.
    """

    def __init__(self, reply, close=False, host="127.0.0.1", close_after=None):
        self._reply, self._close, self._close_after = reply, close, close_after
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        self._listener = socket.create_server((host, 0), family=family)
        self._listener.settimeout(0.05)
        self.port = self._listener.getsockname()[1]
        self.url = f"http://[{host}]:{self.port}" if ":" in host else f"http://{host}:{self.port}"
        self.heads: list[bytes] = []
        self._stopping = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def _serve(self):
        for c in itertools.count():
            while True:
                try:
                    conn, _ = self._listener.accept()
                    break
                except TimeoutError:
                    if self._stopping.is_set():
                        return
            conn.settimeout(5)
            with conn, conn.makefile("rb") as rfile:
                for n in itertools.count():
                    head = b""
                    while (line := rfile.readline()) not in (b"\r\n", b""):
                        head += line
                    if not line:
                        break  # the client closed
                    self.heads.append(head)
                    conn.sendall(self._reply(c, n))
                    if self._close or n + 1 == self._close_after:
                        break

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stopping.set()
        self._thread.join(timeout=10)
        self._listener.close()


def _reply(body, *headers, version=b"HTTP/1.1"):
    return version + b" 200 OK\r\n" + b"".join(h + b"\r\n" for h in headers) + b"\r\n" + body


@pytest.mark.parametrize(
    "reply, close, fault",
    [
        (_reply(b"no framing", b"x-edge-cache: HIT"), False, "broke HTTP/1.1"),
        (_reply(b"chunked", b"Transfer-Encoding: chunked"), False, "broke HTTP/1.1"),
        (_reply(b"short", b"Content-Length: 100"), True, "broke HTTP/1.1"),
        (_reply(b"", b"x-big: " + b"v" * 70_000, b"Content-Length: 0"), False, "broke HTTP/1.1"),
        (b"", True, "unreachable"),
        (b"SSH-2.0-OpenSSH\r\n\r\n", True, "broke HTTP/1.1"),
    ],
    ids=["no-content-length", "transfer-encoding", "cut-short", "long-header", "no-response", "not-http"],
)
def test_client_rejects_a_bad_response_without_hanging(reply, close, fault):
    with _FakeServer(lambda c, n: reply, close=close) as fake, contextlib.closing(_HttpTarget(fake.url)) as target:
        t0 = time.perf_counter()
        with pytest.raises(TargetUnreachableError) as raised:
            target.handle_request("/", SYSTEM_CLOCK)
        assert time.perf_counter() - t0 < 5
        assert raised.value.__cause__ is not None
    # Only a target that never answered is unreachable; one that answered badly says so.
    assert str(raised.value).startswith(f"127.0.0.1:{fake.port} {fault}: ")
    assert ("unreachable" in str(raised.value)) == (fault == "unreachable")


def test_client_reads_a_zero_padded_content_length_of_thousands_of_digits():
    # int() refuses over 4,300 digits; the server reads such a length, and the client must too.
    body = b"<p>ok</p>"
    length = b"%05001d" % len(body)
    reply = _reply(body, b"x-edge-cache: HIT", b"Content-Length: " + length)
    with _FakeServer(lambda c, n: reply) as fake, contextlib.closing(_HttpTarget(fake.url)) as target:
        responses = [target.handle_request("/", SYSTEM_CLOCK) for _ in range(2)]
    assert len(length) == 5001
    assert [(r.status, r.body, r.cache_status) for r in responses] == [(200, body, CacheStatus.HIT)] * 2


def test_a_refused_connection_is_unreachable():
    with socket.create_server(("127.0.0.1", 0)) as listener:
        port = listener.getsockname()[1]
    with contextlib.closing(_HttpTarget(f"http://127.0.0.1:{port}")) as target:
        with pytest.raises(TargetUnreachableError, match=f"^127.0.0.1:{port} unreachable: ") as raised:
            target.handle_request("/", SYSTEM_CLOCK)
    assert isinstance(raised.value.__cause__, ConnectionRefusedError)


def test_a_response_that_breaks_http_is_not_called_unreachable(capsys):
    with _FakeServer(lambda c, n: _reply(b"no framing")) as fake:
        assert main(["audit", "--url", fake.url, "--no-purge"]) == 5
    err = capsys.readouterr().err
    assert "broke HTTP/1.1: response not framed by content-length" in err and "unreachable" not in err


@pytest.mark.parametrize(
    "value",
    [b"12.5", b"-3", b"", b"1e3", b"+4", b" 7 7", "\u0663".encode("utf-8"), b"9" * 400, b"9" * 5000],
    ids=[
        "fraction", "negative", "empty", "exponent", "plus", "two-numbers", "arabic-digit", "400-digits", "5000-digits"
    ],
)
def test_a_bad_server_time_is_a_fault_of_the_target(value, capsys):
    body = b"<p>ok</p>"
    reply = _reply(body, b"x-edge-cache: HIT", b"x-server-time-us: " + value, b"Content-Length: %d" % len(body))
    with _FakeServer(lambda c, n: reply) as fake:
        with contextlib.closing(_HttpTarget(fake.url)) as target, pytest.raises(TargetUnreachableError) as raised:
            target.handle_request("/", SYSTEM_CLOCK)
        assert "x-server-time-us" in str(raised.value)
        assert main(["audit", "--url", fake.url, "--no-purge"]) == 5
    err = capsys.readouterr().err
    assert "x-server-time-us" in err and "unreachable" not in err


@pytest.mark.parametrize(
    "headers, version",
    [((b"Connection: close",), b"HTTP/1.1"), ((), b"HTTP/1.0")],
    ids=["connection-close", "http-1.0"],
)
def test_client_opens_a_fresh_connection_after_a_closing_response(headers, version):
    # The fake server keeps every connection open and tags each response
    # with its connection, so reusing a connection would read "conn 0" again.
    def reply(c, n):
        body = b"conn %d" % c
        return _reply(body, *headers, b"Content-Length: %d" % len(body), version=version)

    with _FakeServer(reply) as fake, contextlib.closing(_HttpTarget(fake.url)) as target:
        bodies = [target.handle_request("/", SYSTEM_CLOCK).body for _ in range(3)]
    assert bodies == [b"conn 0", b"conn 1", b"conn 2"]


def _second_reply_unframed(c, n):
    """A good reply, but the second one on connection 0 has no content-length."""
    body = b"<p>ok</p>"
    framing = () if (c, n) == (0, 1) else (b"Content-Length: %d" % len(body),)
    return _reply(body, b"x-edge-cache: HIT", *framing)


def test_a_fault_on_a_reused_connection_is_reported_not_retried():
    # Only a close or reset before any byte of the reply is retried (RFC 9112 section 9.3.1).
    with _FakeServer(_second_reply_unframed) as fake, contextlib.closing(_HttpTarget(fake.url)) as target:
        assert target.handle_request("/", SYSTEM_CLOCK).body == b"<p>ok</p>"
        with pytest.raises(TargetUnreachableError, match="broke HTTP/1.1") as raised:
            target.handle_request("/", SYSTEM_CLOCK)
    assert isinstance(raised.value.__cause__, ValueError)
    assert len(fake.heads) == 2


def test_a_load_connection_is_not_retried_after_a_fault():
    # Both requests start inside discard_first, so the run counts no response and names its failure.
    with _FakeServer(_second_reply_unframed) as fake:
        with pytest.raises(TargetUnreachableError, match="broke HTTP/1.1"):
            run_load(fake.url, BenchConfig(duration=0.5, connections=1, discard_first=0.25))
    assert len(fake.heads) == 2


@pytest.mark.wallclock
def test_wallclock_load_errors_inside_discard_window_are_not_counted():
    # The first connection's first reply is broken and ends that connection, inside discard_first;
    # the other connection's replies, once past it, are counted, and the broken one is no error.
    body = b"<p>ok</p>"
    good = _reply(body, b"x-edge-cache: HIT", b"Content-Length: %d" % len(body))
    with _FakeServer(lambda c, n: _reply(b"no framing") if (c, n) == (0, 0) else good) as fake:
        report = run_load(fake.url, BenchConfig(duration=0.4, connections=2, discard_first=0.2))
    assert report.total_responses > 0
    assert report.error_count == 0


def test_a_load_run_counts_each_retry_once():
    # The server ends each connection after three replies without saying so; the request
    # that finds the connection closed goes once more on a fresh one and is no error.
    body = b"<p>ok</p>"
    reply = _reply(body, b"x-edge-cache: HIT", b"Content-Length: %d" % len(body))
    with _FakeServer(lambda c, n: reply, close_after=3) as fake:
        report = run_load(fake.url, BenchConfig(duration=0.3, connections=2))
    assert report.error_count == 0
    assert report.total_responses == len(fake.heads) > 3


@pytest.fixture
def static_server(posts10, build10):
    worker = EdgeWorker(StrategyConfig(strategy=Strategy.STATIC, base_handling=0.0))
    worker.deploy(build10, posts10)
    with VariantServer(worker) as server:
        yield server


def test_a_url_load_drives_every_connection_from_the_calling_thread(static_server, monkeypatch):
    caller, started = threading.get_ident(), []
    real_start = threading.Thread.start

    def start(thread):
        if threading.get_ident() == caller:
            started.append(thread)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    t0 = time.perf_counter()
    report = run_load(static_server.url, BenchConfig(duration=0.4, connections=4))
    wall = time.perf_counter() - t0
    assert started == []
    assert report.error_count == 0 and report.total_responses > 0
    assert report.requests_per_second * wall == pytest.approx(report.total_responses, rel=0.05)


@pytest.mark.wallclock
def test_a_load_run_opens_more_connections_than_the_old_backlog_without_a_resent_handshake(static_server):
    # socketserver's backlog of 5 dropped some of 16 handshakes made at once, and each was sent again
    # about 1 s later: the slowest request of a run took over 1 s.
    report = run_load(static_server.url, BenchConfig(duration=0.3, connections=16))
    assert report.error_count == 0 and report.total_responses > 0
    assert report.percentiles[100.0] < 0.5


def test_a_target_that_never_answers_fails_within_about_one_timeout(monkeypatch):
    monkeypatch.setattr(httpserve, "_TIMEOUT", 0.25)
    # The kernel completes each handshake into the backlog; nothing ever answers.
    with socket.create_server(("127.0.0.1", 0)) as listener:
        url = f"http://127.0.0.1:{listener.getsockname()[1]}"
        t0 = time.perf_counter()
        with pytest.raises(TargetUnreachableError, match="unreachable: timed out") as raised:
            run_load(url, BenchConfig(duration=5.0, connections=8))
        waited = time.perf_counter() - t0
        with contextlib.closing(_HttpTarget(url)) as target, pytest.raises(TargetUnreachableError, match="timed out"):
            target.handle_request("/", SYSTEM_CLOCK)
    # All eight waits run at once: one timeout, not eight in turn.
    assert 0.25 <= waited < 0.75
    assert isinstance(raised.value.__cause__.__cause__, TimeoutError)


def test_client_sends_a_bracketed_host_for_ipv6():
    reply = _reply(b"ok", b"Content-Length: 2")
    with _FakeServer(lambda c, n: reply, host="::1") as fake, contextlib.closing(_HttpTarget(fake.url)) as target:
        target.handle_request("/", SYSTEM_CLOCK)
    assert fake.heads[0].startswith(b"GET / HTTP/1.1\r\n")
    assert f"Host: [::1]:{fake.port}\r\n".encode() in fake.heads[0]


def test_client_posts_admin_requests_with_an_empty_body():
    reply = _reply(b'{"removed": 3}', b"Content-Length: 14")
    with _FakeServer(lambda c, n: reply) as fake, contextlib.closing(_HttpTarget(fake.url)) as target:
        assert target.purge_cache() == 3
    assert fake.heads[0].startswith(b"POST /__admin/purge HTTP/1.1\r\n")
    assert b"Content-Length: 0\r\n" in fake.heads[0]


def test_an_unknown_cache_status_is_a_fault_of_the_target(capsys):
    body = b"<p>warm</p>"
    reply = _reply(body, b"x-edge-cache: WARM", b"Content-Length: %d" % len(body))
    with _FakeServer(lambda c, n: reply) as fake:
        with contextlib.closing(_HttpTarget(fake.url)) as target, pytest.raises(TargetUnreachableError) as raised:
            target.handle_request("/", SYSTEM_CLOCK)
        assert "x-edge-cache" in str(raised.value) and "'WARM'" in str(raised.value)
        assert main(["audit", "--url", fake.url, "--no-purge"]) == 5
    err = capsys.readouterr().err
    assert "'WARM'" in err and "unreachable" not in err


@pytest.mark.parametrize(
    "purge_body",
    [b"<html>purged</html>", b'{"deleted": 3}', b'{"removed": "3"}', b'{"removed": true}', b"[3]", b"\xff"],
    ids=["not-json", "no-removed", "string", "bool", "list", "not-utf8"],
)
def test_a_purge_reply_without_an_integer_count_is_a_fault_of_the_target(purge_body, capsys):
    reply = _reply(purge_body, b"Content-Length: %d" % len(purge_body))
    with _FakeServer(lambda c, n: reply) as fake:
        with contextlib.closing(_HttpTarget(fake.url)) as target, pytest.raises(TargetUnreachableError) as raised:
            target.purge_cache()
        assert "/__admin/purge" in str(raised.value)
        assert main(["audit", "--url", fake.url]) == 5
    err = capsys.readouterr().err
    assert "/__admin/purge" in err and "unreachable" not in err


def test_client_reads_what_http_client_reads(isr_server):
    # Replay one MISS, one HIT and one 404 of a real server to both clients.
    request = b"GET %s HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    recorded = [_exchange(isr_server, request % path) for path in (b"/", b"/", b"/no/such/page")]
    for raw in recorded:
        with _FakeServer(lambda c, n, raw=raw: raw) as fake:
            with contextlib.closing(_HttpTarget(fake.url)) as target:
                ours = target.handle_request("/", SYSTEM_CLOCK)
            ref = HTTPConnection("127.0.0.1", fake.port, timeout=5)
            try:
                ref.request("GET", "/")
                resp = ref.getresponse()
                ref_body = resp.read()
            finally:
                ref.close()
        assert ours.status == resp.status
        assert ours.body == ref_body
        assert ours.cache_status.value == resp.getheader("x-edge-cache")
        assert ours.server_time == int(resp.getheader("x-server-time-us")) / 1e6
    assert [_responses(raw)[0][1]["x-edge-cache"] for raw in recorded] == ["MISS", "HIT", "BYPASS"]


# ------------------------------------------------ the head codec

_TOKEN_CHARS = "!#$%&'*+-.^_`|~0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
_names = st.text(_TOKEN_CHARS, min_size=1, max_size=20)
# A field value: visible ASCII and obs-text, inner spaces and tabs, no space at either end.
_values = st.text(st.characters(min_codepoint=0x20, max_codepoint=0xFF, blacklist_characters="\x7f"), max_size=40).map(
    lambda v: v.strip(" \t")
)
_line_ends = st.sampled_from([b"\r\n", b"\n"])


@settings(max_examples=300, deadline=None)
@given(fields=st.lists(st.tuples(_names, _values), max_size=20), line_end=_line_ends)
def test_the_codec_reads_headers_as_http_client_does(fields, line_end):
    lines = [f"{name}: {value}".encode("iso-8859-1") for name, value in fields]
    head = line_end.join([b"GET / HTTP/1.1", *lines])
    start, headers = httpserve.parse_head(head)
    reference = http.client.parse_headers(io.BytesIO(b"".join(line + b"\r\n" for line in lines) + b"\r\n"))
    want = {name.lower(): ", ".join(reference.get_all(name)) for name in reference.keys()}
    assert (start, headers) == ("GET / HTTP/1.1", want)


# Header lines that may break the rules: no colon, a bad name, folding, stray CRs,
# too many lines, and at most one line too long (a client still sending more than
# one would meet the close after the server's 431).
_any_lines = st.tuples(
    st.lists(
        st.one_of(
            st.tuples(_names, _values).map(lambda f: f"{f[0]}: {f[1]}".encode("iso-8859-1")),
            st.binary(min_size=1, max_size=30).filter(lambda b: b"\n" not in b and b.strip(b"\r")),
            st.sampled_from([b"bad name: v", b" folded", b"no colon", b"\rx: v"]),
        ),
        max_size=110,
    ),
    st.none() | st.integers(0, 110),
).map(lambda t: t[0] if t[1] is None else [*t[0][: t[1]], b"x" * 70_000, *t[0][t[1] :]])


def test_a_head_the_codec_rejects_gets_400_or_431_over_a_socket(isr_server):
    @settings(max_examples=60, deadline=None)
    @given(lines=_any_lines, line_end=_line_ends)
    def check(lines, line_end):
        head = line_end.join([b"GET / HTTP/1.1", *lines])
        try:
            httpserve.parse_head(head)
        except httpserve.HeadError as exc:
            [(status, headers, _)] = _responses(_exchange(isr_server, head + line_end + line_end))
            assert status == exc.status in (400, 431)
            assert headers["connection"] == "close"
        else:
            assume(False)

    check()


def _reader(data, size):
    """A fake ``recv`` that hands out ``data`` ``size`` bytes at a time, then EOF."""
    chunks = (data[i : i + size] for i in range(0, len(data), size))
    return lambda _bufsize: next(chunks, b"")


def test_a_head_near_the_limits_is_received_in_linear_time():
    # 100 header lines of 65,535 bytes with their CRLF, about 6.5 MB, read 256 bytes at a time.
    lines = [b"x-h%02d: " % i + b"v" * 65_526 + b"\r\n" for i in range(100)]
    head = b"GET / HTTP/1.1\r\n" + b"".join(lines)[:-2]
    t0 = time.perf_counter()
    got, rest = httpserve.receive_head(_reader(head + b"\r\n\r\nnext", 256), b"")
    assert time.perf_counter() - t0 < 2.0
    assert (got, rest) == (head + b"\r", b"next")  # the head up to the LF of its CRLF CRLF
    assert len(httpserve.parse_head(got)[1]) == 100


@pytest.mark.parametrize("size", [7, 1024, 65536])
@pytest.mark.parametrize(
    "lines, status",
    [
        pytest.param([b"no colon", b"x-big: " + b"v" * 200_000], 400, id="malformed-then-long"),
        pytest.param([b"no colon", *(b"x-h%d: v" % i for i in range(120))], 400, id="malformed-then-too-many"),
        pytest.param([b"x-big: " + b"v" * 70_000, b"no colon", b"x: " + b"v" * 200_000], 431, id="long-then-malformed"),
        pytest.param([b"x-h: v", b"x-big: " + b"v" * 200_000], 431, id="long"),
        pytest.param([b"x-h%d: v" % i for i in range(120)], 431, id="too-many"),
    ],
)
def test_a_head_over_a_limit_gets_the_fault_the_codec_names_first(lines, status, size):
    # The head never ends: a limit trips while it is still arriving.
    head = b"\r\n".join([b"GET / HTTP/1.1", *lines])
    with pytest.raises(httpserve.HeadError) as codec:
        httpserve.parse_head(head)
    with pytest.raises(httpserve.HeadError) as received:
        httpserve.receive_head(_reader(head + b"\r\n", size), b"")
    assert received.value.status == codec.value.status == status


def test_a_malformed_line_before_an_oversized_one_gets_400_over_a_socket(isr_server):
    request = b"GET / HTTP/1.1\r\nno colon\r\nx-big: " + b"v" * 200_000
    [(status, headers, _)] = _responses(_exchange(isr_server, request))
    assert (status, headers["connection"]) == (400, "close")


@pytest.mark.parametrize(
    "target, page",
    [("/", "/"), ("/a/", "/a"), ("/a//", "/a/"), ("/a?q=1#f", "/a"), ("/a#f?q", "/a"), ("/?x", "/"),
     ("http://h:1/a/?q", "/a"), ("//h/a", "/a"), ("*", "*")],
)
def test_request_page(target, page):
    assert httpserve.request_page(target) == page


# ------------------------------------------------ the head memos


def _route(method, page):
    """An answer that names what it was asked; 501 for a method other than GET and POST."""
    if method not in ("GET", "POST"):
        raise httpserve.HeadError(f"Unsupported method ({method!r})", 501)
    return 200, f"{method} {page}".encode(), (httpserve._TEXT,)


_DATE_FIELD = re.compile(rb"\r\nDate: [^\r]*")


def _answer(head):
    """``respond``'s answer to ``head``, its ``Date`` field left out: it may cross a second."""
    reply, *rest = httpserve.respond(head, _route)
    return _DATE_FIELD.sub(b"", reply), *rest


def _unmemoized_answer(head):
    """``_answer`` with a memo that keeps nothing."""
    with mock.patch.object(httpserve, "_request_of", lru_cache(maxsize=0)(httpserve._request_of.__wrapped__)):
        return _answer(head)


def _read(read, head):
    """What ``read`` takes from ``head``, or the fault it raises."""
    try:
        return read(head)
    except ValueError as exc:
        return type(exc), getattr(exc, "status", None), getattr(exc, "method", None), str(exc)


_request_lines = st.one_of(
    st.tuples(
        st.sampled_from(["GET", "POST", "HEAD", "PUT"]),
        st.sampled_from(["/", "/posts/post-1/?utm=x", "//h/a", "http://h:1/a/", "*"]),
        st.sampled_from([" HTTP/1.1", " HTTP/1.0", " HTTP/2.0", " HTTP/x", ""]),
    ).map(lambda t: f"{t[0]} {t[1]}{t[2]}".encode()),
    st.sampled_from([b"   ", b"GARBAGE"]),
)
_request_fields = st.lists(
    st.sampled_from(
        [b"Connection: close", b"Connection: keep-alive", b"Expect: 100-continue", b"Content-Length: 5",
         b"Content-Length: 2000000", b"Content-Length: -1", b"Transfer-Encoding: chunked"]
    ),
    max_size=3,
)


@settings(max_examples=200, deadline=None)
@given(
    line=_request_lines,
    variants=st.lists(st.tuples(_request_fields, _any_lines), min_size=2, max_size=4),
    line_end=_line_ends,
)
def test_a_memoized_request_head_is_answered_as_an_unmemoized_one(line, variants, line_end):
    # Heads that share a request line in turn: one kept head must not answer for another.
    # At most ten arbitrary lines a head, so that most heads fit the memo.
    httpserve._request_of.cache_clear()
    for fields, lines in variants:
        head = line_end.join([line, *fields, *lines[:10]])
        want = _unmemoized_answer(head)
        assert _answer(head) == want
        assert _answer(head) == want
        assert _read(httpserve._request_of, head) == _read(httpserve._request_of.__wrapped__, head)


_status_lines = st.sampled_from(
    [b"HTTP/1.1 200 OK", b"HTTP/1.0 404 Not Found", b"HTTP/1.1 502", b"HTTP/2 200", b"SSH-2.0-OpenSSH"]
)
_reply_fields = st.lists(
    st.sampled_from(
        [b"Content-Length: 7", b"Content-Length: 007", b"Content-Length: x", b"Connection: close",
         b"Transfer-Encoding: chunked", b"x-server-time-us: 1500", b"x-server-time-us: 12.5",
         b"x-server-time-us: " + b"9" * 16, b"x-edge-cache: HIT", b"x-edge-cache: STALE", b"x-edge-cache: WARM"]
    ),
    max_size=4,
)


@settings(max_examples=200, deadline=None)
@given(
    line=_status_lines,
    variants=st.lists(st.tuples(_reply_fields, _any_lines), min_size=2, max_size=4),
    line_end=_line_ends,
)
def test_a_memoized_reply_head_is_read_as_an_unmemoized_one(line, variants, line_end):
    httpserve._reply_of.cache_clear()
    for fields, lines in variants:
        head = line_end.join([line, *fields, *lines[:10]])
        want = _read(httpserve._reply_of.__wrapped__, head)
        assert _read(httpserve._reply_of, head) == want
        assert _read(httpserve._reply_of, head) == want


@pytest.mark.parametrize(
    "head, status",
    [
        pytest.param(b"GARBAGE", 400, id="400"),
        pytest.param(b"POST /__admin/purge HTTP/1.1\r\nContent-Length: 2000000", 413, id="413"),
        pytest.param(b"GET / HTTP/1.1\r\n" + b"\r\n".join(b"h%d: v" % i for i in range(101)), 431, id="431"),
        pytest.param(b"HEAD / HTTP/1.1\r\nTransfer-Encoding: chunked", 501, id="501"),
        pytest.param(b"GET / HTTP/2.0", 505, id="505"),
    ],
)
def test_a_request_head_that_gets_a_fault_is_never_kept(head, status):
    assert len(head) <= httpserve._MEMO_HEAD_BYTES
    before = httpserve._request_of.cache_info().currsize
    for _ in range(3):
        reply, close, _, _ = httpserve.respond(head, _route)
        [(got, headers, body)] = _responses(reply)
        assert (got, close, headers["connection"]) == (status, True, "close")
    assert (body == b"") == head.startswith(b"HEAD")  # the method is known to a framing fault
    assert httpserve._request_of.cache_info().currsize == before


@pytest.mark.parametrize("field", [b"x-server-time-us: 12.5", b"x-edge-cache: WARM"], ids=["server-time", "cache"])
def test_a_reply_head_that_gets_a_fault_is_never_kept(field):
    reply = _reply(b"ok", field, b"Content-Length: 2")
    before = httpserve._reply_of.cache_info().currsize
    with _FakeServer(lambda c, n: reply) as fake:
        for _ in range(3):
            with contextlib.closing(_HttpTarget(fake.url)) as target, pytest.raises(TargetUnreachableError):
                target.handle_request("/", SYSTEM_CLOCK)
    assert httpserve._reply_of.cache_info().currsize == before


def _padded(head, size):
    """``head`` with one more field, padded to ``size`` bytes; lines end in a bare LF, as the reader keeps no CR."""
    head += b"\nx-pad: "
    return head + b"v" * (size - len(head))


def test_a_request_head_over_the_memo_bound_is_served_and_never_kept():
    want = _answer(b"GET /posts/post-1 HTTP/1.1")
    for size, kept in ((httpserve._MEMO_HEAD_BYTES, 1), (httpserve._MEMO_HEAD_BYTES + 1, 0)):
        httpserve._request_of.cache_clear()
        head = _padded(b"GET /posts/post-1 HTTP/1.1", size)
        assert len(head) == size
        assert _answer(head) == _answer(head) == want
        assert httpserve._request_of.cache_info().currsize == kept


def test_a_reply_head_over_the_memo_bound_is_read_and_never_kept():
    for size, kept in ((httpserve._MEMO_HEAD_BYTES, 1), (httpserve._MEMO_HEAD_BYTES + 1, 0)):
        head = _padded(b"HTTP/1.1 200 OK\nx-edge-cache: HIT\nx-server-time-us: 7\nContent-Length: 2", size)
        assert len(head) == size
        httpserve._reply_of.cache_clear()
        with _FakeServer(lambda c, n, head=head: head + b"\n\nok") as fake:
            with contextlib.closing(_HttpTarget(fake.url)) as target:
                resp = target.handle_request("/", SYSTEM_CLOCK)
        assert (resp.status, resp.body, resp.server_time, resp.cache_status) == (200, b"ok", 7e-6, CacheStatus.HIT)
        assert httpserve._reply_of.cache_info().currsize == kept


def test_each_memo_holds_at_most_its_bound_of_heads():
    for i in range(5000):
        httpserve.respond(b"GET /p%d HTTP/1.1" % i, _route)
        httpserve._reply_of(b"HTTP/1.1 200 OK\r\nContent-Length: %d" % i)
    assert httpserve._request_of.cache_info().currsize == httpserve._MEMO_HEADS <= 1024
    assert httpserve._reply_of.cache_info().currsize == httpserve._MEMO_HEADS


def test_concurrent_first_reads_of_a_head_get_equal_replies(static_server):
    head = b"GET /posts/post-1 HTTP/1.1\r\nx-probe: %d\r\nConnection: close\r\n\r\n" % time.monotonic_ns()
    barrier, replies = threading.Barrier(8), []

    def fetch():
        with socket.create_connection(("127.0.0.1", static_server.port), timeout=5) as sock:
            barrier.wait()
            sock.sendall(head)
            raw = b""
            while data := sock.recv(65536):
                raw += data
        [(status, headers, body)] = _responses(raw)
        replies.append((status, body, headers["x-edge-cache"]))

    httpserve._request_of.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fetch) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    page = static_server.worker.handle_request("/posts/post-1", SYSTEM_CLOCK).body
    assert replies == [(200, page, "BYPASS")] * 8
    assert httpserve._request_of.cache_info().currsize == 1


_SERVER_TIME_FIELD = re.compile(rb"\r\nx-server-time-us: ([0-9]+)")


@pytest.mark.parametrize("server_clock", [SYSTEM_CLOCK, VirtualClock()], ids=["wall", "frozen"])
def test_a_load_run_reads_each_distinct_head_once(static_server, server_clock, monkeypatch):
    # Every request head is the same; a reply head changes only with its Date second and its server
    # time, which the frozen clock holds at 0.
    replies, read_head = [], httpserve._read_head

    def reading(recv, buf):
        head, rest = yield from read_head(recv, buf)
        if head.startswith(b"HTTP/"):
            replies.append(head)
        return head, rest

    monkeypatch.setattr(httpserve, "_read_head", reading)
    monkeypatch.setattr(httpserve, "SYSTEM_CLOCK", server_clock)
    httpserve._request_of.cache_clear()
    httpserve._reply_of.cache_clear()
    first = int(time.time())
    report = run_load(static_server.url, BenchConfig(duration=0.3, connections=2, target_path="/posts/post-1"))
    seconds = int(time.time()) - first + 1
    server_times = {_SERVER_TIME_FIELD.search(head)[1] for head in replies}
    assert report.error_count == 0 and len(replies) >= report.total_responses > 0
    assert len({_SERVER_TIME_FIELD.sub(b"", _DATE_FIELD.sub(b"", head)) for head in replies}) == 1
    assert httpserve._request_of.cache_info().misses == 1
    assert httpserve._reply_of.cache_info().misses == len(set(replies)) <= seconds * len(server_times)
    if server_clock is not SYSTEM_CLOCK:  # so one miss per Date second at most
        assert server_times == {b"0"}


# ------------------------------------------------ the benchmark's server trace


def test_benchmark_server_trace_spans_each_response(posts10, build10):
    """perfbench/layers.py times the server from ``parse_request`` to the sent response."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    worker = EdgeWorker(StrategyConfig(strategy=Strategy.STATIC, base_handling=0.0))
    worker.deploy(build10, posts10)
    tracer = layers.Tracer()
    with VariantServer(worker) as server:
        layers.instrument(tracer)
        try:
            rep = run_load(server.url, BenchConfig(duration=0.3, connections=2))
            # A server thread closes its span just after its last send.
            deadline = time.perf_counter() + 5
            while tracer.merged()[0]["httpserve.handle_one_request"][0] < rep.total_responses:
                assert time.perf_counter() < deadline
                time.sleep(0.01)
        finally:
            tracer.restore()
    assert rep.total_responses > 0
    assert tracer.merged()[0]["httpserve.handle_one_request"][0] == rep.total_responses
    assert tracer.maxima["httpserve.threads_peak"] > 0

"""HTTP layer: variant servers, admin endpoints, the content API."""

import contextlib
import json
from http.client import HTTPConnection

import pytest

from edgelab import httpserve
from edgelab.bench import ResetPolicy, _HttpTarget, run_audit
from edgelab.clock import SYSTEM_CLOCK
from edgelab.content import UpstreamConfig, generate_posts, make_post
from edgelab.edge import CacheStatus, EdgeWorker, Strategy, StrategyConfig
from edgelab.httpserve import ContentServer, VariantServer

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


def test_cache_status_header_miss_then_hit(isr_server, build10):
    status, body, headers = _get(isr_server, "/")
    assert status == 200
    assert headers["x-edge-cache"] == "MISS"
    assert body == build10.pages["/"].body
    _, _, headers = _get(isr_server, "/")
    assert headers["x-edge-cache"] == "HIT"


def test_server_time_header_is_microseconds(isr_server):
    _, _, headers = _get(isr_server, "/")  # MISS: pays the render delay
    assert int(headers["x-server-time-us"]) >= 20_000
    _, _, headers = _get(isr_server, "/")
    assert int(headers["x-server-time-us"]) < 20_000


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


def test_content_api_list_and_single_post():
    upstream = UpstreamConfig(seed=5, delay=0.0, post_count=10)
    with ContentServer(upstream) as server:
        status, body, _ = _get(server, "/posts")
        assert status == 200
        items = json.loads(body)
        assert len(items) == 10
        assert items[3]["slug"] == "post-3"

        status, body, _ = _get(server, "/posts/7")
        assert status == 200
        got = json.loads(body)
        want = make_post(5, 7)
        assert got["title"] == want.title
        assert got["body"] == want.body


def test_content_api_not_found():
    upstream = UpstreamConfig(seed=5, delay=0.0, post_count=10)
    with ContentServer(upstream) as server:
        assert _get(server, "/posts/10")[0] == 404
        assert _get(server, "/posts/banana")[0] == 404
        assert _get(server, "/other")[0] == 404

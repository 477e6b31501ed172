"""Edge worker: per-strategy cache semantics, deploys, cold starts."""

import math
import sys
import threading
import time
from dataclasses import replace

import pytest

from edgelab.clock import SerialScheduler, VirtualClock
from edgelab.content import generate_posts
from edgelab.edge import (
    CacheStatus,
    EdgeWorker,
    StaleDeployError,
    Strategy,
    StrategyConfig,
)
from edgelab.ssg import build_site, render_index, render_post

BASE = 0.001  # default per-request handling cost
DELAY = 0.1


def test_static_serves_prebuilt_bytes(worker_factory, build10):
    w = worker_factory(Strategy.STATIC)
    clock = VirtualClock()
    r = w.handle_request("/", clock)
    assert r.status == 200
    assert r.cache_status is CacheStatus.BYPASS
    assert r.body == build10.pages["/"].body
    assert r.server_time == pytest.approx(BASE)
    assert w.cache_size == 0


def test_ssr_renders_every_request(worker_factory):
    w = worker_factory(Strategy.SSR)
    clock = VirtualClock()
    for _ in range(3):
        r = w.handle_request("/", clock)
        assert r.cache_status is CacheStatus.BYPASS
        assert r.server_time == pytest.approx(BASE + DELAY)
    assert w.cache_size == 0


def test_ssr_sees_new_deploy_immediately(worker_factory, posts10, build10):
    w = worker_factory(Strategy.SSR)
    posts = list(posts10)
    posts[0] = replace(posts[0], title="Breaking news")
    w.deploy(build_site(posts, prev_deploy_id=build10.deploy_id), posts)
    r = w.handle_request("/", VirtualClock())
    assert b"Breaking news" in r.body


def test_isr_first_miss_then_hits(worker_factory):
    w = worker_factory(Strategy.ISR)
    clock = VirtualClock()
    first = w.handle_request("/", clock)
    assert first.cache_status is CacheStatus.MISS
    assert first.server_time >= DELAY
    for _ in range(4):
        r = w.handle_request("/", clock)
        assert r.cache_status is CacheStatus.HIT
        assert r.server_time < 0.010
        assert r.body == first.body
    assert w.cache_size == 1


def test_isr_ttl_expiry_rerenders_inline(worker_factory):
    w = worker_factory(Strategy.ISR, ttl=1.0)
    clock = VirtualClock()
    assert w.handle_request("/", clock).cache_status is CacheStatus.MISS
    clock.sleep(500_000_000)
    assert w.handle_request("/", clock).cache_status is CacheStatus.HIT
    clock.sleep(2_000_000_000)
    again = w.handle_request("/", clock)
    assert again.cache_status is CacheStatus.MISS
    assert again.server_time >= DELAY


def test_isr_keeps_serving_old_bytes_after_deploy(worker_factory, posts10, build10):
    w = worker_factory(Strategy.ISR)
    clock = VirtualClock()
    v1 = w.handle_request("/", clock)
    posts = list(posts10)
    posts[0] = replace(posts[0], title="Changed")
    w.deploy(build_site(posts, prev_deploy_id=build10.deploy_id), posts)
    r = w.handle_request("/", clock)
    assert r.cache_status is CacheStatus.HIT
    assert r.body == v1.body  # stale by design until purged
    assert r.deploy_id == build10.deploy_id


def test_purge_returns_count_and_resets(worker_factory, posts10):
    w = worker_factory(Strategy.ISR)
    clock = VirtualClock()
    paths = ["/"] + [f"/posts/{p.slug}" for p in posts10[:3]]
    for path in paths:
        w.handle_request(path, clock)
    assert w.purge_cache() == len(paths)
    assert w.purge_cache() == 0
    r = w.handle_request("/", clock)
    assert r.cache_status is CacheStatus.MISS
    assert r.server_time >= DELAY


@pytest.mark.parametrize("field", ["upstream_delay", "ttl", "cold_start_penalty", "base_handling", "kv_read_delay"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_strategy_settings_are_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        StrategyConfig(strategy=Strategy.ISR, **{field: value})


@pytest.mark.parametrize("field", ["upstream_delay", "ttl", "cold_start_penalty", "base_handling", "kv_read_delay"])
@pytest.mark.parametrize("value", [1e13, 1e300])
def test_strategy_settings_beyond_int64_ns_are_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        StrategyConfig(strategy=Strategy.ISR, **{field: value})


def test_swr_requires_ttl():
    with pytest.raises(ValueError):
        StrategyConfig(strategy=Strategy.SWR)


def test_swr_stale_hit_serves_old_bytes_then_refreshes(posts10, build10):
    sched = SerialScheduler()
    w = EdgeWorker(StrategyConfig(strategy=Strategy.SWR, upstream_delay=DELAY, ttl=1.0), sched)
    w.deploy(build10, posts10)
    clock = VirtualClock()

    v1 = w.handle_request("/", clock)
    assert v1.cache_status is CacheStatus.MISS

    posts = list(posts10)
    posts[0] = replace(posts[0], title="Fresh title")
    w.deploy(build_site(posts, prev_deploy_id=build10.deploy_id), posts)

    clock.jump_to(2_000_000_000)
    stale = w.handle_request("/", clock)
    assert stale.cache_status is CacheStatus.STALE
    assert stale.body == v1.body
    assert stale.server_time < 0.010

    assert sched.drain() == 1
    fresh = w.handle_request("/", clock)
    assert fresh.cache_status is CacheStatus.HIT
    assert fresh.body == render_index(posts).body
    assert b"Fresh title" in fresh.body


def test_swr_revalidation_is_deduplicated(posts10, build10):
    sched = SerialScheduler()
    w = EdgeWorker(StrategyConfig(strategy=Strategy.SWR, upstream_delay=DELAY, ttl=1.0), sched)
    w.deploy(build10, posts10)
    base = VirtualClock()
    w.handle_request("/", base)
    base.jump_to(5_000_000_000)

    for _ in range(100):
        r = w.handle_request("/", base.fork())
        assert r.cache_status is CacheStatus.STALE
    assert sched.pending == 1
    assert sched.drain() == 1
    assert w.handle_request("/", base.fork()).cache_status is CacheStatus.HIT


def test_swr_revalidation_failure_keeps_serving_stale(posts10, build10):
    sched = SerialScheduler()
    w = EdgeWorker(StrategyConfig(strategy=Strategy.SWR, upstream_delay=DELAY, ttl=1.0), sched)
    w.deploy(build10, posts10)
    clock = VirtualClock()
    path = "/posts/post-1"
    cached = w.handle_request(path, clock)
    assert cached.cache_status is CacheStatus.MISS

    # The new build still lists the page, but the origin no longer has it.
    w.deploy(build_site(posts10, prev_deploy_id=build10.deploy_id), [p for p in posts10 if p.slug != "post-1"])
    clock.jump_to(5_000_000_000)
    assert w.handle_request(path, clock).cache_status is CacheStatus.STALE
    assert sched.drain() == 1  # the failed revalidation does not escape

    again = w.handle_request(path, clock)
    assert again.cache_status is CacheStatus.STALE
    assert again.body == cached.body
    assert sched.pending == 1  # a new attempt is scheduled


def test_dpr_new_deploy_misses_and_serves_new_bytes(worker_factory, posts10, build10):
    w = worker_factory(Strategy.DPR)
    clock = VirtualClock()
    assert w.handle_request("/", clock).cache_status is CacheStatus.MISS
    assert w.handle_request("/", clock).cache_status is CacheStatus.HIT

    posts = list(posts10)
    posts[0] = replace(posts[0], title="Second deploy")
    build2 = build_site(posts, prev_deploy_id=build10.deploy_id)
    w.deploy(build2, posts)

    r = w.handle_request("/", clock)
    assert r.cache_status is CacheStatus.MISS  # deploy-scoped key: no stale serve
    assert b"Second deploy" in r.body
    assert r.deploy_id == build2.deploy_id


def test_deploy_rejects_non_increasing_ids(worker_factory, posts10, build10):
    w = worker_factory(Strategy.ISR)
    with pytest.raises(StaleDeployError):
        w.deploy(build10, posts10)
    with pytest.raises(StaleDeployError):
        w.deploy(build_site(posts10, prev_deploy_id=build10.deploy_id - 1), posts10)


def test_cold_start_penalty_is_one_shot(posts10, build10):
    cfg = StrategyConfig(strategy=Strategy.STATIC, cold_start_penalty=0.1)
    w = EdgeWorker(cfg)
    w.deploy(build10, posts10)
    clock = VirtualClock()
    assert w.handle_request("/", clock).server_time == pytest.approx(BASE + 0.1)
    assert w.handle_request("/", clock).server_time == pytest.approx(BASE)
    w.cold_worker()
    assert w.handle_request("/", clock).server_time == pytest.approx(BASE + 0.1)
    assert w.handle_request("/", clock).server_time == pytest.approx(BASE)


class _YieldingLock:
    """A lock that gives up the interpreter lock before each acquire.

    Under the GIL no thread switch falls between a bare flag read and the
    ``with`` that follows it, so racing threads are made to meet there.
    """

    def __init__(self):
        self._lock = threading.Lock()

    def __enter__(self):
        time.sleep(0)
        self._lock.acquire()

    def __exit__(self, *exc_info):
        self._lock.release()


@pytest.mark.wallclock
def test_cold_start_penalty_is_paid_once_by_concurrent_first_requests(posts10, build10):
    # The cold flag is read without the lock; the re-check under it must
    # still let exactly one of several racing first requests pay.
    cfg = StrategyConfig(strategy=Strategy.STATIC, cold_start_penalty=1.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            w = EdgeWorker(cfg)
            w.deploy(build10, posts10)
            w._lock = _YieldingLock()
            start = threading.Barrier(8)
            times = []

            def first_request():
                start.wait(timeout=5)
                times.append(w.handle_request("/", VirtualClock()).server_time)

            threads = [threading.Thread(target=first_request) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=5)
            assert not any(t.is_alive() for t in threads)
            assert sorted(times) == pytest.approx([BASE] * 7 + [BASE + 1.0])
    finally:
        sys.setswitchinterval(interval)


def test_server_time_decomposition_is_exact(posts10, build10):
    cfg = StrategyConfig(
        strategy=Strategy.ISR,
        upstream_delay=0.07,
        cold_start_penalty=0.02,
        base_handling=0.003,
        kv_read_delay=0.004,
    )
    w = EdgeWorker(cfg)
    w.deploy(build10, posts10)
    clock = VirtualClock()
    miss = w.handle_request("/", clock)
    assert miss.server_time == pytest.approx(0.003 + 0.02 + 0.004 + 0.07)
    hit = w.handle_request("/", clock)
    assert hit.server_time == pytest.approx(0.003 + 0.004)


@pytest.mark.parametrize("strategy", list(Strategy))
def test_404_is_uniform_and_never_cached(strategy, posts10, build10):
    cfg_kwargs = {"ttl": 1.0} if strategy is Strategy.SWR else {}
    w = EdgeWorker(StrategyConfig(strategy=strategy, **cfg_kwargs))
    w.deploy(build10, posts10)
    r = w.handle_request("/no/such/page", VirtualClock())
    assert r.status == 404
    assert r.cache_status is CacheStatus.BYPASS
    assert w.cache_size == 0


def test_404_body_identical_across_strategies(posts10, build10):
    bodies = set()
    for strategy in Strategy:
        kwargs = {"ttl": 1.0} if strategy is Strategy.SWR else {}
        w = EdgeWorker(StrategyConfig(strategy=strategy, **kwargs))
        w.deploy(build10, posts10)
        bodies.add(w.handle_request("/missing", VirtualClock()).body)
    assert len(bodies) == 1


def test_render_failure_returns_502_and_is_not_cached(posts10, build10):
    # The build claims a page whose content the origin no longer has.
    for strategy in (Strategy.SSR, Strategy.ISR):
        w = EdgeWorker(StrategyConfig(strategy=strategy))
        w.deploy(build10, posts10[:-1])
        path = f"/posts/{posts10[-1].slug}"
        r = w.handle_request(path, VirtualClock())
        assert r.status == 502
        assert r.cache_status is CacheStatus.BYPASS
        assert w.cache_size == 0


def test_requests_before_deploy_are_an_error():
    w = EdgeWorker(StrategyConfig(strategy=Strategy.STATIC))
    with pytest.raises(RuntimeError):
        w.handle_request("/", VirtualClock())


def test_response_deploy_id_tracks_entry(worker_factory, build10):
    w = worker_factory(Strategy.ISR)
    clock = VirtualClock()
    assert w.handle_request("/", clock).deploy_id == build10.deploy_id
    assert w.handle_request("/", clock).deploy_id == build10.deploy_id


@pytest.mark.wallclock
def test_threaded_requests_never_mix_deploys(posts10):
    """Real-thread sanity check; the exhaustive version runs in acceptance."""
    cfg = StrategyConfig(strategy=Strategy.DPR, upstream_delay=0.0, base_handling=0.0)
    w = EdgeWorker(cfg)
    versions = []
    prev = 0
    for i in range(6):
        posts = list(posts10)
        posts[0] = replace(posts[0], title=f"rev {i}")
        build = build_site(posts, prev_deploy_id=prev)
        prev = build.deploy_id
        versions.append((build, posts))
    valid = {b.deploy_id: {page.body for page in b.pages.values()} for b, _ in versions}
    w.deploy(*versions[0])

    stop = threading.Event()
    bad = []

    def hammer():
        while not stop.is_set():
            r = w.handle_request("/", VirtualClock())
            if r.status == 200 and r.body not in valid[r.deploy_id]:
                bad.append(r.deploy_id)

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for t in threads:
        t.start()
    for build, posts in versions[1:]:
        w.deploy(build, posts)
        time.sleep(0.02)
    stop.set()
    for t in threads:
        t.join()
    assert bad == []



def test_ssr_renders_the_origin_while_static_serves_the_build(posts10, build10):
    # The origin edited a post after the site was built: the freshness gap.
    origin = list(posts10)
    origin[0] = replace(origin[0], body="Edited at the origin after the build.")
    path = f"/posts/{origin[0].slug}"
    served = {}
    for strategy in (Strategy.STATIC, Strategy.SSR):
        w = EdgeWorker(StrategyConfig(strategy=strategy))
        w.deploy(build10, origin)
        r = w.handle_request(path, VirtualClock())
        assert r.status == 200
        served[strategy] = r.body
    assert served[Strategy.STATIC] == build10.pages[path].body
    assert served[Strategy.SSR] == render_post(origin[0]).body
    assert b"Edited at the origin" in served[Strategy.SSR]
    assert b"Edited at the origin" not in served[Strategy.STATIC]


# ------------------------------------------------------------ response reuse

REUSING = [Strategy.ISR, Strategy.SWR, Strategy.DPR]


def _reusing_worker(worker_factory, strategy, **overrides):
    return worker_factory(strategy, ttl=60.0 if strategy is Strategy.SWR else None, **overrides)


@pytest.mark.parametrize("strategy", REUSING)
def test_equal_elapsed_times_share_one_response(worker_factory, strategy):
    # A fresh clock per request makes every elapsed time the same float.
    w = _reusing_worker(worker_factory, strategy)
    w.handle_request("/", VirtualClock())  # fills the cache entry
    first, second = (w.handle_request("/", VirtualClock()) for _ in range(2))
    assert first.cache_status is CacheStatus.HIT
    assert second is first


@pytest.mark.parametrize("strategy", [Strategy.STATIC, *REUSING])
def test_a_kept_response_never_answers_with_another_time_or_status(worker_factory, build10, strategy):
    cold, kv = 0.5, 0.002
    w = _reusing_worker(worker_factory, strategy, cold_start_penalty=cold, kv_read_delay=kv)
    static = strategy is Strategy.STATIC
    lookup = 0.0 if static else kv
    render = 0.0 if static else DELAY
    served = CacheStatus.BYPASS if static else CacheStatus.HIT
    filled = CacheStatus.BYPASS if static else CacheStatus.MISS
    steps = [
        (None, filled, BASE + cold + lookup + render),  # a fresh worker is cold
        (None, served, BASE + lookup),
        (None, served, BASE + lookup),
        (w.cold_worker, served, BASE + cold + lookup),
        (None, served, BASE + lookup),
        (w.purge_cache, filled, BASE + lookup + render),
        (None, served, BASE + lookup),
    ]
    seen = []
    for before, _, _ in steps:
        if before is not None:
            before()
        seen.append(w.handle_request("/", VirtualClock()))
    # Checked after the last request, so a response changed later fails too.
    for r, (_, status, elapsed) in zip(seen, steps):
        assert r.cache_status is status
        assert r.server_time == pytest.approx(elapsed, abs=1e-12)
        assert r.body == build10.pages["/"].body
    if not static:  # a STATIC answer is made fresh for each request
        assert seen[2] is seen[1]
        assert seen[6] is not seen[4]  # a purge drops the entry and its kept HIT


@pytest.mark.parametrize("strategy", [Strategy.STATIC, Strategy.DPR])
def test_after_a_redeploy_responses_carry_the_new_deploy_id(worker_factory, posts10, build10, strategy):
    w = worker_factory(strategy)
    for _ in range(2):
        old = w.handle_request("/", VirtualClock())
    posts = list(posts10)
    posts[0] = replace(posts[0], title="Second deploy")
    build2 = build_site(posts, prev_deploy_id=build10.deploy_id)
    w.deploy(build2, posts)
    if strategy is Strategy.DPR:
        assert w.handle_request("/", VirtualClock()).cache_status is CacheStatus.MISS
    new = w.handle_request("/", VirtualClock())
    assert new.cache_status is (CacheStatus.BYPASS if strategy is Strategy.STATIC else CacheStatus.HIT)
    assert new.deploy_id == build2.deploy_id
    assert b"Second deploy" in new.body
    assert old.deploy_id == build10.deploy_id
    assert b"Second deploy" not in old.body


def test_static_on_the_system_clock_times_every_request(posts10, build10):
    w = EdgeWorker(StrategyConfig(strategy=Strategy.STATIC, base_handling=0.0))
    w.deploy(build10, posts10)
    for _ in range(100):
        r = w.handle_request("/")
        assert r.server_time >= 0
        assert r.body == build10.pages["/"].body

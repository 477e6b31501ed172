"""Acceptance suite: one test per shipping criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one printed
PASS line per criterion alongside the pytest verdicts.
"""

import math
import random
import time
from dataclasses import replace

import pytest

from edgelab.bench import BenchConfig, LatencyHistogram, ResetPolicy, run_audit, run_load
from edgelab.clock import SerialScheduler, VirtualClock
from edgelab.config import preset
from edgelab.content import generate_posts
from edgelab.edge import CacheStatus, EdgeWorker, Strategy, StrategyConfig
from edgelab.experiment import run_experiment
from edgelab.httpserve import VariantServer
from edgelab.netmodel import PROFILES, fcp_proxy, transfer_time
from edgelab.ssg import build_site, incremental_rebuild, post_path, render_index


def report(tag: str, detail: str) -> None:
    print(f"\n{tag} PASS — {detail}")


def _worker(strategy: Strategy, posts, build, scheduler=None, **overrides) -> EdgeWorker:
    overrides.setdefault("upstream_delay", 0.1)
    w = EdgeWorker(StrategyConfig(strategy=strategy, **overrides), scheduler)
    w.deploy(build, posts)
    return w


@pytest.fixture(scope="module")
def site():
    posts = generate_posts(42, 100)
    return posts, build_site(posts, built_at=0.0)


def test_c01_ssr_minus_warm_isr_p50_is_the_origin_delay(site):
    """p50(SSR) − p50(ISR warm) must land in [90 ms, 160 ms]; run ≥ 10 s."""
    t0 = time.monotonic()
    posts, build = site
    cfg = BenchConfig(duration=12.0, connections=10)

    ssr = run_load(_worker(Strategy.SSR, posts, build), cfg, VirtualClock())

    isr_worker = _worker(Strategy.ISR, posts, build)
    isr_worker.handle_request("/", VirtualClock())  # warm the cache
    isr = run_load(isr_worker, cfg, VirtualClock())

    delta = ssr.percentiles[50.0] - isr.percentiles[50.0]
    assert 0.090 <= delta <= 0.160
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(
        "[c01]",
        f"p50 SSR {ssr.percentiles[50.0] * 1000:.3f} ms − p50 warm ISR "
        f"{isr.percentiles[50.0] * 1000:.3f} ms = {delta * 1000:.3f} ms "
        f"(bounds 90..160; wall {elapsed:.1f}s < 60s)",
    )


def test_c02_isr_absorbs_after_one_miss(site):
    """Purged ISR audit: run-1 ≥ 100 ms, median(2–5) ≤ 20 ms, one MISS then HITs."""
    posts, build = site
    w = _worker(Strategy.ISR, posts, build)
    clock = VirtualClock()
    for page in ("/", "/posts/post-0"):
        rep = run_audit(w, page, runs=5, reset=ResetPolicy(purge=True), clock=clock)
        assert rep.server_time.run_1 >= 0.100
        assert rep.server_time.median_rest <= 0.020
        assert rep.cache_statuses == ("MISS", "HIT", "HIT", "HIT", "HIT")
    report("[c02]", "run-1 ≥ 100 ms, median(2–5) ≤ 20 ms, statuses MISS then HITs on both pages")


def test_c03_cold_start_signature(site):
    """Penalty 100 ms shows up as run-1 − median = 100 ± 15 ms; zero penalty ≤ 10 ms."""
    posts, build = site
    cold = _worker(Strategy.STATIC, posts, build, cold_start_penalty=0.100)
    rep = run_audit(
        cold, "/", runs=5, reset=ResetPolicy(purge=True, cold=True), clock=VirtualClock()
    )
    signature = rep.server_time.run_1 - rep.server_time.median_rest
    assert signature == pytest.approx(0.100, abs=0.015)

    flat = _worker(Strategy.STATIC, posts, build, cold_start_penalty=0.0)
    rep0 = run_audit(
        flat, "/", runs=5, reset=ResetPolicy(purge=True, cold=True), clock=VirtualClock()
    )
    flat_diff = abs(rep0.server_time.run_1 - rep0.server_time.median_rest)
    assert flat_diff <= 0.010
    report(
        "[c03]",
        f"signature {signature * 1000:.3f} ms (100±15); zero-penalty diff "
        f"{flat_diff * 1000:.3f} ms ≤ 10 ms",
    )


def test_c04_warm_isr_tracks_static_percentiles(site):
    """After one warmup, ISR p50–p99 each within 10% of STATIC over a 30 s run."""
    posts, build = site
    cfg = BenchConfig(duration=30.0, connections=10)

    static = run_load(_worker(Strategy.STATIC, posts, build), cfg, VirtualClock())
    isr_worker = _worker(Strategy.ISR, posts, build)
    isr_worker.handle_request("/", VirtualClock())
    isr = run_load(isr_worker, cfg, VirtualClock())

    checked = []
    for p in (50.0, 75.0, 90.0, 97.5, 99.0):
        s, i = static.percentiles[p], isr.percentiles[p]
        assert abs(i - s) / s <= 0.10, f"p{p}: isr {i} vs static {s}"
        checked.append(f"p{p:g} {abs(i - s) / s * 100:.2f}%")
    report("[c04]", "ISR vs STATIC deviation " + ", ".join(checked) + " (limit 10%)")


def test_c05_dpr_requests_never_mix_deploys():
    """10⁴ randomized request/deploy interleavings: every response body belongs
    to the deployment it claims; no pre-deploy entry survives a swap."""
    rng = random.Random(0xD13)
    posts = generate_posts(5, 20)
    build = build_site(posts, built_at=0.0)
    w = _worker(Strategy.DPR, posts, build, upstream_delay=0.005, base_handling=0.0)
    clock = VirtualClock()
    paths = ["/"] + [post_path(p) for p in posts]

    deploys = 0
    for trial in range(10_000):
        if rng.random() < 0.01:
            mutated = list(posts)
            k = rng.randrange(len(posts))
            mutated[k] = replace(mutated[k], title=f"{mutated[k].title} r{trial}")
            posts = mutated
            build = build_site(posts, prev_deploy_id=build.deploy_id, built_at=0.0)
            w.deploy(build, posts)
            deploys += 1
        else:
            path = paths[rng.randrange(len(paths))]
            resp = w.handle_request(path, clock)
            assert resp.status == 200
            assert resp.deploy_id == build.deploy_id  # never a pre-deploy entry
            assert resp.body == build.pages[path].body  # never mixed bytes
    assert deploys > 50
    report("[c05]", f"10000 trials, {deploys} deploys: 0 mixed bodies, 0 stale-deploy serves")


def test_c06_swr_serves_stale_and_revalidates_once(site):
    """At t=2 s (ttl 1 s): STALE old bytes, server_time ≤ 10 ms, exactly one
    revalidation for 100 concurrent stale hits, then fresh HIT."""
    posts, build = site
    sched = SerialScheduler()
    w = _worker(Strategy.SWR, posts, build, ttl=1.0, scheduler=sched)
    clock = VirtualClock()

    v1 = w.handle_request("/", clock)
    assert v1.cache_status is CacheStatus.MISS

    fresh_posts = list(posts)
    fresh_posts[0] = replace(fresh_posts[0], title="Updated after first render")
    w.deploy(build_site(fresh_posts, prev_deploy_id=build.deploy_id, built_at=0.0), fresh_posts)

    clock.sleep(2_000_000_000 - clock.now())
    stale_responses = [w.handle_request("/", clock.fork()) for _ in range(100)]
    for r in stale_responses:
        assert r.cache_status is CacheStatus.STALE
        assert r.body == v1.body
        assert r.server_time <= 0.010
    assert sched.pending == 1
    assert sched.drain() == 1

    after = w.handle_request("/", clock)
    assert after.cache_status is CacheStatus.HIT
    assert after.body == render_index(fresh_posts).body
    assert after.body != v1.body
    report("[c06]", "100 stale hits → 1 revalidation; stale ≤ 10 ms; next request HIT fresh bytes")


def test_c07_incremental_rebuild_matches_fresh_build():
    """500 chained single-post mutations: hash-identical to fresh builds,
    minimal rebuild sets."""
    rng = random.Random(77)
    posts = generate_posts(11, 20)
    build = build_site(posts, built_at=0.0)

    for trial in range(500):
        k = rng.randrange(len(posts))
        mutated = list(posts)
        kind = rng.choice(("body", "title"))
        if kind == "body":
            mutated[k] = replace(mutated[k], body=f"{mutated[k].body} edit{trial}")
            expected = frozenset({post_path(mutated[k])})
        else:
            mutated[k] = replace(mutated[k], title=f"{mutated[k].title} t{trial}")
            expected = frozenset({post_path(mutated[k]), "/"})

        new_build, rebuilt = incremental_rebuild(build, mutated, built_at=0.0)
        assert rebuilt == expected, f"trial {trial}: {rebuilt} != {expected}"
        fresh = build_site(mutated, built_at=0.0)
        assert new_build.page_hashes() == fresh.page_hashes(), f"trial {trial}"
        posts, build = mutated, new_build
    report("[c07]", "500 mutations: all hash-identical to fresh builds, rebuild sets minimal")


def test_c08_percentiles_within_one_percent_of_oracle():
    """10⁵ samples: ≤ 1% relative error vs exact nearest-rank, monotone, p100 exact."""
    rng = random.Random(31337)
    hist = LatencyHistogram()
    samples = []
    for _ in range(100_000):
        v = min(50.0, max(2e-6, rng.lognormvariate(-4.0, 1.3)))
        samples.append(v)
        hist.record(v)
    samples.sort()

    worst = 0.0
    previous = 0.0
    for p in (50.0, 75.0, 90.0, 97.5, 99.0, 99.9, 99.99):
        rank = max(1, math.ceil(p / 100 * len(samples)))
        exact = samples[rank - 1]
        got = hist.percentile(p)
        rel = abs(got - exact) / exact
        worst = max(worst, rel)
        assert rel <= 0.01, f"p{p}: {got} vs exact {exact} ({rel * 100:.3f}%)"
        assert got >= previous
        previous = got
    assert hist.percentile(100.0) == samples[-1]
    report("[c08]", f"worst relative error {worst * 100:.3f}% (limit 1%); p100 exact")


def test_c09_fcp_proxy_arithmetic(site):
    """150 ms floor, 10 kB = +50 ms, and strategy enters only via server_time."""
    posts, build = site
    mobile = PROFILES["mobile-throttled"]
    from edgelab.edge import Response

    empty = Response(200, b"", 0.0, CacheStatus.BYPASS)
    assert fcp_proxy(empty, mobile) == 0.150

    ten_kb = Response(200, b"x" * 10_000, 0.0, CacheStatus.BYPASS)
    added = fcp_proxy(ten_kb, mobile) - fcp_proxy(empty, mobile)
    assert added == pytest.approx(0.050, abs=1e-12)
    assert transfer_time(10_000, mobile) == pytest.approx(0.050, abs=1e-15)

    # identical body and server_time: cache status must not matter
    body = build.pages["/"].body
    variants = [
        fcp_proxy(Response(200, body, 0.003, status), mobile)
        for status in (CacheStatus.HIT, CacheStatus.MISS, CacheStatus.STALE, CacheStatus.BYPASS)
    ]
    assert len(set(variants)) == 1
    # a server_time change moves fcp by exactly that amount
    slow = fcp_proxy(Response(200, body, 0.103, CacheStatus.BYPASS), mobile)
    assert slow - variants[0] == pytest.approx(0.100, abs=1e-12)
    report("[c09]", "fcp(0B, srt 0) = 150 ms exactly; 10 kB adds 50 ms; strategy-blind for equal bodies")


def test_c10_deterministic_experiments_are_byte_identical(tmp_path):
    """Same seed, two runs: CSV and summary outputs match byte for byte."""
    cfg = preset("core-three")
    cfg = replace(cfg, bench=replace(cfg.bench, duration=2.0))
    run_experiment(cfg, deterministic=True, out_dir=tmp_path / "a")
    run_experiment(cfg, deterministic=True, out_dir=tmp_path / "b")
    names = ("audit.md", "audit.csv", "percentiles.csv", "summary.json")
    for name in names:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    report("[c10]", f"two runs, {len(names)} files compared: byte-identical")


@pytest.mark.wallclock
def test_c11_throughput_accounting_and_loopback_floor(site):
    """rps × duration = total ± 5%, and static-over-HTTP sustains ≥ 1000 rps."""
    posts, build = site
    worker = EdgeWorker(
        StrategyConfig(strategy=Strategy.STATIC, upstream_delay=0.1, base_handling=0.0)
    )
    worker.deploy(build, posts)
    with VariantServer(worker) as server:
        rep = run_load(server.url, BenchConfig(duration=3.0, connections=10))

    assert rep.requests_per_second * rep.duration == pytest.approx(
        rep.total_responses, rel=0.05
    )
    assert rep.requests_per_second >= 1000.0, f"only {rep.requests_per_second:.0f} rps"
    report(
        "[c11]",
        f"{rep.total_responses} responses in {rep.duration:.2f}s = "
        f"{rep.requests_per_second:.0f} rps (floor 1000); accounting within 5%",
    )

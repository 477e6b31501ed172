"""Histogram accuracy, load-run accounting, target URLs, audits, comparison tables."""

import functools
import heapq
import itertools
import math
import random
import socket
import statistics
import sys
import time
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from edgelab import bench, edge
from edgelab.bench import (
    HIST_HIGH,
    HIST_LOW,
    PERCENTILE_POINTS,
    AuditReport,
    BenchConfig,
    EmptyHistogramError,
    LatencyHistogram,
    ResetPolicy,
    TargetUnreachableError,
    _load_report,
    apply_reset,
    run_audit,
    run_load,
)
from edgelab.clock import SerialScheduler, VirtualClock, to_ns
from edgelab.edge import CacheStatus, EdgeWorker, Response, Strategy, StrategyConfig
from edgelab.experiment import audit_entry, audit_table, bench_entry, bench_table


def nearest_rank(sorted_values, p):
    """Nearest-rank oracle: smallest value with at least p% at or below."""
    if p >= 100:
        return sorted_values[-1]
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def constant_handler(latency, body=b"x" * 512):
    def handle(path, clock):
        clock.sleep(to_ns(latency, "latency"))
        return Response(200, body, latency, CacheStatus.BYPASS)

    return handle


# ---------------------------------------------------------------- histogram


def test_single_sample():
    h = LatencyHistogram()
    h.record(0.005)
    assert 0.00495 <= h.percentile(50) <= 0.00505
    assert h.percentile(100) == 0.005


def test_uniform_ramp_within_one_percent():
    h = LatencyHistogram()
    values = [i / 1000 for i in range(1, 1001)]  # 1..1000 ms
    for v in values:
        h.record(v)
    assert h.percentile(50) == pytest.approx(0.500, rel=0.01)


def test_hundred_point_grid_p99():
    h = LatencyHistogram()
    values = [i / 1000 for i in range(1, 101)]
    for v in values:
        h.record(v)
    assert h.percentile(99) == pytest.approx(0.099, rel=0.01)


def test_bimodal_p50():
    h = LatencyHistogram()
    for _ in range(99):
        h.record(0.010)
    h.record(1.000)
    assert h.percentile(50) == pytest.approx(0.010, rel=0.01)


def test_empty_histogram_raises():
    with pytest.raises(EmptyHistogramError):
        LatencyHistogram().percentile(50)
    with pytest.raises(EmptyHistogramError):
        _ = LatencyHistogram().mean


def test_p100_is_exact_max():
    h = LatencyHistogram()
    rng = random.Random(1)
    mx = 0.0
    for _ in range(1000):
        v = rng.uniform(1e-5, 10)
        mx = max(mx, v)
        h.record(v)
    assert h.percentile(100) == mx


def test_out_of_range_samples_are_clamped_and_flagged():
    h = LatencyHistogram()
    h.record(HIST_LOW / 10)
    h.record(HIST_HIGH * 2)
    assert h.clamped_count == 2
    assert h.total_count == 2
    h.record(0.5)
    assert h.total_count == 3


def test_mean_matches_arithmetic_mean():
    h = LatencyHistogram()
    values = [0.001, 0.002, 0.004, 0.1]
    for v in values:
        h.record(v)
    assert h.mean == pytest.approx(statistics.fmean(values), rel=1e-9)


@settings(max_examples=50)
@given(st.lists(st.floats(min_value=1e-5, max_value=50.0), min_size=1, max_size=300))
def test_percentiles_track_oracle_and_stay_monotone(values):
    h = LatencyHistogram()
    for v in values:
        h.record(v)
    ordered = sorted(values)
    previous = 0.0
    for p in PERCENTILE_POINTS:
        got = h.percentile(p)
        want = nearest_rank(ordered, p)
        assert got == pytest.approx(want, rel=0.01)
        assert got >= previous
        previous = got


def reference_histogram(samples):
    """counts, total, sum in ns, max and clamped count with a bucket lookup for every sample."""
    counts = [0] * len(LatencyHistogram().counts)
    total_sum, maximum, clamped = 0, 0.0, 0
    for v in samples:
        in_range = min(max(v, HIST_LOW), HIST_HIGH)
        clamped += in_range != v
        counts[min(LatencyHistogram._bucket_index(in_range), len(counts) - 1)] += 1
        total_sum += round(v * 1e9)
        maximum = max(maximum, v)
    return counts, len(samples), total_sum, maximum, clamped


_EDGE_SAMPLES = (0.0, -1.0, HIST_LOW, HIST_LOW / 10, HIST_HIGH, HIST_HIGH * 2)


@settings(max_examples=100)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.sampled_from(_EDGE_SAMPLES), st.floats(min_value=0.0, max_value=120.0)),
            st.integers(min_value=1, max_value=4),
        ),
        max_size=60,
    )
)
def test_repeated_sample_memo_matches_a_lookup_per_sample(runs):
    samples = [v for v, n in runs for _ in range(n)]
    h = LatencyHistogram()
    for v in samples:
        h.record(v)
    got = (h.counts, h.total_count, h.sum_ns, h.max_value, h.clamped_count)
    assert got == reference_histogram(samples)


@settings(max_examples=100)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.sampled_from(_EDGE_SAMPLES), st.floats(min_value=0.0, max_value=120.0)),
            st.integers(min_value=1, max_value=50),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_record_n_matches_n_records(runs):
    h = LatencyHistogram()
    for v, n in runs:
        h.record(v, n)
    samples = [v for v, n in runs for _ in range(n)]
    counts, total, total_sum, maximum, clamped = reference_histogram(samples)
    assert (h.counts, h.total_count, h.max_value, h.clamped_count) == (counts, total, maximum, clamped)
    assert h.sum_ns == total_sum
    one_by_one = LatencyHistogram()
    for v in samples:
        one_by_one.record(v)
    for p in PERCENTILE_POINTS:
        assert h.percentile(p) == one_by_one.percentile(p)


def scan_percentile(h, p):
    """The linear bucket scan that ``percentile`` bisects, kept as its reference."""
    if h.total_count == 0:
        raise EmptyHistogramError("no samples recorded")
    if p == 100.0:
        return h.max_value
    rank = max(1, math.ceil(p / 100.0 * h.total_count))
    seen = 0
    for idx, count in enumerate(h.counts):
        seen += count
        if seen >= rank:
            return min(LatencyHistogram._bucket_midpoint(idx), h.max_value)
    return h.max_value


_samples = st.lists(
    st.one_of(st.sampled_from(_EDGE_SAMPLES), st.floats(min_value=0.0, max_value=120.0)).flatmap(
        lambda v: st.lists(st.just(v), min_size=1, max_size=3)
    ),
    max_size=20,
).map(lambda runs: [v for run in runs for v in run])


@settings(max_examples=100)
@given(
    st.lists(_samples, max_size=6),
    st.lists(st.floats(min_value=0.0, max_value=100.0, exclude_min=True), max_size=4),
)
def test_bisected_percentiles_match_a_bucket_scan(steps, extra_points):
    def outcome(percentile, *args):
        try:
            return percentile(*args)
        except EmptyHistogramError as exc:
            return type(exc)

    h = LatencyHistogram()
    for samples in [[]] + steps:
        for v in samples:
            h.record(v)
        for p in PERCENTILE_POINTS + tuple(extra_points):
            assert outcome(h.percentile, p) == outcome(scan_percentile, h, p)


# ---------------------------------------------------------------- run_load


def heap_pop_push_load(target, cfg, clock, background):
    """The pop-then-push event loop the simulated driver replaced, kept as its reference."""
    fetch = getattr(target, "handle_request", target)
    start = clock.now()
    deadline = start + to_ns(cfg.duration, "duration")
    cutoff = start + to_ns(cfg.discard_first, "discard_first")
    hist = LatencyHistogram()
    conn_clocks = [clock.fork() for _ in range(cfg.connections)]
    heap = [(start, i) for i in range(cfg.connections)]
    heapq.heapify(heap)
    total_bytes = responses = errors = 0
    while heap:
        t, i = heapq.heappop(heap)
        if t >= deadline:
            continue
        conn = conn_clocks[i]
        resp = fetch(cfg.target_path, conn)
        now = conn.now()
        if t >= cutoff:
            hist.record((now - t) / 1e9)
            total_bytes += len(resp.body)
            responses += 1
            errors += resp.status >= 400
        background.drain()
        heapq.heappush(heap, (now, i))
    clock.sleep(deadline - start)
    return _load_report(hist, total_bytes, responses, errors, cfg.duration - cfg.discard_first, cfg)


def scripted_handler(delays, background, calls):
    """A handler whose n-th call sleeps ``delays[n % len(delays)]`` ns and logs ``(connection, time)``.

    Connections are numbered by the order their clocks are first seen.
    Every third call fails and every fifth queues a background task that
    logs the call it came from.
    """
    conns: dict[int, int] = {}

    def handle(path, clock):
        n = len(calls)
        calls.append((conns.setdefault(id(clock), len(conns)), clock.now()))
        if n % 5 == 0:
            background.submit(lambda n=n: calls.append(("task", n)))
        clock.sleep(delays[n % len(delays)])
        return Response(503 if n % 3 == 0 else 200, b"x" * (n % 7), 0.0, CacheStatus.BYPASS)

    return handle


# The driver-equivalence tests below run each example under ``deadline``: a delay given in
# seconds where ns are meant makes about 10**9 times the requests, and should fail, not stall.
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    connections=st.integers(min_value=1, max_value=12),
    delays=st.lists(st.sampled_from([1_000_000, 1_000_000, 1_000_000, 101_000_000, 2_500_000]), min_size=1, max_size=8),
    duration=st.sampled_from([0.05, 0.2, 0.35]),
    discard_share=st.sampled_from([0.0, 0.0, 0.3, 0.9]),
)
def test_simulated_driver_matches_a_pop_then_push_loop(deadline, connections, delays, duration, discard_share):
    cfg = BenchConfig(duration=duration, connections=connections, discard_first=duration * discard_share)
    runs = []
    for driver in (run_load, heap_pop_push_load):
        background, calls = SerialScheduler(), []
        try:
            with deadline(2.0):
                outcome = driver(scripted_handler(delays, background, calls), cfg, VirtualClock(), background)
        except ValueError as exc:  # every request fell in the discarded window
            outcome = str(exc)
        runs.append((outcome, calls))
    (outcome, calls), (want_outcome, want_calls) = runs
    assert calls == want_calls
    assert outcome == want_outcome


@pytest.mark.parametrize("discard_first, want_records", [
    (0.0, [(0.001, 3), (0.002, 2), (0.001, 1)]),
    (0.0025, [(0.002, 2), (0.001, 1)]),  # the three 1 ms requests start before the cutoff
])
def test_a_run_of_equal_latencies_is_recorded_in_one_call(monkeypatch, discard_first, want_records):
    # One connection whose requests take 1, 1, 1, 2, 2, 1 ms: six requests end at the 8 ms deadline.
    delays = [1_000_000, 1_000_000, 1_000_000, 2_000_000, 2_000_000, 1_000_000]
    cfg = BenchConfig(duration=0.008, connections=1, discard_first=discard_first)
    records, real_record = [], LatencyHistogram.record

    def spy(self, sample, n=1):
        records.append((sample, n))
        real_record(self, sample, n)

    def load(driver):
        calls = itertools.count()

        def handle(path, clock):
            clock.sleep(delays[next(calls)])
            return Response(200, b"x", 0.0, CacheStatus.BYPASS)

        return driver(handle, cfg, VirtualClock(), SerialScheduler())

    monkeypatch.setattr(LatencyHistogram, "record", spy)
    fast = load(run_load)
    assert records == want_records
    records.clear()
    ref = load(heap_pop_push_load)
    assert len(records) == sum(n for _, n in want_records) == fast.total_responses
    assert fast == ref


def run_capturing(driver, target, cfg, clock, background):
    """``driver``'s report or the error it raised, and the histogram its report was built from."""
    hists = []
    real_report = bench._load_report

    def capture(hist, *args):
        hists.append(hist)
        return real_report(hist, *args)

    with mock.patch.object(bench, "_load_report", capture), \
            mock.patch.object(sys.modules[__name__], "_load_report", capture):
        try:
            outcome = driver(target, cfg, clock, background)
        except ValueError as exc:  # every request fell in the discarded window
            outcome = str(exc)
    return outcome, hists[0]


# Weighted toward cached pages whose entries go stale mid-run.
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(  # an ISR entry expires mid-run, its age landing exactly on the ttl
    strategy=Strategy.ISR, ttl=1.0, kv_read_delay=0.0, base_handling=0.125, upstream_delay=0.5,
    cold_start_penalty=0.0, warm=True, cold=False, connections=2, clock_start=0, duration=3.0,
    discard_share=0.0, page="index",
)
@given(
    strategy=st.sampled_from([Strategy.ISR, Strategy.SWR, Strategy.DPR, Strategy.ISR, Strategy.STATIC, Strategy.SSR]),
    ttl=st.one_of(st.floats(min_value=0.05, max_value=0.6), st.none(), st.floats(min_value=0.05, max_value=2.5)),
    kv_read_delay=st.sampled_from([0.0, 0.0003, 0.0021]),
    base_handling=st.sampled_from([0.0007, 0.001, 0.0013]),
    upstream_delay=st.sampled_from([0.0, 0.004, 0.1]),
    cold_start_penalty=st.sampled_from([0.0, 0.05]),
    warm=st.booleans(),
    cold=st.booleans(),
    connections=st.integers(min_value=1, max_value=12),
    clock_start=st.sampled_from([0, 0, 3_700_000_000, 1_000_250_000_000]),
    duration=st.sampled_from([0.8, 0.3, 0.05]),
    discard_share=st.sampled_from([0.0, 0.0, 0.3, 0.9]),
    page=st.sampled_from(["index", "post", "index", "missing", "lost"]),
)
def test_fast_forward_matches_a_loop_that_calls_the_worker_every_time(
    deadline, posts10, build10, strategy, ttl, kv_read_delay, base_handling, upstream_delay, cold_start_penalty,
    warm, cold, connections, clock_start, duration, discard_share, page,
):
    if strategy is Strategy.SWR and ttl is None:
        ttl = 0.2
    path = {
        "index": "/",
        "post": f"/posts/{posts10[1].slug}",
        "missing": "/no/such/page",  # 404
        "lost": f"/posts/{posts10[0].slug}",  # built, but gone from the origin: 502 unless STATIC
    }[page]
    cfg = BenchConfig(duration=duration, connections=connections, target_path=path,
                      discard_first=duration * discard_share)
    config = StrategyConfig(strategy=strategy, ttl=ttl, kv_read_delay=kv_read_delay, base_handling=base_handling,
                            upstream_delay=upstream_delay, cold_start_penalty=cold_start_penalty)
    runs = []
    for driver in (run_load, heap_pop_push_load):
        background, clock = SerialScheduler(), VirtualClock(clock_start)
        worker = EdgeWorker(config, background)
        worker.deploy(build10, posts10[1:])
        if warm:
            worker.handle_request(path, clock)
            background.drain()
        if cold:
            worker.cold_worker()
        with deadline(2.0):
            outcome, hist = run_capturing(driver, worker, cfg, clock, background)
        runs.append((outcome, hist, clock.now()))
    (fast, fast_hist, fast_end), (ref, ref_hist, ref_end) = runs
    assert fast_end == ref_end
    assert (fast_hist.counts, fast_hist.clamped_count, fast_hist.max_value) == (
        ref_hist.counts, ref_hist.clamped_count, ref_hist.max_value)
    if isinstance(ref, str):
        assert fast == ref
        return
    assert (fast.total_responses, fast.error_count, fast.bytes_per_second, fast.percentiles) == (
        ref.total_responses, ref.error_count, ref.bytes_per_second, ref.percentiles)
    assert fast.avg_latency == ref.avg_latency


def test_a_warm_run_answers_hits_without_calling_the_worker(posts10, build10):
    worker = EdgeWorker(StrategyConfig(strategy=Strategy.ISR), SerialScheduler())
    worker.deploy(build10, posts10)
    clock = VirtualClock()
    worker.handle_request("/", clock)
    calls = []
    handle = worker.handle_request
    worker.handle_request = lambda path, clock: calls.append(path) or handle(path, clock)
    report = run_load(worker, BenchConfig(duration=5.0, connections=10), clock)
    assert report.total_responses == 50_000
    assert len(calls) < 10


def ssr_runs(monkeypatch, posts10, build10, path="/", origin=None, warm=True, **overrides):
    """The same SSR run through ``run_load`` and ``heap_pop_push_load``: per driver, its report,
    the index renders and the ``handle_request`` calls it made."""
    renders = []
    render_index = edge.render_index
    monkeypatch.setattr(edge, "render_index", lambda posts: renders.append(1) or render_index(posts))
    runs = []
    for driver in (run_load, heap_pop_push_load):
        background, clock = SerialScheduler(), VirtualClock()
        worker = EdgeWorker(StrategyConfig(strategy=Strategy.SSR, **overrides), background)
        worker.deploy(build10, posts10 if origin is None else origin)
        if warm:
            worker.handle_request(path, clock)
        renders.clear()
        calls = []
        handle = worker.handle_request
        worker.handle_request = lambda path, clock: calls.append(path) or handle(path, clock)
        report = driver(worker, BenchConfig(duration=5.0, connections=10, target_path=path), clock, background)
        runs.append((report, len(renders), len(calls)))
    (fast, fast_renders, fast_calls), (ref, ref_renders, _) = runs
    assert (fast.total_responses, fast.error_count, fast.bytes_per_second, fast.percentiles) == (
        ref.total_responses, ref.error_count, ref.bytes_per_second, ref.percentiles)
    assert fast.avg_latency == ref.avg_latency
    return fast, fast_renders, fast_calls, ref_renders


def test_a_warm_ssr_run_renders_the_index_at_most_once(monkeypatch, posts10, build10):
    report, renders, calls, ref_renders = ssr_runs(monkeypatch, posts10, build10)
    assert report.total_responses == 10 * math.ceil(5.0 / 0.101)
    assert ref_renders == report.total_responses  # the reference renders on every request
    assert renders <= 1 and calls <= 1
    assert report.percentiles[50.0] == pytest.approx(0.101, rel=0.01)


def test_a_cold_ssr_worker_pays_the_penalty_once_then_steps(monkeypatch, posts10, build10):
    report, renders, calls, _ = ssr_runs(monkeypatch, posts10, build10, warm=False, cold_start_penalty=0.5)
    assert renders == calls == 1
    assert report.percentiles[100.0] == pytest.approx(0.001 + 0.5 + 0.1)
    assert report.percentiles[99.0] == pytest.approx(0.101, rel=0.01)


def test_an_ssr_page_the_origin_lost_is_a_502_on_every_request(monkeypatch, posts10, build10):
    lost = f"/posts/{posts10[0].slug}"
    report, _, calls, _ = ssr_runs(monkeypatch, posts10, build10, path=lost, origin=posts10[1:])
    assert report.error_count == report.total_responses == calls > 0


def step_by_step(conn, deadline, cutoff, state, path, hist):
    """The per-request loop ``bench._step_steady`` replaced, kept as its reference: it records into ``hist``."""
    _, step, fresh_until = state
    t = start = conn.now()
    recorded = run = 0
    last = None
    while t < deadline:
        now = t + step
        if fresh_until is not None and now > fresh_until:
            break
        if now <= t:
            raise bench._took_no_time(path)
        if t >= cutoff:
            sample = now - t
            if sample == last:
                run += 1
            else:
                if run:
                    hist.record(last / 1e9, run)
                    recorded += run
                last, run = sample, 1
        t = now
    if run:
        hist.record(last / 1e9, run)
        recorded += run
    conn.sleep(t - start)
    return recorded


class RecordLog(LatencyHistogram):
    """A histogram that logs its ``record`` calls."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def record(self, sample, n=1):
        self.calls.append((sample, n))
        super().record(sample, n)


# Times in ns.
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(  # a ttl that expires mid-run
    clock_start=1_000_250_000_000, duration=30 * 10**9, base=1_000_000, kv=0, age=0, ttl=7_300_000_000,
    discard_share=0.0,
)
@example(  # the cutoff between two request starts
    clock_start=1_999_999_999, duration=5 * 10**9, base=1_000_000, kv=300_000, age=500_000_000, ttl=None,
    discard_share=0.1237,
)
@example(  # a request that starts exactly at the deadline
    clock_start=2 * 10**9, duration=10**9, base=1_000_000, kv=0, age=0, ttl=None, discard_share=0.0,
)
@example(  # stale before the deadline, with a cutoff
    clock_start=3_700_000_000, duration=30 * 10**9, base=1_300_000, kv=2_100_000, age=250_000_000,
    ttl=12 * 10**9, discard_share=0.3,
)
@example(clock_start=0, duration=10**13, base=370_000_000, kv=0, age=0, ttl=None, discard_share=0.9)
@example(clock_start=0, duration=10**9, base=0, kv=0, age=0, ttl=None, discard_share=0.0)  # no time
@given(
    clock_start=st.one_of(
        st.sampled_from([0, 1_999_999_999, 2 * 10**9, 3_700_000_000, 1_000_250_000_000]),
        st.integers(min_value=0, max_value=10**13),
    ),
    duration=st.one_of(
        st.sampled_from([50_000_000, 10**9, 30 * 10**9, 10**13]), st.integers(min_value=10**7, max_value=10**13),
    ),
    base=st.one_of(st.sampled_from([1_000_000, 700_000, 1_300_000, 125_000_000, 0]), st.integers(0, 3_000_000)),
    kv=st.one_of(st.sampled_from([0, 0, 300_000, 2_100_000]), st.integers(0, 3_000_000)),
    age=st.integers(min_value=0, max_value=10**9),
    ttl=st.one_of(st.none(), st.integers(min_value=10**7, max_value=2 * 10**13)),
    discard_share=st.one_of(st.sampled_from([0.0, 0.0, 0.3, 0.9]), st.floats(min_value=0.0, max_value=1.0)),
)
def test_closed_form_steps_match_a_loop_turn_per_request(deadline, clock_start, duration, base, kv, age, ttl,
                                                         discard_share):
    # Long runs get slower requests, so the reference loop makes at most about 40,000 turns.
    if base + kv:
        scale = -(-duration // (40_000 * (base + kv)))
        base, kv = base * scale, kv * scale
    end = clock_start + duration
    cutoff = clock_start + round(duration * discard_share)
    state = (b"x", base + kv, None if ttl is None else clock_start - age + ttl)
    runs, hist = [], RecordLog()
    for step in (bench._step_steady, functools.partial(step_by_step, hist=hist)):
        conn = VirtualClock(clock_start)
        try:
            with deadline(2.0):
                outcome = step(conn, end, cutoff, state, "/")
        except ValueError as exc:
            outcome = str(exc)
        runs.append((outcome, conn.now()))
    assert runs[0] == runs[1]
    # The driver records the closed form's count in one call; the loop recorded the same.
    assert hist.calls == ([(state[1] / 1e9, outcome)] if isinstance(outcome, int) and outcome else [])


@pytest.mark.parametrize("strategy", [Strategy.STATIC, Strategy.ISR])
@pytest.mark.parametrize("base_handling, responses", [(0.001, 10**10), (0.0008, 12_500_000_000)])
def test_a_long_steady_run_is_exact_and_costs_one_jump(worker_factory, deadline, strategy, base_handling, responses):
    worker = worker_factory(strategy, base_handling=base_handling)
    clock = VirtualClock()
    worker.handle_request("/", clock)  # warms the worker and, for ISR, caches the page
    cfg = BenchConfig(duration=1e6, connections=10)
    with deadline(2.0):  # about 10**10 requests: one loop turn each would take hours
        report = run_load(worker, cfg, clock)
    assert report.total_responses == responses
    assert report.percentiles[50.0] == pytest.approx(base_handling, rel=0.01)
    assert report.percentiles[100.0] == base_handling


@pytest.mark.parametrize("strategy", list(Strategy))
def test_a_simulated_run_scales_with_its_times(posts10, build10, strategy):
    """Every delay, ttl, duration and discard_first times k: the same responses, k times the latency sum.

    Times are whole ns, so nothing rounds differently at k; the sum is
    compared in ns, as ``avg_latency`` may differ from k times its value
    in the last place. A fixed cost per request that does not scale breaks it.
    """
    def run(connections, page, cold_ns, discard_ns, k):
        s = lambda ns: ns * k / 1e9
        scheduler = SerialScheduler()
        worker = EdgeWorker(StrategyConfig(
            strategy=strategy, upstream_delay=s(20_000_000), cold_start_penalty=s(cold_ns),
            ttl=s(300_000_000) if strategy in (Strategy.ISR, Strategy.SWR) else None,
            base_handling=s(1_000_000), kv_read_delay=s(500_000),
        ), scheduler)
        worker.deploy(build10, posts10)
        cfg = BenchConfig(duration=s(2_000_000_000), connections=connections, target_path=page,
                          discard_first=s(discard_ns))
        report = run_load(worker, cfg, VirtualClock(), scheduler)
        return report.total_responses, report.error_count, round(report.avg_latency * report.total_responses * 1e9)

    for case in itertools.product((1, 3, 10), ("/", "/posts/post-1"), (0, 50_000_000, 300_000_000), (0, 250_000_000)):
        responses, errors, latency_ns = run(*case, 1)
        for k in (2, 7):
            assert run(*case, k) == (responses, errors, latency_ns * k), (case, k)


@pytest.mark.parametrize("field", ["duration", "discard_first"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_bench_settings_are_rejected(worker_factory, deadline, field, value):
    worker = worker_factory(Strategy.STATIC)
    with deadline(1.0), pytest.raises(ValueError, match=field):
        run_load(worker, BenchConfig(**{field: value}), VirtualClock())


@pytest.mark.parametrize("settings, field", [
    ({"duration": 1e-12}, "duration"),  # positive, but 0 ns
    ({"duration": 1e300}, "duration"),
    ({"duration": 1e13}, "duration"),  # more ns than int64 holds
    ({"duration": 1.0, "discard_first": 1.0 - 1e-12}, "discard_first"),  # shorter, but not by 1 ns
    ({"duration": 10.0, "discard_first": 1e13}, "discard_first"),
])
def test_bench_settings_outside_whole_ns_are_rejected(settings, field):
    with pytest.raises(ValueError, match=field):
        BenchConfig(**settings)


@pytest.mark.parametrize("page", ["/posts/post-1?x=1", "/posts/post-1/", "/posts/post-1#f", "posts/post-1", "/a\tb", "/a\x00"])
def test_a_page_the_server_would_read_differently_is_rejected(worker_factory, page):
    with pytest.raises(ValueError, match="target_path"):
        BenchConfig(target_path=page)
    worker = worker_factory(Strategy.ISR)
    with pytest.raises(ValueError, match="^page "):
        run_audit(worker, page, runs=2, reset=ResetPolicy(purge=False), clock=VirtualClock())


def test_simulated_load_exact_accounting():
    cfg = BenchConfig(duration=10.0, connections=3, target_path="/")
    report = run_load(constant_handler(0.01), cfg, VirtualClock())
    assert report.total_responses == 3 * 1000
    assert report.requests_per_second == report.total_responses / report.duration
    assert report.requests_per_second * report.duration == pytest.approx(
        report.total_responses, rel=0.05
    )
    assert report.percentiles[100.0] == pytest.approx(0.01, abs=1e-12)
    assert report.percentiles[50.0] == pytest.approx(0.01, rel=0.01)
    assert report.error_count == 0
    assert report.bytes_per_second == pytest.approx(512 * 300, rel=0.01)


def test_simulated_request_taking_no_virtual_time_is_rejected(worker_factory, deadline):
    # Such a response would be rescheduled at its own event time forever.
    worker = worker_factory(Strategy.STATIC, base_handling=0.0)
    with deadline(1.0), pytest.raises(ValueError, match="took no virtual time"):
        run_load(worker, BenchConfig(duration=1.0, connections=1), VirtualClock())


def test_a_handler_that_sleeps_seconds_is_rejected(deadline):
    # A float sleep would make the clock float ns, and the run about 10^9 times as long.
    def handler(path, clock):
        clock.sleep(0.001)
        return Response(200, b"ok", 0.001, CacheStatus.BYPASS)

    with deadline(1.0), pytest.raises(ValueError, match="/ advanced the clock by 0.001.*int of ns"):
        run_load(handler, BenchConfig(duration=1.0, connections=2), VirtualClock())


@pytest.mark.parametrize("strategy", [Strategy.ISR, Strategy.DPR])
def test_a_warm_entry_that_takes_no_virtual_time_is_rejected(worker_factory, deadline, strategy):
    worker = worker_factory(strategy, base_handling=0.0, kv_read_delay=0.0)
    worker.handle_request("/", VirtualClock())  # the MISS takes the render delay
    with deadline(1.0), pytest.raises(ValueError, match="took no virtual time"):
        run_load(worker, BenchConfig(duration=1.0, connections=3), VirtualClock())


def test_simulated_load_discard_first():
    cfg = BenchConfig(duration=10.0, connections=2, discard_first=5.0)
    report = run_load(constant_handler(0.01), cfg, VirtualClock())
    assert report.total_responses == pytest.approx(2 * 500, abs=2)
    assert report.duration == pytest.approx(5.0)


def test_simulated_load_counts_error_statuses():
    def handler(path, clock):
        clock.sleep(10_000_000)
        return Response(503, b"overloaded", 0.01, CacheStatus.BYPASS)

    report = run_load(handler, BenchConfig(duration=1.0, connections=1), VirtualClock())
    assert report.error_count == report.total_responses > 0


def test_simulated_load_rejects_url_targets():
    with pytest.raises(ValueError):
        run_load("http://127.0.0.1:1", BenchConfig(duration=1.0), VirtualClock())


@pytest.mark.wallclock
def test_wallclock_load_against_dead_port_is_unreachable(monkeypatch):
    # Each connection gives up at its first refused connect instead of
    # reconnecting for the whole run, and the error says why.
    connects = []
    real_connect = socket.socket.connect_ex

    def counted_connect(sock, address):
        connects.append(address)
        return real_connect(sock, address)

    monkeypatch.setattr(socket.socket, "connect_ex", counted_connect)
    t0 = time.perf_counter()
    with pytest.raises(TargetUnreachableError, match="refused") as raised:
        run_load("http://127.0.0.1:1", BenchConfig(duration=5.0, connections=2))
    assert time.perf_counter() - t0 < 1.0
    assert raised.value.__cause__ is not None
    assert 1 <= len(connects) <= 2 * 2


def test_discard_first_must_be_shorter_than_duration():
    # Discarding the whole run used to surface as an unreachable target.
    with pytest.raises(ValueError, match="discard_first"):
        BenchConfig(duration=1.0, discard_first=1.0)
    with pytest.raises(ValueError, match="discard_first"):
        BenchConfig(duration=1.0, discard_first=2.0)
    assert BenchConfig(duration=1.0, discard_first=0.5).discard_first == 0.5


# ------------------------------------------------------------ target urls


@pytest.mark.parametrize(
    "url, host, port",
    [
        ("http://127.0.0.1:8300", "127.0.0.1", 8300),
        ("http://127.0.0.1:8300/", "127.0.0.1", 8300),
        ("127.0.0.1:8300", "127.0.0.1", 8300),
        ("localhost:8300", "localhost", 8300),
        ("http://localhost", "localhost", 80),
        ("http://localhost:", "localhost", 80),  # an empty port is the default (RFC 3986 section 3.2.3)
        ("http://[::1]:8300", "::1", 8300),
        ("[::1]:8300", "::1", 8300),
    ],
)
def test_target_url_forms(url, host, port):
    from edgelab.httpserve import _host_port

    assert _host_port(url) == (host, port)


@pytest.mark.parametrize(
    "url",
    [
        "http://127.0.0.1:8300/base",
        "http://127.0.0.1:8300/?x=1",
        "https://127.0.0.1:8300",
        "http://127.0.0.1:port",
        "http://:8300",
        "",
        "http://127.0.0.1:0",
        "[::1]:0",
    ],
)
def test_target_url_rejects(url):
    from edgelab.httpserve import _host_port

    with pytest.raises(ValueError):
        _host_port(url)


@pytest.mark.parametrize("url", ["localhost:1", "http://[::1]:1", "[::1]:1"])
def test_audit_of_dead_port_without_scheme_or_on_ipv6_is_unreachable(url):
    with pytest.raises(TargetUnreachableError):
        run_audit(url, "/", runs=2)


def test_base_path_is_rejected_not_dropped():
    with pytest.raises(ValueError, match="path"):
        run_audit("http://127.0.0.1:1/base", "/", runs=2)
    with pytest.raises(ValueError, match="path"):
        run_load("http://127.0.0.1:1/base", BenchConfig(duration=0.4, connections=2))


def test_wallclock_load_in_process_worker(worker_factory):
    # A wall-clock run loads a URL: an in-process worker is served over loopback first.
    worker = worker_factory(Strategy.STATIC, base_handling=0.0)
    for target in (worker, worker.handle_request):
        with pytest.raises(ValueError, match="VariantServer"):
            run_load(target, BenchConfig(duration=0.4, connections=4))


def test_load_drains_background_work(posts10, build10):
    from edgelab.edge import EdgeWorker

    sched = SerialScheduler()
    w = EdgeWorker(
        StrategyConfig(strategy=Strategy.SWR, upstream_delay=0.05, ttl=0.5), sched
    )
    w.deploy(build10, posts10)
    report = run_load(w, BenchConfig(duration=10.0, connections=2), VirtualClock(), sched)
    assert report.total_responses > 0
    assert sched.pending == 0  # revalidations ran inside the loop


# ---------------------------------------------------------------- run_audit


def test_audit_isr_shape(posts10, build10):
    from edgelab.edge import EdgeWorker

    w = EdgeWorker(StrategyConfig(strategy=Strategy.ISR, upstream_delay=0.1))
    w.deploy(build10, posts10)
    rep = run_audit(w, "/", runs=5, reset=ResetPolicy(purge=True), clock=VirtualClock())
    assert rep.cache_statuses == ("MISS", "HIT", "HIT", "HIT", "HIT")
    assert rep.server_time.run_1 >= 0.1
    assert rep.server_time.median_rest < 0.020
    assert rep.runs == 5
    assert len(rep.server_times) == 5


def test_audit_reset_applies_before_run_one_only(posts10, build10):
    from edgelab.edge import EdgeWorker

    w = EdgeWorker(StrategyConfig(strategy=Strategy.ISR, upstream_delay=0.1))
    w.deploy(build10, posts10)
    clock = VirtualClock()
    run_audit(w, "/", runs=5, reset=ResetPolicy(purge=True), clock=clock)
    second = run_audit(w, "/", runs=5, reset=ResetPolicy(purge=False, cold=False), clock=clock)
    assert second.cache_statuses == ("HIT",) * 5


def test_simulated_audit_runs_queued_revalidations(worker_factory):
    # Run 5 finds the entry past its 3 ms ttl and queues a revalidation;
    # draining it after that fetch means run 6 is a HIT again.
    sched = SerialScheduler()
    w = worker_factory(Strategy.SWR, sched, ttl=0.003)
    rep = run_audit(w, "/", runs=8, clock=VirtualClock(), background=sched)
    assert rep.cache_statuses == ("MISS", "HIT", "HIT", "HIT", "STALE", "HIT", "HIT", "HIT")
    assert sched.pending == 0


def test_audit_fcp_exceeds_server_time(posts10, build10):
    from edgelab.edge import EdgeWorker

    w = EdgeWorker(StrategyConfig(strategy=Strategy.STATIC))
    w.deploy(build10, posts10)
    rep = run_audit(w, "/", runs=3, clock=VirtualClock())
    assert rep.fcp_proxy.run_1 > rep.server_time.run_1 + 0.149


def test_audit_needs_at_least_two_runs(posts10, build10):
    from edgelab.edge import EdgeWorker

    w = EdgeWorker(StrategyConfig(strategy=Strategy.STATIC))
    w.deploy(build10, posts10)
    with pytest.raises(ValueError):
        run_audit(w, "/", runs=1, clock=VirtualClock())


def test_audit_of_bare_handler_without_reset():
    handler = constant_handler(0.002)
    rep = run_audit(handler, "/", runs=3, reset=ResetPolicy(purge=False, cold=False), clock=VirtualClock())
    assert rep.server_times == (0.002,) * 3


def test_bare_handler_cannot_purge_or_cold_reset():
    with pytest.raises(TypeError, match="cannot purge"):
        run_audit(constant_handler(0.002), "/", runs=2, clock=VirtualClock())
    with pytest.raises(TypeError, match="cannot reset"):
        apply_reset(constant_handler(0.002), ResetPolicy(purge=False, cold=True))


def test_audit_404_page_is_unreachable(posts10, build10):
    from edgelab.edge import EdgeWorker

    w = EdgeWorker(StrategyConfig(strategy=Strategy.STATIC))
    w.deploy(build10, posts10)
    with pytest.raises(TargetUnreachableError):
        run_audit(w, "/definitely-missing", runs=2, clock=VirtualClock())


# ----------------------------------------------------------------- compare


def _audit_report(page="/"):
    from edgelab.bench import AuditMetric

    metric = AuditMetric(run_1=0.2, median_rest=0.1, average_rest=0.11)
    return AuditReport(
        page=page,
        runs=5,
        server_time=metric,
        fcp_proxy=metric,
        cache_statuses=("MISS", "HIT", "HIT", "HIT", "HIT"),
        server_times=(0.2, 0.1, 0.1, 0.11, 0.1),
    )


def test_compare_audits_three_rows_six_numeric_columns():
    table = audit_table(
        [audit_entry(name, _audit_report()) for name in ("ssr", "isr", "static")]
    )
    assert table.kind == "audit"
    assert len(table.rows) == 3
    assert len(table.headers) == 7  # label + 6 numeric columns
    for row in table.rows:
        for cell in row[1:]:
            float(cell)  # numeric


def test_compare_single_report_is_fine():
    table = audit_table([audit_entry("only", _audit_report())])
    assert len(table.rows) == 1


def test_compare_bench_csv_layout():
    cfg = BenchConfig(duration=1.0, connections=1)
    fast = run_load(constant_handler(0.01), cfg, VirtualClock())
    slow = run_load(constant_handler(0.02), cfg, VirtualClock())
    table = bench_table([bench_entry("fast", fast), bench_entry("slow", slow)])
    csv = table.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "percentile,fast,slow"
    assert len(lines) == 1 + len(PERCENTILE_POINTS)
    assert lines[1].startswith("50,")


def test_markdown_table_is_aligned():
    table = audit_table([audit_entry("a", _audit_report()), audit_entry("b", _audit_report())])
    md_lines = table.to_markdown().strip().split("\n")
    widths = {len(line) for line in md_lines}
    assert len(widths) == 1  # every row padded to the same width
    assert md_lines[0].startswith("| variant")

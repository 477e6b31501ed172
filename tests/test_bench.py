"""Histogram accuracy, load-run accounting, target URLs, audits, comparison tables."""

import itertools
import math
import random
import socket
import statistics
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgelab.bench import (
    HIST_GROWTH,
    HIST_HIGH,
    HIST_LOW,
    PERCENTILE_POINTS,
    AuditReport,
    BenchConfig,
    EmptyHistogramError,
    LatencyHistogram,
    ResetPolicy,
    TargetUnreachableError,
    apply_reset,
    run_audit,
    run_load,
)
from edgelab.clock import SerialScheduler, VirtualClock
from edgelab.edge import CacheStatus, Response, Strategy, StrategyConfig
from edgelab.experiment import audit_entry, audit_table, bench_entry, bench_table


def nearest_rank(sorted_values, p):
    """Nearest-rank oracle: smallest value with at least p% at or below."""
    if p >= 100:
        return sorted_values[-1]
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def constant_handler(latency, body=b"x" * 512):
    def handle(path, clock):
        clock.sleep(latency)
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


def test_merge_equals_single_histogram():
    rng = random.Random(7)
    values = [rng.lognormvariate(-5, 1.5) for _ in range(2000)]
    whole = LatencyHistogram()
    part1, part2 = LatencyHistogram(), LatencyHistogram()
    for i, v in enumerate(values):
        whole.record(v)
        (part1 if i % 2 else part2).record(v)
    part1.merge(part2)
    assert part1.total_count == whole.total_count
    assert part1.percentile(100) == whole.percentile(100)
    for p in PERCENTILE_POINTS:
        assert part1.percentile(p) == whole.percentile(p)


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
    """counts, total, sum, max and clamped count with a bucket lookup for every sample."""
    counts = [0] * len(LatencyHistogram().counts)
    total_sum, maximum, clamped = 0.0, 0.0, 0
    for v in samples:
        in_range = min(max(v, HIST_LOW), HIST_HIGH)
        clamped += in_range != v
        counts[min(LatencyHistogram._bucket_index(in_range), len(counts) - 1)] += 1
        total_sum += v
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
    got = (h.counts, h.total_count, h.sum_value, h.max_value, h.clamped_count)
    assert got == reference_histogram(samples)


# ---------------------------------------------------------------- run_load


def test_simulated_load_exact_accounting():
    cfg = BenchConfig(duration=10.0, connections=3, target_path="/")
    report = run_load(constant_handler(0.01), cfg, VirtualClock())
    # float accumulation can shift the final-request boundary by one
    assert report.total_responses == pytest.approx(3 * 1000, abs=3)
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


def test_simulated_load_discard_first():
    cfg = BenchConfig(duration=10.0, connections=2, discard_first=5.0)
    report = run_load(constant_handler(0.01), cfg, VirtualClock())
    assert report.total_responses == pytest.approx(2 * 500, abs=2)
    assert report.duration == pytest.approx(5.0)


def test_simulated_load_counts_error_statuses():
    def handler(path, clock):
        clock.sleep(0.01)
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
    real_connect = socket.create_connection

    def counted_connect(address, *args, **kwargs):
        connects.append(address)
        return real_connect(address, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", counted_connect)
    t0 = time.perf_counter()
    with pytest.raises(TargetUnreachableError, match="refused") as raised:
        run_load("http://127.0.0.1:1", BenchConfig(duration=5.0, connections=2))
    assert time.perf_counter() - t0 < 1.0
    assert raised.value.__cause__ is not None
    assert 1 <= len(connects) <= 2 * 2


@pytest.mark.wallclock
def test_wallclock_load_errors_inside_discard_window_are_not_counted():
    calls = itertools.count()
    steady = constant_handler(0.001)

    def fails_first(path, clock):
        if next(calls) == 0:
            raise ConnectionResetError("first request fails")
        return steady(path, clock)

    report = run_load(fails_first, BenchConfig(duration=0.4, connections=2, discard_first=0.2))
    assert report.total_responses > 0
    assert report.error_count == 0


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
        ("http://[::1]:8300", "::1", 8300),
        ("[::1]:8300", "::1", 8300),
    ],
)
def test_target_url_forms(url, host, port):
    from edgelab.bench import _host_port

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
    ],
)
def test_target_url_rejects(url):
    from edgelab.bench import _host_port

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


@pytest.mark.wallclock
def test_wallclock_load_in_process_worker(posts10, build10):
    from edgelab.edge import EdgeWorker

    w = EdgeWorker(StrategyConfig(strategy=Strategy.STATIC, base_handling=0.0))
    w.deploy(build10, posts10)
    report = run_load(w, BenchConfig(duration=0.4, connections=4))
    assert report.total_responses > 0
    assert report.error_count == 0
    assert report.requests_per_second * report.duration == pytest.approx(
        report.total_responses, rel=0.05
    )


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
    second = run_audit(w, "/", runs=5, reset=ResetPolicy(purge=False), clock=clock)
    assert second.cache_statuses == ("HIT",) * 5


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
    rep = run_audit(handler, "/", runs=3, reset=ResetPolicy(purge=False), clock=VirtualClock())
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

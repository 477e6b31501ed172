"""Load and audit benchmarks with a log-bucketed latency histogram.

Two protocols are implemented:

* ``run_load``: closed-loop sustained load. N connections each issue
  their next request as soon as the previous response lands, for a
  fixed duration. Latencies go into a histogram; the report carries
  throughput and a fixed percentile set.
* ``run_audit``: k sequential fetches of one page (default 5), with an
  optional cache purge / cold-start reset before run 1 only. Run 1 is
  reported separately from the median and average of runs 2..k, for
  both raw server time and the first-paint proxy.

On the wall clock ``run_load`` takes a base URL: an in-process worker
is served over loopback by ``httpserve.VariantServer`` first
(``experiment.served``), so every wall-clock figure includes the HTTP
path. ``run_audit`` accepts a URL, an in-process worker or a bare
``(path, clock) -> Response`` handler. A URL is reached through
``httpserve``'s load client, one keep-alive connection per load
connection and per audit; every rule of the wire (framing, headers,
admin paths) is written in ``httpserve`` alone. ``run_load`` drives all
of a URL's connections from the calling thread on one selector
(``httpserve._closed_loop``) and records them in one histogram. With a
VirtualClock, ``run_load`` becomes a deterministic event-driven
simulation of an in-process target: each connection gets its own
forked clock and events are processed in timestamp order. Against an
in-process worker, stretches of requests that change no state (STATIC
and SSR answers and fresh HITs on a warm worker, per
``EdgeWorker.steady``) are stepped without calling the worker: virtual
time is whole nanoseconds, every such request takes the same step, and
each connection sleeps in one closed-form step to its first request
that would find the page stale or starts at the deadline. So an SSR run
renders its page once, not once per request, and the figures are those
of calling the worker every time. The requests every connection steps
over at once go to the histogram in one ``record(latency, n)`` call,
and so does each run of consecutive recorded requests that took the
same virtual time; the histogram sums whole ns, so the report is the
one that recording each request gives.

Percentiles are nearest-rank: the smallest recorded value v such that
at least p% of samples are <= v.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import re
import time
from contextlib import closing, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

from .clock import SYSTEM_CLOCK, Clock, SerialScheduler, VirtualClock, to_ns
from .edge import EdgeWorker, Response
from .httpserve import TargetUnreachableError, _closed_loop, _HttpTarget, request_page
from .netmodel import PROFILES, ThrottleProfile, fcp_proxy

PERCENTILE_POINTS = (50.0, 75.0, 90.0, 97.5, 99.0, 99.9, 99.99, 100.0)

# Histogram geometry: low and high trackable bounds (seconds) and the
# per-bucket growth factor. Buckets are geometric; reporting a bucket's
# geometric midpoint bounds the per-sample relative error by
# sqrt(growth) - 1, just under 1% at growth 1.02.
HIST_LOW = 1e-6
HIST_HIGH = 60.0
HIST_GROWTH = 1.02
_LOG_GROWTH = math.log(HIST_GROWTH)
_N_BUCKETS = int(math.ceil(math.log(HIST_HIGH / HIST_LOW) / _LOG_GROWTH)) + 1


# Whitespace and C0/C1 control characters: none may appear in a page path.
_UNSAFE_IN_PAGE = re.compile(r"[\s\x00-\x1f\x7f-\x9f]")


def check_page(name: str, page: str) -> None:
    """Raise ValueError, naming ``name``, unless ``page`` reads the same in and out of process.

    The server reads a request target through ``httpserve.request_page``,
    which drops the query, the fragment and one trailing slash, while an
    in-process worker looks the string up as given. So a page starts
    with one '/', holds no whitespace or control character, and is its
    own ``request_page``.
    """
    if not page.startswith("/") or page.startswith("//") or _UNSAFE_IN_PAGE.search(page):
        raise ValueError(
            f"{name} must be a page path such as /posts/post-1: one leading '/' "
            f"and no whitespace or control character, not {page!r}"
        )
    if (served := request_page(page)) != page:
        raise ValueError(f"{name} {page!r} is not a page path: the server would read it as {served!r}")


class EmptyHistogramError(ValueError):
    """Percentiles are undefined before anything is recorded."""


class LatencyHistogram:
    """Log-bucketed latency histogram over 1 microsecond .. 60 seconds.

    Samples outside the trackable range are clamped and counted in
    ``clamped_count``; in-range samples are reported with at most 1%
    relative error. The observed maximum is tracked exactly, and so is
    the sum, kept as an int of ns (``sum_ns``, each sample rounded to the
    ns): the mean does not depend on the order or grouping of ``record``
    calls.
    """

    def __init__(self) -> None:
        self.counts = [0] * _N_BUCKETS
        self.total_count = 0
        self.max_value = 0.0
        self.sum_ns = 0  # each sample rounded to whole ns, so the sum is exact in any order
        self.clamped_count = 0
        # Running totals of ``counts`` as of ``_cumulative_total`` samples,
        # rebuilt by ``percentile`` only after more samples arrived: a report
        # asks for seven points, and one rebuild costs as much as a bucket
        # scan. Holds while ``record``, which adds to ``total_count``, is the
        # only writer of ``counts``.
        self._cumulative: list[int] = []
        self._cumulative_total = 0

    @staticmethod
    def _bucket_index(value: float) -> int:
        return int(math.log(value / HIST_LOW) / _LOG_GROWTH)

    @staticmethod
    def _bucket_midpoint(index: int) -> float:
        return HIST_LOW * HIST_GROWTH ** (index + 0.5)

    def record(self, sample: float, n: int = 1) -> None:
        """Record ``sample`` ``n`` (>= 1) times."""
        if sample < HIST_LOW or sample > HIST_HIGH:
            self.clamped_count += n
            idx = self._bucket_index(min(max(sample, HIST_LOW), HIST_HIGH))
        else:
            idx = self._bucket_index(sample)
        self.counts[min(idx, _N_BUCKETS - 1)] += n
        self.total_count += n
        self.sum_ns += round(sample * 1e9) * n
        if sample > self.max_value:
            self.max_value = sample

    def percentile(self, p: float) -> float:
        if self.total_count == 0:
            raise EmptyHistogramError("no samples recorded")
        if not 0.0 < p <= 100.0:
            raise ValueError("p must be in (0, 100]")
        if p == 100.0:
            return self.max_value
        if self._cumulative_total != self.total_count:
            self._cumulative = list(itertools.accumulate(self.counts))
            self._cumulative_total = self.total_count
        rank = max(1, math.ceil(p / 100.0 * self.total_count))
        idx = bisect.bisect_left(self._cumulative, rank)
        return min(self._bucket_midpoint(idx), self.max_value)

    @property
    def mean(self) -> float:
        if self.total_count == 0:
            raise EmptyHistogramError("no samples recorded")
        return self.sum_ns / self.total_count / 1e9


@dataclass(frozen=True)
class BenchConfig:
    duration: float = 30.0
    connections: int = 10
    target_path: str = "/"
    # Seconds of initial samples to discard (0 keeps the cold start in
    # the curves, which is the default).
    discard_first: float = 0.0

    def __post_init__(self) -> None:
        # A simulated run counts whole ns: both must convert, and still differ once converted.
        duration, discard_first = to_ns(self.duration, "duration"), to_ns(self.discard_first, "discard_first")
        if duration <= 0:
            raise ValueError(f"duration must be positive, and at least 1 ns once rounded, not {self.duration}")
        if self.connections < 1:
            raise ValueError("connections must be >= 1")
        if self.discard_first < 0:
            raise ValueError("discard_first must be >= 0")
        if discard_first >= duration:
            raise ValueError("discard_first must be shorter than duration, by at least 1 ns once rounded")
        check_page("target_path", self.target_path)


@dataclass(frozen=True)
class BenchReport:
    avg_latency: float
    requests_per_second: float
    bytes_per_second: float
    percentiles: dict[float, float]
    total_responses: int
    error_count: int
    duration: float
    connections: int


@dataclass(frozen=True)
class ResetPolicy:
    """What to reset before run 1 of an audit (and between phases)."""

    purge: bool = True
    cold: bool = True


@dataclass(frozen=True)
class AuditMetric:
    run_1: float
    median_rest: float
    average_rest: float


@dataclass(frozen=True)
class AuditReport:
    page: str
    runs: int
    server_time: AuditMetric
    fcp_proxy: AuditMetric
    cache_statuses: tuple[str, ...]
    server_times: tuple[float, ...] = field(default=())


Target = Union[str, EdgeWorker, Callable[[str, Clock], Response]]


def _open(target: Target):
    """``target`` as a context manager: a URL becomes an ``_HttpTarget`` closed on exit."""
    return closing(_HttpTarget(target)) if isinstance(target, str) else nullcontext(target)


def _fetch(target) -> Callable[[str, Clock], Response]:
    """The request function of an opened target; a bare handler is its own."""
    return getattr(target, "handle_request", target)


def apply_reset(target: Target, reset: ResetPolicy) -> None:
    """Purge and/or cold-reset ``target`` as ``reset`` asks; a bare handler can do neither."""
    with _open(target) as tgt:
        if reset.purge:
            if not hasattr(tgt, "purge_cache"):
                raise TypeError("bare handler target cannot purge; pass an EdgeWorker or URL")
            tgt.purge_cache()
        if reset.cold:
            if not hasattr(tgt, "cold_worker"):
                raise TypeError("bare handler target cannot reset; pass an EdgeWorker or URL")
            tgt.cold_worker()


def run_load(
    target: Target,
    cfg: BenchConfig,
    clock: Clock | None = None,
    background: SerialScheduler | None = None,
) -> BenchReport:
    """Closed-loop load run against ``target`` for ``cfg.duration`` seconds.

    On the wall clock ``target`` is a base URL, loaded over HTTP. With a
    VirtualClock the run is simulated deterministically, and ``target``
    is in-process; ``background`` drains a worker's deferred tasks
    between simulated events so SWR revalidations make progress.
    """
    clock = clock if clock is not None else SYSTEM_CLOCK
    if isinstance(clock, VirtualClock):
        if isinstance(target, str):
            raise ValueError("virtual-clock load runs need an in-process target")
        return _run_load_simulated(target, cfg, clock, background)
    if not isinstance(target, str):
        raise ValueError("wall-clock load runs need a URL: serve an in-process worker with httpserve.VariantServer")
    return _run_load_http(target, cfg)


def _run_load_simulated(
    target: Target,
    cfg: BenchConfig,
    clock: VirtualClock,
    background: SerialScheduler | None,
) -> BenchReport:
    fetch = _fetch(target)
    steady = target.steady if isinstance(target, EdgeWorker) else None
    path = cfg.target_path
    start = clock.now()
    deadline = start + to_ns(cfg.duration, "duration")
    cutoff = start + to_ns(cfg.discard_first, "discard_first")
    hist = LatencyHistogram()
    record = hist.record
    heappop, heapreplace = heapq.heappop, heapq.heapreplace
    conn_clocks = [clock.fork() for _ in range(cfg.connections)]
    heap: list[tuple[int, int]] = [(start, i) for i in range(cfg.connections)]
    heapq.heapify(heap)
    total_bytes = 0
    responses = 0
    errors = 0
    queue = background._queue if background is not None else ()
    latency_ns, latency = -1, 0.0  # the last latency seen, in ns and in seconds
    run = 0  # requests since the last record that took ``latency`` and start at or after the cutoff

    # Invariant: a connection's clock reads its event time t when the event
    # is at the head, because the event was queued at conn.now() (and all
    # start at ``start``); background tasks run on forks, so draining leaves
    # conn where it is. A request must advance conn, or it would be queued
    # again at the same t forever. The head is re-queued in one sift.
    # While requests change no state (``EdgeWorker.steady``: a STATIC or SSR
    # answer or a fresh HIT, nothing queued), their order does not matter:
    # every connection steps on its own up to its first stale request or the
    # deadline, and the heap is rebuilt. Staleness is monotone in the start
    # time, so every request stepped over starts before every one left, and
    # if the head's request is stale no connection steps.
    while heap:
        t, i = heap[0]
        if t >= deadline:
            heappop(heap)
            continue
        if steady is not None and not queue and (state := steady(path)) is not None:
            if run:
                record(latency, run)
                run = 0
            if recorded := sum(_step_steady(conn, deadline, cutoff, state, path) for conn in conn_clocks):
                record(state[1] / 1e9, recorded)
            if conn_clocks[i].now() > t:  # the head's request was fresh, so every fresh one ran
                heap = [(conn.now(), j) for j, conn in enumerate(conn_clocks)]
                heapq.heapify(heap)
                total_bytes += len(state[0]) * recorded
                responses += recorded
                continue
        conn = conn_clocks[i]
        resp = fetch(path, conn)
        now = conn.now()
        if (elapsed := now - t) != latency_ns:
            if type(elapsed) is not int:
                raise ValueError(
                    f"a simulated request to {path} advanced the clock by {elapsed!r}; clock time "
                    "is an int of ns (clock.to_ns converts seconds)"
                )
            if elapsed <= 0:
                raise _took_no_time(path)
            if run:
                record(latency, run)
                run = 0
            latency_ns, latency = elapsed, elapsed / 1e9
        if t >= cutoff:
            run += 1
            total_bytes += len(resp.body)
            responses += 1
            if resp.status >= 400:
                errors += 1
        if queue:
            background.drain()
        heapreplace(heap, (now, i))

    if run:
        record(latency, run)
    clock.sleep(deadline - start)
    return _load_report(hist, total_bytes, responses, errors, cfg.duration - cfg.discard_first, cfg)


def _step_steady(
    conn: VirtualClock,
    deadline: int,
    cutoff: int,
    state: tuple[bytes, int, int | None],
    path: str,
) -> int:
    """Step one connection through requests that change no state; return how many to record.

    ``state`` is what ``EdgeWorker.steady`` returned. Each request takes
    d = ``step`` ns, so from t the j-th starts at t + j * d. The connection
    makes the n requests that start before the deadline and end by
    ``fresh_until``, n = min(ceil((deadline - t) / d), floor((fresh_until
    - t) / d)), counts those that start at or after ``cutoff``, each to be
    recorded as d, and sleeps n * d: to the start of the first request it
    did not make.
    """
    _, d, fresh_until = state
    t = conn.now()
    if t >= deadline or (fresh_until is not None and t + d > fresh_until):
        return 0
    if not d:
        raise _took_no_time(path)
    n = -((t - deadline) // d)  # -(a // b) is ceil(-a / b)
    if fresh_until is not None:
        n = min(n, (fresh_until - t) // d)
    conn.sleep(n * d)
    return max(0, n - max(0, -((t - cutoff) // d)))


def _took_no_time(path: str) -> ValueError:
    return ValueError(
        f"a simulated request to {path} took no virtual time; each one must "
        "advance the clock (is base_handling 0?)"
    )


def _load_report(
    hist: LatencyHistogram,
    total_bytes: int,
    responses: int,
    errors: int,
    measured: float,
    cfg: BenchConfig,
    failure: Exception | None = None,
) -> BenchReport:
    if responses == 0 and failure is not None:
        # Say why the target is dead (refused, timed out, reset), not only that it is.
        raise TargetUnreachableError(str(failure) or type(failure).__name__) from failure
    if responses == 0:
        raise ValueError(f"no request started after discard_first ({cfg.discard_first} s) of the {cfg.duration} s run")
    return BenchReport(
        avg_latency=hist.mean,
        requests_per_second=responses / measured,
        bytes_per_second=total_bytes / measured,
        percentiles={p: hist.percentile(p) for p in PERCENTILE_POINTS},
        total_responses=responses,
        error_count=errors,
        duration=measured,
        connections=cfg.connections,
    )


def _run_load_http(url: str, cfg: BenchConfig) -> BenchReport:
    hist = LatencyHistogram()
    record = hist.record
    total_bytes = responses = errors = 0
    failure: Exception | None = None
    start = time.perf_counter()
    deadline = start + cfg.duration
    cutoff = start + cfg.discard_first
    for sent, done, outcome in _closed_loop(url, cfg.target_path, cfg.connections, deadline):
        if isinstance(outcome, TargetUnreachableError):
            failure = failure or outcome
            errors += sent >= cutoff
        elif sent >= cutoff:
            record(done - sent)
            total_bytes += len(outcome.body)
            responses += 1
            errors += outcome.status >= 400
    elapsed = time.perf_counter() - start
    return _load_report(hist, total_bytes, responses, errors, elapsed - cfg.discard_first, cfg, failure)


def run_audit(
    target: Target,
    page: str = "/",
    profile: ThrottleProfile = PROFILES["mobile-throttled"],
    runs: int = 5,
    reset: ResetPolicy = ResetPolicy(),
    clock: Clock | None = None,
    background: SerialScheduler | None = None,
) -> AuditReport:
    """Sequential k-run audit of one page with a run-1 reset policy, draining ``background`` after each fetch."""
    if runs < 2:
        raise ValueError("audits need at least 2 runs to report a rest-of-runs median")
    check_page("page", page)
    clock = clock if clock is not None else SYSTEM_CLOCK
    server_times: list[float] = []
    fcps: list[float] = []
    statuses: list[str] = []
    with _open(target) as tgt:
        apply_reset(tgt, reset)
        fetch = _fetch(tgt)
        for _ in range(runs):
            resp = fetch(page, clock)
            if resp.status != 200:
                raise TargetUnreachableError(f"audit fetch of {page} returned {resp.status}")
            server_times.append(resp.server_time)
            fcps.append(fcp_proxy(resp, profile))
            statuses.append(resp.cache_status.value)
            if background is not None and background.pending:
                background.drain()

    def metric(values: Sequence[float]) -> AuditMetric:
        # statistics.median and statistics.fmean, as computed on Python 3.11.
        rest = sorted(values[1:])
        mid = len(rest) // 2
        return AuditMetric(
            run_1=values[0],
            median_rest=rest[mid] if len(rest) % 2 else (rest[mid - 1] + rest[mid]) / 2,
            average_rest=math.fsum(rest) / len(rest),
        )

    return AuditReport(
        page=page,
        runs=runs,
        server_time=metric(server_times),
        fcp_proxy=metric(fcps),
        cache_statuses=tuple(statuses),
        server_times=tuple(server_times),
    )

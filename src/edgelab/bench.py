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

Both accept a base URL (wall clock, real sockets), an in-process
worker or a bare ``(path, clock) -> Response`` handler. A URL is reached
through the worker's interface over one keep-alive connection per load
connection and per audit. With a VirtualClock, ``run_load`` becomes a
deterministic event-driven simulation: each connection gets its own
forked clock and events are processed in timestamp order.

Percentiles are nearest-rank: the smallest recorded value v such that
at least p% of samples are <= v.
"""

from __future__ import annotations

import heapq
import json
import math
import socket
import statistics
import threading
import time
import urllib.parse
from contextlib import closing, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

from .clock import SYSTEM_CLOCK, Clock, SerialScheduler, VirtualClock
from .edge import CacheStatus, EdgeWorker, Response
from .httpserve import MAX_LINE, read_headers
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


class EmptyHistogramError(ValueError):
    """Percentiles are undefined before anything is recorded."""


class TargetUnreachableError(RuntimeError):
    """The benchmark target produced no successful response."""


class LatencyHistogram:
    """Log-bucketed latency histogram over 1 microsecond .. 60 seconds.

    Samples outside the trackable range are clamped and counted in
    ``clamped_count``; in-range samples are reported with at most 1%
    relative error. The observed maximum is tracked exactly.
    """

    def __init__(self) -> None:
        self.counts = [0] * _N_BUCKETS
        self.total_count = 0
        self.max_value = 0.0
        self.sum_value = 0.0
        self.clamped_count = 0
        # The last in-range sample and its bucket: simulated latencies
        # repeat, and the log in _bucket_index dominates record's cost.
        # NaN equals nothing, so the memo starts empty.
        self._last_sample = math.nan
        self._last_index = 0

    @staticmethod
    def _bucket_index(value: float) -> int:
        return int(math.log(value / HIST_LOW) / _LOG_GROWTH)

    @staticmethod
    def _bucket_midpoint(index: int) -> float:
        return HIST_LOW * HIST_GROWTH ** (index + 0.5)

    def record(self, sample: float) -> None:
        if sample == self._last_sample:
            idx = self._last_index
        elif sample < HIST_LOW or sample > HIST_HIGH:
            self.clamped_count += 1
            idx = min(self._bucket_index(min(max(sample, HIST_LOW), HIST_HIGH)), _N_BUCKETS - 1)
        else:
            idx = min(self._bucket_index(sample), _N_BUCKETS - 1)
            self._last_sample = sample
            self._last_index = idx
        self.counts[idx] += 1
        self.total_count += 1
        self.sum_value += sample
        if sample > self.max_value:
            self.max_value = sample

    def percentile(self, p: float) -> float:
        if self.total_count == 0:
            raise EmptyHistogramError("no samples recorded")
        if not 0.0 < p <= 100.0:
            raise ValueError("p must be in (0, 100]")
        if p == 100.0:
            return self.max_value
        rank = max(1, math.ceil(p / 100.0 * self.total_count))
        seen = 0
        for idx, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                return min(self._bucket_midpoint(idx), self.max_value)
        return self.max_value

    @property
    def mean(self) -> float:
        if self.total_count == 0:
            raise EmptyHistogramError("no samples recorded")
        return self.sum_value / self.total_count

    def merge(self, other: "LatencyHistogram") -> None:
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.total_count += other.total_count
        self.sum_value += other.sum_value
        self.clamped_count += other.clamped_count
        if other.max_value > self.max_value:
            self.max_value = other.max_value


@dataclass(frozen=True)
class BenchConfig:
    duration: float = 30.0
    connections: int = 10
    target_path: str = "/"
    # Seconds of initial samples to discard (0 keeps the cold start in
    # the curves, which is the default).
    discard_first: float = 0.0

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.connections < 1:
            raise ValueError("connections must be >= 1")
        if self.discard_first < 0:
            raise ValueError("discard_first must be >= 0")
        if self.discard_first >= self.duration:
            raise ValueError("discard_first must be shorter than duration")


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
    cold: bool = False


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


def _host_port(url: str) -> tuple[str, int]:
    """Host and port of a variant's base URL: ``http://host:port``, ``host:port`` or ``[::1]:port``.

    A variant is served at the root, so a base path is rejected rather
    than silently dropped.
    """
    split = urllib.parse.urlsplit(url if "//" in url else f"//{url}")
    try:
        port = split.port or 80
    except ValueError as exc:
        raise ValueError(f"unsupported target url: {url}: {exc}") from exc
    if split.scheme not in ("http", "") or not split.hostname:
        raise ValueError(f"unsupported target url: {url}")
    if split.path not in ("", "/") or split.query or split.fragment:
        raise ValueError(f"target url must not carry a path or query: {url}")
    return split.hostname, port


class _HttpTarget:
    """A served variant behind the worker's interface, over one keep-alive connection.

    The socket opens on the first request and is kept until ``close``, a
    ``Connection: close`` or an HTTP/1.0 response. A response must be
    framed by ``content-length``. A request that fails on a reused
    connection (the server may have closed it while idle) is retried once
    on a fresh one, which RFC 9112 section 9.3.1 allows because GET and
    both admin POSTs are idempotent in effect; a failure on a fresh
    connection means the target is unreachable. Server time comes from the
    x-server-time-us response header so the client's own overhead does not
    pollute the server-side metric.
    """

    def __init__(self, base_url: str):
        self._address = host, port = _host_port(base_url)
        self._head_tail = f" HTTP/1.1\r\nHost: {f'[{host}]' if ':' in host else host}:{port}\r\n"
        self._sock: socket.socket | None = None
        self._rfile = None

    def close(self) -> None:
        if self._sock is not None:
            self._rfile.close()
            self._sock.close()
            self._sock = self._rfile = None

    def _request(self, method: str, path: str) -> tuple[int, dict[str, str], bytes]:
        reused = self._sock is not None
        try:
            if not reused:
                self._sock = socket.create_connection(self._address, timeout=30)
                self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._rfile = self._sock.makefile("rb")
            framing = "Content-Length: 0\r\n" if method == "POST" else ""
            self._sock.sendall(f"{method} {path}{self._head_tail}{framing}\r\n".encode())
            status_line = self._rfile.readline(MAX_LINE + 1)
            if not status_line:
                raise ConnectionError("connection closed before the response")
            version, status, *_ = status_line.split(None, 2)
            if not version.startswith(b"HTTP/1."):
                raise ValueError(f"not an HTTP/1.x response: {status_line[:64]!r}")
            headers = read_headers(self._rfile)
            length = headers.get("content-length", "")
            if "transfer-encoding" in headers or not length.isdigit():
                raise ValueError("response not framed by content-length")
            body = self._rfile.read(int(length))
            if len(body) != int(length):
                raise ConnectionError(f"response body cut short at {len(body)} of {length} bytes")
            if version == b"HTTP/1.0" or headers.get("connection", "").lower() == "close":
                self.close()
            return int(status), headers, body
        except (OSError, ValueError) as exc:
            self.close()
            if reused:
                return self._request(method, path)
            raise TargetUnreachableError(f"{self._address[0]}:{self._address[1]} unreachable: {exc}") from exc

    def handle_request(self, path: str, clock: Clock) -> Response:
        t0 = clock.now()
        status, headers, body = self._request("GET", path)
        server_us = headers.get("x-server-time-us")
        server_time = int(server_us) / 1e6 if server_us is not None else clock.now() - t0
        cache_status = CacheStatus(headers.get("x-edge-cache", "BYPASS"))
        return Response(status, body, server_time, cache_status)

    def purge_cache(self) -> int:
        status, _, body = self._request("POST", "/__admin/purge")
        if status != 200:
            raise TargetUnreachableError(f"purge failed with status {status}")
        return int(json.loads(body)["removed"])

    def cold_worker(self) -> None:
        status, _, _ = self._request("POST", "/__admin/cold")
        if status != 200:
            raise TargetUnreachableError(f"cold reset failed with status {status}")


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

    With a VirtualClock the run is simulated deterministically (target
    must then be in-process). ``background`` drains a worker's deferred
    tasks between simulated events so SWR revalidations make progress.
    """
    clock = clock if clock is not None else SYSTEM_CLOCK
    if isinstance(clock, VirtualClock):
        if isinstance(target, str):
            raise ValueError("virtual-clock load runs need an in-process target")
        return _run_load_simulated(target, cfg, clock, background)
    return _run_load_threads(target, cfg)


def _run_load_simulated(
    target: Target,
    cfg: BenchConfig,
    clock: VirtualClock,
    background: SerialScheduler | None,
) -> BenchReport:
    fetch = _fetch(target)
    path = cfg.target_path
    start = clock.now()
    deadline = start + cfg.duration
    cutoff = start + cfg.discard_first
    hist = LatencyHistogram()
    record = hist.record
    heappop, heappush = heapq.heappop, heapq.heappush
    conn_clocks = [clock.fork() for _ in range(cfg.connections)]
    heap: list[tuple[float, int]] = [(start, i) for i in range(cfg.connections)]
    heapq.heapify(heap)
    total_bytes = 0
    responses = 0
    errors = 0
    queue = background._queue if background is not None else ()

    # Invariant: a connection's clock reads its event time t when the event
    # pops, because the event was pushed at conn.now() (and all start at
    # ``start``); background tasks run on forks, so draining leaves conn
    # where it is. A request must advance conn, or it would be pushed back
    # at the same t forever.
    while heap:
        t, i = heappop(heap)
        if t >= deadline:
            continue
        conn = conn_clocks[i]
        resp = fetch(path, conn)
        now = conn.now()
        if now <= t:
            raise ValueError(
                f"a simulated request to {path} took no virtual time; each one must "
                "advance the clock (is base_handling 0?)"
            )
        if t >= cutoff:
            record(now - t)
            total_bytes += len(resp.body)
            responses += 1
            if resp.status >= 400:
                errors += 1
        if queue:
            background.drain()
        heappush(heap, (now, i))

    clock.jump_to(deadline)
    return _load_report(hist, total_bytes, responses, errors, cfg.duration - cfg.discard_first, cfg)


def _load_report(
    hist: LatencyHistogram,
    total_bytes: int,
    responses: int,
    errors: int,
    measured: float,
    cfg: BenchConfig,
) -> BenchReport:
    if responses == 0:
        raise TargetUnreachableError("no successful responses from target within the run")
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


def _run_load_threads(target: Target, cfg: BenchConfig) -> BenchReport:
    results: list[tuple[LatencyHistogram, int, int, int]] = []
    failures: list[Exception] = []
    results_lock = threading.Lock()
    # One target per connection, opened here so a bad URL raises in the caller.
    opened = [_open(target) for _ in range(cfg.connections)]
    start = time.perf_counter()
    deadline = start + cfg.duration
    cutoff = start + cfg.discard_first

    def connection_loop(conn) -> None:
        hist = LatencyHistogram()
        nbytes = 0
        count = 0
        errors = 0
        with conn as tgt:
            fetch = _fetch(tgt)
            while (t0 := time.perf_counter()) < deadline:
                try:
                    resp = fetch(cfg.target_path, SYSTEM_CLOCK)
                except Exception as exc:
                    # A connection ends at its first failure, so a dead target fails fast.
                    if t0 >= cutoff:
                        errors += 1
                    with results_lock:
                        failures.append(exc)
                    break
                latency = time.perf_counter() - t0
                if t0 >= cutoff:
                    hist.record(latency)
                    nbytes += len(resp.body)
                    count += 1
                    if resp.status >= 400:
                        errors += 1
        with results_lock:
            results.append((hist, nbytes, count, errors))

    threads = [threading.Thread(target=connection_loop, args=(conn,)) for conn in opened]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start

    merged = LatencyHistogram()
    total_bytes = 0
    responses = 0
    errors = 0
    for hist, nbytes, count, errs in results:
        merged.merge(hist)
        total_bytes += nbytes
        responses += count
        errors += errs
    if responses == 0 and failures:
        # Say why the target is dead (refused, timed out, reset), not only that it is.
        raise TargetUnreachableError(str(failures[0]) or type(failures[0]).__name__) from failures[0]
    return _load_report(merged, total_bytes, responses, errors, elapsed - cfg.discard_first, cfg)


def run_audit(
    target: Target,
    page: str = "/",
    profile: ThrottleProfile = PROFILES["mobile-throttled"],
    runs: int = 5,
    reset: ResetPolicy = ResetPolicy(),
    clock: Clock | None = None,
) -> AuditReport:
    """Sequential k-run audit of one page with a run-1 reset policy."""
    if runs < 2:
        raise ValueError("audits need at least 2 runs to report a rest-of-runs median")
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

    def metric(values: Sequence[float]) -> AuditMetric:
        rest = values[1:]
        return AuditMetric(
            run_1=values[0],
            median_rest=statistics.median(rest),
            average_rest=statistics.fmean(rest),
        )

    return AuditReport(
        page=page,
        runs=runs,
        server_time=metric(server_times),
        fcp_proxy=metric(fcps),
        cache_statuses=tuple(statuses),
        server_times=tuple(server_times),
    )

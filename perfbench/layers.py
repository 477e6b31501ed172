"""Per-layer tracing for the benchmark, installed on edgelab from outside.

``Tracer`` keeps, for every span name, the call count, total time and self
time (total minus the time covered by direct child spans) of every call.
Full spans (name, start, end, parent, request id) are kept only for a
deterministic sample: the first ``KEEP_FIRST`` and every ``KEEP_EVERY``-th
request per thread, with everything nested inside them, plus the same
sample of spans that run outside any request.

``instrument`` wraps edgelab's public functions by patching each attribute
where its caller looks it up (``edgelab.edge.render_post`` for on-demand
renders, ``edgelab.ssg.render_post`` for site builds, class attributes for
methods), so nothing under ``src/`` changes. ``layer_metrics`` turns the
collected stats into the per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from pathlib import Path
from time import perf_counter_ns

KEEP_FIRST = 8
KEEP_EVERY = 1000

STRATEGIES = ("static", "ssr", "isr", "swr", "dpr")
CACHE_STATUSES = ("hit", "miss", "stale", "bypass")
CLOCK_METHODS = ("now", "sleep", "fork", "jump_to")


class _Frame:
    __slots__ = ("name", "start", "child", "span_id", "parent_id", "request_id", "keep")


class _ThreadState:
    def __init__(self, ident: int):
        self.ident = ident
        self.stack: list[_Frame] = []
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.counts: dict[str, int] = {}
        self.seq: dict[str, int] = {}
        self.spans: list[tuple] = []


class Tracer:
    """Span and counter collection; hot paths touch only thread-local state."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object, bool]] = []
        self.maxima: dict[str, int] = {}

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = _ThreadState(threading.get_ident())
            self._local.state = st
            with self._states_lock:
                self._states.append(st)
            return st

    def enter(self, name: str, request: bool = False) -> _Frame:
        st = self._state()
        stack = st.stack
        parent = stack[-1] if stack else None
        f = _Frame()
        f.name = name
        f.child = 0
        f.span_id = next(self._ids)
        if parent is not None and parent.request_id:
            f.parent_id = parent.span_id
            f.request_id = parent.request_id
            f.keep = parent.keep
        else:
            f.parent_id = parent.span_id if parent is not None else 0
            n = st.seq.get(name, 0)
            st.seq[name] = n + 1
            f.keep = n < KEEP_FIRST or n % KEEP_EVERY == 0
            f.request_id = f.span_id if request else 0
        stack.append(f)
        f.start = perf_counter_ns()
        return f

    def exit(self, f: _Frame) -> None:
        end = perf_counter_ns()
        st = self._state()
        stack = st.stack
        while stack and stack.pop() is not f:
            pass  # a frame left open by an exception in a wrapped call
        dur = end - f.start
        s = st.stats.get(f.name)
        if s is None:
            s = st.stats[f.name] = [0, 0, 0]
        s[0] += 1
        s[1] += dur
        s[2] += dur - f.child
        if stack:
            stack[-1].child += dur
        if f.keep:
            st.spans.append((f.name, f.start, end, f.span_id, f.parent_id, f.request_id, st.ident))

    def count(self, name: str, n: int = 1) -> None:
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + n

    def observe_max(self, name: str, value: int) -> None:
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    def span(self, fn, name: str, request: bool = False):
        """``fn`` wrapped so each call is a span called ``name``."""
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            f = enter(name, request)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(f)

        return wrapper

    def patch(self, owner: object, attr: str, new: object) -> None:
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, getattr(owner, attr), had_own))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._patches:
            owner, attr, old, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    def merged(self) -> tuple[dict[str, list[int]], dict[str, int]]:
        stats: dict[str, list[int]] = {}
        counts: dict[str, int] = {}
        with self._states_lock:
            for st in self._states:
                # list() copies in one step, so server threads still winding
                # down cannot resize a dict under the loop.
                for name, (calls, total, self_ns) in list(st.stats.items()):
                    acc = stats.setdefault(name, [0, 0, 0])
                    acc[0] += calls
                    acc[1] += total
                    acc[2] += self_ns
                for name, n in list(st.counts.items()):
                    counts[name] = counts.get(name, 0) + n
        return stats, counts

    def spans_kept(self) -> int:
        with self._states_lock:
            return sum(len(st.spans) for st in self._states)

    def write_spans(self, path: Path) -> None:
        """One JSON object per kept span, one per line."""
        keys = ("name", "start_ns", "end_ns", "span_id", "parent_id", "request_id", "thread")
        with self._states_lock, open(path, "w") as fh:
            for st in self._states:
                for span in st.spans:
                    fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def instrument(tracer: Tracer) -> None:
    """Wrap every traced edgelab function and method; undo with ``tracer.restore()``."""
    import edgelab.bench as bench
    import edgelab.cli as cli
    import edgelab.clock as clockmod
    import edgelab.config as config
    import edgelab.content as content
    import edgelab.edge as edge
    import edgelab.experiment as experiment
    import edgelab.httpserve as httpserve
    import edgelab.ssg as ssg

    patch, span, count = tracer.patch, tracer.span, tracer.count

    def everywhere(modules, attr: str, name: str) -> None:
        wrapped = span(getattr(modules[0], attr), name)
        for mod in modules:
            patch(mod, attr, wrapped)

    # content
    everywhere((content, experiment, cli), "generate_posts", "content.generate_posts")
    everywhere((content,), "make_post", "content.make_post")
    everywhere((content, ssg), "content_digest", "content.content_digest")

    # ssg: site builds and on-demand renders share span names; renders the
    # edge worker makes are also counted as ``ssg.renders``.
    everywhere((ssg, experiment, cli), "build_site", "ssg.build_site")

    orig_rebuild = ssg.incremental_rebuild

    def incremental_rebuild(*args, **kwargs):
        result = orig_rebuild(*args, **kwargs)
        count("ssg.pages_rebuilt", len(result[1]))
        return result

    patch(ssg, "incremental_rebuild", span(incremental_rebuild, "ssg.incremental_rebuild"))
    for fn_name in ("render_post", "render_index"):
        patch(ssg, fn_name, span(getattr(ssg, fn_name), f"ssg.{fn_name}"))
        orig_render = getattr(edge, fn_name)

        def on_demand(*args, _orig=orig_render, **kwargs):
            count("ssg.renders")
            return _orig(*args, **kwargs)

        patch(edge, fn_name, span(on_demand, f"ssg.{fn_name}"))

    # edge: one span name per strategy, and the cache status of each response
    orig_handle = edge.EdgeWorker.handle_request
    span_names = {s: f"edge.handle_request.{s.value.lower()}" for s in edge.Strategy}
    status_names = {c: f"edge.cache.{c.value.lower()}" for c in edge.CacheStatus}
    enter, exit_ = tracer.enter, tracer.exit

    def handle_request(self, path, *args, **kwargs):
        f = enter(span_names[self.config.strategy], True)
        try:
            resp = orig_handle(self, path, *args, **kwargs)
        finally:
            exit_(f)
        count(status_names[resp.cache_status])
        if self.config.strategy is edge.Strategy.SSR and resp.status == 200:
            count("edge.ssr_renders")
        return resp

    patch(edge.EdgeWorker, "handle_request", handle_request)
    patch(edge.EdgeWorker, "deploy", span(edge.EdgeWorker.deploy, "edge.deploy"))

    # clock: background drains are spans; clock calls are only counted
    orig_drain = clockmod.SerialScheduler.drain

    def drain(self):
        ran = orig_drain(self)
        if ran:
            count("clock.revalidations", ran)
        return ran

    patch(clockmod.SerialScheduler, "drain", span(drain, "clock.SerialScheduler.drain"))
    for cls in (clockmod.VirtualClock, clockmod.SystemClock):
        for method in CLOCK_METHODS:
            if not hasattr(cls, method):
                continue

            def counted(*args, _orig=getattr(cls, method), _name=f"clock.{method}", **kwargs):
                count(_name)
                return _orig(*args, **kwargs)

            patch(cls, method, counted)

    # bench
    hist = bench.LatencyHistogram
    patch(hist, "record", span(hist.record, "bench.LatencyHistogram.record"))
    patch(hist, "percentile", span(hist.percentile, "bench.LatencyHistogram.percentile"))
    orig_run_load = bench.run_load

    def run_load(target, cfg, clock=None, background=None):
        kind = "sim" if isinstance(clock, clockmod.VirtualClock) else "http"
        f = enter(f"bench.run_load.{kind}")
        try:
            report = orig_run_load(target, cfg, clock, background)
        finally:
            exit_(f)
        count(f"bench.run_load.{kind}.requests", report.total_responses)
        if kind == "http":
            count("bench.run_load.http.latency_ns", int(report.avg_latency * 1e9) * report.total_responses)
        return report

    for mod in (bench, experiment, cli):
        patch(mod, "run_load", run_load)
    everywhere((bench, experiment, cli), "run_audit", "bench.run_audit")

    # httpserve: the server span runs from request parsing to the flushed
    # response, so time spent blocked on the next keep-alive request is out.
    handler = httpserve._VariantHandler
    orig_one, orig_parse = handler.handle_one_request, handler.parse_request

    def parse_request(self):
        self._perfbench_frame = enter("httpserve.handle_one_request", True)
        tracer.observe_max("httpserve.threads_peak", threading.active_count())
        return orig_parse(self)

    def handle_one_request(self):
        self._perfbench_frame = None
        try:
            return orig_one(self)
        finally:
            if self._perfbench_frame is not None:
                exit_(self._perfbench_frame)

    patch(handler, "parse_request", parse_request)
    patch(handler, "handle_one_request", handle_one_request)

    # experiment and config
    everywhere((experiment,), "build_summary", "experiment.build_summary")
    everywhere((experiment, cli), "write_reports", "experiment.write_reports")
    everywhere((cli,), "run_experiment", "experiment.run_experiment")
    everywhere((cli,), "preset", "config.preset")
    patch(config.ExperimentConfig, "digest", span(config.ExperimentConfig.digest, "config.digest"))
    patch(cli, "main", span(cli.main, "cli.main"))


# Per-layer metrics: (name, unit). Times are means per call unless the name
# says per request; counts are per traced pass.
METRICS = (
    ("content.generate_posts.ms", "ms"),
    ("content.make_post.calls", "count"),
    ("content.make_post.self_us", "us"),
    ("content.content_digest.self_ms", "ms"),
    ("ssg.build_site.ms", "ms"),
    ("ssg.incremental_rebuild.self_ms", "ms"),
    ("ssg.pages_rebuilt", "count"),
    ("ssg.render_post.us", "us"),
    ("ssg.render_index.us", "us"),
    ("ssg.renders", "count"),
    *((f"edge.handle_request.{s}.self_us", "us") for s in STRATEGIES),
    *((f"edge.cache.{c}", "count") for c in CACHE_STATUSES),
    ("edge.hit_ratio", "ratio"),
    ("edge.hit_ratio.base", "count"),
    ("edge.deploy.us", "us"),
    ("clock.SerialScheduler.drain.self_us", "us"),
    ("clock.revalidations", "count"),
    ("clock.calls_per_request", "count"),
    *((f"clock.{m}.calls_per_request", "count") for m in CLOCK_METHODS),
    ("bench.LatencyHistogram.record.ns", "ns"),
    ("bench.LatencyHistogram.record.calls", "count"),
    ("bench.LatencyHistogram.percentile.us", "us"),
    ("bench.run_load.sim_self_us_per_req", "us"),
    ("bench.run_load.http_client_us_per_req", "us"),
    ("bench.run_audit.ms", "ms"),
    ("httpserve.handle_one_request.self_us", "us"),
    ("httpserve.threads_peak", "count"),
    ("experiment.build_summary.ms", "ms"),
    ("experiment.write_reports.ms", "ms"),
    ("config.preset_and_digest.ms", "ms"),
    ("process.cpu_us_per_req", "us"),
    ("process.cpu_util", "cores"),
    ("process.ctx_switches_per_req", "count"),
    ("trace.req_per_s_untraced", "1/s"),
    ("trace.req_per_s_traced", "1/s"),
    ("trace.overhead_pct", "%"),
    ("trace.passes", "count"),
    ("trace.spans_kept", "count"),
)


def layer_metrics(
    tracer: Tracer,
    before_passes: tuple[dict, dict],
    passes: int,
    extra: dict[str, float],
) -> dict[str, float]:
    """Derive every metric in ``METRICS``; a layer the workload never calls reads 0.

    Times per call cover everything traced, set-up included. Counts per pass
    cover only what ran after ``before_passes``, a ``tracer.merged()``
    snapshot taken when the traced set-ups were done. ``extra`` supplies the
    ``process.*`` and ``trace.*`` values, which come from the workload
    rather than from spans.
    """
    stats, all_counts = tracer.merged()
    base_stats, base_counts = before_passes
    counts = {n: c - base_counts.get(n, 0) for n, c in all_counts.items()}

    def calls(name: str) -> int:
        return stats.get(name, (0, 0, 0))[0] - base_stats.get(name, (0, 0, 0))[0]

    def mean(name: str, scale: float, self_time: bool = False) -> float:
        c, total, self_ns = stats.get(name, (0, 0, 0))
        return (self_ns if self_time else total) / c / scale if c else 0.0

    def per_pass(n: float) -> float:
        return n / passes

    def ms_per_pass(*names: str) -> float:
        total = sum(stats.get(n, (0, 0, 0))[1] - base_stats.get(n, (0, 0, 0))[1] for n in names)
        return total / 1e6 / passes

    requests = sum(calls(f"edge.handle_request.{s}") for s in STRATEGIES)
    cache = {c: counts.get(f"edge.cache.{c}", 0) for c in CACHE_STATUSES}
    lookups = cache["hit"] + cache["miss"] + cache["stale"]
    sim_requests = counts.get("bench.run_load.sim.requests", 0)
    http_requests = counts.get("bench.run_load.http.requests", 0)
    server = stats.get("httpserve.handle_one_request", (0, 0, 0))
    clock_calls = {m: counts.get(f"clock.{m}", 0) for m in CLOCK_METHODS}

    m = {
        "content.generate_posts.ms": mean("content.generate_posts", 1e6),
        "content.make_post.calls": per_pass(calls("content.make_post")),
        "content.make_post.self_us": mean("content.make_post", 1e3, True),
        "content.content_digest.self_ms": mean("content.content_digest", 1e6, True),
        "ssg.build_site.ms": mean("ssg.build_site", 1e6),
        "ssg.incremental_rebuild.self_ms": mean("ssg.incremental_rebuild", 1e6, True),
        "ssg.pages_rebuilt": per_pass(counts.get("ssg.pages_rebuilt", 0)),
        "ssg.render_post.us": mean("ssg.render_post", 1e3),
        "ssg.render_index.us": mean("ssg.render_index", 1e3),
        "ssg.renders": per_pass(counts.get("ssg.renders", 0)),
        "edge.hit_ratio": cache["hit"] / lookups if lookups else 0.0,
        "edge.hit_ratio.base": per_pass(lookups),
        "edge.deploy.us": mean("edge.deploy", 1e3),
        "clock.SerialScheduler.drain.self_us": mean("clock.SerialScheduler.drain", 1e3, True),
        "clock.revalidations": per_pass(counts.get("clock.revalidations", 0)),
        "clock.calls_per_request": sum(clock_calls.values()) / requests if requests else 0.0,
        "bench.LatencyHistogram.record.ns": mean("bench.LatencyHistogram.record", 1.0),
        "bench.LatencyHistogram.record.calls": per_pass(calls("bench.LatencyHistogram.record")),
        "bench.LatencyHistogram.percentile.us": mean("bench.LatencyHistogram.percentile", 1e3),
        "bench.run_load.sim_self_us_per_req": (
            stats.get("bench.run_load.sim", (0, 0, 0))[2] / 1e3 / sim_requests if sim_requests else 0.0
        ),
        "bench.run_load.http_client_us_per_req": (
            (counts.get("bench.run_load.http.latency_ns", 0) / http_requests - server[1] / server[0]) / 1e3
            if http_requests and server[0] else 0.0
        ),
        "bench.run_audit.ms": mean("bench.run_audit", 1e6),
        "httpserve.handle_one_request.self_us": mean("httpserve.handle_one_request", 1e3, True),
        "httpserve.threads_peak": float(tracer.maxima.get("httpserve.threads_peak", 0)),
        "experiment.build_summary.ms": mean("experiment.build_summary", 1e6),
        "experiment.write_reports.ms": mean("experiment.write_reports", 1e6),
        "config.preset_and_digest.ms": ms_per_pass("config.preset", "config.digest"),
        "trace.passes": float(passes),
        "trace.spans_kept": float(tracer.spans_kept()),
    }
    for s in STRATEGIES:
        m[f"edge.handle_request.{s}.self_us"] = mean(f"edge.handle_request.{s}", 1e3, True)
    for c in CACHE_STATUSES:
        m[f"edge.cache.{c}"] = per_pass(cache[c])
    for meth, n in clock_calls.items():
        m[f"clock.{meth}.calls_per_request"] = n / requests if requests else 0.0
    m.update(extra)
    missing = {name for name, _ in METRICS} ^ set(m)
    if missing:
        raise KeyError(f"per-layer metrics out of step with METRICS: {sorted(missing)}")
    return m


def renders_balance(tracer: Tracer) -> tuple[int, int]:
    """(on-demand renders, misses + revalidations + SSR renders) over the traced phase."""
    _, counts = tracer.merged()
    expected = (
        counts.get("edge.cache.miss", 0)
        + counts.get("clock.revalidations", 0)
        + counts.get("edge.ssr_renders", 0)
    )
    return counts.get("ssg.renders", 0), expected

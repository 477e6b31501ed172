"""The three benchmark workloads, driven through edgelab's public API.

Each workload has ``setup()`` (timed, repeated for ``setup_s``),
``run_pass()`` (one fixed unit of work, timed for the end-to-end metrics)
and ``close()``. Correctness checks run inside the passes and collect into
``failures``; a run is correct only if that list stays empty.

* ``sim-experiment``: ``edgelab experiment --deterministic --preset all-five``
  through ``edgelab.cli.main``. Pure CPU in the edge worker, the simulated
  load loop, the histogram and the virtual clock.
* ``loopback-static``: ``run_load`` over real sockets against an in-process
  ``VariantServer`` (STATIC, no simulated handling cost). Isolates the HTTP
  server and the HTTP load client.
* ``sim-churn``: ISR, SWR and DPR workers under a skewed page mix while
  posts are edited, rebuilt incrementally and redeployed between epochs.
  Misses, stale serves, revalidations and rebuilds sit beside hits.
"""

from __future__ import annotations

import contextlib
import http.client
import io
import json
import math
import random
import shutil
import statistics
import tempfile
from array import array
from pathlib import Path
from time import perf_counter, perf_counter_ns

import edgelab.bench as bench
import edgelab.cli as cli
import edgelab.config as config
import edgelab.content as content
import edgelab.edge as edge
import edgelab.httpserve as httpserve
import edgelab.ssg as ssg
from edgelab.clock import SerialScheduler, VirtualClock

POST_COUNT = 100
MAX_FAILURE_MESSAGES = 20


def nearest_rank(values, p: float) -> float:
    """Smallest value with at least ``p`` percent of ``values`` at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * p / 100)) - 1]


class Workload:
    name = ""
    connections = 0
    sockets = False
    # Report times scaled to the reference task's nominal speed (see run.py).
    # Only for single-threaded CPU-bound workloads: the reference does not
    # track loopback HTTP (tried: it left the spread of requests/s as it was
    # and widened that of latency).
    normalized = True
    wall_meaning = ""
    latency_meaning = ""

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.tracer = None  # set while a traced phase runs
        self.failures: list[str] = []
        self.failure_count = 0

    def fail(self, message: str) -> None:
        self.failure_count += 1
        if len(self.failures) < MAX_FAILURE_MESSAGES:
            self.failures.append(message)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.fail(message)

    def _site(self):
        posts = content.generate_posts(self.seed, POST_COUNT)
        return posts, ssg.build_site(posts, built_at=0.0)

    def setup(self) -> float:
        raise NotImplementedError

    def run_pass(self) -> dict:
        """One unit of work: ``requests``, ``errors``, ``wall_s``, latencies."""
        raise NotImplementedError

    def pass_wall_s(self, p: dict) -> float:
        return p["wall_s"]

    def latency_ms(self, passes: list[dict]) -> tuple[float, float, int]:
        """(p50, p99, sample count): medians of the per-request percentiles of each pass."""
        return (
            statistics.median(p["lat_p50_ms"] for p in passes),
            statistics.median(p["lat_p99_ms"] for p in passes),
            sum(p["requests"] for p in passes),
        )

    def close(self) -> None:
        pass

    def load_model(self) -> dict:
        return {
            "loop": "closed",
            "connections": self.connections,
            "connections_kind": "real sockets" if self.sockets else "simulated",
        }


class SimExperiment(Workload):
    name = "sim-experiment"
    connections = config.preset("all-five").bench.connections  # per variant
    # Simulated seconds of load per variant; the default is 30. Shorter
    # experiments let the reference timings around each one follow the
    # machine's speed: with 30 s (7 s of wall time each) the scaled spread
    # stayed at 24% on the reference box.
    load_seconds = 5
    wall_meaning = (f"wall seconds of one `edgelab experiment --deterministic --preset all-five"
                    f" --duration {load_seconds}`")
    latency_meaning = "per experiment command (p50: median, p99: nearest rank over the run's passes)"

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        self.outputs: dict[str, bytes] | None = None

    def setup(self) -> float:
        variants = config.preset("all-five").variants
        t0 = perf_counter()
        posts, build = self._site()
        for variant in variants:
            edge.EdgeWorker(variant.config, SerialScheduler()).deploy(build, posts)
        return perf_counter() - t0

    def run_pass(self) -> dict:
        out = Path(tempfile.mkdtemp(prefix="experiment-", dir=self.scratch))
        argv = ["experiment", "--deterministic", "--preset", "all-five", "--duration", str(self.load_seconds),
                "--seed", str(self.seed), "--out", str(out)]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = perf_counter()
                code = cli.main(argv)
                wall = perf_counter() - t0
            outputs = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        finally:
            shutil.rmtree(out)
        self.check(code == 0, f"edgelab experiment exited {code}")
        if "summary.json" not in outputs:
            self.fail("experiment wrote no summary.json")
            return {"requests": 0, "errors": 0, "wall_s": wall}
        if self.outputs is None:
            self.outputs = outputs
        else:
            for name in sorted(set(outputs) | set(self.outputs)):
                self.check(outputs.get(name) == self.outputs.get(name),
                           f"{name} differs between repeats of the same seed")
        summary = json.loads(outputs["summary.json"])
        self._check_summary(summary)
        requests = sum(b["total_responses"] for b in summary["bench"])
        requests += sum(a["runs"] for a in summary["audits"])
        errors = sum(b["error_count"] for b in summary["bench"])
        return {"requests": requests, "errors": errors, "wall_s": wall}

    def latency_ms(self, passes: list[dict]) -> tuple[float, float, int]:
        # The request a user waits on here is the experiment command itself.
        walls_ms = [p["wall_s"] * 1000.0 for p in passes]
        return statistics.median(walls_ms), nearest_rank(walls_ms, 99), len(walls_ms)

    def _check_summary(self, summary: dict) -> None:
        cfg = summary["config"]
        duration, connections = cfg["bench"]["duration"], cfg["bench"]["connections"]
        variants = {v["name"]: v for v in cfg["variants"]}
        benches = {b["variant"]: b for b in summary["bench"]}
        for name, b in benches.items():
            self.check(b["error_count"] == 0, f"{name}: {b['error_count']} errors")
        static = variants["static"]
        expected = round(connections * duration / static["base_handling"])
        got = benches["static"]["total_responses"]
        self.check(got == expected, f"static made {got} responses, expected {expected}")
        ssr = variants["ssr"]
        want_ms = (ssr["base_handling"] + ssr["upstream_delay"]) * 1000.0
        p50 = benches["ssr"]["percentiles_ms"]["50"]
        self.check(abs(p50 - want_ms) <= 0.01 * want_ms,
                   f"ssr p50 {p50} ms is not within 1% of {want_ms} ms")
        cached = {n for n, v in variants.items() if v["strategy"] in ("ISR", "SWR", "DPR")}
        for audit in summary["audits"]:
            if audit["label"].split()[0] in cached:
                want = ["MISS"] + ["HIT"] * (audit["runs"] - 1)
                self.check(audit["cache_statuses"] == want,
                           f"audit {audit['label']} read {audit['cache_statuses']}, want {want}")


class LoopbackStatic(Workload):
    name = "loopback-static"
    connections = 2  # no more client threads than this machine's 2 cores
    sockets = True
    normalized = False
    segment_s = 2.0
    pass_requests = 10_000
    wall_meaning = f"wall seconds per {pass_requests:,} HTTP requests"
    latency_meaning = "client-observed per HTTP request (median over 2 s load segments)"

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        self.server: httpserve.VariantServer | None = None
        self.page: bytes = b""

    def setup(self) -> float:
        if self.server is not None:
            self.server.stop()
        t0 = perf_counter()
        posts, build = self._site()
        worker = edge.EdgeWorker(edge.StrategyConfig(edge.Strategy.STATIC, base_handling=0.0))
        worker.deploy(build, posts)
        server = httpserve.VariantServer(worker)
        server.start()
        elapsed = perf_counter() - t0
        self.server, self.page = server, build.pages[ssg.INDEX_PATH].body
        self._check_one_response()
        return elapsed

    def _check_one_response(self) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.server.port, timeout=10)
        try:
            conn.request("GET", ssg.INDEX_PATH)
            resp = conn.getresponse()
            body = resp.read()
        finally:
            conn.close()
        self.check(resp.status == 200 and body == self.page,
                   f"GET / returned {resp.status} with {len(body)} bytes, not the built index page")
        self.check(resp.getheader("x-edge-cache") == "BYPASS",
                   f"x-edge-cache is {resp.getheader('x-edge-cache')!r}, want BYPASS")

    def run_pass(self) -> dict:
        cfg = bench.BenchConfig(duration=self.segment_s, connections=self.connections,
                                target_path=ssg.INDEX_PATH)
        t0 = perf_counter()
        rep = bench.run_load(self.server.url, cfg)
        wall = perf_counter() - t0
        self.check(rep.error_count == 0, f"{rep.error_count} HTTP errors")
        size = rep.bytes_per_second / rep.requests_per_second
        self.check(abs(size - len(self.page)) <= 1e-6 * len(self.page),
                   f"bytes/s over rps is {size}, not the page length {len(self.page)}")
        self.check(abs(rep.requests_per_second * wall - rep.total_responses) <= 0.05 * rep.total_responses,
                   f"{rep.requests_per_second:.1f} rps x {wall:.3f} s is not {rep.total_responses} within 5%")
        return {
            "requests": rep.total_responses,
            "errors": rep.error_count,
            "wall_s": wall,
            "lat_p50_ms": rep.percentiles[50.0] * 1000.0,
            "lat_p99_ms": rep.percentiles[99.0] * 1000.0,
            "rps": rep.requests_per_second,
        }

    def pass_wall_s(self, p: dict) -> float:
        return self.pass_requests / p["rps"]

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


class SimChurn(Workload):
    name = "sim-churn"
    connections = 2  # per worker, simulated
    epochs = 30
    epoch_s = 2.0  # simulated seconds of load per worker per epoch
    edits_per_epoch = 3
    picks_len = 1 << 16
    wall_meaning = f"wall seconds of one churn pass ({epochs} epochs x 3 workers)"
    latency_meaning = "wall time of each simulated request's handle_request call (median over passes)"

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        rng = random.Random(seed)
        paths = [ssg.INDEX_PATH] + [f"{ssg.POST_PATH_PREFIX}post-{i}" for i in range(POST_COUNT)]
        rng.shuffle(paths)  # the shuffled order is the popularity rank
        cum, total = [], 0.0
        for rank in range(1, len(paths) + 1):
            total += 1.0 / rank
            cum.append(total)
        self.picks = rng.choices(paths, cum_weights=cum, k=self.picks_len)
        self.edits = [rng.sample(range(POST_COUNT), self.edits_per_epoch) for _ in range(self.epochs)]
        self.configs = {
            "isr": edge.StrategyConfig(edge.Strategy.ISR, ttl=1.0),
            "swr": edge.StrategyConfig(edge.Strategy.SWR, ttl=1.0),
            "dpr": edge.StrategyConfig(edge.Strategy.DPR),
        }
        self.fingerprint: list | None = None

    def setup(self) -> float:
        t0 = perf_counter()
        posts, build = self._site()
        for cfg in self.configs.values():
            edge.EdgeWorker(cfg, SerialScheduler()).deploy(build, posts)
        elapsed = perf_counter() - t0
        self.posts, self.build = posts, build
        return elapsed

    def run_pass(self) -> dict:
        lat = array("q")
        cursor = [0]
        fingerprint = []
        requests = errors = 0
        t0 = perf_counter()
        posts, build = list(self.posts), self.build
        bodies = {build.deploy_id: {p: page.body for p, page in build.pages.items()}}
        workers = {}
        for name, cfg in self.configs.items():
            scheduler = SerialScheduler()
            worker = edge.EdgeWorker(cfg, scheduler)
            worker.deploy(build, posts)
            workers[name] = (worker, VirtualClock(), scheduler)
        load = bench.BenchConfig(duration=self.epoch_s, connections=self.connections)
        for epoch in range(self.epochs):
            if epoch:
                for post_id in self.edits[epoch]:
                    posts[post_id] = content.make_post(self.seed + 7919 * epoch, post_id)
                build, _ = ssg.incremental_rebuild(build, posts, built_at=float(epoch))
                bodies[build.deploy_id] = {p: page.body for p, page in build.pages.items()}
                for worker, _, _ in workers.values():
                    worker.deploy(build, posts)
            for name, (worker, clock, scheduler) in workers.items():
                target = self._target(worker, name == "dpr", build.deploy_id, bodies, cursor, lat)
                rep = bench.run_load(target, load, clock, scheduler)
                requests += rep.total_responses
                errors += rep.error_count
                fingerprint.append((rep.total_responses, round(rep.bytes_per_second * rep.duration)))
        wall = perf_counter() - t0
        if self.fingerprint is None:
            self.fingerprint = fingerprint
        else:
            self.check(fingerprint == self.fingerprint, "churn passes of the same seed differ")
        ordered = sorted(lat)
        return {
            "requests": requests,
            "errors": errors,
            "wall_s": wall,
            "lat_p50_ms": nearest_rank(ordered, 50.0) / 1e6,
            "lat_p99_ms": nearest_rank(ordered, 99.0) / 1e6,
        }

    def _target(self, worker, is_dpr: bool, live_deploy: int, bodies: dict, cursor: list, lat: array):
        picks, mask = self.picks, self.picks_len - 1
        handle, record = worker.handle_request, lat.append
        fail = self.fail

        def fetch(_path, clock):
            i = cursor[0]
            cursor[0] = i + 1
            path = picks[i & mask]
            t0 = perf_counter_ns()
            resp = handle(path, clock)
            record(perf_counter_ns() - t0)
            deploy_id = resp.deploy_id
            if resp.status != 200:
                fail(f"{path}: status {resp.status}")
            elif resp.body != bodies[deploy_id][path]:
                fail(f"{path}: body differs from deploy {deploy_id}'s page")
            elif is_dpr and deploy_id != live_deploy:
                fail(f"dpr {path}: served deploy {deploy_id} while deploy {live_deploy} was live")
            return resp

        if self.tracer is not None:
            # Keeps this benchmark-side work out of run_load's self time.
            return self.tracer.span(fetch, "perfbench.churn_target")
        return fetch


WORKLOADS = {w.name: w for w in (SimExperiment, LoopbackStatic, SimChurn)}

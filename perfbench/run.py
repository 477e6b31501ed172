"""edgelab benchmark: end-to-end metrics per workload, or per-layer metrics when traced.

    python3 perfbench/run.py                       # every workload, untraced
    python3 perfbench/run.py --trace 1             # every workload, traced
    python3 perfbench/run.py --workload sim-churn --seed 7 --seconds 30 --trace 0

Run from the repository root or anywhere else: the program is imported from
``src/`` next to this directory, never from an installed copy. With no
``--workload`` each workload runs in a fresh interpreter and the command
exits non-zero if any correctness check fails. With ``--workload`` the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
machine, the load model, and every metric with its unit and sample count.
Results and sampled spans are written under ``perfbench/results/``.

Workloads, metrics and the layer-to-metric map are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_REPEATS = 3
TRACED_SETUPS = 3
MIN_PASSES = 2
UNTRACED_SHARE = 1 / 3  # of --seconds, spent untraced first in a traced run

# Bounded end-to-end metrics. latency_p99_ms is printed and saved with
# them but not bounded: on the reference box its run-to-run spread on
# loopback-static reached 45%.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("req_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
REPORTED = END_TO_END + (("latency_p99_ms", "ms"),)

# The reference task's time on the reference box (2 vCPUs, Python 3.11.7)
# at its usual speed. That box's CPU speed drifts by up to 1.6x over
# minutes, so set-up times, and all times of workloads marked
# ``normalized``, are reported scaled by
# REFERENCE_NOMINAL_S / (the reference task's time around each sample).
REFERENCE_NOMINAL_S = 0.005


def _reference_task() -> int:
    d: dict[int, int] = {}
    acc = 0
    for i in range(20_000):
        k = i & 255
        d[k] = d.get(k, 0) + i
        acc += len(str(i))
    return acc


def reference_s() -> float:
    """Best of three timings of a fixed pure-Python task: the machine's current speed."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        _reference_task()
        best = min(best, perf_counter() - t0)
    return best


def import_edgelab() -> None:
    """Put this checkout's ``src/`` first on the path; exit if it is missing."""
    package = SRC / "edgelab"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no edgelab sources at {package}")
    sys.path.insert(0, str(SRC))
    import edgelab

    if Path(edgelab.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported edgelab from {edgelab.__file__}, not {package}")


def machine() -> dict:
    sha = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            sha = proc.stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
    }


def run_passes(wl, budget_s: float, min_passes: int,
               setups: list[tuple[float, float]] | None = None) -> list[dict]:
    """Passes until ``budget_s`` is spent, each with ``ref_s``, the reference
    task's time around it. With ``setups``, a timed set-up runs before each
    pass and is appended as (seconds, ref_s)."""
    passes: list[dict] = []
    t0 = perf_counter()
    ref = reference_s()
    while len(passes) < min_passes or perf_counter() - t0 < budget_s:
        setup = wl.setup() if setups is not None else None
        p = wl.run_pass()
        after = reference_s()
        p["ref_s"] = (ref + after) / 2
        p.setdefault("rps", p["requests"] / p["wall_s"])
        if setup is not None:
            setups.append((setup, p["ref_s"]))
        passes.append(p)
        ref = after
    return passes


def _scaled(p: dict, k: float) -> dict:
    q = dict(p, wall_s=p["wall_s"] * k, rps=p["rps"] / k)
    for key in ("lat_p50_ms", "lat_p99_ms"):
        if key in p:
            q[key] = p[key] * k
    return q


def end_to_end(wl, setups: list[tuple[float, float]], passes: list[dict]) -> dict[str, tuple[float, int, float]]:
    """metric -> (value, sample count, raw value); value is raw unless ``wl.normalized``."""

    def aggregate(setup_s: list[float], ps: list[dict]) -> dict[str, tuple[float, int]]:
        p50, p99, lat_n = wl.latency_ms(ps)
        return {
            "setup_s": (statistics.median(setup_s), len(setup_s)),
            "wall_s": (statistics.median(wl.pass_wall_s(p) for p in ps), len(ps)),
            "req_per_s": (statistics.median(p["rps"] for p in ps), len(ps)),
            "latency_p50_ms": (p50, lat_n),
            "latency_p99_ms": (p99, lat_n),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        }

    raw = aggregate([s for s, _ in setups], passes)
    # Set-up is single-threaded CPU work on every workload, so it is always scaled.
    scaled = aggregate(
        [s * REFERENCE_NOMINAL_S / ref for s, ref in setups],
        [_scaled(p, REFERENCE_NOMINAL_S / p["ref_s"]) if wl.normalized else p for p in passes],
    )
    scaled["peak_rss_mb"] = raw["peak_rss_mb"]
    return {name: (v, n, raw[name][0]) for name, (v, n) in scaled.items()}


def traced_phase(wl, args, layers) -> tuple[list[dict], dict[str, float]]:
    """Untraced passes, then traced ones; returns all passes and the per-layer metrics."""
    r0, t0 = resource.getrusage(resource.RUSAGE_SELF), perf_counter()
    untraced = run_passes(wl, args.seconds * UNTRACED_SHARE, 1)
    r1, t1 = resource.getrusage(resource.RUSAGE_SELF), perf_counter()
    tracer = layers.Tracer()
    layers.instrument(tracer)
    wl.tracer = tracer
    try:
        for _ in range(TRACED_SETUPS):
            wl.setup()
        before_passes = tracer.merged()
        traced = run_passes(wl, args.seconds - (perf_counter() - t0), 1)
    finally:
        tracer.restore()
        wl.tracer = None
    wl.close()  # server threads finish before the per-thread data is merged
    renders, expected = layers.renders_balance(tracer)
    wl.check(renders == expected,
             f"{renders} on-demand renders, but misses + revalidations + SSR renders = {expected}")

    requests = sum(p["requests"] for p in untraced)
    cpu = (r1.ru_utime + r1.ru_stime) - (r0.ru_utime + r0.ru_stime)
    switches = (r1.ru_nvcsw + r1.ru_nivcsw) - (r0.ru_nvcsw + r0.ru_nivcsw)
    u_rps = statistics.median(p["rps"] for p in untraced)
    t_rps = statistics.median(p["rps"] for p in traced)
    extra = {
        "process.cpu_us_per_req": cpu * 1e6 / requests,
        "process.cpu_util": cpu / (t1 - t0),
        "process.ctx_switches_per_req": switches / requests,
        "trace.req_per_s_untraced": u_rps,
        "trace.req_per_s_traced": t_rps,
        "trace.overhead_pct": (u_rps - t_rps) / u_rps * 100.0,
    }
    metrics = layers.layer_metrics(tracer, before_passes, len(traced), extra)
    spans_path = RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    return untraced + traced, metrics


def run_workload(args) -> int:
    import_edgelab()
    import layers
    import workloads

    RESULTS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS))
    wl = workloads.WORKLOADS[args.workload](args.seed, scratch)
    try:
        ref = reference_s()
        setup_s = [wl.setup() for _ in range(SETUP_REPEATS)]
        ref = (ref + reference_s()) / 2
        setups = [(s, ref) for s in setup_s]
        if args.trace:
            passes, layer_values = traced_phase(wl, args, layers)
            metrics = {name: (layer_values[name], unit, None, None) for name, unit in layers.METRICS}
        else:
            # Set-ups spread over the run sample the same machine state as the passes.
            passes = run_passes(wl, args.seconds, MIN_PASSES, setups)
            values = end_to_end(wl, setups, passes)
            metrics = {name: (values[name][0], unit, values[name][1], values[name][2])
                       for name, unit in REPORTED}
    finally:
        wl.close()
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(p["requests"] for p in passes)
    failed = sum(p["errors"] for p in passes)
    correct = wl.failure_count == 0 and failed == 0 and attempted > 0
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "load_model": wl.load_model(),
        "passes": len(passes),
        "wall_s_means": wl.wall_meaning,
        "latency_means": wl.latency_meaning,
        "error_ratio": failed / attempted if attempted else None,
        "check_failures": wl.failure_count,
        "check_failure_messages": wl.failures,
    }
    m, lm = info["machine"], info["load_model"]
    refs = [p["ref_s"] for p in passes]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"machine: nproc={m['nproc']} python={m['python']} git={m['git_sha']} src={m['src_sha256']}"
          f" reference_task={statistics.median(refs) * 1e3:.3f} ms (nominal {REFERENCE_NOMINAL_S * 1e3:g})")
    print(f"load model: {lm['loop']} loop, {lm['connections']} connections, {lm['connections_kind']}")
    print(f"wall_s = {wl.wall_meaning}; latency = {wl.latency_meaning}")
    if not args.trace:
        scaled = "all times" if wl.normalized else "setup_s"
        print(f"{scaled} scaled to the reference task's nominal speed; raw = as timed")
    print(f"{'metric':<42} {'value':>16} {'unit':<6} {'samples':>8} {'raw':>16}")
    for name, (value, unit, samples, raw) in metrics.items():
        extra = "" if samples is None else f" {samples:>8} {raw:>16.6f}"
        bounded = "" if args.trace or name in dict(END_TO_END) else "  (not bounded)"
        print(f"{name:<42} {value:>16.6f} {unit:<6}{extra}{bounded}")
    print(f"{'error_ratio':<42} {info['error_ratio'] if attempted else float('nan'):>16.6f} "
          f"{'ratio':<6} {attempted:>8} ({failed} failed)")
    print(f"checks: {'all passed' if wl.failure_count == 0 else f'{wl.failure_count} failed'}")
    for message in wl.failures:
        print(f"  FAIL {message}")

    reported = layers.METRICS if args.trace else END_TO_END
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in reported},
    }
    detail = dict(
        info,
        reference_task_s=refs,
        metrics={n: {"value": v, "unit": u, "samples": s, "raw": raw} for n, (v, u, s, raw) in metrics.items()},
        result=result,
    )
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh interpreter; non-zero exit if any is incorrect."""
    import_edgelab()
    import workloads

    ok, results = True, {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]) + "\n", flush=True)
        sys.stderr.write(proc.stderr)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})")
            ok = False
            continue
        ok = ok and proc.returncode == 0 and results[name]["correct"]
    print(f"overall: {'correct' if ok else 'FAILED'}")
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", "sim-experiment", "loopback-static", "sim-churn"))
    parser.add_argument("--seed", type=int, default=42, help="workload seed (default 42)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

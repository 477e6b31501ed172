"""Experiment orchestration and report files."""

import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import pytest

from edgelab import cli, ssg
from edgelab.bench import BenchConfig, run_audit, run_load
from edgelab.config import preset
from edgelab.content import Post, make_post
from edgelab.experiment import (
    make_site,
    page_label,
    run_experiment,
    served,
    write_reports,
)


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    cfg = preset("core-three")
    cfg = replace(cfg, bench=replace(cfg.bench, duration=5.0))
    out = tmp_path_factory.mktemp("exp")
    return run_experiment(cfg, deterministic=True, out_dir=out), out, cfg


def test_page_label():
    assert page_label("/") == "index"
    assert page_label("/posts/post-0") == "post-0"
    assert page_label("/posts/post-0/") == "post-0"


def test_one_audit_per_variant_page_pair(result):
    res, _, cfg = result
    assert len(res.audits) == len(cfg.variants) * len(cfg.audit.pages)
    labels = [label for label, _ in res.audits]
    assert labels[0] == "static index"
    assert labels[1] == "static post-0"
    assert len(res.benches) == len(cfg.variants)


def test_files_written(result):
    res, out, _ = result
    for name in ("audit.md", "audit.csv", "percentiles.csv", "summary.json"):
        assert res.files[name].exists()
        assert res.files[name].read_text().strip()


def test_summary_is_self_describing(result):
    res, _, cfg = result
    s = res.summary
    assert s["tool"] == "edgelab"
    assert s["seed"] == cfg.seed
    assert s["config_digest"] == cfg.digest()
    assert s["deterministic"] is True
    assert s["version"]
    assert s["config"] == cfg.to_dict()


def test_percentile_csv_has_one_column_per_variant(result):
    res, out, cfg = result
    header = (out / "percentiles.csv").read_text().splitlines()[0]
    assert header == "percentile," + ",".join(v.name for v in cfg.variants)


def test_write_reports_is_idempotent(result, tmp_path):
    res, out, _ = result
    files = write_reports(json.loads((out / "summary.json").read_text()), tmp_path)
    for name, path in files.items():
        assert path.read_bytes() == (out / name).read_bytes()


def test_every_exported_name_resolves():
    import edgelab

    missing = [name for name in edgelab.__all__ if not hasattr(edgelab, name)]
    assert missing == []


def test_benchmark_tracer_fits_the_package(posts10):
    """perfbench/layers.py patches names across edgelab; each must still exist."""
    import edgelab.experiment as experiment
    import edgelab.ssg as ssg

    path = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    original = ssg.build_site
    tracer = layers.Tracer()
    try:
        layers.instrument(tracer)
        experiment.build_site(posts10, built_at=0.0)
        ssg.incremental_rebuild(ssg.build_site(posts10, built_at=0.0), posts10, built_at=1.0)
    finally:
        tracer.restore()
    stats, counts = tracer.merged()
    # Fresh builds are not incremental rebuilds: only the unchanged rebuild is counted.
    assert stats["ssg.build_site"][0] == 2
    assert stats["ssg.incremental_rebuild"][0] == 1
    assert counts.get("ssg.pages_rebuilt", 0) == 0
    assert ssg.build_site is original


def test_a_deterministic_experiment_draws_only_the_post_body_it_reads(spy, monkeypatch, tmp_path, capsys):
    # Every audit and load run reads "/" or "/posts/post-0": of the 100
    # posts, only post-0's body is drawn, once, and only its page renders.
    drawn = spy(Post.body, "make")
    argv = ["experiment", "--deterministic", "--preset", "all-five", "--duration", "5", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    monkeypatch.undo()
    assert drawn == [make_post(42, 0).body]


@pytest.mark.wallclock
def test_a_wall_clock_run_times_no_draw_or_render(spy):
    # make_site reads a wall-clock build whole, so the timed requests that
    # follow draw no post body and render no page of the build.
    cfg = preset("all-five")
    build = make_site(cfg)
    drawn = spy(Post.body, "make")
    rendered = spy(ssg, "render_post")
    # STATIC serves the build's pages; ISR renders its own from the build's posts.
    for variant in (v for v in cfg.variants if v.name in ("static", "isr")):
        with served(variant, build) as (target, clock, _):
            for page in ("/", "/posts/post-7"):
                assert run_audit(target, page, runs=2, clock=clock).runs == 2
                load = run_load(target, BenchConfig(duration=0.2, connections=2, target_path=page), clock)
                assert load.total_responses > 0 and load.error_count == 0
    assert (drawn, rendered) == ([], [])


# The all-five deterministic experiment at 2 s of load. c10 only compares
# two runs of one build, so these figures are what catches a speed-up of
# the request path that also moves a number. They change only with a
# deliberate change of the simulated behaviour.
_BASE_PCTS = {"50": 0.993482, "75": 0.993482, "90": 0.993482, "97.5": 0.993482,
              "99": 0.993482, "99.9": 0.993482, "99.99": 0.993482}
PINNED_BENCH = {
    "static": (20000, 1.0, {**_BASE_PCTS, "100": 1.0}),
    "ssr": (200, 101.0, {**dict.fromkeys(_BASE_PCTS, 100.230496), "100": 101.0}),
    "isr": (19900, 1.005025, {**_BASE_PCTS, "100": 101.0}),
    "swr": (19900, 1.005025, {**_BASE_PCTS, "100": 101.0}),
    "dpr": (19900, 1.005025, {**_BASE_PCTS, "100": 101.0}),
}
_BYPASS = ("BYPASS",) * 5
_MISS_THEN_HITS = ("MISS", "HIT", "HIT", "HIT", "HIT")
PINNED_AUDITS = {
    "static": (_BYPASS, {"run_1": 1.0, "median_rest": 1.0, "average_rest": 1.0}),
    "ssr": (_BYPASS, {"run_1": 101.0, "median_rest": 101.0, "average_rest": 101.0}),
    "isr": (_MISS_THEN_HITS, {"run_1": 101.0, "median_rest": 1.0, "average_rest": 1.0}),
    "swr": (_MISS_THEN_HITS, {"run_1": 101.0, "median_rest": 1.0, "average_rest": 1.0}),
    "dpr": (_MISS_THEN_HITS, {"run_1": 101.0, "median_rest": 1.0, "average_rest": 1.0}),
}


def test_all_five_deterministic_figures_are_pinned():
    cfg = preset("all-five")
    cfg = replace(cfg, bench=replace(cfg.bench, duration=2.0))
    summary = run_experiment(cfg, deterministic=True).summary
    bench = {
        b["variant"]: (b["total_responses"], b["avg_latency_ms"], b["percentiles_ms"])
        for b in summary["bench"]
    }
    assert bench == PINNED_BENCH
    audits = [(a["label"], tuple(a["cache_statuses"]), a["server_time_ms"]) for a in summary["audits"]]
    expected = [
        (f"{variant} {page}", *PINNED_AUDITS[variant])
        for variant in PINNED_AUDITS
        for page in ("index", "post-0")
    ]
    assert audits == expected

"""CLI commands and exit codes."""

import argparse
import functools
import json
import math
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from pathlib import Path
from types import SimpleNamespace

import pytest

from edgelab import cli, experiment
from edgelab.bench import ResetPolicy
from edgelab.cli import main
from edgelab.config import ExperimentConfig, load


def write_config(path: Path, **overrides) -> Path:
    from edgelab.config import preset

    data = preset("core-three").to_dict()
    data.update(overrides)
    path.write_text(json.dumps(data))
    return path


def test_build_fresh_writes_101_files(tmp_path, capsys):
    assert main(["build", "--out", str(tmp_path / "site")]) == 0
    out = capsys.readouterr().out
    assert "wrote 101 files" in out
    assert (tmp_path / "site" / "index.html").exists()
    assert (tmp_path / "site" / "posts" / "post-99" / "index.html").exists()
    manifest = json.loads((tmp_path / "site" / "build-manifest.json").read_text())
    assert manifest["deploy_id"] == 1
    assert len(manifest["pages"]) == 101
    assert manifest["seed"] == 42


def test_build_unchanged_reports_zero_rebuilt(tmp_path, capsys):
    site = str(tmp_path / "site")
    main(["build", "--out", site])
    capsys.readouterr()
    assert main(["build", "--out", site]) == 0
    out = capsys.readouterr().out
    assert "deploy 2" in out
    assert "changed since deploy 1: 0 page(s)" in out


def test_build_new_seed_rebuilds_everything(tmp_path, capsys):
    site = str(tmp_path / "site")
    main(["build", "--out", site])
    capsys.readouterr()
    main(["build", "--out", site, "--seed", "43"])
    out = capsys.readouterr().out
    assert "changed since deploy 1: 101 page(s)" in out


def test_a_seed_beyond_64_bits_exits_2(tmp_path, capsys):
    # Content reads a seed mod 2**64, so 2**64 would write seed 0's pages under another config digest.
    assert main(["build", "--out", str(tmp_path / "site"), "--seed", str(2**64)]) == 2
    assert "seed must be within 0-18446744073709551615" in capsys.readouterr().err
    assert not (tmp_path / "site").exists()


def test_build_zero_posts_exports_single_file(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", post_count=0)
    assert main(["build", "--config", str(cfg), "--out", str(tmp_path / "site")]) == 0
    assert "wrote 1 files" in capsys.readouterr().out


def test_build_corrupt_manifest_is_config_error(tmp_path, capsys):
    site = tmp_path / "site"
    site.mkdir()
    (site / "build-manifest.json").write_text("{broken")
    assert main(["build", "--out", str(site)]) == 2


def test_missing_config_file_is_io_error(tmp_path, capsys):
    assert main(["build", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 3


def test_invalid_config_file_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"post_count": -5}')
    assert main(["build", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_bench_deterministic_variant(capsys):
    assert main(["bench", "--variant", "isr", "--deterministic", "--duration", "3"]) == 0
    out = capsys.readouterr().out
    assert "rps:" in out
    assert "| percentile" in out


def test_bench_unknown_variant(capsys):
    assert main(["bench", "--variant", "esr", "--deterministic"]) == 2


def test_bench_deterministic_url_is_rejected(capsys):
    assert main(["bench", "--url", "http://127.0.0.1:1", "--deterministic"]) == 2


def test_bench_unreachable_url_exits_5(capsys):
    assert main(["bench", "--url", "http://127.0.0.1:1", "--duration", "0.4"]) == 5
    assert "refused" in capsys.readouterr().err


def test_bench_discard_whole_run_is_config_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json",
        bench={"duration": 1.0, "connections": 2, "target_path": "/", "discard_first": 1.0},
    )
    assert main(["bench", "--config", str(cfg), "--variant", "isr", "--deterministic"]) == 2
    assert "discard_first" in capsys.readouterr().err


def test_bench_that_discards_every_request_is_config_error(tmp_path, capsys):
    # SSR takes 0.101 s, so the only requests start at 0, inside the discarded 0.05 s.
    cfg = write_config(tmp_path / "cfg.json", bench={"duration": 0.1, "discard_first": 0.05})
    assert main(["bench", "--config", str(cfg), "--variant", "ssr", "--deterministic"]) == 2
    err = capsys.readouterr().err
    assert "discard_first" in err and "unreachable" not in err and "no successful" not in err


def test_deterministic_bench_of_a_zero_cost_variant_exits_2(tmp_path, capsys, deadline):
    data = json.loads((Path(__file__).parents[1] / "config.example.json").read_text())
    static = next(v for v in data["variants"] if v["name"] == "static")
    static["base_handling"] = 0
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps(data))
    argv = ["bench", "--config", str(cfg), "--variant", "static", "--deterministic", "--duration", "1"]
    with deadline(10.0):
        assert main(argv) == 2
    assert "took no virtual time" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_duration_flag_exits_2(capsys, deadline, value):
    with deadline(10.0):
        assert main(["bench", "--deterministic", f"--duration={value}"]) == 2
    assert "duration" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, field", [
    ({"bench": {"duration": math.nan}}, "duration"),
    ({"bench": {"duration": math.inf}}, "duration"),
    ({"bench": {"duration": -math.inf}}, "duration"),
    ({"bench": {"discard_first": math.nan}}, "discard_first"),
    ({"render_overhead": math.nan}, "render_overhead"),
    ({"variants": [{"name": "isr", "strategy": "ISR", "ttl": math.nan}]}, "ttl"),
    ({"variants": [{"name": "isr", "strategy": "ISR", "ttl": math.inf}]}, "ttl"),
    ({"variants": [{"name": "static", "strategy": "STATIC", "base_handling": math.inf}]}, "base_handling"),
    ({"variants": [{"name": "ssr", "strategy": "SSR", "upstream_delay": math.nan}]}, "upstream_delay"),
])
def test_non_finite_config_values_exit_2(tmp_path, capsys, deadline, overrides, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides))  # Python's json writes and reads NaN and Infinity
    with deadline(10.0):
        assert main(["experiment", "--deterministic", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [
    {"seed": 1.0},
    {"post_count": 3.0},
    {"bench": {"connections": 2.0}},
    {"audit": {"runs": 2.0}},
])
def test_an_integer_written_as_a_float_reads_as_that_int(tmp_path, capsys, overrides):
    # JSON Schema counts 2.0 as an integer; the parser reads it as 2, so the outputs match the int config's.
    as_ints = {key: ({k: int(v) for k, v in value.items()} if isinstance(value, dict) else int(value))
               for key, value in overrides.items()}
    outputs = []
    for name, data in (("floats", overrides), ("ints", as_ints)):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(data))
        out_dir = tmp_path / name
        assert main(["experiment", "--deterministic", "--config", str(cfg), "--duration", "1", "--out", str(out_dir)]) == 0
        outputs.append({f.name: f.read_bytes() for f in sorted(out_dir.iterdir())})
    assert ".0" in (tmp_path / "floats.json").read_text()
    assert ".0" not in (tmp_path / "ints.json").read_text()
    assert len(outputs[0]) == 4
    assert outputs[0] == outputs[1]


def test_a_deterministic_experiment_imports_no_schema_library_or_http_server(tmp_path):
    # The default experiment opens no socket and validates with the config dataclasses,
    # so neither jsonschema nor http.server/email is worth its import time. Every
    # module it imports is edgelab's or the standard library's; what the interpreter
    # imported before the script ran (site's .pth files, say) is not counted.
    import edgelab

    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from edgelab.cli import main\n"
        "rc = main(['experiment', '--deterministic', '--duration', '1', '--out', sys.argv[1]])\n"
        "print([m for m in ('jsonschema', 'http.server', 'email.utils', 'statistics', 'html')\n"
        "       if m in sys.modules])\n"
        "print(sorted(m for m in set(sys.modules) - before\n"
        "             if m.partition('.')[0] not in {'edgelab', *sys.stdlib_module_names}))\n"
        "sys.exit(rc)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(edgelab.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == ["[]", "[]"]


@pytest.mark.parametrize("duration, responses", [("2", 20_000), ("3", 30_000), ("10", 100_000)])
def test_deterministic_static_bench_counts_are_exact(capsys, duration, responses):
    # 10 connections at 1 ms a request: virtual time gains or loses no request to rounding.
    assert main(["bench", "--deterministic", "--variant", "static", "--duration", duration]) == 0
    assert f"responses: {responses}  errors: 0  rps: 10000.0  " in capsys.readouterr().out


# Virtual time is whole ns, at most int64's 2**63 - 1 (about 292 years) either side of 0.
@pytest.mark.parametrize("duration, discard_first, field", [
    ("1e-12", 0.0, "duration"),  # positive, but 0 ns
    ("1e300", 0.0, "duration"),  # too many ns for any int64, or a float
    ("1e13", 0.0, "duration"),
    ("1e15", 0.0, "duration"),
    ("1.0000000001", 1.0, "discard_first"),  # longer than discard_first, but not by 1 ns
])
def test_a_duration_flag_outside_whole_ns_exits_2(tmp_path, capsys, deadline, duration, discard_first, field):
    cfg = write_config(tmp_path / "cfg.json", bench={"discard_first": discard_first})
    with deadline(10.0):
        assert main(["bench", "--deterministic", "--config", str(cfg), "--variant", "isr", "--duration", duration]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("overrides, field", [
    ({"bench": {"duration": 1e-12}}, "duration"),
    ({"bench": {"duration": 1e300}}, "duration"),
    ({"bench": {"duration": 1.0, "discard_first": 0.9999999999}}, "discard_first"),
    ({"bench": {"discard_first": 1e13}}, "discard_first"),
    ({"variants": [{"name": "static", "strategy": "STATIC", "base_handling": 1e300}]}, "base_handling"),
    ({"variants": [{"name": "ssr", "strategy": "SSR", "upstream_delay": 1e13}]}, "upstream_delay"),
    ({"variants": [{"name": "isr", "strategy": "ISR", "kv_read_delay": 1e13}]}, "kv_read_delay"),
    ({"variants": [{"name": "isr", "strategy": "ISR", "cold_start_penalty": 1e13}]}, "cold_start_penalty"),
    ({"variants": [{"name": "isr", "strategy": "ISR", "ttl": 1e13}]}, "ttl"),
])
def test_a_config_time_outside_whole_ns_exits_2(tmp_path, capsys, deadline, overrides, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides))
    with deadline(10.0):
        assert main(["bench", "--deterministic", "--config", str(cfg)]) == 2
    assert field in capsys.readouterr().err


# Each page with what the server would read (httpserve.request_page), or None where the
# page already fails the first rule: one leading '/', no whitespace or control character.
NON_CANONICAL_PAGES = [
    ("/posts/post-1?x=1", "/posts/post-1"),
    ("/posts/post-1/", "/posts/post-1"),
    ("/posts/post-1#f", "/posts/post-1"),
    ("/?x=1", "/"),
    ("posts/post-1", None),
    ("//posts/post-1", None),
    ("/posts/post 1", None),
    ("/posts/post-1\n", None),
    ("", None),
]


@pytest.mark.parametrize("page, served", NON_CANONICAL_PAGES)
@pytest.mark.parametrize("argv, field", [
    (["bench", "--variant", "isr", "--deterministic", "--path"], "target_path"),
    (["audit", "--variant", "isr", "--deterministic", "--page"], "page"),
])
def test_a_non_canonical_page_flag_exits_2(capsys, argv, field, page, served):
    assert main([*argv, page]) == 2
    err = capsys.readouterr().err
    assert f"{field} " in err and repr(page) in err
    assert served is None or f"read it as {served!r}" in err


@pytest.mark.parametrize("page, served", NON_CANONICAL_PAGES[:3])
@pytest.mark.parametrize("overrides, field", [
    (lambda page: {"bench": {"target_path": page}}, "target_path"),
    (lambda page: {"audit": {"pages": ["/", page]}}, "audit.pages"),
])
def test_a_non_canonical_page_in_a_config_file_exits_2(tmp_path, capsys, overrides, field, page, served):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides(page)))
    assert main(["experiment", "--deterministic", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{field} {page!r}" in err and f"read it as {served!r}" in err
    assert not (tmp_path / "out").exists()


def test_bench_url_with_base_path_is_config_error(capsys):
    assert main(["bench", "--url", "http://127.0.0.1:1/base", "--duration", "0.4"]) == 2


def test_audit_deterministic_url_is_rejected(capsys):
    assert main(["audit", "--url", "http://127.0.0.1:1", "--deterministic"]) == 2
    assert "deterministic" in capsys.readouterr().err


def test_audit_deterministic_isr(capsys):
    assert main(["audit", "--variant", "isr", "--deterministic"]) == 0
    out = capsys.readouterr().out
    assert "cache: MISS HIT HIT HIT HIT" in out
    assert "isr index" in out


def test_audit_cold_flag(capsys):
    rc = main(
        ["audit", "--variant", "static", "--deterministic", "--cold", "--runs", "3"]
    )
    assert rc == 0
    assert "cache: BYPASS BYPASS BYPASS" in capsys.readouterr().out


def test_audit_without_a_page_audits_each_configured_page(capsys):
    assert main(["audit", "--variant", "isr", "--deterministic", "--runs", "2"]) == 0
    out = capsys.readouterr().out
    assert "| isr index " in out and "| isr post-0 " in out
    assert "cache: MISS HIT  (isr index)\ncache: MISS HIT  (isr post-0)\n" in out


def test_simulated_audits_run_queued_revalidations(tmp_path, capsys):
    # The SWR entry goes stale at run 5; its revalidation runs before run 6, in either command.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"variants": [{"name": "swr", "strategy": "SWR", "ttl": 0.003}],
                               "audit": {"runs": 8, "pages": ["/"]}, "bench": {"duration": 0.5}}))
    statuses = ["MISS", "HIT", "HIT", "HIT", "STALE", "HIT", "HIT", "HIT"]
    assert main(["audit", "--variant", "swr", "--deterministic", "--config", str(cfg)]) == 0
    assert f"cache: {' '.join(statuses)}  (swr index)" in capsys.readouterr().out
    out = tmp_path / "out"
    assert main(["experiment", "--deterministic", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["audits"][0]["cache_statuses"] == statuses


def _record_audits(monkeypatch) -> list:
    """(page, runs, reset) of each ``run_audit`` call the CLI makes, which still runs."""
    calls = []
    real = cli.run_audit

    def run_audit(target, page, profile, runs, reset, clock=None, background=None):
        calls.append((page, runs, reset))
        return real(target, page, profile, runs, reset, clock, background)

    monkeypatch.setattr(cli, "run_audit", run_audit)
    return calls


def test_audit_reads_the_config_audit_section(tmp_path, capsys, monkeypatch):
    calls = _record_audits(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"audit": {"runs": 3, "pages": ["/posts/post-1"], "reset": {"purge": False, "cold": False}}}))
    assert main(["audit", "--config", str(cfg), "--variant", "isr", "--deterministic"]) == 0
    assert calls == [("/posts/post-1", 3, ResetPolicy(purge=False, cold=False))]
    out = capsys.readouterr().out
    assert "| isr post-1 " in out and "cache: MISS HIT HIT  (isr post-1)" in out and "index" not in out


def test_audit_resets_as_the_default_config_says(capsys, monkeypatch):
    calls = _record_audits(monkeypatch)
    assert main(["audit", "--variant", "isr", "--deterministic", "--page", "/posts/post-2"]) == 0
    assert calls == [("/posts/post-2", 5, ResetPolicy(purge=True, cold=True))]


def test_the_config_backed_flags_default_to_none():
    # A flag's own default would override the config file's value on every run.
    subcommands = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    found = set()
    for name, parser in subcommands.choices.items():
        for action in parser._actions:
            if action.dest in cli._OVERRIDES:
                found.add(action.dest)
                assert action.default is None, (name, action.option_strings)
    assert found == set(cli._OVERRIDES)
    for field in cli._OVERRIDES.values():
        functools.reduce(getattr, field.split("."), ExperimentConfig())  # a field of the config


def _record_settings(monkeypatch) -> dict:
    """The seed, bench settings and audit settings each command hands its runners, which still run."""
    seen = {}
    real = {name: getattr(cli, name) for name in ("make_site", "run_load", "run_audit", "run_experiment")}

    def make_site(cfg, *args):
        seen["seed"] = cfg.seed
        return real["make_site"](cfg, *args)

    def run_load(target, bench, *args):
        seen["bench"] = bench
        return real["run_load"](target, bench, *args)

    def run_audit(target, page, profile, runs, reset, clock=None, background=None):
        seen["audit"] = SimpleNamespace(runs=runs, reset=reset)
        return real["run_audit"](target, page, profile, runs, reset, clock, background)

    def run_experiment(cfg, **kwargs):
        seen.update(seed=cfg.seed, bench=cfg.bench, audit=cfg.audit)
        return real["run_experiment"](cfg, **kwargs)

    for fn in (make_site, run_load, run_audit, run_experiment):
        monkeypatch.setattr(cli, fn.__name__, fn)
    return seen


@pytest.mark.parametrize("command, flag, field, value", [
    *((command, ["--seed", "7"], "seed", 7) for command in ("bench", "audit", "experiment")),
    *((command, ["--duration", "0.5"], "bench.duration", 0.5) for command in ("bench", "experiment")),
    *((command, ["--connections", "3"], "bench.connections", 3) for command in ("bench", "experiment")),
    ("bench", ["--path", "/posts/post-1"], "bench.target_path", "/posts/post-1"),
    *((command, ["--runs", "3"], "audit.runs", 3) for command in ("audit", "experiment")),
    ("audit", ["--no-purge"], "audit.reset.purge", False),
    ("audit", ["--cold"], "audit.reset.cold", True),
])
def test_a_flag_overrides_the_config_field_it_names(tmp_path, capsys, monkeypatch, command, flag, field, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bench": {"duration": 1.0}, "audit": {"reset": {"cold": False}}}))
    assert functools.reduce(getattr, field.split("."), load(cfg)) != value
    seen = _record_settings(monkeypatch)
    argv = {
        "bench": ["bench", "--variant", "isr", "--deterministic"],
        "audit": ["audit", "--variant", "isr", "--deterministic"],
        "experiment": ["experiment", "--deterministic", "--out", str(tmp_path / "out")],
    }[command]
    assert main([*argv, "--config", str(cfg), *flag]) == 0
    assert functools.reduce(getattr, field.split("."), SimpleNamespace(**seen)) == value


@pytest.mark.parametrize("config, argv, named", [
    ({"post_count": 0}, ["experiment", "--deterministic"], "audit.pages '/posts/post-0'"),
    ({"post_count": 0}, ["experiment"], "audit.pages '/posts/post-0'"),
    ({"post_count": 0}, ["audit", "--variant", "isr", "--deterministic"], "audit.pages '/posts/post-0'"),
    ({"audit": {"pages": ["/", "/about"]}}, ["audit", "--variant", "static"], "audit.pages '/about'"),
    ({}, ["audit", "--variant", "isr", "--deterministic", "--page", "/posts/post-999"], "page '/posts/post-999'"),
    ({}, ["bench", "--variant", "ssr", "--deterministic", "--path", "/posts/post-999"], "bench.target_path '/posts/post-999'"),
    ({"bench": {"target_path": "/about"}}, ["experiment", "--deterministic"], "bench.target_path '/about'"),
])
def test_a_page_the_built_site_lacks_exits_2(tmp_path, capsys, deadline, config, argv, named):
    # The settings name a page their own site lacks: a config error, not an unreachable target.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = ["--out", str(tmp_path / "out")] if argv[0] == "experiment" else []
    with deadline(10.0):
        assert main([*argv, "--config", str(cfg), *out]) == 2
    err = capsys.readouterr().err
    assert f"{named} is not a page of the built site" in err and "404" not in err
    assert not (tmp_path / "out").exists()


def test_a_variant_name_that_would_split_a_report_cell_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"variants": [
        {"name": "a,b", "strategy": "STATIC"}, {"name": "x|y", "strategy": "SSR"}, {"name": "n\nl", "strategy": "ISR"},
    ]}))
    assert main(["experiment", "--deterministic", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "$.variants[0].name" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.wallclock
def test_wallclock_experiment_serves_each_variant_and_closes_its_port(tmp_path, capsys, monkeypatch, deadline):
    ports = []

    class RecordedServer(experiment.VariantServer):
        def __init__(self, *args, **kwargs):
            # Each variant's server is closed before the next one binds: at most one is open at a time.
            for port in ports:
                with pytest.raises(ConnectionRefusedError):
                    socket.create_connection(("127.0.0.1", port), timeout=5).close()
            super().__init__(*args, **kwargs)
            ports.append(self.port)

    monkeypatch.setattr(experiment, "VariantServer", RecordedServer)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"variants": [{"name": "static", "strategy": "STATIC"}, {"name": "isr", "strategy": "ISR"}]}))
    argv = ["experiment", "--config", str(cfg), "--duration", "0.3", "--connections", "2", "--runs", "2"]
    with deadline(60.0):
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["deterministic"] is False
    assert [(b["variant"], b["error_count"]) for b in summary["bench"]] == [("static", 0), ("isr", 0)]
    assert all(b["total_responses"] > 0 for b in summary["bench"])
    isr = [a["cache_statuses"] for a in summary["audits"] if a["label"].startswith("isr ")]
    assert isr == [["MISS", "HIT"], ["MISS", "HIT"]]
    assert len(ports) == 2
    for port in ports:
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", port), timeout=5).close()


@pytest.mark.wallclock
@pytest.mark.parametrize("argv, printed", [
    (["bench", "--variant", "static", "--duration", "0.3", "--connections", "2"], "| static "),
    (["audit", "--variant", "isr", "--runs", "2"], "cache: MISS HIT  (isr index)"),
])
def test_a_wall_clock_variant_command_serves_it_over_loopback_and_closes_its_port(capsys, monkeypatch, deadline,
                                                                                 argv, printed):
    servers = []

    class RecordedServer(experiment.VariantServer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            servers.append(self)

    monkeypatch.setattr(experiment, "VariantServer", RecordedServer)
    with deadline(30.0):
        assert main(argv) == 0
    assert printed in capsys.readouterr().out
    [server] = servers
    assert server.worker.config.strategy.value == argv[2].upper()
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", server.port), timeout=5).close()


def test_experiment_writes_reports(tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc = main(["experiment", "--deterministic", "--duration", "2", "--out", str(out_dir)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "| variant" in printed
    assert "| percentile" in printed
    for name in ("audit.md", "audit.csv", "percentiles.csv", "summary.json"):
        assert (out_dir / name).exists()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["seed"] == 42
    assert summary["deterministic"] is True


def test_report_reproduces_experiment_tables(tmp_path, capsys):
    out_dir = tmp_path / "out"
    main(["experiment", "--deterministic", "--duration", "2", "--out", str(out_dir)])
    capsys.readouterr()
    redo = tmp_path / "redo"
    assert main(["report", str(out_dir / "summary.json"), "--out", str(redo)]) == 0
    for name in ("audit.md", "audit.csv", "percentiles.csv"):
        assert (redo / name).read_bytes() == (out_dir / name).read_bytes()


def test_report_missing_file_is_io_error(tmp_path):
    assert main(["report", str(tmp_path / "gone.json")]) == 3


def test_report_bad_json_is_config_error(tmp_path):
    bad = tmp_path / "summary.json"
    bad.write_text("not json at all")
    assert main(["report", str(bad)]) == 2


def test_report_wrong_shape_is_config_error(tmp_path):
    bad = tmp_path / "summary.json"
    bad.write_text('{"some": "other", "json": true}')
    assert main(["report", str(bad)]) == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "edgelab" in capsys.readouterr().out


def test_serve_port_taken_exits_4(capsys):
    taken = socket.socket()
    taken.bind(("127.0.0.1", 0))
    port = taken.getsockname()[1]
    try:
        assert main(["serve", "--base-port", str(port)]) == 4
    finally:
        taken.close()


@pytest.mark.parametrize("argv", [["--base-port", "70000"], ["--base-port", "65535"], ["--base-port", "0"],
                                  ["--base-port", "65534"]])
def test_serve_ports_outside_1_to_65535_are_config_errors(argv, capsys, deadline):
    with deadline(10.0):
        assert main(["serve", *argv]) == 2
    assert "65535" in capsys.readouterr().err


def test_serve_has_no_content_api_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli._build_parser().parse_args(["serve", "--content-api"])
    assert exc.value.code == 2
    assert "--content-api" in capsys.readouterr().err


def test_serve_exits_4_when_a_later_port_is_taken(capsys, deadline):
    # Hold port q while q - 1 is free, so the first server binds and the second cannot.
    while True:
        taken = socket.socket()
        taken.bind(("127.0.0.1", 0))
        port = taken.getsockname()[1]
        with socket.socket() as probe:
            try:
                probe.bind(("127.0.0.1", port - 1))
                break
            except OSError:
                taken.close()
    try:
        with deadline(10.0):
            assert main(["serve", "--base-port", str(port - 1)]) == 4
    finally:
        taken.close()
    assert "cannot bind" in capsys.readouterr().err


@pytest.mark.wallclock
def test_serve_three_ports_and_clean_sigint(tmp_path):
    port = _free_port()
    proc = subprocess.Popen(
        [sys.executable, "-m", "edgelab.cli", "serve", "--base-port", str(port)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        _wait_for_port(port)
        for offset, expected in ((0, "STATIC"), (1, "SSR"), (2, "ISR")):
            with urllib.request.urlopen(f"http://127.0.0.1:{port + offset}/", timeout=5) as resp:
                assert resp.status == 200
        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0
    assert "stopped" in out
    assert out.count("http://127.0.0.1:") == 3


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _wait_for_port(port: int, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=0.2):
                return
        except OSError:
            time.sleep(0.05)
    raise TimeoutError(f"port {port} never opened")

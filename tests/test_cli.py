"""CLI commands and exit codes."""

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

import pytest

from edgelab.cli import main


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
        "print([m for m in ('jsonschema', 'http.server', 'email.utils') if m in sys.modules])\n"
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
                                  ["--base-port", "65533", "--content-api"]])
def test_serve_ports_outside_1_to_65535_are_config_errors(argv, capsys, deadline):
    with deadline(10.0):
        assert main(["serve", *argv]) == 2
    assert "65535" in capsys.readouterr().err


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

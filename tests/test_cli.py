"""CLI commands and exit codes."""

import json
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

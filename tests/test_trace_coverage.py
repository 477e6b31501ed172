"""perfbench's tracer still sees every layer the commands run.

``perfbench/layers.instrument`` wraps functions where their callers look
them up, so moving a call between ``cli`` and ``experiment`` could
silently zero a traced figure. This runs each simulated command under
the tracer and checks that the set-up, audit and load layers show up.
"""

import importlib.util
from pathlib import Path

from edgelab import cli

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_simulated_command_is_traced_layer_by_layer(tmp_path, capsys):
    layers = _layers()
    tracer = layers.Tracer()
    layers.instrument(tracer)
    try:
        argvs = (
            ["experiment", "--deterministic", "--preset", "all-five", "--duration", "0.5", "--out", str(tmp_path)],
            ["audit", "--deterministic", "--variant", "isr"],
            ["bench", "--deterministic", "--preset", "all-five", "--variant", "swr", "--duration", "2"],
        )
        for argv in argvs:
            assert cli.main(argv) == 0
    finally:
        tracer.restore()
    stats, _ = tracer.merged()
    calls = {name: stats.get(name, (0,))[0] for name in (
        "content.generate_posts", "ssg.build_site", "bench.run_audit", "bench.run_load.sim",
    )}
    # One site per command; 5 variants x 2 pages + 2 pages of audits; 5 + 1 load runs.
    assert calls == {
        "content.generate_posts": 3, "ssg.build_site": 3, "bench.run_audit": 12, "bench.run_load.sim": 6,
    }
    renders, expected = layers.renders_balance(tracer)
    assert renders == expected > 0

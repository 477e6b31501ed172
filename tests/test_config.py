"""Config parsing, schema validation, round-trip stability."""

import inspect
import json
import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgelab.bench import ResetPolicy, run_audit
from edgelab.config import AuditSettings, ConfigError, ExperimentConfig, VariantSpec, from_dict, load, parse, preset
from edgelab.edge import Strategy, StrategyConfig


def test_presets():
    three = preset("core-three")
    assert [v.name for v in three.variants] == ["static", "ssr", "isr"]
    five = preset("all-five")
    assert [v.name for v in five.variants] == ["static", "ssr", "isr", "swr", "dpr"]
    with pytest.raises(ConfigError):
        preset("core-four")


def test_round_trip_is_identity():
    for cfg in (preset("core-three"), preset("all-five")):
        assert parse(cfg.emit()) == cfg


def test_round_trip_of_customized_config():
    cfg = preset("all-five")
    cfg = replace(cfg, seed=7, post_count=12, render_overhead=0.125, out_dir="elsewhere")
    cfg = replace(cfg, bench=replace(cfg.bench, duration=3.5, connections=4))
    assert parse(cfg.emit()) == cfg


@given(
    seed=st.integers(min_value=0, max_value=2**63 - 1),
    duration=st.floats(min_value=0.001, max_value=3600, allow_nan=False),
    connections=st.integers(min_value=1, max_value=500),
)
def test_round_trip_survives_arbitrary_values(seed, duration, connections):
    cfg = preset("core-three")
    cfg = replace(
        cfg, seed=seed, bench=replace(cfg.bench, duration=duration, connections=connections)
    )
    assert parse(cfg.emit()) == cfg


def test_digest_stable_and_sensitive():
    a, b = preset("core-three"), preset("core-three")
    assert a.digest() == b.digest()
    assert replace(a, seed=43).digest() != a.digest()


def test_example_config_file_parses():
    from pathlib import Path

    example = Path(__file__).resolve().parent.parent / "config.example.json"
    cfg = load(example)
    assert [v.name for v in cfg.variants] == ["static", "ssr", "isr", "swr", "dpr"]
    assert cfg.bench.duration == 30.0
    assert cfg == preset("all-five")
    assert cfg.to_dict() == json.loads(example.read_text())
    # A partial nested object keeps the enclosing default's other fields.
    partial = from_dict({"audit": {"reset": {"purge": False}}})
    assert partial.audit.reset.purge is False
    assert partial.audit.reset.cold is True
    assert partial.audit.pages == preset("core-three").audit.pages


def test_rejects_unknown_top_level_key():
    data = preset("core-three").to_dict()
    data["turbo"] = True
    with pytest.raises(ConfigError):
        from_dict(data)


def test_rejects_bad_strategy_and_bad_ttl():
    data = preset("core-three").to_dict()
    data["variants"][0]["strategy"] = "PSR"
    with pytest.raises(ConfigError):
        from_dict(data)

    data = preset("core-three").to_dict()
    data["variants"][0]["ttl"] = 0
    with pytest.raises(ConfigError):
        from_dict(data)


def test_rejects_invalid_bench_and_audit_values():
    data = preset("core-three").to_dict()
    data["bench"]["connections"] = 0
    with pytest.raises(ConfigError):
        from_dict(data)

    data = preset("core-three").to_dict()
    data["audit"]["runs"] = 1
    with pytest.raises(ConfigError):
        from_dict(data)


@pytest.mark.parametrize("page", ["/posts/post-1?x=1", "/posts/post-1/", "posts/post-1", "/posts/post-1\t"])
def test_rejects_an_audit_page_the_server_would_read_differently(page):
    with pytest.raises(ValueError, match="audit.pages"):
        AuditSettings(pages=("/", page))
    data = preset("core-three").to_dict()
    data["audit"]["pages"] = ["/", page]
    with pytest.raises(ConfigError, match="audit.pages"):
        from_dict(data)


def test_rejects_discarding_the_whole_bench_run():
    data = preset("core-three").to_dict()
    data["bench"]["discard_first"] = data["bench"]["duration"]
    with pytest.raises(ConfigError):
        from_dict(data)


def test_rejects_word_min_above_word_max():
    data = preset("core-three").to_dict()
    data["word_min"], data["word_max"] = 500, 50
    with pytest.raises(ConfigError, match="word_min.*word_max"):
        from_dict(data)
    assert from_dict({"word_min": 50, "word_max": 50}).word_max == 50


@pytest.mark.parametrize("word_min, word_max", [(-5, -3), (0, 10), (0, 0)])
def test_rejects_word_min_below_one(word_min, word_max):
    with pytest.raises(ConfigError, match="word_min"):
        ExperimentConfig(word_min=word_min, word_max=word_max)


def test_rejects_duplicate_variant_names():
    data = preset("core-three").to_dict()
    data["variants"][1]["name"] = data["variants"][0]["name"]
    with pytest.raises(ConfigError):
        from_dict(data)


def test_parse_rejects_non_object_and_bad_json():
    with pytest.raises(ConfigError):
        parse("[1, 2, 3]")
    with pytest.raises(ConfigError):
        parse("{not json")


def test_swr_variant_requires_ttl():
    data = preset("core-three").to_dict()
    data["variants"].append({"name": "swr", "strategy": "SWR"})
    with pytest.raises(ConfigError):
        from_dict(data)


def test_unknown_throttle_profile_rejected():
    data = preset("core-three").to_dict()
    data["throttle_profile"] = "satellite"
    with pytest.raises(ConfigError):
        from_dict(data)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_render_overhead_rejected(value):
    with pytest.raises(ConfigError, match="render_overhead"):
        ExperimentConfig(render_overhead=value)


def test_schema_errors_name_the_field():
    with pytest.raises(ConfigError, match=r"\$\.bench\.duration"):
        from_dict({"bench": {"duration": -math.inf}})


@pytest.mark.parametrize("data, path", [
    ({"bench": {"duration": 0}}, "$.bench.duration"),
    ({"bench": {"connections": True}}, "$.bench.connections"),
    ({"bench": {"connections": 2.5}}, "$.bench.connections"),
    ({"bench": {"turbo": 1}}, "$.bench.turbo"),
    ({"bench": []}, "$.bench"),
    ({"render_overhead": False}, "$.render_overhead"),
    ({"render_overhead": "0.1"}, "$.render_overhead"),
    ({"audit": {"runs": 1}}, "$.audit.runs"),
    ({"audit": {"pages": ["/", 3]}}, "$.audit.pages[1]"),
    ({"audit": {"pages": "/"}}, "$.audit.pages"),
    ({"audit": {"reset": {"purge": 1}}}, "$.audit.reset.purge"),
    ({"variants": [{"name": "a", "strategy": "ISR"}, {"name": "b", "strategy": "ISR", "ttl": -1}]},
     "$.variants[1].ttl"),
    ({"variants": [{"name": "a", "strategy": "SWR"}]}, "$.variants[0].ttl"),
    ({"variants": [{"name": "", "strategy": "ISR"}]}, "$.variants[0].name"),
    ({"variants": [{"name": 1, "strategy": "ISR"}]}, "$.variants[0].name"),
    ({"variants": [{"name": "a"}]}, "$.variants[0]"),
    ({"variants": [{"name": "a", "strategy": "isr"}]}, "$.variants[0].strategy"),
    ({"variants": [{"name": "a", "strategy": "ISR", "ttl_seconds": 1}]}, "$.variants[0].ttl_seconds"),
    ({"variants": []}, "$.variants"),
    ({"seed": -1}, "$.seed"),
    ({"base_port": 65536}, "$.base_port"),
    ({"throttle_profile": "satellite"}, "$.throttle_profile"),
    ({"seed": 2**64}, "$.seed"),
])
def test_every_rejection_names_the_json_path(data, path):
    with pytest.raises(ConfigError) as exc:
        from_dict(data)
    assert f" at {path}: " in str(exc.value)


@pytest.mark.parametrize("data", [{"bench": {"duration": 10**400}}, {"render_overhead": 10**400}])
def test_an_int_beyond_float_range_is_a_config_error(data):
    # json.loads reads a long run of digits as an exact int, which no float holds.
    with pytest.raises(ConfigError, match="too large"):
        parse(json.dumps(data))


def test_json_types_follow_json_schema():
    # An integral float is an integer, read as an int; a number field keeps what it is given.
    cfg = from_dict({"seed": 7.0, "bench": {"connections": 3.0, "duration": 2}, "render_overhead": 1})
    assert (type(cfg.seed), type(cfg.bench.connections)) == (int, int)
    assert cfg.bench.duration == 2 and type(cfg.bench.duration) is int
    assert type(cfg.render_overhead) is int
    assert cfg.emit() == parse(cfg.emit()).emit()
    assert from_dict({"variants": [{"name": "i", "strategy": "ISR", "ttl": None}]}).variants[0].config.ttl is None


@pytest.mark.parametrize("kwargs, field", [
    ({"seed": -1}, "seed"),
    ({"base_port": 0}, "base_port"),
    ({"base_port": 65536}, "base_port"),
    ({"seed": 2**64}, "seed"),
])
def test_range_rules_hold_without_a_file(kwargs, field):
    with pytest.raises(ConfigError, match=field):
        ExperimentConfig(**kwargs)
    assert ExperimentConfig(seed=0, base_port=65535).base_port == 65535
    assert ExperimentConfig(seed=2**64 - 1).seed == 2**64 - 1


def test_a_variant_needs_a_name():
    with pytest.raises(ConfigError, match="name"):
        VariantSpec("", StrategyConfig(Strategy.ISR))


# Each would split a report cell: a CSV field, a markdown cell or a row.
SPLITTING_NAMES = ["a,b", 'say "hi"', "x|y", "n\nl", "tab\t", "nul\x00", "del\x7f", "nel\x85", "end\n"]


@pytest.mark.parametrize("name", SPLITTING_NAMES)
def test_a_variant_name_that_would_split_a_report_cell_is_rejected(name):
    variants = [{"name": "ok", "strategy": "STATIC"}, {"name": name, "strategy": "ISR"}]
    with pytest.raises(ConfigError, match=r"at \$\.variants\[1\]\.name: "):
        from_dict({"variants": variants})


@pytest.mark.parametrize("name", ["isr-60s", "ISR ttl=1", "a/b", "ünï", "(x)"])
def test_a_variant_name_that_keeps_its_cell_is_accepted(name):
    assert from_dict({"variants": [{"name": name, "strategy": "ISR"}]}).variants[0].name == name


def test_effective_profile_applies_render_overhead():
    cfg = replace(preset("core-three"), render_overhead=0.2)
    prof = cfg.effective_profile()
    assert prof.render_overhead == 0.2
    assert prof.downlink == 1_600_000.0


def test_emitted_json_is_sorted_and_newline_terminated():
    text = preset("core-three").emit()
    assert text.endswith("\n")
    data = json.loads(text)
    assert list(data) == sorted(data)


def test_run_audit_defaults_are_the_config_audit_defaults():
    # A library audit and a configured one reset and repeat the same way unless told otherwise.
    params = inspect.signature(run_audit).parameters
    assert params["runs"].default == AuditSettings().runs
    assert params["reset"].default == AuditSettings().reset == ResetPolicy()

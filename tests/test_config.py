"""Config parsing, schema validation, round-trip stability."""

import json
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgelab.config import ConfigError, ExperimentConfig, from_dict, load, parse, preset


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
    # A partial nested object keeps the enclosing default's other fields:
    # the audit default resets cold, unlike a bare ResetPolicy.
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

"""Experiment configuration: one JSON file drives build, serve and bench.

All durations are seconds. The file format is validated against the
schema shipped as ``config.schema.json`` (also committed at the repo
root as ``config.example.json`` in filled-in form); command-line flags
override file values.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from enum import Enum
from importlib import resources
from pathlib import Path

import jsonschema

from .bench import BenchConfig, ResetPolicy, check_page
from .edge import Strategy, StrategyConfig
from .netmodel import PROFILES, ThrottleProfile


class ConfigError(ValueError):
    """Configuration file or flag values are invalid."""


@dataclass(frozen=True)
class VariantSpec:
    name: str
    config: StrategyConfig


@dataclass(frozen=True)
class AuditSettings:
    runs: int = 5
    pages: tuple[str, ...] = ("/", "/posts/post-0")
    reset: ResetPolicy = ResetPolicy(purge=True, cold=True)

    def __post_init__(self) -> None:
        if self.runs < 2:
            raise ConfigError("audit.runs must be >= 2")
        if not self.pages:
            raise ConfigError("audit.pages must not be empty")
        for page in self.pages:
            check_page("audit.pages", page)


_CORE_VARIANTS = (
    VariantSpec("static", StrategyConfig(Strategy.STATIC)),
    VariantSpec("ssr", StrategyConfig(Strategy.SSR)),
    VariantSpec("isr", StrategyConfig(Strategy.ISR)),
)
_ALL_VARIANTS = _CORE_VARIANTS + (
    VariantSpec("swr", StrategyConfig(Strategy.SWR, ttl=1.0)),
    VariantSpec("dpr", StrategyConfig(Strategy.DPR)),
)


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 42
    post_count: int = 100
    word_min: int = 50
    word_max: int = 500
    variants: tuple[VariantSpec, ...] = _CORE_VARIANTS
    throttle_profile: str = "mobile-throttled"
    render_overhead: float = 0.0
    bench: BenchConfig = field(default_factory=BenchConfig)
    audit: AuditSettings = field(default_factory=AuditSettings)
    out_dir: str = "out"
    base_port: int = 8300

    def __post_init__(self) -> None:
        names = [v.name for v in self.variants]
        if len(set(names)) != len(names):
            raise ConfigError(f"variant names must be unique: {names}")
        if not self.variants:
            raise ConfigError("at least one variant is required")
        if self.throttle_profile not in PROFILES:
            raise ConfigError(
                f"unknown throttle profile {self.throttle_profile!r}; "
                f"known: {sorted(PROFILES)}"
            )
        if not math.isfinite(self.render_overhead):
            raise ConfigError(f"render_overhead must be a finite number of seconds, not {self.render_overhead}")
        if self.render_overhead < 0:
            raise ConfigError("render_overhead must be >= 0")
        if self.post_count < 0:
            raise ConfigError("post_count must be >= 0")
        if self.word_min < 1:
            raise ConfigError(f"word_min ({self.word_min}) must be >= 1")
        if self.word_min > self.word_max:
            raise ConfigError(
                f"word_min ({self.word_min}) must not exceed word_max ({self.word_max})"
            )

    def effective_profile(self) -> ThrottleProfile:
        base = PROFILES[self.throttle_profile]
        return replace(base, render_overhead=self.render_overhead)

    def to_dict(self) -> dict:
        return _plain(self)

    def emit(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.emit().encode("utf-8")).hexdigest()


def _schema() -> dict:
    text = resources.files("edgelab").joinpath("config.schema.json").read_text()
    return json.loads(text)


def _plain(value):
    """``value`` as JSON data: dataclasses by field, enums by value, tuples as lists.

    A variant flattens to its name plus its strategy settings.
    """
    if isinstance(value, VariantSpec):
        return {"name": value.name, **_plain(value.config)}
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def _overlay(default, data: dict):
    """``default`` with the JSON object ``data`` laid over it, field by field.

    Nested objects are laid over the default's own sub-instance, so a
    partial ``{"audit": {"reset": {"purge": false}}}`` keeps the audit
    default's ``cold``.
    """
    changes = {}
    for name, value in data.items():
        current = getattr(default, name)
        if is_dataclass(current):
            value = _overlay(current, value)
        elif isinstance(current, tuple):
            value = tuple(value)
        changes[name] = value
    return replace(default, **changes)


def _variant(data: dict) -> VariantSpec:
    settings = {k: v for k, v in data.items() if k != "name"}
    settings["strategy"] = Strategy(settings["strategy"])
    return VariantSpec(data["name"], StrategyConfig(**settings))


def from_dict(data: dict) -> ExperimentConfig:
    try:
        jsonschema.validate(data, _schema())
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config does not match schema at {exc.json_path}: {exc.message}") from exc

    overrides = dict(data)
    try:
        if "variants" in overrides:
            overrides["variants"] = tuple(_variant(v) for v in overrides["variants"])
        return _overlay(ExperimentConfig(), overrides)
    except (ValueError, KeyError) as exc:
        raise ConfigError(str(exc)) from exc


def parse(text: str) -> ExperimentConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return from_dict(data)


def load(path: Path | str) -> ExperimentConfig:
    return parse(Path(path).read_text())


def preset(name: str) -> ExperimentConfig:
    """Named starting points: "core-three" (STATIC/SSR/ISR) or "all-five"."""
    if name == "core-three":
        return ExperimentConfig()
    if name == "all-five":
        return ExperimentConfig(variants=_ALL_VARIANTS)
    raise ConfigError(f"unknown preset {name!r}; known: core-three, all-five")

"""Experiment configuration: one JSON file drives build, serve and bench.

All durations are seconds. The file format is published as the schema
``config.schema.json`` (also committed at the repo root as
``config.example.json`` in filled-in form). ``from_dict`` checks a
file's shape from the config dataclasses themselves, and their
``__post_init__`` checks its ranges; command-line flags override file
values.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field, fields, is_dataclass, replace
from enum import Enum
from pathlib import Path

from .bench import BenchConfig, ResetPolicy, check_page
from .content import DEFAULT_WORD_MAX, DEFAULT_WORD_MIN, MAX_SEED
from .edge import Strategy, StrategyConfig
from .netmodel import PROFILES, ThrottleProfile


class ConfigError(ValueError):
    """Configuration file or flag values are invalid."""


# What would split a report cell: CSV's separator and quote, markdown's bar, and C0/C1 controls.
_UNSAFE_IN_NAME = re.compile(r'[,"|\x00-\x1f\x7f-\x9f]')


@dataclass(frozen=True)
class VariantSpec:
    name: str
    config: StrategyConfig

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("name must not be empty")
        if _UNSAFE_IN_NAME.search(self.name):
            raise ConfigError(f"name must hold no ',', '\"', '|' or control character, not {self.name!r}")


@dataclass(frozen=True)
class AuditSettings:
    runs: int = 5
    pages: tuple[str, ...] = ("/", "/posts/post-0")
    reset: ResetPolicy = ResetPolicy()

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
    word_min: int = DEFAULT_WORD_MIN
    word_max: int = DEFAULT_WORD_MAX
    variants: tuple[VariantSpec, ...] = _CORE_VARIANTS
    throttle_profile: str = "mobile-throttled"
    render_overhead: float = 0.0
    bench: BenchConfig = field(default_factory=BenchConfig)
    audit: AuditSettings = field(default_factory=AuditSettings)
    out_dir: str = "out"
    base_port: int = 8300

    def __post_init__(self) -> None:
        # Each message starts with the field it is about: from_dict names its JSON path by it.
        if not 0 <= self.seed <= MAX_SEED:
            raise ConfigError(f"seed must be within 0-{MAX_SEED}, not {self.seed}")
        names = [v.name for v in self.variants]
        if len(set(names)) != len(names):
            raise ConfigError(f"variants must have unique names: {names}")
        if not self.variants:
            raise ConfigError("variants must hold at least one variant")
        if self.throttle_profile not in PROFILES:
            raise ConfigError(
                f"throttle_profile {self.throttle_profile!r} is unknown; "
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
        if not 1 <= self.base_port <= 65535:
            raise ConfigError(f"base_port must be within 1-65535, not {self.base_port}")

    def effective_profile(self) -> ThrottleProfile:
        base = PROFILES[self.throttle_profile]
        return replace(base, render_overhead=self.render_overhead)

    def to_dict(self) -> dict:
        return _plain(self)

    def emit(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.emit().encode("utf-8")).hexdigest()


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


def _overlay(default, data, path: str):
    """``default`` with the JSON object ``data`` at ``path`` laid over it, field by field.

    Each value must have its field's JSON type, as in JSON Schema
    2020-12: a bool is no number, and a float with no fractional part is
    an integer, read as an int. Nested objects are laid over the
    default's own sub-instance, so a partial
    ``{"audit": {"reset": {"purge": false}}}`` keeps the audit default's
    ``cold``. A range error from ``__post_init__`` names the field its
    message starts with, by JSON path.
    """
    annotations = {f.name: f.type for f in fields(default)}
    changes = {}
    for name, value in _typed(data, "dict", path).items():
        where = f"{path}.{name}"
        annotation = annotations.get(name)
        if annotation is None:
            raise _mismatch(where, f"unknown key {name!r}")
        if is_dataclass(current := getattr(default, name)):
            value = _overlay(current, value, where)
        elif annotation.startswith("tuple["):
            item = _variant if annotation == "tuple[VariantSpec, ...]" else _string
            value = tuple(item(v, f"{where}[{i}]") for i, v in enumerate(_typed(value, "list", where)))
        elif annotation == "Strategy":
            if type(value) is not str or value not in _STRATEGIES:
                raise _mismatch(where, f"{value!r} is not one of {sorted(_STRATEGIES)}")
            value = _STRATEGIES[value]
        else:
            value = _typed(value, annotation, where)
        changes[name] = value
    try:
        return replace(default, **changes)
    except (ValueError, OverflowError) as exc:  # OverflowError: an int beyond float range
        field_name = str(exc).split(" ", 1)[0].rpartition(".")[2]
        where = f"{path}.{field_name}" if field_name in annotations else path
        raise ConfigError(f"config is invalid at {where}: {exc}") from exc


# Per field annotation, and "list"/"dict" for an array/object: the JSON
# type's name in config.schema.json, and the exact Python types json.loads
# reads it as (so a bool is no int).
_JSON_TYPES = {
    "int": ("integer", (int,)),
    "float": ("number", (int, float)),
    "float | None": ("number or null", (int, float, type(None))),
    "str": ("string", (str,)),
    "bool": ("boolean", (bool,)),
    "list": ("array", (list,)),
    "dict": ("object", (dict,)),
}
_STRATEGIES = {s.value: s for s in Strategy}
# Laid under each variant's settings, which must name their own strategy.
_VARIANT_BASE = StrategyConfig(Strategy.STATIC)


def _mismatch(path: str, problem: str) -> ConfigError:
    return ConfigError(f"config does not match schema at {path}: {problem}")


def _typed(value, annotation: str, path: str):
    """``value`` if JSON holds it as ``annotation``'s type; an integral float for an int as that int."""
    kind, types = _JSON_TYPES[annotation]
    if type(value) in types:
        return value
    if kind == "integer" and type(value) is float and value.is_integer():
        return int(value)
    raise _mismatch(path, f"{value!r} is not of type {kind}")


def _string(value, path: str) -> str:
    return _typed(value, "str", path)


def _variant(data, path: str) -> VariantSpec:
    """One ``variants`` entry: a ``name``, a ``strategy`` and any other ``StrategyConfig`` settings."""
    settings = dict(_typed(data, "dict", path))
    for key in ("name", "strategy"):
        if key not in settings:
            raise _mismatch(path, f"{key!r} is a required key")
    name = _string(settings.pop("name"), f"{path}.name")
    config = _overlay(_VARIANT_BASE, settings, path)
    try:
        return VariantSpec(name, config)
    except ConfigError as exc:
        raise ConfigError(f"config is invalid at {path}.name: {exc}") from exc


def from_dict(data: dict) -> ExperimentConfig:
    """The default config with the JSON object ``data`` laid over it.

    Raises ConfigError, naming the JSON path of the bad value (such as
    ``$.bench.duration``), for anything ``config.schema.json`` or a
    ``__post_init__`` rejects.
    """
    return _overlay(ExperimentConfig(), data, "$")


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

"""config.schema.json is the published contract; config.parse must keep it.

The parser checks shapes and ranges without a schema library. This test
generates documents across every key, JSON type and boundary value, and
compares the parser with the schema through ``jsonschema``:

- every document the schema rejects, the parser rejects;
- on documents that break none of the rules only the parser knows
  (``PYTHON_ONLY_RULES``), they agree exactly.
"""

import copy
import functools
import json
import math
import operator
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgelab.bench import check_page
from edgelab.clock import MAX_NS, to_ns
from edgelab.config import ConfigError, parse, preset
from edgelab.netmodel import PROFILES

SCHEMA = json.loads(resources.files("edgelab").joinpath("config.schema.json").read_text())
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)
DEFAULTS = preset("core-three").to_dict()
DELAYS = ("upstream_delay", "cold_start_penalty", "base_handling", "kv_read_delay")

# Rules a JSON Schema cannot state, or that config.schema.json leaves to the parser.
PYTHON_ONLY_RULES = (
    "a time rounds to whole ns: a positive duration of under 0.5 ns is 0",
    "a time is at most int64's 2**63 - 1 ns either side of 0",
    "a number is finite",
    "a page is canonical: bench.check_page",
    "word_min <= word_max",
    "variant names are unique",
    "an SWR variant has a ttl",
    "discard_first < duration, in whole ns",
    "throttle_profile names a known profile",
)


def mostly(common: st.SearchStrategy, rare: st.SearchStrategy) -> st.SearchStrategy:
    """``common`` about nine draws in ten, else ``rare``, so that many documents are valid."""
    return st.sampled_from((common,) * 9 + (rare,)).flatmap(lambda chosen: chosen)


NOT_JSON_NUMBERS = st.sampled_from([True, False, None, "1", [1], {"n": 1}])
INTEGERS = mostly(
    st.one_of(st.integers(min_value=0, max_value=100),
              st.sampled_from([-1, 0, 1, 2, 65535, 65536, 2**63, 2**64 - 1, 2**64, 0.0, 1.0, 2.0, 3.0, 70000.0])),
    st.one_of(st.sampled_from([0.5, 2.5, -1.5]), NOT_JSON_NUMBERS),
)
NUMBERS = mostly(
    st.one_of(st.floats(min_value=0, max_value=100),
              st.sampled_from([0, 0.0, -0.0, 1, 2, 0.001, 1e-12, 4e-10, 6e-10, 9.2e9, 9.3e9, 1e13, math.inf])),
    st.one_of(st.sampled_from([-0.5, -1, -math.inf, math.nan]), NOT_JSON_NUMBERS),
)
PAGES = mostly(
    st.sampled_from(["/", "/posts/post-1"]),
    st.sampled_from(["/posts/post-1?x=1", "/posts/post-1/", "posts", "", 1, None]),
)
BOOLEANS = mostly(st.booleans(), st.sampled_from([0, 1, None, "true"]))
UNKNOWN = st.sampled_from(["turbo", "ttl_seconds", "Seed"])


def objects(values: dict, required=()) -> st.SearchStrategy:
    """JSON objects holding any subset of ``values``' keys (always ``required``); rarely an unknown key or a non-object."""
    optional = {k: v for k, v in values.items() if k not in required}
    documents = st.fixed_dictionaries({k: values[k] for k in required}, optional=optional)
    with_unknown = st.tuples(documents, UNKNOWN, INTEGERS).map(lambda d: {**d[0], d[1]: d[2]})
    return mostly(documents, st.one_of(with_unknown, st.sampled_from([[], "x", 0, None])))


VARIANT = mostly(
    objects(
        {
            "name": mostly(st.sampled_from(["a", "b", "c"]), st.one_of(st.just(""), NOT_JSON_NUMBERS)),
            "strategy": mostly(st.sampled_from(["STATIC", "SSR", "ISR", "SWR", "DPR"]), st.sampled_from(["PSR", "isr"])),
            "ttl": st.one_of(st.none(), NUMBERS),
            **{name: NUMBERS for name in DELAYS},
        },
        required=("name", "strategy"),
    ),
    objects({
        "name": st.one_of(st.sampled_from(["a", ""]), NOT_JSON_NUMBERS),
        "strategy": st.one_of(st.sampled_from(["STATIC", "PSR", "isr"]), NOT_JSON_NUMBERS),
    }),
)
RANDOM_DOCUMENTS = objects({
    "seed": INTEGERS,
    "post_count": INTEGERS,
    "word_min": INTEGERS,
    "word_max": INTEGERS,
    "variants": mostly(st.lists(VARIANT, max_size=3), NOT_JSON_NUMBERS),
    "throttle_profile": mostly(st.sampled_from(["mobile-throttled", "none"]), st.sampled_from(["satellite", 1, None])),
    "render_overhead": NUMBERS,
    "bench": objects({"duration": NUMBERS, "connections": INTEGERS, "target_path": PAGES, "discard_first": NUMBERS}),
    "audit": objects({
        "runs": INTEGERS,
        "pages": mostly(st.lists(PAGES, max_size=3), PAGES),
        "reset": objects({"purge": BOOLEANS, "cold": BOOLEANS}),
    }),
    "out_dir": mostly(st.sampled_from(["out", "", "elsewhere"]), NOT_JSON_NUMBERS),
    "base_port": INTEGERS,
})

# One change to a document both accept: every location, any JSON value.
BASE = preset("all-five").to_dict()
ANY_VALUE = st.sampled_from([
    True, False, None, 0, 1, 2, -1, 0.0, 1.0, 2.0, 0.5, -0.5, 65535, 65536, 2**63, 1e-12, 1e13,
    math.inf, -math.inf, math.nan, "", "x", "ISR", "SWR", "/", "/posts/post-1/", [], ["/"], [1], {},
])


def locations(value, path=()):
    """The path of ``value`` and of everything inside it, as tuples of keys and indexes."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from locations(item, (*path, key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from locations(item, (*path, index))


@st.composite
def one_change(draw) -> dict:
    doc = copy.deepcopy(BASE)
    *parent, key = draw(st.sampled_from(list(locations(BASE))[1:]))
    container = functools.reduce(operator.getitem, parent, doc)
    change = draw(st.sampled_from(["replace", "delete", "add a key"]))
    if change == "delete":
        del container[key]
    elif change == "add a key" and isinstance(container, dict):
        container[draw(UNKNOWN)] = 1
    else:
        container[key] = draw(ANY_VALUE)
    return doc


DOCUMENTS = st.one_of(RANDOM_DOCUMENTS, one_change())


def breaks_a_python_only_rule(doc: dict) -> bool:
    """Whether ``doc``, which the schema accepts, breaks one of ``PYTHON_ONLY_RULES``."""
    bench = {**DEFAULTS["bench"], **doc.get("bench", {})}
    audit = {**DEFAULTS["audit"], **doc.get("audit", {})}
    variants = doc.get("variants", DEFAULTS["variants"])
    times = [bench["duration"], bench["discard_first"]]
    times += [v[k] for v in variants for k in (*DELAYS, "ttl") if v.get(k) is not None]
    if not all(math.isfinite(x) for x in [*times, doc.get("render_overhead", 0)]):
        return True
    if any(abs(x) * 1e9 > MAX_NS for x in times):
        return True
    if to_ns(bench["duration"], "duration") <= 0 or to_ns(bench["discard_first"], "") >= to_ns(bench["duration"], ""):
        return True
    for page in [bench["target_path"], *audit["pages"]]:
        try:
            check_page("page", page)
        except ValueError:
            return True
    names = [v["name"] for v in variants]
    return (
        doc.get("word_min", DEFAULTS["word_min"]) > doc.get("word_max", DEFAULTS["word_max"])
        or len(set(names)) != len(names)
        or any(v["strategy"] == "SWR" and v.get("ttl") is None for v in variants)
        or doc.get("throttle_profile", DEFAULTS["throttle_profile"]) not in PROFILES
    )


@settings(max_examples=1000, deadline=None)
@given(DOCUMENTS)
def test_the_parser_keeps_the_published_schema(doc):
    schema_accepts = VALIDATOR.is_valid(doc)
    try:
        parse(json.dumps(doc))
        parser_accepts = True
    except ConfigError:
        parser_accepts = False
    if not schema_accepts:
        assert not parser_accepts, next(VALIDATOR.iter_errors(doc)).message
    elif not breaks_a_python_only_rule(doc):
        assert parser_accepts


def test_each_python_only_rule_is_one_the_schema_allows():
    for doc in (
        {"bench": {"duration": 4e-10}},
        {"bench": {"duration": 1e13}},
        {"render_overhead": math.nan},
        {"audit": {"pages": ["/posts/post-1/"]}},
        {"word_min": 3, "word_max": 2},
        {"variants": [{"name": "a", "strategy": "ISR"}, {"name": "a", "strategy": "DPR"}]},
        {"variants": [{"name": "a", "strategy": "SWR"}]},
        {"bench": {"duration": 1, "discard_first": 1}},
        {"throttle_profile": "satellite"},
    ):
        assert VALIDATOR.is_valid(doc) and breaks_a_python_only_rule(doc), doc
        with pytest.raises(ConfigError):
            parse(json.dumps(doc))


@pytest.mark.parametrize("name, valid", [
    *((name, False) for name in ["a,b", 'say "hi"', "x|y", "n\nl", "end\n", "\t", "\x00", "\x1f", "\x7f", "\x85", "\x9f"]),
    *((name, True) for name in ["a", "a b", "ünï", "a/b", "\xa0", "isr-60s"]),
])
def test_schema_and_parser_agree_on_variant_names(name, valid):
    doc = {"variants": [{"name": name, "strategy": "ISR"}]}
    assert VALIDATOR.is_valid(doc) == valid
    try:
        parse(json.dumps(doc))
        parser_accepts = True
    except ConfigError:
        parser_accepts = False
    assert parser_accepts == valid

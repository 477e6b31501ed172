"""Deterministic pseudorandom blog content.

Posts are derived from a 64-bit seed with splitmix64, so a given
(seed, post id) pair produces byte-identical content on every platform
and in every process. The generator is fixed by these constants:

    GAMMA = 0x9E3779B97F4A7C15        (state increment)
    M1    = 0xBF58476D1CE4E5B9        (finalizer multiplier 1)
    M2    = 0x94D049BB133111EB        (finalizer multiplier 2)

    state_k  = (seed + (k + 1) * GAMMA) mod 2**64
    output_k = mix(state_k)           (xor-shift / multiply finalizer)

Random access is O(1): post ``i`` draws from its own splitmix64 stream
seeded with ``output_i`` of the site seed, so a single post can be
fetched without generating its predecessors.

``SplitMix64.next_int`` and ``below`` are the reference implementation,
one draw at a time. ``_blocks`` computes many draws at once in packed
lanes: no draw depends on the one before it, so the states of up to
``_LANES`` draws sit in 128-bit lanes of one Python int, each lane
holding one 64-bit state. A 64x64-bit product fits in its lane with no
carry into the next, so the finalizer runs as a fixed sequence of
whole-int shifts, xors and multiplies, masking every lane to 64 bits
after each shift and multiply.

A post's stream gives draw 0 the title length kt, draws 1..kt the
title words, draw kt + 1 the word count w and draws kt + 2 .. kt + 1 + w
the body words. ``make_post`` mixes the kt + 2 title and sizing draws
alone, one ``_mix`` each, and returns a post whose body is drawn when
``.body`` is first read (``Deferred``): a run draws only the bodies it
reads, and every read gives the same text. ``_draw_body`` mixes the w
body draws as one packed int (at most 500 lanes with the default bounds;
a longer body spans blocks of ``_LANES``). ``_residues`` takes every lane mod the
lexicon size n inside the packed int, for any 1 <= n <= 256. It folds
each lane x = hi * 2**32 + lo to y = hi * (2**32 mod n) + lo, which is
x mod n plus a multiple of n and below 2**32 * n <= 2**40, then takes
the exact remainder of Lemire, Kaser & Kurz (2019),
((y * c mod 2**64) * n) >> 64 with c = ceil(2**64 / n), exact because
64 >= 40 + 8. Every product stays below 2**104, inside its lane, and
the remainder, below n <= 256, is one byte of its lane: that byte
indexes the lexicon directly, with no per-word unpack or ``%``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

# Packed-lane constants for ``_blocks`` and ``_residues``, each _LANES lanes
# of 128 bits: lane j of _ONES holds 1, of _STEPS (j + 1) * GAMMA, of _LOW64
# 2**64 - 1 and of _LOW32 2**32 - 1.
# With x = 2**128 they are the closed forms of sum(x**j) and
# GAMMA * sum((j + 1) * x**j) over j < _LANES. A state plus (j + 1) * GAMMA
# stays below 2**128, so it never carries into the next lane either.
_LANES = 512
_X = 1 << 128
_X_LANES = 1 << (128 * _LANES)
_ONES = (_X_LANES - 1) // (_X - 1)
_STEPS = _GAMMA * (((_LANES * _X - _LANES - 1) * _X_LANES + 1) // (_X - 1) ** 2)
_LOW64 = _ONES * _MASK64
_LOW32 = _ONES * 0xFFFFFFFF

# A seed is read mod 2**64, so one outside 0..MAX_SEED would repeat another's
# posts: make_post and generate_posts reject it.
MAX_SEED = _MASK64
DEFAULT_WORD_MIN = 50
DEFAULT_WORD_MAX = 500

# Fixed embedded lexicon so body text is reproducible offline.
_LEXICON = (
    "ad adipiscing aliqua aliquip amet anim aute cillum commodo consectetur "
    "consequat culpa cupidatat deserunt do dolor dolore duis ea eiusmod elit "
    "enim esse est et eu ex excepteur exercitation fugiat id in incididunt "
    "ipsum irure labore laboris laborum lorem magna minim mollit nisi non "
    "nostrud nulla occaecat officia pariatur proident qui quis reprehenderit "
    "sed sint sit sunt tempor ullamco ut velit veniam voluptate"
).split()


def _mix(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _M1) & _MASK64
    z = ((z ^ (z >> 27)) * _M2) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Minimal splitmix64 stream. Pure integer math, platform independent."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_int(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state)

    def below(self, n: int) -> int:
        """Uniform-ish draw in [0, n). Modulo bias is irrelevant at 64 bits."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_int() % n


def _blocks(state: int, k: int) -> Iterator[tuple[int, int]]:
    """The next ``k`` outputs after ``state`` as ``(m, z)``: ``m <= _LANES`` outputs packed in ``z``."""
    while k:
        m = min(k, _LANES)
        keep = (1 << (m << 7)) - 1
        z = (state * (_ONES & keep) + (_STEPS & keep)) & _LOW64
        z = ((z ^ (z >> 30)) & _LOW64) * _M1 & _LOW64
        z = ((z ^ (z >> 27)) & _LOW64) * _M2 & _LOW64
        yield m, (z ^ (z >> 31)) & _LOW64
        state = (state + m * _GAMMA) & _MASK64
        k -= m


def _residues(m: int, z: int, n: int) -> bytes:
    """Each of the ``m`` 64-bit lanes of ``z`` mod ``n`` (1 <= n <= 256), one byte per lane."""
    y = (z & _LOW32) + (z >> 32 & _LOW64) * ((1 << 32) % n)  # hi * (2**32 % n) + lo < 2**40
    # Lemire's remainder ((y * c mod 2**64) * n) >> 64, c = ceil(2**64 / n), is byte 8 of the lane.
    return ((y * -(-(1 << 64) // n) & _LOW64) * n).to_bytes(m << 4, "little")[8::16]


def _stream_seed(seed: int, post_id: int) -> int:
    # k-th output of the site-level stream; gives O(1) access per post.
    return _mix((seed + (post_id + 1) * _GAMMA) & _MASK64)


class Deferred:
    """Field ``name`` of a frozen dataclass ``cls``, made as ``make(*args)`` when first read.

    Set on the class after ``@dataclass``, so the field keeps no default and
    a value given to ``__init__`` lands in the instance dict, which hides this
    non-data descriptor. ``new(args, **fields)`` holds ``args`` instead; the
    first read stores the value and drops them, so later reads are plain
    attribute reads, as with ``functools.cached_property``. ``make`` must be
    pure: threads that read first at once may each call it.
    """

    def __init__(self, cls: type, name: str, make: Callable[..., Any]):
        self.cls, self.name, self.make, self.key = cls, name, make, f"_{name}_args"
        setattr(cls, name, self)

    def __get__(self, obj: object, owner: type | None = None) -> Any:
        if obj is None:
            return self
        d = obj.__dict__
        args = d.get(self.key)
        if args is None:
            return d[self.name]  # a concurrent first read stored the value, then dropped args
        value = d[self.name] = self.make(*args)
        d.pop(self.key, None)
        return value

    def new(self, args: tuple, **fields: Any) -> Any:
        obj = object.__new__(self.cls)
        obj.__dict__.update(fields)
        obj.__dict__[self.key] = args
        return obj


@dataclass(frozen=True)
class Post:
    """One blog entry. ``body`` is plain text; rendering happens elsewhere."""

    id: int
    slug: str
    title: str
    body: str

    @property
    def word_count(self) -> int:
        return len(self.body.split())


def _draw_body(state: int, n_words: int) -> str:
    """The words of the ``n_words`` draws after ``state``, joined by spaces."""
    n = len(_LEXICON)
    words = b"".join([_residues(m, z, n) for m, z in _blocks(state, n_words)])
    return " ".join([_LEXICON[i] for i in words])


# make_post's posts draw their body on its first read.
_BODY = Deferred(Post, "body", _draw_body)


def _check(seed: int, word_min: int, word_max: int) -> None:
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must be within 0-{MAX_SEED}")
    if not 1 <= word_min <= word_max:
        raise ValueError("need 1 <= word_min <= word_max")


def make_post(
    seed: int,
    post_id: int,
    word_min: int = DEFAULT_WORD_MIN,
    word_max: int = DEFAULT_WORD_MAX,
) -> Post:
    """Generate post ``post_id`` for ``seed`` without touching other posts."""
    if post_id < 0:
        raise ValueError("post_id must be >= 0")
    _check(seed, word_min, word_max)
    s = _stream_seed(seed, post_id)
    # Draw k is _mix(s + (k + 1) * GAMMA). Draw 0 is the title length kt,
    # draws 1..kt the title words, draw kt + 1 the word count and the rest
    # the body words, which _draw_body takes after state s + (kt + 2) * GAMMA.
    kt = 3 + _mix(s + _GAMMA) % 5
    n = len(_LEXICON)
    title = " ".join([_LEXICON[_mix(s + k * _GAMMA) % n] for k in range(2, kt + 2)]).capitalize()
    n_words = word_min + _mix(s + (kt + 2) * _GAMMA) % (word_max - word_min + 1)
    body_args = ((s + (kt + 2) * _GAMMA) & _MASK64, n_words)
    return _BODY.new(body_args, id=post_id, slug=f"post-{post_id}", title=title)


def generate_posts(
    seed: int,
    count: int,
    word_min: int = DEFAULT_WORD_MIN,
    word_max: int = DEFAULT_WORD_MAX,
) -> list[Post]:
    """All posts for a site, ordered by id 0..count-1."""
    if count < 0:
        raise ValueError("count must be >= 0")
    _check(seed, word_min, word_max)
    return [make_post(seed, i, word_min, word_max) for i in range(count)]


def content_digest(posts: Sequence[Post]) -> str:
    """Order-sensitive 256-bit digest over every field of every post."""
    payload = json.dumps(
        [{"id": p.id, "slug": p.slug, "title": p.title, "body": p.body} for p in posts],
        separators=(",", ":"),
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()

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
one draw at a time. ``below_many`` draws a post's words in packed
lanes instead: no draw depends on the one before it, so the states of
up to ``_LANES`` draws sit in 128-bit lanes of one Python int, each
lane holding one 64-bit state. A 64x64-bit product fits in its lane
with no carry into the next, so the finalizer runs as a fixed sequence
of whole-int shifts, xors and multiplies, masking every lane to 64 bits
after each shift and multiply. The lanes are then read back as
little-endian words, whatever the host byte order, and reduced ``% n``.

The content API that serves these posts over HTTP is
``httpserve.ContentServer``; it serves whatever list it is given.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from typing import Sequence

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

# Packed-lane constants for ``below_many``, each _LANES lanes of 128 bits:
# lane j of _ONES holds 1, of _STEPS (j + 1) * GAMMA, of _LOW64 2**64 - 1.
# With x = 2**128 they are the closed forms of sum(x**j) and
# GAMMA * sum((j + 1) * x**j) over j < _LANES. A state plus (j + 1) * GAMMA
# stays below 2**128, so it never carries into the next lane either.
_LANES = 512
_X = 1 << 128
_X_LANES = 1 << (128 * _LANES)
_ONES = (_X_LANES - 1) // (_X - 1)
_STEPS = _GAMMA * (((_LANES * _X - _LANES - 1) * _X_LANES + 1) // (_X - 1) ** 2)
_LOW64 = _ONES * _MASK64
_LANE = struct.Struct("<Q8x")  # the low 64 bits of one 128-bit lane

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

    def below_many(self, n: int, k: int) -> list[int]:
        """``k`` draws in [0, n): the same as ``k`` calls of ``below(n)``, in packed lanes."""
        if n <= 0:
            raise ValueError("n must be positive")
        if k < 0:
            raise ValueError("k must be >= 0")
        state = self._state
        out: list[int] = []
        while k:
            m = min(k, _LANES)
            keep = (1 << (m << 7)) - 1
            low = _LOW64 & keep
            z = (state * (_ONES & keep) + (_STEPS & keep)) & low
            z = ((z ^ (z >> 30)) & low) * _M1 & low
            z = ((z ^ (z >> 27)) & low) * _M2 & low
            z = (z ^ (z >> 31)) & low
            out += [x % n for (x,) in _LANE.iter_unpack(z.to_bytes(m << 4, "little"))]
            state = (state + m * _GAMMA) & _MASK64
            k -= m
        self._state = state
        return out


def _stream_seed(seed: int, post_id: int) -> int:
    # k-th output of the site-level stream; gives O(1) access per post.
    return _mix((seed + (post_id + 1) * _GAMMA) & _MASK64)


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


def make_post(
    seed: int,
    post_id: int,
    word_min: int = DEFAULT_WORD_MIN,
    word_max: int = DEFAULT_WORD_MAX,
) -> Post:
    """Generate post ``post_id`` for ``seed`` without touching other posts."""
    if post_id < 0:
        raise ValueError("post_id must be >= 0")
    if not 1 <= word_min <= word_max:
        raise ValueError("need 1 <= word_min <= word_max")
    rng = SplitMix64(_stream_seed(seed, post_id))
    word = _LEXICON.__getitem__
    title = " ".join(map(word, rng.below_many(len(_LEXICON), 3 + rng.below(5)))).capitalize()
    n_words = word_min + rng.below(word_max - word_min + 1)
    body = " ".join(map(word, rng.below_many(len(_LEXICON), n_words)))
    return Post(id=post_id, slug=f"post-{post_id}", title=title, body=body)


def generate_posts(
    seed: int,
    count: int,
    word_min: int = DEFAULT_WORD_MIN,
    word_max: int = DEFAULT_WORD_MAX,
) -> list[Post]:
    """All posts for a site, ordered by id 0..count-1."""
    if count < 0:
        raise ValueError("count must be >= 0")
    if not 1 <= word_min <= word_max:
        raise ValueError("need 1 <= word_min <= word_max")
    return [make_post(seed, i, word_min, word_max) for i in range(count)]


def content_digest(posts: Sequence[Post]) -> str:
    """Order-sensitive 256-bit digest over every field of every post."""
    payload = json.dumps(
        [{"id": p.id, "slug": p.slug, "title": p.title, "body": p.body} for p in posts],
        separators=(",", ":"),
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()

"""Content generator: determinism, random access, and the content digest."""

from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgelab.content import (
    _LANES,
    _LEXICON,
    MAX_SEED,
    Post,
    SplitMix64,
    _residues,
    _stream_seed,
    content_digest,
    generate_posts,
    make_post,
)

MASK64 = (1 << 64) - 1


def reference_stream(seed: int, n: int) -> list[int]:
    """Independent reimplementation of splitmix64, used as the oracle."""
    out = []
    state = seed & MASK64
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


def test_prng_known_vector_seed_zero():
    # First output for seed 0 from the reference C implementation.
    assert reference_stream(0, 1)[0] == 0xE220A8397B1DCDAF
    rng = SplitMix64(0)
    assert [rng.next_int() for _ in range(4)] == reference_stream(0, 4)


@given(st.integers(min_value=0, max_value=MASK64))
def test_prng_matches_reference_for_any_seed(seed):
    rng = SplitMix64(seed)
    assert [rng.next_int() for _ in range(3)] == reference_stream(seed, 3)


def _adversarial_lanes(n):
    """64-bit values at the edges of the in-lane remainder for divisor ``n``."""
    values = {0, MASK64, 2**32 - 1, 2**32, 2**40 - 1, 2**40}
    for k in (1, 2, (2**32) // n, (2**32) // n + 1, MASK64 // n - 1, MASK64 // n):
        values |= {k * n - 1, k * n, k * n + 1}
    return sorted(v for v in values if 0 <= v <= MASK64)


@pytest.mark.parametrize("n", range(1, 257))
def test_in_lane_remainder_equals_x_mod_n_at_the_edges(n):
    # The values fill every lane of a full block, so a lane the constants miss shows too.
    values = _adversarial_lanes(n)
    lanes = [values[j % len(values)] for j in range(_LANES)]
    z = int.from_bytes(b"".join(v.to_bytes(16, "little") for v in lanes), "little")
    assert list(_residues(_LANES, z, n)) == [v % n for v in lanes]
    assert list(_residues(len(values), z & ((1 << (128 * len(values))) - 1), n)) == [
        v % n for v in values
    ]


@pytest.mark.parametrize("word_min, word_max", [(-5, -3), (0, 10), (0, 0), (10, 5)])
def test_post_generation_rejects_bad_word_bounds(word_min, word_max):
    with pytest.raises(ValueError):
        make_post(42, 0, word_min, word_max)
    for count in (0, 3):
        with pytest.raises(ValueError):
            generate_posts(42, count, word_min, word_max)


@pytest.mark.parametrize("seed", [-1, -(2**64), MAX_SEED + 1, 2**70])
def test_post_generation_rejects_a_seed_outside_64_bits(seed):
    # Read mod 2**64, seed -1 would repeat 2**64 - 1's posts and 2**64 seed 0's.
    with pytest.raises(ValueError, match="seed"):
        make_post(seed, 0)
    for count in (0, 2):
        with pytest.raises(ValueError, match="seed"):
            generate_posts(seed, count)


def reference_post(seed, post_id, word_min, word_max):
    """``make_post`` from one ``below`` call per draw, in draw order."""
    rng = SplitMix64(_stream_seed(seed, post_id))
    n = len(_LEXICON)
    title = " ".join(_LEXICON[rng.below(n)] for _ in range(3 + rng.below(5)))
    n_words = word_min + rng.below(word_max - word_min + 1)
    body = " ".join(_LEXICON[rng.below(n)] for _ in range(n_words))
    return Post(id=post_id, slug=f"post-{post_id}", title=title.capitalize(), body=body)


def _word_bounds(top):
    return st.tuples(st.integers(1, top), st.integers(1, top)).map(sorted)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=MASK64),
    post_id=st.integers(min_value=0, max_value=10**6),
    # Up to 3000 words a post spans several lane blocks; up to 600 it may end
    # just short of, at or just past the first block's end.
    bounds=st.one_of(_word_bounds(30), _word_bounds(600), _word_bounds(3000)),
)
def test_make_post_equals_one_below_per_draw(seed, post_id, bounds):
    word_min, word_max = bounds
    assert make_post(seed, post_id, word_min, word_max) == reference_post(
        seed, post_id, word_min, word_max
    )


@pytest.mark.parametrize(
    "word_min, word_max", [(1, 1), (50, 500), (500, 520), (1015, 1030), (2990, 3000)]
)
def test_make_post_equals_one_below_per_draw_around_block_ends(word_min, word_max):
    # kt + 2 + n_words draws: 500..520 words straddle one block end, 1015..1030 two.
    assert 500 + 3 + 2 <= _LANES <= 520 + 7 + 2 and 1015 + 5 <= 2 * _LANES <= 1030 + 9
    for seed in (0, MASK64, 0x0123456789ABCDEF):
        for post_id in range(4):
            assert make_post(seed, post_id, word_min, word_max) == reference_post(
                seed, post_id, word_min, word_max
            )


# What a post answers to each way of reading it; "==" compares it with the reference.
READS = {
    "title": lambda post, ref: post.title,
    "body": lambda post, ref: post.body,
    "==": lambda post, ref: post == ref,
    "hash": lambda post, ref: hash(post),
    "repr": lambda post, ref: repr(post),
    "asdict": lambda post, ref: asdict(post),
    "replace": lambda post, ref: (replace(post), replace(post, title="edited")),
}

_SEEDS = st.one_of(st.sampled_from([0, MASK64]), st.integers(min_value=0, max_value=MASK64))


@settings(max_examples=60, deadline=None)
@given(
    seed=_SEEDS,
    post_id=st.integers(min_value=0, max_value=10**6),
    bounds=st.one_of(_word_bounds(30), _word_bounds(600)),
    first=st.sampled_from(sorted(READS)),
)
def test_a_post_reads_as_the_reference_whichever_read_comes_first(seed, post_id, bounds, first):
    # make_post leaves the body to its first read; the reference draws it at once.
    ref = reference_post(seed, post_id, *bounds)
    post = make_post(seed, post_id, *bounds)
    for name in [first, *READS]:
        assert READS[name](post, ref) == READS[name](ref, ref), name
    assert (post.id, post.slug, post.title, post.body) == (ref.id, ref.slug, ref.title, ref.body)
    # Once read, the body is a plain instance attribute, as in a post built whole.
    assert vars(post) == vars(ref)


@settings(max_examples=30, deadline=None)
@given(
    seed=_SEEDS,
    ids=st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=n - 1))
    ),
    bounds=_word_bounds(600),
)
def test_random_access_equals_the_generated_list(seed, ids, bounds):
    count, post_id = ids
    assert make_post(seed, post_id, *bounds) == generate_posts(seed, count, *bounds)[post_id]


def _unread(posts):
    """Each post's fields before its body is read: id, slug, title and the body's draw state and size."""
    return [vars(p).copy() for p in posts]


# A site's posts draw their headers in blocks of _LANES posts: counts at and around block ends.
BATCH_COUNTS = (0, 1, _LANES - 1, _LANES, _LANES + 1, 2 * _LANES + 1)


@pytest.mark.parametrize("bounds", [(1, 1), (5, 9), (50, 500), (1000, 3000)])
@pytest.mark.parametrize("seed", [0, 1, MASK64])
def test_a_generated_batch_equals_one_make_post_per_id(seed, bounds):
    # (50, 500) and (1000, 3000) have a word-count span over 256.
    one_by_one = _unread(make_post(seed, i, *bounds) for i in range(max(BATCH_COUNTS)))
    for count in BATCH_COUNTS:
        assert _unread(generate_posts(seed, count, *bounds)) == one_by_one[:count], count


@settings(max_examples=25, deadline=None)
@given(
    seed=_SEEDS,
    count=st.one_of(st.integers(0, 20), st.integers(_LANES - 3, 2 * _LANES + 3)),
    bounds=st.one_of(_word_bounds(30), _word_bounds(600), _word_bounds(3000)),
    data=st.data(),
)
def test_any_generated_batch_equals_one_make_post_per_id(seed, count, bounds, data):
    posts = generate_posts(seed, count, *bounds)
    assert _unread(posts) == _unread(make_post(seed, i, *bounds) for i in range(count))
    if count:
        post_id = data.draw(st.integers(0, count - 1), label="post_id")
        assert posts[post_id] == reference_post(seed, post_id, *bounds)


def test_generated_content_is_pinned():
    # Digests recorded before words were drawn in packed lanes;
    # the second needs up to 3000 draws per post, several lane blocks.
    assert (
        content_digest(generate_posts(42, 100))
        == "1270e14fa17d9445ab88618aeea8fe81470787e2fdfa932fff4e0051900351e5"
    )
    assert (
        content_digest(generate_posts(7, 3, 1000, 3000))
        == "c051f3aa81ac2d98f11db72add9d3bd92dd5bc85371e5c83b818dbe707787fc2"
    )


def test_zero_count_gives_empty_list():
    assert generate_posts(42, 0) == []


def test_hundred_posts_have_distinct_slugs():
    posts = generate_posts(42, 100)
    assert len(posts) == 100
    assert len({p.slug for p in posts}) == 100


def test_generator_is_deterministic():
    a = generate_posts(42, 5)
    b = generate_posts(42, 5)
    assert a == b
    assert content_digest(a) == content_digest(b)


def test_random_access_matches_sequential_generation():
    posts = generate_posts(9001, 100)
    for k in (0, 1, 17, 50, 99):
        assert make_post(9001, k) == posts[k]


def test_ids_slugs_and_order():
    posts = generate_posts(3, 20)
    assert [p.id for p in posts] == list(range(20))
    assert all(p.slug == f"post-{p.id}" for p in posts)
    assert all(p.title and p.body for p in posts)


def test_word_counts_within_default_bounds():
    for p in generate_posts(1, 50):
        assert 50 <= p.word_count <= 500


@settings(max_examples=30)
@given(
    seed=st.integers(min_value=0, max_value=MASK64),
    bounds=st.tuples(st.integers(1, 30), st.integers(1, 30)).map(sorted),
)
def test_word_counts_respect_configured_bounds(seed, bounds):
    lo, hi = bounds
    for p in generate_posts(seed, 5, word_min=lo, word_max=hi):
        assert lo <= p.word_count <= hi


@given(st.integers(min_value=0, max_value=MASK64 - 1))
@settings(max_examples=25)
def test_different_seeds_give_different_content(seed):
    assert content_digest(generate_posts(seed, 3)) != content_digest(
        generate_posts(seed + 1, 3)
    )


def test_digest_of_empty_list_is_fixed():
    # sha256 of the canonical empty-list serialization; frozen so any
    # change to the canonical form is caught.
    assert (
        content_digest([])
        == "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
    )


def test_digest_changes_when_one_title_character_flips():
    from dataclasses import replace

    posts = generate_posts(5, 3)
    tweaked = list(posts)
    tweaked[1] = replace(posts[1], title=posts[1].title[:-1] + "!")
    assert content_digest(tweaked) != content_digest(posts)


def test_digest_is_order_sensitive():
    posts = generate_posts(5, 3)
    assert content_digest(list(reversed(posts))) != content_digest(posts)

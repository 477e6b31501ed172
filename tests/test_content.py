"""Content generator: determinism, random access, and the content digest."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgelab.content import (
    _LANES,
    SplitMix64,
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


def _assert_below_many_matches_below(seed, n, k):
    one_by_one, batched = SplitMix64(seed), SplitMix64(seed)
    assert batched.below_many(n, k) == [one_by_one.below(n) for _ in range(k)]
    assert batched.next_int() == one_by_one.next_int()  # both streams end in the same state


@given(
    st.integers(min_value=0, max_value=MASK64),
    st.one_of(st.sampled_from([1, 2, MASK64]), st.integers(min_value=1, max_value=MASK64)),
    st.integers(min_value=0, max_value=2600),
)
def test_below_many_equals_that_many_calls_of_below(seed, n, k):
    _assert_below_many_matches_below(seed, n, k)


@pytest.mark.parametrize("k", [0, 1, _LANES - 1, _LANES, _LANES + 1, 2 * _LANES + 1, 2500])
@pytest.mark.parametrize("n", [1, 69, MASK64])
def test_below_many_matches_below_across_lane_blocks(n, k):
    assert _LANES < 2500  # 2500 draws span more than one block
    for seed in (0, MASK64, 0x0123456789ABCDEF):
        _assert_below_many_matches_below(seed, n, k)


def test_below_many_rejects_a_negative_count():
    with pytest.raises(ValueError):
        SplitMix64(1).below_many(10, -1)
    with pytest.raises(ValueError):
        SplitMix64(1).below_many(0, 3)


@pytest.mark.parametrize("word_min, word_max", [(-5, -3), (0, 10), (0, 0), (10, 5)])
def test_post_generation_rejects_bad_word_bounds(word_min, word_max):
    with pytest.raises(ValueError):
        make_post(42, 0, word_min, word_max)
    for count in (0, 3):
        with pytest.raises(ValueError):
            generate_posts(42, count, word_min, word_max)


def test_generated_content_is_pinned():
    # Digests recorded before below_many drew its words in packed lanes;
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


@given(st.integers(min_value=0, max_value=MASK64))
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

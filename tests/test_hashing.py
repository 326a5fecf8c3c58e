from random import Random

import pytest
from hypothesis import given, strategies as st

from shifttree import MERSENNE_61, HashContext, make_context

from helpers import hash_string


def test_make_context_basics():
    # one square per power of two <= max_len
    ctx = make_context(8, seed=42)
    assert ctx.p == MERSENNE_61
    assert 0 <= ctx.r < ctx.p
    for max_len in (1, 2, 3, 7, 8, 9, 1000, 1 << 16, (1 << 16) + 1):
        squares = make_context(max_len, seed=42).squares
        assert len(squares) == max_len.bit_length(), max_len


def test_squares_are_powers_of_r():
    for ctx in (make_context(1 << 16, seed=0), HashContext(100, r=10, p=101)):
        for j, square in enumerate(ctx.squares):
            assert square == pow(ctx.r, 2 ** j, ctx.p), j


def test_seed_determinism():
    assert make_context(16, seed=7).r == make_context(16, seed=7).r
    assert make_context(16, seed=7).r != make_context(16, seed=8).r


def test_validation():
    with pytest.raises(ValueError):
        make_context(0, seed=1)
    with pytest.raises(ValueError):
        HashContext(4, r=-1)
    with pytest.raises(ValueError):
        HashContext(4, r=MERSENNE_61)
    with pytest.raises(ValueError):
        HashContext(4, r=200, p=101)


def join(ctx, h1, h2, len1):
    """The rule a tree node hashes its children by: h(u + v) from h(u),
    h(v) and len(u)."""
    return (h1 + h2 * pow(ctx.r, len1, ctx.p)) % ctx.p


def test_combine_hand_checked():
    # h("1" + "2") with p=101, r=10: 1 + 2*10 = 21
    ctx = HashContext(8, r=10, p=101)
    assert join(ctx, 1, 2, 1) == 21
    assert hash_string(ctx, [1, 2]) == 21


def test_combine_with_empty_right():
    ctx = make_context(8, seed=3)
    s = [5, 1, 4, 1]
    h = hash_string(ctx, s)
    assert join(ctx, h, hash_string(ctx, []), len(s)) == h


def test_hash_string_edges():
    ctx = make_context(8, seed=11)
    assert hash_string(ctx, []) == 0
    for x in (0, 1, 17, 2**40):
        assert hash_string(ctx, [x]) == x
    with pytest.raises(ValueError):
        hash_string(ctx, [ctx.p])
    with pytest.raises(ValueError):
        hash_string(ctx, [-1])
    with pytest.raises(ValueError):
        hash_string(ctx, [0] * 9)  # longer than max_len


def test_fold_equals_polynomial():
    ctx = make_context(32, seed=5)
    rng = Random(5)
    s = [rng.randrange(1000) for _ in range(20)]
    h, length = 0, 0
    for x in s:
        h = join(ctx, h, x, length)
        length += 1
    assert h == hash_string(ctx, s)


letters = st.lists(st.integers(0, 10**6), max_size=24)


@given(letters, letters)
def test_concatenation_identity(s1, s2):
    ctx = make_context(64, seed=13)
    assert hash_string(ctx, s1 + s2) == join(
        ctx, hash_string(ctx, s1), hash_string(ctx, s2), len(s1))


@given(letters, letters, letters)
def test_three_way_split_associativity(s1, s2, s3):
    ctx = make_context(96, seed=17)
    h1, h2, h3 = (hash_string(ctx, s) for s in (s1, s2, s3))
    left_first = join(ctx, join(ctx, h1, h2, len(s1)), h3, len(s1) + len(s2))
    right_first = join(ctx, h1, join(ctx, h2, h3, len(s2)), len(s1))
    assert left_first == right_first == hash_string(ctx, s1 + s2 + s3)


def test_no_collisions_among_random_distinct_pairs():
    # Expected collisions over 10^4 pairs at p = 2^61 - 1: ~ 10^-13.
    ctx = make_context(64, seed=23)
    rng = Random(23)
    for _ in range(10_000):
        length = rng.randint(1, 64)
        s1 = [rng.randrange(4) for _ in range(length)]
        s2 = [rng.randrange(4) for _ in range(length)]
        if s1 == s2:
            s2[rng.randrange(length)] ^= 1
        assert hash_string(ctx, s1) != hash_string(ctx, s2)

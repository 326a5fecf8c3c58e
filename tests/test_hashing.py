from random import Random

import pytest
from hypothesis import given, strategies as st

from shifttree import HashContext, make_context
from shifttree.hashing import _is_prime
from shifttree.shift_tree import _WORD

from helpers import hash_string


def test_make_context_basics():
    # one square per power of two <= max_len
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
        HashContext(4, r=-1, p=101)
    with pytest.raises(ValueError):
        HashContext(4, r=101, p=101)
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


def tree_hash(ctx, letters) -> int:
    """The root hash a tree over ``letters`` (a power-of-two count) holds:
    leaves exact, each parent (left + right * r**leaves(left)) % p."""
    level, j = list(letters), 0
    while len(level) > 1:
        level = [(x + y * ctx.squares[j]) % ctx.p
                 for x, y in zip(level[::2], level[1::2])]
        j += 1
    return level[0]


def test_no_collisions_among_random_distinct_pairs():
    # Expected collisions over 10^4 pairs of up to 64 letters below p:
    # below 10^4 * 64 / 2^80 ~ 10^-18.
    ctx = make_context(64, seed=23)
    rng = Random(23)
    for _ in range(10_000):
        length = rng.randint(1, 64)
        s1 = [rng.randrange(4) for _ in range(length)]
        s2 = [rng.randrange(4) for _ in range(length)]
        if s1 == s2:
            s2[rng.randrange(length)] ^= 1
        assert hash_string(ctx, s1) != hash_string(ctx, s2)
    # strings of W-bit windows, W = _WORD, as a word tree holds them, most
    # of them p or more: below 2^-68.5 + 16 / 2^80 per pair
    big = 0
    for _ in range(2_000):
        length = 1 << rng.randrange(5)
        s1 = [rng.getrandbits(_WORD) for _ in range(length)]
        s2 = list(s1)
        for i in rng.sample(range(length), rng.randint(1, length)):
            s2[i] = rng.choice([rng.getrandbits(_WORD), s1[i] ^ 1])
        big += max(s1 + s2) >= ctx.p
        assert tree_hash(ctx, s1) != tree_hash(ctx, s2)
    assert big > 1_000


def strong_probable_prime(n: int, b: int) -> bool:
    """Whether odd n > 2 passes the Miller-Rabin round to base b."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(b, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_is_prime_matches_trial_division():
    for n in range(-2, 5000):
        want = n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))
        assert _is_prime(n) == want, n
    for p in ((1 << 61) - 1, (1 << 89) - 1, (1 << 80) + 13):
        assert _is_prime(p), p
    assert not _is_prime(((1 << 40) + 15) * ((1 << 40) + 61))


def test_is_prime_rejects_strong_pseudoprimes():
    # 3825123056546413051 passes the rounds to every prime base up to 23,
    # and psi_12 = 318665857834031151167461 (a product of two primes, none
    # up to 41) to every prime base up to 37, so only base 41 rejects it
    psi_9 = 3825123056546413051
    psi_12 = 318665857834031151167461
    assert psi_12 == 399165290221 * 798330580441
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    assert all(strong_probable_prime(psi_9, b) for b in bases[:9])
    assert all(strong_probable_prime(psi_12, b) for b in bases[:12])
    assert not strong_probable_prime(psi_12, 41)
    assert not _is_prime(psi_9)
    assert not _is_prime(psi_12)


def test_fingerprint_context():
    # p is an 81-bit prime and r a point in [0, p), both drawn by the
    # seed: the same seed gives the same pair, different seeds different
    # primes
    primes = set()
    for seed in range(20):
        ctx = make_context(16, seed)
        assert 1 << 80 <= ctx.p < 1 << 81 and _is_prime(ctx.p), seed
        assert 0 <= ctx.r < ctx.p
        same = make_context(16, seed)
        assert (same.p, same.r) == (ctx.p, ctx.r)
        primes.add(ctx.p)
    assert len(primes) == 20
    # a string of W-bit letters, all of them above p, hashes under the
    # tree's rule as its letters reduced mod p do
    rng = Random(3)
    ctx = make_context(8, 4)
    windows = [rng.getrandbits(_WORD) | 1 << (_WORD - 1) for _ in range(8)]
    assert tree_hash(ctx, windows) == hash_string(
        ctx, [w % ctx.p for w in windows])

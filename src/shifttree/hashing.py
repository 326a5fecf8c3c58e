"""Polynomial string hashing over a prime field.

A string of integer letters maps to sum(s[i] * r**i) mod p for a random
evaluation point r.  Hashes of adjacent substrings combine in O(1),
h(u + v) = h(u) + h(v) * r**len(u), which is what lets a tree node derive
its hash from its children.  Two distinct equal-length strings collide with
probability at most len/p over the choice of r.
"""

import random

MERSENNE_61 = (1 << 61) - 1
# the prime above every 64-bit letter, for word trees' windows
MERSENNE_89 = (1 << 89) - 1


class HashContext:
    """Shared hashing parameters: modulus p, point r, and the squares
    ``squares[j] = r**(2**j) % p`` for every power of two 2**j <= max_len.

    A tree node's left child covers a power-of-two number of leaves, so
    those are the only powers of r a tree reads.  Immutable after
    construction.  Trees whose hashes should be comparable must share one
    context.  ``make_context`` is the normal entry point; passing ``r`` and
    ``p`` explicitly is for tests that want hand-checkable numbers.
    Strings longer than ``max_len`` are not supported.
    """

    __slots__ = ("p", "r", "max_len", "squares")

    def __init__(self, max_len: int, r: int, p: int = MERSENNE_61):
        if max_len < 1:
            raise ValueError("max_len must be >= 1")
        if not 0 <= r < p:
            raise ValueError(f"evaluation point {r} outside [0, {p})")
        self.p = p
        self.r = r
        self.max_len = max_len
        squares = [r]
        for _ in range(max_len.bit_length() - 1):
            squares.append(squares[-1] * squares[-1] % p)
        self.squares = squares


def make_context(max_len: int, seed: int | None = None,
                 p: int = MERSENNE_61) -> HashContext:
    """Context with prime ``p`` (2**61 - 1 unless given) and r drawn
    uniformly from [0, p) by ``seed``."""
    rng = random.Random(seed)
    return HashContext(max_len, rng.randrange(p), p)

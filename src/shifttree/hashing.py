"""Polynomial string hashing modulo a random prime.

A string of integer letters maps to sum(s[i] * r**i) mod p.  Hashes of
adjacent substrings combine in O(1), h(u + v) = h(u) + h(v) * r**len(u),
which is what lets a tree node derive its hash from its children.

A tree keeps that combination exact, with r**len(u) taken from the
context's squares (reduced mod p) and the sum never reduced: a node holds
sum(s[i] * c_i), where c_i is the product of the squares r**(2**j) mod p
over the set bits j of i, the letter's offset in the node.  So c_i and
r**i agree mod p, and the exact sum reduced mod p is the hash: two nodes
whose sums are equal have equal hashes, so a compare of sums is never
weaker than a compare of hashes and the bounds below hold for it.  And
c_i depends only on i and the context, so equal substrings give equal
sums, in any tree and at any rotation.  A sum grows by at most 81 bits
a level: x + y * w < 2**(b + 81) for children x, y < 2**b and a square
w < p < 2**81.

A context draws p uniformly from the primes in [2**80, 2**81) and r
uniformly from [0, p).  A letter may be any non-negative integer below
2**4096: a word tree's window of ``shift_tree._WORD`` = 4096 bits may
exceed p.  Two unequal strings u != u' of l letters collide only through
one of two events:

- p divides w - w', the nonzero difference of the letters at the first
  position where u and u' differ.  It is below 2**4096 in size, so it
  has at most 51 prime factors >= 2**80, and there are more than
  2**80 / 57 primes to choose from (Dusart's bounds on pi(x)):
  probability below 51 * 57 / 2**80 < 2**-68.5.  Letters below p never
  differ by a multiple of p.
- Otherwise the difference polynomial is nonzero over F_p, of degree
  below l, and vanishes at r with probability below l / 2**80.
"""

import random

# the prime bases a Miller-Rabin test uses to be exact below 2**81
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


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

    def __init__(self, max_len: int, r: int, p: int):
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


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases 2, ..., 41, which is exact for every
    n below 3.317 * 10**24 (Sorenson and Webster), so for every n < 2**81."""
    if n < 2:
        return False
    for b in _BASES:
        if n % b == 0:
            return n == b
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for b in _BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False  # b witnesses that n is composite
    return True


def make_context(max_len: int, seed: int | None = None) -> HashContext:
    """Context for strings of up to ``max_len`` letters, drawn by ``seed``:
    p uniform among the primes in [2**80, 2**81), by rejection sampling,
    then r uniform in [0, p)."""
    rng = random.Random(seed)
    while True:
        # every prime in range is odd, so odd candidates keep p uniform
        p = rng.randrange(1 << 80, 1 << 81) | 1
        if _is_prime(p):
            return HashContext(max_len, rng.randrange(p), p)

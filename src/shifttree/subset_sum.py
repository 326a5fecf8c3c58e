"""All attainable subset sums modulo m.

The driving recurrence is S <- S ∪ (S + x) per element copy.  Instead of
recomputing S + x, compare the membership bit-string s against its rotation
by x and read off the changed positions: each is either a brand-new sum or
the position it rotated in from, in equal numbers.  Two shift trees make
that comparison output-sensitive.

A value's copies join S in pieces of 1, 2, 4, ... copies, then the rest:
piece p = min(2 * (last p), copies left), starting at 1, is one step
S <- S ∪ (S + px), one shift of the second tree to px mod m and one diff.
After pieces of n copies in all, S = S0 + {0, ..., n}x; a piece is at most
n + 1 copies, so it makes S = S0 + {0, ..., n + p}x, and the pieces of c
copies join exactly c.  The value ends at the first piece that adds
nothing, by the piece lemma: if S' = S0 + {0, ..., n}x and S' + px = S'
for some 1 <= p <= n + 1, then S0 + (n+1)x lies in S' + px = S', so
S' + x = S', and no later copy adds a sum.  This holds when px = 0 mod m
too.  So a value with c copies makes at most floor(log2 min(c, m)) + 2
diffs.

Only the values x present in the instance are visited, in bit-reversed
order, and the rotated tree moves from one to the next by the net delta.
Neighbours in that order share as many low bits as the cheapest step of
the full bit-reversal schedule between them, so when every value has one
copy the rotations cost no more than that schedule (linearithmic) and far
less when few values are present.  A value with c copies adds at most
floor(log2 min(c, m)) + 1 shifts, one per piece after its first, and the
next value's shift then starts from its last piece's rotation px mod m
rather than from x.  The solve stops as soon as every residue is
attainable.

A value that S is already closed under, S + x = S, is skipped: no shift
and no diff.  The stabilizer {g : S + g = S} is a subgroup of the
residues mod m, and it only grows as S does: S + g = S gives
(S ∪ (S + y)) + g = S ∪ (S + y).  The solver sees S + x = S for free
whenever a piece's diff finds no new sum, by the piece lemma.  So it
keeps ``closed``, the gcd of m and every such x, whose multiples form a
subgroup of the stabilizer, and skips every later multiple of it.

That order sorts first by the low k bits of x, reversed, so the solver
takes the classes x = r (mod 2**k) in the k-bit reversed order of r and
sorts a class only when the loop reaches it; an empty class costs one C
pass over its multiplicities.  A solve that saturates early never sorts
the classes it does not reach.

A shift tree rotates its string mod its length L, a power of two.  When
m is a power of two, L = m: each tree holds s itself, and the second
tree's rotation by x is the rotation of s by x mod m.  Any other m pads
to the smallest L >= 2m: one tree holds s padded, the other two copies
of s around a gap, so that for any rotation d <= m the first m
characters of the rotated double string are exactly the rotation of s.
A present residue's letter is 1; the padding, the gap and the absent
residues keep the 0 a fresh tree starts with.  Both trees are word
trees (``ShiftTree.packed``): the 0/1 string sits in L/W windows of
W = 4096 bits (``_WORD``; one window of L bits when L < W), so the trees
are twelve levels shallower than trees of letters, and a fresh one
already holds the zero string.  Their diff stops at blocks of 64
windows.  The hashed backend keeps exact polynomial sums of the windows
at a random point, which reduce to their hashes modulo a random 81-bit
prime; both are drawn from ``seed``.

The solver works on windows end to end, never on single sums:

- The first tree never rotates, so its leaves are S's L/W windows (ints
  of W bits) in order.
- A piece's diff, ``diff_windows``, reports each window c in which the
  two strings differ as ``(c, own, theirs)``.  The new sums there are
  ``theirs & ~own``, and the balance check compares popcounts.
- Each tree gets one ``set_bits`` call per piece that adds sums, with a
  span per window: window c at Wc in the first tree, and at Wc + d in
  the second, rotated by d = px mod m, and also at Wc + d - m when L is
  padded.  A word tree refreshes what it was written at its next diff
  or shift.
- ``SumSet`` is S as one m-bit int, joined from the first tree's
  windows in C at the end; its residue list is built only when
  ``ascending()`` asks for it.

A piece's diff thus costs O(windows it reports or adds + 1), besides its
shift and the refresh of the windows it writes, and never O(m).
"""

from itertools import chain, compress, repeat
from math import gcd
from random import Random
from types import SimpleNamespace

from .hashed_tree import HashedShiftTree
from .hashing import make_context
from .tag_store import TagStore
from .tagged_tree import TaggedShiftTree

BACKENDS = ("hashed", "tagged", "naive")

# Hashed solves, each on its own context, before a collision is raised
_ATTEMPTS = 3

# _REV[b] is byte b with its eight bits in reverse order, built a bit at a
# time at import: the bytes below 2**(k+1) are those below 2**k, then the
# same with bit k set, which reversed is bit 7 - k
_REV = b"\0"
for _k in range(8):
    _REV += bytes(r | 128 >> _k for r in _REV)
del _k

# _ONE maps the digits "0" and "1" of bin() to the bytes 0 and 1
_ONE = bytes.maketrans(b"01", b"\0\1")


class HashCollisionError(RuntimeError):
    """The hashed backend reported an inconsistent difference set on
    each of its ``_ATTEMPTS`` solves.

    The trees keep exact polynomial sums of their L/W windows of W = 4096
    bits (L = m for a power of two m, else the smallest power of two
    >= 2m) at a random point r in [0, p), whose residues modulo p, a
    random prime in [2**80, 2**81), are the windows' hashes: by the bound
    in ``HashedShiftTree``, one diff misses a difference with probability
    below (L/W) log L / 2**80 + max(1, L/2**17) * 2**-68.5 < L / 2**80
    (below 1e-16 at every modulus the CLI accepts), and never when
    L <= W, whose one window compares exactly.  The check runs on every
    diff, one per piece of a value's copies: the popcount of each
    reported window's ``own ^ theirs``, summed, must be twice that of its
    new sums ``theirs & ~own``, since every new sum pairs with the old
    sum it rotated in from.  A collision that hides a balanced set of
    differences, as many new sums as old ones, passes unseen and leaves
    those sums out of the result.  One that hides every difference of a
    piece's diff also makes S look closed under x: the solver then ends
    the value, sets ``closed`` to gcd(closed, x) and skips every later
    multiple of it, a whole coset class of values, and loses their sums
    too.  A solve that trips the check starts over on a new context; this
    is raised only when the last one trips it too.
    """


def _check_modulus(m) -> None:
    if not (isinstance(m, int) and m >= 1):
        raise ValueError(f"modulus must be an integer >= 1, got {m!r}")


class Instance(SimpleNamespace):
    """A multiset of residues: mult[x] copies of each x in [0, m).  The
    modulus, the multiplicities and ``from_pairs``' values are integers (a
    bool passes), checked before any table is built."""

    def __init__(self, m: int, mult: list[int]):
        _check_modulus(m)
        if len(mult) != m:
            raise ValueError(
                f"multiplicity table has {len(mult)} entries, expected {m}")
        if not all(map(isinstance, mult, repeat(int))):
            raise ValueError("multiplicities must be integers")
        if min(mult) < 0:
            raise ValueError("multiplicities must be >= 0")
        super().__init__(m=m, mult=mult)

    def __reduce__(self):
        # SimpleNamespace unpickles by calling the class with no arguments
        return type(self), (self.m, self.mult)

    @classmethod
    def from_pairs(cls, m: int, pairs) -> "Instance":
        """Build from (value, multiplicity) pairs; values reduce mod m and
        multiplicities of equal residues accumulate."""
        _check_modulus(m)
        mult = [0] * m
        for value, count in pairs:
            if not (isinstance(value, int) and isinstance(count, int)):
                raise ValueError(f"value {value!r} and multiplicity "
                                 f"{count!r} must be integers")
            if count < 0:
                raise ValueError(f"negative multiplicity for value {value}")
            mult[value % m] += count
        return cls(m, mult)


def bit_positions(windows, q: int) -> list[int]:
    """The positions c * 2**q + i of the set bits i of ``(c, bits)``
    windows, window by window, lowest first; O(1) per position."""
    out: list[int] = []
    for c, w in windows:
        base = c << q
        if w.bit_count() > 64:
            # a dense window: one C pass over all its bits, as bytes 0/1,
            # beats a Python step per set bit
            out += compress(range(base, base + (1 << q)),
                            bin(w)[:1:-1].encode().translate(_ONE))
            continue
        while w:
            low = w & -w
            out.append(base + low.bit_length() - 1)
            w ^= low
    return out


class SumSet:
    """Attainable residues mod m as one m-bit int: bit d of ``bits`` is set
    iff d is attainable.

    0 is always attainable (the empty subset), so ``SumSet(m)`` is {0}.
    A membership test reads one bit and ``len`` counts the set bits; the
    residue list, in ascending order, is built only by ``ascending()`` and
    iteration: a dense S, more than m/8 residues, in one C pass over the
    int's binary digits, and a sparse one from its nonempty 512-bit
    windows.
    """

    def __init__(self, m: int, bits: int = 1):
        self.m = m
        self.bits = bits

    def __contains__(self, d) -> bool:
        return isinstance(d, int) and 0 <= d < self.m and bool(
            self.bits >> d & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self):
        return iter(self.ascending())

    def ascending(self) -> list[int]:
        if self.bits.bit_count() > self.m >> 3:
            # the whole int as one window of 2**q >= m bits
            return bit_positions([(0, self.bits)], self.m.bit_length())
        raw = self.bits.to_bytes(-(-self.m // 512) * 64, "little")
        windows = [int.from_bytes(raw[i:i + 64], "little")
                   for i in range(0, len(raw), 64)]
        return bit_positions(compress(enumerate(windows), windows), 9)

    def __eq__(self, other):
        if not isinstance(other, SumSet):
            return NotImplemented
        return self.m == other.m and self.bits == other.bits


class SolverStats(SimpleNamespace):
    """Counters of one solve.  With the trees, ``bellman_iterations``
    counts the diffs, one per piece of a value's copies, and
    ``reported_differences`` their output; the rest sum over
    both trees (``store_ops`` over their shared tag store), and
    ``updates`` counts the inner nodes that shifts and writes refreshed.
    The naive backend counts its bitset passes as ``bellman_iterations``."""

    def __init__(self, backend: str = ""):
        super().__init__(backend=backend, bellman_iterations=0,
                         reported_differences=0, updates=0, diff_visits=0,
                         store_ops=0)


class SolveResult(SimpleNamespace):
    """A solve's ``sums`` and ``stats``, passed by keyword."""


def solve_naive(inst: Instance, stats: SolverStats | None = None) -> SumSet:
    """Direct dynamic programming over S <- S ∪ (S + x); the ground truth.

    S is one Python int used as a bitset (bit j set iff j is attainable), so
    a pass is S | rot(S, x) in O(m / word) machine steps.  Multiplicities are
    capped at m passes per value (further copies cannot add residues), and a
    value's remaining copies are skipped once a pass adds nothing.  The
    int is the returned ``SumSet``'s ``bits``.
    """
    m = inst.m
    full = (1 << m) - 1
    bits = 1
    for x in range(1, m):
        for _ in range(min(inst.mult[x], m)):
            if stats is not None:
                stats.bellman_iterations += 1
            grown = bits | ((bits << x | bits >> (m - x)) & full)
            if grown == bits:
                break
            bits = grown
    return SumSet(m, bits)


def _bitrev_classes(mult: list, width: int):
    """Yield the values x in [1, m) with ``mult[x] > 0`` in bit-reversed
    order over ``width`` bits, as one sorted list per class x = r (mod K),
    K = 2**k: the classes come in the k-bit reversed order of r, and each
    is sorted only when it is asked for.  Empty classes are skipped."""
    m = len(mult)
    k = min(8, max(width - 7, 0))   # at most 64 residues a class below k = 8
    K = 1 << k
    # x's little-endian bytes, each bit-reversed, are x bit-reversed over
    # a whole number of bytes, so they sort in the bit-reversed order
    nb = (width + 7) >> 3
    for i in range(K):
        r = _REV[i] >> (8 - k) or K     # x = 0 adds nothing: start at K
        cls = mult[r::K]
        if cls.count(0) != len(cls):
            yield sorted(compress(range(r, m, K), cls), key=lambda x:
                         x.to_bytes(nb, "little").translate(_REV))


def solve_with_stats(inst: Instance, backend: str = "tagged",
                     seed: int | None = None) -> SolveResult:
    """Solve and report operation counters.

    ``seed`` draws the hashed backend's hash prime and point and is ignored
    otherwise.  A hashed solve that trips ``HashCollisionError`` starts
    over on a new context, up to ``_ATTEMPTS`` solves in all, and the
    error is raised only by the last.  Each retry's seed derives from the
    one before, so a seeded solve stays deterministic; with no seed, each
    draws afresh.  The counters are those of the solve that returned.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "naive":
        stats = SolverStats(backend=backend)
        return SolveResult(sums=solve_naive(inst, stats), stats=stats)
    for attempt in range(1, _ATTEMPTS + 1):
        try:
            return _solve_trees(inst, backend, seed)
        except HashCollisionError:
            if attempt == _ATTEMPTS:
                raise
            if seed is not None:
                seed = Random(seed).getrandbits(64)


def _solve_trees(inst: Instance, backend: str,
                 seed: int | None) -> SolveResult:
    """One solve on two word trees of the ``hashed`` or ``tagged`` variant."""
    stats = SolverStats(backend=backend)
    m = inst.m
    # a power-of-two m is its trees' length, so a rotation of the trees is
    # one mod m; any other m pads to the smallest L = 2**width >= 2m
    width = (m - 1 if m & (m - 1) == 0 else 2 * m - 1).bit_length()
    L = 1 << width
    # offsets of S's copies in the second tree: one copy when L = m, else
    # a second one past the gap, m before the first (mod L)
    copies = (0,) if L == m else (0, -m)

    # both word trees share one hash context or one tag store
    if backend == "hashed":
        tree, shared = HashedShiftTree, make_context(L, seed)
    else:
        tree, shared = TaggedShiftTree, TagStore()
    t1, t2 = tree.packed(width, shared), tree.packed(width, shared)
    t1.set_bits([(0, 1)], 1)              # S = {0}, padded with the zeros
    t2.set_bits([(d % L, 1) for d in copies], 1)  # and its copies

    q = t1.q
    count = 1                           # |S|
    at = 0                              # t2 holds the double string rotated by at
    closed = m                          # S + g = S for every multiple g of it
    for x in chain.from_iterable(_bitrev_classes(inst.mult, width)):
        if x % closed == 0:
            continue                    # S + x = S: no shift, no diff
        left, p = inst.mult[x], 1       # copies not yet joined, next piece
        while left and count < m:
            # p copies at once: S becomes S ∪ (S + px), one diff at px
            d = p * x % m
            t2.shift(d - at)
            at = d
            stats.bellman_iterations += 1
            found = t1.diff_windows(t2, 0, m - 1)
            new = []                    # (window, its new sums)
            reported = fresh = 0
            for c, own, theirs in found:
                reported += (own ^ theirs).bit_count()
                # set in the rotated copy, not yet in S: theirs & ~own,
                # without the complement's slow negative int
                if b := (own | theirs) ^ own:
                    fresh += b.bit_count()
                    new.append((c, b))
            stats.reported_differences += reported
            if reported != 2 * fresh:
                # each reported position must be a new sum or the old sum
                # it rotated in from; an imbalance means a difference was
                # missed
                if backend == "hashed":
                    raise HashCollisionError(f"{reported} differences but "
                                             f"{fresh} new sums at shift {d}")
                raise AssertionError("tagged diff returned an unbalanced set")
            if not new:
                closed = gcd(closed, x)  # S + x = S, by the piece lemma
                break
            count += fresh
            t1.set_bits([(c << q, bits) for c, bits in new], 1)
            t2.set_bits([((c << q) + d + e, bits) for c, bits in new
                         for e in copies], 1)
            left -= p
            p = min(2 * p, left)
        if count == m:
            break                       # every residue attainable

    stats.updates = t1.update_calls + t2.update_calls
    stats.diff_visits = t1.diff_visits + t2.diff_visits
    if backend == "tagged":
        stats.store_ops = shared.ops
    # the first tree never rotates, so its leaves are S's windows in order;
    # a window of 2**q bits is whole bytes, unless it is the only window
    sums = SumSet(m, int.from_bytes(b"".join(
        w.to_bytes(-(-(1 << q) // 8), "little") for w in t1.nodes[t1.size:]),
        "little"))
    return SolveResult(sums=sums, stats=stats)


def solve(inst: Instance, backend: str = "tagged",
          seed: int | None = None) -> SumSet:
    """All residues attainable as subset sums of the instance, mod m."""
    return solve_with_stats(inst, backend=backend, seed=seed).sums

"""All attainable subset sums modulo m.

The driving recurrence is S <- S ∪ (S + x) per element copy.  Instead of
recomputing S + x, compare the membership bit-string s against its rotation
by x and read off the changed positions: each is either a brand-new sum or
the position it rotated in from, in equal numbers.  Two shift trees make
that comparison output-sensitive.

Only a value's first copy needs the comparison.  Let New_i be the sums the
i-th copy of x adds.  Then S_(i-1) + x is (S_(i-2) + x) ∪ (New_(i-1) + x),
and the first part already lies in S_(i-1), so

    New_i = (New_(i-1) + x) \\ S_(i-1):

the later copies follow the orbit of the first copy's new sums under +x,
at O(|New_(i-1)|) list work each, until a copy adds nothing.  All the new
sums of one value then reach each tree in one batched write.

Only the values x present in the instance are visited, in bit-reversed
order, and the rotated tree moves from one to the next by the net delta.
Neighbours in that order share as many low bits as the cheapest step of
the full bit-reversal schedule between them, so the rotations cost no more
than that schedule (linearithmic) and far less when few values are
present.  The solve stops as soon as every residue is attainable.

The modulus is rarely a power of two, so the trees hold padded strings of
length L = the smallest power of two >= 2m: one tree holds s padded, the
other two copies of s around a gap, so that for any rotation d <= m the
first m characters of the rotated double string are exactly the rotation
of s.  A present residue's letter is 1; the padding, the gap and the
absent residues keep the 0 a fresh tree starts with.  Both trees are word
trees (``ShiftTree.packed``): the 0/1 string sits in L/512 windows of 512
bits (one window of L bits when L < 512), so the trees are nine levels
shallower than trees of letters, and a fresh one already holds the zero
string.  Their diff stops at the leaves.  The hashed backend hashes the
windows modulo a random 81-bit prime at a random point, both drawn from
``seed``.
"""

from itertools import compress, repeat
from types import SimpleNamespace

from .hashed_tree import HashedShiftTree
from .hashing import make_context
from .tag_store import TagStore
from .tagged_tree import TaggedShiftTree

BACKENDS = ("hashed", "tagged", "naive")

# _REV[b] is byte b with its eight bits in reverse order
_REV = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


class HashCollisionError(RuntimeError):
    """The hashed backend reported an inconsistent difference set.

    The trees hash their L/512 windows modulo p, a random prime in
    [2**80, 2**81), at a random point r in [0, p): by the bound in
    ``HashedShiftTree``, one diff misses a difference with probability
    below (L/512) (log L + 2**8.5) / 2**80 < L / 2**80 (below 1e-16 at
    every modulus the CLI accepts).  The check runs once per visited
    value, on its one diff: the reported positions must split evenly into
    new sums and the old sums they rotated in from.  A collision that
    hides a balanced set of differences, as many new sums as old ones,
    passes unseen and leaves those sums (and their orbit under the value's
    later copies) out of the result.
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

    def total_count(self) -> int:
        return sum(self.mult)


class SumSet:
    """Attainable residues: a membership bitmap plus insertion order.

    0 is always attainable (the empty subset).
    """

    def __init__(self, m: int):
        self.m = m
        self.member = [False] * m
        self.member[0] = True
        self.order = [0]

    def add(self, d: int) -> None:
        if not self.member[d]:
            self.member[d] = True
            self.order.append(d)

    def __contains__(self, d) -> bool:
        return isinstance(d, int) and 0 <= d < self.m and self.member[d]

    def __len__(self) -> int:
        return len(self.order)

    def __iter__(self):
        return iter(self.order)

    def ascending(self) -> list[int]:
        return sorted(self.order)

    def __eq__(self, other):
        # same residues, whatever order the backend found them in
        if not isinstance(other, SumSet):
            return NotImplemented
        return self.m == other.m and self.member == other.member


class SolverStats(SimpleNamespace):
    """Counters of one solve.  With the trees, ``bellman_iterations``
    counts each visited value's diff and each later copy that added sums,
    and ``reported_differences`` counts diff output only; the rest sum over
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
    residues are recorded in ascending order.
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
    sums = SumSet(m)
    for j, bit in enumerate(bin(bits)[:1:-1]):  # bit j of S at index j
        if bit == "1":
            sums.add(j)
    return sums


def solve_with_stats(inst: Instance, backend: str = "tagged",
                     seed: int | None = None) -> SolveResult:
    """Solve and report operation counters.

    ``seed`` draws the hashed backend's hash prime and point and is ignored
    otherwise.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    stats = SolverStats(backend=backend)
    if backend == "naive":
        return SolveResult(sums=solve_naive(inst, stats), stats=stats)

    m = inst.m
    sums = SumSet(m)
    width = (2 * m - 1).bit_length()  # smallest width with 2**width >= 2m
    L = 1 << width

    # both word trees share one hash context or one tag store
    if backend == "hashed":
        tree, shared = HashedShiftTree, make_context(L, seed)
    else:
        tree, shared = TaggedShiftTree, TagStore()
    t1, t2 = tree.packed(width, shared), tree.packed(width, shared)
    t1.set_many((0,), 1)              # S = {0}, padded with the fresh zeros
    t2.set_many((0, L - m), 1)        # two copies of it around the gap

    member = sums.member
    mult = inst.mult
    # x's little-endian bytes, each bit-reversed, are x bit-reversed over
    # a whole number of bytes: they sort in the bit-reversed order
    nb = (width + 7) >> 3
    present = sorted(compress(range(1, m), mult[1:]),
                     key=lambda x: x.to_bytes(nb, "little").translate(_REV))
    at = 0                              # t2 holds the double string rotated by at
    for x in present:
        t2.shift(x - at)
        at = x
        stats.bellman_iterations += 1
        diffs = t1.diff(t2, 0, m - 1)
        stats.reported_differences += len(diffs)
        new = [d for d in diffs if not member[d]]
        if len(diffs) != 2 * len(new):
            # each reported position must be a new sum or the old sum it
            # rotated in from; an imbalance means a difference was missed
            if backend == "hashed":
                raise HashCollisionError(
                    f"{len(diffs)} differences but {len(new)} new sums "
                    f"at shift {x}")
            raise AssertionError("tagged diff returned an unbalanced set")
        for d in new:
            sums.add(d)
        added = list(new)
        # each later copy's new sums follow exactly from the last copy's
        for _ in range(mult[x] - 1):
            new = [e for e in ((d + x) % m for d in new) if not member[e]]
            if not new:
                break                   # S is stable under +x
            stats.bellman_iterations += 1
            for d in new:
                sums.add(d)
            added += new
        if added:
            t1.set_many(added, 1)
            t2.set_many([(d + r) % L for d in added for r in (x, x - m)], 1)
        if len(sums) == m:
            break                       # every residue attainable

    stats.updates = t1.update_calls + t2.update_calls
    stats.diff_visits = t1.diff_visits + t2.diff_visits
    if backend == "tagged":
        stats.store_ops = shared.ops
    return SolveResult(sums=sums, stats=stats)


def solve(inst: Instance, backend: str = "tagged",
          seed: int | None = None) -> SumSet:
    """All residues attainable as subset sums of the instance, mod m."""
    return solve_with_stats(inst, backend=backend, seed=seed).sums

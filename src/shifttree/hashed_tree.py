"""Hash-backed shift tree.

Every inner node holds the exact polynomial sum of the substring its
subtree covers, never reduced mod p: its residue mod p is the substring's
hash (see ``hashing``), and equal substrings hold equal sums.  So two
subtrees compare in one integer compare with high probability: the diff
walk settles a node pair when the two sums are equal.  It compares the
letters of an unequal block pair exactly.  Any context serves a word tree
too: its windows are its letters, compared exactly in a block, and may
exceed p.
The node array, the writes and the diff walk come from ``ShiftTree``.
"""

from itertools import repeat

from .hashing import HashContext
from .shift_tree import _WHOLE_LEVEL, ShiftTree


class HashedShiftTree(ShiftTree):
    """A string of length 2**n with hashed subtree summaries.

    Letters are integers in [0, ctx.p), so every integer below 2**80 is
    one.  A node's summary is left + right * r**(2**(h-1)) over its two
    children, h its height, with the square reduced mod p and the sum
    not: for letters of at most b bits (81 in a tree of letters, 4096 in
    a word tree) a node holds fewer than b + 81h bits.  A sum is linear
    in its letters, so a point write adds its change to each ancestor:
    one addition per level, on integers of at most b + 81 log m bits,
    with a multiplication by the level's 81-bit square only where the
    leaf sits in a right child (where the offset bit of its position is
    1), and no division.  A write of the letter already there adds
    nothing and is skipped.  A fresh
    tree represents the all-zero string (every subtree sum of a zero
    string is 0, so the zeroed node array is already consistent).
    ``diff`` is correct unless a hash collision hides a genuine
    difference; equal sums have equal hashes, so the bound on hashes
    bounds sums too.  It compares sums only at or above block level,
    on levels 0..max(n - 6, 0) of a tree of m = 2**n leaves: at most
    log m levels with hashes (a tree of one leaf has none), whose node
    pairs cover at most m leaves per level, so by the bound in ``hashing``
    it fails with probability below m log m / 2**80 per call.  For a word
    tree's ``diff_windows``, whose windows of 4096 bits may exceed p, add
    2**-68.5 per node pair at or above block level: max(1, m/32) * 2**-68.5
    at most.
    """

    def __init__(self, n: int, ctx: HashContext):
        super().__init__(n, 0)
        if ctx.max_len < self.size:
            raise ValueError("hash context too short for this tree")
        self.ctx = ctx

    def _check(self, letters) -> None:
        # a float would hash mod p and collapse onto an integer's hash
        if not all(map(isinstance, letters, repeat(int))):
            raise ValueError("letters must be integers")
        self._check_letter(min(letters))
        self._check_letter(max(letters))

    def _check_letter(self, x) -> None:
        if not (isinstance(x, int) and 0 <= x < self.ctx.p):
            raise ValueError(f"letter {x!r} is not an integer in "
                             f"[0, {self.ctx.p})")

    def _write(self, j: int, x) -> None:
        # A sum is linear in its letters: the leaf's change d, times the
        # squares of the levels where the chain climbs out of a right
        # child, is each ancestor's change.  No sibling is read.
        sums = self.nodes
        n = self.n
        d = x - sums[j]
        sums[j] = x
        i = j
        bits = self.topo.delta
        width = self.size  # first node of i's level
        for pw in self.ctx.squares[:n]:
            i += bits & 1  # odd iff i is its parent's right child
            bits >>= 1
            if i & 1:
                d *= pw
            i >>= 1
            if i == width:  # the wrap: the last node's parent
                i >>= 1
            sums[i] += d
            width >>= 1
        self.update_calls += n

    def _refresh(self, level: int, dirty) -> None:
        sums = self.nodes
        squares = self.ctx.squares
        n = self.n
        calls = 0
        for k, s, parents in self.topo.ancestors(level, dirty):
            width = 2 << k
            pw = squares[n - k - 1]  # r**(leaves under a left child)
            if type(parents) is range and len(parents) >= _WHOLE_LEVEL:
                # a whole level: one pass over its children's two rows
                left, right = self.topo.children(sums, k)
                sums[width >> 1:width] = [
                    x + y * pw for x, y in zip(left, right)]
            else:
                for i in parents:
                    sums[i] = (sums[(2 * i - s) | width]
                               + sums[2 * i + 1 - s] * pw)
            calls += len(parents)
        self.update_calls += calls

    def _equality(self, other: "HashedShiftTree") -> tuple:
        # a tree of the other variant has no context, so it fails here too
        if getattr(other, "ctx", None) is not self.ctx:
            raise ValueError("trees must share one hash context")
        return None, None, None, None

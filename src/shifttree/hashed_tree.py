"""Hash-backed shift tree.

Every inner node holds the polynomial hash of the substring its subtree
covers, so two subtrees compare in O(1) with high probability.  A diff
descends through unequal hashes only down to blocks of 64 positions; there
it compares the letters of an unequal block pair in one pass, which is
exact.  The node array and the writes come from ``ShiftTree``.
"""

from itertools import compress
from operator import ne

from .hashing import HashContext
from .shift_tree import ShiftTree
from .topology import _BLOCK

# Whole levels narrower than this refresh node by node: the one-pass
# refresh costs about 1.5 us before its first node, more than the per-node
# loop spends on so few.
_WHOLE_LEVEL_MIN = 32


class HashedShiftTree(ShiftTree):
    """A string of length 2**n with hashed subtree summaries.

    Letters are integers in [0, ctx.p).  A fresh tree represents the
    all-zero string (every subtree hash of a zero string is 0, so the
    zeroed node array is already consistent).
    """

    def __init__(self, n: int, ctx: HashContext):
        super().__init__(n, 0)
        if ctx.max_len < self.size:
            raise ValueError("hash context power table too small for this tree")
        self.ctx = ctx

    def _check(self, letters) -> None:
        self._check_letter(min(letters))
        self._check_letter(max(letters))

    def _check_letter(self, x) -> None:
        if not 0 <= x < self.ctx.p:
            raise ValueError(f"letter {x} outside [0, {self.ctx.p})")

    def _refresh(self, level: int, dirty) -> None:
        hashes = self.nodes
        powers = self.ctx.powers
        p = self.ctx.p
        calls = 0
        for k, s, parents in self.topo.ancestors(level, dirty):
            width = 2 << k
            pw = powers[self.size >> (k + 1)]  # leaf count under a left child
            if type(parents) is range and len(parents) >= _WHOLE_LEVEL_MIN:
                # a whole level: one pass over its children's two rows
                left, right = self.topo.children(hashes, k)
                hashes[width >> 1:width] = [
                    (x + y * pw) % p for x, y in zip(left, right)]
            else:
                for i in parents:
                    hashes[i] = (hashes[(2 * i - s) % width + width]
                                 + hashes[(2 * i + 1 - s) % width + width]
                                 * pw) % p
            calls += len(parents)
        self.update_calls += calls

    def diff(self, other: "HashedShiftTree", a: int, b: int) -> list[int]:
        """Positions in [a, b] where this string and ``other``'s differ.

        Ascending order.  Correct unless a hash collision hides a genuine
        difference (probability <= m log m / p per call).
        """
        self._check_diff(other, a, b)
        if other.ctx is not self.ctx:
            raise ValueError("trees must share one hash context")
        out: list[int] = []
        n = self.n
        size = self.size
        t_nodes = self.nodes
        q_nodes = other.nodes
        t_delta = self.topo.delta
        q_delta = other.topo.delta
        t_letters = self.topo.letters
        q_letters = other.topo.letters
        visits = 0

        def walk(i: int, j: int, x: int, y: int) -> None:
            nonlocal visits
            visits += 1
            if y < a or b < x or t_nodes[i] == q_nodes[j]:
                return
            if y - x < _BLOCK:
                # a leaf block: compare its letters within [a, b] at C level
                lo = a if x < a else x
                hi = b if b < y else y
                out.extend(compress(range(lo, hi + 1), map(
                    ne, t_letters(t_nodes, lo, hi),
                    q_letters(q_nodes, lo, hi))))
                return
            z = (x + y + 1) >> 1
            # child links, inlined from Topology for the hot path; i and j
            # sit on the same level, so they share the block width
            bl = i.bit_length()
            width = 1 << bl
            ts = (t_delta >> (n - bl)) & 1
            qs = (q_delta >> (n - bl)) & 1
            walk((2 * i - ts) % width + width,
                 (2 * j - qs) % width + width, x, z - 1)
            walk((2 * i + 1 - ts) % width + width,
                 (2 * j + 1 - qs) % width + width, z, y)

        walk(1, 1, 0, size - 1)
        self.diff_visits += visits
        return out

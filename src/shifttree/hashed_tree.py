"""Hash-backed shift tree.

Maintains a string of length 2**n under point writes, cyclic rotations, and
difference listing against another tree.  Leaves store the letters; every
inner node stores the hash of the substring its subtree covers, so two
subtrees compare in O(1) with high probability.  A diff descends through
unequal hashes only down to blocks of 64 positions; there it compares the
letters of an unequal block pair in one pass, which is exact.
"""

from itertools import compress
from operator import ne

from .hashing import HashContext
from .topology import _BLOCK, Topology


class HashedShiftTree:
    """A string of length 2**n with hashed subtree summaries.

    Costs: ``init`` O(m); ``set`` O(log m); ``set_many`` O(b log m) for b
    positions; ``shift(k)`` O(m / 2**j) where 2**j is the largest power of
    two dividing k; ``diff`` O((d+1) log m) for d reported differences.
    Letters are integers in [0, ctx.p).

    A fresh tree represents the all-zero string (every subtree hash of a
    zero string is 0, so the zeroed node array is already consistent).
    """

    def __init__(self, n: int, ctx: HashContext):
        self.topo = Topology(n)
        self.n = n
        self.size = 1 << n
        if ctx.max_len < self.size:
            raise ValueError("hash context power table too small for this tree")
        self.ctx = ctx
        self.nodes = [0] * (2 * self.size)  # index 0 unused; leaves at [size, 2*size)
        self.update_calls = 0
        self.diff_visits = 0

    def init(self, letters) -> None:
        """Load a full string, reset the rotation, rebuild every inner hash."""
        vals = list(letters)
        if len(vals) != self.size:
            raise ValueError(f"expected {self.size} letters, got {len(vals)}")
        p = self.ctx.p
        if vals and not (min(vals) >= 0 and max(vals) < p):
            raise ValueError(f"letters must lie in [0, {p})")
        self.topo.delta = 0
        self.nodes[self.size:] = vals
        self._recompute(self.n, range(self.size, 2 * self.size))

    def set(self, pos: int, x: int) -> None:
        """Overwrite the letter at string position ``pos``."""
        if not 0 <= x < self.ctx.p:
            raise ValueError(f"letter {x} outside [0, {self.ctx.p})")
        j = self.topo.leaf_of_position(pos)
        self.nodes[j] = x
        self._recompute(self.n, (j,))

    def set_many(self, positions, x: int) -> None:
        """Write letter ``x`` at each of ``positions``; repeats are allowed."""
        if not 0 <= x < self.ctx.p:
            raise ValueError(f"letter {x} outside [0, {self.ctx.p})")
        leaves = {self.topo.leaf_of_position(pos) for pos in positions}
        for j in leaves:
            self.nodes[j] = x
        self._recompute(self.n, leaves)

    def shift(self, k: int) -> None:
        """Rotate the string right by ``k`` (negative rotates left)."""
        k %= self.size
        if k == 0:
            return
        self.topo.delta = (self.topo.delta + k) % self.size
        # subtrees of size k & -k moved wholesale; only nodes above them change
        level = self.n - (k & -k).bit_length() + 1
        self._recompute(level, range(1 << level, 2 << level))

    def _recompute(self, level: int, nodes) -> None:
        # Rehash the distinct ancestors of ``nodes`` (all on ``level``)
        # bottom-up, each from its two children.
        hashes = self.nodes
        powers = self.ctx.powers
        p = self.ctx.p
        calls = 0
        for k, s, parents in self.topo.ancestors(level, nodes):
            width = 2 << k
            pw = powers[self.size >> (k + 1)]  # leaf count under a left child
            for i in parents:
                hashes[i] = (hashes[(2 * i - s) % width + width]
                             + hashes[(2 * i + 1 - s) % width + width] * pw) % p
            calls += len(parents)
        self.update_calls += calls

    def diff(self, other: "HashedShiftTree", a: int, b: int) -> list[int]:
        """Positions in [a, b] where this string and ``other``'s differ.

        Ascending order.  Correct unless a hash collision hides a genuine
        difference (probability <= m log m / p per call).
        """
        if other.n != self.n:
            raise ValueError("trees must have equal depth")
        if other.ctx is not self.ctx:
            raise ValueError("trees must share one hash context")
        if not 0 <= a <= b < self.size:
            raise ValueError(f"bad interval [{a}, {b}] for size {self.size}")
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
                    ne, t_letters(t_nodes, lo, hi, size),
                    q_letters(q_nodes, lo, hi, size))))
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

    def materialize(self) -> list[int]:
        """The maintained string as a letter list; O(m)."""
        return self.topo.letters(self.nodes, 0, self.size - 1, self.size)

"""The shift-tree skeleton both tree variants share.

One node array of 2**(n+1) entries holds a string of length 2**n: leaf slot
j (node ``size + j``) holds a letter, and inner node i in [1, size) holds a
summary of the substring its subtree covers.  Every write stores letters or
moves the rotation offset, then refreshes the dirty inner nodes level by
level.  A variant supplies what a summary is: ``_refresh``, its letter
checks and ``diff``.
"""

from .topology import Topology


class ShiftTree:
    """A string of length 2**n under point writes, cyclic rotations and
    difference listing against another tree of the same variant.

    Costs: ``init`` O(m); ``set`` O(log m); ``set_many`` O(b log m) for b
    positions; ``shift(k)`` O(m / 2**j) where 2**j is the largest power of
    two dividing k; ``diff`` O((d+1) log m) for d reported differences.
    A fresh tree holds ``size`` copies of ``letter``, which its inner
    nodes must already summarise.
    """

    def __init__(self, n: int, letter):
        self.topo = Topology(n)
        self.n = n
        self.size = 1 << n
        # index 0 unused; summaries at [1, size), letters at [size, 2*size)
        self.nodes = [letter] * (2 * self.size)
        self.update_calls = 0
        self.diff_visits = 0

    def _refresh(self, level: int, dirty) -> None:
        """Recompute the distinct ancestors of ``dirty`` (all on ``level``)
        bottom-up from their children; count them in ``update_calls``."""
        raise NotImplementedError

    def _check(self, letters) -> None:
        """Raise ValueError unless every letter of the list is valid; any
        letter is, unless a variant restricts its alphabet."""

    def _check_letter(self, x) -> None:
        """``_check`` for the one letter of a point write."""

    def init(self, letters) -> None:
        """Load a full string, reset the rotation, refresh every inner node."""
        vals = list(letters)
        if len(vals) != self.size:
            raise ValueError(f"expected {self.size} letters, got {len(vals)}")
        self._check(vals)
        self.topo.delta = 0
        self.nodes[self.size:] = vals
        self._refresh(self.n, range(self.size, 2 * self.size))

    def set(self, pos: int, x) -> None:
        """Overwrite the letter at string position ``pos``."""
        self._check_letter(x)
        j = self.topo.leaf_of_position(pos)
        self.nodes[j] = x
        self._refresh(self.n, (j,))

    def set_many(self, positions, x) -> None:
        """Write letter ``x`` at each of ``positions``; repeats are allowed."""
        self._check_letter(x)
        slots = {self.topo.leaf_of_position(pos) for pos in positions}
        for j in slots:
            self.nodes[j] = x
        self._refresh(self.n, slots)

    def shift(self, k: int) -> None:
        """Rotate the string right by ``k`` (negative rotates left)."""
        k %= self.size
        if k == 0:
            return
        self.topo.delta = (self.topo.delta + k) % self.size
        # subtrees of size k & -k moved wholesale; only nodes above them change
        level = self.n - (k & -k).bit_length() + 1
        self._refresh(level, range(1 << level, 2 << level))

    def _check_diff(self, other: "ShiftTree", a: int, b: int) -> None:
        # the argument checks every variant's diff starts with
        if other.n != self.n:
            raise ValueError("trees must have equal depth")
        if not 0 <= a <= b < self.size:
            raise ValueError(f"bad interval [{a}, {b}] for size {self.size}")

    def materialize(self) -> list:
        """The maintained string as a letter list; O(m)."""
        return self.topo.letters(self.nodes, 0, self.size - 1)

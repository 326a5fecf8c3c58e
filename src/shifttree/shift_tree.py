"""The shift-tree skeleton both tree variants share.

One node array of 2**(n+1) entries holds a string of length 2**n: leaf slot
j (node ``size + j``) holds a letter, and inner node i in [1, size) holds a
summary of the substring its subtree covers.  Every write stores letters or
moves the rotation offset, then refreshes the dirty inner nodes level by
level.  The one diff walk lives here too.  A variant supplies what a
summary is: ``_refresh``, its letter checks and ``_equality``, which says
when two summaries prove their subtrees equal.
"""

from itertools import compress, repeat
from operator import ne

from .topology import Topology

# Width of a leaf block: a diff stops descending at a node covering at most
# this many positions and compares the block's letters in one C-level pass.
_BLOCK = 64

# Node entry of a mixed inner node in a tree of letters.  It is never ``==``
# to a letter: a refresh relies on this to tell a uniform pair of children,
# and the diff walk to settle a uniform node only against a uniform one.
_MIXED = object()


class ShiftTree:
    """A string of length 2**n under point writes, cyclic rotations and
    difference listing against another tree of the same variant.

    Costs: ``init`` O(m); ``set`` O(log m); ``set_many`` O(b log m) for b
    positions; ``shift(k)`` O(m / 2**j) where 2**j is the largest power of
    two dividing k; ``diff`` O((d+1) log m) for d reported differences.
    A fresh tree holds ``size`` copies of ``letter``, which its inner
    nodes must already summarise.

    Every operation is shared; a variant is a node refresh, a letter check
    and a node-equality hook for the one diff walk.
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

    def _equality(self, other: "ShiftTree") -> tuple:
        """``(t_keys, q_keys, find, union)`` for a diff against ``other``,
        a tree of the same variant; raise ValueError unless the two share
        what makes their summaries comparable.  Node entries i and j that
        are ``==`` settle a pair unless they are ``_MIXED`` and
        ``find(t_keys[i]) != find(q_keys[j])``; a fully covered pair that
        yields no difference is joined by ``union``, if set."""
        raise NotImplementedError

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
        """Write letter ``x`` at each position of the iterable ``positions``
        (an iterator or a generator will do); repeats are allowed."""
        self._check_letter(x)
        if iter(positions) is positions:
            # a one-shot iterable is its own iterator: read it once, since
            # the checks below read the positions three times
            positions = list(positions)
        if not positions:
            return
        if not all(map(isinstance, positions, repeat(int))):
            raise ValueError("positions must be integers")
        # checking the extremes checks the batch
        self.topo.leaf_of_position(min(positions))
        self.topo.leaf_of_position(max(positions))
        delta = self.topo.delta
        size = self.size
        slots = {(pos - delta) % size + size for pos in positions}
        for j in slots:
            self.nodes[j] = x
        self._refresh(self.n, slots)

    def shift(self, k: int) -> None:
        """Rotate the string right by ``k`` (negative rotates left)."""
        if not isinstance(k, int):
            raise ValueError(f"shift {k!r} is not an integer")
        k %= self.size
        if k == 0:
            return
        self.topo.delta = (self.topo.delta + k) % self.size
        # subtrees of size k & -k moved wholesale; only nodes above them change
        level = self.n - (k & -k).bit_length() + 1
        self._refresh(level, range(1 << level, 2 << level))

    def diff(self, other: "ShiftTree", a: int, b: int) -> list[int]:
        """Positions in [a, b] where this string and ``other``'s differ,
        in ascending order.  ``other`` must be a tree of the same variant
        and depth that ``_equality`` accepts.  The walk descends through
        unsettled node pairs down to 64-position blocks (the whole string,
        if shorter) and compares an unsettled block pair's letters in one
        pass."""
        if other.n != self.n:
            raise ValueError("trees must have equal depth")
        if not (isinstance(a, int) and isinstance(b, int)
                and 0 <= a <= b < self.size):
            raise ValueError(f"bad interval [{a}, {b}] for size {self.size}")
        t_keys, q_keys, find, union = self._equality(other)
        out: list[int] = []
        n = self.n
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
            if y < a or b < x:
                return
            e = t_nodes[i]
            if e == q_nodes[j] and (
                    e is not _MIXED or find(t_keys[i]) == find(q_keys[j])):
                return
            before = len(out)
            if y - x < _BLOCK:
                # a leaf block: compare its letters within [a, b] at C level
                lo = a if x < a else x
                hi = b if b < y else y
                out.extend(compress(range(lo, hi + 1), map(
                    ne, t_letters(t_nodes, lo, hi),
                    q_letters(q_nodes, lo, hi))))
            else:
                z = (x + y + 1) >> 1
                # child links, inlined from Topology for the hot path; i and
                # j sit on the same level, so they share the block width
                bl = i.bit_length()
                width = 1 << bl
                ts = (t_delta >> (n - bl)) & 1
                qs = (q_delta >> (n - bl)) & 1
                walk((2 * i - ts) | width, (2 * j - qs) | width, x, z - 1)
                walk(2 * i + 1 - ts, 2 * j + 1 - qs, z, y)
            if union is not None and len(out) == before and a <= x and y <= b:
                # all of [x, y] matched: the pair's keys name equal strings
                union(t_keys[i], q_keys[j])

        walk(1, 1, 0, self.size - 1)
        self.diff_visits += visits
        return out

    def materialize(self) -> list:
        """The maintained string as a letter list; O(m)."""
        return self.topo.letters(self.nodes, 0, self.size - 1)

"""Deterministic shift tree backed by tags instead of hashes.

An inner node whose leaves all hold one letter is *uniform*: it records that
letter as its fill and holds no tag, so two uniform blocks compare by one
``==`` on their letters.  Every other inner node is *mixed* and holds a tag:
an opaque id standing for the string its subtree covered when the node was
last updated.  Tags are not unique per string; equality of the underlying
strings is learned lazily.  When a diff descends through two tags it cannot
tell apart and finds no difference below, it records their equivalence in
the shared TagStore, so the same comparison short-circuits next time.  A
diff stops descending at blocks of 64 positions and compares an unsettled
block pair's letters in one pass, so equalities are learned at or above
block level; tags below it are kept up to date but not read by diff.
Letters only need ``==``; no hashing, no order, no integer alphabet.
"""

from itertools import compress
from operator import ne

from .tag_store import TagStore
from .topology import _BLOCK, Topology

# Fill of a mixed node; never ``==`` to a letter.
_MIXED = object()


class TaggedShiftTree:
    """Same operations and costs as HashedShiftTree, times an
    inverse-Ackermann factor, but exact: diff never misses a difference.

    All trees that should be comparable must share one TagStore, and all
    operations on trees sharing a store must be externally serialized
    (diff refines the store).  An inner node's tag is null exactly when
    its block is uniform; its fill then holds the block's letter, and is
    ``_MIXED`` otherwise.  A fresh tree holds the uniform string of ``None``
    letters until ``init`` loads one.
    """

    def __init__(self, n: int, store: TagStore):
        self.topo = Topology(n)
        self.n = n
        self.size = 1 << n
        self.store = store
        self.leaves: list = [None] * self.size       # letters, leaf-slot order
        self.tags: list[int | None] = [None] * self.size  # inner nodes 1..size-1
        self.fill: list = [None] * self.size         # inner nodes 1..size-1
        self.update_calls = 0
        self.diff_visits = 0

    def init(self, letters) -> None:
        """Load a full string, reset the rotation, retag every inner node."""
        vals = list(letters)
        if len(vals) != self.size:
            raise ValueError(f"expected {self.size} letters, got {len(vals)}")
        self.topo.delta = 0
        self.leaves = vals
        self._retag(self.n, range(self.size, 2 * self.size))

    def set(self, pos: int, x) -> None:
        """Overwrite the letter at string position ``pos``."""
        j = self.topo.leaf_of_position(pos)
        self.leaves[j - self.size] = x
        self._retag(self.n, (j,))

    def set_many(self, positions, x) -> None:
        """Write letter ``x`` at each of ``positions``; repeats are allowed."""
        leaves = {self.topo.leaf_of_position(pos) for pos in positions}
        for j in leaves:
            self.leaves[j - self.size] = x
        self._retag(self.n, leaves)

    def shift(self, k: int) -> None:
        """Rotate the string right by ``k`` (negative rotates left)."""
        k %= self.size
        if k == 0:
            return
        self.topo.delta = (self.topo.delta + k) % self.size
        level = self.n - (k & -k).bit_length() + 1
        self._retag(level, range(1 << level, 2 << level))

    def _retag(self, level: int, nodes) -> None:
        # Refresh each distinct ancestor of ``nodes`` (all on ``level``) from
        # its children's letters or fills: a uniform node drops its tag, a
        # mixed one gets a fresh singleton tag in place of its old one.
        leaves = self.leaves
        fill = self.fill
        tags = self.tags
        delete_tag = self.store.delete_tag
        new_tag = self.store.new_tag
        renew = self.store.renew
        last = self.n - 1
        calls = 0
        for k, s, parents in self.topo.ancestors(level, nodes):
            width = 2 << k
            # children on the leaf level sit at leaves[c - width], others at
            # fill[c]; pick the array and offset once per level
            src, base = (leaves, 0) if k == last else (fill, width)
            for i in parents:
                left = src[(2 * i - s) % width + base]
                if left is not _MIXED \
                        and left == src[(2 * i + 1 - s) % width + base]:
                    fill[i] = left
                    old = tags[i]
                    if old is not None:
                        delete_tag(old)
                        tags[i] = None
                else:
                    fill[i] = _MIXED
                    old = tags[i]
                    tags[i] = new_tag() if old is None else renew(old)
            calls += len(parents)
        self.update_calls += calls

    def diff(self, other: "TaggedShiftTree", a: int, b: int) -> list[int]:
        """Positions in [a, b] where this string and ``other``'s differ.

        Ascending order, exact.  As a side effect, records every
        fully-verified equal pair of tagged subtrees it compared, at or
        above the 64-position block level, in the shared store.
        """
        if other.n != self.n:
            raise ValueError("trees must have equal depth")
        if other.store is not self.store:
            raise ValueError("trees must share one tag store")
        if not 0 <= a <= b < self.size:
            raise ValueError(f"bad interval [{a}, {b}] for size {self.size}")
        out: list[int] = []
        n = self.n
        size = self.size
        t_leaves = self.leaves
        q_leaves = other.leaves
        if size == 1:  # a lone leaf has no summary to check
            self.diff_visits += 1
            return [0] if t_leaves[0] != q_leaves[0] else []
        t_tags = self.tags
        q_tags = other.tags
        t_fill = self.fill
        q_fill = other.fill
        t_delta = self.topo.delta
        q_delta = other.topo.delta
        t_letters = self.topo.letters
        q_letters = other.topo.letters
        find = self.store.find
        union = self.store.union
        visits = 0

        def walk(i: int, j: int, x: int, y: int) -> None:
            nonlocal visits
            visits += 1
            if y < a or b < x:
                return
            t1 = t_tags[i]
            t2 = q_tags[j]
            if t1 is None:
                # uniform: equal to a uniform block of the same letter, and
                # never to a mixed block, so it is never unioned
                if t2 is None and t_fill[i] == q_fill[j]:
                    return
            elif t2 is not None and find(t1) == find(t2):
                return
            before = len(out)
            if y - x < _BLOCK:
                # a leaf block: compare its letters within [a, b] at C level
                lo = a if x < a else x
                hi = b if b < y else y
                out.extend(compress(range(lo, hi + 1), map(
                    ne, t_letters(t_leaves, lo, hi),
                    q_letters(q_leaves, lo, hi))))
            else:
                z = (x + y + 1) >> 1
                # child links, inlined from Topology for the hot path; i and
                # j sit on the same level, so they share the block width
                bl = i.bit_length()
                width = 1 << bl
                ts = (t_delta >> (n - bl)) & 1
                qs = (q_delta >> (n - bl)) & 1
                walk((2 * i - ts) % width + width,
                     (2 * j - qs) % width + width, x, z - 1)
                walk((2 * i + 1 - ts) % width + width,
                     (2 * j + 1 - qs) % width + width, z, y)
            if len(out) == before and a <= x and y <= b:
                # all of [x, y] matched, so both nodes are mixed and their
                # tags provably name equal strings
                union(t1, t2)

        walk(1, 1, 0, size - 1)
        self.diff_visits += visits
        return out

    def materialize(self) -> list:
        """The maintained string as a letter list; O(m)."""
        return self.topo.letters(self.leaves, 0, self.size - 1)

"""Deterministic shift tree backed by tags instead of hashes.

A node whose positions all hold one letter is *uniform*: its node entry is
that letter and it has no tag, as a leaf is a uniform block of one letter.
Every other inner node is *mixed*: its entry is ``_MIXED``.  A diff stops
at blocks of 64 positions (the whole string, if shorter) and compares an
unsettled block pair's letters in one pass, so it reads tags only at or
above block level, and only mixed nodes there hold one: an opaque id
standing for the string the node's subtree covered when it was last
updated.  Tags are not unique per string; equality of the underlying
strings is learned lazily.  When a diff descends through two tags it cannot
tell apart and finds no difference below, it records their equivalence in
the shared TagStore, so the same comparison short-circuits next time.
Below block level a node keeps only its entry, so a whole level there
refreshes in one pass.  Letters only need ``==``: no hashing, no order.
The node array and the writes come from ``ShiftTree``.
"""

from itertools import compress
from operator import ne

from .shift_tree import ShiftTree
from .tag_store import TagStore
from .topology import _BLOCK

# Node entry of a mixed inner node; never ``==`` to a letter.
_MIXED = object()


class TaggedShiftTree(ShiftTree):
    """Same operations and costs as HashedShiftTree, times an
    inverse-Ackermann factor, but exact: diff never misses a difference.

    All trees that should be comparable must share one TagStore, and all
    operations on trees sharing a store must be externally serialized
    (diff refines the store).  A fresh tree holds the uniform string of
    ``None`` letters until ``init`` loads one.  Only mixed nodes at or
    above block level hold a tag: levels 0..max(n - 6, 0), whose nodes
    cover at least min(64, 2**n) positions.
    """

    def __init__(self, n: int, store: TagStore):
        super().__init__(n, None)
        self.store = store
        # deepest level whose nodes cover a whole leaf block or more
        self._block_level = max(n - _BLOCK.bit_length() + 1, 0)
        # one slot per node at or above block level (index 0 unused)
        self.tags: list[int | None] = [None] * (2 << self._block_level)

    def _refresh(self, level: int, dirty) -> None:
        # Every node gets its letter or _MIXED.  Below block level that is
        # all, so a whole level there is one pass.  At or above it a uniform
        # node also drops its tag, and a mixed one gets a fresh singleton
        # tag in place of its old one.
        nodes = self.nodes
        tags = self.tags
        delete_tag = self.store.delete_tag
        new_tag = self.store.new_tag
        renew = self.store.renew
        block_level = self._block_level
        calls = 0
        for k, s, parents in self.topo.ancestors(level, dirty):
            width = 2 << k
            calls += len(parents)
            if k > block_level:
                if type(parents) is range:
                    left, right = self.topo.children(nodes, k)
                    nodes[width >> 1:width] = [
                        x if x is not _MIXED and x == y else _MIXED
                        for x, y in zip(left, right)]
                else:
                    for i in parents:
                        x = nodes[(2 * i - s) % width + width]
                        y = nodes[(2 * i + 1 - s) % width + width]
                        nodes[i] = x if x is not _MIXED and x == y else _MIXED
                continue
            for i in parents:
                left = nodes[(2 * i - s) % width + width]
                if left is not _MIXED \
                        and left == nodes[(2 * i + 1 - s) % width + width]:
                    nodes[i] = left
                    old = tags[i]
                    if old is not None:
                        delete_tag(old)
                        tags[i] = None
                else:
                    nodes[i] = _MIXED
                    old = tags[i]
                    tags[i] = new_tag() if old is None else renew(old)
        self.update_calls += calls

    def diff(self, other: "TaggedShiftTree", a: int, b: int) -> list[int]:
        """Positions in [a, b] where this string and ``other``'s differ.

        Ascending order, exact.  As a side effect, records every
        fully-verified equal pair of tagged subtrees it compared, at or
        above the 64-position block level, in the shared store.
        """
        self._check_diff(other, a, b)
        if other.store is not self.store:
            raise ValueError("trees must share one tag store")
        out: list[int] = []
        n = self.n
        size = self.size
        t_nodes = self.nodes
        q_nodes = other.nodes
        t_tags = self.tags
        q_tags = other.tags
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
                if t2 is None and t_nodes[i] == q_nodes[j]:
                    return
            elif t2 is not None and find(t1) == find(t2):
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

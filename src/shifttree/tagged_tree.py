"""Deterministic shift tree backed by tags instead of hashes.

A node whose positions all hold one letter is *uniform*: its node entry is
that letter and it has no tag, as a leaf is a uniform block of one letter.
Every other inner node is *mixed*: its entry is ``_MIXED``.  The diff walk
stops at blocks of 64 positions (the whole string, if shorter), so it reads
tags only at or above block level, and only mixed nodes there hold one: an
opaque id standing for the string the node's subtree covered when it was
last updated.  Tags are not unique per string; equality of the underlying
strings is learned lazily.  When a diff descends through two tags it cannot
tell apart and finds no difference below, it records their equivalence in
the shared TagStore, so the same comparison short-circuits next time.
Below block level a node keeps only its entry, so a whole level there
refreshes in one pass.  Letters only need ``==``: no hashing, no order.
The node array, the writes and the diff walk come from ``ShiftTree``.
"""

from .shift_tree import _BLOCK, ShiftTree
from .tag_store import TagStore

# Node entry of a mixed inner node.  It is never ``==`` to a letter: the
# refresh relies on this to tell a uniform pair of children, and the diff
# walk to settle a uniform node only against a uniform one of its letter.
_MIXED = object()


class TaggedShiftTree(ShiftTree):
    """Same operations and costs as HashedShiftTree, times an
    inverse-Ackermann factor, but exact: diff never misses a difference.
    A diff settles two uniform nodes by their letters and two mixed nodes
    by the classes of their tags, and unions the tags of every mixed pair
    it fully covered and found equal.

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

    def _equality(self, other: "TaggedShiftTree") -> tuple:
        # a tree of the other variant has no store, so it fails here too
        if getattr(other, "store", None) is not self.store:
            raise ValueError("trees must share one tag store")
        return self.tags, other.tags, self.store.find, self.store.union

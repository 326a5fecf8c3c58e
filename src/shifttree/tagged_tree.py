"""Deterministic shift tree backed by tags instead of hashes.

A node whose positions all hold one letter is *uniform*: its node entry is
that letter and it has no tag, as a leaf is a uniform block of one letter.
Every other inner node is *mixed*: its entry is ``_MIXED``.  The diff walk
stops at blocks of 64 leaves (all of them, if fewer), so it reads tags
only at or above block level, and only mixed nodes there hold one: an
opaque id standing for the string the node's subtree covered when it was
last updated.  Tags are not unique per string; equality of the
underlying strings is learned lazily.  When a diff
descends through two tags it cannot tell apart and finds no difference
below, it records their equivalence in the shared TagStore, so the same
comparison short-circuits next time.
A refresh computes a level's entries (a whole level in one pass), then
updates the tags of that level if it is at or above block level; a point
write walks its leaf's ancestor chain and settles each ancestor's entry
and tag in one step, and a point write of the letter already there
touches nothing, so every tag and every equality a diff learned stays.
Letters only need ``==``: no hashing, no order, so a word tree's windows
serve as exact letters under the same tag layout.  The node array, the
writes, the diff walk and ``_MIXED`` come from ``ShiftTree``.
"""

from .shift_tree import _BLOCK, _MIXED, _WHOLE_LEVEL, ShiftTree
from .tag_store import TagStore


class TaggedShiftTree(ShiftTree):
    """Same operations and costs as HashedShiftTree, times an
    inverse-Ackermann factor, but exact: diff never misses a difference.
    A diff settles two uniform nodes by their letters and two mixed nodes
    by the classes of their tags, and unions the tags of every mixed pair
    it fully covered and found equal.  A point write of a letter ``==`` to
    the one there keeps every tag; a NaN is never ``==``, so its write
    still refreshes.

    All trees that should be comparable must share one TagStore, and all
    operations on trees sharing a store must be externally serialized
    (diff refines the store).  A fresh tree of letters holds the uniform
    string of ``None`` letters until ``init`` loads one; a fresh word tree
    holds zero windows.  Only mixed nodes at or above block level hold a
    tag: levels 0..max(n - 6, 0), whose nodes cover at least
    min(64, 2**n) leaves.
    """

    def __init__(self, n: int, store: TagStore):
        super().__init__(n, None)
        self.store = store
        # one slot per node at or above block level (index 0 unused): on
        # levels 0..max(n - 6, 0), whose nodes cover 2**(n - k) >= 64
        # leaves, or the root of a smaller tree
        self.tags: list[int | None] = [None] * (
            2 << max(n - _BLOCK.bit_length() + 1, 0))

    def _write(self, j: int, x) -> None:
        # walk the leaf's ancestor chain, settling each ancestor's entry,
        # then its tag if it has a slot, as _refresh does level by level
        nodes = self.nodes
        tags = self.tags
        store = self.store
        slots = len(tags)
        mixed = _MIXED
        nodes[j] = x
        i = j
        bits = self.topo.delta
        width = self.size  # first node of i's level
        for _ in range(self.n):
            s = bits & 1
            bits >>= 1
            i = (i + s) >> 1
            if i == width:  # the wrap: the last node's parent
                i >>= 1
            y = nodes[(2 * i - s) | width]
            if y is not mixed and y == nodes[2 * i + 1 - s]:
                nodes[i] = y
                if i < slots and tags[i] is not None:
                    store.delete_tag(tags[i])
                    tags[i] = None
            else:
                nodes[i] = mixed
                if i < slots:
                    old = tags[i]
                    tags[i] = (store.new_tag() if old is None
                               else store.renew(old))
            width >>= 1
        self.update_calls += self.n

    def _refresh(self, level: int, dirty) -> None:
        # Every node gets its letter or _MIXED.  At or above block level a
        # uniform node then drops its tag, and a mixed one gets a fresh
        # singleton tag in place of its old one.
        nodes = self.nodes
        tags = self.tags
        delete_tag = self.store.delete_tag
        new_tag = self.store.new_tag
        renew = self.store.renew
        # the nodes at or above block level are those below len(tags)
        slots = len(tags)
        mixed = _MIXED
        calls = 0
        for k, s, parents in self.topo.ancestors(level, dirty):
            width = 2 << k
            calls += len(parents)
            if type(parents) is range and len(parents) >= _WHOLE_LEVEL:
                left, right = self.topo.children(nodes, k)
                nodes[width >> 1:width] = [
                    x if x is not mixed and x == y else mixed
                    for x, y in zip(left, right)]
            else:
                for i in parents:
                    x = nodes[(2 * i - s) | width]
                    y = nodes[2 * i + 1 - s]
                    nodes[i] = x if x is not mixed and x == y else mixed
            if width <= slots:  # level k is at or above block level
                for i in parents:
                    old = tags[i]
                    if nodes[i] is mixed:
                        tags[i] = new_tag() if old is None else renew(old)
                    elif old is not None:
                        delete_tag(old)
                        tags[i] = None
        self.update_calls += calls

    def _equality(self, other: "TaggedShiftTree") -> tuple:
        # a tree of the other variant has no store, so it fails here too
        if getattr(other, "store", None) is not self.store:
            raise ValueError("trees must share one tag store")
        return self.tags, other.tags, self.store.find, self.store.union

"""Equivalence classes over tag ids, with deletion.

Union-find with union by size and path compression.  Deletion is lazy: a
deleted tag is only marked, and the whole forest is rebuilt over the
survivors once more than half of the occupied slots are marked.  Rebuilding
recycles dead slots, so memory stays proportional to the live count while
find/union/delete keep their inverse-Ackermann amortized cost and new_tag
stays O(1) worst case.  ``renew`` fuses a delete with the new tag that
replaces it; a tag that is a root of size 1 is reused in place, which
neither marks a slot nor moves the next rebuild closer.

Live tags keep their ids across rebuilds; only representatives may change,
so callers must not cache ``find`` results across mutations.
"""

_FREE = -1


class TagStore:
    """Mutable partition of tag ids.  Single-threaded: ``find`` compresses
    paths, so even read-only use mutates the forest.
    """

    def __init__(self):
        self._parent: list[int] = []  # parent slot; _FREE marks recycled slots
        self._size: list[int] = []    # class size, meaningful at roots only
        self._dead: list[bool] = []
        self._free: list[int] = []
        self.live = 0     # allocated and not deleted
        self.marked = 0   # deleted but still occupying a forest slot
        self.ops = 0      # public calls (new_tag/find/union/delete_tag/renew)
        self.steps = 0    # parent-link hops walked upward
        self.rebuilds = 0

    @property
    def capacity(self) -> int:
        """Allocated slot count, live or not."""
        return len(self._parent)

    def new_tag(self) -> int:
        """Fresh tag in its own singleton class; O(1)."""
        self.ops += 1
        if self._free:
            x = self._free.pop()
            self._parent[x] = x
            self._size[x] = 1
            self._dead[x] = False
        else:
            x = len(self._parent)
            self._parent.append(x)
            self._size.append(1)
            self._dead.append(False)
        self.live += 1
        return x

    def _root(self, x: int) -> int:
        parent = self._parent
        r = x
        hops = 0
        while parent[r] != r:
            r = parent[r]
            hops += 1
        if hops:
            self.steps += hops
            while parent[x] != r:
                parent[x], x = r, parent[x]
        return r

    def find(self, x: int) -> int:
        """Representative of x's class; equal iff the tags are equivalent."""
        # Deliberately not routed through _root: this is the tagged diff's
        # hot path, and the extra call made tree_ops work about 6% slower.
        self.ops += 1
        parent = self._parent
        if not (0 <= x < len(parent) and parent[x] != _FREE
                and not self._dead[x]):
            raise AssertionError(f"find on dead or free tag {x}")
        r = x
        hops = 0
        while parent[r] != r:
            r = parent[r]
            hops += 1
        if hops:
            self.steps += hops
            if hops > 1:
                while parent[x] != r:
                    parent[x], x = r, parent[x]
        return r

    def union(self, x: int, y: int) -> None:
        """Merge the classes of x and y."""
        self.ops += 1
        if not (0 <= x < len(self._parent) and self._parent[x] != _FREE
                and not self._dead[x]):
            raise AssertionError(f"union on dead or free tag {x}")
        if not (0 <= y < len(self._parent) and self._parent[y] != _FREE
                and not self._dead[y]):
            raise AssertionError(f"union on dead or free tag {y}")
        rx = self._root(x)
        ry = self._root(y)
        if rx == ry:
            return
        size = self._size
        if size[rx] < size[ry]:
            rx, ry = ry, rx
        self._parent[ry] = rx
        size[rx] += size[ry]

    def delete_tag(self, x: int) -> None:
        """Remove x from its class; its slot is recycled after a rebuild."""
        self.ops += 1
        if not (0 <= x < len(self._parent) and self._parent[x] != _FREE
                and not self._dead[x]):
            raise AssertionError(f"delete on dead or free tag {x}")
        self._dead[x] = True
        self.live -= 1
        self.marked += 1
        if self.marked > self.live:
            self._rebuild()

    def renew(self, x: int) -> int:
        """Retire x and return a fresh singleton tag in its place.  A root of
        size 1 has no other member pointing at it, so it already is a fresh
        singleton and comes back as itself in O(1), counted as one op;
        otherwise this is ``delete_tag(x)`` then ``new_tag()``."""
        parent = self._parent
        if 0 <= x < len(parent) and parent[x] == x and self._size[x] == 1 \
                and not self._dead[x]:
            self.ops += 1
            return x
        self.delete_tag(x)  # raises on a dead or free tag
        return self.new_tag()

    def _rebuild(self) -> None:
        # Flatten the forest over live tags, preserving the partition but
        # not representative identities, then free every marked slot.
        parent = self._parent
        size = self._size
        dead = self._dead
        n_slots = len(parent)
        survivors = [x for x in range(n_slots)
                     if parent[x] != _FREE and not dead[x]]
        roots = [self._root(x) for x in survivors]
        rep = [_FREE] * n_slots  # old root -> surviving representative
        for x, r in zip(survivors, roots):
            nr = rep[r]
            if nr == _FREE:
                rep[r] = x
                parent[x] = x
                size[x] = 1
            else:
                parent[x] = nr
                size[nr] += 1
        free = self._free
        for x in range(n_slots):
            if parent[x] != _FREE and dead[x]:
                parent[x] = _FREE
                dead[x] = False
                free.append(x)
        self.marked = 0
        self.rebuilds += 1

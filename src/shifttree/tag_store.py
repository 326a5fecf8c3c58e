"""Equivalence classes over tag ids, with deletion.

Union-find with union by size and path compression.  Deletion is lazy: a
deleted tag only stops being alive, and the whole forest is rebuilt over
the survivors once more than half of the occupied slots hold deleted tags.
Rebuilding recycles those slots, so the capacity stays at most twice the
peak live count (it never shrinks), while find/union/delete keep their
inverse-Ackermann amortized cost and new_tag stays O(1) worst case.
``renew`` fuses a delete with the new tag that replaces it; a tag that is
a root of size 1 is reused in place, which deletes nothing and does not
move the next rebuild closer.

Live tags keep their ids across rebuilds; only representatives may change,
so callers must not cache ``find`` results across mutations.
"""


class TagStore:
    """Mutable partition of tag ids.  Single-threaded: ``find`` compresses
    paths, so even read-only use mutates the forest.

    A slot is alive, deleted (still in the forest until the next rebuild)
    or free (recycled by a rebuild, listed in ``_free``); only ``_alive``
    is stored, and the deleted count is ``capacity - len(_free) - live``.
    """

    def __init__(self):
        self._parent: list[int] = []  # parent slot
        self._size: list[int] = []    # class size, meaningful at roots only
        self._alive: list[bool] = []  # allocated and not deleted
        self._free: list[int] = []
        self.live = 0     # alive slots
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
            self._alive[x] = True
        else:
            x = len(self._parent)
            self._parent.append(x)
            self._size.append(1)
            self._alive.append(True)
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
        alive = self._alive
        if not (0 <= x < len(alive) and alive[x]):
            raise AssertionError(f"find on dead or free tag {x}")
        parent = self._parent
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
        alive = self._alive
        for t in (x, y):
            if not (0 <= t < len(alive) and alive[t]):
                raise AssertionError(f"union on dead or free tag {t}")
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
        alive = self._alive
        if not (0 <= x < len(alive) and alive[x]):
            raise AssertionError(f"delete on dead or free tag {x}")
        alive[x] = False
        self.live -= 1
        # more deleted slots than live tags: capacity - free - live > live
        if len(alive) - len(self._free) > 2 * self.live:
            self._rebuild()

    def renew(self, x: int) -> int:
        """Retire x and return a fresh singleton tag in its place.  A root of
        size 1 has no other member pointing at it, so it already is a fresh
        singleton and comes back as itself in O(1), counted as one op;
        otherwise this is ``delete_tag(x)`` then ``new_tag()``."""
        alive = self._alive
        if 0 <= x < len(alive) and alive[x] and self._parent[x] == x \
                and self._size[x] == 1:
            self.ops += 1
            return x
        self.delete_tag(x)  # raises on a dead or free tag
        return self.new_tag()

    def _rebuild(self) -> None:
        # Flatten the forest over live tags, preserving the partition but
        # not representative identities, then free every slot not alive.
        parent = self._parent
        size = self._size
        alive = self._alive
        survivors = [x for x in range(len(alive)) if alive[x]]
        roots = [self._root(x) for x in survivors]
        rep: dict[int, int] = {}  # old root -> surviving representative
        for x, r in zip(survivors, roots):
            nr = rep.setdefault(r, x)
            if nr == x:
                parent[x] = x
                size[x] = 1
            else:
                parent[x] = nr
                size[nr] += 1
        self._free = [x for x in range(len(alive)) if not alive[x]]
        self.rebuilds += 1

"""Implicit node numbering for a perfect binary tree over a rotated string.

A tree of depth ``n`` covers a string of length ``2**n``.  Nodes are numbered
1..2**(n+1)-1 and level k (root = level 0, leaves = level n) always occupies
the index block [2**k, 2**(k+1)).  The twist is a rotation offset ``delta``:
instead of moving leaf data when the string rotates, child and parent links
are skewed by the bits of ``delta`` so that the nodes on level k, read left
to right, are the block [2**k, 2**(k+1)) rotated right by ``delta >> (n-k)``.
Rotating the string by a multiple of 2**j therefore leaves every subtree
rooted at level n-j structurally untouched.

Everything here is pure index arithmetic on (n, delta); node payloads and
the trees' own constants, such as the diff's block width, live elsewhere
(``children`` and ``letters`` slice a node array they are handed).

Each link is one bit operation.  With s the skew bit of the links from
level k to level k+1 and ``width = 2 << k`` the first node of level k+1,
parent i on level k has children ``(2*i - s) | width`` and ``2*i + 1 - s``,
and child j on level k+1 has parent ``(j + s) >> 1``.  There is one wrap:
with s = 1, the first parent's left child is the last node of level k+1
(``2*i - s`` is ``width - 1``, which ``| width`` turns into
``2*width - 1``), and that node's parent is the first node of level k
(``(j + s) >> 1`` is ``width``, which becomes ``width >> 1``).
"""

class Topology:
    """Link arithmetic for one tree of depth ``n`` at rotation ``delta``."""

    __slots__ = ("n", "size", "delta")

    def __init__(self, n: int, delta: int = 0):
        if n < 0:
            raise ValueError(f"tree depth must be >= 0, got {n}")
        self.n = n
        self.size = 1 << n
        if not 0 <= delta < self.size:
            raise ValueError(f"delta {delta} outside [0, {self.size})")
        self.delta = delta

    def left_child(self, i: int) -> int:
        if not 1 <= i < self.size:
            raise AssertionError("leaves have no children")
        width = 1 << i.bit_length()  # children's level: [width, 2 * width)
        s = (self.delta >> (self.n - i.bit_length())) & 1
        return (2 * i - s) | width

    def right_child(self, i: int) -> int:
        if not 1 <= i < self.size:
            raise AssertionError("leaves have no children")
        s = (self.delta >> (self.n - i.bit_length())) & 1
        return 2 * i + 1 - s

    def parent(self, i: int) -> int:
        if not 1 < i < 2 * self.size:
            raise AssertionError("the root has no parent")
        half = 1 << (i.bit_length() - 1)  # i's level: [half, 2 * half)
        s = (self.delta >> (self.n - i.bit_length() + 1)) & 1
        j = (i + s) >> 1
        return half >> 1 if j == half else j  # the wrap

    def ancestors(self, level: int, nodes):
        """Yield ``(k, s, parents)`` for k = level-1 down to 0: the distinct
        ancestors on level k of ``nodes`` (all on ``level``), and the skew
        bit s of the links from level k to level k+1, which is bit n-k-1 of
        ``delta``.  A whole-level ``range`` yields ranges, so it builds no
        set; any other collection, repeats allowed, is deduplicated into
        sets."""
        bits = self.delta >> (self.n - level)
        whole = type(nodes) is range
        while level:
            half = 1 << level
            level -= 1
            s = bits & 1
            bits >>= 1
            if whole:
                nodes = range(half >> 1, half)
            else:
                nodes = {(i + s) >> 1 for i in nodes}
                if half in nodes:  # the wrap: the last node's parent
                    nodes.remove(half)
                    nodes.add(half >> 1)
            yield level, s, nodes

    def leaf_of_position(self, pos: int) -> int:
        """Node index of the leaf holding string position ``pos``."""
        if not (isinstance(pos, int) and 0 <= pos < self.size):
            raise ValueError(f"position {pos!r} is not an integer in "
                             f"[0, {self.size})")
        return (pos - self.delta) % self.size + self.size

    def children(self, seq, k: int) -> tuple[list, list]:
        """The left and the right children of the whole level k < n, read
        from the node array ``seq`` in the order of their parents 2**k,
        ..., 2**(k+1)-1: two strided slices each, so a level's refresh
        needs no per-node link arithmetic."""
        w = 2 << k
        s = (self.delta >> (self.n - k - 1)) & 1
        if s:
            left = [seq[2 * w - 1]] + seq[w + 1:2 * w - 1:2]
        else:
            left = seq[w:2 * w:2]
        return left, seq[w + 1 - s:2 * w:2]

    def letters(self, seq, lo: int, hi: int) -> list:
        """Letters of string positions lo..hi (0 <= lo <= hi < size) in
        string order, from the node array ``seq`` (leaf node ``size + j``
        holds leaf slot j): one slice, or two when the slots wrap past the
        end of the leaf array."""
        size = self.size
        start = (lo - self.delta) % size + size
        stop = start + hi - lo + 1
        if stop <= 2 * size:
            return seq[start:stop]
        return seq[start:2 * size] + seq[size:stop - size]

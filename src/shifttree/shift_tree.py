"""The shift-tree skeleton both tree variants share.

One node array of 2**(n+1) entries holds a string: leaf slot j (node
``size + j``) holds a letter, and inner node i in [1, size) holds a summary
of the substring its subtree covers.  Every write stores letters or moves
the rotation offset, then refreshes the dirty inner nodes bottom-up: a
point write that changes its letter walks its leaf's ancestor chain in
one loop, any other write goes level by level, and a point write of the
letter already there does nothing.  A word tree's window write alone
leaves its refresh to the tree's next diff or shift, so that a shift that
re-tiles every window folds it into the whole refresh it makes anyway.
The one diff walk lives here too.  A variant supplies what a summary is:
``_refresh`` for the level-by-level refreshes, ``_write`` for a point
write's chain, its letter checks and ``_equality``, which says when two
summaries prove their subtrees equal.

A tree of letters holds one position per leaf; it is written by ``init``
and ``set`` and read by ``diff`` and ``materialize``.  A word tree
(``packed``) holds a 0/1 string of length 2**width with min(W, 2**width)
positions per leaf, W = ``_WORD``, packed as the bits of one int, its
*window*: bit i of string block c's window is string position Wc + i, so
the tree has log2 W levels fewer.  Its rotation delta = W*D + r moves the
word tree by D,
and the windows tile the unrotated bit string at offset r; a shift that
changes r re-tiles every window, then refreshes the whole tree.  The
variants see windows as letters, and so does the diff walk: in every tree
it stops at blocks of 64 leaves, which in a word tree are 64 windows.  A
word tree is read and written by whole windows only: ``diff_windows``
reports each differing window with both trees' bits, and ``set_bits``
writes the set bits of ``(start, bits)`` spans.  The letter methods
``init``, ``set``, ``diff`` and ``materialize`` refuse a word tree.
"""

from itertools import compress
from operator import ne

from .topology import Topology

# Leaves in a block, in every tree: a diff stops descending at a node
# covering at most this many leaves and compares the block's letters (a
# word tree's windows) in one C-level pass.
_BLOCK = 64

# Positions a word tree packs per leaf window, W.  Most of the solver's
# shifts re-tile every window and refresh all L/W - 1 inner nodes, so a
# wider window means fewer nodes to refresh; but each window a diff
# reports or a write touches costs O(W) bit work however few of its bits
# change, so a wider one slows solves whose diffs add few sums in many
# windows.  Chosen against 512, 2048 and 8192 in BENCH_window.json.
_WORD = 4096

# Fewest parents for which a refresh takes a whole level in one slice
# pass.  That pass has a fixed cost of about 1.5 us, so a narrower level
# is cheaper node by node: on a depth-14 tree of letters, levels of up to
# 16 nodes were faster node by node on both variants, levels of 32 and 64
# were even, and from 128 nodes on the slice pass won.
_WHOLE_LEVEL = 32

# Node entry of a mixed inner node in a tagged tree.  It is never ``==``
# to a letter: a refresh relies on this to tell a uniform pair of children,
# and the diff walk to settle a uniform node only against a uniform one.
_MIXED = object()


def _check_bit(x) -> None:
    if not (isinstance(x, int) and 0 <= x <= 1):
        raise ValueError(f"letter {x!r} of a word tree is not 0 or 1")


def _refuse_letters(letters) -> None:
    raise ValueError("a word tree is written by set_bits only")


class ShiftTree:
    """A string under point writes, cyclic rotations and difference
    listing against another tree of the same variant.

    Costs, for a string of length m: ``shift(k)`` O(m / 2**j) where 2**j
    is the largest power of two dividing k (in a word tree, O(m / W) for
    2**j < W).  A tree of letters adds ``init`` O(m); ``set`` O(log m),
    and O(1) when the letter is already there; ``diff`` O((d+1) log m)
    for d reported differences.  A word tree has ``diff_windows``
    O((w+1) log m) for w reported windows, and ``set_bits`` O(s + b/W)
    for s spans of b bits in all, and the w windows they write add
    O(w log m) to the tree's next diff or shift, which refreshes their
    ancestors.  A diff's bound counts node pairs; each block it reaches
    adds one C-level compare of at most 64 letters (windows, in a word
    tree).  A fresh tree of letters holds ``size`` copies of ``letter``,
    which its inner nodes must already summarise; a fresh word tree holds
    the all-zero string.

    Every operation is shared; a variant is a node refresh, a point-write
    chain, a letter check and a node-equality hook for the one diff walk.
    """

    def __init__(self, n: int, letter):
        self.topo = Topology(n)
        self.n = n
        self.size = 1 << n
        # index 0 unused; summaries at [1, size), letters at [size, 2*size)
        self.nodes = [letter] * (2 * self.size)
        # log2 of the positions a leaf holds and the offset at which the
        # leaves tile the unrotated string: both 0 in a tree of letters,
        # and q is 0 in a word tree of one position too, so ``word`` tells
        self.q = self.r = 0
        self.word = False
        self.length = self.size
        self.update_calls = 0
        self.diff_visits = 0
        # leaf slots that set_bits wrote since the last diff or shift
        self.stale: set[int] = set()

    @classmethod
    def packed(cls, width: int, shared) -> "ShiftTree":
        """A word tree over the all-zero 0/1 string of length 2**width, its
        min(W, 2**width) positions per leaf packed into one window;
        ``shared`` is what the variant's constructor takes."""
        q = min(width, _WORD.bit_length() - 1)
        tree = cls(width - q, shared)
        tree.q, tree.word = q, True
        tree.length = tree.size << q
        # zero windows, zero summaries: a fresh tree's uniform string, so a
        # variant's other state stays as its constructor left it
        tree.nodes = [0] * (2 * tree.size)
        # the letter writes refuse a word tree at their letter check
        tree._check = tree._check_letter = _refuse_letters
        return tree

    def _refresh(self, level: int, dirty) -> None:
        """Recompute the distinct ancestors of ``dirty`` (all on ``level``)
        bottom-up from their children, level by level; count them in
        ``update_calls``.  ``dirty`` is a whole-level ``range`` (refreshed
        a level at a time) or any other collection of nodes, such as the
        windows written since the last diff or shift (refreshed over their
        distinct ancestors)."""
        raise NotImplementedError

    def _write(self, j: int, x) -> None:
        """Store letter ``x`` at leaf slot ``j``, whose letter is not ``==``
        to it, and bring the n ancestors of the leaf up to date, counting
        them in ``update_calls``: a point write's own chain."""
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
        if len(vals) != self.length:
            raise ValueError(f"expected {self.length} letters, got {len(vals)}")
        self._check(vals)
        self.topo.delta = 0
        self.nodes[self.size:] = vals
        self._refresh(self.n, range(self.size, 2 * self.size))

    def set(self, pos: int, x) -> None:
        """Overwrite the letter at string position ``pos``.  A letter ``==``
        to the one there is not written and refreshes nothing."""
        self._check_letter(x)
        j = self.topo.leaf_of_position(pos)
        if self.nodes[j] == x:
            return
        self._write(j, x)

    def set_bits(self, spans, x) -> None:
        """Write bit ``x`` of a word tree at position (start + i) mod
        ``length`` for every set bit i of each ``(start, bits)`` span, where
        start and bits >= 0 are integers; the spans may be any iterable.
        Each window is written once, in O(1) a span plus a step per W bits
        of it.  The ancestors of the distinct written windows are refreshed
        at the tree's next diff or shift, once for all the writes since
        the last one: O(w log m) for w windows."""
        if not self.word:
            raise ValueError("set_bits needs a word tree")
        _check_bit(x)
        q, size, delta = self.q, self.size, self.topo.delta
        step, full = 1 << q, (1 << (1 << q)) - 1
        windows: dict[int, int] = {}    # leaf slot -> bits to write there
        get = windows.get
        try:  # every check runs before anything is written
            for start, bits in spans:
                if bits < 0:
                    raise ValueError(f"span bits {bits} are negative")
                j = ((start >> q) - delta) % size + size
                bits <<= start % step
                while bits > full:      # the span runs into the next window
                    w = bits & full
                    if w:
                        windows[j] = get(j, 0) | w
                    bits >>= step
                    j = j + 1 if j + 1 < 2 * size else size
                if bits:
                    windows[j] = get(j, 0) | bits
        except TypeError as err:
            raise ValueError("span starts and bits must be integers") from err
        nodes = self.nodes
        for j, w in windows.items():
            nodes[j] = nodes[j] | w if x else nodes[j] & ~w
        self.stale.update(windows)

    def _settle(self) -> None:
        """Refresh the ancestors of the windows written since the last
        diff or shift."""
        if self.stale:
            self._refresh(self.n, self.stale)
            self.stale = set()

    def shift(self, k: int) -> None:
        """Rotate the string right by ``k`` (negative rotates left)."""
        if not isinstance(k, int):
            raise ValueError(f"shift {k!r} is not an integer")
        k %= self.length
        if k == 0:
            return
        q = self.q
        delta = ((self.topo.delta << q) + self.r + k) % self.length
        r = delta & ((1 << q) - 1)
        if r != self.r:
            self._retile(r)
            level = self.n  # every window changed
        else:
            k >>= q
            # subtrees of size k & -k moved wholesale; only nodes above
            # them change
            level = self.n - (k & -k).bit_length() + 1
        if level < self.n:
            self._settle()  # while the links are still the old ones
        self.stale.clear()  # else the whole refresh below covers them
        self.topo.delta = delta >> q
        self._refresh(level, range(1 << level, 2 << level))

    def _retile(self, r: int) -> None:
        """Move a word tree's windows from offset ``self.r`` to ``r``: a
        window at offset r holds the bits of the unrotated string from
        W*slot - r on, so each new window joins the ends of two
        neighbouring old ones, shifted by e = (r - self.r) mod W."""
        nodes = self.nodes
        size = self.size
        bits = 1 << self.q
        mask = (1 << bits) - 1
        e = (r - self.r) % bits
        w = nodes[size:]
        if r > self.r:  # the new window starts in the previous old one
            pairs = zip(w[-1:] + w[:-1], w)
        else:           # ... or in the same old one, ending in the next
            pairs = zip(w, w[1:] + w[:1])
        nodes[size:] = [((a >> (bits - e)) | (b << e)) & mask
                        for a, b in pairs]
        self.r = r

    def diff(self, other: "ShiftTree", a: int, b: int) -> list[int]:
        """Positions in [a, b] where this string and ``other``'s differ,
        in ascending order.  ``other`` must be a tree of letters of the
        same variant and depth that ``_equality`` accepts."""
        if self.word or other.word:
            raise ValueError("a word tree is read by diff_windows only")
        return self._walk(other, a, b)

    def diff_windows(self, other: "ShiftTree", a: int,
                     b: int) -> list[tuple[int, int, int]]:
        """The differences of two word trees in [a, b], by window:
        ``(c, own, theirs)`` for each window c (string positions c * 2**q
        on, with 2**q = min(W, length)) that differs within [a, b], in
        ascending order, with both trees' bits of that window masked to
        [a, b].  The walk reports every window under [a, b] that differs
        at all; an end window whose masked bits agree is dropped here.
        O((w+1) log m) for w windows reported."""
        if not (self.word and other.word):
            raise ValueError("diff_windows needs word trees")
        q, size = self.q, self.size
        out = []
        for c in self._walk(other, a, b):
            own = self.nodes[(c - self.topo.delta) % size + size]
            theirs = other.nodes[(c - other.topo.delta) % size + size]
            lo, hi = a - (c << q), b - (c << q)
            if lo > 0 or hi < (1 << q) - 1:
                # an end window: keep its bits within [a, b]
                lo = max(lo, 0)
                mask = ((2 << (min(hi, (1 << q) - 1) - lo)) - 1) << lo
                own, theirs = own & mask, theirs & mask
                if own == theirs:
                    continue
            out.append((c, own, theirs))
        return out

    def _walk(self, other: "ShiftTree", a: int, b: int) -> list[int]:
        """The one diff walk: the leaves under [a, b] whose letters (a
        word tree's windows) differ, in ascending order.  It descends
        through unsettled node pairs down to blocks of 64 leaves (all of
        them, if fewer), whose letters it compares in one pass."""
        if (other.size, other.length) != (self.size, self.length):
            raise ValueError("trees must have equal depth and leaf width")
        if not (isinstance(a, int) and isinstance(b, int)
                and 0 <= a <= b < self.length):
            raise ValueError(f"bad interval [{a}, {b}] for length "
                             f"{self.length}")
        a, b = a >> self.q, b >> self.q  # the leaves under [a, b]
        self._settle()
        other._settle()
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
            if e == q_nodes[j]:
                if e is not _MIXED or find(t_keys[i]) == find(q_keys[j]):
                    return
                # two mixed nodes of unequal classes: a union may join them
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
            if e is _MIXED and q_nodes[j] is _MIXED and len(out) == before \
                    and a <= x and y <= b:
                # all of [x, y] matched: the pair's keys name equal strings
                union(t_keys[i], q_keys[j])

        walk(1, 1, 0, self.size - 1)
        self.diff_visits += visits
        return out

    def materialize(self) -> list:
        """The maintained string of a tree of letters as a list; O(m)."""
        if self.word:
            raise ValueError("a word tree is read by diff_windows only")
        return self.topo.letters(self.nodes, 0, self.size - 1)

import math
from random import Random

import pytest

from shifttree import HashedShiftTree, TaggedShiftTree, TagStore, make_context
from shifttree.tagged_tree import _MIXED

from helpers import (
    batch_write, bits, hash_string, inner_ancestors, mixed_blocks, naive_diff,
    node_string, rotate_right, runs)


class Glyph:
    """Letter that supports equality and nothing else (not even hashing)."""

    __hash__ = None

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, Glyph) and self.value == other.value

    def __repr__(self):
        return f"Glyph({self.value})"


def test_init_creates_one_tag_per_mixed_inner_node():
    # one tag per mixed node at or above block level.  At depth 2 the root
    # is the only block and the only node with a tag slot; at depth 8 the
    # 64-position blocks sit on level 2, so levels 0-2 have tag slots
    store = TagStore()
    small = TaggedShiftTree(2, store)
    small.init(bits("0001"))  # the root and the "01" half are mixed
    assert store.live == 1 and small.tags[1] is not None
    assert len(small.tags) == 2
    assert small.nodes[small.topo.right_child(1)] is _MIXED
    store = TagStore()
    tree = TaggedShiftTree(8, store)
    tree.init([0] * 256)
    assert store.live == 0
    assert tree.tags[1:] == [None] * 7
    tree.init(runs("0001", 64))  # the root and the "01" half are mixed
    assert store.live == 2
    left = tree.topo.left_child(1)
    assert tree.tags[left] is None and tree.nodes[left] == 0
    assert tree.tags[1] is not None
    assert tree.tags[tree.topo.right_child(1)] is not None
    # one odd letter makes every node above it mixed; only the block and
    # the two nodes above it take a tag
    s = [0] * 256
    s[200] = 1
    tree.init(s)
    assert store.live == 3 == mixed_blocks(s)
    path = [ancestor(tree, 200, up) for up in range(1, 9)]
    assert all(tree.nodes[i] is _MIXED for i in path)
    assert all(i >= len(tree.tags) for i in path[:5])
    assert all(tree.tags[i] is not None for i in path[5:])


def test_update_replaces_without_leaking():
    # rewriting one leaf refreshes every node on its path, root included:
    # each at or above block level ends up uniform or holding a fresh
    # singleton tag.  Depth 8, so the path crosses three tagged levels.
    store = TagStore()
    tree = TaggedShiftTree(8, store)
    twin = TaggedShiftTree(8, store)
    s = [0] * 128 + runs("01", 64)
    s[100] = 1  # the left half and the block [64, 127] are mixed
    tree.init(s)
    twin.init(s)
    # joins the roots, both halves and the mixed block
    assert tree.diff(twin, 0, 255) == []
    old = list(tree.tags)
    path = inner_ancestors(tree.topo, [100])
    assert 1 in path
    tree.set(100, 0)  # runs("0001", 64): the left half turns uniform
    tagged = [t for t in tree.tags[1:] + twin.tags[1:] if t is not None]
    for i in range(1, tree.size):
        if i >= len(tree.tags):
            # below block level: no tag slot, and the entry is the letter
            assert i not in path or tree.nodes[i] == 0, i
        elif i not in path:
            assert tree.tags[i] == old[i], i
        elif tree.tags[i] is None:
            assert tree.nodes[i] == 0 and set(node_string(tree, i)) == {0}, i
        else:
            cls = store.find(tree.tags[i])
            assert [store.find(t) == cls for t in tagged].count(True) == 1, i
    assert tree.tags[tree.topo.left_child(1)] is None
    mixed = mixed_blocks(runs("0001", 64)) + mixed_blocks(s)
    assert mixed == 2 + 4 and store.live == mixed
    # a tag that no diff joined to another is renewed in place
    solo = TaggedShiftTree(8, store)
    u = [1] * 128 + runs("10", 64)
    u[0] = 0
    solo.init(u)
    root = solo.tags[1]
    solo.set(0, 1)  # runs("1110", 64)
    assert solo.tags[1] == root
    assert solo.tags[solo.topo.left_child(1)] is None
    assert store.live == mixed + mixed_blocks(runs("1110", 64))


def test_live_tags_across_trees():
    # at depth 3 only the root has a tag slot; at depth 9, with every
    # letter a run of 64, the nodes at or above block level are the same
    # binary tree over eight letters
    texts = ("00000001", "01010101", "00110011", "11111111")
    for n, width, live in ((3, 1, 1 + 1 + 1 + 0), (9, 64, 3 + 7 + 3 + 0)):
        store = TagStore()
        trees = [TaggedShiftTree(n, store) for _ in texts]
        for t in trees:
            t.init([0] * (1 << n))
        assert store.live == 0
        strings = [runs(s, width) for s in texts]
        for t, s in zip(trees, strings):
            t.init(s)
        assert store.live == live, n
        assert store.live == sum(mixed_blocks(s) for s in strings)


def test_shift_by_half_updates_only_the_root():
    store = TagStore()
    tree = TaggedShiftTree(4, store)
    tree.init([0] * 16)
    before = tree.update_calls
    tree.shift(8)
    assert tree.update_calls - before == 1


def test_shift_update_counts_exact():
    for n in range(1, 6):
        size = 1 << n
        store = TagStore()
        tree = TaggedShiftTree(n, store)
        tree.init([0] * size)
        for k in range(size):
            before = tree.update_calls
            tree.shift(k)
            if k == 0:
                assert tree.update_calls == before
            else:
                j = (k & -k).bit_length() - 1
                assert tree.update_calls - before == (size >> j) - 1


def test_model_equivalence():
    # twin gets the same ops, but each run of point writes in reverse order
    rng = Random(44)
    for trial in range(300):
        n = rng.choice([0, 1, 1, 2, 2, 3, 3, 4, 5, 6, 7, 8])
        size = 1 << n
        store = TagStore()
        tree = TaggedShiftTree(n, store)
        twin = TaggedShiftTree(n, store)
        model = [rng.randrange(3) for _ in range(size)]
        tree.init(model)
        twin.init(model)
        model = list(model)
        assert store.live == 2 * mixed_blocks(model)
        for _ in range(rng.randint(0, 8)):
            roll = rng.random()
            if roll < 0.4:
                pos, x = rng.randrange(size), rng.randrange(3)
                tree.set(pos, x)
                twin.set(pos, x)
                model[pos] = x
            elif roll < 0.8:
                k = rng.randint(-2 * size, 2 * size)
                tree.shift(k)
                twin.shift(k)
                model = rotate_right(model, k)
            else:
                # a shift of a random valuation, then a run of point writes
                # of one letter, which leaves one string in either order
                k = (2 * rng.randrange(size) + 1) << rng.randrange(max(n, 1))
                tree.shift(k)
                twin.shift(k)
                model = rotate_right(model, k)
                positions, x = batch_write(rng, size), rng.randrange(3)
                # a point write that changes its letter refreshes its
                # leaf's n ancestors, and one of the letter already there
                # refreshes none: in either order, one write per distinct
                # position whose model letter is not x
                changed = len({pos for pos in positions if model[pos] != x})
                for t, run in ((tree, positions), (twin, positions[::-1])):
                    before = t.update_calls
                    for pos in run:
                        t.set(pos, x)
                    assert t.update_calls - before == n * changed
                for pos in positions:
                    model[pos] = x
            assert tree.materialize() == twin.materialize() == model
            assert tree.nodes == twin.nodes
            assert store.live == 2 * mixed_blocks(model)


def test_empty_full_diff_unions_the_roots():
    store = TagStore()
    a = TaggedShiftTree(3, store)
    b = TaggedShiftTree(3, store)
    a.init(bits("01010011"))
    b.init(bits("01010011"))
    assert store.find(a.tags[1]) != store.find(b.tags[1])
    assert a.diff(b, 0, 7) == []
    assert store.find(a.tags[1]) == store.find(b.tags[1])


def test_repeated_empty_diff_short_circuits_at_the_root():
    store = TagStore()
    a = TaggedShiftTree(4, store)
    b = TaggedShiftTree(4, store)
    a.init([1, 0] * 8)
    b.init([1, 0] * 8)
    a.diff(b, 0, 15)
    before = a.diff_visits
    assert a.diff(b, 0, 15) == []
    assert a.diff_visits - before == 1


def test_diff_examples_match_hashed_variant():
    store = TagStore()
    a = TaggedShiftTree(2, store)
    b = TaggedShiftTree(2, store)
    a.init(bits("0001"))
    b.init(bits("0100"))
    assert a.diff(b, 0, 3) == [1, 3]
    assert a.diff(b, 2, 3) == [3]
    assert a.diff(b, 1, 1) == [1]


def test_partial_interval_does_not_union_the_root():
    # depth 7: the root splits into two 64-position blocks, so the root and
    # both halves are tag pairs the diff reads
    store = TagStore()
    a = TaggedShiftTree(7, store)
    b = TaggedShiftTree(7, store)
    a.init(runs("0101", 32))
    b.init(runs("0101", 32))
    assert a.diff(b, 0, 126) == []  # root block [0,127] not inside [0,126]
    assert store.find(a.tags[1]) != store.find(b.tags[1])
    # the fully covered left halves did get unioned, the cut right ones not
    left_a = a.topo.left_child(1)
    left_b = b.topo.left_child(1)
    assert store.find(a.tags[left_a]) == store.find(b.tags[left_b])
    right_a = a.topo.right_child(1)
    right_b = b.topo.right_child(1)
    assert store.find(a.tags[right_a]) != store.find(b.tags[right_b])


def test_diff_validation():
    store = TagStore()
    a = TaggedShiftTree(2, store)
    b = TaggedShiftTree(2, store)
    a.init(bits("0001"))
    b.init(bits("0100"))
    with pytest.raises(ValueError):
        a.diff(b, 2, 1)
    with pytest.raises(ValueError):
        a.diff(b, 0, 4)
    with pytest.raises(ValueError):
        a.diff(TaggedShiftTree(1, store), 0, 1)
    foreign = TaggedShiftTree(2, TagStore())
    foreign.init(bits("0100"))
    with pytest.raises(ValueError):
        a.diff(foreign, 0, 3)
    hashed = HashedShiftTree(2, make_context(4, seed=1))
    with pytest.raises(ValueError):
        a.diff(hashed, 0, 3)


def test_equality_only_alphabet():
    store = TagStore()
    a = TaggedShiftTree(2, store)
    b = TaggedShiftTree(2, store)
    a.init([Glyph("a"), Glyph("b"), Glyph("c"), Glyph("d")])
    b.init([Glyph("a"), Glyph("x"), Glyph("c"), Glyph("d")])
    assert a.diff(b, 0, 3) == [1]
    a.shift(2)
    assert a.materialize() == [Glyph("c"), Glyph("d"), Glyph("a"), Glyph("b")]
    a.set(0, Glyph("z"))
    assert a.materialize()[0] == Glyph("z")


def test_diff_agrees_with_hashed_and_naive():
    rng = Random(321)
    for trial in range(400):
        n = rng.choice([1, 2, 2, 3, 3, 4, 5])
        size = 1 << n
        ctx = make_context(size, seed=trial)
        store = TagStore()
        models, hashed, tagged = [], [], []
        for _ in range(2):
            s = [rng.randrange(3) for _ in range(size)]
            h = HashedShiftTree(n, ctx)
            h.init(s)
            t = TaggedShiftTree(n, store)
            t.init(s)
            models.append(list(s))
            hashed.append(h)
            tagged.append(t)
        for _ in range(rng.randint(0, 5)):
            w = rng.randrange(2)
            if rng.random() < 0.5:
                pos, x = rng.randrange(size), rng.randrange(3)
                for group in (hashed, tagged):
                    group[w].set(pos, x)
                models[w][pos] = x
            else:
                k = rng.randint(-size, size)
                for group in (hashed, tagged):
                    group[w].shift(k)
                models[w] = rotate_right(models[w], k)
        for _ in range(2):  # repeat: learned equivalences must not corrupt
            a = rng.randrange(size)
            b = rng.randrange(a, size)
            want = naive_diff(models[0], models[1], a, b)
            assert hashed[0].diff(hashed[1], a, b) == want
            assert tagged[0].diff(tagged[1], a, b) == want


def rotated(tree, s, k):
    """Load ``s`` into ``tree`` so that it ends at rotation offset k."""
    tree.init(rotate_right(s, -k))
    tree.shift(k)
    assert tree.topo.delta == k % tree.size and tree.materialize() == s
    return tree


@pytest.mark.parametrize("backend", ["hashed", "tagged"])
def test_diff_at_block_boundaries(backend):
    # Depths 5-8 straddle the 64-position leaf block: the root is the block
    # at n <= 6, the walk descends one or two levels to reach blocks at 7
    # and 8.  Rotations that are not multiples of 64 put a block's leaf
    # slots across the end of the leaf array, and the interval ends cut
    # blocks on either side.  Differences sit on block edges and at random.
    rng = Random(64)
    for n in (5, 6, 7, 8):
        size = 1 << n
        ctx = make_context(size, seed=n)
        store = TagStore()
        edges = sorted({e % size for e in (0, 1, 31, 32, 63, 64, 65, 127, 128,
                                           129, -65, -64, -63, -2, -1)})
        shifts = [0, 1, 63, 64, 65, size - 1]

        def tree():
            if backend == "hashed":
                return HashedShiftTree(n, ctx)
            return TaggedShiftTree(n, store)

        for _ in range(10):
            s = [rng.randrange(2) for _ in range(size)]
            q = list(s)
            for pos in rng.sample(edges, rng.randint(0, 3)) \
                    + [rng.randrange(size) for _ in range(rng.randint(0, 2))]:
                q[pos] ^= 1
            k1 = rng.choice(shifts + [rng.randrange(size)])
            k2 = rng.choice(shifts + [rng.randrange(size)])
            t = rotated(tree(), s, k1)
            u = rotated(tree(), q, k2)
            for a in edges:
                for b in edges:
                    if a <= b:
                        want = naive_diff(s, q, a, b)
                        assert t.diff(u, a, b) == want, (n, k1, k2, a, b)
                        assert u.diff(t, a, b) == want, (n, k1, k2, a, b)


@pytest.mark.parametrize("backend", ["hashed", "tagged"])
def test_diff_stops_at_64_position_blocks(backend):
    # one difference, off-path subtrees equal (and, for tagged, learned
    # equal by a first diff): the walk visits the root, then both children
    # on each level down to the 64-position blocks, and compares letters
    # there
    for n in range(0, 10):
        size = 1 << n
        ctx = make_context(size, seed=n)
        store = TagStore()
        t, u = (HashedShiftTree(n, ctx), HashedShiftTree(n, ctx)) \
            if backend == "hashed" \
            else (TaggedShiftTree(n, store), TaggedShiftTree(n, store))
        s = [0, 1] * (size // 2) or [0]
        t.init(s)
        u.init(s)
        assert t.diff(u, 0, size - 1) == []
        u.set(size - 1, 2)
        before = t.diff_visits
        assert t.diff(u, 0, size - 1) == [size - 1]
        assert t.diff_visits - before == 1 + 2 * max(0, n - 6), n


@pytest.mark.parametrize("backend", ["hashed", "tagged"])
def test_whole_level_refresh_is_exact(backend):
    # init and every shift refresh whole levels from strided slices of the
    # node array.  After each, every inner node must summarise its
    # substring: a sum whose residue mod p is its hash, or its letter iff
    # uniform and _MIXED otherwise, and the tag pass must leave a tag
    # exactly on each mixed node at or above block level.  Depths 0-9
    # (block level 0-3 for tags), shifts of every 2-adic valuation, until
    # every level was refreshed under both skew bits.
    rng = Random(29)
    for n in range(0, 10):
        size = 1 << n
        ctx = make_context(size, seed=n)
        tree = HashedShiftTree(n, ctx) if backend == "hashed" \
            else TaggedShiftTree(n, TagStore())
        skews = set()

        def check(levels):
            # the skew bit of the links below level k is bit n-k-1 of delta
            skews.update((k, (tree.topo.delta >> (n - k - 1)) & 1)
                         for k in range(levels))
            for i in range(1, size):
                s = node_string(tree, i)
                if backend == "hashed":
                    assert tree.nodes[i] % ctx.p == hash_string(ctx, s), \
                        (n, i)
                elif all(x == s[0] for x in s):
                    assert tree.nodes[i] == s[0], (n, i)
                else:
                    assert tree.nodes[i] is _MIXED, (n, i)
            if backend == "tagged":
                audit_tag_equivalences(tree.store, [tree])

        for _ in range(2):
            # mostly one letter, so that uniform blocks of every size occur
            ones = rng.choice([0.02, 0.5, 0.98])
            tree.init([int(rng.random() < ones) for _ in range(size)])
            check(n)
            for j in range(n):
                for odd in (1, 3, -1):
                    tree.shift(odd << j)
                    check(n - j)
        assert skews == {(k, s) for k in range(n) for s in (0, 1)}, n


@pytest.mark.parametrize("backend", ["hashed", "tagged"])
def test_node_by_node_refresh_matches_whole_level(backend):
    # a refresh from a set of dirty nodes (the per-node loop) against one
    # from the same whole level as a range, at every level and every delta
    # of depths 1-7.  A whole level holds its last node, whose link to the
    # level above wraps under skew bit 1: it is the left child of the
    # level's first parent.  The entries above the refreshed level start
    # stale, so a wrong child link reads a stale entry and a wrong parent
    # leaves one in place.  Then each single node j of the level, as a
    # point write passes it, against the set {j}: only j's ancestors start
    # stale, and in a tagged tree each of them that has a tag slot but no
    # tag gets one, which a uniform node must drop.  Both trees take the
    # same steps, so their entries, update counts and tag stores must stay
    # equal after every node.
    rng = Random(43)
    stale = -1 if backend == "hashed" else object()

    def fresh(letters, delta):
        tree = HashedShiftTree(n, ctx) if backend == "hashed" \
            else TaggedShiftTree(n, TagStore())
        tree.init(letters)
        tree.shift(delta)
        return tree

    def state(tree):
        if backend == "hashed":
            return tree.nodes, tree.update_calls
        store = tree.store
        return (tree.nodes, tree.update_calls, tree.tags, store.ops,
                store.live)

    for n in range(1, 8):
        size = 1 << n
        ctx = make_context(size, seed=n)
        for delta in range(size):
            ones = rng.choice([0.02, 0.5, 0.98])
            letters = [int(rng.random() < ones) for _ in range(size)]
            for level in range(1, n + 1):
                row = range(1 << level, 2 << level)
                refreshed = []
                for dirty in (row, set(row)):
                    tree = fresh(letters, delta)
                    tree.nodes[1:1 << level] = [stale] * ((1 << level) - 1)
                    tree._refresh(level, dirty)
                    if backend == "tagged":
                        audit_tag_equivalences(tree.store, [tree])
                    refreshed.append(tree.nodes)
                assert refreshed[1] == refreshed[0], (n, delta, level)
                pair = [fresh(letters, delta) for _ in range(2)]
                for j in row:
                    for tree, dirty in zip(pair, ((j,), {j})):
                        i = j
                        while i > 1:
                            i = tree.topo.parent(i)
                            tree.nodes[i] = stale
                            if backend == "tagged" and i < len(tree.tags) \
                                    and tree.tags[i] is None:
                                tree.tags[i] = tree.store.new_tag()
                        tree._refresh(level, dirty)
                    assert state(pair[0]) == state(pair[1]), \
                        (n, delta, level, j)
                if backend == "tagged":
                    audit_tag_equivalences(pair[0].store, [pair[0]])


def ancestor(tree, pos, up):
    """The node ``up`` levels above the leaf of ``pos``; at up = 6 it
    covers the 64-position block that holds ``pos``."""
    i = tree.topo.leaf_of_position(pos)
    for _ in range(up):
        i = tree.topo.parent(i)
    return i


def test_diff_unions_fully_covered_block_pairs_only():
    # depth 8, both trees rotated so that block slots wrap: an equal block
    # pair is unioned iff the interval covers it; every node above the
    # blocks is cut by the interval and stays apart
    rng = Random(8)
    s = [rng.randrange(2) for _ in range(256)]
    assert all(mixed_blocks(s[c:c + 64]) for c in range(0, 256, 64))
    store = TagStore()
    a = rotated(TaggedShiftTree(8, store), s, 1)
    b = rotated(TaggedShiftTree(8, store), s, 100)
    assert a.diff(b, 50, 200) == []

    def joined(pos, up):
        return store.find(a.tags[ancestor(a, pos, up)]) \
            == store.find(b.tags[ancestor(b, pos, up)])

    for c in range(0, 256, 64):
        assert joined(c, 6) == (50 <= c and c + 63 <= 200), c
    for c in (0, 128):
        assert not joined(c, 7) and not joined(c, 8), c


def test_shared_nan_letter_is_still_reported():
    # letters compare one by one with !=, so the same NaN object in both
    # trees is a difference (a list == would call it equal by identity),
    # and a block holding it is never unioned
    nan = float("nan")
    for n in (2, 7):
        size = 1 << n
        s = [0] * size
        s[1] = s[size - 1] = nan
        store = TagStore()
        a = rotated(TaggedShiftTree(n, store), s, 0)
        b = rotated(TaggedShiftTree(n, store), s, 3)
        for _ in range(2):
            assert a.diff(b, 0, size - 1) == [1, size - 1]
            assert b.diff(a, 1, size - 2) == [1]


def test_nan_written_over_itself_still_refreshes():
    # a NaN is not == to itself, so writing the NaN object a leaf already
    # holds is not skipped: it refreshes the leaf's n ancestors, and the
    # position is still reported against a tree holding the same object
    nan = float("nan")
    for n in (2, 7):
        size = 1 << n
        pos = 5 % size
        s = [0] * size
        s[pos] = nan
        store = TagStore()
        a = rotated(TaggedShiftTree(n, store), s, 1)
        b = rotated(TaggedShiftTree(n, store), s, 6)
        for _ in range(2):
            before = a.update_calls
            a.set(pos, nan)
            assert a.update_calls - before == n
            assert a.nodes[a.topo.leaf_of_position(pos)] is nan
            assert a.diff(b, 0, size - 1) == [pos]
            assert b.diff(a, 0, size - 1) == [pos]


def fresh_pair(backend, n, s, shifts, letter=lambda x: x):
    """Two trees of ``backend`` holding ``s`` (mapped by ``letter``) at
    rotation offsets ``shifts``, and their TagStore (None if hashed)."""
    if backend == "hashed":
        ctx = make_context(1 << n, seed=n)
        return [rotated(HashedShiftTree(n, ctx), s, k) for k in shifts], None
    store = TagStore()
    trees = [rotated(TaggedShiftTree(n, store), [letter(x) for x in s], k)
             for k in shifts]
    return trees, store


def state(tree, store):
    """Everything a write could touch: the nodes, the tags, the update
    count and the store's operation and live-tag counts."""
    counts = None if store is None else (store.ops, store.live)
    return (list(tree.nodes), list(getattr(tree, "tags", [])),
            tree.update_calls, counts)


@pytest.mark.parametrize("backend, letter", [
    ("hashed", int), ("tagged", int), ("tagged", Glyph)],
    ids=["hashed", "tagged", "tagged-glyphs"])
def test_write_of_the_present_letter_changes_nothing(backend, letter):
    # a point write of a letter == to the one its leaf holds (an equal new
    # object, too) writes nothing and refreshes nothing: nodes, tags, the
    # update count and the store's counts stay as they were
    rng = Random(45)
    for n in range(11):
        size = 1 << n
        s = [rng.choice([0, 1, 3 << 70]) for _ in range(size)]
        trees, store = fresh_pair(backend, n, s, (rng.randrange(size),
                                                  rng.randrange(size)),
                                  letter)
        a, b = trees
        a.diff(b, 0, size - 1)
        for pos in rng.sample(range(size), min(size, 20)):
            before = state(a, store)
            # int(str(x)) is a new int object for the big letter
            a.set(pos, letter(int(str(s[pos]))))
            assert state(a, store) == before, (n, pos)
        assert a.materialize() == [letter(x) for x in s]


@pytest.mark.parametrize("backend", ["hashed", "tagged"])
def test_write_of_the_present_letter_keeps_an_equality(backend):
    # after a diff has settled two equal trees at their roots, writes of
    # the letters already there leave the next diff at one visit: a tagged
    # tree keeps the tags the diff unioned
    rng = Random(46)
    for n in (3, 6, 7, 10):
        size = 1 << n
        s = [rng.randrange(3) for _ in range(size)]
        (a, b), _ = fresh_pair(backend, n, s, (3, 3 + size // 2))
        assert a.diff(b, 0, size - 1) == []
        before = a.diff_visits
        assert a.diff(b, 0, size - 1) == []
        assert a.diff_visits - before == 1
        for pos in range(size):
            a.set(pos, s[pos])
            b.set(pos, s[pos])
        before = a.diff_visits
        assert a.diff(b, 0, size - 1) == []
        assert a.diff_visits - before == 1, n


def audit_tag_equivalences(store, trees):
    """At every level, a node's entry is its letter if its string is
    uniform and ``_MIXED`` if not; tag slots exist only for the nodes at or
    above block level, whose nodes cover at least min(64, 2**n) leaves
    (levels 0..max(n - 6, 0) in every tree, a word tree included), and
    such a node holds a tag iff it is mixed; no two nodes hold one tag;
    equivalent live tags cover equal strings; every live tag sits on a node
    (quadratic audit)."""
    by_class = {}
    held = []
    for tree in trees:
        slots = 2 << max(tree.n - 6, 0)
        assert len(tree.tags) == slots
        assert tree.tags[tree.size:] == [None] * (slots - tree.size)
        for i in range(1, tree.size):
            s = node_string(tree, i)
            uniform = all(x == s[0] for x in s)
            assert (tree.nodes[i] == s[0]) if uniform \
                else (tree.nodes[i] is _MIXED), i
            if i >= slots:
                continue
            tag = tree.tags[i]
            assert (tag is None) == uniform, i
            if tag is not None:
                held.append(tag)
                by_class.setdefault(store.find(tag), []).append(s)
    assert len(set(held)) == len(held)
    for strings in by_class.values():
        for s in strings[1:]:
            assert s == strings[0]
    assert store.live == len(held)


def test_equivalence_classes_only_join_equal_strings():
    # at depths 7 and 8 tags also sit below the root: there the trees start
    # equal, as runs of eight random letters, rotate by whole runs and are
    # diffed over whole runs, so that diffs union equal tagged blocks
    rng = Random(55)
    for trial in range(60):
        n = rng.choice([1, 2, 2, 3, 3, 4, 7, 8])
        size = 1 << n
        if n >= 7:
            run = size // 8
            strings = [runs("".join(rng.choice("01") for _ in range(8)),
                            run)] * 3
        else:
            run = 1
            strings = [[rng.randrange(2) for _ in range(size)]
                       for _ in range(3)]
        store = TagStore()
        trees = []
        for s in strings:
            t = TaggedShiftTree(n, store)
            t.init(s)
            trees.append(t)
        for _ in range(rng.randint(2, 20)):
            op = rng.random()
            t = rng.choice(trees)
            if op < 0.35:
                t.set(rng.randrange(size), rng.randrange(2))
            elif op < 0.6:
                t.shift(run * rng.randint(-size // run, size // run))
            else:
                other = rng.choice(trees)
                if other is not t:
                    # interval ends on run boundaries
                    a = rng.randrange(size // run)
                    b = rng.randrange(a, size // run)
                    t.diff(other, a * run, b * run + run - 1)
        audit_tag_equivalences(store, trees)


@pytest.mark.parametrize("letter", [int, Glyph], ids=["bits", "glyphs"])
def test_fill_is_exact_on_every_write_path(letter):
    rng = Random(91)
    for trial in range(80):
        n = rng.choice([0, 1, 2, 3, 3, 4, 5, 7, 8])
        size = 1 << n
        store = TagStore()
        tree = TaggedShiftTree(n, store)
        audit_tag_equivalences(store, [tree])  # fresh: uniform None letters

        def string():
            # mostly one letter, so that uniform blocks of every size occur
            ones = rng.choice([0.0, 0.05, 0.5, 0.95, 1.0])
            return [letter(int(rng.random() < ones)) for _ in range(size)]

        tree.init(string())
        audit_tag_equivalences(store, [tree])
        for _ in range(12):
            roll = rng.random()
            if roll < 0.3:
                tree.set(rng.randrange(size), letter(rng.randrange(2)))
            elif roll < 0.6:
                # a run of point writes of one letter, audited at its end
                positions, x = batch_write(rng, size), letter(rng.randrange(2))
                for pos in positions:
                    tree.set(pos, x)
            elif roll < 0.9:
                tree.shift(rng.randint(-size, size))
            else:
                tree.init(string())
            audit_tag_equivalences(store, [tree])


def test_tags_stay_exact_under_random_ops():
    # three trees share a store and take random init, set, shift and diff
    # calls, a diff of a tree with itself included, and runs of sets of one
    # letter; the audit runs after every call or run.  Strings are eight
    # runs, rotated mostly by whole runs and at times copied from another
    # tree, so that diffs find equal mixed nodes to join.
    rng = Random(303)
    for trial in range(300):
        n = rng.choice([0, 1, 2, 3, 4, 6, 7, 8])
        size = 1 << n
        run = max(size // 8, 1)

        def string():
            return runs("".join(rng.choice("01") for _ in range(size // run)),
                        run)

        store = TagStore()
        trees = [TaggedShiftTree(n, store) for _ in range(3)]
        first = string()
        for t in trees:
            t.init(first)
        for _ in range(12):
            t = rng.choice(trees)
            roll = rng.random()
            if roll < 0.1:
                t.init(string())
            elif roll < 0.2:
                t.init(rng.choice(trees).materialize())  # equal strings
            elif roll < 0.3:
                t.set(rng.randrange(size), rng.randrange(2))
            elif roll < 0.4:
                positions, x = batch_write(rng, size), rng.randrange(2)
                for pos in positions:
                    t.set(pos, x)
            elif roll < 0.55:
                k = rng.randint(-8, 8) * run
                t.shift(k if rng.random() < 0.8 else k + rng.randrange(size))
            else:
                other = rng.choice(trees)
                lo = rng.randrange(size)
                hi = rng.randrange(lo, size) if rng.random() < 0.5 \
                    else size - 1
                if rng.random() < 0.5:
                    lo = 0
                want = naive_diff(t.materialize(), other.materialize(), lo, hi)
                assert t.diff(other, lo, hi) == want
            audit_tag_equivalences(store, trees)


@pytest.mark.parametrize("left, right, want, at_root, above", [
    ("0000", "0000", [], (0, 0), (0, 0)),            # uniform/uniform, equal
    ("0000", "1111", [0, 1, 2, 3], (0, 0), (0, 0)),  # uniform, other letters
    ("0000", "0100", [1], (0, 0), (0, 0)),           # uniform/mixed at the root
    ("0101", "0101", [], (2, 1), (6, 3)),            # mixed/mixed
    ("0101", "0100", [3], (2, 0), (4, 1)),           # mixed roots, a mixed pair
], ids=["same-letter", "other-letter", "uniform-mixed", "mixed-mixed",
        "mixed-roots"])
def test_diff_unions_only_tagged_pairs(left, right, want, at_root, above):
    # (finds, unions) at depth 2, where the root is the only block, and at
    # depth 7, where each letter becomes a run of 32 and the walk descends
    # from the root into its two 64-position blocks
    for depth, (finds, unions) in ((2, at_root), (7, above)):
        width = 1 << (depth - 2)
        store = TagStore()
        a = TaggedShiftTree(depth, store)
        b = TaggedShiftTree(depth, store)
        a.init(runs(left, width))
        b.init(runs(right, width))
        found, joined = [], []
        find, union = store.find, store.union
        store.find = lambda x: found.append(x) or find(x)
        store.union = lambda x, y: joined.append((x, y)) or union(x, y)
        assert a.diff(b, 0, a.size - 1) == [
            p * width + r for p in want for r in range(width)]
        assert None not in found and len(found) == finds, depth
        assert all(None not in pair for pair in joined), depth
        assert len(joined) == unions, depth
        audit_tag_equivalences(store, [a, b])


def test_store_operation_envelope():
    # total store ops <= C * (updates + sum over diffs of (d+1) log2 m)
    rng = Random(77)
    for n in (3, 5, 7):
        size = 1 << n
        store = TagStore()
        a = TaggedShiftTree(n, store)
        b = TaggedShiftTree(n, store)
        a.init([rng.randrange(2) for _ in range(size)])
        b.init([rng.randrange(2) for _ in range(size)])
        diff_budget = 0.0
        for _ in range(200):
            op = rng.random()
            t = a if rng.random() < 0.5 else b
            if op < 0.4:
                t.set(rng.randrange(size), rng.randrange(2))
            elif op < 0.7:
                t.shift(rng.randint(-size, size))
            else:
                lo = rng.randrange(size)
                d = len(a.diff(b, lo, rng.randrange(lo, size)))
                diff_budget += (d + 1) * math.log2(size)
        total_updates = a.update_calls + b.update_calls
        assert store.ops <= 64 * (total_updates + diff_budget)

"""Word trees: 0/1 strings of length L = 2**width packed min(512, L)
positions per leaf, written by ``set_bits`` and read by ``diff_windows``,
checked against list models on both variants."""

from random import Random

import pytest

from shifttree import (
    HashedShiftTree,
    TaggedShiftTree,
    TagStore,
    make_context,
)

from helpers import (
    batch_write, hash_string, inner_ancestors, naive_diff, node_string,
    rotate_right, word_string)

from test_tagged_tree import audit_tag_equivalences

BACKENDS = ("hashed", "tagged")


def word_trees(backend, width, seed=0):
    """Two fresh word trees over one hash context or one tag store."""
    if backend == "hashed":
        cls, shared = HashedShiftTree, make_context(1 << width, seed)
    else:
        cls, shared = TaggedShiftTree, TagStore()
    return [cls.packed(width, shared) for _ in range(2)], shared


def write(tree, positions, x):
    """Write bit ``x`` at each of ``positions`` as one-bit spans."""
    tree.set_bits([(pos, 1) for pos in positions], x)


def load(tree, s):
    """Make a word tree hold the 0/1 list ``s``, whatever it held: its ones
    as one span of set bits, then its zeros as another."""
    ones = int("".join(map(str, reversed(s))), 2)
    tree.set_bits([(0, ones)], 1)
    tree.set_bits([(0, ones ^ ((1 << len(s)) - 1))], 0)


def diff_positions(tree, other, a, b):
    """The set bits of ``own ^ theirs`` over the windows ``diff_windows``
    reports, as string positions in ascending order."""
    q = tree.q
    return [(c << q) + i for c, own, theirs in tree.diff_windows(other, a, b)
            for i in range(1 << q) if (own ^ theirs) >> i & 1]


def audit(trees, shared) -> bool:
    """Every window holds exactly min(512, L) bits; every hashed summary is
    the hash of the windows under it, each reduced mod p; every tag is
    exact.  Returns whether some window is p or more."""
    big = False
    for tree in trees:
        bits = 1 << tree.q
        leaves = tree.nodes[tree.size:]
        assert all(0 <= w < 1 << bits for w in leaves), tree.r
        if isinstance(shared, TagStore):
            continue
        big |= max(leaves) >= shared.p
        for i in range(1, tree.size):
            windows = node_string(tree, i)
            assert tree.nodes[i] == hash_string(
                shared, [w % shared.p for w in windows])
    if isinstance(shared, TagStore):
        audit_tag_equivalences(shared, trees)
    return big


def random_bits(rng, L: int) -> list[int]:
    """A uniformly random 0/1 list of length L, from one draw."""
    return list(map(int, format(rng.getrandbits(L), f"0{L}b")))


def shift_updates(width: int, k: int) -> int:
    """Inner nodes a word tree refreshes on ``shift(k)``: with j the
    valuation of k mod L, a word-tree shift by k >> 9 for j >= 9, which is
    (L/512 >> (j - 9)) - 1, and a re-tile then a whole-tree refresh for
    j < 9, which is L/512 - 1 (0 when L <= 512: one window, no inner
    node)."""
    L = 1 << width
    k %= L
    if k == 0:
        return 0
    q = min(width, 9)
    j = (k & -k).bit_length() - 1
    return ((L >> q) >> max(j - q, 0)) - 1


def random_shift(rng, width: int) -> int:
    """A shift of valuation below 9, equal to 9 or above 9 (at times a
    multiple of L), at times negative or larger than L."""
    L = 1 << width
    j = rng.choice([rng.randrange(9), 9, rng.randint(10, 15)])
    k = (2 * rng.randrange(L) + 1) << j
    if rng.random() < 0.3:
        k = -k
    if rng.random() < 0.3:
        k += rng.randint(-3, 3) * L
    return k


@pytest.mark.parametrize("backend", BACKENDS)
def test_word_trees_match_list_models(backend):
    # every width from 0 to 13 (L = 1 .. 8192, so L < 512 included), each
    # tree one block, then fewer trials at widths 16 to 18, whose trees of
    # depth 7 to 9 have levels and tags above their blocks of 64 windows
    # and start out holding one random string, so that diffs find equal
    # mixed blocks to join.  Random whole-string loads, one-bit and
    # batched writes with repeats, shifts of every valuation class and
    # diffs on random intervals, each trial on its own hash prime; each
    # shift refreshes exactly ``shift_updates`` inner nodes, and the audit
    # runs after every call
    rng = Random(16)
    valuations = set()
    big_windows = 0
    deep_unions = []
    for trial, width in enumerate(list(range(14)) * 80 + [16, 17, 18] * 4):
        L = 1 << width
        trees, shared = word_trees(backend, width, seed=trial)
        if backend == "tagged" and width > 13:
            union = shared.union
            shared.union = lambda x, y: deep_unions.append(x) or union(x, y)
        models = [[0] * L, [0] * L]  # a fresh word tree holds zeros
        assert [word_string(t) for t in trees] == models
        if width > 13:
            s = random_bits(rng, L)
            for tree in trees:
                load(tree, s)
            models = [s, list(s)]
        for _ in range(rng.randint(1, 14)):
            w = rng.randrange(2)
            tree, model = trees[w], models[w]
            roll = rng.random()
            if roll < 0.08:
                s = random_bits(rng, L)
                load(tree, s)
                models[w] = s
            elif roll < 0.25:
                pos, bit = rng.randrange(L), rng.randrange(2)
                write(tree, [pos], bit)
                model[pos] = bit
            elif roll < 0.45:
                positions, bit = batch_write(rng, L), rng.randrange(2)
                write(tree, positions, bit)
                for pos in positions:
                    model[pos] = bit
            elif roll < 0.75:
                k = random_shift(rng, width)
                before = tree.update_calls
                tree.shift(k)
                assert tree.update_calls - before == shift_updates(width, k)
                models[w] = rotate_right(model, k)
                kv = k % L
                if kv:
                    valuations.add(min((kv & -kv).bit_length() - 1, 10))
            else:
                a = rng.randrange(L)
                b = rng.randrange(a, L)
                want = naive_diff(models[w], models[1 - w], a, b)
                assert diff_positions(tree, trees[1 - w], a, b) == want, \
                    (trial, a, b)
            big_windows += audit(trees, shared)
        assert [word_string(t) for t in trees] == models, trial
        want = naive_diff(models[0], models[1], 0, L - 1)
        assert diff_positions(trees[0], trees[1], 0, L - 1) == want, trial
    # re-tiles at every valuation below 9, word shifts at 9 and above
    assert valuations == set(range(11))
    # hashed windows reached the prime: a window need not be below it
    assert (big_windows > 0) == (backend == "hashed")
    # tagged diffs joined mixed pairs at or above the blocks of deep trees
    assert bool(deep_unions) == (backend == "tagged")


@pytest.mark.parametrize("backend", BACKENDS)
def test_word_tree_shift_costs_are_exact(backend):
    # exhaustive over every k in [0, L) for L = 2 .. 2**12
    for width in range(1, 13):
        (tree, _), _ = word_trees(backend, width, seed=width)
        write(tree, range(0, 1 << width, 3), 1)
        for k in range(1 << width):
            before = tree.update_calls
            tree.shift(k)
            assert tree.update_calls - before == shift_updates(width, k), \
                (width, k)


@pytest.mark.parametrize("backend", BACKENDS)
def test_word_tree_layout(backend):
    # L = 2**13: 16 windows of 512 bits under a tree of depth 4; bit i of
    # string block c's window is position 512c + i, whatever the rotation
    (tree, other), _ = word_trees(backend, 13)
    assert (tree.n, tree.q, tree.size, tree.length) == (4, 9, 16, 8192)
    ones = [3, 512 * 5 + 7, 8191]
    write(tree, ones, 1)
    s = [int(p in ones) for p in range(8192)]
    for k in (1, 512, 700, -37):
        tree.shift(k)
        s = rotate_right(s, k)
    assert word_string(tree) == s
    for c in range(16):
        window = tree.nodes[tree.topo.leaf_of_position(c)]
        assert window == sum(bit << i for i, bit in enumerate(
            s[512 * c:512 * c + 512]))
    # L = 8: one window of 8 bits, the tree's only node
    (small, _), _ = word_trees(backend, 3)
    assert (small.n, small.q, small.size, small.length) == (0, 3, 1, 8)
    write(small, [6], 1)
    small.shift(3)
    assert small.nodes[1] == 1 << 1 and word_string(small)[1] == 1
    assert small.update_calls == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_word_tree_validation(backend):
    # the letter methods refuse a word tree, valid arguments or not, before
    # anything is written or counted: it is written by set_bits and read
    # by diff_windows only
    (tree, other), shared = word_trees(backend, 10)
    write(tree, [3, 600, 1023], 1)
    tree.shift(700)
    cls = HashedShiftTree if backend == "hashed" else TaggedShiftTree
    state = (list(tree.nodes), tree.update_calls, tree.diff_visits,
             tree.topo.delta, tree.r)
    for name, args in (
            ("init", ([0] * 1024,)), ("init", ([1] * 1024,)),
            ("init", ([0] * 1023 + [2],)), ("init", ([0] * 64,)),
            ("set", (3, 1)), ("set", (3, 0)), ("set", (3, 2)),
            ("set", (-1, 1)), ("set", (3, None)),
            ("diff", (other, 0, 1023)), ("diff", (other, 0, 1024)),
            ("diff", (cls(tree.n, shared), 0, 1)), ("materialize", ())):
        with pytest.raises(ValueError):
            getattr(tree, name)(*args)
        assert (tree.nodes, tree.update_calls, tree.diff_visits,
                tree.topo.delta, tree.r) == state, name
    assert other.diff_visits == 0
    # a tree of letters refuses a word tree in its diff
    with pytest.raises(ValueError):
        cls(tree.n, shared).diff(tree, 0, 1)


def test_one_context_serves_every_window_width():
    # one context serves word trees of one 8-bit window, one 512-bit
    # window and eight 512-bit windows, and their diffs and hashes stay
    # exact; a context
    # with too few squares for the leaf count is still refused
    for seed in range(5):
        ctx = make_context(8, seed)
        for width in (3, 9, 12):
            a, b = (HashedShiftTree.packed(width, ctx) for _ in range(2))
            assert a.q == min(width, 9)
            write(a, range(0, 1 << width, 5), 1)
            write(b, range(0, 1 << width, 7), 1)
            b.shift(3)
            want = naive_diff(word_string(a), word_string(b),
                              0, (1 << width) - 1)
            assert diff_positions(a, b, 0, (1 << width) - 1) == want
            audit([a, b], ctx)
        with pytest.raises(ValueError):
            HashedShiftTree.packed(13, ctx)  # 16 leaves


def random_word_pair(rng, backend, width, seed):
    """Two word trees holding random strings of one random density, each
    rotated by a random shift, and their list models."""
    trees, shared = word_trees(backend, width, seed)
    L = 1 << width
    density = rng.choice([0.01, 0.3, 0.5, 0.97])
    models = []
    for tree in trees:
        s = [int(rng.random() < density) for _ in range(L)]
        load(tree, s)
        k = random_shift(rng, width)
        tree.shift(k)
        models.append(rotate_right(s, k))
    return trees, models


@pytest.mark.parametrize("backend", BACKENDS)
def test_diff_is_diff_windows_expanded(backend):
    # on random unaligned [a, b]: diff_windows lists each window that
    # differs within [a, b] once, in ascending order, with both trees'
    # bits masked to [a, b], and the set bits of own ^ theirs, window by
    # window, are exactly the list models' differences
    rng = Random(19)
    for trial in range(400):
        width = rng.choice([0, 3, 9, 10, 12])
        L = 1 << width
        (t, o), (s, u) = random_word_pair(rng, backend, width, trial)
        q = t.q
        for _ in range(4):
            a = rng.randrange(L)
            b = rng.choice([a, rng.randrange(a, L), L - 1])
            want = naive_diff(s, u, a, b)
            visits = t.diff_visits
            windows = t.diff_windows(o, a, b)
            assert t.diff_visits > visits
            assert [c for c, _, _ in windows] == sorted(
                {d >> q for d in want}), (trial, a, b)
            for c, own, theirs in windows:
                span = range(max(a, c << q), min(b, ((c + 1) << q) - 1) + 1)
                assert own == sum(s[p] << (p - (c << q)) for p in span)
                assert theirs == sum(u[p] << (p - (c << q)) for p in span)
            expanded = [(c << q) + i for c, own, theirs in windows
                        for i in range(1 << q) if (own ^ theirs) >> i & 1]
            assert expanded == want, (trial, a, b)


def test_window_equal_only_within_the_interval_is_not_joined():
    # two tagged word trees of width 16 or 17 (two or four blocks of 64
    # windows) hold one string but for one bit of window c, the first or
    # the last window of a block.  [a, b] covers that whole block save
    # the part of c that holds the bit: diff_windows(a, b) reports nothing,
    # yet the walk saw c differ, so it joins no tags over c, and a diff
    # over the whole string still reports c
    rng = Random(23)
    for trial in range(16):
        width = rng.choice([16, 17])
        L = 1 << width
        (t, o), store = word_trees("tagged", width)
        s = random_bits(rng, L)
        k = random_shift(rng, width)
        for tree in (t, o):
            load(tree, s)
            tree.shift(k)
        s = rotate_right(s, k)
        first = 64 * rng.randrange(L >> 15)  # a block's first window
        if trial % 2:   # the bit lies before a, in the block's first window
            c = first
            cut = (c << 9) + rng.randint(1, 511)
            p = rng.randrange(c << 9, cut)
            a, b = cut, rng.randrange(((first + 64) << 9) - 1, L)
        else:           # ... or after b, in the block's last window
            c = first + 63
            cut = (c << 9) + rng.randrange(511)
            p = rng.randint(cut + 1, ((c + 1) << 9) - 1)
            a, b = rng.randint(0, first << 9), cut
        write(o, [p], 1 - s[p])
        assert t.diff_windows(o, a, b) == [], trial
        audit_tag_equivalences(store, [t, o])
        for x, y in ((t, o), (o, t)):
            (got, own, theirs), = x.diff_windows(y, 0, L - 1)
            assert (got, own ^ theirs) == (c, 1 << (p - (c << 9))), trial


@pytest.mark.parametrize("backend", BACKENDS)
def test_span_writes_match_one_bit_spans(backend):
    # a span write on one twin and one-bit spans of the same positions on
    # the other leave the same string, the same nodes and the same refresh
    # count: one per distinct inner ancestor of the written windows.  Spans
    # run across windows and past L (starts below 0 and above L, bits
    # longer than a window or than L), and x is 0 or 1
    rng = Random(20)
    writes = 0
    for trial in range(150):
        width = rng.choice([0, 2, 9, 10, 12])
        L = 1 << width
        (a, b), _ = word_trees(backend, width, seed=trial)
        model = [0] * L
        for _ in range(6):
            k = random_shift(rng, width)
            a.shift(k)
            b.shift(k)
            model = rotate_right(model, k)
            x = rng.randrange(2)
            # bits shifted up leave whole windows of a span empty
            spans = [(rng.randrange(-2 * L, 2 * L), rng.getrandbits(
                rng.choice([1, 9, 512, 700, 1500])) << rng.choice(
                [0, 0, 511, 1100])) for _ in range(rng.choice([0, 1, 3, 8]))]
            positions = [(start + i) % L for start, bits in spans
                         for i in range(bits.bit_length()) if bits >> i & 1]
            before = a.update_calls, b.update_calls
            a.set_bits(iter(spans), x)
            write(b, positions, x)
            assert a.update_calls - before[0] == b.update_calls - before[1] \
                == len(inner_ancestors(a.topo, {p >> a.q for p in positions}))
            for p in positions:
                model[p] = x
            assert word_string(a) == word_string(b) == model, trial
            assert a.nodes == b.nodes
            writes += bool(positions)
    assert writes > 300


@pytest.mark.parametrize("backend", BACKENDS)
def test_window_methods_validation(backend):
    (tree, other), shared = word_trees(backend, 10)
    # a bad span anywhere in the batch: nothing is written
    for spans in ([(0, 1), (0.5, 1)], [(0, 1), (3, 1.0)],
                  [(0, 1), (3, -1)], [(0, 1), (None, 1)]):
        with pytest.raises(ValueError):
            tree.set_bits(spans, 1)
    for bad in (2, -1, 0.5, None):
        with pytest.raises(ValueError):
            tree.set_bits([(0, 1)], bad)
    assert word_string(tree) == [0] * 1024 and tree.update_calls == 0
    tree.set_bits([], 1)
    tree.set_bits([(5, 0)], 1)  # no bits: no window written or refreshed
    assert word_string(tree) == [0] * 1024 and tree.update_calls == 0
    for a, b in ((-1, 3), (3, 2), (0, 1024), (0.0, 3)):
        with pytest.raises(ValueError):
            tree.diff_windows(other, a, b)
    # both methods are for word trees only
    cls = HashedShiftTree if backend == "hashed" else TaggedShiftTree
    letters, twin = cls(3, shared), cls(3, shared)
    with pytest.raises(ValueError):
        letters.set_bits([(0, 1)], 1)
    with pytest.raises(ValueError):
        letters.diff_windows(twin, 0, 7)
    with pytest.raises(ValueError):
        tree.diff_windows(letters, 0, 7)

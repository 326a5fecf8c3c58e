"""Word trees: 0/1 strings of length L = 2**width packed min(W, L)
positions per leaf, W = ``_WORD``, written by ``set_bits`` and read by
``diff_windows``, checked against models on both variants: a string of L
bits is modelled as one L-bit int, bit i its position i."""

from itertools import accumulate
from operator import and_, or_
from random import Random

import pytest

from shifttree import (
    HashedShiftTree,
    TaggedShiftTree,
    TagStore,
    make_context,
)
from shifttree.shift_tree import _WORD as W

from helpers import (
    batch_write, bit_mask, hash_string, inner_ancestors, node_string,
    rotate_right, word_bits, word_string)

from test_tagged_tree import audit_tag_equivalences

BACKENDS = ("hashed", "tagged")
Q = W.bit_length() - 1  # log2 of a full window's width


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


def load(tree, s: int, L: int):
    """Make a word tree of length L hold the string of the L-bit int ``s``,
    whatever it held: its ones as one span of set bits, then its zeros as
    another."""
    tree.set_bits([(0, s)], 1)
    tree.set_bits([(0, s ^ ((1 << L) - 1))], 0)


def rotate_bits(s: int, k: int, L: int) -> int:
    """The L-bit string ``s`` rotated right by ``k``: bit j of the result
    is bit (j - k) mod L of ``s``."""
    k %= L
    return (s << k | s >> (L - k)) & ((1 << L) - 1)


def interval(a: int, b: int) -> int:
    """The mask of the positions in [a, b]."""
    return ((1 << (b - a + 1)) - 1) << a


def diff_bits(tree, other, a, b) -> int:
    """The set bits of ``own ^ theirs`` over the windows ``diff_windows``
    reports, at their string positions, as one int; the windows must come
    in ascending order, each once."""
    windows = tree.diff_windows(other, a, b)
    starts = [c for c, _, _ in windows]
    assert starts == sorted(set(starts))
    return sum((own ^ theirs) << (c << tree.q) for c, own, theirs in windows)


def audit(trees, shared) -> bool:
    """Every window holds exactly min(W, L) bits; every hashed summary,
    reduced mod p, is the hash of the windows under it, each reduced mod
    p; every tag is exact.  Returns whether some window is p or more.  A
    window write's refresh waits for the tree's next diff or shift, so the
    audit first settles it, as a diff would."""
    big = False
    for tree in trees:
        tree._settle()
        bits = 1 << tree.q
        leaves = tree.nodes[tree.size:]
        assert all(0 <= w < 1 << bits for w in leaves), tree.r
        if isinstance(shared, TagStore):
            continue
        big |= max(leaves) >= shared.p
        for i in range(1, tree.size):
            windows = node_string(tree, i)
            assert tree.nodes[i] % shared.p == hash_string(
                shared, [w % shared.p for w in windows])
    if isinstance(shared, TagStore):
        audit_tag_equivalences(shared, trees)
    return big


def shift_updates(width: int, k: int) -> int:
    """Inner nodes a word tree refreshes on ``shift(k)``: with j the
    valuation of k mod L, a word-tree shift by k >> Q for j >= Q, which is
    (L/W >> (j - Q)) - 1, and a re-tile then a whole-tree refresh for
    j < Q, which is L/W - 1 (0 when L <= W: one window, no inner
    node)."""
    L = 1 << width
    k %= L
    if k == 0:
        return 0
    q = min(width, Q)
    j = (k & -k).bit_length() - 1
    return ((L >> q) >> max(j - q, 0)) - 1


def random_shift(rng, width: int) -> int:
    """A shift of valuation below Q, equal to Q or above Q (at times a
    multiple of L), at times negative or larger than L."""
    L = 1 << width
    j = rng.choice([rng.randrange(Q), Q, rng.randint(Q + 1, Q + 6)])
    k = (2 * rng.randrange(L) + 1) << j
    if rng.random() < 0.3:
        k = -k
    if rng.random() < 0.3:
        k += rng.randint(-3, 3) * L
    return k


@pytest.mark.parametrize("backend", BACKENDS)
def test_word_trees_match_list_models(backend):
    # every width from 0 to Q + 4 (L = 1 .. 16 W, so L < W included), each
    # tree one block, then fewer trials at widths Q + 7 to Q + 9, whose
    # trees of depth 7 to 9 have levels and tags above their blocks of 64
    # windows and start out holding one random string, so that diffs find
    # equal mixed blocks to join.  Random whole-string loads, one-bit and
    # batched writes with repeats, shifts of every valuation class and
    # diffs on random intervals, each trial on its own hash prime; each
    # shift refreshes exactly ``shift_updates`` inner nodes, and the audit
    # runs after every call
    rng = Random(16)
    valuations = set()
    big_windows = 0
    deep_unions = []
    for trial, width in enumerate(list(range(Q + 5)) * 80
                                  + [Q + 7, Q + 8, Q + 9] * 4):
        L = 1 << width
        trees, shared = word_trees(backend, width, seed=trial)
        if backend == "tagged" and width > Q + 4:
            union = shared.union
            shared.union = lambda x, y: deep_unions.append(x) or union(x, y)
        models = [0, 0]  # a fresh word tree holds zeros
        assert [word_bits(t) for t in trees] == models
        if width > Q + 4:
            s = rng.getrandbits(L)
            for tree in trees:
                load(tree, s, L)
            models = [s, s]
        for _ in range(rng.randint(1, 14)):
            w = rng.randrange(2)
            tree = trees[w]
            roll = rng.random()
            if roll < 0.08:
                models[w] = rng.getrandbits(L)
                load(tree, models[w], L)
            elif roll < 0.45:
                # one bit, or a batch of positions with repeats
                positions = [rng.randrange(L)] if roll < 0.25 \
                    else batch_write(rng, L, most=2 * W)
                bit = rng.randrange(2)
                write(tree, positions, bit)
                mask = bit_mask(positions)
                models[w] = models[w] | mask if bit else models[w] & ~mask
            elif roll < 0.75:
                k = random_shift(rng, width)
                before = tree.update_calls
                tree.shift(k)
                assert tree.update_calls - before == shift_updates(width, k)
                models[w] = rotate_bits(models[w], k, L)
                kv = k % L
                if kv:
                    valuations.add(min((kv & -kv).bit_length() - 1, Q + 1))
            else:
                a = rng.randrange(L)
                b = rng.randrange(a, L)
                want = (models[w] ^ models[1 - w]) & interval(a, b)
                assert diff_bits(tree, trees[1 - w], a, b) == want, \
                    (trial, a, b)
            big_windows += audit(trees, shared)
        assert [word_bits(t) for t in trees] == models, trial
        assert diff_bits(trees[0], trees[1], 0, L - 1) \
            == models[0] ^ models[1], trial
    # re-tiles at every valuation below Q, word shifts at Q and above
    assert valuations == set(range(Q + 2))
    # hashed windows reached the prime: a window need not be below it
    assert (big_windows > 0) == (backend == "hashed")
    # tagged diffs joined mixed pairs at or above the blocks of deep trees
    assert bool(deep_unions) == (backend == "tagged")


@pytest.mark.parametrize("backend", BACKENDS)
def test_word_tree_shift_costs_are_exact(backend):
    # exhaustive over every k in [0, L) for L = 2 .. 8 W: one window up
    # to L = W, then trees of depth 1 to 3
    for width in range(1, Q + 4):
        (tree, _), _ = word_trees(backend, width, seed=width)
        write(tree, range(0, 1 << width, 3), 1)
        for k in range(1 << width):
            before = tree.update_calls
            tree.shift(k)
            assert tree.update_calls - before == shift_updates(width, k), \
                (width, k)


@pytest.mark.parametrize("backend", BACKENDS)
def test_word_tree_layout(backend):
    # L = 16 W: 16 windows of W bits under a tree of depth 4; bit i of
    # string block c's window is position Wc + i, whatever the rotation
    L = 16 * W
    (tree, other), _ = word_trees(backend, Q + 4)
    assert (tree.n, tree.q, tree.size, tree.length) == (4, Q, 16, L)
    ones = [3, W * 5 + 7, L - 1]
    write(tree, ones, 1)
    s = [int(p in ones) for p in range(L)]
    for k in (1, W, W + 188, -37):
        tree.shift(k)
        s = rotate_right(s, k)
    assert word_string(tree) == s
    for c in range(16):
        window = tree.nodes[tree.topo.leaf_of_position(c)]
        assert window == sum(bit << i for i, bit in enumerate(
            s[W * c:W * c + W]))
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
    # one context serves word trees of one 8-bit window, one W-bit window
    # and eight W-bit windows, and their diffs and hashes stay exact; a
    # context with too few squares for the leaf count is still refused
    for seed in range(5):
        ctx = make_context(8, seed)
        for width in (3, Q, Q + 3):
            L = 1 << width
            a, b = (HashedShiftTree.packed(width, ctx) for _ in range(2))
            assert a.q == min(width, Q)
            write(a, range(0, L, 5), 1)
            write(b, range(0, L, 7), 1)
            b.shift(3)
            assert diff_bits(a, b, 0, L - 1) == word_bits(a) ^ word_bits(b)
            audit([a, b], ctx)
        with pytest.raises(ValueError):
            HashedShiftTree.packed(Q + 4, ctx)  # 16 leaves


def random_word_pair(rng, backend, width, seed):
    """Two word trees holding random strings of one random density (about
    1/128, 1/4, 1/2 or 31/32: the AND or the OR of a few uniform draws),
    each rotated by a random shift, and their models."""
    trees, shared = word_trees(backend, width, seed)
    L = 1 << width
    join, draws = rng.choice([(and_, 7), (and_, 2), (or_, 1), (or_, 5)])
    models = []
    for tree in trees:
        *_, s = accumulate((rng.getrandbits(L) for _ in range(draws)), join)
        load(tree, s, L)
        k = random_shift(rng, width)
        tree.shift(k)
        models.append(rotate_bits(s, k, L))
    return trees, models


@pytest.mark.parametrize("backend", BACKENDS)
def test_diff_is_diff_windows_expanded(backend):
    # on random unaligned [a, b]: diff_windows lists each window that
    # differs within [a, b] once, in ascending order, with both trees'
    # bits masked to [a, b], and the set bits of own ^ theirs, window by
    # window, are exactly the models' differences
    rng = Random(19)
    for trial in range(400):
        width = rng.choice([0, 3, Q, Q + 1, Q + 3])
        L = 1 << width
        (t, o), (s, u) = random_word_pair(rng, backend, width, trial)
        q = t.q
        full = (1 << (1 << q)) - 1
        for _ in range(4):
            a = rng.randrange(L)
            b = rng.choice([a, rng.randrange(a, L), L - 1])
            want = (s ^ u) & interval(a, b)
            visits = t.diff_visits
            windows = t.diff_windows(o, a, b)
            assert t.diff_visits > visits
            assert [c for c, _, _ in windows] == [
                c for c in range(L >> q) if want >> (c << q) & full], \
                (trial, a, b)
            for c, own, theirs in windows:
                span = interval(a, b) >> (c << q) & full
                assert own == s >> (c << q) & span
                assert theirs == u >> (c << q) & span
            expanded = sum((own ^ theirs) << (c << q)
                           for c, own, theirs in windows)
            assert expanded == want, (trial, a, b)


def test_window_equal_only_within_the_interval_is_not_joined():
    # two tagged word trees of width Q + 7 or Q + 8 (two or four blocks of
    # 64 windows) hold one string but for one bit of window c, the first
    # or the last window of a block.  [a, b] covers that whole block save
    # the part of c that holds the bit: diff_windows(a, b) reports nothing,
    # yet the walk saw c differ, so it joins no tags over c, and a diff
    # over the whole string still reports c
    rng = Random(23)
    for trial in range(16):
        width = rng.choice([Q + 7, Q + 8])
        L = 1 << width
        (t, o), store = word_trees("tagged", width)
        s = rng.getrandbits(L)
        k = random_shift(rng, width)
        for tree in (t, o):
            load(tree, s, L)
            tree.shift(k)
        s = rotate_bits(s, k, L)
        first = 64 * rng.randrange(L >> (Q + 6))  # a block's first window
        if trial % 2:   # the bit lies before a, in the block's first window
            c = first
            cut = (c << Q) + rng.randint(1, W - 1)
            p = rng.randrange(c << Q, cut)
            a, b = cut, rng.randrange(((first + 64) << Q) - 1, L)
        else:           # ... or after b, in the block's last window
            c = first + 63
            cut = (c << Q) + rng.randrange(W - 1)
            p = rng.randint(cut + 1, ((c + 1) << Q) - 1)
            a, b = rng.randint(0, first << Q), cut
        write(o, [p], 1 - (s >> p & 1))
        assert t.diff_windows(o, a, b) == [], trial
        audit_tag_equivalences(store, [t, o])
        for x, y in ((t, o), (o, t)):
            (got, own, theirs), = x.diff_windows(y, 0, L - 1)
            assert (got, own ^ theirs) == (c, 1 << (p - (c << Q))), trial


def sparse_bits(rng, n: int) -> int:
    """n random bits: uniform up to 64 bits, and about one in sixteen set
    in a longer span, which keeps its ones few."""
    bits = rng.getrandbits(n)
    for _ in range(3 if n > 64 else 0):
        bits &= rng.getrandbits(n)
    return bits


def set_bit_indices(bits: int) -> list[int]:
    """The indices of the set bits of ``bits``, lowest first, a C-level
    search each."""
    digits = bin(bits)[:1:-1]
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


@pytest.mark.parametrize("backend", BACKENDS)
def test_span_writes_match_one_bit_spans(backend):
    # a span write on one twin and one-bit spans of the same positions on
    # the other leave the same string, the same windows to refresh and,
    # once settled, the same nodes and the same refresh count: one per
    # distinct inner ancestor of the written windows.  Spans
    # run across windows and past L (starts below 0 and above L, bits
    # longer than a window or than L), and x is 0 or 1
    rng = Random(20)
    writes = 0
    for trial in range(150):
        width = rng.choice([0, 2, Q, Q + 1, Q + 3])
        L = 1 << width
        (a, b), _ = word_trees(backend, width, seed=trial)
        model = 0
        for _ in range(6):
            k = random_shift(rng, width)
            a.shift(k)
            b.shift(k)
            model = rotate_bits(model, k, L)
            x = rng.randrange(2)
            # bits shifted up leave whole windows of a span empty
            spans = [(rng.randrange(-2 * L, 2 * L), sparse_bits(
                rng, rng.choice([1, 9, W, W + 188, 3 * W - 36])) << rng.choice(
                [0, 0, W - 1, 2 * W + 76])) for _ in range(rng.choice(
                    [0, 1, 3, 8]))]
            positions = [(start + i) % L for start, bits in spans
                         for i in set_bit_indices(bits)]
            before = a.update_calls, b.update_calls
            a.set_bits(iter(spans), x)
            write(b, positions, x)
            # the writes refresh nothing yet; settling them refreshes each
            # distinct inner ancestor of the written windows once
            assert (a.update_calls, b.update_calls) == before
            assert a.stale == b.stale
            a._settle()
            b._settle()
            assert a.update_calls - before[0] == b.update_calls - before[1] \
                == len(inner_ancestors(a.topo, {p >> a.q for p in positions}))
            mask = bit_mask(positions)
            model = model | mask if x else model & ~mask
            assert word_bits(a) == word_bits(b) == model, trial
            assert a.nodes == b.nodes
            writes += bool(positions)
    assert writes > 300


@pytest.mark.parametrize("backend", BACKENDS)
def test_window_writes_refresh_at_the_next_diff_or_shift(backend):
    # a window write leaves its tree's summaries stale until the tree's
    # next diff or shift.  A shift that refreshes the whole tree (every
    # re-tile, and a word shift by an odd number of windows) folds the
    # stale windows into that refresh; any other shift, and a diff, first
    # refresh their ancestors.  Either way the lazy twin's nodes end as
    # those of a twin settled right after the write, at no more updates
    rng = Random(33)
    folded = settled = 0
    for trial in range(200):
        width = rng.choice([Q + 1, Q + 2, Q + 4, Q + 7])
        L = 1 << width
        (lazy, eager), shared = word_trees(backend, width, seed=trial)
        for _ in range(4):
            positions = batch_write(rng, L, most=64)
            x = rng.randrange(2)
            for tree in (lazy, eager):
                write(tree, positions, x)
            assert lazy.stale == eager.stale
            before = lazy.update_calls, eager.update_calls
            eager._settle()
            cost = eager.update_calls - before[1]
            assert cost == len(inner_ancestors(
                eager.topo, {p >> Q for p in positions}))
            if rng.random() < 0.3:
                # equal strings: the diff, either way round, settles both
                # trees, then reports nothing
                pair = [lazy, eager][::rng.choice([1, -1])]
                assert pair[0].diff_windows(pair[1], 0, L - 1) == []
                assert lazy.update_calls - before[0] == cost
                assert lazy.nodes == eager.nodes and not lazy.stale
                continue
            k = random_shift(rng, width)
            lazy.shift(k)
            eager.shift(k)
            if k % L == 0:
                # no rotation: nothing is refreshed, and the windows wait
                assert lazy.update_calls == before[0]
                lazy._settle()
                assert lazy.nodes == eager.nodes
                continue
            whole = shift_updates(width, k) == (L >> Q) - 1
            assert lazy.update_calls - before[0] == shift_updates(width, k) \
                + (0 if whole else cost), (trial, k)
            assert lazy.nodes == eager.nodes and not lazy.stale
            folded += whole and cost > 0
            settled += not whole and cost > 0
        audit([lazy, eager], shared)
    assert folded > 50 and settled > 50


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

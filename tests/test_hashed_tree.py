from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from shifttree import (
    HashContext, HashedShiftTree, TaggedShiftTree, TagStore, make_context)

from shifttree.shift_tree import _WORD as W

from helpers import (
    batch_write, bits, hash_string, naive_diff, node_string, rotate_right)

Q = W.bit_length() - 1  # log2 of a word tree's full window


def fresh(n, seed=0):
    ctx = make_context(max(1 << n, 1), seed=seed)
    tree = HashedShiftTree(n, ctx)
    return tree, ctx


def audit_invariant(tree):
    """Every stored sum, reduced mod p, is the hash of the node's covered
    letters."""
    for i in range(1, 2 * tree.size):
        assert tree.nodes[i] % tree.ctx.p == hash_string(
            tree.ctx, node_string(tree, i)), i


def test_init_uniform_string():
    tree, ctx = fresh(2)
    tree.init(bits("0000"))
    for i in range(1, 4):
        seg = tree.size >> (i.bit_length() - 1)
        assert tree.nodes[i] == hash_string(ctx, [0] * seg)


def test_init_matches_oracle_and_is_deterministic():
    tree, ctx = fresh(2)
    tree.init(bits("0001"))
    assert tree.nodes[1] % ctx.p == hash_string(ctx, bits("0001"))
    audit_invariant(tree)
    other = HashedShiftTree(2, ctx)
    other.init(bits("0001"))
    assert other.nodes == tree.nodes


def test_init_validation():
    tree, ctx = fresh(2)
    with pytest.raises(ValueError):
        tree.init([0, 1])
    with pytest.raises(ValueError):
        tree.init([0, 0, 0, ctx.p])
    with pytest.raises(ValueError):
        tree.init([0, 0, 0, -1])
    with pytest.raises(ValueError):
        HashedShiftTree(4, make_context(8, seed=0))  # context too short


@pytest.mark.parametrize("letter", [0.5, 1.0])
@pytest.mark.parametrize("write", ["set", "init"])
def test_letters_must_be_integers(write, letter):
    # a float letter hashes mod p like an integer: with 0.5 at position 5
    # a diff against the zero string found no difference.  Each write path
    # refuses it and writes nothing; a bool is an integer and passes.
    tree, ctx = fresh(10, seed=1)
    zeros = HashedShiftTree(10, ctx)
    s = [0] * tree.size
    s[5] = letter
    with pytest.raises(ValueError):
        if write == "set":
            tree.set(5, letter)
        else:
            tree.init(s)
    assert tree.materialize() == zeros.materialize()
    assert tree.diff(zeros, 0, tree.size - 1) == []
    s[5] = True
    tree.init(s)
    assert tree.diff(zeros, 0, tree.size - 1) == [5]


def test_update_hand_checked():
    # letters 1, 2 under p=101, r=10: parent hash 1 + 2*10 = 21
    ctx = HashContext(4, r=10, p=101)
    tree = HashedShiftTree(1, ctx)
    tree.init([1, 2])
    assert tree.nodes[1] == 21


def test_update_zero_children():
    tree, _ = fresh(3)
    assert tree.nodes[1] == 0  # fresh tree is the all-zero string
    tree.init([0] * 8)
    assert tree.nodes[1] == 0


def test_set_examples():
    tree, ctx = fresh(2)
    tree.init(bits("0110"))
    root = tree.nodes[1]
    tree.set(1, 1)  # rewrite with the current letter
    assert tree.nodes[1] == root

    tree.init(bits("0000"))
    tree.set(2, 1)
    assert tree.nodes[1] == hash_string(ctx, bits("0010"))
    audit_invariant(tree)


def test_set_after_shift():
    tree, _ = fresh(2)
    tree.init([1, 2, 3, 4])
    tree.shift(1)
    tree.set(0, 9)
    assert tree.materialize() == [9, 1, 2, 3]
    audit_invariant(tree)


def test_point_writes_keep_the_sums_of_a_fresh_tree():
    # a point write adds its change to each ancestor's sum instead of
    # recomputing it; after writes at random rotations, the node array is
    # the one a fresh tree builds from the model string at that rotation.
    # The writes lower and raise letters, reach p - 1, and always include
    # the wrap leaf (the last leaf slot), whose chain takes the wrap link
    rng = Random(29)
    for trial in range(300):
        n = trial % 11
        size = 1 << n
        ctx = make_context(size, seed=trial)
        letters = [0, 1, 2, ctx.p - 1, ctx.p - 2, rng.randrange(ctx.p)]
        model = [rng.choice(letters) for _ in range(size)]
        tree = HashedShiftTree(n, ctx)
        tree.init(model)
        for _ in range(3):
            k = rng.randrange(-size, 2 * size)
            tree.shift(k)
            model = rotate_right(model, k)
            delta = tree.topo.delta
            wrap = (delta - 1) % size   # the position in slot size - 1
            assert tree.topo.leaf_of_position(wrap) == 2 * size - 1
            for pos in [wrap] + [rng.randrange(size)
                                 for _ in range(rng.randrange(6))]:
                x = rng.choice([y for y in letters if y != model[pos]])
                before = tree.update_calls
                tree.set(pos, x)
                assert tree.update_calls - before == n
                model[pos] = x
            twin = HashedShiftTree(n, ctx)
            twin.init(rotate_right(model, -delta))
            twin.shift(delta)
            assert twin.materialize() == tree.materialize() == model
            assert tree.nodes == twin.nodes, (trial, delta)


def test_set_validation():
    tree, ctx = fresh(2)
    tree.init(bits("0000"))
    with pytest.raises(ValueError):
        tree.set(4, 1)
    with pytest.raises(ValueError):
        tree.set(0, ctx.p)


def test_shift_zero_is_a_complete_noop():
    tree, _ = fresh(3)
    tree.init(bits("01100101"))
    snapshot = (list(tree.nodes), tree.topo.delta, tree.update_calls)
    tree.shift(0)
    tree.shift(8)
    tree.shift(-16)
    assert (list(tree.nodes), tree.topo.delta, tree.update_calls) == snapshot


def test_shift_by_half_updates_only_the_root():
    for n in range(1, 7):
        tree, _ = fresh(n)
        tree.init([1] + [0] * ((1 << n) - 1))
        before = tree.update_calls
        tree.shift(1 << (n - 1))
        assert tree.update_calls - before == 1
        assert tree.topo.delta == 1 << (n - 1)


def test_shift_materializes_rotation():
    tree, _ = fresh(2)
    tree.init(bits("0001"))
    tree.shift(1)
    assert tree.materialize() == bits("1000")
    audit_invariant(tree)


def test_shift_update_counts_exact():
    # shift(k) recomputes exactly 2^(n-j) - 1 nodes, j = valuation of k
    for n in range(1, 6):
        size = 1 << n
        tree, _ = fresh(n)
        tree.init([0] * size)
        for k in list(range(size)) + [-1, -size // 2, size + 2, 3 * size]:
            before = tree.update_calls
            tree.shift(k)
            if k % size == 0:
                assert tree.update_calls == before
            else:
                reduced = k % size
                j = (reduced & -reduced).bit_length() - 1
                assert tree.update_calls - before == (size >> j) - 1, (n, k)


def test_diff_examples():
    tree, ctx = fresh(2)
    tree.init(bits("0001"))
    twin = HashedShiftTree(2, ctx)
    twin.init(bits("0001"))
    assert tree.diff(twin, 0, 3) == []
    assert tree.diff(twin, 1, 2) == []

    other = HashedShiftTree(2, ctx)
    other.init(bits("0100"))
    assert tree.diff(other, 0, 3) == [1, 3]
    assert tree.diff(other, 2, 3) == [3]
    assert tree.diff(other, 0, 0) == []


def test_diff_validation():
    tree, ctx = fresh(2)
    tree.init(bits("0001"))
    other = HashedShiftTree(2, ctx)
    other.init(bits("0100"))
    with pytest.raises(ValueError):
        tree.diff(other, 2, 1)
    with pytest.raises(ValueError):
        tree.diff(other, 0, 4)
    with pytest.raises(ValueError):
        tree.diff(other, -1, 2)
    small = HashedShiftTree(1, ctx)
    with pytest.raises(ValueError):
        tree.diff(small, 0, 1)
    foreign = HashedShiftTree(2, make_context(4, seed=1))
    with pytest.raises(ValueError):
        tree.diff(foreign, 0, 3)
    with pytest.raises(ValueError):
        tree.diff(TaggedShiftTree(2, TagStore()), 0, 3)


@pytest.mark.parametrize("backend", ["hashed", "tagged"])
def test_single_leaf_tree(backend):
    ctx = make_context(1, seed=0)
    store = TagStore()

    def make():
        if backend == "hashed":
            return HashedShiftTree(0, ctx)
        return TaggedShiftTree(0, store)

    tree = make()
    tree.init([7])
    assert tree.materialize() == [7]
    tree.shift(5)  # always a multiple of the length
    assert tree.materialize() == [7]
    tree.set(0, 3)
    assert tree.materialize() == [3]
    other = make()
    other.init([3])
    assert tree.diff(other, 0, 0) == []
    other.set(0, 4)
    assert tree.diff(other, 0, 0) == [0]


@pytest.mark.parametrize("call", ["set", "shift", "diff"])
@pytest.mark.parametrize("backend", ["hashed", "tagged"])
def test_positions_and_shifts_must_be_integers(backend, call):
    # a float position passed the range check, and shift(1.0) moved the
    # offset before failing.  Each call now raises ValueError before it
    # changes anything; a bool is an integer and passes.
    if backend == "hashed":
        ctx = make_context(1 << 8, 1)
        a, b = HashedShiftTree(8, ctx), HashedShiftTree(8, ctx)
    else:
        store = TagStore()
        a, b = TaggedShiftTree(8, store), TaggedShiftTree(8, store)
    a.set(10, 1)
    a.shift(5)
    before = (a.materialize(), a.topo.delta, a.diff(b, 0, 255))
    assert before[1:] == (5, [15])
    with pytest.raises(ValueError):
        if call == "set":
            a.set(100.5, 1)
        elif call == "shift":
            a.shift(1.0)
        else:
            a.diff(b, 0, 10.0)
    assert (a.materialize(), a.topo.delta, a.diff(b, 0, 255)) == before
    a.set(3, 1)
    a.set(True, 1)
    a.shift(True)
    a.set(False, 1)
    assert a.diff(b, False, 255) == [0, 2, 4, 16]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.data())
def test_model_equivalence_property(n, data):
    size = 1 << n
    tree, _ = fresh(n, seed=n)
    start = data.draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    tree.init(start)
    model = list(start)
    ops = data.draw(st.lists(st.tuples(st.booleans(), st.integers(-2 * size, 2 * size)),
                             max_size=8))
    for is_set, arg in ops:
        if is_set:
            pos, x = arg % size, abs(arg) % 4
            tree.set(pos, x)
            model[pos] = x
        else:
            tree.shift(arg)
            model = rotate_right(model, arg)
        assert tree.materialize() == model


def test_randomized_model_stress_with_audits():
    # >= 10^3 random op sequences; materialize tracks the model after every
    # op, stored hashes are audited periodically, and paired diffs match the
    # naive position-wise comparison within the visit budget.  A run of
    # point writes, made after a shift of a random valuation, updates
    # exactly n inner nodes per write that changes the model's letter and
    # none per write of the letter already there, and leaves the nodes of
    # a twin that loads the same leaves at offset 0, then shifts to the
    # tree's offset.
    # The last 200 trials write four letters drawn from [2**61, 2**80).
    rng = Random(2024)
    for trial in range(1200):
        alphabet = range(4) if trial < 1000 else [
            rng.randrange(1 << 61, 1 << 80) for _ in range(4)]
        n = rng.choice([1, 1, 2, 2, 3, 3, 3, 4, 4, 5, 6, 7, 8, 9, 10])
        size = 1 << n
        ctx = make_context(size, seed=trial)
        trees = []
        models = []
        for _ in range(2):
            s = [rng.choice(alphabet) for _ in range(size)]
            t = HashedShiftTree(n, ctx)
            t.init(s)
            trees.append(t)
            models.append(list(s))
        for _ in range(rng.randint(0, 6)):
            w = rng.randrange(2)
            roll = rng.random()
            if roll < 0.4:
                pos, x = rng.randrange(size), rng.choice(alphabet)
                trees[w].set(pos, x)
                models[w][pos] = x
            elif roll < 0.8:
                k = rng.randint(-2 * size, 2 * size)
                trees[w].shift(k)
                models[w] = rotate_right(models[w], k)
            else:
                k = (2 * rng.randrange(size) + 1) << rng.randrange(n)
                trees[w].shift(k)
                models[w] = rotate_right(models[w], k)
                positions, x = batch_write(rng, size), rng.choice(alphabet)
                for pos in positions:
                    before = trees[w].update_calls
                    trees[w].set(pos, x)
                    changed = models[w][pos] != x
                    assert trees[w].update_calls - before == n * changed
                    models[w][pos] = x
                twin = HashedShiftTree(n, ctx)
                twin.init(trees[w].nodes[size:])
                twin.shift(trees[w].topo.delta)
                assert trees[w].nodes == twin.nodes
            assert trees[w].materialize() == models[w]
        a = rng.randrange(size)
        b = rng.randrange(a, size)
        before = trees[0].diff_visits
        got = trees[0].diff(trees[1], a, b)
        want = naive_diff(models[0], models[1], a, b)
        assert got == want
        visits = trees[0].diff_visits - before
        assert visits <= 3 * ((len(got) + 2) * n + 2 * n) or n == 0
        if trial % 97 == 0:
            audit_invariant(trees[0])
            audit_invariant(trees[1])


def covered(tree) -> dict:
    """Node -> the tuple of letters (a word tree's windows) it covers,
    built bottom-up from the leaves in O(m log m)."""
    size = tree.size
    out = {size + j: (x,) for j, x in enumerate(tree.nodes[size:])}
    for i in range(size - 1, 0, -1):
        out[i] = out[tree.topo.left_child(i)] + out[tree.topo.right_child(i)]
    return out


def assert_sums_name_substrings(trees) -> int:
    """Level by level, across ``trees`` of one depth: two inner nodes hold
    equal exact sums iff they cover equal substrings.  Returns how many
    substrings of some level both the first and the last tree cover."""
    strings = [covered(tree) for tree in trees]
    shared = 0
    for level in range(trees[0].n):
        nodes = range(1 << level, 2 << level)
        sums: dict = {}     # substring -> the sums of the nodes over it
        for tree, cover in zip(trees, strings):
            for i in nodes:
                sums.setdefault(cover[i], set()).add(tree.nodes[i])
        assert all(len(found) == 1 for found in sums.values()), level
        assert len(set().union(*sums.values())) == len(sums), level
        shared += len({strings[0][i] for i in nodes}
                      & {strings[-1][i] for i in nodes})
    return shared


def test_equal_substrings_hold_equal_exact_sums():
    # an inner node keeps its exact sum, never reduced mod p: a letter's
    # coefficient depends only on its offset in the node, so two trees at
    # different rotations hold equal sums over equal substrings and, with
    # high probability, unequal sums over unequal ones.  Trees of letters
    # of depths 0-14, then word trees of one to 32 windows (re-tiled by
    # shifts below W), over periodic strings with a few letters changed
    rng = Random(31)
    for n in range(15):
        size = 1 << n
        ctx = make_context(size, seed=n)
        shared = 0
        for _ in range(3):
            alphabet = rng.choice([range(2), range(4), [
                rng.randrange(1 << 79, ctx.p) for _ in range(3)]])
            period = 1 << rng.randrange(n + 1)
            block = [rng.choice(alphabet) for _ in range(period)]
            trees = [HashedShiftTree(n, ctx) for _ in range(2)]
            for tree in trees:
                tree.init(block * (size // period))
                tree.shift(rng.randrange(size))
                for _ in range(rng.randrange(3)):
                    tree.set(rng.randrange(size), rng.choice(alphabet))
            shared += assert_sums_name_substrings(trees)
        assert shared or n == 0, n
    for width in (Q - 3, Q, Q + 1, Q + 3, Q + 5):
        L = 1 << width
        ctx = make_context(max(L >> Q, 1), seed=width)
        shared = 0
        for _ in range(3):
            period = min(L, W << rng.randrange(3))
            block = rng.getrandbits(period)
            s = sum(block << i for i in range(0, L, period))
            k = rng.randrange(L)
            trees = [HashedShiftTree.packed(width, ctx) for _ in range(2)]
            for tree, shift in zip(trees, (k, k + period * rng.randrange(8))):
                tree.set_bits([(0, s)], 1)
                tree.shift(shift)
                tree.set_bits([(rng.randrange(L), 1)], rng.randrange(2))
                tree._settle()  # as the next diff or shift would
            shared += assert_sums_name_substrings(trees)
        # a tree of two windows has one inner level, its root
        assert shared or width <= Q + 1, width


def test_node_sums_stay_within_their_bit_bound():
    # x + y * pw with x, y < 2**b and pw < p < 2**81 is below 2**(b + 81),
    # so a node at height h over letters of at most b bits holds fewer
    # than b + 81h bits (the documented bound is b + 82h).  Letters near
    # p and all-ones windows come within a few bits a level of it
    rng = Random(32)
    for n in range(15):
        size = 1 << n
        ctx = make_context(size, seed=n)
        tree = HashedShiftTree(n, ctx)
        tree.init([ctx.p - 1 - rng.randrange(1 << 8) for _ in range(size)])
        tree.shift(rng.randrange(size))
        tree.set(rng.randrange(size), ctx.p - 1)
        b = ctx.p.bit_length()
        for i in range(1, size):
            height = n - i.bit_length() + 1
            assert tree.nodes[i].bit_length() <= b + 81 * height, (n, i)
        assert n == 0 or tree.nodes[1].bit_length() > b + 75 * n, n
    for width in (Q, Q + 1, Q + 5):
        ctx = make_context(1 << (width - Q), seed=width)
        tree = HashedShiftTree.packed(width, ctx)
        tree.set_bits([(0, (1 << (1 << width)) - 1)], 1)
        tree.shift(rng.randrange(1 << width))
        for i in range(1, tree.size):
            height = tree.n - i.bit_length() + 1
            assert tree.nodes[i].bit_length() <= W + 81 * height, (width, i)

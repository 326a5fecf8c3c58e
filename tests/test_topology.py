import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, strategies as st

from shifttree import Topology

from helpers import rotate_right


def level_rows(topo: Topology) -> list[list[int]]:
    """Node indices per level, left to right, by expanding children."""
    rows = [[1]]
    for _ in range(topo.n):
        rows.append([c for i in rows[-1]
                     for c in (topo.left_child(i), topo.right_child(i))])
    return rows


def skew(topo: Topology, k: int) -> int:
    """Skew bit of the links into level k, as the ancestor walk yields it."""
    leaf = 1 << k
    return next(topo.ancestors(k, (leaf,)))[1]


def test_skew_examples():
    assert skew(Topology(4, 0), 2) == 0
    t = Topology(4, 5)  # 0101
    assert skew(t, 4) == 1  # (5 >> 0) & 1
    assert skew(t, 3) == 0  # (5 >> 1) & 1
    assert skew(t, 2) == 1  # (5 >> 2) & 1
    assert skew(t, 1) == 0  # (5 >> 3) & 1


def test_children_examples():
    t0 = Topology(4, 0)
    assert (t0.left_child(1), t0.right_child(1)) == (2, 3)
    assert (t0.left_child(5), t0.right_child(5)) == (10, 11)
    t5 = Topology(4, 5)
    assert (t5.left_child(1), t5.right_child(1)) == (2, 3)
    # Skew(2) = 1: left wraps within the level block
    assert (t5.left_child(2), t5.right_child(2)) == (7, 4)


def test_parent_examples():
    assert Topology(4, 0).parent(6) == 3
    assert Topology(4, 5).parent(7) == 2
    for delta in range(16):
        t = Topology(4, delta)
        assert t.parent(t.left_child(1)) == 1
        assert t.parent(t.right_child(1)) == 1


def test_leaf_of_position_examples():
    assert Topology(4, 0).leaf_of_position(3) == 19
    t = Topology(4, 5)
    assert t.leaf_of_position(0) == 27
    assert t.leaf_of_position(5) == 16
    with pytest.raises(ValueError):
        t.leaf_of_position(16)
    with pytest.raises(ValueError):
        t.leaf_of_position(-1)


def test_constructor_validation():
    with pytest.raises(ValueError):
        Topology(-1)
    with pytest.raises(ValueError):
        Topology(3, 8)
    with pytest.raises(ValueError):
        Topology(3, -1)


def test_child_of_leaf_is_programming_error():
    t = Topology(3, 2)
    with pytest.raises(AssertionError):
        t.left_child(8)
    with pytest.raises(AssertionError):
        t.right_child(15)
    with pytest.raises(AssertionError):
        t.parent(1)


def test_link_guards_survive_optimized_mode():
    # the link guards are explicit raises, which python -O keeps; bare
    # asserts would let parent(1) raise StopIteration, left_child(0) return
    # a bogus index and a leaf's children fail on a negative shift count
    script = """
assert False, "this check must run with assertions stripped"
from shifttree import Topology
t = Topology(3, 2)
for call in (lambda: t.left_child(0), lambda: t.left_child(8),
             lambda: t.right_child(0), lambda: t.right_child(15),
             lambda: t.parent(1), lambda: t.parent(0), lambda: t.parent(16)):
    try:
        call()
    except AssertionError:
        continue
    raise SystemExit("a link call outside the tree went through")
"""
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-O", "-c", script],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_letters_match_leaf_of_position():
    # string-order letters of [lo, hi] against one leaf_of_position call per
    # position: every interval at n <= 4, random ones up to n = 8, every
    # delta, on a node array whose leaves start at index size
    rng = Random(6)
    for n in range(0, 9):
        size = 1 << n
        if n <= 4:
            spans = [(lo, hi) for lo in range(size) for hi in range(lo, size)]
        else:
            spans = [(0, size - 1), (size - 1, size - 1)]
            for _ in range(20):
                lo = rng.randrange(size)
                spans.append((lo, rng.randrange(lo, size)))
        seq = [f"node{i}" for i in range(size)] \
            + [f"slot{j}" for j in range(size)]
        for delta in range(size):
            topo = Topology(n, delta)
            for lo, hi in spans:
                want = [seq[topo.leaf_of_position(pos)]
                        for pos in range(lo, hi + 1)]
                assert topo.letters(seq, lo, hi) == want, (n, delta, lo, hi)


def test_children_match_child_links():
    # the two strided rows of a whole level against left_child and
    # right_child of each of its nodes, exhaustive over n <= 7 and every
    # delta, so both skew bits occur on every level
    for n in range(1, 8):
        seq = [f"node{i}" for i in range(2 << n)]
        for delta in range(1 << n):
            topo = Topology(n, delta)
            for k in range(n):
                row = range(1 << k, 2 << k)
                assert topo.children(seq, k) == (
                    [seq[topo.left_child(i)] for i in row],
                    [seq[topo.right_child(i)] for i in row]), (n, delta, k)


@given(st.integers(1, 10), st.data())
def test_parent_child_round_trip(n, data):
    delta = data.draw(st.integers(0, (1 << n) - 1))
    i = data.draw(st.integers(1, (1 << n) - 1))
    t = Topology(n, delta)
    assert t.parent(t.left_child(i)) == i
    assert t.parent(t.right_child(i)) == i


def test_level_rows_are_rotated_blocks_exhaustive():
    # Every level k, read left to right, is the index block [2^k, 2^(k+1))
    # rotated right by delta >> (n - k); exhaustive over n <= 7.
    for n in range(0, 8):
        for delta in range(1 << n):
            topo = Topology(n, delta)
            rows = level_rows(topo)
            for k, row in enumerate(rows):
                block = list(range(1 << k, 2 << k))
                assert row == rotate_right(block, delta >> (n - k)), (n, delta, k)


@pytest.mark.parametrize("n", [8, 9, 10])
def test_level_rows_are_rotated_blocks_large(n):
    for delta in range(1 << n):
        topo = Topology(n, delta)
        rows = level_rows(topo)
        for k, row in enumerate(rows):
            block = list(range(1 << k, 2 << k))
            assert row == rotate_right(block, delta >> (n - k)), (n, delta, k)


def test_links_above_level_depend_only_on_low_delta_bits():
    # Child links at levels >= k are a function of delta mod 2^(n-k).
    for n in range(1, 7):
        size = 1 << n
        for k in range(n):
            seen = {}
            for delta in range(size):
                topo = Topology(n, delta)
                links = tuple((topo.left_child(i), topo.right_child(i))
                              for i in range(1 << k, size))
                key = delta % (1 << (n - k))
                if key in seen:
                    assert links == seen[key], (n, k, delta)
                else:
                    seen[key] = links


def test_leaf_of_position_is_a_bijection():
    for n in range(0, 9):
        size = 1 << n
        for delta in range(size):
            topo = Topology(n, delta)
            image = {topo.leaf_of_position(pos) for pos in range(size)}
            assert image == set(range(size, 2 * size))


def test_leaf_row_matches_leaf_of_position():
    rng = Random(1)
    for _ in range(50):
        n = rng.randint(1, 8)
        delta = rng.randrange(1 << n)
        topo = Topology(n, delta)
        row = level_rows(topo)[n]
        assert row == [topo.leaf_of_position(pos) for pos in range(1 << n)]


def test_ancestors_of_a_whole_level_as_a_set():
    # a whole level passed as a list takes the set branch.  It always holds
    # the level's last node j, whose link wraps under skew bit 1: (j + 1)
    # >> 1 is then the first node of j's own level, and the parent is the
    # first node of the level above.  Every level of every delta at n <= 7
    # must yield the parents of the range branch.
    for n in range(0, 8):
        for delta in range(1 << n):
            topo = Topology(n, delta)
            for level in range(n + 1):
                row = range(1 << level, 2 << level)
                assert [(k, s, set(parents)) for k, s, parents
                        in topo.ancestors(level, list(row))] \
                    == [(k, s, set(parents)) for k, s, parents
                        in topo.ancestors(level, row)], (n, delta, level)


def test_ancestors_match_repeated_parent():
    # The shared level walk against Topology.parent applied one level at a
    # time, and its skew bits and parents against the child links, exhaustive
    # over n <= 5 and every delta: from a whole level, from each single node,
    # from nothing, and from a collection with repeats.
    rng = Random(5)
    for n in range(0, 6):
        for delta in range(1 << n):
            topo = Topology(n, delta)
            for level in range(n + 1):
                row = range(1 << level, 2 << level)
                starts = [row, []] + [(i,) for i in row]
                starts.append([rng.choice(row) for _ in range(rng.randint(2, 6))])
                for nodes in starts:
                    want = set(nodes)
                    k = level
                    for k_got, s, parents in topo.ancestors(level, nodes):
                        k -= 1
                        below = want
                        want = {topo.parent(i) for i in want}
                        assert k_got == k
                        assert set(parents) == want, (n, delta, level, nodes, k)
                        assert len(parents) == len(want)
                        # a whole level stays a range; a single node, as
                        # every other collection, takes the set branch
                        assert type(parents) is (
                            range if type(nodes) is range else set)
                        width = 2 << k
                        children = set()
                        for i in parents:
                            assert (2 * i - s) % width + width == topo.left_child(i)
                            assert (2 * i + 1 - s) % width + width \
                                == topo.right_child(i)
                            children |= {topo.left_child(i), topo.right_child(i)}
                        assert below <= children
                    assert k == 0 and want <= {1}, (n, delta, level, nodes)

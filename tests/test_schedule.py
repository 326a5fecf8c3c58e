from random import Random

import pytest
from hypothesis import given, strategies as st

from shifttree import HashedShiftTree, ShiftSchedule, bitrev, make_context


def test_bitrev_examples():
    assert bitrev(4, 0) == 0
    assert bitrev(4, 1) == 8
    assert bitrev(3, 6) == 3
    assert bitrev(0, 0) == 0
    assert bitrev(5, 0b10110) == 0b01101


def test_bitrev_range_errors():
    with pytest.raises(ValueError):
        bitrev(3, 8)
    with pytest.raises(ValueError):
        bitrev(3, -1)


@given(st.integers(0, 16), st.data())
def test_bitrev_is_an_involution(width, data):
    j = data.draw(st.integers(0, (1 << width) - 1))
    assert bitrev(width, bitrev(width, j)) == j


def test_first_deltas():
    sched = ShiftSchedule(4)
    assert [sched.next_delta() for _ in range(3)] == [8, -4, 8]
    assert sched.current == 12
    assert sched.index == 3


def test_deltas_telescope_and_visit_every_rotation():
    for width in range(0, 11):
        sched = ShiftSchedule(width)
        deltas = list(sched)
        assert len(deltas) == (1 << width) - 1
        assert sum(deltas) == (1 << width) - 1 if width else deltas == []
        seen = [0]
        for d in deltas:
            seen.append(seen[-1] + d)
        assert sorted(seen) == list(range(1 << width))
        assert seen == [bitrev(width, i) for i in range(1 << width)]


def test_exhaustion_raises_stop_iteration():
    sched = ShiftSchedule(2)
    for _ in range(3):
        sched.next_delta()
    with pytest.raises(StopIteration):
        sched.next_delta()


def test_valuation_histogram():
    # exactly 2^j deltas have 2-adic valuation j
    for width in range(1, 13):
        counts = {}
        for d in ShiftSchedule(width):
            j = (abs(d) & -abs(d)).bit_length() - 1
            counts[j] = counts.get(j, 0) + 1
        assert counts == {j: 1 << j for j in range(width)}


def full_schedule_update_count(width: int) -> int:
    tree = HashedShiftTree(width, make_context(1 << width, seed=width))
    tree.init([0] * (1 << width))
    tree.update_calls = 0
    for delta in ShiftSchedule(width):
        tree.shift(delta)
    return tree.update_calls


def test_total_updates_over_full_schedule():
    # size-16 tree: 8*1 + 4*3 + 2*7 + 1*15 = 49
    assert full_schedule_update_count(4) == 49
    for width in (2, 3, 5, 6, 8):
        L = 1 << width
        assert full_schedule_update_count(width) == width * L - (L - 1)
        assert full_schedule_update_count(width) <= L * width


def bitrev_visit_update_count(width: int, values) -> int:
    """Updates spent visiting ``values`` in bit-reversed order, moving the
    tree by the net delta between consecutive values."""
    tree = HashedShiftTree(width, make_context(1 << width, seed=width))
    tree.init([0] * (1 << width))
    tree.update_calls = 0
    at = 0
    for x in sorted(values, key=lambda x: bitrev(width, x)):
        tree.shift(x - at)
        at = x
    return tree.update_calls


def test_bitrev_visit_of_all_rotations_costs_the_full_schedule():
    for width in range(1, 11):
        L = 1 << width
        assert bitrev_visit_update_count(width, range(1, L)) == width * L - (L - 1)


def test_bitrev_visit_of_any_subset_costs_at_most_the_full_schedule():
    rng = Random(33)
    for width in range(1, 11):
        L = 1 << width
        bound = width * L - (L - 1)
        for _ in range(40):
            values = rng.sample(range(1, L), rng.randint(0, L - 1))
            count = bitrev_visit_update_count(width, values)
            assert count <= bound, values
            # every full-schedule step costs at least one update, so a
            # proper subset must come in strictly under the bound
            assert (count == bound) == (len(values) == L - 1), values

import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

from shifttree import TagStore


class PartitionModel:
    """Naive set-of-sets twin for the store."""

    def __init__(self):
        self.class_of = {}
        self.next_class = 0

    def new(self, tag):
        self.class_of[tag] = self.next_class
        self.next_class += 1

    def union(self, x, y):
        cx, cy = self.class_of[x], self.class_of[y]
        if cx == cy:
            return
        for t, c in self.class_of.items():
            if c == cy:
                self.class_of[t] = cx

    def delete(self, x):
        del self.class_of[x]

    def partition(self):
        groups = {}
        for t, c in self.class_of.items():
            groups.setdefault(c, set()).add(t)
        return {frozenset(g) for g in groups.values()}


def store_partition(store, tags):
    groups = {}
    for t in tags:
        groups.setdefault(store.find(t), set()).add(t)
    return {frozenset(g) for g in groups.values()}


def test_new_tags_are_distinct_singletons():
    store = TagStore()
    a, b = store.new_tag(), store.new_tag()
    assert a != b
    assert store.find(a) != store.find(b)
    assert store.find(a) == store.find(a)
    tags = [store.new_tag() for _ in range(10)]
    assert len({store.find(t) for t in tags}) == 10


def test_union_find_basics():
    store = TagStore()
    a, b, c = (store.new_tag() for _ in range(3))
    store.union(a, a)  # no-op
    assert store.find(a) != store.find(b)
    store.union(a, b)
    assert store.find(a) == store.find(b)
    store.union(b, c)
    assert store.find(a) == store.find(c)


def test_delete_keeps_remaining_class_intact():
    store = TagStore()
    x, y, z = (store.new_tag() for _ in range(3))
    store.union(x, y)
    store.union(y, z)
    store.delete_tag(x)
    assert store.find(y) == store.find(z)
    assert store.live == 2


def test_delete_singleton_and_reuse():
    store = TagStore()
    a = store.new_tag()
    store.delete_tag(a)  # one deleted slot, no live tag: rebuild at once
    assert store.live == 0
    assert store.rebuilds == 1
    b = store.new_tag()
    assert b == a  # slot recycled
    assert store.capacity == 1
    assert store.find(b) == b


def test_store_empties_back_to_fresh_behaviour():
    store = TagStore()
    tags = [store.new_tag() for _ in range(5)]
    for t in tags:
        store.delete_tag(t)
    assert store.live == 0
    fresh = [store.new_tag() for _ in range(5)]
    assert len({store.find(t) for t in fresh}) == 5


def test_peak_slot_bound_after_n_new_n_delete():
    n = 500
    store = TagStore()
    tags = [store.new_tag() for _ in range(n)]
    for t in tags:
        deleted = store.capacity - len(store._free) - store.live
        rebuilds = store.rebuilds
        store.delete_tag(t)
        # a delete rebuilds iff deleted slots then outnumber live tags
        assert store.rebuilds - rebuilds == \
            (deleted + 1 > store.live), (deleted, store.live)
    assert store.rebuilds >= 1
    assert store.capacity <= 2 * n + 1
    assert store.live == 0


def test_programming_errors_are_asserted():
    store = TagStore()
    a = store.new_tag()
    store.delete_tag(a)
    with pytest.raises(AssertionError):
        store.delete_tag(a)
    with pytest.raises(AssertionError):
        store.find(a)
    b = store.new_tag()
    c = store.new_tag()
    store.delete_tag(c)
    with pytest.raises(AssertionError):
        store.union(b, c)


def test_model_equivalence_random_interleavings():
    rng = Random(7)
    kept = renewed = 0
    for round_ in range(8):
        store = TagStore()
        model = PartitionModel()
        live = []
        peak_live = 0
        for step in range(2500):
            roll = rng.random()
            if roll < 0.3 or len(live) < 2:
                t = store.new_tag()
                model.new(t)
                live.append(t)
            elif roll < 0.5:
                x, y = rng.choice(live), rng.choice(live)
                store.union(x, y)
                model.union(x, y)
            elif roll < 0.7:
                x, y = rng.choice(live), rng.choice(live)
                assert (store.find(x) == store.find(y)) == \
                       (model.class_of[x] == model.class_of[y])
            elif roll < 0.85:
                x = rng.choice(live)
                singleton_root = store._parent[x] == x and store._size[x] == 1
                rebuilds = store.rebuilds
                y = store.renew(x)
                if singleton_root:
                    assert y == x and store.rebuilds == rebuilds
                    kept += 1
                else:
                    # a new id, unless the delete's rebuild recycled x's slot
                    assert y != x or store.rebuilds > rebuilds
                    renewed += 1
                live[live.index(x)] = y
                model.delete(x)
                model.new(y)
            else:
                x = rng.choice(live)
                live.remove(x)
                store.delete_tag(x)
                model.delete(x)
            peak_live = max(peak_live, store.live)
            # rebuild threshold held: deleted slots never outnumber live tags
            assert store.capacity - len(store._free) <= 2 * store.live
            assert store.capacity <= 2 * peak_live
            if step % 250 == 0:
                assert store_partition(store, live) == model.partition()
        assert store_partition(store, live) == model.partition()
    assert kept and renewed


def test_store_guards_survive_optimized_mode():
    # the dead/free-tag checks are explicit raises, which python -O keeps;
    # a deleted slot and a slot a rebuild has freed are both checked
    script = """
assert False, "this check must run with assertions stripped"
from shifttree import TagStore

def rejected(store, x, y):
    for call in (lambda: store.find(x), lambda: store.union(y, x),
                 lambda: store.union(x, y), lambda: store.delete_tag(x),
                 lambda: store.renew(x)):
        try:
            call()
        except AssertionError:
            continue
        raise SystemExit(f"a call on tag {x} went through")

store = TagStore()
a, b, c = store.new_tag(), store.new_tag(), store.new_tag()
store.delete_tag(a)
if store.rebuilds:
    raise SystemExit("one delete out of three rebuilt")
rejected(store, a, c)  # deleted, still in the forest
store.delete_tag(b)
if store.rebuilds != 1 or a not in store._free or b not in store._free:
    raise SystemExit("the second delete did not free both slots")
rejected(store, a, c)  # freed by the rebuild
rejected(store, b, c)
rejected(store, store.capacity, c)  # never allocated
if (store.live, store.find(c)) != (1, c):
    raise SystemExit("a rejected call changed the store")
"""
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-O", "-c", script],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_step_budget_stays_inverse_ackermann_flat():
    # A generous absolute budget: N ops should cost well under 5N link hops.
    rng = Random(13)
    n_ops = 20_000
    store = TagStore()
    live = [store.new_tag()]
    for _ in range(n_ops):
        roll = rng.random()
        if roll < 0.3:
            live.append(store.new_tag())
        elif roll < 0.6:
            store.union(rng.choice(live), rng.choice(live))
        elif roll < 0.9 or len(live) < 2:
            store.find(rng.choice(live))
        else:
            x = rng.choice(live)
            if len(live) > 1:
                live.remove(x)
                store.delete_tag(x)
    assert store.steps <= 5 * n_ops, store.steps

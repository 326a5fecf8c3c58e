"""Acceptance suite: one test per release criterion, each printing a
PASS line (visible with pytest -s; the -v test names mirror them)."""

import math
from random import Random

import pytest

from shifttree import (
    HashedShiftTree,
    ShiftSchedule,
    TaggedShiftTree,
    TagStore,
    make_context,
    solve,
    solve_with_stats,
)
from shifttree.cli import dense_instance, main

from helpers import EDGE_MODULI, naive_diff, random_instance, rotate_right

from test_tag_store import PartitionModel, store_partition


def report(num, text):
    print(f"criterion {num}: PASS — {text}")


def test_criterion_1_oracle_equivalence():
    # >= 200 randomized instances, moduli in {1..1024} including the edge
    # list; hashed, tagged and the DP oracle must agree exactly.
    rng = Random(20260808)
    instances = [random_instance(rng, m=m) for m in EDGE_MODULI]
    while len(instances) < 200:
        instances.append(random_instance(rng))
    for k, inst in enumerate(instances):
        want = solve(inst, backend="naive").ascending()
        got_hashed = solve(inst, backend="hashed", seed=k).ascending()
        got_tagged = solve(inst, backend="tagged").ascending()
        assert got_hashed == want, f"hashed disagrees at m={inst.m}"
        assert got_tagged == want, f"tagged disagrees at m={inst.m}"
    report(1, f"{len(instances)} instances, three backends agree exactly")


def test_criterion_2_diff_correctness():
    # >= 10^4 randomized paired-tree trials (n <= 10) under random
    # init/set/shift; diff must equal the naive comparison for both
    # backends with zero mismatches.
    rng = Random(77)
    depths = [1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 5, 5, 6, 6, 7, 8, 9, 10]
    trials = 10_000
    for trial in range(trials):
        n = rng.choice(depths)
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
                hashed[w].set(pos, x)
                tagged[w].set(pos, x)
                models[w][pos] = x
            else:
                k = rng.randint(-2 * size, 2 * size)
                hashed[w].shift(k)
                tagged[w].shift(k)
                models[w] = rotate_right(models[w], k)
        a = rng.randrange(size)
        b = rng.randrange(a, size)
        for lo, hi in ((a, b), (0, size - 1)):
            want = naive_diff(models[0], models[1], lo, hi)
            assert hashed[0].diff(hashed[1], lo, hi) == want, trial
            assert tagged[0].diff(tagged[1], lo, hi) == want, trial
    report(2, f"{trials} paired-tree trials, zero diff mismatches")


@pytest.mark.parametrize("width", [4, 8, 12, 16])
def test_criterion_3_shift_amortization(width):
    # The full bit-reversal schedule on a size-2^k tree costs exactly
    # k*2^k - (2^k - 1) update calls (49 for k=4), in particular <= k*2^k.
    L = 1 << width
    tree = HashedShiftTree(width, make_context(L, seed=width))
    tree.init([0] * L)
    tree.update_calls = 0
    for delta in ShiftSchedule(width):
        tree.shift(delta)
    expected = width * L - (L - 1)
    assert tree.update_calls == expected
    assert tree.update_calls <= width * L
    if width == 4:
        assert tree.update_calls == 49
    report(3, f"k={width}: {tree.update_calls} updates == {expected}")


@pytest.mark.parametrize("backend", ["hashed", "tagged"])
def test_criterion_4_per_shift_cost(backend):
    # shift(k) with 2-adic valuation j recomputes exactly 2^(n-j) - 1
    # nodes; exhaustive over n <= 8 and every k in [0, 2^n).
    for n in range(1, 9):
        size = 1 << n
        if backend == "hashed":
            tree = HashedShiftTree(n, make_context(size, seed=n))
        else:
            tree = TaggedShiftTree(n, TagStore())
        tree.init([0] * size)
        for k in range(size):
            before = tree.update_calls
            tree.shift(k)
            if k == 0:
                assert tree.update_calls == before
            else:
                j = (k & -k).bit_length() - 1
                assert tree.update_calls - before == (size >> j) - 1, (n, k)
    report(4, f"{backend}: exact 2^(n-j)-1 updates for all n <= 8, all k")


def test_criterion_5_tagged_counter_envelope(tmp_path, monkeypatch, capsys):
    # Full tagged solve at m = 2^12 on dense random input: total tag-store
    # operations <= 64 * m * log2(m), observed through the CLI stats mode.
    m = 1 << 12
    inst = dense_instance(m, seed=1)
    path = tmp_path / "dense.txt"
    path.write_text("".join(f"{x} {c}\n" for x, c in enumerate(inst.mult) if c))
    code = main(["--modulus", str(m), "--backend", "tagged",
                 "--mode", "stats", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    stats = dict(line.split("=") for line in captured.err.strip().splitlines())
    store_ops = int(stats["store_ops"])
    bound = 64 * m * int(math.log2(m))
    assert store_ops <= bound, (store_ops, bound)
    report(5, f"m=2^12 dense: store_ops={store_ops} <= {bound}")


def test_criterion_6_solver_work_budget():
    # Bellman iterations <= 2m and total reported differences <= 2m on
    # every instance, both tree backends.
    rng = Random(606)
    instances = [random_instance(rng, m=m) for m in EDGE_MODULI]
    instances += [random_instance(rng) for _ in range(48)]
    for k, inst in enumerate(instances):
        for backend in ("hashed", "tagged"):
            stats = solve_with_stats(inst, backend=backend, seed=k).stats
            assert stats.bellman_iterations <= 2 * inst.m, (backend, inst.m)
            assert stats.reported_differences <= 2 * inst.m, (backend, inst.m)
    report(6, f"{len(instances)} instances within the 2m iteration/diff budget")


def test_criterion_7_empirical_scaling():
    # Bench sweep m = 2^12 .. 2^17, both backends: time per doubling
    # within a 2.5x linearithmic envelope.  A size's time is the median of
    # 7 solves of its dense instance in process time, one solve a round
    # and each round over every size, so that neither one slow solve, nor
    # time spent descheduled, nor a burst of load on the machine during
    # one size's solves moves a ratio.
    import gc
    import time
    from statistics import median

    def solve_time(inst, backend):
        gc.collect()
        start = time.process_time()
        solve_with_stats(inst, backend=backend, seed=1)
        return time.process_time() - start

    def sweep(backend, insts):
        rounds = [[solve_time(inst, backend) for inst in insts]
                  for _ in range(7)]
        walls = [median(size) for size in zip(*rounds)]
        return [b / a for a, b in zip(walls, walls[1:])]

    sizes = [1 << k for k in range(12, 18)]
    insts = [dense_instance(m, 1) for m in sizes]
    worst = {}
    for backend in ("hashed", "tagged"):
        ratios = sweep(backend, insts)
        if max(ratios) > 2.5:
            # timing noise guard: a genuine superlinear regression fails
            # the re-measurement too
            ratios = sweep(backend, insts)
        worst[backend] = max(ratios)
        assert all(r <= 2.5 for r in ratios), (backend, ratios)
        for m, inst in zip(sizes, insts):
            u = solve_with_stats(inst, backend=backend, seed=1).stats.updates
            assert u <= 10 * m * math.log2(m), (backend, m, u)
    report(7, "worst doubling ratio: "
              + ", ".join(f"{b}={r:.2f}" for b, r in worst.items()))


def test_criterion_8_tag_store_model_equivalence():
    # >= 10^4 random new/find/union/delete operations against a naive
    # partition model; occupied slots never exceed twice the peak live
    # count.
    rng = Random(808)
    total_ops = 0
    for round_ in range(25):
        store = TagStore()
        model = PartitionModel()
        live = []
        peak_live = 0
        for step in range(600):
            roll = rng.random()
            if roll < 0.35 or len(live) < 2:
                t = store.new_tag()
                model.new(t)
                live.append(t)
            elif roll < 0.6:
                x, y = rng.choice(live), rng.choice(live)
                store.union(x, y)
                model.union(x, y)
            elif roll < 0.85:
                x, y = rng.choice(live), rng.choice(live)
                assert (store.find(x) == store.find(y)) == \
                       (model.class_of[x] == model.class_of[y])
            else:
                x = rng.choice(live)
                live.remove(x)
                store.delete_tag(x)
                model.delete(x)
            total_ops += 1
            peak_live = max(peak_live, store.live)
            assert store.capacity <= 2 * peak_live
            if step % 150 == 0:
                assert store_partition(store, live) == model.partition()
        assert store_partition(store, live) == model.partition()
    assert total_ops >= 10_000
    report(8, f"{total_ops} ops match the partition model; memory <= 2x peak")

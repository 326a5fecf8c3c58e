import copy
import pickle
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

from shifttree import (
    HashCollisionError,
    HashedShiftTree,
    Instance,
    SolverStats,
    SumSet,
    TaggedShiftTree,
    TagStore,
    bitrev,
    solve,
    solve_naive,
    solve_with_stats,
)
from shifttree import shift_tree
from shifttree.shift_tree import _WORD as W
from shifttree.cli import dense_instance
from shifttree.subset_sum import bit_positions

from helpers import (EDGE_MODULI, lying_diff_windows, naive_diff,
                     piece_shifts, random_instance, rotate_right,
                     solver_length, solver_visits, word_string)

BACKENDS = ("hashed", "tagged", "naive")


def all_backends(inst, seed=0):
    return [solve(inst, backend=b, seed=seed).ascending() for b in BACKENDS]


def test_instance_validation():
    with pytest.raises(ValueError):
        Instance(0, [])
    with pytest.raises(ValueError):
        Instance(3, [1, 2])
    with pytest.raises(ValueError):
        Instance(2, [1, -1])
    with pytest.raises(ValueError):
        Instance.from_pairs(0, [])
    with pytest.raises(ValueError):
        Instance.from_pairs(5, [(2, -1)])


def test_instance_rejects_non_integers():
    # a float modulus, multiplicity or value used to construct and fail
    # later inside a backend with a TypeError; each is refused up front,
    # and a bool passes as an integer
    for m, mult in ((5, [0, 1.5, 0, 0, 0]), (5, [0, 1.0, 0, 0, 0]),
                    (5.0, [0] * 5), (5, [0, None, 0, 0, 0])):
        with pytest.raises(ValueError):
            Instance(m, mult)
    for m, pairs in ((5, [(1.0, 1)]), (5, [(1, 1.0)]), (5.0, [(1, 1)]),
                     (5, [(1, 2), ("1", 1)])):
        with pytest.raises(ValueError):
            Instance.from_pairs(m, pairs)
    assert Instance(2, [True, 1]).mult == [True, 1]
    assert Instance.from_pairs(True, [(True, True)]).mult == [1]
    assert solve(Instance.from_pairs(4, [(True, 2)])).ascending() == [0, 1, 2]


def test_records_round_trip():
    inst = Instance.from_pairs(12, [(3, 2), (8, 1), (10, 1)])
    assert Instance(m=12, mult=list(inst.mult)) == inst
    assert Instance(12, list(inst.mult)) == inst
    assert Instance(12, [0] * 12) != inst
    for backend in BACKENDS:
        result = solve_with_stats(inst, backend=backend, seed=3)
        assert result.stats.backend == backend
        for record, fields in ((inst, ("m", "mult")),
                               (result.stats, ("backend", "bellman_iterations",
                                               "reported_differences", "updates",
                                               "diff_visits", "store_ops"))):
            text = repr(record)
            assert text.startswith(type(record).__name__ + "(")
            assert all(f"{name}=" in text for name in fields)
            for clone in (pickle.loads(pickle.dumps(record)),
                          copy.deepcopy(record)):
                assert type(clone) is type(record)
                assert clone == record
        assert "sums=" in repr(result) and "stats=" in repr(result)
        assert pickle.loads(pickle.dumps(result)) == result
        assert copy.deepcopy(result) == result
    stats = SolverStats()
    assert stats.backend == ""
    assert (stats.bellman_iterations, stats.reported_differences,
            stats.updates, stats.diff_visits, stats.store_ops) == (0,) * 5


def test_import_loads_no_dataclasses():
    # the records are plain namespaces: a cold import of the CLI must not
    # pull in dataclasses, and inspect/ast behind it
    script = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import shifttree.cli; "
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-S", "-B", "-c", script, str(src)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_from_pairs_reduces_and_accumulates():
    inst = Instance.from_pairs(5, [(7, 3), (2, 1), (-3, 2)])
    assert inst.mult == [0, 0, 6, 0, 0]
    assert sum(inst.mult) == 6


def test_sumset_basics():
    s = SumSet(6)
    assert 0 in s
    assert len(s) == 1
    assert s.bits == 1 and s.ascending() == [0]
    s = SumSet(6, 0b10001)
    assert len(s) == 2
    assert s.ascending() == list(s) == [0, 4]
    assert 4 in s and 3 not in s and "x" not in s
    assert 6 not in s and -1 not in s and 0.0 not in s
    # equal iff same modulus and residues
    t = SumSet(6, 0b00101)
    assert s != t
    t = SumSet(6, 0b10101)
    s = SumSet(6, 0b10101)
    assert s == t and s.ascending() == [0, 2, 4]
    assert SumSet(6) != SumSet(7) and SumSet(6) != {0}
    # residues in several 512-bit windows, some of them empty
    residues = [0, 1, 511, 512, 1537, 1999, 2000]
    big = SumSet(2001, sum(1 << d for d in residues))
    assert big.ascending() == list(big) == residues and len(big) == 7
    assert 1999 in big and 1998 not in big and 2001 not in big


def test_bit_positions_matches_naive_expansion():
    # windows of 0, 1, 63, 64, 65 and all bits set, at window indices 0 and
    # above with gaps, for every q from 0 to 9: a window with more than 64
    # set bits takes the one C pass, the others the per-bit loop
    rng = Random(26)
    for q in range(10):
        width = 1 << q
        counts = [c for c in (0, 1, 63, 64, 65) if c < width] + [width]
        indices = sorted(rng.sample(range(3 * len(counts)), len(counts)))
        windows = [(c, sum(1 << i for i in rng.sample(range(width), count)))
                   for c, count in zip([0] + indices[1:], counts)]
        rng.shuffle(windows)
        want = [(c << q) + i for c, w in windows for i in range(width)
                if w >> i & 1]
        assert bit_positions(windows, q) == want, q
        assert bit_positions(iter(windows), q) == want, q
        assert bit_positions([], q) == []


def test_ascending_matches_naive_at_every_density():
    # a dense S, more than m/8 residues, is listed in one pass over the
    # whole int and a sparse one window by window: both must give the
    # residues in ascending order, at and around the threshold
    rng = Random(28)
    for m in (1, 2, 6, 8, 9, 63, 511, 512, 513, 4096, 12289):
        for count in {1, m >> 3, (m >> 3) + 1, m // 2, m}:
            count = max(1, min(count, m))
            residues = sorted(rng.sample(range(m), count))
            s = SumSet(m, sum(1 << d for d in residues))
            assert s.ascending() == list(s) == residues, (m, count)
    assert SumSet(12289, (1 << 12289) - 1).ascending() == list(range(12289))


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        solve(Instance(3, [0, 1, 0]), backend="quantum")


@pytest.mark.parametrize("backend", BACKENDS)
def test_worked_examples(backend):
    def run(m, pairs):
        return solve(Instance.from_pairs(m, pairs), backend=backend,
                     seed=9).ascending()

    assert run(7, []) == [0]
    assert run(5, [(2, 1), (3, 1)]) == [0, 2, 3]
    assert run(6, [(3, 2)]) == [0, 3]
    assert run(4, [(1, 1)]) == [0, 1]
    assert run(8, [(1, 8)]) == list(range(8))
    assert run(1, [(0, 5)]) == [0]
    assert run(9, [(0, 3)]) == [0]  # zero-valued elements change nothing


def test_single_element_oracle():
    for m in (2, 3, 7, 10):
        for k in range(0, 2 * m):
            want = sorted({0, k % m})
            assert solve_naive(Instance.from_pairs(m, [(k, 1)])).ascending() == want


def test_symmetric_difference_halves():
    # membership string of {0} against its rotation by 2 (mod 5):
    # 10000 vs 00100 differ at 0 and 2; only 2 is new
    s = [1, 0, 0, 0, 0]
    rotated = rotate_right(s, 2)
    d = naive_diff(s, rotated, 0, 4)
    assert d == [0, 2]
    assert [x for x in d if not s[x]] == [2]


def test_backends_agree_on_random_instances():
    rng = Random(1234)
    for trial in range(60):
        inst = random_instance(rng, m=rng.randint(1, 160))
        a, b, c = all_backends(inst, seed=trial)
        assert a == b == c, inst.m


def test_counters_within_budget():
    rng = Random(4321)
    for trial in range(40):
        inst = random_instance(rng, m=rng.randint(1, 200))
        for backend in ("hashed", "tagged"):
            result = solve_with_stats(inst, backend=backend, seed=trial)
            assert result.stats.bellman_iterations <= 2 * inst.m
            assert result.stats.reported_differences <= 2 * inst.m


def test_sums_only_grow_and_keep_zero():
    rng = Random(8)
    for _ in range(30):
        inst = random_instance(rng, m=rng.randint(1, 120))
        sums = solve(inst)
        residues = sums.ascending()
        assert residues[0] == 0 and 0 in sums
        assert residues == sorted(set(residues)) and len(sums) == len(residues)
        assert all(0 <= d < inst.m for d in residues)
        assert sums.bits >> inst.m == 0


def second_string(s: list, L: int) -> list:
    """The second tree's string, unrotated, for membership string s: two
    copies of s around a zero gap in length L >= 2m, or s itself when
    L = m."""
    m = len(s)
    return s if L == m else s + [0] * (L - 2 * m) + s


def test_prefix_padding_identity():
    # for any bitmap s and d <= m, rotating the second tree's string keeps
    # the rotation of s as its length-m prefix: the doubled string of a
    # padded L >= 2m, and s itself when m is a power of two (L = m), where
    # the trees' rotation mod L is the rotation mod m
    rng = Random(9)
    for m in [rng.randint(1, 40) for _ in range(200)] + [1, 2, 4, 32, 64]:
        L = solver_length(m)
        assert L == m or L >= 2 * m
        s = [rng.randrange(2) for _ in range(m)]
        doubled = second_string(s, L)
        assert len(doubled) == L
        for d in range(m + 1):
            assert rotate_right(doubled, d)[:m] == rotate_right(s, d)[:m]


def is_word_tree(tree, m: int) -> bool:
    """Whether ``tree`` is a word tree over the solver's length L (m for a
    power of two m, else padded to at least 2m): min(W, L) positions per
    leaf, W = ``_WORD``, so L/W leaves (one when L <= W)."""
    L = solver_length(m)
    q = min(L, W).bit_length() - 1
    return (tree.length, tree.size, tree.q) == (L, L >> q, q)


def membership(sums) -> list[int]:
    """The 0/1 membership string of a ``SumSet``, one bit per residue."""
    return [sums.bits >> d & 1 for d in range(sums.m)]


def observe_solve(monkeypatch, inst, backend):
    """Solve ``inst`` while watching the solver's two word trees, each
    captured at its first ``set_bits``.  Returns the result and, for each
    piece in diff order, (the second tree's rotation d, the first tree's
    0/1 string, the second's rotated back by d), read when the piece is
    done: at the next shift, or when the solve returns."""
    cls = HashedShiftTree if backend == "hashed" else TaggedShiftTree
    real_set_bits, real_shift = cls.set_bits, cls.shift
    trees, shifts, seen = [], [], []

    def snapshot():
        first, second = trees
        d = shifts[-1]
        seen.append((d, word_string(first),
                     rotate_right(word_string(second), -d)))

    def set_bits(self, spans):
        if self not in trees:
            assert is_word_tree(self, inst.m)
            trees.append(self)
        real_set_bits(self, spans)

    def shift(self, k):
        if shifts:
            snapshot()
        shifts.append((shifts[-1] if shifts else 0) + k)
        real_shift(self, k)

    with monkeypatch.context() as patch:
        patch.setattr(cls, "set_bits", set_bits)
        patch.setattr(cls, "shift", shift)
        result = solve_with_stats(inst, backend=backend, seed=inst.m)
        if shifts:
            snapshot()
    return result, seen


def sums_after_pieces(inst, visits) -> list:
    """The oracle's sums after each piece of ``visits`` (as
    ``solver_visits`` gives them): the values visited before x with all
    their copies, and x with the copies its pieces have joined so far."""
    m = inst.m
    out, done = [], {}
    for x, pieces in visits:
        for p in pieces:
            done[x] = done.get(x, 0) + p
            out.append(solve_naive(Instance(m, [done.get(v, 0)
                                                for v in range(m)])))
        done[x] = inst.mult[x]
    return out


@pytest.mark.parametrize("backend", ["hashed", "tagged"])
def test_solver_state_checkpoint_padding_audit(backend, monkeypatch):
    # after each piece of each visited value, the first tree holds S
    # zero-padded and the second, rotated back, two copies of S around the
    # zero gap, where S is the oracle's answer over the values visited
    # before and the copies joined so far (a skipped value adds nothing);
    # at a power of two m (L = m) both trees hold S alone, with no padding
    # and no gap
    rng = Random(10)
    audits = 0
    for m in (2, 3, 5, 12, 12, 40, 8, 64):
        inst = random_instance(rng, m=m)
        L = solver_length(m)
        result, seen = observe_solve(monkeypatch, inst, backend)
        visits = solver_visits(inst)
        assert [d for d, _, _ in seen] == piece_shifts(m, visits), m
        for (d, first, second), sums in zip(
                seen, sums_after_pieces(inst, visits)):
            s = membership(sums)
            assert first == s + [0] * (L - m), (m, d)
            assert second == second_string(s, L), (m, d)
        if seen:
            assert seen[-1][1][:m] == membership(result.sums)
        audits += len(seen)
    assert audits > 0


def piece_trace(monkeypatch, inst, backend):
    """(rotation, number of sums after it) for each piece one solve
    diffs."""
    _, seen = observe_solve(monkeypatch, inst, backend)
    return [(d, sum(first)) for d, first, _ in seen]


def solve_shifts(monkeypatch, inst, backend):
    """The result of one solve and the second tree's rotation at each of
    its shifts: one shift per piece, to p * x mod m."""
    cls = HashedShiftTree if backend == "hashed" else TaggedShiftTree
    real_shift = cls.shift
    shifts = []

    def shift(self, k):
        shifts.append((shifts[-1] if shifts else 0) + k)
        real_shift(self, k)

    with monkeypatch.context() as patch:
        patch.setattr(cls, "shift", shift)
        result = solve_with_stats(inst, backend=backend, seed=inst.m)
    return result, shifts


def replay_skips(inst, visits) -> tuple[int, int]:
    """Replay the present values in bit-reversed order with a bitset S,
    checking the solver's ``visits``, (value, pieces) pairs, against it:
    the values are a subsequence of that order; a value's pieces are 1,
    2, 4, ... copies, then the rest; every piece grows S but the last,
    which either grows it too, when the copies run out or S fills, or
    adds nothing, when S + x = S already; and every value left out of
    ``visits``, skipped or past saturation, has S + x = S at its turn.
    Returns how many were left out, and S as an int."""
    m = inst.m
    width = solver_length(m).bit_length() - 1
    full = (1 << m) - 1

    def rotated(bits, k):
        return (bits << k | bits >> (m - k)) & full

    bits = 1
    left_out = 0
    ahead = iter(visits)
    want = next(ahead, (None, None))
    for x in sorted((x for x in range(1, m) if inst.mult[x]),
                    key=lambda x: bitrev(width, x)):
        if x != want[0]:
            assert rotated(bits, x) == bits, (m, x)
            left_out += 1
            continue
        pieces, left, p = want[1], inst.mult[x], 1
        for i, piece in enumerate(pieces):
            assert piece == p, (m, x, pieces)
            grown = bits | rotated(bits, p * x % m)
            if grown == bits:
                # the piece lemma: S + px = S here gives S + x = S
                assert i == len(pieces) - 1, (m, x, pieces)
                assert rotated(bits, x) == bits, (m, x, p)
                break
            bits = grown
            left -= p
            p = min(2 * p, left)
        else:
            assert left == 0 or bits == full, (m, x, pieces)
        want = next(ahead, (None, None))
    assert want[0] is None, (m, "visited a value out of order")
    return left_out, bits


@pytest.mark.parametrize("backend", ["hashed", "tagged"])
def test_solver_visits_present_values_in_bitrev_order(backend, monkeypatch):
    # only even residues are attainable, so the solve never saturates: it
    # visits the present nonzero values in bit-reversed order, each at
    # most once, but for those S is already closed under, which it skips;
    # each visited value shifts to each of its pieces once
    rng = Random(12)
    m = 96
    inst = Instance.from_pairs(
        m, [(rng.randrange(0, m, 2), rng.choice([1, 2, m])) for _ in range(30)])
    width = (2 * m - 1).bit_length()
    seen = piece_trace(monkeypatch, inst, backend)
    visits = solver_visits(inst)
    assert [d for d, _ in seen] == piece_shifts(m, visits)
    values = [x for x, _ in visits]
    keys = [bitrev(width, x) for x in values]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert all(n < m for _, n in seen)
    left_out, bits = replay_skips(inst, visits)
    assert 0 < left_out and bits.bit_count() == seen[-1][1]
    # a value with m copies stops on a piece that adds nothing
    assert any(len(pieces) > 1 for _, pieces in visits)


@pytest.mark.parametrize("backend", ["hashed", "tagged"])
def test_solver_stops_at_saturation(backend, monkeypatch):
    # value 1 with m copies attains every residue: after 4, 4 and 20 its
    # pieces of 1, 2, 4, 8 and 16 copies fill S, before its last piece of
    # 19.  The present values that come after it in bit-reversed order
    # are never visited
    m = 50
    width = (2 * m - 1).bit_length()
    inst = Instance.from_pairs(m, [(1, m), (3, 1), (4, 2), (20, 1), (33, 1)])
    seen = piece_trace(monkeypatch, inst, backend)
    visits = solver_visits(inst)
    values = [x for x, _ in visits]
    order = sorted((x for x in range(1, m) if inst.mult[x]),
                   key=lambda x: bitrev(width, x))
    assert values == order[:len(values)] and len(values) < len(order)
    assert visits == [(4, [1, 1]), (20, [1]), (1, [1, 2, 4, 8, 16])]
    assert [d for d, _ in seen] == piece_shifts(m, visits)
    assert [n == m for _, n in seen] == [False] * (len(seen) - 1) + [True]
    assert solve(inst, backend=backend, seed=3).ascending() == list(range(m))


def class_order_instances(rng):
    """Instances whose sums stay in a proper subgroup (every value a
    multiple of g, with g | m) or below 2**8 < m (at most eight values, one
    copy each), so that a solve never saturates and reaches every present
    nonzero value, to visit it or to skip it.  The solver takes the
    classes x = r (mod K) one by one; K = 64 at m = 4096 and m = 3072, 256
    at m = 2**15, 2 at m = 100 and 127, and 1 at m <= 64."""
    for m, g in ((4096, 2), (3072, 3)):
        K = 64

        def pick(r):
            # a nonzero multiple of g in class r
            while True:
                x = rng.randrange(r, m, K)
                if x and x % g == 0:
                    return x
        # one value in every class that holds a multiple of g
        yield Instance.from_pairs(m, [(pick(r), rng.randint(1, 2))
                                      for r in range(0, K, 2 if g == 2 else 1)])
        # one non-empty class: r = 0, whose walk starts at K, and r = 6
        for r in (0, 6):
            yield Instance.from_pairs(m, [(pick(r), rng.choice([1, 3]))
                                          for _ in range(20)])
        # zero-valued elements among multiples of g, some with many copies
        yield Instance.from_pairs(m, [(0, rng.choice([1, m]))] + [
            (g * rng.randrange(1, m // g), rng.choice([1, 2, m]))
            for _ in range(200)])
    for _ in range(3):
        # 8 values at m = 2**15, as the benchmark's sparse instance
        yield Instance.from_pairs(
            1 << 15, [(x, 1) for x in rng.sample(range(1, 1 << 15), 8)])
    for m in (100, 127, 64, 40):
        yield Instance.from_pairs(m, [(0, 2)] + [
            (x, 1) for x in rng.sample(range(1, m), min(5, m - 1))])


@pytest.mark.parametrize("backend", ["hashed", "tagged"])
def test_class_order_matches_global_bitrev_sort(backend, monkeypatch):
    # the solver sorts one residue class at a time, only when it reaches
    # it; its visits must be the one global sort of the present values by
    # bit reversal, which ``solver_visits`` makes, less the values it
    # skips, each of which leaves S as it was
    whole = 0
    for inst in class_order_instances(Random(25)):
        result, shifts = solve_shifts(monkeypatch, inst, backend)
        visits = solver_visits(inst)
        assert shifts == piece_shifts(inst.m, visits), inst.m
        left_out, bits = replay_skips(inst, visits)
        whole += left_out == 0
        sums = result.sums
        assert sums == solve_naive(inst) and len(sums) < inst.m
        assert sums.bits == bits
    # some solves visit every present value, all classes included
    assert whole >= 3


def skip_instances(rng):
    """Instances on which the skip fires: dense ones at powers of two,
    multiples of 2**j at a multiple of 2**j, a value with m copies ahead
    of others, and sums confined to a subgroup of index 2 or 3."""
    for k in (6, 10, 12):
        yield dense_instance(1 << k, rng.randrange(100))
    for j, m in ((3, 1 << 12), (6, 3 << 10), (2, 5 << 9)):
        yield Instance.from_pairs(m, [(rng.randrange(1, m >> j) << j,
                                       rng.choice([1, 2, m]))
                                      for _ in range(rng.randint(4, 60))])
    for m in (96, 1000, 4096):
        g = rng.choice([2, 4])
        yield Instance.from_pairs(m, [(g, m)] + [
            (rng.randrange(m), rng.randint(1, 3)) for _ in range(20)])
    for m, g in ((3 * W, 3), (W + 2, 2)):
        yield Instance.from_pairs(m, [(g * rng.randrange(1, m // g),
                                       rng.choice([1, 2, 5]))
                                      for _ in range(100)])


@pytest.mark.parametrize("backend", ["hashed", "tagged"])
def test_skipped_values_leave_the_sums_unchanged(backend, monkeypatch):
    # replay each solve's visits with a bitset: every present value it
    # skipped had S + x = S at that moment, so the skip lost no sum
    skipped = 0
    for inst in skip_instances(Random(28)):
        result, shifts = solve_shifts(monkeypatch, inst, backend)
        visits = solver_visits(inst)
        assert shifts == piece_shifts(inst.m, visits), inst.m
        left_out, bits = replay_skips(inst, visits)
        assert result.sums.bits == bits == solve_naive(inst).bits, inst.m
        if len(result.sums) < inst.m:
            skipped += left_out     # no saturation: every one a skip
    assert skipped > 100


@pytest.mark.parametrize("backend", ["hashed", "tagged"])
def test_skip_matches_oracle_on_random_moduli(backend):
    # random instances with m from 1 to 20000, and values multiples of a
    # random 2**j: m a power of two, a multiple of 8, 64, W/8 or W, or any
    # integer; multiplicities up to m
    rng = Random(29)
    for trial in range(90):
        if trial % 3 == 0:
            m = 1 << rng.randrange(15)
        elif trial % 3 == 1:
            step = rng.choice([8, 64, W // 8, W])
            m = step * rng.randint(1, 20000 // step)
        else:
            m = rng.randint(1, 20000)
        j = rng.randrange(13)
        inst = Instance.from_pairs(m, [
            (rng.randrange(1, 20000) << j, rng.choice([1, 1, 2, 3, m]))
            for _ in range(rng.choice([1, 3, 8, 40, 300]))])
        assert solve(inst, backend=backend, seed=trial) \
            == solve_naive(inst), (m, j)


def test_mult8_visits_fewer_values_than_it_holds(monkeypatch):
    # the multiples of 8 at m = 2**16, each present with probability 1/2:
    # S fills the subgroup of multiples of 8 long before the last of them,
    # and from then on every one is skipped
    rng = Random(8)
    m = 1 << 16
    inst = Instance(m, [int(x % 8 == 0 and rng.random() < 0.5)
                        for x in range(m)])
    present = sum(map(bool, inst.mult[1:]))
    want = solve_naive(inst)
    assert len(want) == m // 8
    visited = len(solver_visits(inst))
    assert 0 < visited < present
    for backend in ("hashed", "tagged"):
        result, shifts = solve_shifts(monkeypatch, inst, backend)
        assert result.sums == want
        assert visited <= len(shifts) == result.stats.bellman_iterations


@pytest.mark.parametrize("backend", ["hashed", "tagged"])
def test_backends_match_oracle_at_bench_size(backend):
    # benchmark-sized instances: dense at m = 2**16, and 8 values at a prime
    # modulus just below 2**16
    rng = Random(16)
    m = 65521
    sparse = Instance.from_pairs(
        m, [(x, rng.randint(1, 3)) for x in rng.sample(range(1, m), 8)])
    for inst in (dense_instance(1 << 16, 1), sparse):
        want = solve_naive(inst).ascending()
        assert solve(inst, backend=backend, seed=1).ascending() == want


def multiplicity_heavy(rng, m):
    """Instances whose values have many copies: the chain (1, m), the
    chain cut short, a few small values each with about m/k copies, and
    multiples of 2**j with large multiplicities."""
    k = rng.randint(2, 5)
    j = rng.randint(1, 4)
    yield Instance.from_pairs(m, [(1, m)])
    yield Instance.from_pairs(m, [(1, m // 3), (rng.randrange(1, m), 2)])
    yield Instance.from_pairs(
        m, [(rng.randint(1, 9), max(1, m // k + rng.randint(-2, 2)))
            for _ in range(k)])
    yield Instance.from_pairs(
        m, [(rng.randrange(1, m) << j, rng.choice([m, m // 7 + 1, 3]))
            for _ in range(4)])


@pytest.mark.parametrize("backend", ["hashed", "tagged"])
def test_multiplicity_pieces_match_oracle(backend):
    # a value's copies join S in pieces of 1, 2, 4, ... copies, each one
    # diff at p * x; the bitset oracle checks the result
    rng = Random(21)
    for m in (2, 7, 64, 96, 1000, 4096):
        for inst in multiplicity_heavy(rng, m):
            want = solve_naive(inst).ascending()
            got = solve(inst, backend=backend, seed=m).ascending()
            assert got == want, (m, [(x, c) for x, c in enumerate(inst.mult)
                                     if c])


@pytest.mark.parametrize("backend", ["hashed", "tagged"])
def test_every_multiplicity_matches_oracle(backend):
    # every multiplicity c from 1 to 2**6 + 1, then c = m and c = 10**30,
    # at a one-window m, a padded m of three windows (2W + 1) and an
    # unpadded one of two (2W): the value alone, and after a few others.
    # The value is at times m/2 or m/4, whose pieces reach px = 0 mod m
    rng = Random(32)
    for m in (1000, 2 * W + 1, 2 * W):
        for c in [*range(1, 2 ** 6 + 2), m, 10 ** 30]:
            x = rng.choice([rng.randrange(1, m), m // 2, m // 4, 1, m - 1])
            others = [(rng.randrange(1, m), rng.randint(1, 2))
                      for _ in range(3)]
            for pairs in ([(x, c)], [(x, c)] + others):
                inst = Instance.from_pairs(m, pairs)
                assert solve(inst, backend=backend, seed=c) \
                    == solve_naive(inst), (m, pairs)


@pytest.mark.parametrize("backend", ["hashed", "tagged"])
def test_a_piece_that_adds_nothing_leaves_s_closed(backend, monkeypatch):
    # the piece lemma: let S = S0 + {0, ..., n}x.  If S + px = S for some
    # p <= n + 1, then S0 + (n+1)x lies in S + px = S, so S + x = S.  Read
    # S off the first tree after every piece of a solve: wherever a piece
    # adds nothing, S + x = S at that moment, though the piece moved S by
    # px with p > 1 at times.  Then the lemma alone, on random bitsets,
    # px = 0 mod m included
    rng = Random(34)
    stops = doubled = 0
    for m in (12, 64, 96, 100, 1000, W + 6, 2 * W):
        for inst in multiplicity_heavy(rng, m):
            _, seen = observe_solve(monkeypatch, inst, backend)
            visits = solver_visits(inst)
            assert [d for d, _, _ in seen] == piece_shifts(m, visits)
            before = [1] + [0] * (m - 1)            # S = {0}
            for (x, p), (d, first, _) in zip(
                    [(x, p) for x, ps in visits for p in ps], seen):
                after = first[:m]
                if after == before:
                    assert rotate_right(after, x) == after, (m, x, p)
                    stops += 1
                    doubled += p > 1
                before = after
    assert stops > 10 and doubled > 0
    for _ in range(3000):
        m = rng.randint(1, 40)
        full = (1 << m) - 1
        x = rng.randrange(m)
        n = rng.randrange(2 * m)
        s0 = rng.getrandbits(m) | 1
        s = 0
        for k in range(n + 1):
            d = k * x % m
            s |= (s0 << d | s0 >> (m - d)) & full
        for p in range(1, n + 2):
            d = p * x % m
            if (s << d | s >> (m - d)) & full == s:
                assert (s << x | s >> (m - x)) & full == s, (m, x, n, p)


def near_modulus(rng, m):
    """Values at or close to m - 1, m - W + 1, m - W - 1 and W - 1, with
    many copies, among others: a piece then moves windows of new sums
    across both m, where they wrap to 0, and a window edge."""
    near = [m - 1, m - 2, m - W + 1, m - W - 1, W - 1, W + 1, m // 2 + 1]
    yield Instance.from_pairs(m, [(m - 1, m)])
    yield Instance.from_pairs(m, [(rng.choice(near) % m, rng.choice(
        [2, 3, 9, m // 5 + 1])) for _ in range(3)])
    yield Instance.from_pairs(m, [(rng.choice(near) % m, rng.randint(2, 6))
                                  for _ in range(2)] + [
        (rng.randrange(1, m), rng.randint(1, 3)) for _ in range(4)])


@pytest.mark.parametrize("word", [64, 256, 1024])
def test_solver_follows_the_trees_window_width(word, monkeypatch):
    # the solver takes its windows' width from its trees, so the sums stay
    # the oracle's at any window width the trees are built with
    monkeypatch.setattr(shift_tree, "_WORD", word)
    assert TaggedShiftTree.packed(12, TagStore()).q == word.bit_length() - 1
    rng = Random(25)
    for m in EDGE_MODULI:
        inst = random_instance(rng, m=m)
        want = solve_naive(inst)
        for backend in ("hashed", "tagged"):
            assert solve(inst, backend=backend, seed=m) == want, \
                (word, m, backend)


@pytest.mark.parametrize("backend", ["hashed", "tagged"])
def test_window_solver_matches_oracle_around_window_edges(backend):
    # moduli one below, at and above a window of W bits and its
    # multiples; the sums come back in ascending order
    rng = Random(24)
    for m in (W - 1, W, W + 1, 2 * W - 48, 2 * W + 1, 3 * W + 1, 8 * W + 1):
        for inst in [*multiplicity_heavy(rng, m), *near_modulus(rng, m)]:
            want = solve_naive(inst).ascending()
            sums = solve(inst, backend=backend, seed=m)
            assert list(sums) == sums.ascending() == want, (
                m, [(x, c) for x, c in enumerate(inst.mult) if c])
            wanted = set(want)
            assert membership(sums) == [int(d in wanted) for d in range(m)]


def layout_moduli() -> dict[int, int]:
    """m -> the length of the solver's trees, for m = 2**k and 2**k +- 1,
    k = 0..14: a power of two is its own length, 2**k - 1 pads to
    2**(k+1) and 2**k + 1 to 2**(k+2)."""
    lengths = {}
    for k in range(15):
        lengths[(1 << k) + 1] = 1 << (k + 2)
        if k >= 2:
            lengths[(1 << k) - 1] = 1 << (k + 1)
    for k in range(15):
        lengths[1 << k] = 1 << k
    return dict(sorted(lengths.items()))


def layout_instances(rng, m):
    """A random instance, the chains of 1 and of m - 1 with m copies each,
    the multiplicity-heavy ones, and values next to m, W - 1, W and W + 1
    with few or many copies, all at modulus m."""
    yield random_instance(rng, m)
    yield Instance.from_pairs(m, [(1, m)])
    yield Instance.from_pairs(m, [(m - 1, m)])
    if m > 1:
        yield from multiplicity_heavy(rng, m)
    near = [m - 1, m + 1, m - 2, W - 1, W, W + 1, m - W + 1, m - W,
            m - W - 1]
    yield Instance.from_pairs(m, [(v, rng.randint(1, 4)) for v in near])
    yield Instance.from_pairs(m, [(v, rng.choice([2, 3, m // 3 + 1, m]))
                                  for v in rng.sample(near, 3)])


@pytest.mark.parametrize("backend", ["hashed", "tagged"])
def test_power_of_two_moduli_solve_on_unpadded_trees(backend, monkeypatch):
    # a power-of-two m solves on trees of length m: the first holds S, the
    # second one copy of it, and a value's pieces write new sums that wrap
    # past the last window; any other m pads to L >= 2m.  Every
    # solve must match the oracle, at m = 2**k and at its neighbours
    cls = HashedShiftTree if backend == "hashed" else TaggedShiftTree
    real_set_bits = cls.set_bits
    lengths = set()

    def set_bits(self, spans):
        lengths.add(self.length)
        real_set_bits(self, spans)

    monkeypatch.setattr(cls, "set_bits", set_bits)
    rng = Random(27)
    for m, L in layout_moduli().items():
        for inst in layout_instances(rng, m):
            lengths.clear()
            sums = solve(inst, backend=backend, seed=m)
            assert sums == solve_naive(inst), (m, [
                (x, c) for x, c in enumerate(inst.mult) if c])
            assert lengths == {L}, m


def tree_calls(monkeypatch, inst, backend):
    """Solve ``inst`` and group the trees' diffs and window writes by
    piece, that is by shift: for each piece in order, (the second tree's
    rotation d = p * x mod m, the names of the diff methods called, the
    trees written by ``set_bits`` in call order, 0 for the first tree and
    1 for the second, and each write's spans).  A word tree is
    written by ``set_bits`` only.  The trees are numbered by their first
    write; the writes of S = {0}, before the first shift, belong to no
    piece."""
    cls = HashedShiftTree if backend == "hashed" else TaggedShiftTree
    real = {name: getattr(cls, name)
            for name in ("shift", "diff", "diff_windows", "set_bits")}
    trees, values = [], []

    def shift(self, k):
        values.append([(values[-1][0] if values else 0) + k, [], [], []])
        real["shift"](self, k)

    def diff(self, other, a, b):
        values[-1][1].append("diff")
        return real["diff"](self, other, a, b)

    def diff_windows(self, other, a, b):
        values[-1][1].append("diff_windows")
        assert (a, b) == (0, inst.m - 1)
        return real["diff_windows"](self, other, a, b)

    def set_bits(self, spans):
        if self not in trees:
            assert is_word_tree(self, inst.m)
            trees.append(self)
        spans = list(spans)
        if values:
            values[-1][2].append(trees.index(self))
            values[-1][3].append(spans)
        real["set_bits"](self, spans)

    with monkeypatch.context() as patch:
        for name, fn in (("shift", shift), ("diff", diff),
                         ("diff_windows", diff_windows),
                         ("set_bits", set_bits)):
            patch.setattr(cls, name, fn)
        solve_with_stats(inst, backend=backend, seed=inst.m)
    return [tuple(v) for v in values]


@pytest.mark.parametrize("backend", ["hashed", "tagged"])
def test_one_diff_and_one_write_pair_per_value(backend, monkeypatch):
    # a visited value makes one window diff per piece, at most
    # floor(log2 min(c, m)) + 2 of them for c copies, and each piece that
    # adds sums makes one span write per tree; one that adds none writes
    # nothing.  Beside one-window moduli, m = W + 333 pads to four windows
    # and m = 2W is two, unpadded
    rng = Random(22)
    checked = productive = 0
    for m in (5, 40, 96, 333, 1000, 64, 1024, W + 333, 2 * W):
        for inst in [*multiplicity_heavy(rng, m), random_instance(rng, m)]:
            calls = tree_calls(monkeypatch, inst, backend)
            visits = solver_visits(inst)
            assert [d for d, _, _, _ in calls] == piece_shifts(m, visits), m
            for x, pieces in visits:
                assert len(pieces) <= min(inst.mult[x], m).bit_length() + 1
            # the oracle's sum count before the first piece and after each
            sizes = [1] + list(map(len, sums_after_pieces(inst, visits)))
            for (d, diffs, writes, spans), before, after in zip(
                    calls, sizes, sizes[1:]):
                assert diffs == ["diff_windows"], (m, d)
                assert writes == ([0, 1] if after > before else []), (m, d)
                if writes:
                    # the piece's new sums, one span per window: in the
                    # first tree at the window's start, in the second
                    # moved by d, and also by d - m when L is padded
                    first, second = spans
                    L = solver_length(m)
                    step = min(L, W)
                    starts = [start for start, _ in first]
                    assert len(set(starts)) == len(starts)
                    assert all(start % step == 0 for start in starts)
                    assert sum(bits.bit_count() for _, bits in first) \
                        == after - before, (m, d)
                    moves = (d,) if L == m else (d, d - m)
                    assert sorted(second) == sorted(
                        (start + r, bits) for start, bits in first
                        for r in moves)
                    assert len(second) == len(moves) * len(first)
                productive += after > before
            checked += len(calls)
    assert 0 < productive < checked


@pytest.mark.parametrize("backend", ["hashed", "tagged"])
def test_solve_never_calls_init(backend, monkeypatch):
    # a fresh word tree already holds the all-zero padding, with no init:
    # the first write a solve makes to each tree is S = {0} (the first
    # tree) or its two copies (the second), as one-bit spans onto zeros;
    # at a power of two m (L = m) the second tree's copy is one bit too
    cls = HashedShiftTree if backend == "hashed" else TaggedShiftTree
    real_set_bits = cls.set_bits
    first_writes = []

    def init(self, letters):
        raise AssertionError("the solver called init")

    def set_bits(self, spans):
        spans = list(spans)
        if not any(tree is self for tree, _ in first_writes):
            assert is_word_tree(self, m)
            assert word_string(self) == [0] * self.length
            first_writes.append((self, sorted(spans)))
        real_set_bits(self, spans)

    monkeypatch.setattr(cls, "init", init)
    monkeypatch.setattr(cls, "set_bits", set_bits)
    rng = Random(23)
    for m in EDGE_MODULI:
        first_writes.clear()
        inst = random_instance(rng, m=m)
        want = solve_naive(inst).ascending()
        assert solve(inst, backend=backend, seed=m).ascending() == want, m
        L = solver_length(m)
        second = [(0, 1)] if L == m else [(0, 1), (L - m, 1)]
        assert [w for _, w in first_writes] == [[(0, 1)], second]


@pytest.mark.parametrize("backend", ["hashed", "tagged"])
def test_chain_counters(backend):
    # the chain (1, m) joins its copies in pieces of 1, 2, 4, ...: after n
    # copies S = {0, ..., n}, so S fills at the diff that takes n past
    # m - 2, the (m - 1).bit_length()-th.  Each diff reports its new sums
    # and the old sums they rotated in from: 2(m - 1) positions in all
    for m in (2, 3, 50, 64, 1000):
        stats = solve_with_stats(Instance.from_pairs(m, [(1, m)]),
                                 backend=backend, seed=m).stats
        assert stats.bellman_iterations == (m - 1).bit_length(), m
        assert stats.reported_differences == 2 * (m - 1), m


def test_dense_diff_work_is_pinned():
    # seed-1 dense solves over word trees: writes, diff work, reported
    # differences and tag store calls are exact for both backends, so a
    # change to how the tagged tree keeps its tags shows here.  Every walk
    # stops at blocks of 64 windows.  m = 8W - 1 pads to L = 16W, 16
    # windows under trees of depth 4, and the second tree holds S twice
    # around the gap; m = 8W is its own length, 8 windows under trees of
    # depth 3, and the second tree holds S once.  There each root is the
    # only block, so a diff visits one node pair and only the roots hold
    # tags.  m = 32W + 1 pads to L = 128W, 128 windows under trees of
    # depth 7: a walk descends from the root to blocks on level 1, and
    # tags sit on levels 0..1.  Only the power of two m = 8W stalls before
    # it saturates, so only there does the solver skip values.  Every
    # value has one or two copies, so each diff is one copy: 135, 21 and
    # 235 values visited, 64, 7 and 111 of them with a second diff.  Every
    # sum is found by a diff that also reports the old sum it rotated in
    # from, so the reported differences are 2(|S| - 1).  A window write is
    # refreshed at the tree's next diff or shift, and a re-tiling shift
    # folds it into its whole refresh
    assert W == 4096  # the pins hold for this window width
    pins = {8 * W - 1: ((4441, 199, 65532), (199, 0), (199, 869)),
            8 * W: ((303, 28, 65534), (28, 0), (28, 29)),
            32 * W + 1: ((35161, 346, 262144), (1038, 0), (1038, 3722))}
    for m, (work, hashed, tagged) in pins.items():
        inst = dense_instance(m, 1)
        stats = {backend: solve_with_stats(inst, backend, seed=1).stats
                 for backend in ("hashed", "tagged")}
        for backend, s in stats.items():
            assert (s.updates, s.bellman_iterations,
                    s.reported_differences) == work, (m, backend)
        assert (stats["hashed"].diff_visits,
                stats["hashed"].store_ops) == hashed, m
        assert (stats["tagged"].diff_visits,
                stats["tagged"].store_ops) == tagged, m


def test_stats_are_reproducible():
    inst = Instance.from_pairs(97, [(13, 2), (40, 1), (5, 97), (64, 1)])
    for backend, seed in (("tagged", None), ("hashed", 5)):
        r1 = solve_with_stats(inst, backend=backend, seed=seed)
        r2 = solve_with_stats(inst, backend=backend, seed=seed)
        assert r1.stats == r2.stats
        assert r1.sums == r2.sums
        assert r1.sums.ascending() == r2.sums.ascending()


def test_collision_tripwire_raises_distinct_error(monkeypatch):
    # S = {0} and the first value x differ at 0, an old sum, and x, a new
    # one; the lie hides the first or, with ``last``, the second.  At
    # m = W + 88 and at the unpadded m = 2W, x = W puts the two in
    # different windows
    real = HashedShiftTree.diff_windows
    for last in (False, True):
        monkeypatch.setattr(HashedShiftTree, "diff_windows",
                            lying_diff_windows(real, last))
        for inst in (Instance.from_pairs(6, [(2, 1), (3, 1)]),
                     Instance.from_pairs(W + 88, [(W, 1)]),
                     Instance.from_pairs(2 * W, [(W, 1)])):
            with pytest.raises(HashCollisionError):
                solve(inst, backend="hashed", seed=0)


def test_collision_retries_on_a_derived_context(monkeypatch):
    # a diff_windows that lies on the first context only: the solve trips
    # the tripwire once, starts over on a context drawn from a seed derived
    # from the given one, and returns the oracle's sums.  The derived
    # seeds repeat from run to run; with no seed each context is drawn
    # afresh.  A lie on every context still raises, after _ATTEMPTS solves
    from shifttree import subset_sum

    made = []                           # (seed, context) of each solve
    make_context = subset_sum.make_context

    def recording_context(max_len, seed=None):
        made.append((seed, make_context(max_len, seed)))
        return made[-1][1]

    monkeypatch.setattr(subset_sum, "make_context", recording_context)
    liar = lying_diff_windows(HashedShiftTree.diff_windows)
    real = HashedShiftTree.diff_windows

    def first_context_lies(self, other, a, b):
        lie = self.ctx is made[0][1]
        return (liar if lie else real)(self, other, a, b)

    monkeypatch.setattr(HashedShiftTree, "diff_windows", first_context_lies)
    for inst in (Instance.from_pairs(6, [(2, 1), (3, 1)]),
                 Instance.from_pairs(W + 88, [(W, 1), (5, 2)])):
        want = solve_naive(inst)
        seeds = []
        for seed in (0, 0, 7, None):
            made.clear()
            assert solve(inst, backend="hashed", seed=seed) == want
            assert len(made) == 2 and made[0][0] == seed
            seeds.append(made[1][0])
        assert seeds[0] == seeds[1] != 0 and seeds[2] not in (0, 7, seeds[0])
        assert seeds[3] is None
    monkeypatch.setattr(HashedShiftTree, "diff_windows", liar)
    made.clear()
    with pytest.raises(HashCollisionError):
        solve(Instance.from_pairs(6, [(2, 1)]), backend="hashed", seed=0)
    assert len(made) == subset_sum._ATTEMPTS == 3
    assert len({seed for seed, _ in made}) == 3


def test_edge_moduli_smoke():
    rng = Random(11)
    for m in EDGE_MODULI:
        inst = random_instance(rng, m=m)
        a, b, c = all_backends(inst, seed=m)
        assert a == b == c

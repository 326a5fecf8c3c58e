"""Seeded inputs for the three workloads, and the independent references
their outputs are checked against.

Nothing here imports ``shifttree``: the inputs and the expected answers
must not change when the program under test changes.
"""

from random import Random

DENSE_M = 12289          # prime, not a power of two: padded length 32768
SPARSE_M = 32768         # power of two: padded length 65536
SPARSE_VALUES = 8

TREE_DEPTH = 14          # tree_ops trees hold 2**14 letters
ALPHABET = 4
# The tree_ops call mix copies ratios of one dense solve at seed 1 (counts
# from its traced run; the derivation is in NOTES.md).  Per batch: one
# shift per 2-adic valuation 0..13 on both trees, 32752 updates per tree;
# set-path updates 1.205 times the shift updates, as in the dense solve
# (552960 : 458753), so 5640 sets of 14 updates each, half of them writes
# and half their mirrors; 6 sets per diff (36864 : 6141), so 940 diffs.
BATCH_WRITES = 2820      # to the first tree; each is mirrored once
BATCH_DIFFS = 940
DIFF_WIDTH = 6144        # 3/8 of the tree, the dense solve's window m / L
MIRROR_LAG = 38          # a mirrored write lands 1..MIRROR_LAG steps later
                         # (a step is a write, shift or diff), so a diff
                         # reports about 4 positions on average, as in the
                         # dense solve (24576 : 6141)
BATCHES_PER_PASS = 1    # each batch starts on fresh trees, so units cost alike

# tree_ops op codes
SHIFT, SET_A, SET_B, DIFF = 0, 1, 2, 3


def solver_instance(workload: str, seed: int) -> tuple[int, list[int]]:
    """(m, mult) for the ``dense`` or ``sparse`` workload."""
    rng = Random(f"{workload}:{seed}")
    if workload == "dense":
        m = DENSE_M
        mult = [0] * m
        for x in range(1, m):
            if rng.random() < 0.5:
                mult[x] = rng.randint(1, 2)
        return m, mult
    m = SPARSE_M
    mult = [0] * m
    for x in rng.sample(range(1, m), SPARSE_VALUES):
        mult[x] = 1
    return m, mult


def render_instance(mult: list[int]) -> str:
    """The instance as ``value multiplicity`` lines, the CLI's input format."""
    return "".join(f"{x} {c}\n" for x, c in enumerate(mult) if c)


def bitset_sums(m: int, mult: list[int]) -> list[int]:
    """All subset sums mod m, ascending: S |= rot(S, x) on one Python int."""
    mask = (1 << m) - 1
    s = 1
    for x in range(1, m):
        for _ in range(min(mult[x], m)):
            grown = s | (((s << x) | (s >> (m - x))) & mask)
            if grown == s:
                break
            s = grown
    bits = bin(s)[:1:-1]  # least significant bit first
    return [i for i, c in enumerate(bits) if c == "1"]


class TreeOpsStream:
    """A seeded stream of set/shift/diff calls on two trees and the answers
    a plain-list model gives for it.

    Both trees start from one string and get the same shifts.  Writes go to
    the first tree and are mirrored to the second after a bounded lag, so a
    diff reports a small but varying number of positions.  Each batch holds
    the same op mix, with one shift per 2-adic valuation of k.

    What a call costs depends on the order of the calls (a tagged diff right
    after a low-valuation shift re-learns many equalities), on the
    valuations and on the mirror lags.  Those come from one fixed template
    stream; the seed picks the rest: the odd part of k, the write positions
    and letters, and where each diff starts.  So every seed costs about the
    same, and a run's seed cannot make it look faster or slower.

    ``batches[i]`` is a list of ``(code, a, b)``; ``expected[i]`` holds, in
    op order, the per-tree update count for each shift (twice: first tree,
    second tree) and the position list for each diff.
    """

    def __init__(self, seed: int):
        n = TREE_DEPTH
        size = 1 << n
        rng = Random(f"tree_ops:{seed}")
        template = Random("tree_ops:template")
        self.initial = [rng.randrange(ALPHABET) for _ in range(size)]
        # The models never rotate: string position p of either tree holds
        # model[(p - rot) % size], so a shift only moves ``rot``.
        first = list(self.initial)
        second = list(self.initial)
        differ: set[int] = set()     # model indices where the two differ
        rot = 0
        pending: list[tuple[int, int, int]] = []  # (due op, coordinate, letter)
        clock = 0
        self.batches: list[list[tuple[int, int, int]]] = []
        self.expected: list[list] = []

        for _ in range(BATCHES_PER_PASS):
            plan = ([(SHIFT, v) for v in range(n)]
                    + [(SET_A, 0)] * BATCH_WRITES + [(DIFF, 0)] * BATCH_DIFFS)
            template.shuffle(plan)
            ops: list[tuple[int, int, int]] = []
            want: list = []
            for code, v in plan:
                due = [w for w in pending if w[0] <= clock]
                if due:
                    pending = [w for w in pending if w[0] > clock]
                    for _, u, x in due:
                        ops.append((SET_B, (u + rot) % size, x))
                        second[u] = x
                        (differ.discard if first[u] == x else differ.add)(u)
                if code == SHIFT:
                    k = (2 * rng.randrange(size >> (v + 1)) + 1) << v
                    ops.append((SHIFT, k, 0))
                    rot = (rot + k) % size
                    cost = size // (k & -k) - 1
                    want += (cost, cost)
                elif code == SET_A:
                    p = rng.randrange(size)
                    x = rng.randrange(ALPHABET)
                    u = (p - rot) % size
                    ops.append((SET_A, p, x))
                    first[u] = x
                    (differ.discard if second[u] == x else differ.add)(u)
                    pending.append((clock + template.randint(1, MIRROR_LAG), u, x))
                else:
                    a = rng.randrange(size - DIFF_WIDTH + 1)
                    b = a + DIFF_WIDTH - 1
                    ops.append((DIFF, a, b))
                    want.append(sorted(p for p in ((u + rot) % size for u in differ)
                                       if a <= p <= b))
                clock += 1
            self.batches.append(ops)
            self.expected.append(want)

        self.final_first = [first[(p - rot) % size] for p in range(size)]
        self.final_second = [second[(p - rot) % size] for p in range(size)]

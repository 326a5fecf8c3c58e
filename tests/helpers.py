"""Reference models and generators shared across the test suite."""

from math import gcd
from random import Random

from shifttree import Instance, bitrev


def bits(text: str) -> list[int]:
    return [int(c) for c in text]


def runs(text: str, width: int) -> list[int]:
    """``bits(text)`` with every letter repeated ``width`` times."""
    return [int(c) for c in text for _ in range(width)]


def rotate_right(seq, k: int) -> list:
    """result[j] = seq[(j - k) mod len]; negative k rotates left."""
    k %= len(seq)
    if k == 0:
        return list(seq)
    return list(seq[-k:]) + list(seq[:-k])


def naive_diff(s, q, a: int, b: int) -> list[int]:
    return [x for x in range(a, b + 1) if s[x] != q[x]]


def hash_string(ctx, letters) -> int:
    """Direct polynomial evaluation under ``ctx``; the O(len) reference
    for the trees' hashes.  It computes every power of r itself, so it
    does not share a wrong table with the trees."""
    vals = list(letters)
    if len(vals) > ctx.max_len:
        raise ValueError("string longer than the context's max_len")
    h = 0
    for i, x in enumerate(vals):
        if not 0 <= x < ctx.p:
            raise ValueError(f"letter {x} outside [0, {ctx.p})")
        h = (h + x * pow(ctx.r, i, ctx.p)) % ctx.p
    return h


def inner_ancestors(topo, positions) -> set[int]:
    """Distinct inner nodes above the leaves of ``positions``, found by
    repeated ``Topology.parent``."""
    seen = set()
    for pos in positions:
        j = topo.leaf_of_position(pos)
        while j != 1:
            j = topo.parent(j)
            seen.add(j)
    return seen


def mixed_blocks(s) -> int:
    """Aligned blocks of ``s`` of length min(64, len(s)), ..., len(s)
    holding two different letters: the mixed nodes at or above block
    level of a tagged tree whose leaves hold ``s`` (letters, or a word
    tree's windows), which are the nodes that hold a tag, whatever its
    rotation."""
    count = 0
    b = min(64, len(s))
    while b <= len(s):
        count += sum(any(x != s[i] for x in s[i + 1:i + b])
                     for i in range(0, len(s), b))
        b *= 2
    return count


def batch_write(rng: Random, size: int, most: int | None = None) -> list[int]:
    """Positions in [0, size) for one batch of writes of one letter, as a
    run of ``set`` calls or as one-bit ``set_bits`` spans: sometimes empty,
    else with a repeat; at most ``most`` (default ``size``) before it."""
    most = size if most is None else min(most, size)
    positions = [rng.randrange(size)
                 for _ in range(rng.choice([0, 1, 2, 3, most // 2, most]))]
    return positions + positions[:1]


def solver_length(m: int) -> int:
    """The length L of the solver's trees at modulus m: m itself when m is
    a power of two, else the smallest power of two >= 2m, found by
    doubling."""
    if m & (m - 1) == 0:
        return m
    L = 1
    while L < 2 * m:
        L *= 2
    return L


def add_pieces(bits: int, x: int, c: int, m: int) -> tuple[int, list, bool]:
    """Join c copies of x to the set S of the m-bit int ``bits`` as the
    solver does (big-int bitset model): in pieces of 1, 2, 4, ... copies,
    then the rest, each piece p one step S <- S ∪ (S + px mod m).  The
    value ends at the first piece that adds nothing, which then shows
    S + x = S, or when S holds every residue.  Returns the new S, the
    pieces in order, the one that added nothing included, and whether
    one did."""
    full = (1 << m) - 1
    pieces = []
    p, left = 1, c
    while left and bits != full:
        d = p * x % m
        pieces.append(p)
        grown = bits | ((bits << d | bits >> (m - d)) & full)
        if grown == bits:
            return bits, pieces, True
        bits = grown
        left -= p
        p = min(2 * p, left)
    return bits, pieces, False


def solver_visits(inst: Instance) -> list[tuple[int, list[int]]]:
    """Values the solver should visit, in order, each with its pieces (as
    ``add_pieces`` takes them): the present residues in [1, m) sorted by
    bit reversal over the width of the trees' length, but for the
    multiples of ``closed``, the gcd of m and every value whose pieces
    stopped on one that added nothing, which the solver skips; cut after
    the first value that leaves every residue attainable."""
    m = inst.m
    width = solver_length(m).bit_length() - 1
    full = (1 << m) - 1
    bits = 1
    closed = m
    visits = []
    for x in sorted((x for x in range(1, m) if inst.mult[x]),
                    key=lambda x: bitrev(width, x)):
        if x % closed == 0:
            continue
        bits, pieces, stalled = add_pieces(bits, x, inst.mult[x], m)
        visits.append((x, pieces))
        if stalled:
            # S + x = S: from here on, so is every multiple of closed
            closed = gcd(closed, x)
        if bits == full:
            break
    return visits


def piece_shifts(m: int, visits) -> list[int]:
    """The second tree's rotation at each diff of ``visits``, as
    ``solver_visits`` gives them: p * x mod m for each piece p of x."""
    return [p * x % m for x, pieces in visits for p in pieces]


def word_string(tree) -> list[int]:
    """A word tree's 0/1 string, read bit by bit off its windows in string
    order."""
    step = range(1 << tree.q)
    return [w >> i & 1 for w in tree.topo.letters(tree.nodes, 0, tree.size - 1)
            for i in step]


def bit_mask(positions) -> int:
    """The int whose set bits are ``positions``, in O(1) a position."""
    positions = list(positions)
    mask = bytearray((max(positions, default=0) >> 3) + 1)
    for p in positions:
        mask[p >> 3] |= 1 << (p & 7)
    return int.from_bytes(mask, "little")


def word_bits(tree) -> int:
    """A word tree's 0/1 string as one int, bit i its position i."""
    windows = tree.topo.letters(tree.nodes, 0, tree.size - 1)
    if tree.size == 1:
        return windows[0]
    # a tree of two or more windows has full ones, of whole bytes each
    return int.from_bytes(b"".join(
        w.to_bytes((1 << tree.q) >> 3, "little") for w in windows), "little")


def node_string(tree, i: int) -> list:
    """Letters covered by node i, left to right."""
    if i >= tree.size:
        return [tree.nodes[i]]
    return (node_string(tree, tree.topo.left_child(i))
            + node_string(tree, tree.topo.right_child(i)))


EDGE_MODULI = [1, 2, 3, 5, 8, 16, 100, 127, 128, 129, 512, 1000]


def random_instance(rng: Random, m: int | None = None) -> Instance:
    """Random instance; moduli drawn log-uniformly from [1, 1024]."""
    if m is None:
        m = max(1, min(1024, round(2 ** rng.uniform(0.0, 10.0))))
    mult = [0] * m
    style = rng.random()
    if style < 0.45:
        # a handful of values, huge multiplicities allowed
        for _ in range(rng.randint(0, min(m, 12))):
            mult[rng.randrange(m)] += rng.choice([1, 1, 2, m])
    elif style < 0.8:
        for _ in range(rng.randint(0, min(m, 64))):
            mult[rng.randrange(m)] += rng.choice([1, 2])
    else:
        # dense
        for x in range(m):
            if rng.random() < 0.5:
                mult[x] = rng.choice([1, 1, 1, 2, m])
    if rng.random() < 0.3:
        mult[0] += rng.choice([1, m])  # zero-valued elements must be harmless
    return Instance(m, mult)


def lying_diff_windows(real, last=False):
    """``diff_windows`` that hides one difference: the lowest bit in which
    the first reported window differs, or with ``last`` the highest bit in
    which the last one differs, now matches on both sides."""
    def diff_windows(self, other, a, b):
        out = real(self, other, a, b)
        if out:
            i = -1 if last else 0
            c, own, theirs = out[i]
            d = own ^ theirs
            bit = 1 << (d.bit_length() - 1) if last else d & -d
            out[i] = (c, own & ~bit, theirs & ~bit)
        return out
    return diff_windows

"""Command-line front end: solve instances from text, or run benchmark sweeps.

Exit codes: 0 success, 1 an output stream closed before the result was
written (``modsum ... | head -1``, ``>&-``, or ``2>&-`` in stats mode,
whose counters go to stderr), 2 usage or input errors (including a
modulus or bench size above MAX_MODULUS, and a closed stdin), 3
hash-collision tripwire on every retry of a hashed solve.  With stderr
closed, errors and warnings go nowhere.
"""

import argparse
import os
import sys
import time
from random import Random

from .subset_sum import (BACKENDS, HashCollisionError, Instance,
                         _check_modulus, solve_with_stats)

STATS_KEYS = ("updates", "diff_visits", "store_ops", "bellman_iterations")
BENCH_COLUMNS = "m,backend,wall_ns,updates,diff_visits,store_ops"
# Largest modulus (and --bench size) accepted.  A run holds under 0.6 kB
# per residue (peak RSS growth on a dense instance, seed 1: 4-5 bytes for
# the solve on either backend at m = 2**16 and 2**20; across parse, solve
# and list-mode output, about 140 at 2**16 and 65 at 2**20), so this
# keeps one run under 1 GB; larger inputs are refused before any table is
# allocated.
MAX_MODULUS = 1 << 20
# Lines an output encodes and writes at a time, and characters of input
# the parse splits into lines at a time, so that neither holds a str per
# line of the whole output or input.
_SLICE = 1 << 16


def parse_instance(text: str, modulus: int) -> Instance:
    """Parse one entry per line: "value" or "value multiplicity".

    Blank lines and '#' comments are ignored, and so is one byte-order mark
    at the start of the text; values reduce mod ``modulus`` and repeated
    residues accumulate.  Raises ValueError, with a line number on a
    malformed line, and also on a modulus below 1.
    """
    _check_modulus(modulus)
    mult = [0] * modulus
    # removeprefix returns the text itself, uncopied, when it has no mark
    text = text.removeprefix("\ufeff")
    lineno = start = 0
    while start < len(text):
        # one slice of lines at a time, cut just after a "\n": a cut there
        # never splits a "\r\n" pair, so the lines are those of the text
        stop = text.find("\n", start + _SLICE) + 1 or len(text)
        for lineno, raw in enumerate(text[start:stop].splitlines(),
                                     start=lineno + 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) > 2:
                raise ValueError(f"line {lineno}: expected 'value' or "
                                 f"'value multiplicity'")
            try:
                value = int(parts[0])
                count = int(parts[1]) if len(parts) == 2 else 1
            except ValueError:
                raise ValueError(f"line {lineno}: non-integer token") \
                    from None
            if count < 0:
                raise ValueError(
                    f"line {lineno}: negative multiplicity {count}")
            mult[value % modulus] += count
        start = stop
    return Instance(modulus, mult)


def dense_instance(m: int, seed: int) -> Instance:
    """Seeded random dense instance: about half the residues present."""
    rng = Random(seed * 1_000_003 + m)
    mult = [0] * m
    for x in range(1, m):
        if rng.random() < 0.5:
            mult[x] = rng.randint(1, 2)
    return Instance(m, mult)


def bench_rows(sizes, backend: str, seed: int) -> list[tuple]:
    """One (m, backend, wall_ns, updates, diff_visits, store_ops) row per size."""
    rows = []
    for m in sizes:
        inst = dense_instance(m, seed)
        start = time.perf_counter_ns()
        result = solve_with_stats(inst, backend=backend, seed=seed)
        wall = time.perf_counter_ns() - start
        s = result.stats
        rows.append((m, backend, wall, s.updates, s.diff_visits, s.store_ops))
    return rows


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="modsum",
        description="Compute all attainable subset sums modulo M.")
    ap.add_argument("--modulus", type=int, default=None,
                    help="modulus M (required unless --bench is given)")
    ap.add_argument("--backend", choices=BACKENDS, default="tagged")
    ap.add_argument("--seed", type=int, default=None,
                    help="hash seed (hashed backend); also seeds --bench instances")
    ap.add_argument("--mode", choices=("list", "count", "stats"), default="list")
    ap.add_argument("--bench", type=str, default=None, metavar="M1,M2,...",
                    help="benchmark the chosen backend on random dense "
                         "instances of these sizes and print CSV")
    ap.add_argument("--input", type=str, default=None, metavar="PATH",
                    help="instance file, one entry per line (default: stdin)")
    return ap


def reader_gone(stream) -> int:
    """Point ``stream``'s descriptor at devnull once a write to it has
    failed, as the Python docs advise for a closed pipe, so that the
    interpreter's final flush fails no more; returns exit code 1."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)
    return 1


def emit(stream, lines: list) -> int:
    """Write ``lines``, one a line, to ``stream``'s binary layer, a slice
    of ``_SLICE`` lines at a time, so only one slice's text is held at
    once, and flush it: exit code 0, or 1 when the reader is gone or the
    descriptor takes no writes.  A write of fewer bytes than a slice holds
    means the reader has gone, though the text layer would not say so."""
    try:
        out = stream.buffer
        for i in range(0, len(lines), _SLICE):
            data = ("\n".join(map(str, lines[i:i + _SLICE])) + "\n").encode()
            if out.write(data) < len(data):
                return reader_gone(stream)
        out.flush()
    except OSError:
        return reader_gone(stream)
    return 0


def say(line: str) -> None:
    """Print ``line`` on stderr; with stderr closed, nothing.  (Printing to
    a ``None`` file would write to stdout instead.)"""
    if sys.stderr is not None:
        print(line, file=sys.stderr)


def fail(message: str) -> int:
    """Report a usage or input error on stderr; returns exit code 2."""
    say(f"error: {message}")
    return 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.bench is not None:
        try:
            sizes = [int(tok) for tok in args.bench.split(",") if tok.strip()]
        except ValueError:
            return fail("--bench expects comma-separated integers")
        if not sizes or min(sizes) < 1:
            return fail("--bench sizes must be positive")
        if max(sizes) > MAX_MODULUS:
            return fail(f"--bench sizes must be <= {MAX_MODULUS}, "
                        f"got {max(sizes)}")
        if sys.stdout is None:
            return 1                # started with its descriptor closed
        rows = bench_rows(sizes, args.backend,
                          args.seed if args.seed is not None else 0)
        return emit(sys.stdout, [BENCH_COLUMNS, *(
            ",".join(map(str, row)) for row in rows)])

    if args.seed is not None and args.backend != "hashed":
        say(f"warning: --seed is ignored for backend '{args.backend}'")
    if args.modulus is None:
        return fail("--modulus is required")
    if not 1 <= args.modulus <= MAX_MODULUS:
        return fail(f"modulus must be in [1, {MAX_MODULUS}], "
                    f"got {args.modulus}")

    try:
        if args.input is None:
            if sys.stdin is None:   # started with its descriptor closed
                return fail("cannot read stdin: it is closed")
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        return fail(f"cannot read {args.input or 'stdin'}: {exc}")

    try:
        inst = parse_instance(text, args.modulus)
    except ValueError as exc:
        return fail(str(exc))

    try:
        result = solve_with_stats(inst, backend=args.backend, seed=args.seed)
    except HashCollisionError as exc:
        say(f"error: hash collision tripwire: {exc}")
        return 3

    if sys.stdout is None or args.mode == "stats" and sys.stderr is None:
        # started with a descriptor closed that the output needs: as when
        # the reader is gone
        return 1
    code = emit(sys.stdout, [len(result.sums)] if args.mode == "count"
                else result.sums.ascending())
    if code or args.mode != "stats":
        return code
    return emit(sys.stderr, [f"{key}={getattr(result.stats, key)}"
                             for key in STATS_KEYS])


if __name__ == "__main__":
    sys.exit(main())

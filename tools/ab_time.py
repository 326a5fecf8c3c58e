"""Time the solvers of two checkouts against each other in one process.

    python tools/ab_time.py PARENT CHANGE
        [--sizes 4096 8192 ... | --workload dense|sparse]
        [--backends hashed tagged] [--rounds 5] [--seed 1]
        [--counters-may-differ]

PARENT and CHANGE are checkout roots.  Each one's ``src/shifttree`` is
loaded under its own package name, so both sides share one interpreter and
one machine state.  The instances are ``cli.dense_instance(m, seed)`` for
each size m, or, with ``--workload``, the one instance of that benchmark
workload at ``seed``, from this checkout's ``perfbench/workloads.py``
(imported, never written).  First, for every backend and instance, both
sides build and solve it and must give the same instance, the same sums
and the same exact counters; otherwise the script stops with exit 1 (exit
2 when a checkout holds no ``src/shifttree`` package).  A change
that moves the counters on purpose is timed with ``--counters-may-differ``:
the instances and sums must still agree, and each side's counters are
printed instead of compared.
Then every round solves each size once per side, timed with
``time.process_time`` after a ``gc.collect()``, and the side that goes
first alternates from round to round.  For every backend and size it prints
each side's median, quartiles and the rounds that side won, then each
side's ratio of medians from one size to the next: with sizes that double,
the statistic that acceptance criterion 7 bounds.
"""

import argparse
import gc
import importlib
import importlib.util
import sys
import time
from pathlib import Path
from statistics import median, quantiles

SIDES = ("parent", "change")
COUNTERS = ("bellman_iterations", "reported_differences", "updates",
            "diff_visits", "store_ops")
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load(checkout: str, name: str):
    """The ``cli`` module of ``checkout``'s package, imported as ``name``."""
    pkg = Path(checkout).resolve() / "src" / "shifttree"
    if not (pkg / "__init__.py").is_file():
        print(f"error: no shifttree package under {pkg}", file=sys.stderr)
        raise SystemExit(2)
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def workload_instance(name: str, seed: int) -> tuple[int, list[int]]:
    """``(m, mult)`` of the benchmark's ``dense`` or ``sparse`` workload."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.solver_instance(name, seed)


def solve(cli, inst, backend: str, seed: int):
    """Sums and exact counters of one solve."""
    result = cli.solve_with_stats(inst, backend=backend, seed=seed)
    return (result.sums.ascending(),
            {key: getattr(result.stats, key) for key in COUNTERS})


def check(sides, backends, sizes, make, seed: int,
          same_counters: bool) -> bool:
    """Whether both sides agree on every instance, sum set and, if
    ``same_counters``, counter; otherwise print both sides' counters.
    ``make(cli, m)`` builds a side's instance of size m."""
    ok = True
    for backend in backends:
        for m in sizes:
            insts = [make(cli, m) for cli in sides]
            if (insts[0].m, insts[0].mult) != (insts[1].m, insts[1].mult):
                print(f"{backend} m={m}: the instances differ")
                ok = False
                continue
            (sums_a, stats_a), (sums_b, stats_b) = (
                solve(cli, inst, backend, seed)
                for cli, inst in zip(sides, insts))
            if sums_a != sums_b:
                print(f"{backend} m={m}: the sums differ")
                ok = False
            if not same_counters:
                for side, stats in zip(SIDES, (stats_a, stats_b)):
                    print(f"{backend} m={m} {side} counters: {stats}")
            elif stats_a != stats_b:
                print(f"{backend} m={m}: counters {stats_a} != {stats_b}")
                ok = False
    return ok


def time_rounds(sides, backend: str, sizes, make, seed: int, rounds: int):
    """``walls[side][size index]``: one process time per round, seconds."""
    insts = [[make(cli, m) for m in sizes] for cli in sides]
    walls = [[[] for _ in sizes] for _ in sides]
    for r in range(rounds):
        for side in ((0, 1) if r % 2 == 0 else (1, 0)):
            cli = sides[side]
            for col, inst in enumerate(insts[side]):
                gc.collect()
                start = time.process_time()
                cli.solve_with_stats(inst, backend=backend, seed=seed)
                walls[side][col].append(time.process_time() - start)
    return walls


def spread(values) -> str:
    """``median [q1, q3]`` of ``values`` in milliseconds."""
    q1, mid, q3 = quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else values * 3
    return f"{1e3 * mid:9.1f} ms [{1e3 * q1:.1f}, {1e3 * q3:.1f}]"


def report(backend: str, sizes, walls) -> None:
    for col, m in enumerate(sizes):
        a, b = walls[0][col], walls[1][col]
        wins = [sum(map(float.__lt__, a, b)), sum(map(float.__lt__, b, a))]
        for side in (0, 1):
            print(f"{backend} m={m} {SIDES[side]}: "
                  f"{spread(walls[side][col])}  "
                  f"won {wins[side]}/{len(a)}")
    for side in (0, 1):
        mids = [median(w) for w in walls[side]]
        ratios = ", ".join(f"{y / x:.2f}" for x, y in zip(mids, mids[1:]))
        print(f"{backend} {SIDES[side]} median ratio from size to size: "
              f"[{ratios}]")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="checkout root of the parent side")
    ap.add_argument("change", help="checkout root of the change side")
    which = ap.add_mutually_exclusive_group()
    which.add_argument("--sizes", type=int, nargs="+", default=[4096, 8192])
    which.add_argument("--workload", choices=("dense", "sparse"),
                       help="time the benchmark workload's instance instead")
    ap.add_argument("--backends", nargs="+", choices=("hashed", "tagged"),
                    default=["hashed", "tagged"])
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--counters-may-differ", action="store_true",
                    help="time a change that moves the exact counters: "
                         "print both sides' counters, compare sums only")
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True  # leave no caches in either checkout
    sides = (load(args.parent, "shifttree_parent"),
             load(args.change, "shifttree_change"))
    sizes = args.sizes
    if args.workload:
        m, mult = workload_instance(args.workload, args.seed)
        sizes = [m]

        def make(cli, m):
            return cli.Instance(m, list(mult))
    else:
        def make(cli, m):
            return cli.dense_instance(m, args.seed)
    same_counters = not args.counters_may_differ
    if not check(sides, args.backends, sizes, make, args.seed,
                 same_counters):
        return 1
    print("sums and counters agree" if same_counters else "sums agree")
    for backend in args.backends:
        walls = time_rounds(sides, backend, sizes, make, args.seed,
                            args.rounds)
        report(backend, sizes, walls)
    return 0


if __name__ == "__main__":
    sys.exit(main())

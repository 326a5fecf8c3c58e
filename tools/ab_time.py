"""Time the solvers or tree calls of two checkouts against each other in
one process.

    python tools/ab_time.py PARENT CHANGE
        [--sizes 4096 8192 ... [--family dense|mult8|chain|3579|small|rand8]
         | --workload dense|sparse|tree_ops | --layers DEPTH]
        [--backends hashed tagged] [--rounds 5] [--seed 1]
        [--counters-may-differ] [--json PATH]

PARENT and CHANGE are checkout roots.  Each one's ``src/shifttree`` is
loaded under its own package name, so both sides share one interpreter and
one machine state.  The instances are those of ``--family`` at each size
m (default ``dense``):

- ``dense``: ``cli.dense_instance(m, seed)``;
- ``mult8``: the multiples of 8, each present once with probability 1/2;
- ``chain``: the value 1 with multiplicity m;
- ``3579``: 3, 5, 7 and 9, each with multiplicity m // 4;
- ``small``: 1, 2, ..., ceil(sqrt(2m)) + 1, each once, so S grows as an
  interval;
- ``rand8``: 8 distinct random values in [1, m), each once;

the random ones drawn from ``seed``.  Or, with ``--workload``, the
instance is the one of that benchmark workload at ``seed``, from this
checkout's ``perfbench/workloads.py`` (imported, never written).  First,
for every backend and instance, both sides build and solve it and must
give the same instance, the same sums, which must also be those of the
change side's ``solve_naive`` (the big-int bitset), and the same exact
counters; otherwise the script stops with exit 1 (exit 2 when a checkout
holds no ``src/shifttree`` package).  A change
that moves the counters on purpose is timed with ``--counters-may-differ``:
the instances and sums must still agree, and each side's counters are
printed instead of compared.
Then every round solves each size once per side, timed with
``time.process_time`` after a ``gc.collect()``, and the side that goes
first alternates from round to round.  Each solve's ``sums.ascending()``,
the residue list that a solve itself no longer builds, is timed apart.
For every backend and size it prints each side's median, quartiles and
the rounds that side won, with its median ``ascending()`` time beside
them, then each side's ratio of medians from one size to the next: with
sizes that double, the statistic that acceptance criterion 7 bounds.

``--workload tree_ops`` replays the benchmark's ``TreeOpsStream`` batches
for ``seed`` (set, shift and diff calls on two trees, built fresh and
loaded with the stream's initial string) instead of solving.  First each
side's per-tree shift update counts and diff outputs must equal the
stream's ``expected``, its final strings ``final_first`` and
``final_second``, and, unless ``--counters-may-differ``, both sides must
agree on ``updates``, ``diff_visits`` and ``store_ops``.  Then every
round replays each batch once per side on fresh trees, each batch timed
alone, and the report lists the batches under ``tree_ops``.

``--layers DEPTH`` times the tree layers apart, on two trees of letters
of that depth (1 to 20) loaded with one seeded string over four letters:
1024 point ``set`` calls on the first tree, each writing one of the three
letters other than the one its position holds, then a ``shift`` of each
2-adic valuation v below DEPTH on both, 2**min(v, 6) times, then one
``diff`` over the whole string.  First each side's pass must refresh
DEPTH nodes per write and (L >> v) - 1 per tree and shift, and its diff
and final strings must match two list models; unless
``--counters-may-differ``, both sides must also agree on each column's
``updates``, ``diff_visits`` and ``store_ops``.  Then every round runs
the pass once per side on fresh trees, and the report gives each
column's process time per call in microseconds: ``set``, ``shift v0``
... and ``diff``.

``--json PATH`` also records what the script prints as one run, appended
to the ``runs`` list of the JSON file PATH (created if missing): the
Python version, the options, each side's checkout (its git revision,
whether its ``src/`` differs from that revision, a digest of its package
and the window width ``_WORD`` its word trees use), then per backend and
instance (or layer column) each side's median and quartiles in
milliseconds (microseconds per call with ``--layers``: ``median_us``),
the paired timings it won (``won`` of ``pairs``), its median
``ascending()`` time and its exact counters, and the ratios of medians
from size to size.
"""

import argparse
import gc
import hashlib
import importlib
import importlib.util
import json
import platform
import subprocess
import sys
import time
from math import isqrt
from pathlib import Path
from random import Random
from statistics import median, quantiles

SIDES = ("parent", "change")
FAMILIES = ("dense", "mult8", "chain", "3579", "small", "rand8")
COUNTERS = ("bellman_iterations", "reported_differences", "updates",
            "diff_visits", "store_ops")
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
# point writes a --layers pass times, and its deepest trees: two trees of
# depth 20 on one side take about 200 MB
LAYER_WRITES = 1024
MAX_LAYERS = 20
# A shift of valuation v runs 2**min(v, 6) times in its column, so that
# a shift refreshing a few nodes is not timed alone: one process_time
# reading around a one-node shift took about 15 us, against 2.6 us per
# shift in a loop
SHIFT_REPEATS = 6


def load(checkout: str, name: str):
    """The ``cli`` module of ``checkout``'s package, imported as ``name``;
    the package itself is ``sys.modules[name]``."""
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


def bench_workloads():
    """This checkout's ``perfbench/workloads.py`` as a module."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def solve(cli, inst, backend: str, seed: int):
    """Sums and exact counters of one solve."""
    result = cli.solve_with_stats(inst, backend=backend, seed=seed)
    return (result.sums.ascending(),
            {key: getattr(result.stats, key) for key in COUNTERS})


def check(sides, backends, sizes, make, seed: int, same_counters: bool,
          counters: dict) -> bool:
    """Whether both sides agree on every instance, sum set and, if
    ``same_counters``, counter, and their sums equal those of the change
    side's naive backend; otherwise print both sides' counters.
    ``make(cli, m)`` builds a side's instance of size m.  Both sides'
    counters go to ``counters[backend, m]``."""
    ok = True
    naive = {}
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
            counters[backend, m] = (stats_a, stats_b)
            if sums_a != sums_b:
                print(f"{backend} m={m}: the sums differ")
                ok = False
            if m not in naive:
                naive[m] = solve(sides[1], insts[1], "naive", seed)[0]
            if sums_b != naive[m]:
                print(f"{backend} m={m}: the sums differ from solve_naive")
                ok = False
            if not same_counters:
                for side, stats in zip(SIDES, (stats_a, stats_b)):
                    print(f"{backend} m={m} {side} counters: {stats}")
            elif stats_a != stats_b:
                print(f"{backend} m={m}: counters {stats_a} != {stats_b}")
                ok = False
    return ok


def time_rounds(sides, backend: str, sizes, make, seed: int, rounds: int):
    """``walls[side][size index]`` and ``lists[side][size index]``: one
    process time per round, in seconds, of the solve and of its sums'
    ``ascending()``."""
    insts = [[make(cli, m) for m in sizes] for cli in sides]
    walls = [[[] for _ in sizes] for _ in sides]
    lists = [[[] for _ in sizes] for _ in sides]
    for r in range(rounds):
        for side in ((0, 1) if r % 2 == 0 else (1, 0)):
            cli = sides[side]
            for col, inst in enumerate(insts[side]):
                gc.collect()
                start = time.process_time()
                sums = cli.solve_with_stats(inst, backend=backend,
                                            seed=seed).sums
                middle = time.process_time()
                sums.ascending()
                walls[side][col].append(middle - start)
                lists[side][col].append(time.process_time() - middle)
    return walls, lists


def fresh_trees(pkg, backend: str, initial, seed: int):
    """Two trees of letters loaded with the string ``initial``, and their
    shared tag store (``None`` for hashed trees)."""
    size = len(initial)
    n = size.bit_length() - 1
    store = None
    if backend == "hashed":
        ctx = pkg.make_context(size, seed)
        trees = [pkg.HashedShiftTree(n, ctx) for _ in range(2)]
    else:
        store = pkg.TagStore()
        trees = [pkg.TaggedShiftTree(n, store) for _ in range(2)]
    for tree in trees:
        tree.init(initial)
    return trees, store


def replay(bench, trees, ops) -> list:
    """Run one tree_ops batch as the benchmark does; return its outputs in
    the form of the stream's ``expected``."""
    t1, t2 = trees
    out: list = []
    for code, a, b in ops:
        if code == bench.SHIFT:
            u1, u2 = t1.update_calls, t2.update_calls
            t1.shift(a)
            t2.shift(a)
            out += (t1.update_calls - u1, t2.update_calls - u2)
        elif code == bench.SET_A:
            t1.set(a, b)
        elif code == bench.SET_B:
            t2.set(a, b)
        else:
            out.append(t1.diff(t2, a, b))
    return out


def check_tree_ops(pkgs, backends, bench, stream, seed: int,
                   same_counters: bool, counters: dict) -> bool:
    """Whether each side replays the stream to its expected outputs and
    final strings and, if ``same_counters``, both sides agree on every
    counter; otherwise print both sides' counters.  Both sides' counters
    go to ``counters[backend, "tree_ops"]``."""
    ok = True
    for backend in backends:
        per_side = []
        for side, pkg in zip(SIDES, pkgs):
            trees, store = fresh_trees(pkg, backend, stream.initial, seed)
            for index, (ops, want) in enumerate(
                    zip(stream.batches, stream.expected)):
                if replay(bench, trees, ops) != want:
                    print(f"{backend} {side}: batch {index} differs from "
                          f"the stream's expected outputs")
                    ok = False
            if [t.materialize() for t in trees] \
                    != [stream.final_first, stream.final_second]:
                print(f"{backend} {side}: the final strings differ from "
                      f"the stream's")
                ok = False
            per_side.append({
                "updates": sum(t.update_calls for t in trees),
                "diff_visits": sum(t.diff_visits for t in trees),
                "store_ops": store.ops if store else 0})
        counters[backend, "tree_ops"] = tuple(per_side)
        if not same_counters:
            for side, stats in zip(SIDES, per_side):
                print(f"{backend} tree_ops {side} counters: {stats}")
        elif per_side[0] != per_side[1]:
            print(f"{backend} tree_ops: counters {per_side[0]} != "
                  f"{per_side[1]}")
            ok = False
    return ok


def time_tree_ops(pkgs, backend: str, bench, stream, seed: int, rounds: int):
    """``walls[side][0]``: one process time per batch and round, seconds."""
    walls = [[[]] for _ in pkgs]
    for r in range(rounds):
        for side in ((0, 1) if r % 2 == 0 else (1, 0)):
            trees, _ = fresh_trees(pkgs[side], backend, stream.initial,
                                   seed)
            for ops in stream.batches:
                gc.collect()
                start = time.process_time()
                replay(bench, trees, ops)
                walls[side][0].append(time.process_time() - start)
    return walls


def layer_plan(depth: int, seed: int):
    """The calls of a ``--layers`` pass on two trees of letters of depth
    ``depth``, drawn by ``seed``: their one initial string over an
    alphabet of four letters, ``LAYER_WRITES`` point writes to the first
    tree, each of one of the three letters other than the one its
    position holds when it is made, and one shift k of each 2-adic
    valuation v below ``depth``, as ``(k, repeats)`` with
    2**min(v, SHIFT_REPEATS) repeats."""
    size = 1 << depth
    rng = Random(f"layers:{depth}:{seed}")
    initial = [rng.randrange(4) for _ in range(size)]
    first = list(initial)
    writes = []
    for _ in range(LAYER_WRITES):
        pos = rng.randrange(size)
        # every write changes its letter, so each one refreshes ``depth``
        # nodes whether or not a tree skips the write of a present letter
        first[pos] = (first[pos] + 1 + rng.randrange(3)) % 4
        writes.append((pos, first[pos]))
    shifts = [((2 * rng.randrange(size >> (v + 1)) + 1) << v,
               1 << min(v, SHIFT_REPEATS)) for v in range(depth)]
    return initial, writes, shifts


def layer_labels(depth: int) -> list[str]:
    return ["set", *(f"shift v{v}" for v in range(depth)), "diff"]


def run_layers(trees, store, writes, shifts):
    """One ``--layers`` pass: the writes to the first tree, then each shift
    on both trees, as often as it repeats, then one diff over the whole
    string.  Returns, per
    column of ``layer_labels``, the process time per call in seconds and
    the counters the column moved, and the diff's output."""
    t1, t2 = trees
    walls, counts = [], []

    def timed(calls, run, *moved):
        before = [count() for _, count in moved]
        gc.collect()
        start = time.process_time()
        out = run()
        walls.append((time.process_time() - start) / calls)
        counts.append({name: count() - was for (name, count), was
                       in zip(moved, before)})
        return out

    updates = ("updates", lambda: t1.update_calls + t2.update_calls)
    ops = [("store_ops", lambda: store.ops)] if store else []
    timed(len(writes), lambda: [t1.set(pos, x) for pos, x in writes],
          updates, *ops)
    for k, repeats in shifts:
        timed(2 * repeats, lambda: [(t1.shift(k), t2.shift(k))
                                    for _ in range(repeats)], updates, *ops)
    out = timed(1, lambda: t1.diff(t2, 0, t1.size - 1),
                ("diff_visits", lambda: t1.diff_visits), *ops)
    return walls, counts, out


def check_layers(pkgs, backends, depth: int, seed: int, same_counters: bool,
                 counters: dict) -> bool:
    """Whether each side's ``--layers`` pass refreshes ``depth`` nodes per
    write and (L >> v) - 1 per tree and shift of valuation v,
    reports the differences of two list models and ends holding their
    strings; and, if ``same_counters``, whether both sides agree on every
    column's counters.  Otherwise print both sides' counters.  Both
    sides' counters of a column go to ``counters[backend, label]``."""
    initial, writes, shifts = layer_plan(depth, seed)
    size = 1 << depth
    first = list(initial)
    for pos, x in writes:
        first[pos] = x
    k = sum(k * repeats for k, repeats in shifts) % size
    models = [s[size - k:] + s[:size - k] for s in (first, initial)]
    want = [pos for pos in range(size) if models[0][pos] != models[1][pos]]
    expected = [depth * len(writes)] + [
        2 * repeats * ((size >> v) - 1)
        for v, (_, repeats) in enumerate(shifts)]
    labels = layer_labels(depth)
    ok = True
    for backend in backends:
        per_side = []
        for side, pkg in zip(SIDES, pkgs):
            trees, store = fresh_trees(pkg, backend, initial, seed)
            _, counts, out = run_layers(trees, store, writes, shifts)
            if [count["updates"] for count in counts[:-1]] != expected:
                print(f"{backend} layers {side}: update counts differ from "
                      f"one per level and write, and (L >> v) - 1 per shift")
                ok = False
            if out != want or [t.materialize() for t in trees] != models:
                print(f"{backend} layers {side}: the diff or the final "
                      f"strings differ from the models'")
                ok = False
            per_side.append(counts)
            del trees, store    # one side's trees at a time
        for col, label in enumerate(labels):
            counters[backend, label] = tuple(c[col] for c in per_side)
        if not same_counters:
            for side, counts in zip(SIDES, per_side):
                print(f"{backend} layers {side} counters: {counts}")
        elif per_side[0] != per_side[1]:
            print(f"{backend} layers: counters {per_side[0]} != "
                  f"{per_side[1]}")
            ok = False
    return ok


def time_layers(pkgs, backend: str, depth: int, seed: int, rounds: int):
    """``walls[side][column]``: one process time per call and round, in
    seconds, for each column of ``layer_labels``."""
    initial, writes, shifts = layer_plan(depth, seed)
    walls = [[[] for _ in layer_labels(depth)] for _ in pkgs]
    for r in range(rounds):
        for side in ((0, 1) if r % 2 == 0 else (1, 0)):
            trees, store = fresh_trees(pkgs[side], backend, initial, seed)
            for col, wall in enumerate(
                    run_layers(trees, store, writes, shifts)[0]):
                walls[side][col].append(wall)
            del trees, store    # one side's trees at a time
    return walls


def quartiles(values, scale: float) -> list[float]:
    """``[q1, median, q3]`` of ``values``, in seconds times ``scale``."""
    values = [scale * v for v in values]
    return quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else values * 3


def report(backend: str, labels, walls, counters, lists=None,
           unit: str = "ms") -> dict:
    """Print each side's spread, in ``unit`` ("ms" or "us"), and wins per
    column; with ``lists``, which solves pass, its median ``ascending()``
    time and, with several sizes, the ratios of medians from one to the
    next.  Returns what it printed, with both sides' ``counters`` of each
    column: ``{"rows": [one dict per column], "ratios": {side: [...]}}``."""
    scale = {"ms": 1e3, "us": 1e6}[unit]
    rows = []
    for col, label in enumerate(labels):
        a, b = walls[0][col], walls[1][col]
        wins = [sum(map(float.__lt__, a, b)), sum(map(float.__lt__, b, a))]
        row = {"backend": backend, "instance": label}
        for side in (0, 1):
            q1, mid, q3 = quartiles(walls[side][col], scale)
            line = (f"{backend} {label} {SIDES[side]}: "
                    f"{mid:9.1f} {unit} [{q1:.1f}, {q3:.1f}]  "
                    f"won {wins[side]}/{len(a)}")
            cell = {f"median_{unit}": mid, f"q1_{unit}": q1,
                    f"q3_{unit}": q3, "won": wins[side], "pairs": len(a),
                    "counters": counters[col][side]}
            if lists is not None:
                listed = 1e3 * median(lists[side][col])
                line += f"  ascending() {listed:.2f} ms"
                cell["ascending_ms"] = listed
            print(line)
            row[SIDES[side]] = cell
        rows.append(row)
    ratios = {}
    for side in (0, 1) if lists is not None and len(labels) > 1 else ():
        mids = [median(w) for w in walls[side]]
        ratios[SIDES[side]] = [y / x for x, y in zip(mids, mids[1:])]
        print(f"{backend} {SIDES[side]} median ratio from size to size: "
              f"[{', '.join(f'{r:.2f}' for r in ratios[SIDES[side]])}]")
    return {"rows": rows, "ratios": ratios}


def checkout(root: str, name: str) -> dict:
    """What identifies the code of the checkout at ``root``, loaded as
    package ``name``: its git revision (``None`` unless ``root`` is the
    top of a git work tree), whether its ``src/`` differs from that
    revision, a digest of its package's sources and the window width
    ``_WORD`` of its word trees."""
    root = Path(root).resolve()

    def git(*args):
        try:
            done = subprocess.run(["git", "-C", str(root), *args],
                                  capture_output=True, text=True, timeout=60)
        except OSError:
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    revision = git("rev-parse", "HEAD") \
        if top and Path(top).resolve() == root else None
    status = git("status", "--porcelain", "--", "src") if revision else None
    pkg = root / "src" / "shifttree"
    digest = hashlib.sha256()
    for path in sorted(pkg.rglob("*.py")):
        digest.update(path.relative_to(pkg).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {"revision": revision,
            "src_modified": None if status is None else bool(status),
            "package_sha256": digest.hexdigest()[:16],
            "word": getattr(sys.modules[f"{name}.shift_tree"], "_WORD", None)}


def read_record(path: Path) -> dict:
    """The JSON record at ``path`` that runs are appended to, or a fresh
    one if there is no file; exit 2 if the file holds no ``runs`` list."""
    if not path.exists():
        return {"tool": "tools/ab_time.py", "runs": []}
    try:
        record = json.loads(path.read_text())
    except ValueError:
        record = None
    if not (isinstance(record, dict) and isinstance(record.get("runs"), list)):
        print(f"error: {path} holds no JSON object with a runs list",
              file=sys.stderr)
        raise SystemExit(2)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="checkout root of the parent side")
    ap.add_argument("change", help="checkout root of the change side")
    which = ap.add_mutually_exclusive_group()
    which.add_argument("--sizes", type=int, nargs="+", default=[4096, 8192])
    ap.add_argument("--family", choices=FAMILIES, default="dense",
                    help="the instance family solved at each of --sizes")
    which.add_argument("--workload", choices=("dense", "sparse", "tree_ops"),
                       help="time the benchmark workload's instance, or "
                            "its tree_ops stream, instead")
    which.add_argument("--layers", type=int, metavar="DEPTH",
                       help="time point writes, shifts per 2-adic "
                            "valuation and a full-width diff on two trees "
                            "of letters of this depth instead")
    ap.add_argument("--backends", nargs="+", choices=("hashed", "tagged"),
                    default=["hashed", "tagged"])
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--counters-may-differ", action="store_true",
                    help="time a change that moves the exact counters: "
                         "print both sides' counters, compare sums or "
                         "outputs only")
    ap.add_argument("--json", metavar="PATH",
                    help="also append this run's report to the runs list "
                         "of the JSON file PATH")
    args = ap.parse_args(argv)
    if args.layers is not None and not 1 <= args.layers <= MAX_LAYERS:
        ap.error(f"--layers must be in [1, {MAX_LAYERS}]")
    if args.family != "dense" and (args.workload or args.layers is not None):
        ap.error("--family goes with --sizes only")
    sys.dont_write_bytecode = True  # leave no caches in either checkout
    record = read_record(Path(args.json)) if args.json else None
    names = ("shifttree_parent", "shifttree_change")
    sides = (load(args.parent, names[0]), load(args.change, names[1]))
    same_counters = not args.counters_may_differ
    trees = args.workload == "tree_ops" or args.layers is not None
    what = "outputs" if trees else "sums"
    agree = f"{what} and counters agree" if same_counters else f"{what} agree"
    counters: dict = {}
    reports = []
    if args.workload == "tree_ops":
        bench = bench_workloads()
        stream = bench.TreeOpsStream(args.seed)
        pkgs = [sys.modules[name] for name in names]
        if not check_tree_ops(pkgs, args.backends, bench, stream, args.seed,
                              same_counters, counters):
            return 1
        print(agree)
        for backend in args.backends:
            reports.append(report(backend, ["tree_ops"], time_tree_ops(
                pkgs, backend, bench, stream, args.seed, args.rounds),
                [counters[backend, "tree_ops"]]))
    elif args.layers is not None:
        pkgs = [sys.modules[name] for name in names]
        if not check_layers(pkgs, args.backends, args.layers, args.seed,
                            same_counters, counters):
            return 1
        print(agree)
        labels = layer_labels(args.layers)
        for backend in args.backends:
            reports.append(report(backend, labels, time_layers(
                pkgs, backend, args.layers, args.seed, args.rounds),
                [counters[backend, label] for label in labels], unit="us"))
    elif not time_solves(args, sides, same_counters, agree, counters,
                         reports):
        return 1
    if record is not None:
        options = {key: value for key, value in vars(args).items()
                   if key not in ("parent", "change", "json")}
        if args.workload or args.layers is not None:
            options["sizes"] = None     # the workload or the layers instead
            options["family"] = None
        run = {"python": platform.python_version(), "options": options,
               "checkouts": {side: checkout(root, name) for side, root, name
                             in zip(SIDES, (args.parent, args.change), names)},
               "agree": agree, "rows": [], "ratios": {}}
        for backend, printed in zip(args.backends, reports):
            run["rows"] += printed["rows"]
            if printed["ratios"]:
                run["ratios"][backend] = printed["ratios"]
        record["runs"].append(run)
        Path(args.json).write_text(json.dumps(record, indent=1) + "\n")
    return 0


def time_solves(args, sides, same_counters: bool, agree: str,
                counters: dict, reports: list) -> bool:
    """Check and time the solves of ``args.sizes`` or ``args.workload``;
    fill ``counters`` and append each backend's ``report`` to
    ``reports``.  Returns whether the check passed."""
    sizes = args.sizes
    label = "m={}" if args.family == "dense" else args.family + " m={}"
    if args.workload:
        m, mult = bench_workloads().solver_instance(args.workload, args.seed)
        sizes = [m]

        def make(cli, m):
            return cli.Instance(m, list(mult))
    elif args.family == "dense":
        def make(cli, m):
            return cli.dense_instance(m, args.seed)
    else:
        def make(cli, m):
            return cli.Instance(m, family_mult(args.family, m, args.seed))
    if not check(sides, args.backends, sizes, make, args.seed,
                 same_counters, counters):
        return False
    print(agree)
    for backend in args.backends:
        walls, lists = time_rounds(sides, backend, sizes, make, args.seed,
                                   args.rounds)
        reports.append(report(backend, [label.format(m) for m in sizes],
                              walls, [counters[backend, m] for m in sizes],
                              lists))
    return True


def family_mult(family: str, m: int, seed: int) -> list[int]:
    """The multiplicity table of ``family`` (not ``dense``) at size m."""
    mult = [0] * m
    rng = Random(f"{family}:{m}:{seed}")
    if family == "mult8":
        for x in range(8, m, 8):
            mult[x] = int(rng.random() < 0.5)
    elif family == "chain":
        mult[1 % m] += m
    elif family == "3579":
        for x in (3, 5, 7, 9):
            mult[x % m] += m // 4
    elif family == "small":
        for x in range(1, isqrt(2 * m - 1) + 3):
            mult[x % m] += 1
    else:
        for x in rng.sample(range(1, m), min(8, m - 1)):
            mult[x] = 1
    return mult


if __name__ == "__main__":
    sys.exit(main())

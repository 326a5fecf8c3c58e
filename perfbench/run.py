"""Benchmark for shifttree.

    python3 perfbench/run.py --workload {dense,sparse,tree_ops} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the library is imported from ``src/``.
Workloads, metrics and the calibration are described in NOTES.md next to
this file.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Earlier lines carry the exact counters, every unit's calibrated time and,
on the solver workloads of a traced run, the solver-only layers.  The
counters are also kept under ``traces/``, and a run fails when they differ
from an earlier run's for the same workload, seed and source.
Exit code 0 when every output was correct, 1 when one was not, 2 when the
library cannot be found.
"""

import argparse
import gc
import hashlib
import json
import resource
import subprocess
import sys
import time
from itertools import cycle
from pathlib import Path
from statistics import median
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = HERE / "traces"

sys.dont_write_bytecode = True  # leave no caches in the checkout
sys.path.insert(0, str(HERE))
from calibration import calibration_loop  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    SET_A, SET_B, SHIFT, TREE_DEPTH, TreeOpsStream, bitset_sums,
    render_instance, solver_instance)

BACKENDS = ("hashed", "tagged")
WORKLOADS = ("dense", "sparse", "tree_ops")
SETUP_REPEATS = 11
# Run in a fresh interpreter: the library's cold import, in calibration
# units of that interpreter.
IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; "
                "from calibration import calibration_loop; "
                "before = calibration_loop(); start = time.perf_counter(); "
                "import shifttree.cli; wall = time.perf_counter() - start; "
                "print(wall / ((before + calibration_loop()) / 2))")
# calibration_loop's wall on the machine NOTES.md's figures come from; it
# converts set-up time from calibration units back to seconds
CALIBRATION_REFERENCE_S = 0.028


def import_library():
    """Import every shifttree module from this checkout's ``src/``."""
    sys.path.insert(0, str(SRC))
    import shifttree.cli as cli
    import shifttree.hashed_tree as hashed_tree
    import shifttree.hashing as hashing
    import shifttree.schedule as schedule
    import shifttree.subset_sum as subset_sum
    import shifttree.tag_store as tag_store
    import shifttree.tagged_tree as tagged_tree
    import shifttree.topology as topology
    if Path(subset_sum.__file__).resolve().parent != SRC / "shifttree":
        raise ImportError(f"shifttree imported from {subset_sum.__file__}")
    return SimpleNamespace(cli=cli, hashed_tree=hashed_tree, hashing=hashing,
                           schedule=schedule, subset_sum=subset_sum,
                           tag_store=tag_store, tagged_tree=tagged_tree,
                           topology=topology)


class Checks:
    """Attempted and failed operations, and the exact counters of every
    completed unit, which must repeat exactly."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.counters: dict[str, dict] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAIL: {message}", file=sys.stderr)

    def counters_seen(self, backend: str, counters: dict) -> None:
        first = self.counters.setdefault(backend, counters)
        if counters != first:
            self.fail(f"{backend} counters {counters} differ from {first}")

    def against_earlier_runs(self, path: Path) -> None:
        """Compare the counters with those that earlier runs of the same
        workload, seed and source recorded at ``path``, traced or not, and
        record any that are new there."""
        earlier = json.loads(path.read_text()) if path.is_file() else {}
        for backend, counters in self.counters.items():
            if backend in earlier:
                self.attempted += 1
                if counters != earlier[backend]:
                    self.fail(f"{backend} counters {counters} differ from an "
                              f"earlier run's {earlier[backend]}")
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(self.counters | earlier, sort_keys=True))


class SolverWorkload:
    """``dense`` or ``sparse``: one unit is one ``solve_with_stats`` call."""

    def __init__(self, st, name: str, seed: int, checks: Checks):
        self.st = st
        self.name = name
        self.seed = seed
        self.checks = checks
        self.setup_detail: dict[str, list[float]] = {"parse": [], "bitset": []}

    def setup(self) -> None:
        m, mult = solver_instance(self.name, self.seed)
        start = time.perf_counter()
        want = bitset_sums(m, mult)
        self.setup_detail["bitset"].append(time.perf_counter() - start)
        text = render_instance(mult)
        start = time.perf_counter()
        parsed = self.st.cli.parse_instance(text, m)
        self.setup_detail["parse"].append(time.perf_counter() - start)
        self.inst = self.st.subset_sum.Instance(m, mult)
        self.want = want
        self.checks.attempted += 1
        if parsed.mult != mult:
            self.checks.fail("parse_instance disagrees with the generated instance")

    def run_unit(self, backend: str):
        """Time one solve, then check it; returns the wall or None."""
        sub = self.st.subset_sum
        original_store = sub.TagStore
        stores = []

        def recording_store(*args, **kwargs):
            store = original_store(*args, **kwargs)
            stores.append(store)
            return store

        sub.TagStore = recording_store
        self.checks.attempted += 1
        try:
            start = time.perf_counter()
            result = sub.solve_with_stats(self.inst, backend, self.seed)
            wall = time.perf_counter() - start
        except Exception as exc:  # counted, and the run goes on
            self.checks.fail(f"{backend} solve raised {exc!r}")
            return None
        finally:
            sub.TagStore = original_store
        if result.sums.ascending() != self.want:
            self.checks.fail(f"{backend} sums differ from the bitset reference")
            return None
        s = result.stats
        self.checks.counters_seen(backend, {
            "updates": s.updates, "diff_visits": s.diff_visits,
            "store_ops": s.store_ops,
            "bellman_iterations": s.bellman_iterations,
            "reported_differences": s.reported_differences,
            "tag_store.rebuilds": stores[0].rebuilds if stores else 0})
        return wall

    def at_unit_boundary(self, backend: str) -> bool:
        return True

    def settle(self) -> None:
        pass


class TreeOpsWorkload:
    """``tree_ops``: one unit is one batch of set/shift/diff calls on two
    trees; a pass is the whole stream, after which the trees are rebuilt."""

    def __init__(self, st, seed: int, checks: Checks):
        self.st = st
        self.seed = seed
        self.checks = checks
        self.state: dict[str, dict | None] = {b: None for b in BACKENDS}
        self.finished: list[tuple[str, dict]] = []

    def setup(self) -> None:
        self.stream = TreeOpsStream(self.seed)

    def _fresh_state(self, backend: str) -> dict:
        st = self.st
        size = 1 << TREE_DEPTH
        store = None
        if backend == "hashed":
            ctx = st.hashing.make_context(size, self.seed)
            trees = [st.hashed_tree.HashedShiftTree(TREE_DEPTH, ctx)
                     for _ in range(2)]
        else:
            store = st.tag_store.TagStore()
            trees = [st.tagged_tree.TaggedShiftTree(TREE_DEPTH, store)
                     for _ in range(2)]
        for tree in trees:
            tree.init(self.stream.initial)
        return {"trees": trees, "store": store, "batch": 0, "reported": 0}

    def run_unit(self, backend: str):
        """Time one batch, then check it; returns the wall or None."""
        state = self.state[backend]
        if state is None:
            state = self.state[backend] = self._fresh_state(backend)
        t1, t2 = state["trees"]
        index = state["batch"]
        ops = self.stream.batches[index]
        out: list = []
        record = out.append
        checks = self.checks
        try:
            start = time.perf_counter()
            for code, a, b in ops:
                if code == SHIFT:
                    u1 = t1.update_calls
                    u2 = t2.update_calls
                    t1.shift(a)
                    t2.shift(a)
                    record(t1.update_calls - u1)
                    record(t2.update_calls - u2)
                elif code == SET_A:
                    t1.set(a, b)
                elif code == SET_B:
                    t2.set(a, b)
                else:  # DIFF
                    record(t1.diff(t2, a, b))
            wall = time.perf_counter() - start
        except Exception as exc:  # counted, and the run goes on
            checks.attempted += len(ops)
            checks.fail(f"{backend} batch {index} raised {exc!r}")
            self.state[backend] = None
            return None
        checks.attempted += len(ops)
        bad = 0
        for got, want in zip(out, self.stream.expected[index]):
            if got != want:
                bad += 1
                checks.fail(f"{backend} batch {index}: got {got!r}, want {want!r}")
        state["reported"] += sum(len(r) for r in out if isinstance(r, list))
        state["batch"] = index + 1
        if state["batch"] == len(self.stream.batches):
            self.finished.append((backend, state))
            self.state[backend] = None
        return None if bad else wall

    def settle(self) -> None:
        """Check finished passes against the list models and record their
        counters.  Kept out of traced units: ``materialize`` would add its
        own Topology calls to the trace."""
        for backend, state in self.finished:
            t1, t2 = state["trees"]
            store = state["store"]
            self.checks.attempted += 1
            if (t1.materialize() != self.stream.final_first
                    or t2.materialize() != self.stream.final_second):
                self.checks.fail(f"{backend} trees differ from the list models")
            self.checks.counters_seen(backend, {
                "updates": t1.update_calls + t2.update_calls,
                "diff_visits": t1.diff_visits + t2.diff_visits,
                "store_ops": store.ops if store else 0,
                "reported_differences": state["reported"],
                "tag_store.rebuilds": store.rebuilds if store else 0})
        self.finished.clear()

    def at_unit_boundary(self, backend: str) -> bool:
        return self.state[backend] is None


class Samples:
    """Per backend: calibrated times (cu) and raw walls (s) of timed units."""

    def __init__(self):
        self.cu: dict[str, list[float]] = {b: [] for b in BACKENDS}
        self.wall: dict[str, list[float]] = {b: [] for b in BACKENDS}


class Runner:
    """Times units of work between calibration loops.  A unit's calibrated
    time is its wall divided by the mean of the calibration walls just
    before and just after it."""

    def __init__(self, workload):
        self.workload = workload
        self.cal_prev = None
        self.tracing = False

    def step(self, backend: str, samples: Samples) -> None:
        if self.cal_prev is None:
            gc.collect()
            self.cal_prev = calibration_loop()
        wall = self.workload.run_unit(backend)
        if not self.tracing:
            self.workload.settle()
        gc.collect()
        cal = calibration_loop()
        if wall is not None:
            samples.cu[backend].append(wall / ((self.cal_prev + cal) / 2))
            samples.wall[backend].append(wall)
        self.cal_prev = cal

    def until(self, deadline: float, samples: Samples) -> None:
        """Alternate the backends, one unit each, until the next unit would
        end after ``deadline``; at least one unit per backend."""
        took: dict[str, float] = {}
        for backend in cycle(BACKENDS):
            now = time.perf_counter()
            if len(took) == len(BACKENDS) and now + took[backend] > deadline:
                return
            self.step(backend, samples)
            took[backend] = time.perf_counter() - now

    def whole_unit(self, backend: str, samples: Samples) -> None:
        """Run ``backend`` until it has finished a whole unit of counters:
        a solve, or a pass of the op stream."""
        self.step(backend, samples)
        while not self.workload.at_unit_boundary(backend):
            self.step(backend, samples)


def cold_import_cu() -> float:
    """Time to import the library from source in a fresh interpreter, in
    calibration units measured in that interpreter."""
    probe = subprocess.run(
        [sys.executable, "-B", "-c", IMPORT_PROBE, str(SRC), str(HERE)],
        capture_output=True, text=True, check=True, timeout=120)
    return float(probe.stdout)


def measure_setup(workload) -> float:
    """Set-up time in seconds at the reference speed.  One set-up is a cold
    import of the library plus input generation and reference answers.
    Each part is timed in calibration units of its own process, like a
    unit of work; the median over repetitions of their sum is converted
    back to seconds with CALIBRATION_REFERENCE_S."""
    totals = []
    gc.collect()
    cal_prev = calibration_loop()
    for _ in range(SETUP_REPEATS):
        imported = cold_import_cu()
        start = time.perf_counter()
        workload.setup()
        wall = time.perf_counter() - start
        gc.collect()
        cal = calibration_loop()
        totals.append(imported + wall / ((cal_prev + cal) / 2))
        cal_prev = cal
    return median(totals) * CALIBRATION_REFERENCE_S


def source_digest() -> str:
    """Digest of the library's and the benchmark's source, so that recorded
    counters belong to one version of the program and of the workloads."""
    h = hashlib.sha256()
    for path in sorted((SRC / "shifttree").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def listed(samples: Samples, prefix: str = "") -> dict:
    """Every unit's calibrated time, for the line before the result."""
    return {prefix + b: [round(cu, 3) for cu in samples.cu[b]] for b in BACKENDS}


def mid(values: list[float]) -> float:
    """Median, or 0.0 when every unit failed (the run is then incorrect)."""
    return median(values) if values else 0.0


def end_to_end(workload, runner: Runner, deadline: float, setup_s: float):
    samples = Samples()
    runner.until(deadline, samples)
    metrics = {f"work_cu.{b}": metric(mid(samples.cu[b]), "cu")
               for b in BACKENDS}
    metrics["peak_rss_mb"] = metric(peak_rss_mb(), "MB")
    metrics["setup_s"] = metric(setup_s, "s")
    return metrics, listed(samples), []


def traced(st, workload, runner: Runner, deadline: float, trace_path: Path):
    """One whole untraced unit per backend, one whole traced unit per
    backend, then untraced units until ``deadline``.  The untraced units are
    the base of ``trace.overhead``; the traced ones give every layer metric.
    """
    plain = Samples()
    for backend in BACKENDS:
        runner.whole_unit(backend, plain)
    tracer = Tracer()
    tracer.install(st)
    runner.tracing = True
    under_trace = Samples()
    schedule = {}
    try:
        for backend in BACKENDS:
            sched_s = tracer.seconds("schedule.next")
            useful = tracer.useful_rotations
            runner.whole_unit(backend, under_trace)
            schedule[backend] = (tracer.seconds("schedule.next") - sched_s,
                                 tracer.useful_rotations - useful)
    finally:
        tracer.uninstall()
        runner.tracing = False
    workload.settle()
    runner.until(deadline, plain)

    metrics = layer_metrics(tracer, plain, under_trace)
    units = listed(plain) | listed(under_trace, "traced.")
    extra = []
    if isinstance(workload, SolverWorkload):
        extra.append({"solver_layers": solver_layers(
            tracer, workload, plain, schedule)})
    trace_path.parent.mkdir(exist_ok=True)
    tracer.write(trace_path)
    return metrics, units, extra


def layer_metrics(tracer: Tracer, plain: Samples, under_trace: Samples) -> dict:
    out = {}
    out["hashing.context_s"] = (sum(tracer.durations("hashing.make_context")), "s")
    out["topology.calls"] = (tracer.calls("topology"), "count")
    out["topology.s"] = (tracer.seconds("topology"), "s")
    for label in ("hashed_tree", "tagged_tree"):
        out.update(tracer.tree_metrics(label))
    tagged_diffs = len(tracer.durations("tagged_tree.diff"))
    out["tagged_tree.diff_hit_ratio"] = (
        tracer.diff_hits / tracer.diff_compares if tracer.diff_compares else 0.0,
        "ratio")
    out["tagged_tree.unions_per_diff"] = (
        tracer.diff_unions / tagged_diffs if tagged_diffs else 0.0, "ratio")
    store = tracer.store
    finds = tracer.calls("tag_store.find")
    out["tag_store.ops"] = (store.ops, "count")
    out["tag_store.steps_per_find"] = (
        tracer.find_steps / finds if finds else 0.0, "ratio")
    out["tag_store.rebuilds"] = (store.rebuilds, "count")
    out["tag_store.rebuild_s"] = (tracer.rebuild_s, "s")
    out["tag_store.alloc_s"] = (tracer.alloc_s, "s")
    out["tag_store.peak_live"] = (tracer.peak_live, "count")
    out["tag_store.capacity"] = (store.capacity, "count")
    for b in BACKENDS:
        out[f"trace.overhead.{b}"] = (
            mid(under_trace.cu[b]) / mid(plain.cu[b]) - 1
            if plain.cu[b] else 0.0, "ratio")
    return {k: metric(v, u) for k, (v, u) in out.items()}


def solver_layers(tracer: Tracer, workload: SolverWorkload, plain: Samples,
                  schedule: dict) -> dict:
    """Layers only the solver workloads exercise: subset_sum, schedule, cli
    and the bitset reference."""
    out = {}
    counters = workload.checks.counters
    steps = (1 << (2 * workload.inst.m - 1).bit_length()) - 1  # L - 1
    bitset_s = median(workload.setup_detail["bitset"])
    for b in BACKENDS:
        name = f"subset_sum.solve.{b}"
        solve_s = mid(plain.wall[b])
        sched_s, useful = schedule[b]
        owners = {i for i, s in enumerate(tracer.spans) if s[0] == name}
        diffs = [s for s in tracer.spans
                 if s[0] == f"{b}_tree.diff" and s[3] in owners]
        c = counters.get(b, {})
        out[f"subset_sum.solve_s.{b}"] = (solve_s, "s")
        out[f"subset_sum.self_s.{b}"] = (tracer.self_time(name) - sched_s, "s")
        out[f"subset_sum.updates.{b}"] = (c.get("updates", 0), "count")
        out[f"subset_sum.diff_visits.{b}"] = (c.get("diff_visits", 0), "count")
        out[f"subset_sum.bellman_iterations.{b}"] = (
            c.get("bellman_iterations", 0), "count")
        out[f"subset_sum.productive_ratio.{b}"] = (
            sum(1 for s in diffs if s[4][1]) / len(diffs) if diffs else 0.0,
            "ratio")
        out[f"reference.gap.{b}"] = (solve_s / bitset_s, "ratio")
    out["subset_sum.store_ops"] = (
        counters.get("tagged", {}).get("store_ops", 0), "count")
    out["schedule.next_s"] = (
        sum(s for s, _ in schedule.values()) / len(BACKENDS), "s")
    out["schedule.useful_ratio"] = (schedule["hashed"][1] / steps, "ratio")
    out["cli.parse_s"] = (median(workload.setup_detail["parse"]), "s")
    out["reference.bitset_s"] = (bitset_s, "s")
    return {k: metric(v, u) for k, (v, u) in sorted(out.items())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "shifttree" / "__init__.py").is_file():
        print(f"error: no shifttree package under {SRC}", file=sys.stderr)
        return 2
    try:
        st = import_library()
    except ImportError as exc:
        print(f"error: cannot import shifttree: {exc}", file=sys.stderr)
        return 2

    checks = Checks()
    if args.workload == "tree_ops":
        workload = TreeOpsWorkload(st, args.seed, checks)
    else:
        workload = SolverWorkload(st, args.workload, args.seed, checks)
    setup_s = measure_setup(workload)
    deadline = time.perf_counter() + args.seconds
    runner = Runner(workload)
    if args.trace:
        path = TRACE_DIR / f"{args.workload}-seed{args.seed}.csv"
        metrics, units, extra = traced(st, workload, runner, deadline, path)
    else:
        metrics, units, extra = end_to_end(workload, runner, deadline, setup_s)

    checks.against_earlier_runs(
        TRACE_DIR / f"{args.workload}-seed{args.seed}-{source_digest()}.counters.json")
    print(json.dumps({"counters": checks.counters, "units_cu": units}))
    for line in extra:
        print(json.dumps(line))
    ok = checks.failed == 0
    print(json.dumps({"correct": ok, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

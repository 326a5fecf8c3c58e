"""Tracing for the benchmark's traced run.

Timing wrappers are installed from here on the public functions of each
``shifttree`` module; nothing under ``src/`` knows about them.  Coarse calls
(solve, tree ``init``/``shift``/``set``/``diff``, ``make_context``) each
record a span ``(name, start, end, parent, info)``.  Fine-grained calls
(``Topology`` links, ``TagStore`` operations, ``ShiftSchedule.next_delta``)
are only counted and timed in aggregate, because a span per call would
cost more than the call.  Spans stay in memory until ``write``.
"""

import time


class Tracer:
    """Spans, aggregate counts and layer ratios of one traced run."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.agg: dict[str, list] = {}  # name -> [calls, seconds]
        self.store = None               # last TagStore seen
        self.peak_live = 0
        self.find_steps = 0
        self.rebuild_s = 0.0
        self.alloc_s = 0.0
        self.diff_compares = 0          # tag pairs compared inside tagged diffs
        self.diff_hits = 0              # ... whose two finds agreed
        self.diff_unions = 0
        self.useful_rotations = 0       # schedule steps at which a diff ran
        self._in_tagged_diff = False
        self._pending_find = None
        self._step_index = 0
        self._last_useful = -1
        self._restore: list = []

    # -- installation ---------------------------------------------------

    def install(self, st) -> None:
        """Wrap the public functions of the ``shifttree`` modules in ``st``
        (a namespace holding the imported modules)."""
        for cls, label in ((st.hashed_tree.HashedShiftTree, "hashed_tree"),
                           (st.tagged_tree.TaggedShiftTree, "tagged_tree")):
            self._patch(cls, "init", self._span(f"{label}.init", cls.init))
            self._patch(cls, "set", self._span(f"{label}.set", cls.set))
            self._patch(cls, "shift", self._shift_span(f"{label}.shift", cls.shift))
            self._patch(cls, "diff", self._diff_span(f"{label}.diff", cls.diff,
                                                     label == "tagged_tree"))
        topo = st.topology.Topology
        for name in ("parent", "left_child", "right_child", "leaf_of_position"):
            self._patch(topo, name, self._counted("topology", getattr(topo, name)))
        store = st.tag_store.TagStore
        self._patch(store, "new_tag", self._new_tag(store.new_tag))
        self._patch(store, "delete_tag", self._delete_tag(store.delete_tag))
        self._patch(store, "find", self._find(store.find))
        self._patch(store, "union", self._union(store.union))
        sched = st.schedule.ShiftSchedule
        self._patch(sched, "next_delta", self._next_delta(sched.next_delta))
        ctx = self._span("hashing.make_context", st.hashing.make_context)
        self._patch(st.hashing, "make_context", ctx)
        self._patch(st.subset_sum, "make_context", ctx)
        self._patch(st.subset_sum, "solve_with_stats",
                    self._solve_span(st.subset_sum.solve_with_stats))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _patch(self, owner, name, wrapper) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        stack = self._stack
        parent = stack[-1] if stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        stack.append(idx)
        return idx, parent

    def _span(self, name, fn):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx, parent = self._open()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[idx] = (name, start, clock(), parent, None)
                self._stack.pop()
        return wrapper

    def _solve_span(self, fn):
        clock = time.perf_counter

        def wrapper(inst, backend="tagged", *args, **kwargs):
            idx, parent = self._open()
            self._step_index = 0
            self._last_useful = -1
            start = clock()
            try:
                return fn(inst, backend, *args, **kwargs)
            finally:
                self.spans[idx] = (f"subset_sum.solve.{backend}", start,
                                   clock(), parent, None)
                self._stack.pop()
        return wrapper

    def _shift_span(self, name, fn):
        clock = time.perf_counter

        def wrapper(tree, k):
            idx, parent = self._open()
            before = tree.update_calls
            r = k % tree.size
            start = clock()
            try:
                return fn(tree, k)
            finally:
                end = clock()
                valuation = (r & -r).bit_length() - 1 if r else -1
                self.spans[idx] = (name, start, end, parent,
                                   (valuation, tree.update_calls - before))
                self._stack.pop()
        return wrapper

    def _diff_span(self, name, fn, tagged):
        clock = time.perf_counter

        def wrapper(tree, other, a, b):
            idx, parent = self._open()
            before = tree.diff_visits
            self._in_tagged_diff = tagged
            self._pending_find = None
            out = None
            start = clock()
            try:
                out = fn(tree, other, a, b)
                return out
            finally:
                end = clock()
                self._in_tagged_diff = False
                reported = len(out) if out is not None else 0
                self.spans[idx] = (name, start, end, parent,
                                   (tree.diff_visits - before, reported))
                self._stack.pop()
                if self._step_index != self._last_useful:
                    self._last_useful = self._step_index
                    self.useful_rotations += 1
        return wrapper

    def _counted(self, key, fn):
        rec = self.agg.setdefault(key, [0, 0.0])
        clock = time.perf_counter

        def wrapper(*args):
            start = clock()
            r = fn(*args)
            rec[1] += clock() - start
            rec[0] += 1
            return r
        return wrapper

    def _next_delta(self, fn):
        rec = self.agg.setdefault("schedule.next", [0, 0.0])
        clock = time.perf_counter

        def wrapper(sched):
            start = clock()
            try:
                return fn(sched)
            finally:
                rec[1] += clock() - start
                rec[0] += 1
                self._step_index = sched.index
        return wrapper

    def _new_tag(self, fn):
        clock = time.perf_counter

        def wrapper(store):
            start = clock()
            r = fn(store)
            self.alloc_s += clock() - start
            if store.live > self.peak_live:
                self.peak_live = store.live
            self.store = store
            return r
        return wrapper

    def _delete_tag(self, fn):
        clock = time.perf_counter

        def wrapper(store, x):
            rebuilds = store.rebuilds
            start = clock()
            fn(store, x)
            dt = clock() - start
            if store.rebuilds != rebuilds:
                self.rebuild_s += dt
            else:
                self.alloc_s += dt
        return wrapper

    def _find(self, fn):
        rec = self.agg.setdefault("tag_store.find", [0, 0.0])
        clock = time.perf_counter

        def wrapper(store, x):
            steps = store.steps
            start = clock()
            r = fn(store, x)
            rec[1] += clock() - start
            rec[0] += 1
            self.find_steps += store.steps - steps
            if self._in_tagged_diff:
                # a tagged diff compares find(t1) == find(t2): pair them up
                if self._pending_find is None:
                    self._pending_find = r
                else:
                    self.diff_compares += 1
                    self.diff_hits += self._pending_find == r
                    self._pending_find = None
            return r
        return wrapper

    def _union(self, fn):
        def wrapper(store, x, y):
            fn(store, x, y)
            if self._in_tagged_diff:
                self.diff_unions += 1
        return wrapper

    # -- summaries --------------------------------------------------------

    def calls(self, key: str) -> int:
        return self.agg.get(key, [0, 0.0])[0]

    def seconds(self, key: str) -> float:
        return self.agg.get(key, [0, 0.0])[1]

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_time(self, name: str) -> float:
        """Summed duration of spans called ``name`` minus what their direct
        child spans cover (children run one after another, so a sum)."""
        total = 0.0
        owners = {}
        for idx, s in enumerate(self.spans):
            if s[0] == name:
                owners[idx] = s
                total += s[2] - s[1]
        for s in self.spans:
            if s[3] in owners:
                total -= s[2] - s[1]
        return total

    def tree_metrics(self, label: str) -> dict:
        """Per-layer numbers for ``hashed_tree`` or ``tagged_tree``."""
        m = {}
        shifts = [s for s in self.spans if s[0] == f"{label}.shift"]
        sets = self.durations(f"{label}.set")
        diffs = [s for s in self.spans if s[0] == f"{label}.diff"]
        m[f"{label}.init_s"] = (sum(self.durations(f"{label}.init")), "s")
        shift_s = sum(s[2] - s[1] for s in shifts)
        shift_updates = sum(s[4][1] for s in shifts)
        m[f"{label}.shift_s"] = (shift_s, "s")
        m[f"{label}.shift_updates"] = (shift_updates, "count")
        m[f"{label}.shift_ns_per_update"] = (
            1e9 * shift_s / shift_updates if shift_updates else 0.0, "ns")
        m[f"{label}.set_s"] = (sum(sets), "s")
        m[f"{label}.set_calls"] = (len(sets), "count")
        m[f"{label}.set_us.p50"] = (1e6 * quantile(sets, 0.50), "us")
        m[f"{label}.set_us.p99"] = (1e6 * quantile(sets, 0.99), "us")
        diff_durations = [s[2] - s[1] for s in diffs]
        visits = sum(s[4][0] for s in diffs)
        reported_plus_one = sum(s[4][1] + 1 for s in diffs)
        m[f"{label}.diff_s"] = (sum(diff_durations), "s")
        m[f"{label}.diff_calls"] = (len(diffs), "count")
        m[f"{label}.diff_visits_per_reported"] = (
            visits / reported_plus_one if diffs else 0.0, "ratio")
        m[f"{label}.diff_us.p50"] = (1e6 * quantile(diff_durations, 0.50), "us")
        m[f"{label}.diff_us.p99"] = (1e6 * quantile(diff_durations, 0.99), "us")
        for v in range(VALUATIONS):
            of_v = [s for s in shifts if s[4][0] == v]
            updates = sum(s[4][1] for s in of_v)
            spent = sum(s[2] - s[1] for s in of_v)
            m[f"{label}.shift_ns_per_update.v{v}"] = (
                1e9 * spent / updates if updates else 0.0, "ns")
        return m

    def write(self, path) -> None:
        """One line per span: name, start and end in ns, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent\n")
            for name, start, end, parent, _ in self.spans:
                fh.write(f"{name},{int(start * 1e9)},{int(end * 1e9)},{parent}\n")


VALUATIONS = 14  # shift valuations 0..13 occur on every workload


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]

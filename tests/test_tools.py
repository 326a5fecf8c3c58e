import ast
import importlib.util
import json
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AB_TIME = ROOT / "tools" / "ab_time.py"


def ab_time(parent: Path, change: Path, *flags) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(AB_TIME), str(parent), str(change),
         "--sizes", "256", "512", "--rounds", "2", *flags],
        capture_output=True, text=True, timeout=300)


def miscounting_copy(tmp_path: Path, body=None) -> Path:
    """A copy of the package that counts one update too many per hashed
    refresh; ``body(text)``, if given, rewrites its ``subset_sum.py``."""
    shutil.copytree(ROOT / "src" / "shifttree", tmp_path / "src" / "shifttree",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "shifttree" / "hashed_tree.py"
    text = path.read_text()
    assert "self.update_calls += calls\n" in text
    path.write_text(text.replace("self.update_calls += calls\n",
                                 "self.update_calls += calls + 1\n"))
    if body is not None:
        path = tmp_path / "src" / "shifttree" / "subset_sum.py"
        path.write_text(body(path.read_text()))
    return tmp_path


def test_ab_time_against_itself():
    # both sides load this checkout under two package names: they agree,
    # and every backend, size and side gets a median and a win count,
    # with the median time of its sums' ascending() beside them
    done = ab_time(ROOT, ROOT)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "sums and counters agree"
    for backend in ("hashed", "tagged"):
        for m in (256, 512):
            wins = 0
            for side in ("parent", "change"):
                line, = (line for line in lines
                         if line.startswith(f"{backend} m={m} {side}: "))
                assert " ms [" in line
                line, listed = line.split("  ascending() ")
                assert listed.endswith(" ms") and float(listed[:-3]) >= 0
                wins += int(line.rsplit("won ", 1)[1].split("/")[0])
            assert wins <= 2, (backend, m)
        for side in ("parent", "change"):
            assert f"{backend} {side} median ratio from size to size: [" \
                in done.stdout


def test_ab_time_json_records_what_it_prints(tmp_path):
    # --json appends each run to the file's runs list: per backend and
    # size, each side's median and quartiles, pairs won and counters, as
    # printed, with the Python version and each checkout's revision
    from shifttree.shift_tree import _WORD

    path = tmp_path / "bench.json"
    for runs in (1, 2):
        done = ab_time(ROOT, ROOT, "--json", str(path))
        assert done.returncode == 0, done.stderr
        record = json.loads(path.read_text())
        assert record["tool"] == "tools/ab_time.py"
        assert len(record["runs"]) == runs
    run = record["runs"][-1]
    assert run["python"] == platform.python_version()
    assert run["agree"] == done.stdout.splitlines()[0]
    assert run["options"] == {
        "sizes": [256, 512], "family": "dense", "workload": None,
        "layers": None, "backends": ["hashed", "tagged"], "rounds": 2,
        "seed": 1, "counters_may_differ": False}
    for side in ("parent", "change"):
        where = run["checkouts"][side]
        assert set(where) == {"revision", "src_modified", "package_sha256",
                              "word"}
        assert where["revision"] is None or re.fullmatch(
            "[0-9a-f]{40}", where["revision"])
        assert where["word"] == _WORD
    assert run["checkouts"]["parent"] == run["checkouts"]["change"]
    assert [(row["backend"], row["instance"]) for row in run["rows"]] == [
        (backend, f"m={m}") for backend in ("hashed", "tagged")
        for m in (256, 512)]
    for row in run["rows"]:
        cells = [row[side] for side in ("parent", "change")]
        for side, cell in zip(("parent", "change"), cells):
            assert cell["q1_ms"] <= cell["median_ms"] <= cell["q3_ms"]
            assert set(cell["counters"]) == {
                "bellman_iterations", "reported_differences", "updates",
                "diff_visits", "store_ops"}
            line = (f"{row['backend']} {row['instance']} {side}: "
                    f"{cell['median_ms']:9.1f} ms [{cell['q1_ms']:.1f}, "
                    f"{cell['q3_ms']:.1f}]  won {cell['won']}/2  "
                    f"ascending() {cell['ascending_ms']:.2f} ms")
            assert line in done.stdout.splitlines()
        assert cells[0]["pairs"] == cells[1]["pairs"] == 2
        assert cells[0]["won"] + cells[1]["won"] <= 2
        assert cells[0]["counters"] == cells[1]["counters"]
    for backend in ("hashed", "tagged"):
        for side in ("parent", "change"):
            ratios = run["ratios"][backend][side]
            assert len(ratios) == 1 and ratios[0] > 0
    # a file that holds no such record is refused before anything is timed
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    done = ab_time(ROOT, ROOT, "--json", str(bad))
    assert done.returncode == 2 and "no JSON object" in done.stderr
    assert done.stdout == "" and bad.read_text() == "[]"


def test_ab_time_stops_when_counters_differ(tmp_path):
    # a copy that counts one update too many per refresh is refused before
    # anything is timed
    done = ab_time(ROOT, miscounting_copy(tmp_path))
    assert done.returncode == 1, done.stdout
    assert "hashed m=256: counters" in done.stdout
    assert " ms [" not in done.stdout


def test_ab_time_times_a_change_that_moves_counters(tmp_path):
    # with the switch, the miscounting copy is timed: both sides' counters
    # are printed first, and only the hashed updates differ
    done = ab_time(ROOT, miscounting_copy(tmp_path), "--counters-may-differ")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    agree = lines.index("sums agree")
    for backend in ("hashed", "tagged"):
        for m in (256, 512):
            stats = {}
            for side in ("parent", "change"):
                line, = (line for line in lines[:agree] if line.startswith(
                    f"{backend} m={m} {side} counters: "))
                stats[side] = ast.literal_eval(line.split(": ", 1)[1])
                assert any(line.startswith(f"{backend} m={m} {side}: ")
                           and " ms [" in line for line in lines[agree:])
            parent, change = stats["parent"], stats["change"]
            if backend == "hashed":
                assert change.pop("updates") > parent.pop("updates")
            assert change == parent, (backend, m)


def test_ab_time_switch_still_requires_equal_sums(tmp_path):
    # a copy that lists every sum set without its largest sum is refused
    # with the switch too, and nothing is timed
    def drop_a_sum(text):
        # wrap the method, so that both its dense and its sparse paths drop
        assert "    def ascending(self) -> list[int]:\n" in text
        return text + ("\n_ascending = SumSet.ascending\n"
                       "SumSet.ascending = lambda self: _ascending(self)[:-1]\n")

    done = ab_time(ROOT, miscounting_copy(tmp_path, drop_a_sum),
                   "--counters-may-differ")
    assert done.returncode == 1, done.stdout
    assert "hashed m=256: the sums differ" in done.stdout
    assert " ms [" not in done.stdout


def test_ab_time_checks_sums_against_solve_naive(tmp_path):
    # two sides that agree with each other but whose tree solves lose
    # their largest sum are refused: the change side's naive backend,
    # the big-int bitset, keeps it
    def drop_a_tree_sum(text):
        end = "    return SolveResult(sums=sums, stats=stats)\n"
        assert text.count(end) == 1
        drop = "    sums.bits ^= 1 << (sums.bits.bit_length() - 1)\n"
        return text.replace(end, drop + end)

    broken = miscounting_copy(tmp_path, drop_a_tree_sum)
    done = ab_time(broken, broken)
    assert done.returncode == 1, done.stdout
    assert "hashed m=256: the sums differ from solve_naive" in done.stdout
    assert " ms [" not in done.stdout


def test_ab_time_refuses_a_checkout_without_the_package(tmp_path):
    done = ab_time(ROOT, tmp_path)
    assert done.returncode == 2
    assert "no shifttree package" in done.stderr


def test_ab_time_times_a_benchmark_workload(monkeypatch):
    # --workload times the benchmark's own instance, built by
    # perfbench/workloads.py, in place of the dense sizes
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # nothing there
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    m, _ = workloads.solver_instance("sparse", 1)
    done = subprocess.run(
        [sys.executable, str(AB_TIME), str(ROOT), str(ROOT),
         "--workload", "sparse", "--rounds", "2"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "sums and counters agree"
    for backend in ("hashed", "tagged"):
        for side in ("parent", "change"):
            line, = (line for line in lines
                     if line.startswith(f"{backend} m={m} {side}: "))
            assert " ms [" in line
    # a workload and sizes together are refused
    done = subprocess.run(
        [sys.executable, str(AB_TIME), str(ROOT), str(ROOT),
         "--workload", "dense", "--sizes", "256"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 2 and "not allowed with" in done.stderr


def test_ab_time_times_the_instance_families(tmp_path, monkeypatch):
    # a tiny grid: every --family at two sizes, in one JSON record whose
    # rows name the family; each family's tables are as defined, and the
    # tree solves of them match the bitset oracle.  A family goes with
    # --sizes only
    from math import ceil, sqrt

    from shifttree import Instance, solve, solve_naive

    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # nothing there
    spec = importlib.util.spec_from_file_location("ab_time_tool", AB_TIME)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    path = tmp_path / "BENCH_grid.json"
    for family in tool.FAMILIES:
        done = ab_time(ROOT, ROOT, "--family", family, "--json", str(path))
        assert done.returncode == 0, (family, done.stderr)
        assert done.stdout.splitlines()[0] == "sums and counters agree"
    runs = json.loads(path.read_text())["runs"]
    assert [run["options"]["family"] for run in runs] == list(tool.FAMILIES)
    for run in runs:
        family = run["options"]["family"]
        label = "m=" if family == "dense" else f"{family} m="
        assert [row["instance"] for row in run["rows"]] \
            == [f"{label}{m}" for m in (256, 512)] * 2
        assert all(row[side]["median_ms"] >= 0 for row in run["rows"]
                   for side in ("parent", "change"))
    for m in (64, 256, 512):
        tables = {family: tool.family_mult(family, m, 1)
                  for family in tool.FAMILIES[1:]}
        present = {family: {x: c for x, c in enumerate(mult) if c}
                   for family, mult in tables.items()}
        assert present["chain"] == {1: m}
        assert present["3579"] == {3: m // 4, 5: m // 4, 7: m // 4,
                                   9: m // 4}
        assert present["small"] == {
            x: 1 for x in range(1, ceil(sqrt(2 * m)) + 2)}
        assert set(present["mult8"]) <= set(range(8, m, 8))
        assert 0 < len(present["mult8"]) < m // 8
        assert set(present["rand8"].values()) == {1}
        assert len(present["rand8"]) == 8
        for family, mult in tables.items():
            inst = Instance(m, mult)
            for backend in ("hashed", "tagged"):
                assert solve(inst, backend, seed=1) == solve_naive(inst), \
                    (family, m, backend)
    done = subprocess.run(
        [sys.executable, str(AB_TIME), str(ROOT), str(ROOT),
         "--workload", "dense", "--family", "chain"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 2 and "--family goes with --sizes" in done.stderr


def tree_ops(parent: Path, change: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(AB_TIME), str(parent), str(change),
         "--workload", "tree_ops", "--rounds", "2"],
        capture_output=True, text=True, timeout=300)


def test_ab_time_times_the_tree_ops_stream():
    # both sides replay the benchmark's tree_ops stream to its expected
    # outputs and final strings, agree on the counters, and are timed
    done = tree_ops(ROOT, ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "outputs and counters agree"
    for backend in ("hashed", "tagged"):
        for side in ("parent", "change"):
            line, = (line for line in lines
                     if line.startswith(f"{backend} tree_ops {side}: "))
            assert " ms [" in line and line.endswith("/2")


def test_ab_time_tree_ops_refuses_a_broken_set(tmp_path):
    # a copy whose hashed point write stores the letter but adds its
    # change to no ancestor misses differences: its diffs differ from the
    # stream's, so the run stops before anything is timed
    shutil.copytree(ROOT / "src" / "shifttree", tmp_path / "src" / "shifttree",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "shifttree" / "hashed_tree.py"
    text = path.read_text()
    line = "            sums[i] += d\n"
    assert text.count(line) == 1
    path.write_text(text.replace(line, ""))
    done = tree_ops(ROOT, tmp_path)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "hashed change: batch 0 differs" in done.stdout
    assert "hashed parent:" not in done.stdout
    assert " ms [" not in done.stdout


def layers(parent: Path, change: Path, *flags) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(AB_TIME), str(parent), str(change),
         "--layers", "6", "--rounds", "2", *flags],
        capture_output=True, text=True, timeout=300)


def test_ab_time_times_tree_layers(tmp_path, monkeypatch):
    # --layers 6: both sides run point writes that each change their
    # letter, 2**v shifts of each valuation v in 0..5 and a full-width
    # diff on two trees of letters of depth 6; each column's counters
    # agree and are recorded, and its time per call is printed in
    # microseconds.  As no write is of the letter already there, each
    # refreshes 6 nodes whether or not a tree skips such writes
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # nothing there
    spec = importlib.util.spec_from_file_location("ab_time_tool", AB_TIME)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    initial, writes, _ = tool.layer_plan(6, 1)
    assert len(writes) == tool.LAYER_WRITES
    letters = list(initial)
    for pos, x in writes:
        assert x in range(4) and x != letters[pos], (pos, x)
        letters[pos] = x
    path = tmp_path / "layers.json"
    done = layers(ROOT, ROOT, "--json", str(path))
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "outputs and counters agree"
    labels = ["set", *(f"shift v{v}" for v in range(6)), "diff"]
    for backend in ("hashed", "tagged"):
        for label in labels:
            for side in ("parent", "change"):
                line, = (line for line in lines
                         if line.startswith(f"{backend} {label} {side}: "))
                assert " us [" in line and line.endswith("/2")
    run = json.loads(path.read_text())["runs"][0]
    assert run["options"]["layers"] == 6 and run["options"]["sizes"] is None
    assert run["ratios"] == {}
    rows = {(row["backend"], row["instance"]): row for row in run["rows"]}
    assert list(rows) == [(backend, label) for backend in ("hashed", "tagged")
                          for label in labels]
    for (backend, label), row in rows.items():
        parent, change = row["parent"], row["change"]
        assert parent["q1_us"] <= parent["median_us"] <= parent["q3_us"]
        assert parent["counters"] == change["counters"]
        counters = parent["counters"]
        if label == "set":
            assert counters["updates"] == 6 * 1024
        elif label.startswith("shift"):
            v = int(label[7:])
            assert counters["updates"] == 2 * (1 << v) * ((64 >> v) - 1)
        else:
            assert counters["diff_visits"] > 0
        assert ("store_ops" in counters) == (backend == "tagged")
    # a copy that counts one update too many per level refresh is refused
    # before anything is timed
    done = layers(ROOT, miscounting_copy(tmp_path))
    assert done.returncode == 1, done.stdout
    assert "hashed layers change: update counts differ" in done.stdout
    assert " us [" not in done.stdout
    done = layers(ROOT, ROOT, "--layers", "21")
    assert done.returncode == 2 and "--layers must be in" in done.stderr


SRC_LINES_SAMPLE = '''"""Module docstring
over two lines."""

# a comment line
import os  # a line with a trailing comment is code


class Box:
    """Class docstring."""

    size = 1

    def text(self):
        """Function
        docstring."""
        # a comment line
        return """a string
that is no docstring"""
'''


def test_src_lines_counts_code_lines(tmp_path):
    # code lines: import, class, size, def and the two lines of the
    # returned string; docstrings, comment lines and blank lines are not
    spec = importlib.util.spec_from_file_location(
        "src_lines", ROOT / "tools" / "src_lines.py")
    src_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_lines)
    assert src_lines.count(SRC_LINES_SAMPLE) == (18, 6)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "box.py").write_text(SRC_LINES_SAMPLE)
    (tmp_path / "empty.py").write_text("")
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "src_lines.py"), str(tmp_path)],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "     0      0  empty.py",
        "    18      6  pkg/box.py",
        "    18      6  total",
    ]


def test_no_bare_assert_under_src():
    # an invariant under src/ must hold under python -O, which drops every
    # assert statement, so none may guard one
    modules = sorted((ROOT / "src" / "shifttree").rglob("*.py"))
    assert len(modules) > 5
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def api_doc_gaps(readme: str) -> tuple[set[str], set[str]]:
    """``(methods, rows)``: the public methods of the two tree variants
    that no code span of ``readme`` names, and the ``name(`` rows of its
    operation tables that name no such method."""
    from shifttree import HashedShiftTree, TaggedShiftTree

    methods = {name for cls in (HashedShiftTree, TaggedShiftTree)
               for name in dir(cls)
               if not name.startswith("_") and callable(getattr(cls, name))}
    named = {word for span in re.findall(r"`([^`\n]+)`", readme)
             for word in re.findall(r"\w+", span)}
    rows = set(re.findall(r"^\| `(\w+)\(", readme, re.MULTILINE))
    return methods - named, rows - methods


def test_readme_names_the_tree_api():
    # every public tree method is named in the README, and every row of
    # its two operation tables is a public tree method; a row left behind
    # for a deleted method fails
    readme = (ROOT / "README.md").read_text()
    assert len(re.findall(r"^\| `\w+\(", readme, re.MULTILINE)) >= 6
    assert api_doc_gaps(readme) == (set(), set())
    row = "| `set(i, x)` "
    assert readme.count(row) == 1
    stale = readme.replace(row, "| `set_many(P, x)` | O(b log m) |\n" + row)
    assert api_doc_gaps(stale) == (set(), {"set_many"})

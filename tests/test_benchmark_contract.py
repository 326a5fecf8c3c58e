"""The names the benchmark under ``perfbench/`` imports and patches.

``perfbench/run.py`` imports every module through ``import_library`` and
its tracer wraps methods and module functions by name, so a library change
that drops one of them breaks the benchmark.  The per-layer metrics also
read counters off the tag store (``live``, ``ops``, ``steps``,
``rebuilds``, ``capacity``), so one small solve per tree backend runs
under the tracer and the metrics are computed from it.  This catches
either break here first.  The check runs in a subprocess: installing and
uninstalling the tracer leaves attributes behind on the library's classes.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from shifttree.shift_tree import _WORD as W

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import run
from tracing import Tracer

st = run.import_library()
st.subset_sum.TagStore  # run.py swaps it for a recording factory
tracer = Tracer()
tracer.install(st)
inst = st.cli.dense_instance(int(sys.argv[2]), 1)
want = st.subset_sum.solve(inst, backend="naive").ascending()
for backend in ("hashed", "tagged"):
    got = st.subset_sum.solve_with_stats(inst, backend=backend, seed=1)
    assert got.sums.ascending() == want, backend
metrics = run.layer_metrics(tracer, run.Samples(), run.Samples())
tracer.uninstall()
assert metrics["tag_store.ops"]["value"] > 0, metrics["tag_store.ops"]
assert metrics["tag_store.peak_live"]["value"] > 0
print(metrics["tag_store.peak_live"]["value"])
print("ok")
"""


def traced_solves(m: int) -> subprocess.CompletedProcess:
    """Run ``SCRIPT`` on ``cli.dense_instance(m, 1)``."""
    return subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT, str(ROOT / "perfbench"), str(m)],
        capture_output=True, text=True, timeout=60)


def test_benchmark_imports_and_patches_the_library():
    # m = 4W - 48 (W = _WORD): L = 8W, so eight windows under trees with
    # inner levels, which is where a tagged solve makes tags (at the root
    # alone, the trees' one block)
    done = traced_solves(4 * W - 48)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "ok"


def test_benchmark_traces_an_unpadded_solve():
    # m = 8W is a power of two, so the trees have length m itself: eight
    # windows under trees with inner levels, the layout of the sparse
    # workload (m = 2**15 = 8W).  A power of two up to W is one window,
    # which the strict xfail below covers
    done = traced_solves(8 * W)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "ok"


def test_benchmark_traces_tags_below_the_root():
    # m = 32W + 1 pads to L = 128W: 128 windows under trees of depth 7,
    # whose walk descends from the root to blocks of 64 windows and whose
    # tags sit on levels 0..1, below the root, unlike the two solves above
    done = traced_solves(32 * W + 1)
    assert done.returncode == 0, done.stderr
    *_, peak_live, ok = done.stdout.split()
    assert ok == "ok"
    assert int(peak_live) > 2  # more live tags than the two trees' roots


@pytest.mark.xfail(strict=True, reason=(
    "perfbench/run.py layer_metrics reads the tag store off the tracer, "
    "which only a wrapped new_tag sets: a tagged solve that makes no tag "
    "crashes it with None.ops"))
def test_traced_one_window_solve():
    # m = 200: L = 512 is one window, so no tree has an inner node and the
    # tagged solve makes no tag
    done = traced_solves(200)
    assert done.returncode == 0, done.stderr

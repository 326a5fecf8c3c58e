import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AB_TIME = ROOT / "tools" / "ab_time.py"


def ab_time(parent: Path, change: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(AB_TIME), str(parent), str(change),
         "--sizes", "256", "512", "--rounds", "2"],
        capture_output=True, text=True, timeout=300)


def test_ab_time_against_itself():
    # both sides load this checkout under two package names: they agree,
    # and every backend, size and side gets a median and a win count
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
                wins += int(line.rsplit("won ", 1)[1].split("/")[0])
            assert wins <= 2, (backend, m)
        for side in ("parent", "change"):
            assert f"{backend} {side} median ratio from size to size: [" \
                in done.stdout


def test_ab_time_stops_when_counters_differ(tmp_path):
    # a copy that counts one update too many per refresh is refused before
    # anything is timed
    shutil.copytree(ROOT / "src" / "shifttree", tmp_path / "src" / "shifttree",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "shifttree" / "hashed_tree.py"
    text = path.read_text()
    assert "self.update_calls += calls\n" in text
    path.write_text(text.replace("self.update_calls += calls\n",
                                 "self.update_calls += calls + 1\n"))
    done = ab_time(ROOT, tmp_path)
    assert done.returncode == 1, done.stdout
    assert "hashed m=256: counters" in done.stdout
    assert " ms [" not in done.stdout


def test_ab_time_refuses_a_checkout_without_the_package(tmp_path):
    done = ab_time(ROOT, tmp_path)
    assert done.returncode == 2
    assert "no shifttree package" in done.stderr

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from shifttree import HashedShiftTree
from shifttree.shift_tree import _WORD
from shifttree.cli import (MAX_MODULUS, bench_rows, dense_instance, main,
                           parse_instance)

from helpers import lying_diff_windows


def run_cli(argv, monkeypatch, capsys, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_instance_examples():
    assert parse_instance("2\n3\n", 5).mult == [0, 0, 1, 1, 0]
    assert parse_instance("7 3\n", 5).mult == [0, 0, 3, 0, 0]
    assert parse_instance("2\n2 2\n", 5).mult == [0, 0, 3, 0, 0]


def test_parse_instance_comments_and_blanks():
    text = "# full-line comment\n\n  \n4 2  # trailing comment\n-1\n"
    assert parse_instance(text, 5).mult == [0, 0, 0, 0, 3]


def test_parse_instance_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_instance("1\nx\n", 5)
    with pytest.raises(ValueError, match="line 1"):
        parse_instance("3 -2\n", 5)
    with pytest.raises(ValueError, match="line 3"):
        parse_instance("1\n2\n3 4 5\n", 7)
    # one byte-order mark is skipped, and only before the first line
    for text, bad in (("\ufeff\ufeff3\n", 1), ("3\n\ufeff5\n", 2)):
        with pytest.raises(ValueError, match=f"line {bad}: non-integer"):
            parse_instance(text, 10)
    # a modulus below 1 is refused as bad input, not a crash in the loop
    for modulus in (0, -3):
        with pytest.raises(ValueError, match="modulus"):
            parse_instance("1 2\n", modulus)


def test_list_mode(monkeypatch, capsys):
    code, out, err = run_cli(["--modulus", "5"], monkeypatch, capsys, "2\n3\n")
    assert code == 0
    assert out == "0\n2\n3\n"


def test_empty_input(monkeypatch, capsys):
    code, out, _ = run_cli(["--modulus", "7"], monkeypatch, capsys, "")
    assert code == 0
    assert out == "0\n"


def test_count_mode(monkeypatch, capsys):
    code, out, _ = run_cli(["--modulus", "5", "--mode", "count"],
                           monkeypatch, capsys, "2\n3\n")
    assert code == 0
    assert out == "3\n"


def test_stats_mode_prints_counters_to_stderr(monkeypatch, capsys):
    code, out, err = run_cli(["--modulus", "5", "--mode", "stats"],
                             monkeypatch, capsys, "2\n3\n")
    assert code == 0
    assert out == "0\n2\n3\n"
    stats = dict(line.split("=") for line in err.strip().splitlines())
    assert set(stats) == {"updates", "diff_visits", "store_ops",
                          "bellman_iterations"}
    assert all(v.isdigit() for v in stats.values())
    # L = 16: each word tree is one window, so no inner node is refreshed
    # and each of the two diffs visits the root pair alone
    assert stats == {"updates": "0", "diff_visits": "2", "store_ops": "0",
                     "bellman_iterations": "2"}
    # at m = 2W - 48 (L = 4W, four windows of W = _WORD bits) the writes
    # refresh inner nodes
    code, out, err = run_cli(["--modulus", str(2 * _WORD - 48), "--mode",
                              "stats"], monkeypatch, capsys, "2\n3\n")
    assert code == 0
    assert out == "0\n2\n3\n5\n"
    stats = dict(line.split("=") for line in err.strip().splitlines())
    assert int(stats["updates"]) > 0


def test_naive_backend_and_input_file(tmp_path, monkeypatch, capsys):
    path = tmp_path / "inst.txt"
    path.write_text("2\n3\n")
    code, out, _ = run_cli(
        ["--modulus", "5", "--backend", "naive", "--input", str(path)],
        monkeypatch, capsys)
    assert code == 0
    assert out == "0\n2\n3\n"


def test_missing_input_file(monkeypatch, capsys):
    code, _, err = run_cli(["--modulus", "5", "--input", "/nonexistent/x"],
                           monkeypatch, capsys)
    assert code == 2
    assert "cannot read" in err


def test_hashed_backend_is_deterministic_under_seed(monkeypatch, capsys):
    args = ["--modulus", "31", "--backend", "hashed", "--seed", "5",
            "--mode", "stats"]
    first = run_cli(args, monkeypatch, capsys, "7 2\n11\n")
    second = run_cli(args, monkeypatch, capsys, "7 2\n11\n")
    assert first == second
    assert first[0] == 0


def test_seed_warning_for_non_hashed_backend(monkeypatch, capsys):
    code, _, err = run_cli(["--modulus", "5", "--seed", "3"],
                           monkeypatch, capsys, "2\n")
    assert code == 0
    assert "ignored" in err


def test_missing_modulus_is_exit_2(monkeypatch, capsys):
    code, _, err = run_cli([], monkeypatch, capsys, "1\n")
    assert code == 2
    assert "--modulus" in err


def test_bad_modulus_is_exit_2(monkeypatch, capsys):
    code, _, err = run_cli(["--modulus", "0"], monkeypatch, capsys, "1\n")
    assert code == 2
    # above the ceiling: refused with a message before any table is built
    for m in (MAX_MODULUS + 1, 10**15):
        code, out, err = run_cli(["--modulus", str(m)], monkeypatch, capsys,
                                 "1\n")
        assert code == 2
        assert out == ""
        assert str(MAX_MODULUS) in err and str(m) in err


def test_parse_error_is_exit_2(monkeypatch, capsys):
    code, _, err = run_cli(["--modulus", "5"], monkeypatch, capsys, "oops\n")
    assert code == 2
    assert "line 1" in err


def test_usage_error_is_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["--backend", "bogus", "--modulus", "5"])
    assert exc.value.code == 2


def test_collision_tripwire_is_exit_3(monkeypatch, capsys):
    # the lowest bit in which the first window differs now matches
    monkeypatch.setattr(HashedShiftTree, "diff_windows", lying_diff_windows(
        HashedShiftTree.diff_windows))
    code, _, err = run_cli(["--modulus", "6", "--backend", "hashed"],
                           monkeypatch, capsys, "2\n3\n")
    assert code == 3
    assert "collision" in err


def test_error_with_stderr_closed_writes_nothing(monkeypatch, capsys):
    # print(..., file=sys.stderr) with sys.stderr None writes to stdout:
    # with stderr closed, an error goes nowhere and the exit code stays 2
    monkeypatch.setattr("sys.stderr", None)
    code, out, _ = run_cli(["--modulus", "0"], monkeypatch, capsys, "1\n")
    assert (code, out) == (2, "")


def test_seed_warning_with_stderr_closed_writes_nothing(monkeypatch, capsys):
    # the warning used to land in front of the residues
    monkeypatch.setattr("sys.stderr", None)
    code, out, _ = run_cli(["--modulus", "5", "--seed", "3"], monkeypatch,
                           capsys, "2\n")
    assert (code, out) == (0, "0\n2\n")


def test_collision_with_stderr_closed_writes_nothing(monkeypatch, capsys):
    monkeypatch.setattr(HashedShiftTree, "diff_windows", lying_diff_windows(
        HashedShiftTree.diff_windows))
    monkeypatch.setattr("sys.stderr", None)
    code, out, _ = run_cli(["--modulus", "6", "--backend", "hashed"],
                           monkeypatch, capsys, "2\n3\n")
    assert (code, out) == (3, "")


def test_bench_csv_shape(monkeypatch, capsys):
    code, out, _ = run_cli(["--bench", "8,16,32", "--backend", "tagged"],
                           monkeypatch, capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,backend,wall_ns,updates,diff_visits,store_ops"
    assert len(lines) == 4
    for line, m in zip(lines[1:], (8, 16, 32)):
        cells = line.split(",")
        assert len(cells) == 6
        assert cells[0] == str(m)
        assert cells[1] == "tagged"
        assert int(cells[2]) > 0


def test_bench_rejects_bad_sizes(monkeypatch, capsys):
    code, _, err = run_cli(["--bench", "8,x"], monkeypatch, capsys)
    assert code == 2
    code, _, err = run_cli(["--bench", "0,8"], monkeypatch, capsys)
    assert code == 2
    for m in (MAX_MODULUS + 1, 10**15):
        code, out, err = run_cli(["--bench", f"8,{m}"], monkeypatch, capsys)
        assert code == 2
        assert out == ""                # no CSV header, nothing solved
        assert str(MAX_MODULUS) in err and str(m) in err


def test_list_output_matches_oracle_on_random_instances(monkeypatch, capsys):
    from random import Random

    from shifttree import solve_naive

    rng = Random(15)
    for trial in range(10):
        m = rng.randint(1, 60)
        lines = "".join(f"{rng.randrange(3 * m)} {rng.randint(1, 3)}\n"
                        for _ in range(rng.randint(0, 8)))
        backend = ("hashed", "tagged", "naive")[trial % 3]
        argv = ["--modulus", str(m), "--backend", backend]
        if backend == "hashed":
            argv += ["--seed", str(trial)]
        code, out, _ = run_cli(argv, monkeypatch, capsys, lines)
        assert code == 0
        got = [int(v) for v in out.split()]
        assert got == sorted(got)
        assert got[0] == 0
        assert got == solve_naive(parse_instance(lines, m)).ascending()


def test_bench_rows_function():
    rows = bench_rows([16, 2 * _WORD], "hashed", seed=1)
    assert [r[0] for r in rows] == [16, 2 * _WORD]
    assert all(r[1] == "hashed" and r[2] > 0 for r in rows)
    # m = 16 packs its L = 32 positions into one window: no inner node to
    # update; m = 2W, a power of two, is two windows of W = _WORD bits
    # under one inner node
    assert rows[0][3] == 0 and rows[1][3] > 0
    # dense instances are seeded: same seed, same instance
    assert dense_instance(64, 1).mult == dense_instance(64, 1).mult
    assert dense_instance(64, 1).mult != dense_instance(64, 2).mult


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_undecodable_input_is_exit_2(source, tmp_path, monkeypatch, capsys):
    raw = b"\xff\xfe3\n"
    argv = ["--modulus", "5"]
    if source == "file":
        path = tmp_path / "inst.bin"
        path.write_bytes(raw)
        argv += ["--input", str(path)]
    monkeypatch.setattr("sys.stdin",
                        io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read")


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_leading_byte_order_mark_is_skipped(source, tmp_path, monkeypatch,
                                            capsys):
    # a text saved with a UTF-8 byte-order mark parses, from --input and
    # from stdin alike; it used to fail with "line 1: non-integer token"
    raw = b"\xef\xbb\xbf3 1\n5 2\n"
    argv = ["--modulus", "10"]
    if source == "file":
        path = tmp_path / "inst.txt"
        path.write_bytes(raw)
        argv += ["--input", str(path)]
    monkeypatch.setattr("sys.stdin",
                        io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, "0\n3\n5\n8\n", "")


def modsum_process(*argv, closed=None) -> subprocess.Popen:
    """``modsum`` in a child interpreter, with pipes on all three streams,
    but for the descriptor ``closed``, if given, which the child starts
    without (as after ``<&-`` or ``>&-`` in a shell)."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "shifttree.cli", *argv], env=env,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        preexec_fn=None if closed is None else lambda: os.close(closed))


@pytest.mark.parametrize("mode", ["list", "count"])
def test_closed_stdout_is_exit_1_without_traceback(mode):
    # the reader is gone before anything is written: the write fails with
    # a broken pipe, reported by exit code 1 alone, and the interpreter's
    # final flush raises nothing either
    with modsum_process("--modulus", "100", "--mode", mode) as proc:
        proc.stdout.close()
        proc.stdin.write(b"3\n5\n")
        proc.stdin.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""


def test_reader_that_stops_early_sees_no_traceback():
    # modsum ... | head -1: the reader takes one line of 32768 and leaves;
    # a write the closed pipe cuts short, or one after it, ends in exit 1
    with modsum_process("--modulus", str(1 << 15)) as proc:
        proc.stdin.write("".join(f"{x}\n" for x in range(1, 301)).encode())
        proc.stdin.close()
        assert proc.stdout.readline() == b"0\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""


@pytest.mark.parametrize("mode", ["list", "count"])
def test_closed_stdin_is_exit_2(mode):
    # a child started with no standard input has sys.stdin None: a usage
    # error, not an AttributeError traceback
    with modsum_process("--modulus", "5", "--mode", mode, closed=0) as proc:
        proc.stdin.close()
        assert proc.wait(timeout=60) == 2
        assert proc.stdout.read() == b""
        assert proc.stderr.read().decode().splitlines() == [
            "error: cannot read stdin: it is closed"]


@pytest.mark.parametrize("mode", ["list", "count"])
def test_started_without_stdout_is_exit_1_without_traceback(mode):
    # a child started with no standard output has sys.stdout None: exit 1
    # and nothing on stderr, as when the reader of its pipe has gone
    with modsum_process("--modulus", "5", "--mode", mode, closed=1) as proc:
        proc.stdin.write(b"2\n3\n")
        proc.stdin.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""


@pytest.mark.parametrize("started_without", [True, False])
def test_bench_without_stdout_is_exit_1_without_traceback(started_without):
    # modsum --bench 100 >&-, or with its reader gone: the CSV has nowhere
    # to go, so exit 1 and nothing on stderr, as in list mode
    with modsum_process("--bench", "100",
                        closed=1 if started_without else None) as proc:
        if not started_without:
            proc.stdout.close()
        proc.stdin.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""


@pytest.mark.parametrize("started_without", [True, False])
def test_stats_without_stderr_is_exit_1(started_without):
    # modsum --mode stats 2>&-, or with the reader of stderr gone: the
    # counters have nowhere to go, so exit 1.  A child started without
    # stderr writes no residues either, as list mode without stdout
    with modsum_process("--modulus", "5", "--mode", "stats",
                        closed=2 if started_without else None) as proc:
        if not started_without:
            proc.stderr.close()
        proc.stdin.write(b"2\n3\n")
        proc.stdin.close()
        assert proc.wait(timeout=60) == 1
        out = proc.stdout.read()
        assert out == (b"" if started_without else b"0\n2\n3\n")
        if started_without:
            assert proc.stderr.read() == b""

"""The pairs runner in ``bench_pairs.py``: its summary, on made-up runs, and
its report of a run that fails, on a stub tree."""
import pytest

from bench_pairs import run_once, summarize


def test_summary_of_made_up_pairs():
    parent = [1.10, 1.00, 1.30, 1.20, 1.40, 1.05, 1.25, 1.15, 1.35, 1.45]
    change = [1.00, 1.10, 1.20, 1.00, 1.30, 1.05, 1.10, 1.10, 1.20, 1.30]
    got = summarize(parent, change, "s")
    # Quartiles by statistics.quantiles' default (exclusive) method: for the
    # sorted parent runs 1.00 ... 1.45 they sit at positions 2.75 and 8.25.
    assert got == {
        "unit": "s",
        "parent": {"median": 1.225, "q1": 1.0875, "q3": 1.3625, "iqr": 0.275},
        "change": {"median": 1.1, "q1": 1.0375, "q3": 1.225, "iqr": 0.1875},
        "change_pct": -10.2,
        "change_lower_in_pairs": "8/10",  # pair 2 went up, pair 6 tied
    }


def test_summary_needs_matching_pairs():
    with pytest.raises(ValueError):
        summarize([1.0, 2.0], [1.0], "s")


def test_failed_run_stops_with_its_pair_side_exit_code_and_stderr_tail(tmp_path):
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        "import sys\n"
        "for i in range(1, 31):\n"
        "    print(f'stderr line {i}', file=sys.stderr)\n"
        "sys.exit(3)\n")
    with pytest.raises(SystemExit) as stopped:
        run_once(tmp_path, "cli-detect", "pair 2 change")
    lines = str(stopped.value.code).splitlines()
    assert lines[0] == "pair 2 change: bench/run.py exited with 3; the last 20 lines of its stderr:"
    assert lines[1:] == [f"stderr line {i}" for i in range(11, 31)]

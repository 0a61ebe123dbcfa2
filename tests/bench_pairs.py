"""Alternating parent/change pairs of one benchmark workload.

    python3 tests/bench_pairs.py --parent HEAD~1 --workload spike-benchmark --pairs 10

Run from the repository root. The parent commit is exported with
``git archive`` into a temporary directory, so the repository's branches,
index and working tree are left alone. ``bench/run.py`` then runs there and
in the working tree in turn, the parent first in odd pairs, for 30 s each
at the held-out seed 104729. Each run's CPU time
(user + system) and minor faults are read with ``getrusage(RUSAGE_CHILDREN)``
around it, so they cover the whole bench process and its import probes.

The record goes to ``BENCH_<workload>.json`` in the layout of
the checked-in records: each side's runs, the median and quartiles of each
end-to-end metric, the pairs the change won, and the process CPU per
elapsed second. The script refuses to run when ``bench/`` or
``BENCHMARK.json`` differ from the parent's, because both sides must run the
same benchmark. Standard library only; pytest does not collect it.
"""
from __future__ import annotations

import argparse
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = ("bench", "BENCHMARK.json")
HELD_OUT_SEED = 104729
SECONDS = 30
STDERR_LINES = 20  # of a failed run, in the report that stops the script
# BENCHMARK.json's end-to-end metrics, each better when lower.
METRICS = ("wall_s", "setup_s", "peak_rss_mb")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True, timeout=60).stdout.strip()


def benchmark_differs(parent: str) -> str | None:
    """What differs between the parent's benchmark and the working tree's,
    or None when they are the same."""
    changed = git("diff", "--name-only", parent, "--", *BENCH_FILES).split()
    changed += git("ls-files", "--others", "--exclude-standard", "--", *BENCH_FILES).split()
    return ", ".join(changed) or None


def export(parent: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", parent], cwd=ROOT,
                             capture_output=True, check=True, timeout=120).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_once(tree: Path, workload: str, label: str) -> tuple[dict, dict]:
    """One ``bench/run.py`` run in ``tree``: its result object, and its CPU
    seconds, elapsed seconds and minor faults. A run that exits non-zero
    stops the script with ``label`` (the pair and side), the exit code and
    the last lines of the run's stderr."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    began = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(HELD_OUT_SEED),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if done.returncode != 0:
        tail = "\n".join(done.stderr.splitlines()[-STDERR_LINES:])
        sys.exit(f"{label}: bench/run.py exited with {done.returncode}; the last {STDERR_LINES} lines "
                 f"of its stderr:\n{tail}")
    elapsed = time.perf_counter() - began
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    usage = {"cpu_s": round(cpu, 3), "elapsed_s": round(elapsed, 3),
             "minor_faults": after.ru_minflt - before.ru_minflt}
    lines = done.stdout.splitlines()
    environment = json.loads(lines[0].removeprefix("environment "))
    return {**json.loads(lines[-1]), "environment": environment}, usage


def _spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": round(statistics.median(values), 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "iqr": round(q3 - q1, 6)}


def summarize(parent: list[float], change: list[float], unit: str) -> dict:
    """Median and quartiles of each side's runs, the change in the medians
    in percent, and in how many pairs the change read lower (ties count for
    neither side). ``parent[i]`` and ``change[i]`` are pair i's runs."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("summarize needs two or more pairs of runs")
    lower = sum(c < p for p, c in zip(parent, change))
    return {
        "unit": unit,
        "parent": _spread(parent),
        "change": _spread(change),
        "change_pct": round(100.0 * (statistics.median(change) / statistics.median(parent) - 1.0), 1),
        "change_lower_in_pairs": f"{lower}/{len(parent)}",
    }


def record(workload: str, commits: dict, runs: dict, usage: dict) -> dict:
    """The BENCH_<workload>.json record of finished pairs: ``runs[side]`` and
    ``usage[side]`` map each pair's number to its result and its usage."""
    first = runs["parent"]["1"]["environment"]
    summary = {}
    for name in METRICS:
        values = {side: [runs[side][k]["metrics"][name]["value"] for k in runs[side]] for side in runs}
        unit = runs["parent"]["1"]["metrics"][name]["unit"]
        summary[name] = summarize(values["parent"], values["change"], unit)
    return {
        "workload": workload,
        "command": f"python3 bench/run.py --workload {workload} --seed {HELD_OUT_SEED} --seconds {SECONDS} "
                   "--trace 0",
        "pairs": f"{len(runs['parent'])} pairs on seed {HELD_OUT_SEED}, parent and change alternating which runs "
                 "first (parent first in odd pairs)",
        "environment": {key: first[key] for key in
                        ("blas", "blas_threads", "held_out_seed", "nproc", "numpy", "python")},
        **{side: {"commit": commits[side],
                  "runs": {k: {key: r[key] for key in ("correct", "attempted", "failed", "metrics")}
                           for k, r in runs[side].items()}}
           for side in ("parent", "change")},
        "summary": summary,
        "process_cpu": {side: {
            "median_cpu_over_elapsed": round(statistics.median(
                u["cpu_s"] / u["elapsed_s"] for u in usage[side].values()), 3),
            "per_pair": usage[side],
        } for side in ("parent", "change")},
        "failed_operations": {side: sum(r["failed"] for r in runs[side].values()) for side in runs},
        "notes": [
            "process_cpu holds, per run, the CPU seconds (user + system), the elapsed seconds and the "
            "minor faults of the whole `bench/run.py` process and its import probes, set-up and "
            "warm-up included, from getrusage(RUSAGE_CHILDREN).",
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    # SIGTERM unwinds like an error: subprocess.run kills the running bench
    # process and the parent's export is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("terminated"))
    differs = benchmark_differs(args.parent)
    if differs:
        sys.exit(f"the benchmark differs from {args.parent}'s ({differs}); both sides must run the same one")
    commits = {"parent": git("rev-parse", args.parent), "change": git("describe", "--always", "--dirty")}
    runs: dict = {"parent": {}, "change": {}}
    usage: dict = {"parent": {}, "change": {}}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        export(args.parent, trees["parent"])
        for pair in range(1, args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                result, used = run_once(trees[side], args.workload, f"pair {pair} {side}")
                runs[side][str(pair)], usage[side][str(pair)] = result, used
                wall = result["metrics"]["wall_s"]["value"]
                print(f"pair {pair} {side:<6} wall_s {wall:.6f} cpu_s {used['cpu_s']:.3f}", flush=True)
    doc = record(args.workload, commits, runs, usage)
    (ROOT / f"BENCH_{args.workload}.json").write_text(json.dumps(doc, indent=1) + "\n")
    for name, row in doc["summary"].items():
        print(f"{name}: {row['parent']['median']} -> {row['change']['median']} ({row['change_pct']:+.1f}%), "
              f"lower in {row['change_lower_in_pairs']}, parent IQR {row['parent']['iqr']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Peak RSS, set-up and run time of a bench workload over checkout path lengths.

    python3 scripts/rss_by_path.py [--workload W] [--seed N] [--lengths N]
                                   [--against PATH] [--tiny]

The worker's ``peak_rss_mb`` steps with the length of the checkout's path
(ROADMAP item 5), so two checkouts at one pair of paths can differ by a
step that is not the code's. This script copies its own checkout's ``src/``,
``bench/`` and ``BENCHMARK.json`` into directories whose names are
1..N characters long, byte-compiles each copy (``python -m compileall -q
src bench``), runs one ``bench/run.py --workload W --seconds 0 --trace 0``
repetition in each, and prints the three end-to-end metrics,
``peak_rss_mb``, ``setup_s`` and ``run_s``, per length, then each
checkout's median and range over the lengths. Compiling first makes
each measured repetition a warm one that loads the compiled modules, as
every repetition of ``bench/run.py`` after its first does; an uncompiled
copy would measure the heap layout of compiling the package from source.

With ``--against PATH`` a second checkout is copied to paths of the same
lengths and run alternately with the first; which one goes first switches
at each length. Each side's summary then gives its quartiles too, and for
each metric the script counts the lengths at which B read lower than A:
the two numbers a claimed gain is judged by, how many pairs it wins and
whether the median gap is wider than the other side's quartile spread.
``--tiny`` runs the workload at its smoke-test size.
Exit status is 1 when any repetition is not ``correct``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("case-study-90d", "day-ahead-cli", "csv-roundtrip")
METRICS = ("peak_rss_mb", "setup_s", "run_s")


def copy_checkout(checkout: Path, dest: Path) -> None:
    """The files a bench run reads: ``src/``, ``bench/``, ``BENCHMARK.json``,
    byte-compiled in place."""
    skip = shutil.ignore_patterns("__pycache__", ".bench_work", ".bench_out")
    for name in ("src", "bench"):
        shutil.copytree(checkout / name, dest / name, ignore=skip)
    shutil.copy2(checkout / "BENCHMARK.json", dest / "BENCHMARK.json")
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", "bench"], cwd=dest, check=True
    )


def run_once(copy: Path, workload: str, seed: int, tiny: bool) -> dict:
    """One untraced repetition: its end-to-end metrics and ``correct``."""
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", "0", "--trace", "0", *(["--tiny"] if tiny else []),
    ]
    proc = subprocess.run(cmd, cwd=copy, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"correct": False, "error": tail}
    result = json.loads(lines[-1])
    out = {name: result["metrics"][name]["value"] for name in METRICS if name in result["metrics"]}
    out["correct"] = result["correct"] and len(out) == len(METRICS)
    return out


def quartiles(values: list[float]) -> tuple[float, float]:
    """Lower and upper quartile, inclusive method; one value is both."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, default="csv-roundtrip")
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--lengths", type=int, default=8, help="name lengths 1..N")
    ap.add_argument("--against", type=Path, help="a second checkout to alternate with")
    ap.add_argument("--tiny", action="store_true", help="smoke-test workload sizes")
    args = ap.parse_args(argv)
    if args.lengths < 1:
        ap.error("--lengths must be >= 1")
    sides = {"A": ROOT}
    if args.against is not None:
        sides["B"] = args.against.resolve()
    for side, checkout in sides.items():
        if not (checkout / "src" / "pvlevels").is_dir():
            ap.error(f"no src/pvlevels under {checkout}")
        print(f"{side} = {checkout}")

    results: dict[str, list[dict]] = {side: [] for side in sides}
    print(f"{args.workload}, seed {args.seed}, one repetition per run")
    print("length " + "".join(f"{side + '.' + name:>14s}" for side in sides for name in METRICS))
    with tempfile.TemporaryDirectory(prefix="rss_by_path") as tmp:
        for length in range(1, args.lengths + 1):
            order = list(sides) if length % 2 else list(reversed(sides))
            for side in order:
                copy = Path(tmp) / side / ("x" * length)
                copy_checkout(sides[side], copy)
                results[side].append(run_once(copy, args.workload, args.seed, args.tiny))
                shutil.rmtree(copy)
            row = [results[side][-1] for side in sides]
            print(f"{length:6d} " + "".join(
                f"{r[name]:14.3f}" if name in r else f"{'failed':>14s}"
                for r in row for name in METRICS
            ))

    status = 0
    for side, runs in results.items():
        for run in runs:
            if not run["correct"]:
                status = 1
                print(f"{side}: a repetition was not correct: {run.get('error', run)}")
        for name in METRICS:
            values = [run[name] for run in runs if name in run]
            if values:
                q1, q3 = quartiles(values)
                print(f"{side} {name}: median {statistics.median(values):.3f}, "
                      f"quartiles {q1:.3f}-{q3:.3f}, "
                      f"range {min(values):.3f}-{max(values):.3f} over {len(values)} lengths")
    if "B" in results:
        for name in METRICS:
            pairs = [(a[name], b[name]) for a, b in zip(results["A"], results["B"])
                     if name in a and name in b]
            lower = sum(b < a for a, b in pairs)
            print(f"B lower than A on {name}: {lower} of {len(pairs)} lengths")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

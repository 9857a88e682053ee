"""Benchmark runner for pvlevels.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seconds S] [--seed N]

Run from the root of a checkout. Repetitions of the workload run one
after another, each in a fresh single Python process with BLAS and
OpenMP pinned to one thread, for as many as fit in ``--seconds`` (at
least one; two with ``--trace 1``). The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. End-to-end times are scaled to a reference
machine speed by a fixed probe timed in each repetition's process (see
README.md). The line before it records the environment,
the output digest and the accuracy of the forecasts. With ``--trace 1``
repetitions alternate between untraced and traced, and the spans of the
traced ones are written to ``.bench_out/``.

``--all`` runs every workload untraced and traced, prints every metric
with its unit, and rewrites ``BENCHMARK.json`` from ``spec.py``.

Exit status is 0 only when every operation succeeded and every output
check passed; 2 when the checkout holds no ``src/pvlevels``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spec import DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS, benchmark_json  # noqa: E402
from worker import THREAD_VARS  # noqa: E402

#: A repetition that takes longer than this is killed and counted failed.
REP_TIMEOUT_S = 170.0

#: The probe's time at the reference speed (its typical time on the 2-vCPU
#: sandbox the bounds were set on). Times are reported at this speed.
PROBE_REF_S = 0.16


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read without running git; "" outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return ""


def _spawn(root: Path, workload: str, seed: int, size: str, work: Path,
           spans: Path | None, run_id: str) -> tuple[dict | None, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--root", str(root), "--workload", workload, "--seed", str(seed),
        "--size", size, "--work", str(work), "--run-id", run_id,
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=REP_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return None, f"repetition exceeded {REP_TIMEOUT_S:.0f} s"
    lines = proc.stdout.strip().splitlines()
    stderr_tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
    if proc.returncode != 0 or not lines:
        return None, stderr_tail
    rep = json.loads(lines[-1])
    return rep, stderr_tail if rep["failed"] else ""


def expected_counts(workload: str, rows: int) -> dict[str, float]:
    """Layer counts one repetition must show, from the number of weather rows.

    Every workload runs four cases per row with one attempt per case and
    a committee of three. ``pipeline.compare_cases`` shares baselines and
    fit models across the cases of a row; ``pvlevels forecast`` shares
    nothing. A binding that ``instrument`` missed shows up here.
    """
    if workload == "day-ahead-cli":
        fits, baselines = 6, 12
    else:
        fits, baselines = 3 * rows, 3 * rows
    return {
        "pipeline.run_case_n": 4 * rows,
        "pipeline.attempts": 3 * rows,
        "narnet.train.fit.calls": fits,
        "narnet.train.baseline.calls": baselines,
        "narnet.train.narx.calls": 9 * rows,
    }


def run_workload(root: Path, workload: str, seed: int, seconds: float,
                 trace: bool, size: str = "full") -> tuple[dict, dict]:
    """Repeat one workload for ``seconds``; returns (info, result)."""
    work_root = root / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    out_dir = root / ".bench_out"
    reps: list[dict] = []
    errors: list[str] = []
    attempted = failed = 0
    durations: list[float] = []
    start = time.monotonic()
    try:
        while True:
            k = len(reps)
            traced = trace and k % 2 == 1
            spans = out_dir / f"spans-{workload}-{seed}-{k}.jsonl" if traced else None
            if spans is not None:
                out_dir.mkdir(exist_ok=True)
            began = time.monotonic()
            rep, error = _spawn(
                root, workload, seed, size, work_root / str(k), spans,
                f"{workload}/{seed}/{k}",
            )
            durations.append(time.monotonic() - began)
            if error:
                errors.append(error)
            if rep is None:
                attempted += 1
                failed += 1
                break
            rep["traced"] = traced
            reps.append(rep)
            # start no repetition that would end after the budget, once
            # there is one of each kind the metrics need
            enough = len(reps) >= (2 if trace else 1)
            projected = time.monotonic() - start + statistics.median(durations)
            if enough and projected > seconds:
                break
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    for rep in reps:
        attempted += rep["attempted"]
        failed += rep["failed"]
    digest = reps[0]["digest"] if reps else ""
    mismatched = sum(1 for rep in reps if rep["digest"] != digest)
    failed += mismatched
    if mismatched:
        errors.append(f"{mismatched} repetitions changed the output digest")
    if reps and not digest:
        errors.append("no output digest")

    first = reps[0] if reps else {"case2_mape": [], "case2_target_met": []}
    mapes = first["case2_mape"]
    if reps and not (mapes and all(math.isfinite(m) and m > 0 for m in mapes)):
        errors.append(f"case-2 MAPE values {mapes} are not finite and positive")
    mape_case2 = statistics.fmean(mapes) if mapes else 0.0
    met = first["case2_target_met"]
    target_met_frac = sum(met) / len(met) if met else 0.0

    plain = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    metrics: dict[str, dict] = {}
    if not trace and plain:
        # each repetition's times, scaled by how far the probe timed in the
        # same process fell from its reference time
        values = {
            "setup_s": statistics.median(
                t * PROBE_REF_S / r["probe_s"] for r in plain for t in r["setup_s"]
            ),
            "run_s": statistics.median(r["run_s"] * PROBE_REF_S / r["probe_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in END_TO_END}
    elif trace and plain and traced_reps:
        layers = {
            name: statistics.median(r["layers"][name] for r in traced_reps)
            for name in traced_reps[0]["layers"]
        }
        layers["pipeline.mape_case2"] = mape_case2
        layers["pipeline.target_met_frac"] = target_met_frac
        layers["trace.overhead_s"] = statistics.median(
            r["run_s"] for r in traced_reps
        ) - statistics.median(r["run_s"] for r in plain)
        for name, want in expected_counts(workload, len(mapes)).items():
            got = [r["layers"][name] for r in traced_reps]
            if any(g != want for g in got):
                errors.append(f"{name} is {got}, expected {want}")
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in PER_LAYER}

    correct = bool(reps) and not errors and failed == 0 and bool(metrics)
    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "size": size,
        "repetitions": len(reps),
        "traced_repetitions": len(traced_reps),
        "run_s_each": [r["run_s"] for r in reps],
        "probe_s_each": [r["probe_s"] for r in reps],
        "digest": digest,
        "fail_frac": failed / attempted if attempted else 1.0,
        "mape_case2": mape_case2,
        "target_met_frac": target_met_frac,
        "errors": errors,
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            **(reps[0]["env"] if reps else {}),
            **{var: "1" for var in THREAD_VARS},
            "git_commit": _git_commit(root),
        },
    }
    result = {
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
    }
    return info, result


def _run_all(root: Path, seed: int, seconds: float) -> int:
    status = 0
    for workload in (w["name"] for w in WORKLOADS):
        for trace in (False, True):
            info, result = run_workload(root, workload, seed, seconds, trace)
            for name, metric in result["metrics"].items():
                print(f"{workload:15s} {name:36s} {metric['value']:.6g} {metric['unit']}")
            print(f"{workload:15s} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"digest={info['digest'][:16]}")
            for error in info["errors"]:
                print(f"{workload:15s} error: {error}")
            status |= not result["correct"]
    (root / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    print("wrote BENCHMARK.json")
    return int(status)


def main(argv: list[str]) -> int:
    names = [w["name"] for w in WORKLOADS]
    parser = argparse.ArgumentParser(description="pvlevels benchmark")
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("--workload or --all is required")

    root = Path.cwd().resolve()
    if not (root / "src" / "pvlevels" / "__init__.py").is_file():
        print(f"error: no src/pvlevels under {root}; run from a pvlevels checkout",
              file=sys.stderr)
        return 2
    if args.all:
        return _run_all(root, args.seed, args.seconds)
    info, result = run_workload(
        root, args.workload, args.seed, args.seconds, bool(args.trace),
        "tiny" if args.tiny else "full",
    )
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

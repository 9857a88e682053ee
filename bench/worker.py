"""One repetition of one workload, in a fresh process.

Started by ``run.py``; not meant to be run by hand. It refuses to start
unless the BLAS and OpenMP thread variables are already 1, because they
only take effect if set before numpy is imported. It imports
``pvlevels`` from ``src/`` of the checkout it is given, runs the
workload between two timings of a fixed probe, and prints one JSON
object on its last line of output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def probe(np) -> float:
    """Seconds for a fixed mix of small-matrix numpy and interpreter work.

    The mix resembles the package's: one training step of a 9-input,
    3-hidden net on 700 rows, and formatting and parsing CSV-like text.
    Its code never changes, so its time tracks only the machine's speed.
    """
    t0 = time.perf_counter()
    X = np.linspace(-1.0, 1.0, 700 * 9).reshape(700, 9)
    W = np.linspace(-0.5, 0.5, 27).reshape(3, 9)
    v = np.linspace(0.0, 1.0, 3)
    for _ in range(900):
        a = np.tanh(X @ W.T + 0.1)
        r = a @ v - 0.5
        gz = np.outer(r, v) * (1.0 - a * a)
        W = W - 1e-6 * (gz.T @ X)
    rows = [f"2023-03-01T{i % 24:02d}:00:00Z,{i * 0.37:.17g}" for i in range(45000)]
    total = sum(float(row.split(",")[1]) for row in rows)
    if not (np.isfinite(W).all() and total > 0):
        raise RuntimeError("probe arithmetic went wrong")
    return time.perf_counter() - t0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--spans", type=Path, help="trace and write spans here")
    parser.add_argument("--run-id", default="")
    args = parser.parse_args(argv)

    unpinned = [v for v in THREAD_VARS if os.environ.get(v) != "1"]
    if unpinned:
        print(f"error: {', '.join(unpinned)} must be 1 before numpy loads", file=sys.stderr)
        return 2
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import numpy as np
    import pvlevels as pv
    import pvlevels.cli  # noqa: F401  (not imported by the package itself)

    if Path(pv.__file__).resolve().parent != root / "src" / "pvlevels":
        print(f"error: imported pvlevels from {pv.__file__}", file=sys.stderr)
        return 2
    from tracing import NullTracer, Tracer, instrument, layer_metrics
    from workloads import RUNNERS, SIZES

    size = dict(SIZES[args.workload][args.size])
    if args.spans is not None:
        tracer = Tracer(args.run_id)
        instrument(tracer, pv)
        # one set-up per traced repetition, so the set-up layers count once
        size["setup_repeats"] = 1
    else:
        tracer = NullTracer()
    args.work.mkdir(parents=True, exist_ok=True)
    before = probe(np)
    rep = RUNNERS[args.workload](pv, args.seed, size, tracer, args.work)
    after = probe(np)
    out = asdict(rep)
    out["probe_s"] = (before + after) / 2.0
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out["env"] = {
        "numpy": np.__version__,
        "blas": blas.get("name", ""),
        "blas_version": blas.get("version", ""),
    }
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.spans is not None:
        out["layers"] = layer_metrics(tracer.spans, rep.narx_committee)
        with open(args.spans, "w", encoding="ascii") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

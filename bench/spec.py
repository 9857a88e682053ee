"""Names, units and bounds of the benchmark; the source of BENCHMARK.json."""

from __future__ import annotations

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
RUN_SECONDS = 36
DEFAULT_SEED = 101

WORKLOADS = [
    {
        "name": "case-study-90d",
        "why": "criterion 6's comparison in-process: 3x3 nets on ~600-row batches, "
        "so the per-epoch overhead of narnet.train carries the time",
    },
    {
        "name": "day-ahead-cli",
        "why": "pvlevels forecast, all four cases, on a 75-day CSV: 6x6 nets, and "
        "no training shared across cases, so a caching change shows here",
    },
    {
        "name": "csv-roundtrip",
        "why": "pvlevels synth then cases on a two-year CSV with a 60-epoch budget: "
        "CSV write and read, clearsky, preprocess and day classification dominate",
    },
]

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
]


def _layer(name: str, unit: str, better: str = "lower") -> dict:
    return {"name": name, "unit": unit, "better": better}


PER_LAYER = [
    _layer("synth.s", "s"),
    _layer("clearsky.s", "s"),
    _layer("clearsky.hours", "h"),
    _layer("cli.write_csv_s", "s"),
    _layer("cli.write_rows", "count"),
    _layer("cli.load_csv_s", "s"),
    _layer("cli.load_rows", "count"),
    _layer("preprocess.s", "s"),
    _layer("preprocess.calls", "count"),
    *[
        _layer(f"narnet.train.{role}.{what}", unit)
        for role in ("fit", "baseline", "narx")
        for what, unit in (("s", "s"), ("calls", "count"), ("epochs", "count"),
                           ("us_per_epoch", "us"))
    ],
    _layer("narnet.epoch_use", "ratio"),
    _layer("narnet.closed_loop.s", "s"),
    _layer("narnet.closed_loop.steps", "count"),
    _layer("pipeline.attempts", "count"),
    _layer("pipeline.attempts_per_forecast", "ratio"),
    _layer("pipeline.attempt_hit_ratio", "ratio", "higher"),
    _layer("pipeline.fit_reuse_ratio", "ratio", "higher"),
    _layer("pipeline.baseline_trains", "count"),
    _layer("pipeline.run_case_p50_s", "s"),
    _layer("pipeline.run_case_n", "count", "higher"),
    _layer("pipeline.self_s", "s"),
    _layer("pipeline.mape_case2", "fraction"),
    _layer("pipeline.target_met_frac", "fraction", "higher"),
    _layer("metrics.s", "s"),
    _layer("metrics.calls", "count"),
    _layer("trace.overhead_s", "s"),
]


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }

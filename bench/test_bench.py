"""Smoke test of the benchmark: every workload once, at a tiny size.

Run from the root of the checkout:

    python3 -m pytest -q bench/test_bench.py

It checks that each workload emits every named metric with its unit,
that traced and untraced repetitions give the same output digest, that
the case study leaves out days no MAPE can score and has a row per
weather class, that
``BENCHMARK.json`` matches ``spec.py``, that the runner refuses a
directory without the package, and that tracing counts the trains and
epochs of criterion 6's first pinned comparison exactly.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spec import END_TO_END, PER_LAYER, WORKLOADS, benchmark_json  # noqa: E402
from worker import THREAD_VARS  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _bench(cwd: Path, *args: str) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", [w["name"] for w in WORKLOADS])
def test_workload_emits_every_metric(workload):
    digests = []
    for trace, wanted in (("0", END_TO_END), ("1", PER_LAYER)):
        code, lines = _bench(
            ROOT, "--workload", workload, "--seed", "101", "--seconds", "0",
            "--trace", trace, "--tiny",
        )
        info = json.loads(lines[-2])["info"]
        result = json.loads(lines[-1])
        assert code == 0, info["errors"]
        assert set(result) == RESULT_KEYS
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {m["name"]: m["unit"] for m in wanted} == {
            name: metric["unit"] for name, metric in result["metrics"].items()
        }
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        if trace == "1":
            assert info["traced_repetitions"] >= 1
        digests.append(info["digest"])
    assert digests[0] and digests[0] == digests[1]


def test_benchmark_json_matches_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == benchmark_json()


def test_refuses_checkout_without_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = _bench(tmp_path, "--workload", WORKLOADS[0]["name"], "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def _case_study_data(seed: int):
    """The case study's inputs for ``seed``, with a 20-epoch budget."""
    sys.path.insert(0, str(ROOT / "src"))
    import pvlevels as pv
    from workloads import SIZES, case_study_configs, valid_forecast_days

    size = dict(SIZES["case-study-90d"]["full"], max_epochs=20)
    scfg, pcfg = case_study_configs(pv, seed, size)
    dataset, profile = pv.gen_dataset(scfg, pv.DEFAULT_SITE)
    valid = valid_forecast_days(dataset.start, dataset.n, dataset.site.tz_offset)
    return pv, size, pcfg, dataset, profile, valid


def test_unscorable_days_left_out():
    """Seed 54 has a candidate day on which some level's MAPE is undefined.

    The workload leaves it out, and the pipeline accepts the days left.
    """
    from workloads import scorable_days

    pv, size, pcfg, dataset, profile, valid = _case_study_data(54)
    days = valid[-size["candidate_days"] :]
    kept = scorable_days(pv, dataset, profile, pcfg, days)
    assert 0 < len(kept) < len(days)
    with pytest.raises(pv.AllExcluded):
        pv.compare_cases(dataset, profile, days, pcfg)
    assert pv.compare_cases(dataset, profile, kept, pcfg).rows


def test_candidates_hold_every_weather_class():
    """Seed 17's last 18 valid days hold no sunny day.

    The candidate window grows until one is in, so the comparison has a
    row per weather class.
    """
    from workloads import case_study_days, day_weather

    pv, size, pcfg, dataset, profile, valid = _case_study_data(17)
    last = valid[-size["candidate_days"] :]
    assert len(set(day_weather(pv, dataset, profile, pcfg, last).values())) == 2
    days = case_study_days(pv, dataset, profile, pcfg, size)
    assert days[0] < last[0]
    assert len(pv.compare_cases(dataset, profile, days, pcfg).rows) == 3


def _pinned_counts() -> dict:
    """Traced compare_cases on criterion 6's first pinned run, 5 attempts."""
    from datetime import date
    from dataclasses import replace

    sys.path.insert(0, str(ROOT / "src"))
    import pvlevels as pv
    import pvlevels.cli  # noqa: F401
    from tracing import Tracer, instrument, layer_metrics
    from workloads import SIZES, case_study_configs

    tracer = Tracer("pinned")
    instrument(tracer, pv)
    # criterion 6's own budgets: 2000 epochs, five attempts
    size = dict(SIZES["case-study-90d"]["full"], max_epochs=2000)
    scfg, pcfg = case_study_configs(pv, 101, size)
    pcfg = replace(pcfg, max_retries=5)
    dataset, profile = pv.gen_dataset(scfg, pv.DEFAULT_SITE)
    days = [date(2023, 4, 22), date(2023, 5, 2), date(2023, 5, 15)]
    pv.compare_cases(dataset, profile, days, pcfg)
    layers = layer_metrics(tracer.spans, pcfg.narx_committee)
    roles = ("fit", "baseline", "narx")
    return {
        "trains": sum(layers[f"narnet.train.{r}.calls"] for r in roles),
        "epochs": sum(layers[f"narnet.train.{r}.epochs"] for r in roles),
    }


def test_trace_counts_pinned_comparison():
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, __file__, "pinned"], env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {
        "trains": 63, "epochs": 126000,
    }


if __name__ == "__main__" and sys.argv[1:] == ["pinned"]:
    print(json.dumps(_pinned_counts()))

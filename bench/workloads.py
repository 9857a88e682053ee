"""The three benchmark workloads, driven through the package's public surface.

Each repetition runs in a fresh process (see ``worker.py``) and does:

* set-up, ``setup_repeats`` times: the dataset and clear-sky profile are
  brought into memory. In-process that is ``gen_dataset``; on the CLI
  workloads it is ``pvlevels synth`` (generate + write the CSV) followed
  by the consumer command up to the point where ``load_csv`` and
  ``clearsky_profile`` have returned. All but the last consumer command
  are stopped at that point, so every set-up sample times the same code.
* the run: from the end of set-up until every output exists.

The workload seed is the only source of variation; the package sees only
the generated inputs. Every workload caps the retry loop at one attempt:
the number of attempts otherwise depends on the seed (9 to 28 NARX
attempts for criterion 6's config over seeds 1-6, 8 and 101), which would
make the time to a solution a property of the seed rather than of the
code.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from importlib import import_module
from pathlib import Path


def pipeline_seed(seed: int) -> int:
    """The pipeline seed paired with a synth seed (101 -> 11, 103 -> 13)."""
    return 10 + seed % 100


# ------------------------------------------------------------ sizes

#: Full and smoke-test sizes of each workload's knobs.
SIZES = {
    "case-study-90d": {
        "full": {"days": 90, "n_customers": 72, "n_feeders": 36,
                 "max_epochs": 500, "candidate_days": 18,
                 "max_candidate_days": 36, "setup_repeats": 3},
        "tiny": {"days": 45, "n_customers": 8, "n_feeders": 4,
                 "max_epochs": 20, "candidate_days": 6,
                 "max_candidate_days": 12, "setup_repeats": 2},
    },
    "day-ahead-cli": {
        "full": {"days": 75, "n_customers": 72, "n_feeders": 36,
                 "net": {"net.max_epochs": 500}, "setup_repeats": 2},
        "tiny": {"days": 45, "n_customers": 8, "n_feeders": 4,
                 "net": {"net.delay_d": 3, "net.hidden_width": 3,
                         "net.max_epochs": 20}, "setup_repeats": 2},
    },
    "csv-roundtrip": {
        "full": {"days": 730, "case_days": 30, "setup_repeats": 1},
        "tiny": {"days": 60, "case_days": 4, "setup_repeats": 2},
    },
}


@dataclass
class RepResult:
    """What one repetition measured and produced."""

    setup_s: list[float]
    run_s: float
    digest: str
    attempted: int
    failed: int
    case2_mape: list[float]
    case2_target_met: list[bool]
    #: NARX nets trained per attempt, to turn train counts into attempts
    narx_committee: int = 3


def _g(x) -> str:
    return "" if x is None else f"{x:.17g}"


# ------------------------------------------------------- case-study-90d


def _mixed_schedule(pv, days: int) -> tuple:
    # criterion 6's schedule: six-day blocks cycling sunny, partly, cloudy
    cycle = (pv.Weather.SUNNY, pv.Weather.PARTLY_CLOUDY, pv.Weather.CLOUDY)
    return tuple(cycle[(k // 6) % 3] for k in range(days))


def case_study_configs(pv, seed: int, size: dict):
    """Criterion 6's synth and pipeline configs, retry loop capped at one."""
    scfg = pv.SynthConfig(
        days=size["days"],
        n_customers=size["n_customers"],
        n_feeders=size["n_feeders"],
        seed=seed,
        meter_noise_sd=0.02,
        shared_fraction=0.0,
        ar_rho=0.3,
        shared_drift_sd=0.23,
        shared_drift_rho=0.995,
        sigma_sunny=0.2,
        sigma_cloudy=0.15,
        sigma_partly=0.2,
        regime_schedule=_mixed_schedule(pv, size["days"]),
    )
    net = pv.NetworkConfig(
        delay_d=3,
        hidden_width=3,
        max_epochs=size["max_epochs"],
        step_size=0.005,
        early_stop_patience=200,
    )
    pcfg = pv.PipelineConfig(
        seed=pipeline_seed(seed),
        capacity_fractions=pv.capacity_fractions(scfg),
        epsilon_fraction=0.05,
        day_threshold_fraction=0.10,
        max_retries=1,
        narx_committee=3,
        cloudy_threshold=0.5,
        fit_net=net,
        narx_net=net,
        baseline_net=net,
    )
    return scfg, pcfg


def valid_forecast_days(start: datetime, n_hours: int, tz_offset: float) -> list[date]:
    """Site-local days whose window has 30 days of history and fits the data.

    The same rule ``pvlevels cases`` applies to its candidate days.
    """
    first_local = (start + timedelta(hours=tz_offset)).date()
    days = []
    for k in range(n_hours // 24 + 2):
        day = first_local + timedelta(days=k)
        i0, rem = _day_offset(start, tz_offset, day)
        if rem == 0 and 30 * 24 <= i0 and i0 + 24 <= n_hours:
            days.append(day)
    return days


def _day_offset(start: datetime, tz_offset: float, day: date) -> tuple[int, int]:
    """Hours from ``start`` to the site-local midnight of ``day``, and the
    seconds left over."""
    w0 = datetime(day.year, day.month, day.day, tzinfo=timezone.utc) - timedelta(
        hours=tz_offset
    )
    return divmod(int((w0 - start).total_seconds()), 3600)


def _day_mask(profile, config):
    """The hours ``compare_cases`` counts as day hours."""
    threshold = config.day_threshold_fraction * float(profile.power_kw.max())
    return profile.power_kw >= threshold


def scorable_days(pv, dataset, profile, config, days: list[date]) -> list[date]:
    """The days of ``days`` on which every level's MAPE is defined.

    A MAPE leaves out the day hours whose actual value is below the floor,
    ``epsilon_fraction`` of the level's share of the AC rating. A day on
    which some level has no hour at or above it cannot be scored: the
    pipeline raises ``AllExcluded`` and the whole comparison stops (ROADMAP
    open item 4 makes it a skipped row instead). About one seed in twelve
    of the mixed-regime data has such a day among its last 18, so it is
    left out of the candidates here, by the pipeline's own day mask and
    floor.
    """
    mask = _day_mask(profile, config)
    floors = {
        level: config.epsilon_fraction * dataset.site.ac_rating_kw * config.fraction(level)
        for level in pv.MeasurementLevel
    }
    kept = []
    for day in days:
        i0, _ = _day_offset(dataset.start, dataset.site.tz_offset, day)
        day_mask = mask[i0 : i0 + 24]
        actual = {level: dataset.series(level).values[i0 : i0 + 24][day_mask] for level in floors}
        if all(any(v >= floor and v != 0.0 for v in actual[level])
               for level, floor in floors.items()):
            kept.append(day)
    return kept


def day_weather(pv, dataset, profile, config, days: list[date]) -> dict:
    """Each day's weather class, classified as ``compare_cases`` does.

    Calls the definitions, not the ``pipeline`` bindings that tracing
    wraps, so a traced repetition counts no extra preprocessing. (The
    package's ``preprocess`` attribute is the function, not the module.)
    """
    normalize_and_mask = import_module(f"{pv.__name__}.preprocess").normalize_and_mask
    mask = _day_mask(profile, config)
    target = dataset.series(config.target_level)
    target_profile = profile.scaled(config.fraction(config.target_level))
    weather = {}
    for day in days:
        i0, _ = _day_offset(dataset.start, dataset.site.tz_offset, day)
        measured = normalize_and_mask(
            target.sliced(i0, i0 + 24),
            target_profile.sliced(i0, i0 + 24),
            kappa_max=config.kappa_max,
            day_mask=mask[i0 : i0 + 24],
        )
        weather[day] = pv.pipeline.classify_weather_day(
            measured.index_values, config.sunny_threshold, config.cloudy_threshold
        )
    return weather


def case_study_days(pv, dataset, profile, config, size: dict) -> list[date]:
    """The candidate days handed to ``compare_cases``.

    The last ``candidate_days`` valid days (one sunny/partly/cloudy cycle
    of the schedule) that can be scored. The site drift can make a whole
    cycle measure without a sunny or without a partly cloudy day (about
    one seed in eight). ``compare_cases`` would then return two rows
    instead of the paper's three, a third less work, which would make the
    run time a property of the seed. So the days of a class missing from
    the cycle are taken from the ``max_candidate_days`` before, and only
    those: the other classes keep the days they had.
    """
    valid = valid_forecast_days(dataset.start, dataset.n, dataset.site.tz_offset)
    days = scorable_days(pv, dataset, profile, config, valid[-size["max_candidate_days"] :])
    weather = day_weather(pv, dataset, profile, config, days)
    first = valid[-size["candidate_days"]]
    present = {weather[d] for d in days if d >= first}
    return [d for d in days if d >= first or weather[d] not in present]


def comparison_digest(comparison) -> str:
    """sha256 of every number a CaseComparison carries, at %.17g."""
    h = hashlib.sha256()
    for row in comparison.rows:
        h.update(
            f"{row.weather.label},{row.forecast_day.isoformat()},"
            f"{_g(row.case1_min_mape)},{_g(row.case2_mape)},"
            f"{_g(row.case3_mape)},{_g(row.case4_mape)}\n".encode()
        )
        for cid, result in row.results.items():
            reports = (
                [result.report]
                if result.report is not None
                else [result.per_level_reports[lv] for lv in sorted(result.per_level_reports, key=int)]
            )
            h.update(f"{cid.label},{result.seed}\n".encode())
            h.update(",".join(_g(v) for v in result.forecast.values).encode())
            for rep in reports:
                h.update(
                    f"\n{_g(rep.mape)},{_g(rep.rmse)},{_g(rep.r_squared)},"
                    f"{rep.n_excluded}".encode()
                )
            if result.level_errors is not None:
                e = result.level_errors
                h.update(
                    f"\n{_g(e.e_c)},{_g(e.e_f)},{_g(e.e_s)},{_g(e.e_n)},"
                    f"{int(e.target_met)}\n".encode()
                )
    for weather in comparison.missing_classes:
        h.update(f"missing {weather.label}\n".encode())
    return h.hexdigest()


def _count_calls(module, attr: str, counter: dict) -> None:
    """Count calls (and raising calls) through ``module.attr``."""
    original = getattr(module, attr)

    def counted(*args, **kwargs):
        counter["attempted"] += 1
        try:
            return original(*args, **kwargs)
        except Exception:
            counter["failed"] += 1
            raise

    setattr(module, attr, counted)


def run_case_study(pv, seed: int, size: dict, tracer, work_dir: Path) -> RepResult:
    scfg, pcfg = case_study_configs(pv, seed, size)
    ops = {"attempted": 0, "failed": 0}
    _count_calls(pv.pipeline, "run_case", ops)
    setup_s = []
    for _ in range(size["setup_repeats"]):
        t0 = time.perf_counter()
        with tracer.span("setup"), tracer.span("synth"):
            dataset, profile = pv.gen_dataset(scfg, pv.DEFAULT_SITE)
        setup_s.append(time.perf_counter() - t0)
    candidates = case_study_days(pv, dataset, profile, pcfg, size)
    t0 = time.perf_counter()
    try:
        with tracer.span("run"), tracer.span("pipeline.compare_cases"):
            comparison = pv.compare_cases(dataset, profile, candidates, pcfg)
    except pv.PvlevelsError:
        return RepResult(setup_s, time.perf_counter() - t0, "", max(1, ops["attempted"]),
                         max(1, ops["failed"]), [], [])
    run_s = time.perf_counter() - t0
    case2 = [row.results[pv.CaseStudy.CASE2] for row in comparison.rows]
    return RepResult(
        setup_s=setup_s,
        run_s=run_s,
        digest=comparison_digest(comparison),
        attempted=ops["attempted"],
        failed=ops["failed"],
        case2_mape=[r.report.mape for r in case2],
        case2_target_met=[r.level_errors.target_met for r in case2],
    )


# ---------------------------------------------------------- CLI workloads


class _SetupDone(Exception):
    """Stops a consumer command once its data is in memory.

    Not a PvlevelsError, so ``cmd_dispatch`` lets it through.
    """


class _SetupMark:
    """Marks the end of set-up inside a CLI command.

    Wraps ``cli._profile_for``, the call that follows ``load_csv`` in
    every consumer command, and records when it returns.
    """

    def __init__(self, cli) -> None:
        self.when = None
        self.stop = False
        original = cli._profile_for

        def marked(*args, **kwargs):
            profile = original(*args, **kwargs)
            self.when = time.perf_counter()
            if self.stop:
                raise _SetupDone
            return profile

        cli._profile_for = marked


def _config_text(values: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in values.items())


def _dir_digest(*dirs: Path) -> str:
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(d.iterdir()):
            if path.name == "run.cfg":
                continue
            h.update(f"{d.name}/{path.name}\n".encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _read_csv(path: Path) -> list[dict]:
    lines = path.read_text(encoding="ascii").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _run_cli(pv, work_dir: Path, synth_values: dict, run_values: dict,
             consumer: list[str], setup_repeats: int, tracer) -> tuple:
    """``synth`` then ``consumer`` through cmd_dispatch; returns timings.

    The consumer reads the config that ``synth`` wrote (with its
    capacity fractions) plus ``run_values``.
    """
    cli = pv.cli
    data_dir = work_dir / "data"
    out_dir = work_dir / "out"
    synth_cfg = work_dir / "synth.cfg"
    synth_cfg.write_text(_config_text(synth_values), encoding="ascii")
    mark = _SetupMark(cli)
    commands = 0
    failed = 0
    setup_s = []
    run_s = 0.0
    for k in range(setup_repeats):
        last = k == setup_repeats - 1
        t0 = time.perf_counter()
        with tracer.span("setup"):
            rc = cli.cmd_dispatch(["--config", str(synth_cfg), "--out", str(data_dir), "synth"])
        t1 = time.perf_counter()
        commands += 1
        failed += rc != 0
        if rc != 0:
            return setup_s, run_s, commands, failed, data_dir, out_dir
        run_cfg = data_dir / "run.cfg"
        run_cfg.write_text(
            (data_dir / "dataset_config.txt").read_text(encoding="ascii")
            + _config_text(run_values),
            encoding="ascii",
        )
        mark.when = None
        mark.stop = not last
        argv = ["--config", str(run_cfg), "--out", str(out_dir), *consumer]
        t2 = time.perf_counter()
        with tracer.span("run" if last else "setup"):
            try:
                rc = cli.cmd_dispatch(argv)
            except _SetupDone:
                rc = 0
        t3 = time.perf_counter()
        if mark.when is None:
            # the command failed before its data was in memory
            return setup_s, run_s, commands + 1, failed + 1, data_dir, out_dir
        setup_s.append((t1 - t0) + (mark.when - t2))
        if last:
            commands += 1
            failed += rc != 0
            run_s = t3 - mark.when
    return setup_s, run_s, commands, failed, data_dir, out_dir


def run_day_ahead(pv, seed: int, size: dict, tracer, work_dir: Path) -> RepResult:
    start = pv.SynthConfig().start_utc
    day = valid_forecast_days(start, size["days"] * 24, pv.DEFAULT_SITE.tz_offset)[-1]
    # one attempt per case: the evening before, the forecast day's actuals
    # that the retry loop compares against do not exist yet
    synth_values = {
        "synth.n_customers": size["n_customers"],
        "synth.n_feeders": size["n_feeders"],
        "synth.days": size["days"],
        "seed": seed,
    }
    run_values = {"pipeline.max_retries": 1, **size["net"]}
    setup_s, run_s, commands, failed, data_dir, out_dir = _run_cli(
        pv, work_dir, synth_values, run_values,
        ["forecast", "--day", day.isoformat()], size["setup_repeats"], tracer,
    )
    if failed:
        return RepResult(setup_s, run_s, "", commands, failed, [], [])
    rows = _read_csv(out_dir / "forecast_summary_full.csv")
    case2 = next(r for r in rows if r["case"] == "case2")
    return RepResult(
        setup_s=setup_s,
        run_s=run_s,
        digest=_dir_digest(data_dir, out_dir),
        attempted=commands,
        failed=failed,
        case2_mape=[float(case2["mape"])],
        case2_target_met=[case2["target_met"] == "1"],
    )


def run_csv_roundtrip(pv, seed: int, size: dict, tracer, work_dir: Path) -> RepResult:
    # criterion 8's config, scaled from 40 days to a multi-year span
    synth_values = {
        "synth.n_customers": 4,
        "synth.n_feeders": 2,
        "synth.days": size["days"],
        "seed": seed,
    }
    run_values = {
        "net.delay_d": 3,
        "net.hidden_width": 3,
        "net.max_epochs": 60,
        "net.patience": 15,
        "pipeline.max_retries": 1,
    }
    setup_s, run_s, commands, failed, data_dir, out_dir = _run_cli(
        pv, work_dir, synth_values, run_values,
        ["cases", "--days", str(size["case_days"])], size["setup_repeats"], tracer,
    )
    if failed:
        return RepResult(setup_s, run_s, "", commands, failed, [], [])
    rows = _read_csv(out_dir / "cases_full.csv")
    return RepResult(
        setup_s=setup_s,
        run_s=run_s,
        digest=_dir_digest(data_dir, out_dir),
        attempted=commands,
        failed=failed,
        case2_mape=[float(r["case2_mape"]) for r in rows],
        case2_target_met=[r["case2_target_met"] == "1" for r in rows],
    )


RUNNERS = {
    "case-study-90d": run_case_study,
    "day-ahead-cli": run_day_ahead,
    "csv-roundtrip": run_csv_roundtrip,
}


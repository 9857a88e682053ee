"""Command-line surface: data files in, forecasts and metric tables out.

Subcommands:

    clearsky    simulated clear-sky profile as CSV
    synth       generate a synthetic multi-level dataset
    preprocess  clear-sky-index series for each level
    fit         per-level fitting-model quality table
    forecast    one day's actual-vs-forecast series and scores per case
    cases       weather-by-case MAPE comparison table

Global flags: --config PATH (key = value file, all keys optional),
--seed U64 (overrides the configured seed), --out DIR (output directory;
required by every command but clearsky, which prints to stdout without
it), --trim-to-overlap
(clip loaded series to their common time range instead of failing).

Exit codes: 0 success, 1 runtime/data error, 2 usage or configuration
error. Diagnostics go to stderr; data goes to files or stdout only.

All CSV output is deterministic byte-for-byte for a given (config,
seed): fixed header order, fixed row order, floats at 17 significant
digits (lossless for doubles). Each human-facing table is a rounded view
of the rows of its `_full` mirror, with MAPE as percent at 2 decimals.

The measurement CSV that synth writes and the other commands read is
`pvlevels.csvio`'s: this module calls its `load_csv`, `write_csv` and
`trim_to_overlap` and holds no CSV parsing or formatting of its own.
"""

from __future__ import annotations

import argparse
import io
import math
import sys
from dataclasses import dataclass
from datetime import date
from pathlib import Path

from .clearsky import ClearSkyProfile, clearsky_profile
from .core import (
    MeasurementLevel,
    MultiLevelDataset,
    SiteConfig,
    hour_stamps,
    utc_datetime,
)
from .csvio import _non_ascii_byte, load_csv, trim_to_overlap, write_csv
from .errors import InputError, PvlevelsError, Unforecastable
from .narnet import MIN_FIT_DAY_HOURS, NetworkConfig
from .pipeline import (
    CaseStudy,
    ForecastDay,
    PipelineConfig,
    build_fitting_models,
    compare_cases,
    day_mask,
    run_case,
    valid_forecast_days,
)
from .preprocess import PreprocessedSeries, preprocess
from .synth import DEFAULT_SITE, SynthConfig, capacity_fractions, gen_dataset


class ConfigError(PvlevelsError):
    """Bad key, value, or missing required setting in the run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Everything the CLI can be told, resolved to concrete configs."""

    site: SiteConfig
    pipeline: PipelineConfig
    synth: SynthConfig
    input_path: str | None
    out_dir: str | None


_NET = NetworkConfig()
_PIPELINE = PipelineConfig()
_SYNTH = SynthConfig()

#: Keys whose default and type come from a dataclass field: the key's
#: default instance and the field's name.
_FIELD_KEYS = {
    "site.latitude": (DEFAULT_SITE, "latitude"),
    "site.longitude": (DEFAULT_SITE, "longitude"),
    "site.tz_offset": (DEFAULT_SITE, "tz_offset"),
    "site.dc_rating_kw": (DEFAULT_SITE, "dc_rating_kw"),
    "site.ac_rating_kw": (DEFAULT_SITE, "ac_rating_kw"),
    "site.system_efficiency": (DEFAULT_SITE, "system_efficiency"),
    "net.delay_d": (_NET, "delay_d"),
    "net.hidden_width": (_NET, "hidden_width"),
    "net.max_epochs": (_NET, "max_epochs"),
    "net.patience": (_NET, "early_stop_patience"),
    "pipeline.max_retries": (_PIPELINE, "max_retries"),
    "pipeline.cloudy_threshold": (_PIPELINE, "cloudy_threshold"),
    "synth.n_customers": (_SYNTH, "n_customers"),
    "synth.n_feeders": (_SYNTH, "n_feeders"),
    "synth.days": (_SYNTH, "days"),
    "synth.meter_noise_sd": (_SYNTH, "meter_noise_sd"),
    "synth.drift_sd": (_SYNTH, "shared_drift_sd"),
}

# an empty pipeline.fractions is 1.0 per level; an empty paths.input is unset
_CONFIG_DEFAULTS = {
    **{key: repr(getattr(obj, attr)) for key, (obj, attr) in _FIELD_KEYS.items()},
    "pipeline.target_level": _PIPELINE.target_level.label,
    "pipeline.fractions": "",
    "synth.start": _SYNTH.start_utc.date().isoformat(),
    "paths.input": "",
    "seed": str(_PIPELINE.seed),
}


def parse_config_text(text: str, where: str = "<config>") -> dict[str, str]:
    """`key = value` lines; '#' comments; every key optional. ASCII only; a
    line ends at ``\\n``, ``\\r\\n`` or ``\\r``, as a `load_csv` row does."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        if not raw.isascii():
            raise ConfigError(f"{where}:{lineno}: {_non_ascii_byte(raw)}")
        raw = raw.rstrip("\n")
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{where}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_DEFAULTS:
            raise ConfigError(f"{where}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{where}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def _parse_date(text: str, what: str) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError as exc:
        raise ConfigError(f"{what} must be YYYY-MM-DD, got {text!r}") from exc


def build_run_config(
    file_values: dict[str, str],
    seed_override: int | None = None,
    out_override: str | None = None,
) -> RunConfig:
    raw = dict(_CONFIG_DEFAULTS)
    raw.update(file_values)

    def fval(key: str, text: str) -> float:
        try:
            value = float(text)
        except ValueError as exc:
            raise ConfigError(f"{key} must be a number, got {text!r}") from exc
        if not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {text!r}")
        return value

    def ival(key: str) -> int:
        try:
            return int(raw[key])
        except ValueError as exc:
            raise ConfigError(f"{key} must be an integer, got {raw[key]!r}") from exc

    def fields_of(default) -> dict:
        """The parsed values of the keys backed by ``default``'s fields."""
        return {
            attr: (
                ival(key)
                if isinstance(getattr(default, attr), int)
                else fval(key, raw[key])
            )
            for key, (obj, attr) in _FIELD_KEYS.items()
            if obj is default
        }

    seed = ival("seed") if seed_override is None else seed_override
    try:
        site = SiteConfig(**fields_of(DEFAULT_SITE))
        net = NetworkConfig(**fields_of(_NET))
        start = _parse_date(raw["synth.start"], "synth.start")
        synth = SynthConfig(
            **fields_of(_SYNTH),
            seed=seed,
            start_utc=utc_datetime(start.year, start.month, start.day),
        )
        if raw["pipeline.fractions"]:
            parts = [p.strip() for p in raw["pipeline.fractions"].split(",")]
            if len(parts) != 3:
                raise ConfigError(
                    "pipeline.fractions must be three comma-separated numbers"
                )
            fractions = tuple(fval("pipeline.fractions", p) for p in parts)
        else:
            fractions = _PIPELINE.capacity_fractions
        target_level = MeasurementLevel.from_label(raw["pipeline.target_level"])
        pipeline = PipelineConfig(
            **fields_of(_PIPELINE),
            seed=seed,
            target_level=target_level,
            capacity_fractions=fractions,
            fit_net=net,
            narx_net=net,
            baseline_net=net,
        )
    except (ValueError, ConfigError) as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(
        site=site,
        pipeline=pipeline,
        synth=synth,
        input_path=raw["paths.input"] or None,
        out_dir=out_override or None,
    )


# ------------------------------------------------------------------ input


def _dataset_from_csv(run: RunConfig, trim: bool) -> MultiLevelDataset:
    if run.input_path is None:
        raise ConfigError("paths.input is required for this command")
    path = run.input_path
    series = load_csv(path)
    levels = {s.level for s in series}
    for level in MeasurementLevel:
        if level not in levels:
            raise InputError(f"{path}: no series at the {level.label} level")
    # like load_csv's own errors, these name the file
    try:
        if trim:
            series = trim_to_overlap(series)
        return MultiLevelDataset(*series, site=run.site)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def _profile_for(run: RunConfig, dataset: MultiLevelDataset) -> ClearSkyProfile:
    return clearsky_profile(run.site, dataset.start, dataset.n)


# ------------------------------------------------------------- reporting


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(text)


def _pct(fraction: float) -> str:
    return f"{100.0 * fraction:.2f}"


def _cell(value) -> str:
    """A table cell: text as it is, None as empty, a number at ``%.17g``."""
    if value is None:
        return ""
    return value if isinstance(value, str) else f"{value:.17g}"


def _table(header: str, rows) -> str:
    """CSV text of ``header`` and ``rows`` of cell values."""
    lines = [header, *(",".join(map(_cell, row)) for row in rows)]
    return "\n".join(lines) + "\n"


def _out_dir(run: RunConfig) -> Path:
    if run.out_dir is None:
        raise ConfigError("--out is required for this command")
    path = Path(run.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _emit(run: RunConfig, name: str, text: str) -> None:
    """Write a file under --out, or print it when no directory is set."""
    if run.out_dir is None:
        sys.stdout.write(text)
    else:
        _write_text(_out_dir(run) / name, text)


def _write_tables(out: Path, stem, header, rows: list, view_header, view) -> None:
    """`<stem>_full.csv` holds ``rows``; `<stem>.csv` holds ``view(*row)`` of each."""
    _write_text(out / f"{stem}_full.csv", _table(header, rows))
    _write_text(out / f"{stem}.csv", _table(view_header, [view(*row) for row in rows]))


def _day_series_file(result, dataset: MultiLevelDataset) -> str:
    """The target level's measured and forecast kW over the forecast day."""
    forecast = result.forecast
    i0 = dataset.customer.hour_index(forecast.start)
    actual = dataset.series(forecast.level).values[i0 : i0 + forecast.n]
    return _table(
        "timestamp_utc,actual_kw,forecast_kw",
        zip(
            hour_stamps(forecast.start, forecast.n),
            actual.tolist(),
            forecast.values.tolist(),
        ),
    )


# ------------------------------------------------------------- commands


def cmd_clearsky(run: RunConfig, args) -> int:
    start = _parse_date(args.start, "--start") if args.start else None
    if start is not None:
        begin = utc_datetime(start.year, start.month, start.day)
    else:
        begin = run.synth.start_utc
    days = args.days if args.days is not None else run.synth.days
    if days < 1:
        raise ConfigError("--days must be >= 1")
    profile = clearsky_profile(run.site, begin, days * 24)
    rows = zip(
        hour_stamps(profile.start, profile.n),
        profile.power_kw.tolist(),
        profile.ghi_wm2.tolist(),
    )
    _emit(run, "clearsky.csv", _table("timestamp_utc,power_kw,ghi_wm2", rows))
    return 0


def cmd_synth(run: RunConfig, args) -> int:
    dataset, _profile = gen_dataset(run.synth, run.site)
    out = _out_dir(run)
    write_csv(
        out / "dataset.csv", [dataset.customer, dataset.feeder, dataset.substation]
    )
    fr = capacity_fractions(run.synth)
    config_lines = [
        "# generated alongside dataset.csv; pass via --config to later commands",
        *(
            f"{key} = {getattr(run.site, attr):.17g}"
            for key, (obj, attr) in _FIELD_KEYS.items()
            if obj is DEFAULT_SITE
        ),
        f"pipeline.fractions = {fr[0]:.17g}, {fr[1]:.17g}, {fr[2]:.17g}",
        f"seed = {run.synth.seed}",
        # bare filename: resolved against this file's directory at load time,
        # so the whole output directory is relocatable and byte-reproducible
        "paths.input = dataset.csv",
    ]
    _write_text(out / "dataset_config.txt", "\n".join(config_lines) + "\n")
    return 0


def _preprocessed_levels(run: RunConfig, args) -> list[PreprocessedSeries]:
    """Every level of the input, preprocessed on the pipeline's day mask."""
    dataset = _dataset_from_csv(run, args.trim_to_overlap)
    profile = _profile_for(run, dataset)
    cfg = run.pipeline
    mask = day_mask(profile, cfg)
    return [
        preprocess(
            dataset.series(level),
            profile.scaled(cfg.fraction(level)),
            day_mask=mask,
        )
        for level in MeasurementLevel
    ]


def cmd_preprocess(run: RunConfig, args) -> int:
    index_rows = []
    summary_rows = []
    for pre in _preprocessed_levels(run, args):
        stamps = hour_stamps(pre.source_start, pre.day_mask.size)
        for i, index in zip(pre.day_hour_indices().tolist(), pre.index_values.tolist()):
            index_rows.append((stamps[i], pre.level.label, index))
        summary_rows.append((pre.level.label, pre.offset_kw, pre.clip_count, pre.n_day))
    out = _out_dir(run)
    _write_text(out / "preprocessed.csv", _table("timestamp_utc,level,index", index_rows))
    _write_text(
        out / "preprocess_summary.csv",
        _table("level,offset_kw,clip_count,n_day_hours", summary_rows),
    )
    return 0


def cmd_fit(run: RunConfig, args) -> int:
    models = build_fitting_models(_preprocessed_levels(run, args), run.pipeline)
    _write_tables(
        _out_dir(run),
        "fit",
        "level,mape,r_squared",
        [(m.level.label, m.fit_mape, m.fit_r2) for m in models],
        "level,mape_pct,r_squared",
        lambda level, mape, r2: (level, _pct(mape), f"{r2:.4f}"),
    )
    return 0


def _case_ids(case_arg: str | None) -> list[CaseStudy]:
    if case_arg is None:
        return list(CaseStudy)
    try:
        return [CaseStudy(case_arg)]
    except ValueError:
        raise ConfigError(f"unknown case {case_arg!r}; use case1..case4") from None


def cmd_forecast(run: RunConfig, args) -> int:
    dataset = _dataset_from_csv(run, args.trim_to_overlap)
    profile = _profile_for(run, dataset)
    day = _parse_date(args.day, "--day")
    out = _out_dir(run)
    rows = []
    for cid in _case_ids(args.case):
        # one context per case, so no case reuses another's nets: the
        # benchmark's day-ahead-cli workload pins these train counts
        result = run_case(cid, ForecastDay.at(dataset, profile, day, run.pipeline))
        _write_text(out / f"forecast_{cid.label}.csv", _day_series_file(result, dataset))
        rep = result.report
        if rep is None:
            rep = result.per_level_reports[run.pipeline.target_level]
        errors = result.level_errors
        met = None if errors is None else int(errors.target_met)
        rows.append(
            (cid.label, result.weather.label, rep.mape, rep.rmse, rep.r_squared, met)
        )
    _write_tables(
        out,
        "forecast_summary",
        "case,weather,mape,rmse_kw,r_squared,target_met",
        rows,
        "case,weather,mape_pct,rmse_kw,r_squared,target_met",
        lambda case, weather, mape, rmse, r2, met: (
            case,
            weather,
            _pct(mape),
            f"{rmse:.2f}",
            None if r2 is None else f"{r2:.4f}",
            met,
        ),
    )
    return 0


def cmd_cases(run: RunConfig, args) -> int:
    dataset = _dataset_from_csv(run, args.trim_to_overlap)
    profile = _profile_for(run, dataset)
    valid = valid_forecast_days(dataset, profile, run.pipeline)
    if args.days is not None:
        if args.days < 1:
            raise ConfigError("--days must be >= 1")
        valid = valid[-args.days :]
    if not valid:
        raise Unforecastable(
            "no forecast day holds a day hour and follows "
            f"{MIN_FIT_DAY_HOURS} day hours of history"
        )
    comparison = compare_cases(dataset, profile, valid, run.pipeline)
    out = _out_dir(run)
    _write_tables(
        out,
        "cases",
        "weather,forecast_day,case1_min_mape,case2_mape,case3_mape,case4_mape,"
        "reduction_vs_case1,reduction_vs_case3,reduction_vs_case4,"
        "case2_target_met",
        [
            (
                row.weather.label,
                row.forecast_day.isoformat(),
                row.case1_min_mape,
                row.case2_mape,
                row.case3_mape,
                row.case4_mape,
                row.reduction_vs_case1,
                row.reduction_vs_case3,
                row.reduction_vs_case4,
                int(row.results[CaseStudy.CASE2].level_errors.target_met),
            )
            for row in comparison.rows
        ],
        "weather,case1_min_mape,case2_mape,case3_mape,case4_mape,"
        "reduction_vs_case1_pct",
        # the four MAPEs and the reduction against case 1
        lambda weather, _day, *values: (weather, *map(_pct, values[:5])),
    )
    for row in comparison.rows:
        for cid, result in row.results.items():
            _write_text(
                out / f"{cid.label}_{row.weather.label}.csv",
                _day_series_file(result, dataset),
            )
    for weather in comparison.missing_classes:
        print(f"note: no candidate day classified {weather.label}", file=sys.stderr)
    return 0


# ------------------------------------------------------------- dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pvlevels",
        description="Day-ahead PV forecasting from multi-level measurements.",
    )
    parser.add_argument("--config", metavar="PATH", help="key = value settings file")
    parser.add_argument("--seed", type=int, metavar="U64", help="override the seed")
    parser.add_argument("--out", metavar="DIR", help="output directory")
    parser.add_argument(
        "--trim-to-overlap",
        action="store_true",
        help="clip input series to their common time range",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("clearsky", help="emit the simulated clear-sky profile")
    p.add_argument("--start", metavar="YYYY-MM-DD")
    p.add_argument("--days", type=int)
    p.set_defaults(func=cmd_clearsky)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="emit clear-sky-index series")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("fit", help="per-level fitting-model quality")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("forecast", help="forecast one day")
    p.add_argument("--day", required=True, metavar="YYYY-MM-DD")
    p.add_argument("--case", metavar="caseN", help="one of case1..case4 (default all)")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("cases", help="weather-by-case comparison table")
    p.add_argument(
        "--days", type=int, metavar="K", help="consider only the last K valid days"
    )
    p.set_defaults(func=cmd_cases)

    return parser


def cmd_dispatch(argv: list[str]) -> int:
    """Parse and run; never raises, returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        file_values: dict[str, str] = {}
        if args.config is not None:
            try:
                text = Path(args.config).read_text(encoding="latin-1")
            except OSError as exc:
                raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
            file_values = parse_config_text(text, where=args.config)
            rel = file_values.get("paths.input", "")
            if rel and not Path(rel).is_absolute():
                file_values["paths.input"] = str(
                    Path(args.config).resolve().parent / rel
                )
        run = build_run_config(
            file_values, seed_override=args.seed, out_override=args.out
        )
        return args.func(run, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PvlevelsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cmd_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

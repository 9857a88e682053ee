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
digits (lossless for doubles). Human-facing tables render MAPE as
percent with 2 decimals and always have a full-precision `_full` mirror.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass
from datetime import date, datetime, timezone
from pathlib import Path

import numpy as np

from .clearsky import ClearSkyProfile, clearsky_profile
from .core import (
    DAY,
    HOUR,
    HourlyPowerSeries,
    MeasurementLevel,
    MultiLevelDataset,
    SiteConfig,
    utc_datetime,
)
from .errors import (
    DuplicateRow,
    GapError,
    InsufficientHistory,
    LengthMismatch,
    MisalignedRange,
    ParseError,
    PvlevelsError,
)
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

CSV_HEADER = "timestamp_utc,level,series_id,power_kw"


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
    "net.step_size": (_NET, "step_size"),
    "net.patience": (_NET, "early_stop_patience"),
    "pipeline.epsilon_fraction": (_PIPELINE, "epsilon_fraction"),
    "pipeline.day_threshold_fraction": (_PIPELINE, "day_threshold_fraction"),
    "pipeline.max_retries": (_PIPELINE, "max_retries"),
    "pipeline.cloudy_threshold": (_PIPELINE, "cloudy_threshold"),
    "synth.n_customers": (_SYNTH, "n_customers"),
    "synth.n_feeders": (_SYNTH, "n_feeders"),
    "synth.days": (_SYNTH, "days"),
    "synth.meter_noise_sd": (_SYNTH, "meter_noise_sd"),
    "synth.drift_sd": (_SYNTH, "shared_drift_sd"),
}

# an empty pipeline.fractions is 1.0 per level; empty paths are unset
_CONFIG_DEFAULTS = {
    **{key: repr(getattr(obj, attr)) for key, (obj, attr) in _FIELD_KEYS.items()},
    "pipeline.target_level": _PIPELINE.target_level.label,
    "pipeline.fractions": "",
    "synth.start": _SYNTH.start_utc.date().isoformat(),
    "paths.input": "",
    "paths.out": "",
    "seed": str(_PIPELINE.seed),
}


def parse_config_text(text: str, where: str = "<config>") -> dict[str, str]:
    """`key = value` lines; '#' comments; every key optional."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
        out_dir=out_override or raw["paths.out"] or None,
    )


# ---------------------------------------------------------------- CSV I/O

_HOUR_SUFFIXES = [f"{h:02d}:00:00Z" for h in range(24)]


def _hour_stamps(start: datetime, n: int) -> list[str]:
    """`YYYY-MM-DDTHH:00:00Z` text of the ``n`` hours from the UTC hour ``start``.

    Each calendar day is formatted once and joined to its hour suffixes;
    the text equals ``strftime("%Y-%m-%dT%H:%M:%SZ")`` of every hour.
    """
    midnight = start.replace(hour=0)
    first = start.hour
    n_days = (first + n + 23) // 24
    days = [(midnight + k * DAY).strftime("%Y-%m-%dT") for k in range(n_days)]
    return [days[j // 24] + _HOUR_SUFFIXES[j % 24] for j in range(first, first + n)]


# The one timestamp form read, `YYYY-MM-DDTHH:MM:SSZ`; its fields go
# straight to `datetime`, which rejects out-of-range dates and times.
_TIMESTAMP = re.compile(
    r"([0-9]{4})-([0-9]{2})-([0-9]{2})T([0-9]{2}):([0-9]{2}):([0-9]{2})Z"
)


def _parse_ts(text: str, path, lineno: int) -> datetime:
    fields = _TIMESTAMP.fullmatch(text)
    if fields is None:
        raise ParseError(f"{path} line {lineno}: bad timestamp {text!r}")
    try:
        ts = datetime(*map(int, fields.groups()), tzinfo=timezone.utc)
    except ValueError as exc:
        raise ParseError(f"{path} line {lineno}: bad timestamp {text!r}") from exc
    if ts.minute or ts.second:
        raise ParseError(
            f"{path} line {lineno}: timestamp {text!r} is not hour-aligned"
        )
    return ts


def _non_ascii_byte(line: str) -> str:
    """`non-ASCII byte 0x..` for the first non-ASCII character of a latin-1 line."""
    byte = next(ch for ch in line if not ch.isascii())
    return f"non-ASCII byte {ord(byte):#04x}"


def load_csv(path) -> list[HourlyPowerSeries]:
    """Read the flat measurement CSV into one series per level, in level order.

    Rows may arrive in any order; each series must form a gap-free hourly
    range with no duplicate timestamps, every level must be one of the
    labels `write_csv` writes (``customer``, ``feeder``, ``substation``;
    `MeasurementLevel.from_label`), a level holds one series id (a second
    raises ParseError at its first line) and every power is a finite
    number. The file must be ASCII: a non-ASCII byte raises ParseError
    naming its line. Every error names the file, and the line where there
    is one; a file with several bad lines is reported at the first.

    The file is read one line at a time, and a line ends at ``\\n``,
    ``\\r\\n`` or ``\\r``; the other characters `str.splitlines` breaks at
    (``\\x0b``, ``\\x0c``, ``\\x1c``-``\\x1e``) end no row. It is decoded as
    latin-1, which maps each byte to one character, and each line is
    checked for ASCII. Each distinct timestamp text is parsed once, and
    each distinct (level, series_id) text is checked once.
    """
    stamps: dict[str, datetime] = {}
    groups: dict[tuple[str, str], dict[datetime, float]] = {}
    ids: dict[MeasurementLevel, str] = {}
    try:
        with open(path, encoding="latin-1") as fh:
            header = fh.readline()
            if header.rstrip("\n") != CSV_HEADER:
                what = (
                    f"expected header {CSV_HEADER!r}"
                    if header.isascii()
                    else _non_ascii_byte(header)
                )
                raise ParseError(f"{path} line 1: {what}")
            for lineno, line in enumerate(fh, start=2):
                if not line.isascii():
                    raise ParseError(f"{path} line {lineno}: {_non_ascii_byte(line)}")
                parts = line.split(",")
                if len(parts) != 4:
                    if not line.strip():
                        continue
                    raise ParseError(
                        f"{path} line {lineno}: expected 4 fields, got {len(parts)}"
                    )
                stamp, label, series_id, power_text = parts
                ts = stamps.get(stamp)
                if ts is None:
                    ts = stamps[stamp] = _parse_ts(stamp, path, lineno)
                rows = groups.get((label, series_id))
                if rows is None:
                    try:
                        level = MeasurementLevel.from_label(label)
                    except ValueError as exc:
                        raise ParseError(f"{path} line {lineno}: {exc}") from None
                    if not series_id:
                        raise ParseError(f"{path} line {lineno}: empty series_id")
                    if level in ids:
                        raise ParseError(
                            f"{path} line {lineno}: second {label} series "
                            f"{series_id!r} (the first is {ids[level]!r}); "
                            "need one series per level"
                        )
                    ids[level] = series_id
                    rows = groups[(label, series_id)] = {}
                # the line's newline stays on power_text: float() skips it
                try:
                    power = float(power_text)
                except ValueError:
                    power = math.nan
                if not math.isfinite(power):
                    bad = power_text.rstrip("\n")
                    raise ParseError(f"{path} line {lineno}: bad power value {bad!r}")
                n_rows = len(rows)
                rows[ts] = power
                if len(rows) == n_rows:
                    raise DuplicateRow(
                        f"{path} line {lineno}: "
                        f"duplicate ({stamp}, {label}, {series_id})"
                    )
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not groups:
        raise ParseError(f"{path}: no data rows")
    out = []
    for level, series_id in sorted(ids.items()):
        rows = groups[(level.label, series_id)]
        hours = sorted(rows)
        expected = hours[0]
        for ts in hours:
            if ts != expected:
                missing = _hour_stamps(expected, 1)[0]
                raise GapError(
                    f"{path}: series ({level.label}, {series_id}) "
                    f"is missing hour {missing}"
                )
            expected = expected + HOUR
        out.append(
            HourlyPowerSeries(
                site_id=series_id,
                level=level,
                start=hours[0],
                values=np.array([rows[ts] for ts in hours]),
            )
        )
    return out


def write_csv(path, series_list: list[HourlyPowerSeries]) -> None:
    """Write series to the flat CSV schema, deterministically ordered.

    Series are written one at a time; series sharing an hourly range
    share one formatting of its timestamps.
    """
    stamps: dict[tuple[datetime, int], list[str]] = {}
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for s in sorted(series_list, key=lambda s: (int(s.level), s.site_id)):
            key = (s.start, s.n)
            if key not in stamps:
                stamps[key] = _hour_stamps(s.start, s.n)
            tag = f",{s.level.label},{s.site_id},"
            rows = zip(stamps[key], s.values.tolist())
            fh.write("".join([f"{ts}{tag}{v:.17g}\n" for ts, v in rows]))


def trim_to_overlap(series_list: list[HourlyPowerSeries]) -> list[HourlyPowerSeries]:
    """Clip every series to the time range they all share."""
    start = max(s.start for s in series_list)
    end = min(s.end for s in series_list)
    if start >= end:
        raise MisalignedRange("series have no overlapping hours")
    return [s.sliced(s.hour_index(start), s.hour_index(end)) for s in series_list]


def _dataset_from_csv(run: RunConfig, trim: bool) -> MultiLevelDataset:
    if run.input_path is None:
        raise ConfigError("paths.input is required for this command")
    path = run.input_path
    series = load_csv(path)
    levels = {s.level for s in series}
    for level in MeasurementLevel:
        if level not in levels:
            raise ParseError(f"{path}: no series at the {level.label} level")
    # like load_csv's own errors, these name the file
    try:
        if trim:
            series = trim_to_overlap(series)
        return MultiLevelDataset(*series, site=run.site)
    except (MisalignedRange, LengthMismatch) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _profile_for(run: RunConfig, dataset: MultiLevelDataset) -> ClearSkyProfile:
    return clearsky_profile(run.site, dataset.start, dataset.n)


# ------------------------------------------------------------- reporting


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(text)


def _pct(fraction: float) -> str:
    return f"{100.0 * fraction:.2f}"


def _g(x: float | None) -> str:
    return "" if x is None else f"{x:.17g}"


def _out_dir(run: RunConfig) -> Path:
    if run.out_dir is None:
        raise ConfigError("--out (or paths.out) is required for this command")
    path = Path(run.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _emit(run: RunConfig, name: str, text: str) -> None:
    """Write a file under --out, or print it when no directory is set."""
    if run.out_dir is None:
        sys.stdout.write(text)
    else:
        _write_text(_out_dir(run) / name, text)


def _series_csv(profile_rows: list[tuple[str, ...]], header: str) -> str:
    return "\n".join([header, *(",".join(row) for row in profile_rows)]) + "\n"


def _day_series_file(result, dataset: MultiLevelDataset, target: MeasurementLevel) -> str:
    forecast = result.forecast
    i0 = dataset.customer.hour_index(forecast.start)
    actual = dataset.series(target).values[i0 : i0 + forecast.n]
    rows = [
        (ts, f"{a:.17g}", f"{f:.17g}")
        for ts, a, f in zip(
            _hour_stamps(forecast.start, forecast.n),
            actual.tolist(),
            forecast.values.tolist(),
        )
    ]
    return _series_csv(rows, "timestamp_utc,actual_kw,forecast_kw")


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
    rows = [
        (ts, f"{p:.17g}", f"{g:.17g}")
        for ts, p, g in zip(
            _hour_stamps(profile.start, profile.n),
            profile.power_kw.tolist(),
            profile.ghi_wm2.tolist(),
        )
    ]
    _emit(run, "clearsky.csv", _series_csv(rows, "timestamp_utc,power_kw,ghi_wm2"))
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
        stamps = _hour_stamps(pre.source_start, pre.day_mask.size)
        for i, index in zip(pre.day_hour_indices().tolist(), pre.index_values.tolist()):
            index_rows.append((stamps[i], pre.level.label, f"{index:.17g}"))
        summary_rows.append(
            (
                pre.level.label,
                f"{pre.offset_kw:.17g}",
                str(pre.clip_count),
                str(pre.n_day),
            )
        )
    out = _out_dir(run)
    _write_text(
        out / "preprocessed.csv",
        _series_csv(index_rows, "timestamp_utc,level,index"),
    )
    _write_text(
        out / "preprocess_summary.csv",
        _series_csv(summary_rows, "level,offset_kw,clip_count,n_day_hours"),
    )
    return 0


def cmd_fit(run: RunConfig, args) -> int:
    models = build_fitting_models(_preprocessed_levels(run, args), run.pipeline)
    human = [
        (m.level.label, _pct(m.fit_mape), f"{m.fit_r2:.4f}") for m in models
    ]
    full = [
        (m.level.label, f"{m.fit_mape:.17g}", f"{m.fit_r2:.17g}") for m in models
    ]
    out = _out_dir(run)
    _write_text(out / "fit.csv", _series_csv(human, "level,mape_pct,r_squared"))
    _write_text(out / "fit_full.csv", _series_csv(full, "level,mape,r_squared"))
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
    human = []
    full = []
    for cid in _case_ids(args.case):
        # one context per case, so no case reuses another's nets: the
        # benchmark's day-ahead-cli workload pins these train counts
        result = run_case(cid, ForecastDay.at(dataset, profile, day, run.pipeline))
        _write_text(
            out / f"forecast_{cid.label}.csv",
            _day_series_file(result, dataset, run.pipeline.target_level),
        )
        rep = result.report
        if rep is None:
            rep = result.per_level_reports[run.pipeline.target_level]
        met = (
            ""
            if result.level_errors is None
            else str(int(result.level_errors.target_met))
        )
        human.append(
            (
                cid.label,
                result.weather.label,
                _pct(rep.mape),
                f"{rep.rmse:.2f}",
                "" if rep.r_squared is None else f"{rep.r_squared:.4f}",
                met,
            )
        )
        full.append(
            (
                cid.label,
                result.weather.label,
                _g(rep.mape),
                _g(rep.rmse),
                _g(rep.r_squared),
                met,
            )
        )
    header = "case,weather,mape_pct,rmse_kw,r_squared,target_met"
    _write_text(out / "forecast_summary.csv", _series_csv(human, header))
    _write_text(
        out / "forecast_summary_full.csv",
        _series_csv(full, "case,weather,mape,rmse_kw,r_squared,target_met"),
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
        raise InsufficientHistory(
            f"no forecast day has {MIN_FIT_DAY_HOURS} day hours of history"
        )
    comparison = compare_cases(dataset, profile, valid, run.pipeline)
    out = _out_dir(run)
    human = [
        (
            row.weather.label,
            _pct(row.case1_min_mape),
            _pct(row.case2_mape),
            _pct(row.case3_mape),
            _pct(row.case4_mape),
            _pct(row.reduction_vs_case1),
        )
        for row in comparison.rows
    ]
    full = [
        (
            row.weather.label,
            row.forecast_day.isoformat(),
            _g(row.case1_min_mape),
            _g(row.case2_mape),
            _g(row.case3_mape),
            _g(row.case4_mape),
            _g(row.reduction_vs_case1),
            _g(row.reduction_vs_case3),
            _g(row.reduction_vs_case4),
            str(int(row.results[CaseStudy.CASE2].level_errors.target_met)),
        )
        for row in comparison.rows
    ]
    _write_text(
        out / "cases.csv",
        _series_csv(
            human,
            "weather,case1_min_mape,case2_mape,case3_mape,case4_mape,"
            "reduction_vs_case1_pct",
        ),
    )
    _write_text(
        out / "cases_full.csv",
        _series_csv(
            full,
            "weather,forecast_day,case1_min_mape,case2_mape,case3_mape,case4_mape,"
            "reduction_vs_case1,reduction_vs_case3,reduction_vs_case4,"
            "case2_target_met",
        ),
    )
    for row in comparison.rows:
        for cid, result in row.results.items():
            _write_text(
                out / f"{cid.label}_{row.weather.label}.csv",
                _day_series_file(result, dataset, run.pipeline.target_level),
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
            # lines as parse_config_text counts them; keepends keeps a
            # latin-1 NEL (0x85), which splitlines breaks at, on its line
            for lineno, line in enumerate(text.splitlines(keepends=True), start=1):
                if not line.isascii():
                    raise ConfigError(f"{args.config}:{lineno}: {_non_ascii_byte(line)}")
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

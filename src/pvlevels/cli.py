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
"""

from __future__ import annotations

import argparse
import io
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
        out_dir=out_override or raw["paths.out"] or None,
    )


# ---------------------------------------------------------------- CSV I/O

_HOUR_SUFFIXES = [f"{h:02d}:00:00Z" for h in range(24)]
# `load_csv` keys each row by its whole hours since this instant.
_EPOCH = utc_datetime(1970, 1, 1)
# `load_csv` reads about this many characters at a time, cut after a newline.
_READ_CHUNK_CHARS = 16 * 1024
# `write_csv` formats and writes a series this many rows at a time.
_WRITE_CHUNK_ROWS = 4096


def _hour_stamps(start: datetime, n: int) -> list[str]:
    """`YYYY-MM-DDTHH:00:00Z` text of the ``n`` hours from the UTC hour ``start``.

    Each calendar day is formatted once and joined to its hour suffixes.
    The year has four digits in every year, where ``strftime("%Y")``
    writes years before 1000 unpadded on some C libraries.
    """
    midnight = start.replace(hour=0)
    first = start.hour
    n_days = (first + n + 23) // 24
    days = [(midnight + k * DAY).date().isoformat() + "T" for k in range(n_days)]
    return [day + suffix for day in days for suffix in _HOUR_SUFFIXES][first : first + n]


# The one timestamp form read, `YYYY-MM-DDTHH:MM:SSZ`; its fields go
# straight to `datetime`, which rejects out-of-range dates and times.
_TIMESTAMP = re.compile(
    r"([0-9]{4})-([0-9]{2})-([0-9]{2})T([0-9]{2}):([0-9]{2}):([0-9]{2})Z"
)


def _stamp_time(text: str) -> datetime | None:
    """The instant ``text`` names in the one form read, or None."""
    fields = _TIMESTAMP.fullmatch(text)
    if fields is None:
        return None
    try:
        return datetime(*map(int, fields.groups()), tzinfo=timezone.utc)
    except ValueError:
        return None


class _StampHours(dict):
    """Hours since `_EPOCH` of the stamps `load_csv` reads, by their text.

    Looking up a stamp of a day not yet met parses its date once and
    maps all 24 hour stamps of that day; a stamp that is not one of a
    real day's 24 raises KeyError.
    """

    def __missing__(self, stamp: str) -> int:
        prefix = stamp[:11]
        midnight = _stamp_time(prefix + _HOUR_SUFFIXES[0])
        if midnight is not None:
            first = (midnight - _EPOCH) // HOUR
            self.update(zip([prefix + s for s in _HOUR_SUFFIXES], range(first, first + 24)))
        hour = self.get(stamp)
        if hour is None:
            raise KeyError(stamp)
        return hour


def _stamp_fault(text: str) -> str:
    """Why ``text`` is not read, once its day's stamps are mapped and it
    is not one of them: only a real instant off the hour parses."""
    if _stamp_time(text) is None:
        return f"bad timestamp {text!r}"
    return f"timestamp {text!r} is not hour-aligned"


def _non_ascii_byte(line: str) -> str:
    """`non-ASCII byte 0x..` for the first non-ASCII character of a latin-1 line."""
    byte = next(ch for ch in line if not ch.isascii())
    return f"non-ASCII byte {ord(byte):#04x}"


def _line_chunks(fh):
    """The rest of ``fh`` in pieces of about `_READ_CHUNK_CHARS`
    characters, each of whole lines ending with a newline."""
    rest = ""
    while text := fh.read(_READ_CHUNK_CHARS):
        cut = text.rfind("\n") + 1
        if cut:
            yield rest + text[:cut]
            rest = text[cut:]
        else:
            rest += text
    if rest:
        yield rest + "\n"


class _CsvRows:
    """The rows `load_csv` has taken: each series' power by hour, the
    series id of each level, the hour of each stamp of a parsed day,
    and the number of the next line."""

    def __init__(self, path) -> None:
        self.path = path
        self.lineno = 2
        self.stamps = _StampHours()
        self.groups: dict[tuple[str, str], dict[int, float]] = {}
        self.ids: dict[MeasurementLevel, str] = {}

    def take(self, text: str) -> None:
        """Take the lines of ``text``, which ends with a newline.

        A run of lines from a row of a series already met to the last
        line of the text that holds its `,label,series_id,` goes as one
        block if it can; any other run, and any other line, such as the
        first of a series, goes line by line.
        """
        start = 0
        while start < len(text):
            stop = text.find("\n", start) + 1
            fields = text[start : stop - 1].split(",")
            n = 0
            if len(fields) == 4 and (fields[1], fields[2]) in self.groups:
                _, label, series_id, _ = fields
                last = text.rfind(f",{label},{series_id},", start)
                stop = text.find("\n", last) + 1
                n = self._take_block(text[start:stop], label, series_id)
            if not n:
                lines = text[start:stop].split("\n")[:-1]
                self._take_lines(lines)
                n = len(lines)
            self.lineno += n
            start = stop

    def _take_block(self, text: str, label: str, series_id: str) -> int:
        """Take ``text`` whole, and return its line count, if every line
        is a good row of the series (label, series_id), already met;
        otherwise take nothing and return 0.

        Each `,label,series_id,` becomes two newlines and the text splits
        at newlines. If it gives 3n parts, plus the empty one after the
        last newline, and shrank by n separators, it held n lines and n
        separators. Each separator leaves an empty part between its two
        newlines; the stamp places (parts 0, 3, ...) and the power places
        (parts 2, 5, ...) must hold a stamp and a number, never empty, so
        the separators' parts are parts 1, 4, .... Each line is then a
        stamp, the separator and a power: 4 fields at its commas.
        """
        sep = f",{label},{series_id},"
        joined = text.replace(sep, "\n\n")
        parts = joined.split("\n")
        n, extra = divmod(len(parts) - 1, 3)
        if extra or len(text) - len(joined) != n * (len(sep) - 2) or not text.isascii():
            return 0
        rows = self.groups[(label, series_id)]
        try:
            hours = list(map(self.stamps.__getitem__, parts[0:-1:3]))
            powers = list(map(float, parts[2::3]))
        except (KeyError, ValueError):
            return 0
        # a sum is finite only if every term is
        if not math.isfinite(sum(powers)) or not rows.keys().isdisjoint(hours):
            return 0
        size = len(rows)
        rows.update(zip(hours, powers))
        if len(rows) != size + n:  # an hour twice in the block: undo
            for hour in hours:
                rows.pop(hour, None)
            return 0
        return n

    def _take_lines(self, lines: list[str]) -> None:
        """Take ``lines`` one at a time; raise InputError at the first bad one."""
        path, stamps, groups, ids = self.path, self.stamps, self.groups, self.ids
        for lineno, line in enumerate(lines, start=self.lineno):
            if not line.isascii():
                raise InputError(f"{path} line {lineno}: {_non_ascii_byte(line)}")
            parts = line.split(",")
            if len(parts) != 4:
                if not line.strip():
                    continue
                raise InputError(
                    f"{path} line {lineno}: expected 4 fields, got {len(parts)}"
                )
            stamp, label, series_id, power_text = parts
            try:
                hour = stamps[stamp]
            except KeyError:
                raise InputError(f"{path} line {lineno}: {_stamp_fault(stamp)}") from None
            rows = groups.get((label, series_id))
            if rows is None:
                try:
                    level = MeasurementLevel.from_label(label)
                except ValueError as exc:
                    raise InputError(f"{path} line {lineno}: {exc}") from None
                if not series_id:
                    raise InputError(f"{path} line {lineno}: empty series_id")
                if level in ids:
                    raise InputError(
                        f"{path} line {lineno}: second {label} series "
                        f"{series_id!r} (the first is {ids[level]!r}); "
                        "need one series per level"
                    )
                ids[level] = series_id
                rows = groups[(label, series_id)] = {}
            try:
                power = float(power_text)
            except ValueError:
                power = math.nan
            if not math.isfinite(power):
                raise InputError(f"{path} line {lineno}: bad power value {power_text!r}")
            n_rows = len(rows)
            rows[hour] = power
            if len(rows) == n_rows:
                raise InputError(
                    f"{path} line {lineno}: duplicate ({stamp}, {label}, {series_id})"
                )


def load_csv(path) -> list[HourlyPowerSeries]:
    """Read the flat measurement CSV into one series per level, in level order.

    Rows may arrive in any order; each series must form a gap-free hourly
    range with no duplicate timestamps, every level must be one of the
    labels `write_csv` writes (``customer``, ``feeder``, ``substation``;
    `MeasurementLevel.from_label`), a level holds one series id (a second
    raises InputError at its first line) and every power is a finite
    number. The file must be ASCII: a non-ASCII byte raises InputError
    naming its line. Every error names the file, and the line where there
    is one; a file with several bad lines is reported at the first.

    A line ends at ``\\n``, ``\\r\\n`` or ``\\r``; the other characters
    `str.splitlines` breaks at (``\\x0b``, ``\\x0c``, ``\\x1c``-``\\x1e``)
    end no row. The file is decoded as latin-1, which maps each byte to
    one character, and read in chunks of about `_READ_CHUNK_CHARS`
    characters cut after a newline, so the text held at once is one
    chunk's. A run of a chunk's lines that are all good rows of a
    series already met is checked and stored as a block: one ASCII
    check, one split, its stamps and powers mapped in one pass each and
    one dict update. A series' first line and any other run go line by
    line, which takes blank lines and mixed series and is the only code
    that words an error, so the first bad line in the file is the one
    reported. When a day's date
    is first parsed, its 24 hour stamps are mapped to hours at once.
    Rows are kept by their whole hours since 1970-01-01T00:00Z, so a
    series is gap-free when its last hour less its first is its row
    count less one.
    """
    reader = _CsvRows(path)
    try:
        with open(path, encoding="latin-1") as fh:
            header = fh.readline()
            if header.rstrip("\n") != CSV_HEADER:
                what = (
                    f"expected header {CSV_HEADER!r}"
                    if header.isascii()
                    else _non_ascii_byte(header)
                )
                raise InputError(f"{path} line 1: {what}")
            for text in _line_chunks(fh):
                reader.take(text)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not reader.groups:
        raise InputError(f"{path}: no data rows")
    groups, ids = reader.groups, reader.ids
    del reader  # its stamp memo goes before the series are built
    out = []
    for level, series_id in sorted(ids.items()):
        rows = groups.pop((level.label, series_id))
        hours = sorted(rows)
        first = hours[0]
        if hours[-1] - first != len(hours) - 1:
            missing = next(h for h, have in enumerate(hours, start=first) if h != have)
            raise InputError(
                f"{path}: series ({level.label}, {series_id}) is missing hour "
                f"{_hour_stamps(_EPOCH + missing * HOUR, 1)[0]}"
            )
        out.append(
            HourlyPowerSeries(
                site_id=series_id,
                level=level,
                start=_EPOCH + first * HOUR,
                values=np.fromiter(map(rows.__getitem__, hours), np.float64, len(hours)),
            )
        )
    return out


def write_csv(path, series_list: list[HourlyPowerSeries]) -> None:
    """Write series to the flat CSV schema, deterministically ordered.

    Series are written one at a time, each in chunks of
    `_WRITE_CHUNK_ROWS` rows that format their own timestamps, so the
    text held at once is one chunk's, whatever the series' length. A
    chunk is one format string, built by one ``str.join`` of its stamps
    with the series' row tail as the separator and the tail once more
    at the end, and one ``%`` fills in its values at ``%.17g``. A
    series id that load_csv could not read back (empty, not ASCII, or
    holding a comma or a line break) raises ValueError before the file
    is opened.
    """
    for s in series_list:
        if not s.site_id or not s.site_id.isascii() or re.search("[,\n\r]", s.site_id):
            raise ValueError(
                f"series id {s.site_id!r} cannot be written: it must be "
                "non-empty ASCII with no comma or line break"
            )
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for s in sorted(series_list, key=lambda s: (int(s.level), s.site_id)):
            # what follows each stamp; an id's own '%' is escaped
            row = f",{s.level.label},{s.site_id.replace('%', '%%')},%.17g\n"
            for a in range(0, s.n, _WRITE_CHUNK_ROWS):
                values = s.values[a : a + _WRITE_CHUNK_ROWS].tolist()
                stamps = _hour_stamps(s.start + a * HOUR, len(values))
                fh.write((row.join(stamps) + row) % tuple(values))


def trim_to_overlap(series_list: list[HourlyPowerSeries]) -> list[HourlyPowerSeries]:
    """Clip every series to the time range they all share."""
    start = max(s.start for s in series_list)
    end = min(s.end for s in series_list)
    if start >= end:
        raise InputError("series have no overlapping hours")
    return [s.sliced(s.hour_index(start), s.hour_index(end)) for s in series_list]


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
            _hour_stamps(forecast.start, forecast.n),
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
        _hour_stamps(profile.start, profile.n),
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
        stamps = _hour_stamps(pre.source_start, pre.day_mask.size)
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

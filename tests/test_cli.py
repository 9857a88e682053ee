"""CLI surface: config parsing, CSV I/O, commands, exit codes, determinism."""

import argparse
import gc
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pvlevels import cli, csvio
from pvlevels.cli import ConfigError, build_run_config, cmd_dispatch, parse_config_text
from pvlevels.clearsky import clearsky_profile
from pvlevels.core import (
    HOUR,
    HourlyPowerSeries,
    MeasurementLevel,
    hour_stamps,
    utc_datetime,
)
from pvlevels.csvio import CSV_HEADER, load_csv, missing_hours, trim_to_overlap, write_csv
from pvlevels.errors import InputError, Unforecastable
from pvlevels.narnet import MIN_FIT_DAY_HOURS
from pvlevels.pipeline import PipelineConfig, day_mask
from pvlevels.synth import DEFAULT_SITE, SynthConfig, gen_dataset

# cmd_cases' error when no day can be forecast
NO_DAY = (
    "no forecast day holds a day hour and follows "
    f"{MIN_FIT_DAY_HOURS} day hours of history"
)

C, F, S = (
    MeasurementLevel.CUSTOMER,
    MeasurementLevel.FEEDER,
    MeasurementLevel.SUBSTATION,
)


class TestParseConfigText:
    def test_values_comments_blanks(self):
        text = "\n".join(
            [
                "# full-line comment",
                "seed = 42",
                "",
                "synth.days = 45  # trailing comment",
                "pipeline.target_level=feeder",
            ]
        )
        values = parse_config_text(text)
        assert values == {
            "seed": "42",
            "synth.days": "45",
            "pipeline.target_level": "feeder",
        }

    def test_unknown_key_names_file_and_line(self):
        with pytest.raises(ConfigError, match=r"settings\.cfg:2: unknown key"):
            parse_config_text("seed = 1\nbogus = 2\n", where="settings.cfg")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match=":1: expected 'key = value'"):
            parse_config_text("just some words")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match=":3: duplicate key"):
            parse_config_text("seed = 1\n\nseed = 2")

    def test_empty_is_valid(self):
        assert parse_config_text("") == {}


class TestBuildRunConfig:
    def test_empty_config_gives_defaults(self):
        run = build_run_config({})
        assert run.site.latitude == pytest.approx(39.74)
        assert run.pipeline.seed == 0
        assert run.synth.seed == 0
        assert run.pipeline.max_retries == 5
        assert run.input_path is None
        assert run.out_dir is None

    def test_defaults_come_from_the_dataclasses(self):
        run = build_run_config({})
        assert run.site == DEFAULT_SITE
        assert run.pipeline == PipelineConfig()
        assert run.synth == SynthConfig()

    def test_seed_flows_to_both_configs(self):
        run = build_run_config({"seed": "9"})
        assert run.pipeline.seed == 9
        assert run.synth.seed == 9

    def test_seed_override_wins(self):
        run = build_run_config({"seed": "9"}, seed_override=123)
        assert run.pipeline.seed == 123
        assert run.synth.seed == 123

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="site.latitude must be a number"):
            build_run_config({"site.latitude": "north"})

    def test_bad_integer(self):
        with pytest.raises(ConfigError, match="net.delay_d must be an integer"):
            build_run_config({"net.delay_d": "6.5"})

    def test_bad_date(self):
        with pytest.raises(ConfigError, match="must be YYYY-MM-DD"):
            build_run_config({"synth.start": "March 1st"})

    def test_bad_target_level(self):
        with pytest.raises(ConfigError):
            build_run_config({"pipeline.target_level": "rooftop"})

    def test_invalid_value_surfaces_as_config_error(self):
        with pytest.raises(ConfigError):
            build_run_config({"site.system_efficiency": "1.5"})

    def test_fractions_parsed(self):
        run = build_run_config({"pipeline.fractions": "0.25, 0.5, 0.96"})
        assert run.pipeline.capacity_fractions == (0.25, 0.5, 0.96)

    def test_fractions_need_three(self):
        with pytest.raises(ConfigError, match="three comma-separated"):
            build_run_config({"pipeline.fractions": "0.25, 0.5"})

    def test_baseline_net_is_the_net(self):
        run = build_run_config({"net.delay_d": "4", "net.max_epochs": "500"})
        assert run.pipeline.baseline_net == run.pipeline.fit_net
        assert run.pipeline.baseline_net == run.pipeline.narx_net
        assert run.pipeline.baseline_net.delay_d == 4
        for key in ("baseline.delay_d", "baseline.max_epochs"):
            with pytest.raises(ConfigError, match="unknown key"):
                parse_config_text(f"{key} = 4")


def rows_file(tmp_path, rows, header=CSV_HEADER):
    path = tmp_path / "data.csv"
    path.write_text("\n".join([header, *rows]) + "\n", encoding="ascii")
    return path


class TestLoadCsv:
    def test_three_rows_one_series(self, tmp_path):
        path = rows_file(
            tmp_path,
            [
                "2023-03-01T00:00:00Z,customer,c0,1.5",
                "2023-03-01T01:00:00Z,customer,c0,2.5",
                "2023-03-01T02:00:00Z,customer,c0,0",
            ],
        )
        (series,) = load_csv(path)
        assert series.n == 3
        assert series.level is C
        assert series.site_id == "c0"
        assert series.start == utc_datetime(2023, 3, 1)
        assert np.array_equal(series.values, [1.5, 2.5, 0.0])

    def test_rows_in_any_order(self, tmp_path):
        # three series over the same stamps, rows shuffled across series
        stamps = [f"2023-03-01T{h:02d}:00:00Z" for h in range(6)]
        rows = [
            f"{ts},{level},{sid},{k * h}.5"
            for k, (level, sid) in enumerate(
                [("customer", "c0"), ("feeder", "f0"), ("substation", "s0")], start=1
            )
            for h, ts in enumerate(stamps)
        ]
        order = np.random.default_rng(8).permutation(len(rows))
        path = rows_file(tmp_path, [rows[i] for i in order])
        series = load_csv(path)
        assert [(s.level, s.site_id) for s in series] == [
            (C, "c0"), (F, "f0"), (S, "s0"),
        ]
        for k, s in enumerate(series, start=1):
            assert s.start == utc_datetime(2023, 3, 1)
            assert np.array_equal(s.values, [k * h + 0.5 for h in range(6)])

    def test_second_series_at_a_level_fails_at_its_line(self, tmp_path):
        path = rows_file(
            tmp_path,
            [
                "2023-03-01T00:00:00Z,substation,s,30.0",
                "2023-03-01T00:00:00Z,customer,c1,1.0",
                "2023-03-01T01:00:00Z,customer,c1,1.5",
                "2023-03-01T00:00:00Z,customer,c0,2.0",
                "2023-03-01T00:00:00Z,feeder,f0,10.0",
            ],
        )
        with pytest.raises(
            InputError,
            match=r"data.csv line 5: second customer series 'c0' "
            r"\(the first is 'c1'\); need one series per level$",
        ):
            load_csv(path)

    def test_missing_hour_named(self, tmp_path):
        path = rows_file(
            tmp_path,
            [
                "2023-03-01T00:00:00Z,customer,c0,1.0",
                "2023-03-01T02:00:00Z,customer,c0,3.0",
            ],
        )
        with pytest.raises(InputError, match="2023-03-01T01:00:00Z"):
            load_csv(path)

    def test_first_of_two_gaps_named(self, tmp_path):
        # rows out of order; the gaps are 2023-03-02T00 and 2023-03-02T02
        stamps = ["2023-03-02T03", "2023-03-01T22", "2023-03-02T01", "2023-03-01T23"]
        path = rows_file(tmp_path, [f"{ts}:00:00Z,feeder,f0,1.0" for ts in stamps])
        with pytest.raises(
            InputError,
            match=r"data.csv: series \(feeder, f0\) is missing hour 2023-03-02T00:00:00Z$",
        ):
            load_csv(path)

    def test_series_across_the_epoch(self, tmp_path):
        stamps = [
            "1969-12-31T22:00:00Z",
            "1969-12-31T23:00:00Z",
            "1970-01-01T00:00:00Z",
            "1970-01-01T01:00:00Z",
        ]
        path = rows_file(
            tmp_path, [f"{ts},customer,c0,{k}" for k, ts in enumerate(reversed(stamps))]
        )
        (series,) = load_csv(path)
        assert series.start == utc_datetime(1969, 12, 31, 22)
        assert np.array_equal(series.values, [3.0, 2.0, 1.0, 0.0])

    def test_duplicate_row(self, tmp_path):
        path = rows_file(
            tmp_path,
            [
                "2023-03-01T00:00:00Z,customer,c0,1.0",
                "2023-03-01T00:00:00Z,customer,c0,1.0",
            ],
        )
        with pytest.raises(InputError, match="line 3"):
            load_csv(path)

    def test_duplicate_row_in_second_series(self, tmp_path):
        path = rows_file(
            tmp_path,
            [
                "2023-03-01T00:00:00Z,customer,c0,1.0",
                "2023-03-01T00:00:00Z,feeder,f0,2.0",
                "2023-03-01T01:00:00Z,customer,c0,1.0",
                "2023-03-01T01:00:00Z,feeder,f0,2.0",
                "2023-03-01T00:00:00Z,feeder,f0,3.0",
            ],
        )
        with pytest.raises(InputError, match=r"line 6: .*feeder, f0"):
            load_csv(path)

    @pytest.mark.parametrize(
        "stamp",
        [
            "2023-03-01T05:00:00Z",
            "2024-02-29T23:00:00Z",
            "0001-01-01T00:00:00Z",
            "9999-12-31T23:00:00Z",
            "2023-02-29T00:00:00Z",
            "2023-04-31T00:00:00Z",
            "2023-13-01T00:00:00Z",
            "0000-01-01T00:00:00Z",
            "2023-03-01T24:00:00Z",
            "2023-3-1T5:00:00Z",
            "2023-03-01t05:00:00z",
            "2023-03-01T05:00:00",
        ],
    )
    def test_timestamps_read_as_strptime_reads_them(self, tmp_path, stamp):
        """Of the stamps strptime reads, only the zero-padded upper-case
        form `write_csv` writes loads; every other stamp is rejected."""
        path = rows_file(tmp_path, [f"{stamp},customer,c0,1.0"])
        if stamp in (
            "2023-03-01T05:00:00Z",
            "2024-02-29T23:00:00Z",
            "0001-01-01T00:00:00Z",
            "9999-12-31T23:00:00Z",
        ):
            (series,) = load_csv(path)
            expected = datetime.strptime(stamp, "%Y-%m-%dT%H:%M:%SZ")
            assert series.start == expected.replace(tzinfo=timezone.utc)
        else:
            with pytest.raises(InputError, match=f"line 2: bad timestamp '{stamp}'"):
                load_csv(path)

    def test_half_hour_timestamp(self, tmp_path):
        path = rows_file(tmp_path, ["2016-07-01T12:30:00Z,customer,c0,1.0"])
        with pytest.raises(InputError, match="not hour-aligned"):
            load_csv(path)

    @pytest.mark.parametrize(
        "stamp,fault",
        [
            ("2023-03-01T5:00:00Z", "bad timestamp '{}'"),
            ("2023-03-01T05:30:00Z", "timestamp '{}' is not hour-aligned"),
            ("2023-03-01T24:00:00Z", "bad timestamp '{}'"),
            ("2023-03-01T05:00:00z", "bad timestamp '{}'"),
            ("2023-03-01T05:00:00Z ", "bad timestamp '{}'"),
        ],
    )
    def test_a_seen_day_lets_no_bad_hour_through(self, tmp_path, stamp, fault):
        # line 2 parses the day 2023-03-01, so line 3's date is not parsed again
        path = rows_file(
            tmp_path,
            ["2023-03-01T05:00:00Z,customer,c0,1.0", f"{stamp},customer,c0,2.0"],
        )
        message = f"data.csv line 3: {fault.format(stamp)}"
        with pytest.raises(InputError, match=re.escape(message) + "$"):
            load_csv(path)

    def test_bad_header(self, tmp_path):
        path = rows_file(
            tmp_path, ["2023-03-01T00:00:00Z,customer,c0,1.0"], header="ts,lvl,id,kw"
        )
        with pytest.raises(InputError, match="line 1"):
            load_csv(path)

    @pytest.mark.parametrize(
        "row,fragment",
        [
            ("2023-03-01T00:00:00Z,customer,c0", "4 fields"),
            ("2023-03-01T00:00:00Z,attic,c0,1.0", "line 2"),
            ("2023-03-01T00:00:00Z,customer,,1.0", "empty series_id"),
            ("2023-03-01T00:00:00Z,customer,c0,one", "bad power"),
            ("2023-03-01T00:00:00Z,customer,c0,nan", "line 2: bad power value 'nan'"),
            ("2023-03-01T00:00:00Z,customer,c0,inf", "line 2: bad power value 'inf'"),
            ("2023-03-01T00:00:00Z,customer,c0,-inf", "line 2: bad power value '-inf'"),
            ("2023-03-01T00:00:00Z,customer,c0,1e999", "line 2: bad power value"),
            ("yesterday,customer,c0,1.0", "bad timestamp"),
        ],
    )
    def test_bad_rows(self, tmp_path, row, fragment):
        path = rows_file(tmp_path, [row])
        with pytest.raises(InputError, match=fragment):
            load_csv(path)

    @pytest.mark.parametrize("label", ["Feeder", " feeder"])
    def test_only_the_written_level_labels_load(self, tmp_path, label):
        path = rows_file(
            tmp_path,
            [
                "2023-03-01T00:00:00Z,feeder,f0,1.0",
                f"2023-03-01T01:00:00Z,{label},f0,2.0",
            ],
        )
        with pytest.raises(
            InputError, match=f"line 3: unknown measurement level: '{label}'$"
        ):
            load_csv(path)

    @pytest.mark.parametrize(
        "rows,header",
        [
            (["2023-03-01T00:00:00Z,customer,c0,1.0"], "ts,lvl,id,kw"),
            (["2023-03-01T00:00:00Z,customer,c0"], CSV_HEADER),
            (["2023-03-01T00:00,customer,c0,1.0"], CSV_HEADER),
            (["2023-03-01T00:30:00Z,customer,c0,1.0"], CSV_HEADER),
            (["2023-03-01T00:00:00Z,attic,c0,1.0"], CSV_HEADER),
            (["2023-03-01T00:00:00Z,customer,,1.0"], CSV_HEADER),
            (["2023-03-01T00:00:00Z,customer,c0,nan"], CSV_HEADER),
            (["2023-03-01T00:00:00Z,customer,c0,1.0"] * 2, CSV_HEADER),
            (
                [
                    "2023-03-01T00:00:00Z,customer,c0,1.0",
                    "2023-03-01T02:00:00Z,customer,c0,1.0",
                ],
                CSV_HEADER,
            ),
            ([], CSV_HEADER),
        ],
        ids=[
            "header", "fields", "timestamp", "half-hour", "level", "series-id",
            "power", "duplicate", "gap", "no-rows",
        ],
    )
    def test_every_error_names_the_file(self, tmp_path, rows, header):
        path = rows_file(tmp_path, rows, header=header)
        with pytest.raises(InputError) as info:
            load_csv(path)
        assert str(info.value).startswith(str(path))

    def test_header_only(self, tmp_path):
        path = rows_file(tmp_path, [])
        with pytest.raises(InputError, match="no data rows"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            load_csv(tmp_path / "nope.csv")

    @pytest.mark.parametrize("bad_row", [0, 2])
    def test_non_ascii_byte_names_its_line(self, tmp_path, bad_row):
        rows = [f"2023-03-01T0{h}:00:00Z,customer,c0,1.0" for h in range(3)]
        rows[bad_row] = rows[bad_row].replace("c0", "c\u00e9")
        path = tmp_path / "data.csv"
        path.write_bytes("\n".join([CSV_HEADER, *rows, ""]).encode("utf-8"))
        with pytest.raises(
            InputError, match=f"data.csv line {bad_row + 2}: non-ASCII byte 0xc3$"
        ):
            load_csv(path)

    ROWS = [f"2023-03-01T0{h}:00:00Z,customer,c0,{h}.5" for h in range(4)]

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_other_line_endings_load_as_lf(self, tmp_path, newline):
        lf = tmp_path / "lf.csv"
        lf.write_bytes("\n".join([CSV_HEADER, *self.ROWS, ""]).encode("ascii"))
        other = tmp_path / "other.csv"
        other.write_bytes(newline.join([CSV_HEADER, *self.ROWS, ""]).encode("ascii"))
        (want,), (got,) = load_csv(lf), load_csv(other)
        assert (got.level, got.site_id, got.start) == (want.level, want.site_id, want.start)
        assert np.array_equal(got.values, want.values)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_blank_lines_count_toward_error_line_numbers(self, tmp_path, newline):
        # line 1 header, 2 row, 3 blank, 4 blanks, 5 row, 6 bad row
        lines = [CSV_HEADER, self.ROWS[0], "", "  ", self.ROWS[1], "x,customer,c0,1"]
        path = tmp_path / "data.csv"
        path.write_bytes(newline.join(lines).encode("ascii"))
        with pytest.raises(InputError, match="data.csv line 6: bad timestamp 'x'$"):
            load_csv(path)

    def test_separators_other_than_newlines_end_no_row(self, tmp_path):
        # str.splitlines would break at \x1e and read two good rows
        path = rows_file(tmp_path, [self.ROWS[0] + "\x1e" + self.ROWS[1]])
        with pytest.raises(InputError, match="line 2: expected 4 fields, got 7"):
            load_csv(path)

    def test_non_ascii_byte_far_into_the_file_names_its_line(self, tmp_path):
        start = utc_datetime(2023, 3, 1)
        rows = [
            f"{(start + h * HOUR).strftime('%Y-%m-%dT%H:%M:%SZ')},customer,c0,{h}"
            for h in range(3000)
        ]
        bad_line = 2500  # past the first 64 KiB of the file
        rows[bad_line - 2] = rows[bad_line - 2].replace("c0", "c\u00e9")
        path = tmp_path / "data.csv"
        path.write_bytes("\n".join([CSV_HEADER, *rows, ""]).encode("utf-8"))
        assert len("\n".join([CSV_HEADER, *rows[: bad_line - 2]])) > 64 * 1024
        with pytest.raises(
            InputError, match=f"data.csv line {bad_line}: non-ASCII byte 0xc3$"
        ):
            load_csv(path)

    def test_faults_are_reported_in_file_order(self, tmp_path):
        rows = ["yesterday,customer,c0,1.0", "2023-03-01T00:00:00Z,customer,c\u00e9,1.0"]
        path = tmp_path / "data.csv"
        path.write_bytes("\n".join([CSV_HEADER, *rows, ""]).encode("utf-8"))
        with pytest.raises(InputError, match="line 2: bad timestamp 'yesterday'$"):
            load_csv(path)

    def test_non_ascii_header_names_line_one(self, tmp_path):
        header = CSV_HEADER.replace("level", "l\u00e9vel")
        path = tmp_path / "data.csv"
        path.write_bytes("\n".join([header, self.ROWS[0], ""]).encode("utf-8"))
        with pytest.raises(InputError, match="data.csv line 1: non-ASCII byte 0xc3$"):
            load_csv(path)

    def test_closes_its_file_when_a_row_fails(self, tmp_path):
        path = rows_file(tmp_path, [self.ROWS[0], "2023-03-01T01:00:00Z,customer,c0,nan"])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(InputError, match="line 3: bad power value 'nan'$"):
                load_csv(path)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_peak_memory_is_a_small_multiple_of_the_file(self, tmp_path):
        """One year of three series (about 1.36 MB): reading line by line
        keeps neither the file's text nor its list of lines."""
        start = utc_datetime(2023, 1, 1)
        values = np.random.default_rng(3).uniform(0.0, 50.0, 8760)
        series = [HourlyPowerSeries(f"{lv.label[0]}0", lv, start, values) for lv in (C, F, S)]
        path = tmp_path / "year.csv"
        write_csv(path, series)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            load_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * size, f"peak {peak} B is {peak / size:.2f}x the {size} B file"


# the one stamp form read, as `load_csv` read it one line at a time
REFERENCE_STAMP = re.compile(
    r"([0-9]{4})-([0-9]{2})-([0-9]{2})T([0-9]{2}):([0-9]{2}):([0-9]{2})Z"
)


def reference_load_csv(path):
    """The reader before chunking: one line at a time, each field checked
    as it is read. Chunked, load_csv must return its series, as (level,
    id, start, values), or raise its error text."""
    groups, ids = {}, {}
    with open(path, encoding="latin-1") as fh:
        assert fh.readline() == CSV_HEADER + "\n"
        for lineno, line in enumerate(fh, start=2):
            where = f"{path} line {lineno}"
            if not line.isascii():
                byte = next(ch for ch in line if not ch.isascii())
                raise InputError(f"{where}: non-ASCII byte {ord(byte):#04x}")
            parts = line.split(",")
            if len(parts) != 4:
                if not line.strip():
                    continue
                raise InputError(f"{where}: expected 4 fields, got {len(parts)}")
            stamp, label, series_id, power_text = parts
            fields = REFERENCE_STAMP.fullmatch(stamp)
            try:
                ts = datetime(*map(int, fields.groups()), tzinfo=timezone.utc)
            except (AttributeError, ValueError):
                raise InputError(f"{where}: bad timestamp {stamp!r}") from None
            if ts.minute or ts.second:
                raise InputError(f"{where}: timestamp {stamp!r} is not hour-aligned")
            rows = groups.get((label, series_id))
            if rows is None:
                try:
                    level = MeasurementLevel.from_label(label)
                except ValueError as exc:
                    raise InputError(f"{where}: {exc}") from None
                if not series_id:
                    raise InputError(f"{where}: empty series_id")
                if level in ids:
                    raise InputError(
                        f"{where}: second {label} series {series_id!r} "
                        f"(the first is {ids[level]!r}); need one series per level"
                    )
                ids[level] = series_id
                rows = groups[(label, series_id)] = {}
            try:
                power = float(power_text)
            except ValueError:
                power = math.nan
            if not math.isfinite(power):
                bad = power_text.rstrip("\n")
                raise InputError(f"{where}: bad power value {bad!r}")
            if ts in rows:
                raise InputError(f"{where}: duplicate ({stamp}, {label}, {series_id})")
            rows[ts] = power
    if not groups:
        raise InputError(f"{path}: no data rows")
    out = []
    for level, series_id in sorted(ids.items()):
        rows = groups[(level.label, series_id)]
        stamps = sorted(rows)
        for k, ts in enumerate(stamps):
            if ts != stamps[0] + k * HOUR:
                raise InputError(
                    f"{path}: series ({level.label}, {series_id}) is missing hour "
                    f"{stamps[0] + k * HOUR:%Y-%m-%dT%H:%M:%SZ}"
                )
        out.append((level, series_id, stamps[0], np.array([rows[ts] for ts in stamps])))
    return out


FAULTS = [
    "bad stamp", "half-hour stamp", "3 fields", "bad power", "nan",
    "duplicate", "second series", "non-ASCII byte",
]


@st.composite
def chunked_files(draw):
    """A CSV file of three series, at most one bad line, and a read size
    that puts the bad line (or another) first or last in its chunk: the
    file's bytes, the read size and that line's place."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_hours = draw(st.integers(2, 60))
    start = utc_datetime(2023, 3, 1) + draw(st.integers(0, 47)) * HOUR
    lines = []
    for label, series_id in (("customer", "c0"), ("feeder", "f0"), ("substation", "s0")):
        values = rng.uniform(0.0, 50.0, n_hours)
        values[rng.random(n_hours) < 0.4] = 0.0
        for h, v in enumerate(values.tolist()):
            stamp = f"{start + h * HOUR:%Y-%m-%dT%H:%M:%SZ}"
            lines.append(f"{stamp},{label},{series_id},{v:.17g}")
    if draw(st.booleans()):
        lines = [lines[i] for i in rng.permutation(len(lines))]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(int(rng.integers(len(lines) + 1)), draw(st.sampled_from(["", "  "])))
    rows = [i for i, line in enumerate(lines) if line.strip()]
    at = draw(st.sampled_from(rows))
    place = draw(st.sampled_from(["first", "last"]))
    stamp, label, series_id, power = lines[at].split(",")
    fault = draw(st.sampled_from([None, *FAULTS]))
    if fault == "bad stamp":
        stamp = draw(st.sampled_from(["yesterday", "2023-02-30T01:00:00Z", stamp[:11]]))
    elif fault == "half-hour stamp":
        stamp = stamp[:14] + "30:00Z"
    elif fault == "bad power":
        power = "one"
    elif fault == "nan":
        power = "nan"
    elif fault == "second series":
        series_id += "x"
    elif fault == "non-ASCII byte":
        series_id += "é"
    lines[at] = f"{stamp},{label},{series_id},{power}"
    if fault == "3 fields":
        lines[at] = f"{stamp},{label},{series_id}"
    elif fault == "duplicate":
        twins = [i for i in rows if i != at and f",{label}," in lines[i]]
        # or the nearest on the side of the line's chunk: in rows in
        # series order, the same chunk
        inside = [i for i in twins if (i > at) == (place == "first")]
        if inside and draw(st.booleans()):
            twins = [min(inside, key=lambda i: abs(i - at))]
        lines[at] = lines[draw(st.sampled_from(twins))]
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    end = newline if draw(st.booleans()) else ""
    data = (newline.join([CSV_HEADER, *lines]) + end).encode("utf-8")
    # the read size: reads are cut after their last newline, counted in
    # the characters `load_csv` reads after its header line
    ends = np.cumsum([len(line.encode("utf-8")) + 1 for line in lines])
    first, last = (0 if at == 0 else int(ends[at - 1])), int(ends[at])
    k = draw(st.integers(1, 8))
    if place == "first":  # the k-th read ends inside the line
        lo, hi = first, last - 1
    else:  # the k-th read ends after the line's newline, inside the next
        lo, hi = last, (int(ends[at + 1]) - 1 if at + 1 < len(lines) else last)
    size = max(1, -(-lo // k))
    if size * k > hi:
        size, k = max(1, lo), 1
    return data, size, at, place


class TestChunkedLoadCsv:
    @pytest.mark.parametrize(
        "rows,message",
        [
            # a row of three lines: a stamp, a blank line and a power
            (["2023-03-01T01:00:00Z", "", "1.0"], "line 3: expected 4 fields, got 1"),
            # two rows' fields on a line of 7 and a line of 1
            (
                ["2023-03-01T01:00:00Z,customer,c0,1.0,customer,c0,2023-03-01T02:00:00Z",
                 "2.0"],
                "line 3: expected 4 fields, got 7",
            ),
        ],
    )
    def test_fields_across_lines_are_no_rows(self, tmp_path, rows, message):
        # good rows of the series around them, so all go as one block
        path = rows_file(
            tmp_path,
            [
                "2023-03-01T00:00:00Z,customer,c0,0.5",
                *rows,
                "2023-03-01T03:00:00Z,customer,c0,0.5",
            ],
        )
        with pytest.raises(InputError, match=re.escape(f"data.csv {message}") + "$"):
            load_csv(path)

    @given(case=chunked_files())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_line_reader(self, tmp_path_factory, case):
        data, size, at, place = case
        path = tmp_path_factory.getbasetemp() / "chunked.csv"
        path.write_bytes(data)
        with open(path, encoding="latin-1") as fh:
            fh.readline()
            with mock.patch.object(csvio, "_READ_CHUNK_CHARS", size):
                chunks = [text.count("\n") for text in csvio._line_chunks(fh)]
        # the line ``at`` opens or closes a chunk, as drawn
        bounds = np.cumsum([0, *chunks])
        assert at in (bounds[:-1] if place == "first" else bounds[1:] - 1) or (
            place == "first" and at == 0
        )
        try:
            want = reference_load_csv(path)
        except InputError as exc:
            want = str(exc)
        try:
            with mock.patch.object(csvio, "_READ_CHUNK_CHARS", size):
                got = [(s.level, s.site_id, s.start, s.values) for s in load_csv(path)]
        except InputError as exc:
            got = str(exc)
        if isinstance(want, str):
            assert got == want
        else:
            assert [g[:3] for g in got] == [w[:3] for w in want]
            for g, w in zip(got, want):
                assert g[3].tobytes() == w[3].tobytes()


class TestMissingHours:
    def test_gaps_in_order(self):
        assert list(missing_hours([5, 6, 9, 12])) == [7, 8, 10, 11]
        assert list(missing_hours([5, 6, 7])) == []
        assert list(missing_hours([5])) == []
        assert list(missing_hours([])) == []

    def test_the_first_without_the_rest(self):
        # rows in years 1 and 9999 leave about 8.8e7 hours between them
        assert next(missing_hours([0, 10**12])) == 1

    @given(
        hours=st.lists(st.integers(-3000, 3000), min_size=1, max_size=40, unique=True)
        .map(sorted)
    )
    def test_is_the_range_less_the_hours(self, hours):
        want = sorted(set(range(hours[0], hours[-1] + 1)) - set(hours))
        assert list(missing_hours(hours)) == want


def reference_csv(series_list) -> bytes:
    """Row-by-row writer, one strftime per row: what write_csv must write."""
    lines = [CSV_HEADER]
    for s in sorted(series_list, key=lambda s: (int(s.level), s.site_id)):
        for i in range(s.n):
            lines.append(
                f"{s.timestamp(i).strftime('%Y-%m-%dT%H:%M:%SZ')},{s.level.label},"
                f"{s.site_id},{s.values[i]:.17g}"
            )
    return ("\n".join(lines) + "\n").encode("ascii")


def whole_series_csv(series_list) -> bytes:
    """The writer before chunking: one formatting of each distinct range's
    stamps and one string per series. Chunked, write_csv must match it."""
    out = [CSV_HEADER + "\n"]
    stamps = {}
    for s in sorted(series_list, key=lambda s: (int(s.level), s.site_id)):
        key = (s.start, s.n)
        if key not in stamps:
            stamps[key] = hour_stamps(s.start, s.n)
        tag = f",{s.level.label},{s.site_id},"
        rows = zip(stamps[key], s.values.tolist())
        out.append("".join([f"{ts}{tag}{v:.17g}\n" for ts, v in rows]))
    return "".join(out).encode("ascii")


class TestWriteCsv:
    def series(self, site_id, level, start, n, seed):
        values = np.random.default_rng(seed).uniform(0.0, 50.0, n)
        return HourlyPowerSeries(site_id, level, start, values)

    def test_shared_range_matches_reference(self, tmp_path):
        start = utc_datetime(2023, 12, 31, 21)
        series = [
            self.series("s0", S, start, 60, 1),
            self.series("c1", C, start, 60, 2),
            self.series("c0", C, start, 60, 3),
            self.series("f0", F, start, 60, 4),
        ]
        write_csv(tmp_path / "a.csv", series)
        assert (tmp_path / "a.csv").read_bytes() == reference_csv(series)

    def test_distinct_ranges_match_reference(self, tmp_path):
        series = [
            self.series("c0", C, utc_datetime(2024, 2, 28, 5), 60, 1),
            # same length, other start
            self.series("c1", C, utc_datetime(2023, 12, 31, 21), 60, 2),
            # same start, other length
            self.series("f0", F, utc_datetime(2024, 2, 28, 5), 30, 3),
            self.series("s0", S, utc_datetime(2024, 2, 28, 5) + 7 * HOUR, 1, 4),
        ]
        write_csv(tmp_path / "a.csv", series)
        assert (tmp_path / "a.csv").read_bytes() == reference_csv(series)

    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 2 * 4096 + 7])
    def test_chunk_boundaries_match_whole_series_writer(self, tmp_path, n):
        assert csvio._WRITE_CHUNK_ROWS == 4096
        midnight = utc_datetime(2023, 12, 31)
        series = [
            # two series on one range
            self.series("c0", C, midnight, n, 1),
            self.series("f0", F, midnight, n, 2),
            # off midnight, so chunks start at other hours of the day
            self.series("s0", S, midnight + 13 * HOUR, n, 3),
        ]
        write_csv(tmp_path / "a.csv", series)
        assert (tmp_path / "a.csv").read_bytes() == whole_series_csv(series)

    def test_memory_is_one_chunk_not_one_series(self, tmp_path):
        start = utc_datetime(2023, 3, 1)
        series = [self.series(f"{level.label}0", level, start, 40_000, k)
                  for k, level in enumerate(MeasurementLevel)]
        path = tmp_path / "long.csv"
        tracemalloc.start()
        try:
            write_csv(path, series)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the whole-series writer held each series as text: about 10 MiB here
        assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"
        assert len(path.read_text().splitlines()) == 1 + 3 * 40_000

    def test_closes_its_file_when_a_write_fails(self, tmp_path, monkeypatch):
        start = utc_datetime(2023, 3, 1)
        series = [
            self.series("c0", C, start, 5, 1),
            self.series("f0", F, start + HOUR, 5, 2),  # a second range of stamps
        ]
        stamps = hour_stamps
        calls = []

        def fail_on_second_range(first, n):
            calls.append(first)
            if len(calls) == 2:
                raise OSError("disk full")
            return stamps(first, n)

        # the second range is formatted after the first series is written
        monkeypatch.setattr(csvio, "hour_stamps", fail_on_second_range)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(OSError, match="disk full"):
                write_csv(tmp_path / "a.csv", series)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert len((tmp_path / "a.csv").read_text().splitlines()) == 1 + 5

    @pytest.mark.parametrize("site_id", ["100%", "%.17g", "%%", "%(x)s"])
    def test_ids_holding_percent_match_reference(self, tmp_path, site_id):
        start = utc_datetime(2023, 3, 1, 22)
        series = [self.series(site_id, C, start, 30, 1), self.series("f0", F, start, 30, 2)]
        path = tmp_path / "a.csv"
        write_csv(path, series)
        assert path.read_bytes() == reference_csv(series)
        back, _ = load_csv(path)
        assert back.site_id == site_id
        assert np.array_equal(back.values, series[0].values)

    @pytest.mark.parametrize("site_id", ["", "a,b", "x\ny", "x\ry", "f\u00e9"])
    def test_rejects_an_id_load_csv_cannot_read(self, tmp_path, site_id):
        start = utc_datetime(2023, 3, 1)
        series = [
            self.series("c0", C, start, 5, 1),
            self.series(site_id, F, start, 5, 2),
        ]
        path = tmp_path / "a.csv"
        with pytest.raises(ValueError, match=re.escape(f"series id {site_id!r}")):
            write_csv(path, series)
        assert not path.exists()


class TestCsvRoundTrip:
    def test_bit_exact(self, tmp_path):
        # values chosen to stress the 17-significant-digit serialization
        values = np.array(
            [np.pi, 1.0 / 3.0, 1e300, 5e-324, 0.0, -2.5, 123456.789012345678]
        )
        series = [
            HourlyPowerSeries("c0", C, utc_datetime(2023, 3, 1), values),
            HourlyPowerSeries("f0", F, utc_datetime(2023, 3, 1), values * 7.0),
        ]
        path = tmp_path / "rt.csv"
        write_csv(path, series)
        back = load_csv(path)
        assert len(back) == 2
        for orig, loaded in zip(series, back):
            assert loaded.site_id == orig.site_id
            assert loaded.level is orig.level
            assert loaded.start == orig.start
            assert np.array_equal(loaded.values, orig.values)

    def test_write_is_deterministic(self, tmp_path):
        series = [
            HourlyPowerSeries("x", C, utc_datetime(2023, 3, 1), np.arange(5.0))
        ]
        write_csv(tmp_path / "a.csv", series)
        write_csv(tmp_path / "b.csv", series)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_years_before_1000_keep_four_digits(self, tmp_path):
        start = utc_datetime(999, 12, 31, 22)
        path = tmp_path / "rt.csv"
        write_csv(path, [HourlyPowerSeries("c0", C, start, np.arange(4.0))])
        assert path.read_text().splitlines()[1:3] == [
            "0999-12-31T22:00:00Z,customer,c0,0",
            "0999-12-31T23:00:00Z,customer,c0,1",
        ]
        (back,) = load_csv(path)
        assert back.start == start
        assert np.array_equal(back.values, np.arange(4.0))


class TestTrimToOverlap:
    def test_clips_to_common_range(self):
        a = HourlyPowerSeries("a", C, utc_datetime(2023, 3, 1, 0), np.arange(10.0))
        b = HourlyPowerSeries("b", F, utc_datetime(2023, 3, 1, 3), np.arange(10.0))
        ta, tb = trim_to_overlap([a, b])
        assert ta.start == tb.start == utc_datetime(2023, 3, 1, 3)
        last = utc_datetime(2023, 3, 1, 9)
        assert ta.timestamp(ta.n - 1) == tb.timestamp(tb.n - 1) == last
        assert np.array_equal(ta.values, [3.0, 4, 5, 6, 7, 8, 9])
        assert np.array_equal(tb.values, [0.0, 1, 2, 3, 4, 5, 6])

    def test_disjoint_ranges(self):
        a = HourlyPowerSeries("a", C, utc_datetime(2023, 3, 1), np.ones(3))
        b = HourlyPowerSeries("b", F, utc_datetime(2023, 4, 1), np.ones(3))
        with pytest.raises(InputError, match="^series have no overlapping hours$"):
            trim_to_overlap([a, b])

    def test_edges_of_the_last_hours(self):
        a = HourlyPowerSeries("a", C, utc_datetime(2023, 3, 1), np.arange(3.0))
        # b starts the hour after a's last: nothing shared
        b = HourlyPowerSeries("b", F, utc_datetime(2023, 3, 1, 3), np.arange(3.0))
        with pytest.raises(InputError, match="^series have no overlapping hours$"):
            trim_to_overlap([a, b])
        # b starts at a's last: that hour is shared
        b = HourlyPowerSeries("b", F, utc_datetime(2023, 3, 1, 2), np.arange(3.0))
        ta, tb = trim_to_overlap([a, b])
        assert ta.start == tb.start == utc_datetime(2023, 3, 1, 2)
        assert (ta.values.tolist(), tb.values.tolist()) == ([2.0], [0.0])


# One generated dataset shared by every command test below. Tiny networks:
# these tests exercise plumbing and exit codes, not forecast quality.
TINY_KEYS = [
    "synth.n_customers = 4",
    "synth.n_feeders = 2",
    "synth.days = 40",
    "synth.meter_noise_sd = 0.05",
    "net.delay_d = 3",
    "net.hidden_width = 3",
    "net.max_epochs = 60",
    "net.patience = 15",
    "pipeline.max_retries = 1",
    "pipeline.fractions = 0.25, 0.5, 0.96",
    "seed = 7",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    config = root / "run.cfg"
    config.write_text(
        "\n".join(TINY_KEYS + [f"paths.input = {data_dir / 'dataset.csv'}"]) + "\n",
        encoding="ascii",
    )
    code = cmd_dispatch(["--config", str(config), "--out", str(data_dir), "synth"])
    assert code == 0
    return root, config, data_dir


class TestSynthCommand:
    def test_outputs(self, workspace):
        _, _, data_dir = workspace
        assert (data_dir / "dataset.csv").exists()
        text = (data_dir / "dataset_config.txt").read_text()
        assert "pipeline.fractions" in text
        assert "seed = 7" in text

    def test_requires_out_dir(self, workspace, capsys):
        _, config, _ = workspace
        assert cmd_dispatch(["--config", str(config), "synth"]) == 2
        assert "required" in capsys.readouterr().err

    def test_deterministic_and_seed_sensitive(self, workspace, tmp_path):
        _, config, data_dir = workspace
        again = tmp_path / "again"
        assert cmd_dispatch(["--config", str(config), "--out", str(again), "synth"]) == 0
        assert (again / "dataset.csv").read_bytes() == (
            data_dir / "dataset.csv"
        ).read_bytes()
        other = tmp_path / "other"
        assert (
            cmd_dispatch(
                ["--config", str(config), "--out", str(other), "--seed", "8", "synth"]
            )
            == 0
        )
        assert (other / "dataset.csv").read_bytes() != (
            data_dir / "dataset.csv"
        ).read_bytes()

    def test_loadable(self, workspace):
        _, _, data_dir = workspace
        series = load_csv(data_dir / "dataset.csv")
        assert [s.level for s in series] == [C, F, S]
        assert all(s.n == 40 * 24 for s in series)


class TestClearskyCommand:
    def test_stdout_without_out(self, workspace, capsys):
        _, config, _ = workspace
        code = cmd_dispatch(
            ["--config", str(config), "clearsky", "--days", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "timestamp_utc,power_kw,ghi_wm2"
        assert len(lines) == 1 + 48

    def test_bad_days(self, workspace, capsys):
        _, config, _ = workspace
        assert (
            cmd_dispatch(["--config", str(config), "clearsky", "--days", "0"]) == 2
        )
        capsys.readouterr()

    def test_start_flag(self, workspace, tmp_path, capsys):
        _, config, _ = workspace
        code = cmd_dispatch(
            [
                "--config", str(config), "--out", str(tmp_path),
                "clearsky", "--start", "2024-06-01", "--days", "1",
            ]
        )
        assert code == 0
        text = (tmp_path / "clearsky.csv").read_text()
        assert text.splitlines()[1].startswith("2024-06-01T00:00:00Z")


class TestPreprocessAndFit:
    def test_preprocess_outputs(self, workspace, tmp_path):
        _, config, _ = workspace
        code = cmd_dispatch(
            ["--config", str(config), "--out", str(tmp_path), "preprocess"]
        )
        assert code == 0
        index_lines = (tmp_path / "preprocessed.csv").read_text().splitlines()
        assert index_lines[0] == "timestamp_utc,level,index"
        summary = (tmp_path / "preprocess_summary.csv").read_text().splitlines()
        assert summary[0] == "level,offset_kw,clip_count,n_day_hours"
        assert [line.split(",")[0] for line in summary[1:]] == [
            "customer", "feeder", "substation",
        ]
        n_day = int(summary[1].split(",")[3])
        assert len(index_lines) == 1 + 3 * n_day

    def test_preprocess_uses_the_pipeline_day_mask(self, workspace, tmp_path):
        _, config, data_dir = workspace
        code = cmd_dispatch(
            ["--config", str(config), "--out", str(tmp_path), "preprocess"]
        )
        assert code == 0
        run = build_run_config(parse_config_text(config.read_text()))
        customer = load_csv(data_dir / "dataset.csv")[0]
        profile = clearsky_profile(run.site, customer.start, customer.n)
        n_mask = int(day_mask(profile, run.pipeline).sum())
        summary = (tmp_path / "preprocess_summary.csv").read_text().splitlines()
        assert [int(line.split(",")[3]) for line in summary[1:]] == [n_mask] * 3

    def test_fit_outputs(self, fit_dir):
        human = (fit_dir / "fit.csv").read_text().splitlines()
        full = (fit_dir / "fit_full.csv").read_text().splitlines()
        assert human[0] == "level,mape_pct,r_squared"
        assert len(human) == len(full) == 4
        for line in full[1:]:
            level, mape_text, r2_text = line.split(",")
            assert float(mape_text) >= 0.0
            assert float(r2_text) <= 1.0


class TestForecastCommand:
    def test_single_case(self, workspace, tmp_path):
        _, config, _ = workspace
        code = cmd_dispatch(
            [
                "--config", str(config), "--out", str(tmp_path),
                "forecast", "--day", "2023-04-08", "--case", "case1",
            ]
        )
        assert code == 0
        summary = (tmp_path / "forecast_summary.csv").read_text().splitlines()
        assert summary[0] == "case,weather,mape_pct,rmse_kw,r_squared,target_met"
        assert len(summary) == 2
        assert summary[1].startswith("case1,")
        series = (tmp_path / "forecast_case1.csv").read_text().splitlines()
        assert series[0] == "timestamp_utc,actual_kw,forecast_kw"
        assert len(series) == 25

    def test_series_are_the_cases_series(self, forecast_dir, cases_dir):
        # the same day in both commands: one per-case hourly format
        full = (cases_dir / "cases_full.csv").read_text().splitlines()
        weather, day = full[1].split(",")[:2]
        assert day == "2023-04-08"
        for case in ("case1", "case2", "case3", "case4"):
            assert (forecast_dir / f"forecast_{case}.csv").read_bytes() == (
                cases_dir / f"{case}_{weather}.csv"
            ).read_bytes()

    def test_feeder_target_writes_the_feeders_kw(self, workspace, tmp_path):
        _, config, data_dir = workspace
        feeder_cfg = tmp_path / "feeder.cfg"
        feeder_cfg.write_text(
            config.read_text() + "pipeline.target_level = feeder\n", encoding="ascii"
        )
        code = cmd_dispatch(
            [
                "--config", str(feeder_cfg), "--out", str(tmp_path / "out"),
                "forecast", "--day", "2023-04-08",
            ]
        )
        assert code == 0
        customer, feeder, _ = load_csv(data_dir / "dataset.csv")
        for case in ("case1", "case2", "case3", "case4"):
            lines = (tmp_path / "out" / f"forecast_{case}.csv").read_text().splitlines()
            stamps, actual, _ = zip(*(line.split(",") for line in lines[1:]))
            start = datetime.strptime(stamps[0], "%Y-%m-%dT%H:%M:%SZ")
            i0 = feeder.hour_index(start.replace(tzinfo=timezone.utc))
            assert list(actual) == [f"{v:.17g}" for v in feeder.values[i0 : i0 + 24]]
            assert list(actual) != [f"{v:.17g}" for v in customer.values[i0 : i0 + 24]]

    def test_unknown_case(self, workspace, tmp_path, capsys):
        _, config, _ = workspace
        code = cmd_dispatch(
            [
                "--config", str(config), "--out", str(tmp_path),
                "forecast", "--day", "2023-04-08", "--case", "case9",
            ]
        )
        assert code == 2
        assert "unknown case" in capsys.readouterr().err

    def test_day_without_history(self, workspace, tmp_path, capsys):
        _, config, _ = workspace
        code = cmd_dispatch(
            [
                "--config", str(config), "--out", str(tmp_path),
                "forecast", "--day", "2023-03-05", "--case", "case1",
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_failure_creates_no_out_dir(self, workspace, tmp_path, capsys):
        # every case runs before --out is made, so a failed run leaves no
        # empty or partial directory behind
        _, config, _ = workspace
        out = tmp_path / "out"
        code = cmd_dispatch(
            ["--config", str(config), "--out", str(out), "forecast", "--day", "2030-01-01"]
        )
        assert code == 1
        assert "not fully inside the dataset" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def fit_dir(workspace, tmp_path_factory):
    _, config, _ = workspace
    out = tmp_path_factory.mktemp("fit")
    assert cmd_dispatch(["--config", str(config), "--out", str(out), "fit"]) == 0
    return out


@pytest.fixture(scope="module")
def forecast_dir(workspace, tmp_path_factory):
    _, config, _ = workspace
    out = tmp_path_factory.mktemp("forecast")
    code = cmd_dispatch(
        ["--config", str(config), "--out", str(out), "forecast", "--day", "2023-04-08"]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def cases_dir(workspace, tmp_path_factory):
    _, config, _ = workspace
    out = tmp_path_factory.mktemp("cases")
    code = cmd_dispatch(
        ["--config", str(config), "--out", str(out), "cases", "--days", "1"]
    )
    assert code == 0
    return out


def as_text(cell: str) -> str:
    return cell


def as_pct(cell: str) -> str:
    return f"{100.0 * float(cell):.2f}"


def as_fixed(places: int):
    return lambda cell: cell and f"{float(cell):.{places}f}"


# each human table: the fixture whose directory holds it, and per column
# its name, the `_full` column it renders, and how
TABLE_VIEWS = {
    "fit": (
        "fit_dir",
        [
            ("level", "level", as_text),
            ("mape_pct", "mape", as_pct),
            ("r_squared", "r_squared", as_fixed(4)),
        ],
    ),
    "forecast_summary": (
        "forecast_dir",
        [
            ("case", "case", as_text),
            ("weather", "weather", as_text),
            ("mape_pct", "mape", as_pct),
            ("rmse_kw", "rmse_kw", as_fixed(2)),
            ("r_squared", "r_squared", as_fixed(4)),
            ("target_met", "target_met", as_text),
        ],
    ),
    "cases": (
        "cases_dir",
        [
            ("weather", "weather", as_text),
            ("case1_min_mape", "case1_min_mape", as_pct),
            ("case2_mape", "case2_mape", as_pct),
            ("case3_mape", "case3_mape", as_pct),
            ("case4_mape", "case4_mape", as_pct),
            ("reduction_vs_case1_pct", "reduction_vs_case1", as_pct),
        ],
    ),
}


class TestCasesCommand:
    def test_table_headers(self, cases_dir):
        human = (cases_dir / "cases.csv").read_text().splitlines()
        assert human[0] == (
            "weather,case1_min_mape,case2_mape,case3_mape,case4_mape,"
            "reduction_vs_case1_pct"
        )
        assert len(human) == 2  # one candidate day, one weather row
        full = (cases_dir / "cases_full.csv").read_text().splitlines()
        assert full[0].startswith("weather,forecast_day,")
        # dataset covers local days 0..39 but day 39's window overruns the
        # final UTC hours, so the last forecastable day is day 38
        assert full[1].split(",")[1] == "2023-04-08"

    @pytest.mark.parametrize("stem", sorted(TABLE_VIEWS))
    def test_human_table_renders_its_full_rows(self, request, stem):
        fixture, columns = TABLE_VIEWS[stem]
        out = request.getfixturevalue(fixture)
        human, full = (
            [line.split(",") for line in (out / name).read_text().splitlines()]
            for name in (f"{stem}.csv", f"{stem}_full.csv")
        )
        assert human[0] == [name for name, _, _ in columns]
        assert len(human) == len(full) > 1
        for human_row, full_row in zip(human[1:], full[1:]):
            cells = dict(zip(full[0], full_row))
            assert human_row == [render(cells[src]) for _, src, render in columns]

    def test_per_day_series_files(self, cases_dir):
        weather = (cases_dir / "cases.csv").read_text().splitlines()[1].split(",")[0]
        for case in ("case1", "case2", "case3", "case4"):
            lines = (cases_dir / f"{case}_{weather}.csv").read_text().splitlines()
            assert lines[0] == "timestamp_utc,actual_kw,forecast_kw"
            assert len(lines) == 25

    def test_deterministic_rerun(self, workspace, cases_dir, tmp_path):
        _, config, _ = workspace
        again = tmp_path / "again"
        code = cmd_dispatch(
            ["--config", str(config), "--out", str(again), "cases", "--days", "1"]
        )
        assert code == 0
        names = sorted(p.name for p in cases_dir.iterdir())
        assert sorted(p.name for p in again.iterdir()) == names
        for name in names:
            assert (again / name).read_bytes() == (cases_dir / name).read_bytes()

    def test_runs_from_a_moved_synth_directory(self, workspace, cases_dir, tmp_path):
        # dataset_config.txt names dataset.csv relative to its own directory
        _, config, _ = workspace
        made = tmp_path / "made"
        assert cmd_dispatch(["--config", str(config), "--out", str(made), "synth"]) == 0
        moved = made.rename(tmp_path / "moved")
        moved_config = moved / "dataset_config.txt"
        # the workspace's nets and retries, so the outputs are cases_dir's
        with open(moved_config, "a", encoding="ascii") as fh:
            fh.writelines(
                f"{key}\n" for key in TINY_KEYS if key.startswith(("net.", "pipeline.max_"))
            )
        out = tmp_path / "out"
        code = cmd_dispatch(
            ["--config", str(moved_config), "--out", str(out), "cases", "--days", "1"]
        )
        assert code == 0
        names = sorted(p.name for p in cases_dir.iterdir())
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == (cases_dir / name).read_bytes()

    @pytest.mark.parametrize("days", ["0", "-2"])
    def test_bad_days(self, workspace, tmp_path, capsys, days):
        _, config, _ = workspace
        code = cmd_dispatch(
            ["--config", str(config), "--out", str(tmp_path), "cases", "--days", days]
        )
        assert code == 2
        assert "--days must be >= 1" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_series_ids_change_no_output(self, workspace, cases_dir, tmp_path):
        """Labels: renaming every series id, to names that sort against the
        level order, leaves every file `cases` writes byte-identical."""
        _, _, data_dir = workspace
        ids = {"customer-0": "zz top", "feeder-0": "mid_7", "substation": "a"}
        lines = (data_dir / "dataset.csv").read_text(encoding="ascii").splitlines()
        renamed = [lines[0]]
        for line in lines[1:]:
            stamp, level, series_id, power = line.split(",")
            renamed.append(f"{stamp},{level},{ids[series_id]},{power}")
        data = tmp_path / "renamed.csv"
        data.write_text("\n".join(renamed) + "\n", encoding="ascii")
        config = tmp_path / "run.cfg"
        config.write_text(
            "\n".join(TINY_KEYS + [f"paths.input = {data}"]) + "\n", encoding="ascii"
        )
        out = tmp_path / "out"
        code = cmd_dispatch(
            ["--config", str(config), "--out", str(out), "cases", "--days", "1"]
        )
        assert code == 0
        names = sorted(p.name for p in cases_dir.iterdir())
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == (cases_dir / name).read_bytes()

    @pytest.fixture
    def short_config(self, tmp_path):
        """A 31-day dataset: no day has MIN_FIT_DAY_HOURS of history."""
        short_dir = tmp_path / "short"
        config = tmp_path / "short.cfg"
        config.write_text(
            "\n".join(
                [
                    "synth.n_customers = 4",
                    "synth.n_feeders = 2",
                    "synth.days = 31",
                    f"paths.input = {short_dir / 'dataset.csv'}",
                ]
            )
            + "\n",
            encoding="ascii",
        )
        assert cmd_dispatch(["--config", str(config), "--out", str(short_dir), "synth"]) == 0
        return config

    def test_too_short_for_any_day(self, short_config, tmp_path, capsys):
        code = cmd_dispatch(
            ["--config", str(short_config), "--out", str(tmp_path / "out"), "cases"]
        )
        assert code == 1
        assert NO_DAY in capsys.readouterr().err

    def test_too_short_raises_unforecastable(self, short_config):
        # the class ForecastDay.at raises for the same shortfall
        run = build_run_config(parse_config_text(short_config.read_text()))
        args = argparse.Namespace(trim_to_overlap=False, days=None)
        with pytest.raises(Unforecastable, match=f"^{NO_DAY}$"):
            cli.cmd_cases(run, args)

    def test_history_only_before_dark_days(self, tmp_path):
        # 70 days at 66 N from the autumn equinox: 361 day hours in all, so
        # every day with enough history behind it is dark
        site = replace(DEFAULT_SITE, latitude=66.0)
        scfg = SynthConfig(
            days=70, n_customers=4, n_feeders=2, seed=3,
            start_utc=utc_datetime(2023, 9, 23, 15),
        )
        dataset, profile = gen_dataset(scfg, site)
        mask = day_mask(profile, PipelineConfig())
        assert np.count_nonzero(mask) == MIN_FIT_DAY_HOURS + 1
        data = tmp_path / "north.csv"
        write_csv(data, [dataset.customer, dataset.feeder, dataset.substation])
        run = build_run_config(
            parse_config_text(f"site.latitude = 66\npaths.input = {data}\n")
        )
        args = argparse.Namespace(trim_to_overlap=False, days=None)
        with pytest.raises(Unforecastable, match=f"^{NO_DAY}$"):
            cli.cmd_cases(run, args)

    def test_fractional_tz_names_tz_offset(self, workspace, tmp_path, capsys):
        _, config, _ = workspace
        skewed = tmp_path / "skewed.cfg"
        skewed.write_text(config.read_text() + "site.tz_offset = 5.5\n", encoding="ascii")
        code = cmd_dispatch(
            ["--config", str(skewed), "--out", str(tmp_path / "out"), "cases"]
        )
        assert code == 1
        assert "tz_offset 5.5" in capsys.readouterr().err

    def test_every_offered_day_can_be_fitted(self, tmp_path):
        """Criterion 8's config at seed 5, on every valid day.

        Its first days with 30 calendar days of history hold fewer day
        hours than the fitting nets need, so they are not offered.
        """
        data_dir = tmp_path / "data"
        config = tmp_path / "run.cfg"
        config.write_text(
            "\n".join(
                [
                    "synth.n_customers = 4",
                    "synth.n_feeders = 2",
                    "synth.days = 40",
                    "net.delay_d = 3",
                    "net.hidden_width = 3",
                    "net.max_epochs = 60",
                    "net.patience = 15",
                    "pipeline.max_retries = 1",
                    f"paths.input = {data_dir / 'dataset.csv'}",
                ]
            )
            + "\n",
            encoding="ascii",
        )
        for args in (["--out", str(data_dir), "synth"],
                     ["--out", str(tmp_path / "out"), "cases"]):
            assert cmd_dispatch(["--config", str(config), "--seed", "5", *args]) == 0


def tiny_config(root, *keys: str):
    """`synth` TINY_KEYS' fleet, with ``keys`` set and 5-epoch nets, into
    ``root``; return the config that reads it."""
    config = root / "run.cfg"
    set_keys = tuple(k.split(" = ")[0] for k in keys) + ("net.max_epochs",)
    lines = [k for k in TINY_KEYS if not k.startswith(set_keys)]
    lines += [*keys, "net.max_epochs = 5", f"paths.input = {root / 'dataset.csv'}"]
    config.write_text("\n".join(lines) + "\n", encoding="ascii")
    assert cmd_dispatch(["--config", str(config), "--out", str(root), "synth"]) == 0
    return config


class TestDataEndingIn9999:
    """91 days that end at 9999-12-31T23:00:00Z, the last hour a stamp
    can name: no command may step to an hour or a day after it."""

    @pytest.fixture(scope="class")
    def config(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("y9999")
        config = tiny_config(root, "synth.start = 9999-10-02", "synth.days = 91")
        last = (root / "dataset.csv").read_text().splitlines()[-1]
        assert last.startswith("9999-12-31T23:00:00Z,")
        return config

    def test_cases(self, config, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["--config", str(config), "--out", str(out), "cases", "--days", "3"]
        assert cmd_dispatch(argv) == 0
        capsys.readouterr()
        rows = (out / "cases_full.csv").read_text().splitlines()[1:]
        assert rows and all(row.split(",")[1] <= "9999-12-31" for row in rows)
        # the two tables and one day series per case and row
        assert len(list(out.iterdir())) == 2 + 4 * len(rows)

    def test_trim_to_overlap_fit(self, config, tmp_path):
        for flags, out in (([], "plain"), (["--trim-to-overlap"], "trimmed")):
            argv = ["--config", str(config), "--out", str(tmp_path / out), *flags, "fit"]
            assert cmd_dispatch(argv) == 0
        for name in ("fit.csv", "fit_full.csv"):
            assert (tmp_path / "trimmed" / name).read_bytes() == (
                tmp_path / "plain" / name
            ).read_bytes()


class TestDataFromYear1EastOfGreenwich:
    """60 days from 0001-01-01T00:00:00Z at UTC+10: the first local day's
    midnight, 10 hours earlier, is no datetime."""

    @pytest.fixture(scope="class")
    def config(self, tmp_path_factory):
        return tiny_config(
            tmp_path_factory.mktemp("y1"),
            "synth.start = 0001-01-01",
            "synth.days = 60",
            "site.tz_offset = 10",
            "site.longitude = 150",
        )

    def test_cases(self, config, tmp_path, capsys):
        argv = ["--config", str(config), "--out", str(tmp_path), "cases", "--days", "2"]
        assert cmd_dispatch(argv) == 0
        capsys.readouterr()

    def test_first_local_day_is_not_inside(self, config, tmp_path, capsys):
        argv = ["--config", str(config), "--out", str(tmp_path), "forecast"]
        assert cmd_dispatch([*argv, "--day", "0001-01-01"]) == 1
        assert capsys.readouterr().err == (
            "error: forecast day 0001-01-01 is not fully inside the dataset\n"
        )


def test_commands_reach_csv_io_through_cli_globals(tmp_path, monkeypatch):
    """The benchmark traces CSV I/O by replacing `cli.load_csv` and
    `cli.write_csv`, so the commands must call those two names."""
    calls = {"write_csv": [], "load_csv": []}

    def counting(name):
        inner = getattr(cli, name)

        def wrapper(*args, **kwargs):
            result = inner(*args, **kwargs)
            calls[name].append((args, result))
            return result

        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counting(name))
    config = tiny_config(tmp_path)
    argv = ["--config", str(config), "--out", str(tmp_path / "out"), "cases", "--days", "2"]
    assert cmd_dispatch(argv) == 0
    [((_, written), _)] = calls["write_csv"]
    [(_, read)] = calls["load_csv"]
    assert len(written) == 3
    assert [(s.level, s.start, s.values.tobytes()) for s in read] == [
        (s.level, s.start, s.values.tobytes()) for s in written
    ]


# synth, a day-ahead forecast and compare_cases on two days, in one process
FORECAST_PROCESS = """
import sys
from pvlevels.cli import cmd_dispatch
config, out = sys.argv[1:]
for command in (["synth"], ["forecast", "--day", "2023-04-08"], ["cases", "--days", "2"]):
    assert cmd_dispatch(["--config", config, "--out", out, *command]) == 0, command
print("numpy.ma" in sys.modules)
"""


def test_forecast_process_never_loads_numpy_ma(tmp_path):
    """np.median imports numpy.ma for its NaN check: about 1.2 MiB and
    15 ms a process, for values that are always finite."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))

    def run(*args):
        proc = subprocess.run([sys.executable, *args], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()[-1]

    if run("-c", "import sys, numpy; print('numpy.ma' in sys.modules)") == "True":
        pytest.skip("import numpy alone loads numpy.ma (numpy 1.x)")
    out = tmp_path / "out"
    config = tmp_path / "run.cfg"
    keys = [k for k in TINY_KEYS if not k.startswith("net.max_epochs")]
    keys += ["net.max_epochs = 5", f"paths.input = {out / 'dataset.csv'}"]
    config.write_text("\n".join(keys) + "\n", encoding="ascii")
    assert run("-c", FORECAST_PROCESS, str(config), str(out)) == "False"


def test_docstring_lists_the_parser_subcommands():
    block = cli.__doc__.split("Subcommands:\n\n", 1)[1].split("\n\n", 1)[0]
    listed = [line.split()[0] for line in block.splitlines()]
    (subparsers,) = [
        action
        for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert listed == list(subparsers.choices)


class TestDispatchErrors:
    def test_unknown_subcommand(self, capsys):
        assert cmd_dispatch(["frobnicate"]) == 2
        capsys.readouterr()

    def test_no_subcommand(self, capsys):
        assert cmd_dispatch([]) == 2
        capsys.readouterr()

    def test_unreadable_config(self, tmp_path, capsys):
        code = cmd_dispatch(
            ["--config", str(tmp_path / "absent.cfg"), "clearsky", "--days", "1"]
        )
        assert code == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_config_with_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("volume = 11\n", encoding="ascii")
        assert cmd_dispatch(["--config", str(cfg), "clearsky", "--days", "1"]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_non_ascii_config_names_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes("seed = 7\n# caf\u00e9\n".encode("utf-8"))
        assert cmd_dispatch(["--config", str(cfg), "clearsky", "--days", "1"]) == 2
        assert f"error: {cfg}:2: non-ASCII byte 0xc3\n" in capsys.readouterr().err

    @pytest.mark.parametrize("end", ["\r", "\r\n"])
    def test_non_ascii_config_line_counts_every_line_end(self, tmp_path, capsys, end):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(f"seed = 7{end}# note{end}# caf\u00e9{end}".encode("utf-8"))
        assert cmd_dispatch(["--config", str(cfg), "clearsky", "--days", "1"]) == 2
        assert f"error: {cfg}:3: non-ASCII byte 0xc3\n" in capsys.readouterr().err

    def test_nel_byte_in_config_is_non_ascii(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed = 7\n# a\x85b\n")
        assert cmd_dispatch(["--config", str(cfg), "clearsky", "--days", "1"]) == 2
        assert f"error: {cfg}:2: non-ASCII byte 0x85\n" in capsys.readouterr().err

    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
    def test_config_lines_end_where_csv_rows_do(self, tmp_path, capsys, sep):
        # str.splitlines breaks at these; a config line, like a CSV row, does not
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = 7{sep}net.delay_d = 4\n", encoding="ascii")
        assert cmd_dispatch(["--config", str(cfg), "clearsky", "--days", "1"]) == 2
        value = f"7{sep}net.delay_d = 4"
        assert f"error: seed must be an integer, got {value!r}\n" in capsys.readouterr().err
        cfg.write_text(f"seed = 7\n# x{sep}y\nbogus = 1\n", encoding="ascii")
        assert cmd_dispatch(["--config", str(cfg), "clearsky", "--days", "1"]) == 2
        assert f"error: {cfg}:3: unknown key 'bogus'\n" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["pipeline.cloudy_threshold", "synth.meter_noise_sd"])
    def test_non_finite_number_names_its_key(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n", encoding="ascii")
        assert cmd_dispatch(["--config", str(cfg), "clearsky", "--days", "1"]) == 2
        assert f"error: {key} must be finite, got {value!r}\n" in capsys.readouterr().err

    def test_bad_fraction_names_its_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("pipeline.fractions = 1, x, 2\n", encoding="ascii")
        assert cmd_dispatch(["--config", str(cfg), "clearsky", "--days", "1"]) == 2
        assert (
            "error: pipeline.fractions must be a number, got 'x'\n"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["clearsky", "--start", "0001-01-01", "--days", "1"],
            ["clearsky", "--start", "9999-12-31", "--days", "2"],
            ["clearsky", "--start", "9900-01-01", "--days", "40000"],
        ],
    )
    def test_clearsky_outside_years_1_to_9999_exits_1(self, tmp_path, capsys, argv):
        assert cmd_dispatch(["--out", str(tmp_path), *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: clear-sky profile of ")
        assert err.endswith(" outside years 1-9999\n") and err.count("\n") == 1

    def test_synth_outside_years_1_to_9999_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("synth.start = 0001-01-01\n", encoding="ascii")
        code = cmd_dispatch(["--config", str(cfg), "--out", str(tmp_path), "synth"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == (
            "error: clear-sky profile of 2160 h from 0001-01-01T00:00:00Z reaches "
            "a site-local day (tz_offset -7 h) outside years 1-9999\n"
        )
        assert not (tmp_path / "dataset.csv").exists()

    def test_synth_running_past_9999_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("synth.start = 9900-01-01\nsynth.days = 40000\n", encoding="ascii")
        code = cmd_dispatch(["--config", str(cfg), "--out", str(tmp_path), "synth"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == (
            "error: clear-sky profile of 960000 h from 9900-01-01T00:00:00Z reaches "
            "a site-local day (tz_offset -7 h) outside years 1-9999\n"
        )
        assert not (tmp_path / "dataset.csv").exists()

    def test_missing_input_path(self, tmp_path, capsys):
        code = cmd_dispatch(["--out", str(tmp_path), "fit"])
        assert code == 2
        assert "paths.input" in capsys.readouterr().err

    def test_non_finite_power_names_its_line(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text(
            "\n".join(
                [
                    CSV_HEADER,
                    "2023-03-01T00:00:00Z,customer,c0,nan",
                    "2023-03-01T00:00:00Z,feeder,f0,1.0",
                    "2023-03-01T00:00:00Z,substation,s0,2.0",
                ]
            )
            + "\n",
            encoding="ascii",
        )
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"paths.input = {data}\n", encoding="ascii")
        code = cmd_dispatch(["--config", str(cfg), "--out", str(tmp_path), "preprocess"])
        assert code == 1
        assert f"error: {data} line 2: bad power value 'nan'\n" in capsys.readouterr().err

    def test_non_ascii_series_id_names_its_line(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_bytes(
            f"{CSV_HEADER}\n2023-03-01T00:00:00Z,customer,c\u00e9,1.0\n".encode("utf-8")
        )
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"paths.input = {data}\n", encoding="ascii")
        code = cmd_dispatch(["--config", str(cfg), "--out", str(tmp_path), "preprocess"])
        assert code == 1
        assert f"error: {data} line 2: non-ASCII byte 0xc3\n" in capsys.readouterr().err

    @staticmethod
    def three_level_rows(*extra):
        stamps = ("2023-03-01T00:00:00Z", "2023-03-01T01:00:00Z")
        series = [("customer", "c0"), ("feeder", "f0"), ("substation", "s0"), *extra]
        return [f"{ts},{level},{sid},1.0" for level, sid in series for ts in stamps]

    def test_second_series_at_a_level_exits_1_at_its_line(self, tmp_path, capsys):
        data = rows_file(tmp_path, self.three_level_rows(("feeder", "f1")))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"paths.input = {data}\n", encoding="ascii")
        code = cmd_dispatch(["--config", str(cfg), "--out", str(tmp_path), "preprocess"])
        assert code == 1
        assert (
            f"error: {data} line 8: second feeder series 'f1' (the first is 'f0'); "
            "need one series per level\n"
        ) in capsys.readouterr().err

    def test_missing_level_exits_1(self, tmp_path, capsys):
        data = rows_file(tmp_path, self.three_level_rows()[:4])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"paths.input = {data}\n", encoding="ascii")
        code = cmd_dispatch(["--config", str(cfg), "--out", str(tmp_path), "preprocess"])
        assert code == 1
        assert (
            f"error: {data}: no series at the substation level\n"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "flags,substation_hours,message",
        [
            ([], (1, 2), "series starts differ: customer 2023-03-01T00:00:00Z, "
             "feeder 2023-03-01T00:00:00Z, substation 2023-03-01T01:00:00Z"),
            ([], (0,), "series lengths differ: customer 2 h, feeder 2 h, "
             "substation 1 h"),
            (["--trim-to-overlap"], (2, 3), "series have no overlapping hours"),
        ],
    )
    def test_unequal_ranges_name_the_file(
        self, tmp_path, capsys, flags, substation_hours, message
    ):
        """Customer and feeder hold hours 0-1; the substation holds others."""
        stamp = "2023-03-01T{:02d}:00:00Z".format
        rows = [f"{stamp(h)},{level},x,1.0" for level in ("customer", "feeder") for h in (0, 1)]
        rows += [f"{stamp(h)},substation,x,1.0" for h in substation_hours]
        data = rows_file(tmp_path, rows)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"paths.input = {data}\n", encoding="ascii")
        code = cmd_dispatch(
            ["--config", str(cfg), "--out", str(tmp_path), *flags, "preprocess"]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {data}: {message}\n"

    @pytest.mark.parametrize(
        "key",
        [
            "pipeline.kappa_max",
            "pipeline.sunny_threshold",
            "synth.ar_rho",
            "synth.shared_fraction",
            "synth.drift_rho",
            "net.step_size",
            "pipeline.epsilon_fraction",
            "pipeline.day_threshold_fraction",
            "paths.out",
        ],
    )
    def test_removed_key_is_unknown(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 0.5\n", encoding="ascii")
        assert cmd_dispatch(["--config", str(cfg), "clearsky", "--days", "1"]) == 2
        assert f"error: {cfg}:1: unknown key {key!r}\n" in capsys.readouterr().err

    def test_target_level_in_another_spelling_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("pipeline.target_level = Feeder\n", encoding="ascii")
        assert cmd_dispatch(["--config", str(cfg), "clearsky", "--days", "1"]) == 2
        assert (
            "error: unknown measurement level: 'Feeder'\n" in capsys.readouterr().err
        )

    def test_missing_input_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"paths.input = {tmp_path / 'ghost.csv'}\n", encoding="ascii")
        code = cmd_dispatch(["--config", str(cfg), "--out", str(tmp_path), "fit"])
        assert code == 1
        assert "cannot read" in capsys.readouterr().err

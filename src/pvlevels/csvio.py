"""The flat measurement CSV: one row per series and hour.

Columns `timestamp_utc,level,series_id,power_kw`; a timestamp is the
UTC hour in `core.hour_stamps`' form, a level one of
`MeasurementLevel`'s labels and a power a finite number in kW.
`load_csv` reads a file into one `HourlyPowerSeries` per level,
`write_csv` writes series back, and `trim_to_overlap` clips series to
the hours they share.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterator
from datetime import datetime, timezone
from itertools import pairwise

import numpy as np

from .core import (
    _HOUR_SUFFIXES,
    HOUR,
    HourlyPowerSeries,
    MeasurementLevel,
    hour_stamps,
    utc_datetime,
)
from .errors import InputError

CSV_HEADER = "timestamp_utc,level,series_id,power_kw"

# `load_csv` keys each row by its whole hours since this instant.
_EPOCH = utc_datetime(1970, 1, 1)
# `load_csv` reads about this many characters at a time, cut after a newline.
_READ_CHUNK_CHARS = 16 * 1024
# `write_csv` formats and writes a series this many rows at a time.
_WRITE_CHUNK_ROWS = 4096


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
    Rows are kept by their whole hours since 1970-01-01T00:00Z, and a
    series is reported at the first hour `missing_hours` finds.
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
        missing = next(missing_hours(hours), None)
        if missing is not None:
            raise InputError(
                f"{path}: series ({level.label}, {series_id}) is missing hour "
                f"{hour_stamps(_EPOCH + missing * HOUR, 1)[0]}"
            )
        out.append(
            HourlyPowerSeries(
                site_id=series_id,
                level=level,
                start=_EPOCH + hours[0] * HOUR,
                values=np.fromiter(map(rows.__getitem__, hours), np.float64, len(hours)),
            )
        )
    return out


def missing_hours(hours: list[int]) -> Iterator[int]:
    """The hours absent between the first and the last of the sorted,
    distinct ``hours``, in order.

    There are none when the last hour less the first is the count less
    one. They are yielded one at a time, since two rows years apart
    leave tens of millions of hours between them.
    """
    if hours and hours[-1] - hours[0] != len(hours) - 1:
        for have, after in pairwise(hours):
            yield from range(have + 1, after)


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
                stamps = hour_stamps(s.start + a * HOUR, len(values))
                fh.write((row.join(stamps) + row) % tuple(values))


def trim_to_overlap(series_list: list[HourlyPowerSeries]) -> list[HourlyPowerSeries]:
    """Clip every series to the time range they all share.

    The ranges are compared by their last hours, which exist for series
    that end in 9999-12-31T23, unlike the hour after each.
    """
    start = max(s.start for s in series_list)
    last = min(s.timestamp(s.n - 1) for s in series_list)
    if start > last:
        raise InputError("series have no overlapping hours")
    return [s.sliced(s.hour_index(start), s.hour_index(last) + 1) for s in series_list]

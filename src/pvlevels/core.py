"""Shared domain types for multi-level hourly PV measurements.

Power traces are carried as immutable hourly series in kW, one per
measurement level (customer, feeder, substation). Timestamps are implicit:
``start`` plus the sample index, uniform one-hour step, UTC.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

from .errors import LengthMismatch, LevelTagMismatch, MisalignedRange

HOUR = timedelta(hours=1)

#: Minimum history ahead of a forecast day, in days.
MIN_HISTORY_DAYS = 30

#: Minimum history considered usable for model fitting, in hours.
MIN_USABLE_HOURS = MIN_HISTORY_DAYS * 24


class MeasurementLevel(enum.IntEnum):
    """Measurement point in the distribution grid, ordered bottom-up.

    The ordering Customer < Feeder < Substation is fixed and is used for
    deterministic tie-breaking.
    """

    CUSTOMER = 0
    FEEDER = 1
    SUBSTATION = 2

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_label(cls, label: str) -> "MeasurementLevel":
        try:
            return cls[label.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown measurement level: {label!r}") from None


class Weather(enum.Enum):
    """Sky-condition class assigned to a single day."""

    SUNNY = "sunny"
    CLOUDY = "cloudy"
    PARTLY_CLOUDY = "partly_cloudy"

    @property
    def label(self) -> str:
        return self.value

    @classmethod
    def from_label(cls, label: str) -> "Weather":
        for w in cls:
            if w.value == label.strip().lower():
                return w
        raise ValueError(f"unknown weather class: {label!r}")


def check_utc_hour(ts: datetime, what: str = "timestamp") -> None:
    """Require a timezone-aware UTC timestamp truncated to the hour."""
    if ts.tzinfo is None or ts.utcoffset() != timedelta(0):
        raise ValueError(f"{what} must be timezone-aware UTC, got {ts!r}")
    if ts.minute or ts.second or ts.microsecond:
        raise ValueError(f"{what} must be truncated to the hour, got {ts!r}")


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SiteConfig:
    """Static PV site parameters.

    latitude/longitude in degrees, tz_offset in hours east of UTC,
    ratings in kW, system_efficiency a dimensionless derate in (0, 1].
    """

    latitude: float
    longitude: float
    tz_offset: float
    dc_rating_kw: float
    ac_rating_kw: float
    system_efficiency: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError(f"latitude out of [-90, 90]: {self.latitude}")
        if not -180.0 <= self.longitude <= 180.0:
            raise ValueError(f"longitude out of [-180, 180]: {self.longitude}")
        if not -12.0 <= self.tz_offset <= 14.0:
            raise ValueError(f"tz_offset out of [-12, 14]: {self.tz_offset}")
        if not self.dc_rating_kw > 0:
            raise ValueError("dc_rating_kw must be > 0")
        if not self.ac_rating_kw > 0:
            raise ValueError("ac_rating_kw must be > 0")
        if not 0.0 < self.system_efficiency <= 1.0:
            raise ValueError("system_efficiency must be in (0, 1]")


@dataclass(frozen=True, eq=False)
class HourlyPowerSeries:
    """One level's hourly PV power trace in kW, gap-free from ``start``."""

    site_id: str
    level: MeasurementLevel
    start: datetime
    values: np.ndarray

    def __post_init__(self) -> None:
        check_utc_hour(self.start, "series start")
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("values must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must contain no NaN/Inf")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "level", MeasurementLevel(self.level))

    @property
    def n(self) -> int:
        return int(self.values.size)

    @property
    def end(self) -> datetime:
        """First hour after the last sample."""
        return self.start + self.n * HOUR

    def timestamp(self, i: int) -> datetime:
        return self.start + i * HOUR

    def hour_index(self, ts: datetime) -> int:
        """Index of the hour starting at ``ts``; may lie outside [0, n)."""
        check_utc_hour(ts)
        return int((ts - self.start) // HOUR)

    def sliced(self, a: int, b: int) -> "HourlyPowerSeries":
        """Sub-series covering hours [a, b) of this one."""
        if not 0 <= a < b <= self.n:
            raise ValueError(f"invalid slice [{a}, {b}) for n={self.n}")
        return HourlyPowerSeries(
            site_id=self.site_id,
            level=self.level,
            start=self.start + a * HOUR,
            values=self.values[a:b],
        )

    def with_values(self, values) -> "HourlyPowerSeries":
        """Same identity and start, new readings."""
        return HourlyPowerSeries(
            site_id=self.site_id, level=self.level, start=self.start, values=values
        )


@dataclass(frozen=True, eq=False)
class MultiLevelDataset:
    """Aligned customer/feeder/substation series for one site."""

    customer: HourlyPowerSeries
    feeder: HourlyPowerSeries
    substation: HourlyPowerSeries
    site: SiteConfig

    def __post_init__(self) -> None:
        expected = (
            (self.customer, MeasurementLevel.CUSTOMER),
            (self.feeder, MeasurementLevel.FEEDER),
            (self.substation, MeasurementLevel.SUBSTATION),
        )
        for series, level in expected:
            if series.level is not level:
                raise LevelTagMismatch(
                    f"series in {level.label} position is tagged {series.level.label}"
                )
        starts = {s.start for s, _ in expected}
        if len(starts) != 1:
            raise MisalignedRange(f"series starts differ: {sorted(starts)}")
        lengths = {s.n for s, _ in expected}
        if len(lengths) != 1:
            raise LengthMismatch(f"series lengths differ: {sorted(lengths)}")

    @property
    def n(self) -> int:
        return self.customer.n

    @property
    def start(self) -> datetime:
        return self.customer.start

    def series(self, level: MeasurementLevel) -> HourlyPowerSeries:
        return {
            MeasurementLevel.CUSTOMER: self.customer,
            MeasurementLevel.FEEDER: self.feeder,
            MeasurementLevel.SUBSTATION: self.substation,
        }[level]

    def sliced(self, a: int, b: int) -> "MultiLevelDataset":
        return MultiLevelDataset(
            customer=self.customer.sliced(a, b),
            feeder=self.feeder.sliced(a, b),
            substation=self.substation.sliced(a, b),
            site=self.site,
        )


@dataclass(frozen=True)
class ValidationReport:
    """Counts of suspicious readings in one series; never raises."""

    n_total: int
    negative_count: int
    over_rating_count: int
    usable: bool


def validate_series(series: HourlyPowerSeries, site: SiteConfig) -> ValidationReport:
    """Report data-quality counters for one series.

    Negative readings are allowed (sensor bias before offset removal) and
    only counted. ``usable`` requires at least MIN_USABLE_HOURS; a series
    never holds NaN, since ``HourlyPowerSeries`` rejects non-finite values.
    """
    v = series.values
    return ValidationReport(
        n_total=series.n,
        negative_count=int(np.count_nonzero(v < 0.0)),
        over_rating_count=int(np.count_nonzero(v > 1.1 * site.ac_rating_kw)),
        usable=series.n >= MIN_USABLE_HOURS,
    )


def utc_datetime(year: int, month: int, day: int, hour: int = 0) -> datetime:
    """Convenience constructor for hour-aligned UTC timestamps."""
    return datetime(year, month, day, hour, tzinfo=timezone.utc)


def derive_seed(base: int, *tags: int) -> int:
    """Independent child seed for a named substream of ``base``.

    Distinct tag tuples give statistically independent streams, and a
    stream's output never depends on which other tags are in use, so
    adding entities (customers, retries) cannot shift existing draws.
    """
    if not 0 <= base < 2**64:
        raise ValueError("base seed must fit in an unsigned 64-bit integer")
    seq = np.random.SeedSequence([base, *[int(t) for t in tags]])
    return int(seq.generate_state(1, np.uint64)[0])


def make_generator(seed: int) -> np.random.Generator:
    """The package-wide RNG flavor: PCG64 seeded directly."""
    return np.random.Generator(np.random.PCG64(seed))

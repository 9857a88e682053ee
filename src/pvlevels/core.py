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

from .errors import InputError

HOUR = timedelta(hours=1)
DAY = timedelta(days=1)


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
        """The level whose ``label`` is exactly ``label``: another case or
        added spaces (``"Feeder"``, ``" feeder"``) name no level."""
        for level in cls:
            if level.label == label:
                return level
        raise ValueError(f"unknown measurement level: {label!r}")


class Weather(enum.Enum):
    """Sky-condition class assigned to a single day."""

    SUNNY = "sunny"
    CLOUDY = "cloudy"
    PARTLY_CLOUDY = "partly_cloudy"

    @property
    def label(self) -> str:
        return self.value


def check_utc_hour(ts: datetime, what: str = "timestamp") -> None:
    """Require a timezone-aware UTC timestamp truncated to the hour."""
    if ts.tzinfo is None or ts.utcoffset() != timedelta(0):
        raise ValueError(f"{what} must be timezone-aware UTC, got {ts!r}")
    if ts.minute or ts.second or ts.microsecond:
        raise ValueError(f"{what} must be truncated to the hour, got {ts!r}")


_HOUR_SUFFIXES = [f"{h:02d}:00:00Z" for h in range(24)]


def hour_stamps(start: datetime, n: int) -> list[str]:
    """`YYYY-MM-DDTHH:00:00Z` text of the ``n`` hours from the UTC hour ``start``.

    The one spelling of an hour in text: the measurement CSV, the output
    tables and the messages that name an hour all use it. Each calendar
    day is formatted once and joined to its hour suffixes. The year has
    four digits in every year, where ``strftime("%Y")`` writes years
    before 1000 unpadded on some C libraries.
    """
    midnight = start.replace(hour=0)
    first = start.hour
    n_days = (first + n + 23) // 24
    days = [(midnight + k * DAY).date().isoformat() + "T" for k in range(n_days)]
    return [day + suffix for day in days for suffix in _HOUR_SUFFIXES][first : first + n]


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
                raise InputError(
                    f"series in {level.label} position is tagged {series.level.label}"
                )
        if len({s.start for s, _ in expected}) != 1:
            raise InputError("series starts differ: " + ", ".join(
                f"{level.label} {hour_stamps(s.start, 1)[0]}" for s, level in expected
            ))
        if len({s.n for s, _ in expected}) != 1:
            raise InputError("series lengths differ: " + ", ".join(
                f"{level.label} {s.n} h" for s, level in expected
            ))

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


def utc_datetime(year: int, month: int, day: int, hour: int = 0) -> datetime:
    """Convenience constructor for hour-aligned UTC timestamps."""
    return datetime(year, month, day, hour, tzinfo=timezone.utc)


def check_seed(seed: int, what: str = "seed") -> None:
    """Require a seed that fits in an unsigned 64-bit integer."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"{what} must fit in an unsigned 64-bit integer")


def derive_seed(base: int, *tags: int) -> int:
    """Independent child seed for a named substream of ``base``.

    Distinct tag tuples give statistically independent streams, and a
    stream's output never depends on which other tags are in use, so
    adding entities (customers, retries) cannot shift existing draws.
    """
    check_seed(base, "base seed")
    seq = np.random.SeedSequence([base, *[int(t) for t in tags]])
    return int(seq.generate_state(1, np.uint64)[0])


def make_generator(seed: int) -> np.random.Generator:
    """The package-wide RNG flavor: PCG64 seeded directly."""
    return np.random.Generator(np.random.PCG64(seed))

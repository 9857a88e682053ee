"""Closed-form clear-sky PV power simulation.

Provides the normalization denominator for the clear-sky-index transform:
a per-hour estimate of the maximum PV power the site could produce under
cloudless skies. The chain is

    day of year -> declination (Cooper)
    solar time  -> hour angle
    (latitude, declination, hour angle) -> zenith (spherical formula)
    zenith -> GHI (Haurwitz)
    GHI -> AC power (linear conversion with inverter clipping)

The Haurwitz model needs no external data (no turbidity maps), which keeps
the whole chain self-contained; it is adequate for normalization even
though absolute levels differ from a full plant model. The equation of
time is deliberately omitted (at most ~16 min of noon shift, to which the
normalization ratio is insensitive); solar time is derived from UTC and
longitude alone. Declination is held constant within each civil day and
every hour is evaluated at its midpoint (minute 30).

`clearsky_profile` uses that structure. It settles the calendar first,
from scalars: the site-local civil days the span touches, and whether
they lie in years 1-9999, before it builds any per-hour array. The
declination then takes one value per civil day and the hour angle one
value per UTC hour of day (24 values), so a profile computes those once
and forms every hour's cos z from them with numpy's correctly rounded
``+``, ``*``, ``minimum`` and ``maximum``, in the order of
`solar_zenith`. The transcendentals stay per hour in `math` (``acos``,
``cos``, ``exp``): numpy's vectorized ``arccos`` and ``exp`` may differ
from the C library in the last bit on some CPUs, and the profile must
equal `solar_position` -> `clearsky_ghi` -> `clearsky_power` hour by
hour, bit for bit, on every machine. They run on daylight hours only: an
hour whose cos z is not above zero gets the +0.0 the chain gives it,
written without running the chain. And they run once per distinct
daylight cos z, whose result every hour holding that value shares.
Values repeat exactly when the same declination meets the same hour
angle or its mirror: at a longitude on the 7.5 degree grid (such as
-105) each morning hour mirrors an afternoon hour, and over more than a
year the same day of the year comes back. Off that grid and within one
year, nearly every daylight hour has its own value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from .core import DAY, HOUR, SiteConfig, check_utc_hour, hour_stamps

#: Haurwitz GHI at zenith 0 before the exponential attenuation, W/m^2.
GHI_SCALE_WM2 = 1098.0

_HAURWITZ_B = 0.057

_US_PER_HOUR = 3_600_000_000
_US_PER_DAY = 86_400_000_000


def solar_declination(day_of_year: int) -> float:
    """Solar declination in degrees for a day of the year, per Cooper.

    delta = 23.45 * sin(360 deg * (284 + n) / 365)

    Parameters
    ----------
    day_of_year : int
        1-based day of the year, 1..366.

    Returns
    -------
    float
        Declination in degrees, within +-23.45.
    """
    if not 1 <= int(day_of_year) <= 366:
        raise ValueError(f"day_of_year out of [1, 366]: {day_of_year}")
    return 23.45 * math.sin(math.radians(360.0 * (284 + int(day_of_year)) / 365.0))


def solar_zenith(latitude: float, declination: float, hour_angle: float) -> float:
    """Solar zenith angle in degrees from the spherical triangle formula.

    cos z = sin(lat) sin(decl) + cos(lat) cos(decl) cos(H)

    All angles in degrees; the hour angle H is zero at solar noon and
    grows 15 degrees per hour.
    """
    for name, value in (
        ("latitude", latitude),
        ("declination", declination),
        ("hour_angle", hour_angle),
    ):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
    if not -90.0 <= latitude <= 90.0:
        raise ValueError(f"latitude out of [-90, 90]: {latitude}")
    lat = math.radians(latitude)
    dec = math.radians(declination)
    ha = math.radians(hour_angle)
    cos_z = math.sin(lat) * math.sin(dec) + math.cos(lat) * math.cos(dec) * math.cos(ha)
    cos_z = min(1.0, max(-1.0, cos_z))
    return math.degrees(math.acos(cos_z))


def clearsky_ghi(zenith: float) -> float:
    """Haurwitz clear-sky global horizontal irradiance in W/m^2.

    GHI = 1098 * cos z * exp(-0.057 / cos z) for cos z > 0, else 0.

    The model depends on the zenith angle only, which makes clear-sky
    power exactly symmetric about solar noon within a day.
    """
    if not 0.0 <= zenith <= 180.0:
        raise ValueError(f"zenith out of [0, 180]: {zenith}")
    cos_z = math.cos(math.radians(zenith))
    if cos_z <= 0.0:
        return 0.0
    return GHI_SCALE_WM2 * cos_z * math.exp(-_HAURWITZ_B / cos_z)


def clearsky_power(ghi: float, site: SiteConfig) -> float:
    """AC power in kW for a given GHI: linear DC conversion, inverter clip.

    P = min(ac_rating, system_efficiency * dc_rating * GHI / 1000)

    No temperature derate; monotone non-decreasing in GHI.
    """
    if ghi < 0.0:
        raise ValueError(f"ghi must be >= 0, got {ghi}")
    return min(
        site.ac_rating_kw,
        site.system_efficiency * site.dc_rating_kw * ghi / 1000.0,
    )


def _hour_angle(utc_hours: float, longitude: float) -> float:
    """Hour angle in degrees at ``utc_hours`` past UTC midnight."""
    t_solar = (utc_hours + longitude / 15.0) % 24.0
    return 15.0 * (t_solar - 12.0)


@dataclass(frozen=True, eq=False)
class SolarPosition:
    """Sun geometry at one instant: all angles in degrees."""

    declination: float
    hour_angle: float
    zenith: float


def solar_position(site: SiteConfig, ts_utc: datetime) -> SolarPosition:
    """Sun position for a site at a UTC instant.

    The civil day (for declination) follows the site's tz_offset; solar
    time is UTC plus longitude/15 hours, equation of time omitted.
    """
    local = ts_utc + timedelta(hours=site.tz_offset)
    declination = solar_declination(local.timetuple().tm_yday)
    utc_hours = ts_utc.hour + ts_utc.minute / 60.0 + ts_utc.second / 3600.0
    hour_angle = _hour_angle(utc_hours, site.longitude)
    zenith = solar_zenith(site.latitude, declination, hour_angle)
    return SolarPosition(declination=declination, hour_angle=hour_angle, zenith=zenith)


@dataclass(frozen=True, eq=False)
class ClearSkyProfile:
    """Simulated clear-sky PV power per hour with the matching GHI trace.

    power_kw[i] covers the hour starting at ``start + i`` hours; an hour is
    night exactly when its GHI (and hence power) is zero.
    """

    start: datetime
    power_kw: np.ndarray
    ghi_wm2: np.ndarray

    def __post_init__(self) -> None:
        check_utc_hour(self.start, "profile start")
        power = np.array(self.power_kw, dtype=np.float64)
        ghi = np.array(self.ghi_wm2, dtype=np.float64)
        if power.ndim != 1 or power.size < 1 or power.shape != ghi.shape:
            raise ValueError("power_kw and ghi_wm2 must be equal-length 1-d arrays")
        if np.any(ghi < 0.0) or np.any(ghi > GHI_SCALE_WM2):
            raise ValueError(f"ghi_wm2 out of [0, {GHI_SCALE_WM2:g}]")
        if np.any(power < 0.0):
            raise ValueError("power_kw must be non-negative")
        if np.any((power == 0.0) != (ghi == 0.0)):
            raise ValueError("power_kw must be zero exactly where ghi_wm2 is zero")
        power.setflags(write=False)
        ghi.setflags(write=False)
        object.__setattr__(self, "power_kw", power)
        object.__setattr__(self, "ghi_wm2", ghi)

    @property
    def n(self) -> int:
        return int(self.power_kw.size)

    @property
    def night_mask(self) -> np.ndarray:
        return self.power_kw == 0.0

    def sliced(self, a: int, b: int) -> "ClearSkyProfile":
        if not 0 <= a < b <= self.n:
            raise ValueError(f"invalid slice [{a}, {b}) for n={self.n}")
        return ClearSkyProfile(
            start=self.start + a * HOUR,
            power_kw=self.power_kw[a:b],
            ghi_wm2=self.ghi_wm2[a:b],
        )

    def scaled(self, fraction: float) -> "ClearSkyProfile":
        """Profile for a subsystem holding ``fraction`` of the site capacity."""
        if not fraction > 0.0:
            raise ValueError("fraction must be > 0")
        return ClearSkyProfile(
            start=self.start,
            power_kw=self.power_kw * fraction,
            ghi_wm2=self.ghi_wm2,
        )


def clearsky_profile(site: SiteConfig, start: datetime, n_hours: int) -> ClearSkyProfile:
    """Simulate the clear-sky power profile for ``n_hours`` from ``start``.

    Each hour is evaluated at its midpoint; night hours come out exactly
    zero, and power never exceeds the AC rating. The result equals the
    per-hour chain `solar_position` -> `clearsky_ghi` -> `clearsky_power`
    bit for bit (see the module docstring): the Haurwitz chain runs once
    per distinct daylight cos z, which repeats at longitudes on the 7.5
    degree grid and across years. A span whose site-local days reach
    outside years 1-9999 raises ValueError, found from the first hour and
    the span's length before any per-hour work.
    """
    check_utc_hour(start, "profile start")
    if n_hours < 1:
        raise ValueError(f"n_hours must be >= 1, got {n_hours}")
    # The calendar first, in scalars: microseconds from the first
    # site-local midnight to the first hour's midpoint, and the number of
    # civil days the span touches, whose last day must exist.
    try:
        first_mid = start + timedelta(minutes=30) + timedelta(hours=site.tz_offset)
        first_day = first_mid.replace(hour=0, minute=0, second=0, microsecond=0)
        into = (first_mid - first_day) // timedelta(microseconds=1)
        n_days = (into + _US_PER_HOUR * (n_hours - 1)) // _US_PER_DAY + 1
        first_day + (n_days - 1) * DAY
    except OverflowError:
        raise ValueError(
            f"clear-sky profile of {n_hours} h from {hour_stamps(start, 1)[0]} reaches "
            f"a site-local day (tz_offset {site.tz_offset:g} h) outside years 1-9999"
        ) from None
    # Site-local civil day of each hour's midpoint, counted from the first.
    hours = np.arange(n_hours)
    day = (into + _US_PER_HOUR * hours) // _US_PER_DAY
    declinations = [
        math.radians(solar_declination((first_day + k * DAY).timetuple().tm_yday))
        for k in range(n_days)
    ]
    sin_dec = np.array([math.sin(d) for d in declinations])[day]
    cos_dec = np.array([math.cos(d) for d in declinations])[day]
    # Hour angle of each UTC hour of day, at minute 30.
    cos_ha = np.array(
        [math.cos(math.radians(_hour_angle(h + 0.5, site.longitude))) for h in range(24)]
    )
    cos_ha = cos_ha[(start.hour + hours) % 24]
    lat = math.radians(site.latitude)
    cos_z = math.sin(lat) * sin_dec + math.cos(lat) * cos_dec * cos_ha
    cos_z = np.minimum(1.0, np.maximum(-1.0, cos_z))
    # Where cos z <= 0 the chain gives +0.0, through its own night branch
    # or because exp(-b / cos z) underflows; only daylight hours run it,
    # once per distinct cos z, since equal cos z gives equal GHI.
    ghi = np.zeros(n_hours)
    lit = np.flatnonzero(cos_z > 0.0)
    distinct, which = np.unique(cos_z[lit], return_inverse=True)
    ghi[lit] = np.array(
        [clearsky_ghi(math.degrees(math.acos(c))) for c in distinct.tolist()]
    )[which]
    power = np.minimum(
        site.ac_rating_kw, site.system_efficiency * site.dc_rating_kw * ghi / 1000.0
    )
    return ClearSkyProfile(start=start, power_kw=power, ghi_wm2=ghi)

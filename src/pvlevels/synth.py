"""Seeded synthetic multi-level PV dataset generator.

Builds a plausible stand-in for real customer/feeder/substation meter
data at desk scale. Each day gets a weather regime (sunny / cloudy /
partly cloudy); every customer's clear-sky index follows

    kappa(t) = clamp(kappa*_regime + s(t) + z(t), 0, KAPPA_MAX)
    z(t)     = ar_rho * z(t-1) + sigma_regime * eps(t)

over that day's daylight hours, with z restarted from its stationary
distribution each morning. s(t) is a site-wide atmospheric drift shared
by every customer: a slow hourly AR(1) (think multi-day haze or
turbidity episodes) that persists across days, which is what makes
tomorrow partially predictable from today's measurements. Fast
innovations mix a site-wide component with a per-customer one
(eps_i = sqrt(c) * w + sqrt(1-c) * e_i), so individual customers are
noisy but their aggregates still track the shared sky state; the
per-customer marginal process is unchanged by the mixing.

Index series become kW through a per-customer share of the site's
clear-sky profile, then aggregate: feeders sum their assigned customers,
the substation sums all feeders with a loss factor. Meter noise is added
in kW at each measured point, clamped at zero: for the measured customer
on daylight hours, for the feeders and the substation on the hours where
some customer's power is positive (a daylight hour where every customer
reads exactly 0 stays an exact 0 there).

Aggregation averages away per-customer noise but not the shared drift,
so higher measurement levels carry a progressively cleaner view of the
predictable sky state. That asymmetry is deliberate: it is what rewards
a forecaster for fusing feeder and substation channels on top of a
single customer's history.

All randomness flows from one seed through named substreams (schedule,
shared sky, drift, one per customer, one per meter), so the dataset is
reproducible and adding customers never perturbs existing series.

Layout: the whole fleet is one (hour of day, customer, day) array. Each
customer draws its innovations from its own stream in one draw over the
daylight hours in time order, straight into its slice: one zero-padded
column per local day. The shared sky's draw and the site drift are laid
out the same way without the customer axis and broadcast over it. One
AR(1) recursion then advances every customer and every day together,
one hour of day per step, overwriting the innovations with the index
and then with kW; feeders are summed on those columns. A draw of a + b
normals is a draw of a followed by one of b, so this gives the same
values as drawing and running customer by customer and day by day.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .clearsky import ClearSkyProfile, clearsky_profile
from .core import (
    HourlyPowerSeries,
    MeasurementLevel,
    MultiLevelDataset,
    SiteConfig,
    Weather,
    check_seed,
    derive_seed,
    make_generator,
    utc_datetime,
)
from .preprocess import KAPPA_MAX

# substream tags under the dataset seed
_TAG_SCHEDULE = 1
_TAG_SHARED = 2
_TAG_CUSTOMER = 3
_TAG_CUSTOMER_METER = 4
_TAG_FEEDER_METER = 5
_TAG_SUBSTATION_METER = 6
_TAG_DRIFT = 7

DEFAULT_SITE = SiteConfig(
    latitude=39.74,
    longitude=-105.0,
    tz_offset=-7.0,
    dc_rating_kw=100.0,
    ac_rating_kw=100.0,
    system_efficiency=0.96,
)

#: Clear-sky index each weather regime centres its customers on.
REGIME_MEAN = {Weather.SUNNY: 0.95, Weather.CLOUDY: 0.30, Weather.PARTLY_CLOUDY: 0.60}

#: Share of the feeders' summed power lost before the substation meter.
LOSS_FRACTION = 0.04

#: Chance that a drawn regime schedule keeps yesterday's regime.
REGIME_STAY_PROB = 0.7


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for one synthetic dataset.

    regime_schedule is one Weather per day; None means "draw a persistent
    (Markov) schedule from the seed". Each customer's index runs its own
    AR(1) deviation process around the regime mean; the persistent regime
    schedule is what gives day-ahead forecasting something real to
    predict. shared_fraction optionally makes that portion of the fast
    innovation variance common to all customers, and shared_drift_sd adds
    a slow site-wide index drift (shared_drift_rho its hourly AR
    coefficient) on top; both default off, leaving the deviations purely
    per-customer.
    """

    n_customers: int = 24
    n_feeders: int = 3
    days: int = 90
    regime_schedule: tuple[Weather, ...] | None = None
    ar_rho: float = 0.30
    meter_noise_sd: float = 0.1
    shared_fraction: float = 0.0
    shared_drift_sd: float = 0.0
    shared_drift_rho: float = 0.995
    seed: int = 0
    start_utc: datetime = utc_datetime(2023, 3, 1)
    sigma_sunny: float = 0.02
    sigma_cloudy: float = 0.15
    sigma_partly: float = 0.25

    def __post_init__(self) -> None:
        if self.n_customers < 1 or self.n_feeders < 1:
            raise ValueError("need n_customers >= 1 and n_feeders >= 1")
        if self.n_feeders > self.n_customers:
            raise ValueError("more feeders than customers")
        if self.days < 31:
            raise ValueError(f"days must be >= 31, got {self.days}")
        if self.regime_schedule is not None and len(self.regime_schedule) != self.days:
            raise ValueError(
                f"regime_schedule length {len(self.regime_schedule)} != days {self.days}"
            )
        if not 0.0 <= self.ar_rho < 1.0:
            raise ValueError("ar_rho must be in [0, 1)")
        for name in (
            "meter_noise_sd", "shared_drift_sd", "sigma_sunny", "sigma_cloudy", "sigma_partly",
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if not 0.0 <= self.shared_fraction <= 1.0:
            raise ValueError("shared_fraction must be in [0, 1]")
        if not 0.0 <= self.shared_drift_rho < 1.0:
            raise ValueError("shared_drift_rho must be in [0, 1)")
        check_seed(self.seed)

    def regime_sigma(self, w: Weather) -> float:
        return {
            Weather.SUNNY: self.sigma_sunny,
            Weather.CLOUDY: self.sigma_cloudy,
            Weather.PARTLY_CLOUDY: self.sigma_partly,
        }[w]

    def schedule(self) -> tuple[Weather, ...]:
        """The effective per-day regimes (explicit or drawn from the seed)."""
        if self.regime_schedule is not None:
            return self.regime_schedule
        return random_regime_schedule(
            self.days, derive_seed(self.seed, _TAG_SCHEDULE)
        )

    def default_feeder_map(self) -> tuple[int, ...]:
        """Round-robin customer-to-feeder assignment."""
        return tuple(i % self.n_feeders for i in range(self.n_customers))


def random_regime_schedule(days: int, seed: int) -> tuple[Weather, ...]:
    """Markov weather schedule: keep yesterday's regime with REGIME_STAY_PROB.

    Persistence is the point: with it, yesterday's measurements carry
    information about tomorrow, so day-ahead forecasts can beat the
    climatological mean.
    """
    if days < 1:
        raise ValueError("days must be >= 1")
    rng = make_generator(seed)
    regimes = tuple(Weather)
    out = [regimes[rng.integers(len(regimes))]]
    for _ in range(days - 1):
        if rng.random() < REGIME_STAY_PROB:
            out.append(out[-1])
        else:
            others = [w for w in regimes if w is not out[-1]]
            out.append(others[rng.integers(len(others))])
    return tuple(out)


def _ar1(x: np.ndarray, rho: float, first_sd, innov_sd) -> np.ndarray:
    """The AR(1) path driven by the innovations ``x``, stepping along
    axis 0 and written over them: x[0] = first_sd * eps[0] and
    x[t] = rho * x[t-1] + innov_sd * eps[t]. Returns ``x``.

    For a 1-D ``x`` the sds are scalars; for an (hours, ..., days) ``x``
    each trailing slice is one path and the sds may be per-day arrays,
    broadcast over the axes between.
    """
    if len(x):
        x[0] = first_sd * x[0]
    for t in range(1, len(x)):
        x[t] = rho * x[t - 1] + innov_sd * x[t]
    return x


def _day_columns(
    schedule: tuple[Weather, ...], config: SynthConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Each day's regime mean and innovation sd, one entry per day."""
    sigma = {w: config.regime_sigma(w) for w in Weather}
    return (
        np.array([REGIME_MEAN[w] for w in schedule]),
        np.array([sigma[w] for w in schedule]),
    )


def _index_from_innovations(
    innovations: np.ndarray,
    kappa_star: np.ndarray,
    sigma: np.ndarray,
    rho: float,
    offset=0.0,
) -> np.ndarray:
    """Index values from pre-drawn standard-normal innovations, written
    over them.

    ``innovations`` is (hours, days) or (hours, customers, days): each
    day's column holds its daylight hours in order, under regime mean
    kappa_star[j] and innovation sd sigma[j] (see ``_day_columns``),
    whatever the customer. The first hour seeds z at its stationary
    scale so a day's statistics do not depend on where it sits in the
    calendar. offset is added before clamping (a scalar or an array
    that broadcasts against ``innovations``); the site drift enters here.
    """
    z = _ar1(innovations, rho, sigma / np.sqrt(1.0 - rho * rho), sigma)
    z += kappa_star + offset
    return np.clip(z, 0.0, KAPPA_MAX, out=z)


def _site_drift(config: SynthConfig, n_hours: int) -> np.ndarray:
    """The slow shared index drift over the whole hourly range.

    An AR(1) in real (calendar) hours, started from its stationary
    distribution, parametrized by the stationary standard deviation so
    the typical drift magnitude does not move when the time constant is
    tuned. Drawn full-length so its stream layout is independent of day
    masks and customer count. With a zero sd the drift is zero: the
    drift has its own substream, so no other draw moves.
    """
    sd = config.shared_drift_sd
    if sd == 0.0:
        return np.zeros(n_hours)
    rng = make_generator(derive_seed(config.seed, _TAG_DRIFT))
    rho = config.shared_drift_rho
    return _ar1(rng.standard_normal(n_hours), rho, sd, sd * np.sqrt(1.0 - rho * rho))


def _meter_noise(
    values: np.ndarray, on: np.ndarray, sd: float, rng: np.random.Generator
) -> None:
    """Add kW noise to ``values`` in place on the hours ``on`` selects (a
    mask or an index array), clamped at zero there.

    The noise vector is drawn full-length whatever ``on`` selects, so
    the draw sequence does not depend on day lengths; only the selected
    hours are scaled.
    """
    noise = rng.standard_normal(values.size)[on]
    noise *= sd
    noise += values[on]
    values[on] = np.maximum(0.0, noise, out=noise)


def _feeders_and_substation(
    power: np.ndarray,
    columns: tuple[np.ndarray, np.ndarray],
    idx: np.ndarray,
    n_hours: int,
    config: SynthConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """The feeder and substation meter readings, as an (n_feeders,
    n_hours) array and an n_hours vector.

    ``power`` holds the customers' kW on axis 1: customer i reads
    ``power[:, i][columns][k]`` at hour ``idx[k]`` and 0 at every hour
    off ``idx``. Customers go to feeders round-robin, as
    ``config.default_feeder_map()`` assigns them. Each feeder sums its
    customers in index order from 0.0, and the substation sums the
    metered feeders in index order, less LOSS_FRACTION. Meter noise
    lands on the hours where some customer's power is positive.
    """
    n_feeders = config.n_feeders
    on = idx[(power > 0.0).any(axis=1)[columns]]
    # customers k .. k + n_feeders - 1 go to feeders 0, 1, ... in turn
    totals = np.zeros((power.shape[0], n_feeders, power.shape[2]))
    for k in range(0, power.shape[1], n_feeders):
        block = power[:, k : k + n_feeders]
        totals[:, : block.shape[1]] += block
    feeders = np.zeros((n_feeders, n_hours))
    bus = np.zeros(n_hours)
    for j, row in enumerate(feeders):
        row[idx] = totals[:, j][columns]
        rng = make_generator(derive_seed(config.seed, _TAG_FEEDER_METER, j))
        _meter_noise(row, on, config.meter_noise_sd, rng)
        bus += row
    bus *= 1.0 - LOSS_FRACTION
    rng = make_generator(derive_seed(config.seed, _TAG_SUBSTATION_METER))
    _meter_noise(bus, on, config.meter_noise_sd, rng)
    return feeders, bus


def aggregate(
    customers: list[HourlyPowerSeries], config: SynthConfig
) -> tuple[list[HourlyPowerSeries], HourlyPowerSeries]:
    """Sum customers into feeders, feeders into the lossy substation.

    ``customers`` are the config.n_customers customers, assigned to
    feeders by ``config.default_feeder_map()``. Summation order is fixed:
    customers in index order within each feeder, then feeders in index
    order; with zero noise the substation is (1 - LOSS_FRACTION) times
    the customer total computed in that grouping exactly (bit-for-bit).
    Meter noise lands on each feeder and on the substation, on the hours
    where some customer's power is positive, clamped at zero.
    ``gen_dataset`` runs the same sums on its fleet array.
    """
    first = customers[0]
    every_hour = np.arange(first.n)
    feeders, substation = _feeders_and_substation(
        np.stack([c.values for c in customers])[None],
        (np.zeros_like(every_hour), every_hour),
        every_hour,
        first.n,
        config,
    )
    return (
        [
            HourlyPowerSeries(
                site_id=f"feeder-{j}",
                level=MeasurementLevel.FEEDER,
                start=first.start,
                values=values,
            )
            for j, values in enumerate(feeders)
        ],
        HourlyPowerSeries(
            site_id="substation",
            level=MeasurementLevel.SUBSTATION,
            start=first.start,
            values=substation,
        ),
    )


def capacity_fractions(config: SynthConfig) -> tuple[float, float, float]:
    """Share of site capacity behind each measured level's meter.

    The measured customer is customer 0, the measured feeder is feeder 0
    under the default round-robin map, the substation sees everything
    minus losses. These are the clear-sky scaling factors a forecasting
    run on this dataset should use.
    """
    n = config.n_customers
    on_feeder0 = sum(1 for j in config.default_feeder_map() if j == 0)
    return (1.0 / n, on_feeder0 / n, 1.0 - LOSS_FRACTION)


def gen_dataset(
    config: SynthConfig, site: SiteConfig = DEFAULT_SITE
) -> tuple[MultiLevelDataset, ClearSkyProfile]:
    """Full synthetic dataset: three aligned levels plus the site profile.

    The dataset's customer series is customer 0 (with its own meter
    noise), its feeder series is feeder 0, and the levels nest: the
    measured customer feeds the measured feeder feeds the substation.

    The fleet makes one pass (see the module docstring): each customer
    draws its stream over every daylight hour into one (hour of day,
    customer, day) array, one AR(1) run advances all of it by hour of
    day, and the feeder and substation readings are summed from it as
    ``aggregate`` sums them. Only customer 0 becomes a full-length
    series; the others are checked finite as a whole.
    """
    n_hours = config.days * 24
    profile = clearsky_profile(site, config.start_utc, n_hours)
    daylight = profile.power_kw > 0.0

    # Each daylight hour's day and its rank within the day. A weather day
    # is a site-local calendar day, not a UTC one: otherwise every local
    # afternoon would straddle a regime boundary and the schedule would
    # paint phantom weather fronts at a fixed hour. Stray daylight hours
    # before the first local midnight borrow the first day's regime, and
    # those after the last one the last day's. The local day never
    # decreases, so idx is the days' daylight hours joined in day order
    # and one draw of idx.size values per stream is its per-day draws.
    local_day = np.floor(
        (np.arange(n_hours) + site.tz_offset) / 24.0
    ).astype(int)
    local_day = np.clip(local_day, 0, config.days - 1)
    idx = np.flatnonzero(daylight)
    day = local_day[idx]
    counts = np.bincount(day, minlength=config.days)
    rank = np.arange(idx.size) - (np.cumsum(counts) - counts)[day]
    columns = (rank, day)

    def by_hour_of_day(values: np.ndarray) -> np.ndarray:
        """``values`` on idx scattered into a zero-padded (hours, days) array."""
        out = np.zeros((counts.max(), config.days), dtype=np.float64)
        out[columns] = values
        return out

    kappa_star, sigma = _day_columns(config.schedule(), config)
    drift = by_hour_of_day(_site_drift(config, n_hours)[idx])
    share = by_hour_of_day(profile.power_kw[idx] / config.n_customers)

    fleet = np.zeros((counts.max(), config.n_customers, config.days))
    for i in range(config.n_customers):
        rng = make_generator(derive_seed(config.seed, _TAG_CUSTOMER, i))
        fleet[rank, i, day] = rng.standard_normal(idx.size)
    c = config.shared_fraction
    shared_rng = make_generator(derive_seed(config.seed, _TAG_SHARED))
    fleet *= np.sqrt(1.0 - c)
    fleet += by_hour_of_day(np.sqrt(c) * shared_rng.standard_normal(idx.size))[:, None, :]
    power = _index_from_innovations(
        fleet, kappa_star, sigma, config.ar_rho, offset=drift[:, None, :]
    )
    power *= share[:, None, :]
    if not np.isfinite(power).all():
        raise ValueError("customer values must contain no NaN/Inf")

    feeders, substation = _feeders_and_substation(power, columns, idx, n_hours, config)

    customer = np.zeros(n_hours)
    customer[idx] = power[:, 0][columns]
    meter_rng = make_generator(derive_seed(config.seed, _TAG_CUSTOMER_METER, 0))
    _meter_noise(customer, daylight, config.meter_noise_sd, meter_rng)
    dataset = MultiLevelDataset(
        customer=HourlyPowerSeries(
            site_id="customer-0",
            level=MeasurementLevel.CUSTOMER,
            start=config.start_utc,
            values=customer,
        ),
        feeder=HourlyPowerSeries(
            site_id="feeder-0",
            level=MeasurementLevel.FEEDER,
            start=config.start_utc,
            values=feeders[0],
        ),
        substation=HourlyPowerSeries(
            site_id="substation",
            level=MeasurementLevel.SUBSTATION,
            start=config.start_utc,
            values=substation,
        ),
        site=site,
    )
    return dataset, profile

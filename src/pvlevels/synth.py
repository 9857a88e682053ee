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
in kW at each measured point, on daylight hours only, clamped at zero.

Aggregation averages away per-customer noise but not the shared drift,
so higher measurement levels carry a progressively cleaner view of the
predictable sky state. That asymmetry is deliberate: it is what rewards
a forecaster for fusing feeder and substation channels on top of a
single customer's history.

All randomness flows from one seed through named substreams (schedule,
shared sky, drift, one per customer, one per meter), so the dataset is
reproducible and adding customers never perturbs existing series.
"""

from __future__ import annotations

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
    loss_fraction: float = 0.04
    meter_noise_sd: float = 0.1
    shared_fraction: float = 0.0
    shared_drift_sd: float = 0.0
    shared_drift_rho: float = 0.995
    seed: int = 0
    start_utc: datetime = utc_datetime(2023, 3, 1)
    sigma_sunny: float = 0.02
    sigma_cloudy: float = 0.15
    sigma_partly: float = 0.25
    regime_stay_prob: float = 0.7

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
        if not 0.0 <= self.loss_fraction < 0.1:
            raise ValueError("loss_fraction must be in [0, 0.1)")
        if self.meter_noise_sd < 0.0:
            raise ValueError("meter_noise_sd must be >= 0")
        if not 0.0 <= self.shared_fraction <= 1.0:
            raise ValueError("shared_fraction must be in [0, 1]")
        if self.shared_drift_sd < 0.0:
            raise ValueError("shared_drift_sd must be >= 0")
        if not 0.0 <= self.shared_drift_rho < 1.0:
            raise ValueError("shared_drift_rho must be in [0, 1)")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if not 0.0 < self.regime_stay_prob < 1.0:
            raise ValueError("regime_stay_prob must be in (0, 1)")

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
            self.days, derive_seed(self.seed, _TAG_SCHEDULE), self.regime_stay_prob
        )

    def default_feeder_map(self) -> tuple[int, ...]:
        """Round-robin customer-to-feeder assignment."""
        return tuple(i % self.n_feeders for i in range(self.n_customers))


def random_regime_schedule(
    days: int, seed: int, stay_prob: float = 0.7
) -> tuple[Weather, ...]:
    """Markov weather schedule: keep yesterday's regime with stay_prob.

    Persistence is the point: with it, yesterday's measurements carry
    information about tomorrow, so day-ahead forecasts can beat the
    climatological mean.
    """
    if days < 1:
        raise ValueError("days must be >= 1")
    if not 0.0 < stay_prob < 1.0:
        raise ValueError("stay_prob must be in (0, 1)")
    rng = make_generator(seed)
    regimes = tuple(Weather)
    out = [regimes[rng.integers(len(regimes))]]
    for _ in range(days - 1):
        if rng.random() < stay_prob:
            out.append(out[-1])
        else:
            others = [w for w in regimes if w is not out[-1]]
            out.append(others[rng.integers(len(others))])
    return tuple(out)


def _index_from_innovations(
    regime: Weather,
    innovations: np.ndarray,
    config: SynthConfig,
    offset=0.0,
) -> np.ndarray:
    """One day's index values from pre-drawn standard-normal innovations.

    The first innovation seeds z at its stationary scale so a day's
    statistics do not depend on where it sits in the calendar. offset is
    added before clamping (scalar or per-hour array); the site drift
    enters here.
    """
    kappa_star = REGIME_MEAN[regime]
    sigma = config.regime_sigma(regime)
    rho = config.ar_rho
    z = np.empty(innovations.size, dtype=np.float64)
    if innovations.size == 0:
        return z
    stationary_sd = sigma / np.sqrt(1.0 - rho * rho)
    z[0] = stationary_sd * innovations[0]
    for t in range(1, innovations.size):
        z[t] = rho * z[t - 1] + sigma * innovations[t]
    return np.clip(kappa_star + offset + z, 0.0, KAPPA_MAX)


def _site_drift(config: SynthConfig, n_hours: int) -> np.ndarray:
    """The slow shared index drift over the whole hourly range.

    An AR(1) in real (calendar) hours, started from its stationary
    distribution, parametrized by the stationary standard deviation so
    the typical drift magnitude does not move when the time constant is
    tuned. Drawn full-length so its stream layout is independent of day
    masks and customer count.
    """
    rng = make_generator(derive_seed(config.seed, _TAG_DRIFT))
    eps = rng.standard_normal(n_hours)
    sd = config.shared_drift_sd
    rho = config.shared_drift_rho
    drift = np.empty(n_hours, dtype=np.float64)
    if n_hours == 0:
        return drift
    innov_sd = sd * np.sqrt(1.0 - rho * rho)
    drift[0] = sd * eps[0]
    for t in range(1, n_hours):
        drift[t] = rho * drift[t - 1] + innov_sd * eps[t]
    return drift


def gen_customer_index(
    day_regime: Weather,
    hours: int,
    config: SynthConfig,
    stream: np.random.Generator,
) -> np.ndarray:
    """One customer-day of clear-sky-index values, one per daylight hour."""
    if hours < 0:
        raise ValueError("hours must be >= 0")
    return _index_from_innovations(
        day_regime, stream.standard_normal(hours), config
    )


def _meter_noise(
    values: np.ndarray, day: np.ndarray, sd: float, rng: np.random.Generator
) -> np.ndarray:
    """Additive kW noise on daylight hours, clamped at zero.

    The noise vector is drawn full-length regardless of the mask so the
    draw sequence does not depend on day lengths.
    """
    noise = rng.standard_normal(values.size) * sd
    out = values.copy()
    out[day] = np.maximum(0.0, values[day] + noise[day])
    return out


def aggregate(
    customers: list[HourlyPowerSeries], config: SynthConfig
) -> tuple[list[HourlyPowerSeries], HourlyPowerSeries]:
    """Sum customers into feeders, feeders into the lossy substation.

    ``customers`` are the config.n_customers customers, assigned to
    feeders by ``config.default_feeder_map()``. Summation order is fixed:
    customers in index order within each feeder, then feeders in index
    order; with zero noise and zero loss the substation equals the
    customer total computed in that grouping exactly (bit-for-bit).
    Meter noise lands on each feeder and on the substation, daylight
    hours only, clamped at zero.
    """
    feeder_map = config.default_feeder_map()
    first = customers[0]
    day = np.zeros(first.n, dtype=bool)
    for c in customers:
        day |= c.values > 0.0
    feeders = []
    for j in range(config.n_feeders):
        members = [c.values for i, c in enumerate(customers) if feeder_map[i] == j]
        total = np.zeros(first.n, dtype=np.float64)
        for m in members:
            total = total + m
        rng = make_generator(derive_seed(config.seed, _TAG_FEEDER_METER, j))
        feeders.append(
            HourlyPowerSeries(
                site_id=f"feeder-{j}",
                level=MeasurementLevel.FEEDER,
                start=first.start,
                values=_meter_noise(total, day, config.meter_noise_sd, rng),
            )
        )
    bus = np.zeros(first.n, dtype=np.float64)
    for f in feeders:
        bus = bus + f.values
    bus = (1.0 - config.loss_fraction) * bus
    rng = make_generator(derive_seed(config.seed, _TAG_SUBSTATION_METER))
    substation = HourlyPowerSeries(
        site_id="substation",
        level=MeasurementLevel.SUBSTATION,
        start=first.start,
        values=_meter_noise(bus, day, config.meter_noise_sd, rng),
    )
    return feeders, substation


def capacity_fractions(config: SynthConfig) -> tuple[float, float, float]:
    """Share of site capacity behind each measured level's meter.

    The measured customer is customer 0, the measured feeder is feeder 0
    under the default round-robin map, the substation sees everything
    minus losses. These are the clear-sky scaling factors a forecasting
    run on this dataset should use.
    """
    n = config.n_customers
    on_feeder0 = sum(1 for j in config.default_feeder_map() if j == 0)
    return (1.0 / n, on_feeder0 / n, 1.0 - config.loss_fraction)


def gen_dataset(
    config: SynthConfig, site: SiteConfig = DEFAULT_SITE
) -> tuple[MultiLevelDataset, ClearSkyProfile]:
    """Full synthetic dataset: three aligned levels plus the site profile.

    The dataset's customer series is customer 0 (with its own meter
    noise), its feeder series is feeder 0, and the levels nest: the
    measured customer feeds the measured feeder feeds the substation.
    """
    n_hours = config.days * 24
    profile = clearsky_profile(site, config.start_utc, n_hours)
    schedule = config.schedule()
    share = profile.power_kw / config.n_customers
    daylight = profile.power_kw > 0.0

    # Per-day daylight slices on the hourly grid. A weather day is a
    # site-local calendar day, not a UTC one: otherwise every local
    # afternoon would straddle a regime boundary and the schedule would
    # paint phantom weather fronts at a fixed hour. Stray daylight hours
    # before the first local midnight borrow the first day's regime.
    local_day = np.floor(
        (np.arange(n_hours) + site.tz_offset) / 24.0
    ).astype(int)
    local_day = np.clip(local_day, 0, config.days - 1)
    day_slices = []
    for d in range(config.days):
        idx = np.flatnonzero(daylight & (local_day == d))
        day_slices.append(idx)

    shared_rng = make_generator(derive_seed(config.seed, _TAG_SHARED))
    shared = [shared_rng.standard_normal(idx.size) for idx in day_slices]
    drift = _site_drift(config, n_hours)

    c = config.shared_fraction
    customers = []
    for i in range(config.n_customers):
        rng = make_generator(derive_seed(config.seed, _TAG_CUSTOMER, i))
        values = np.zeros(n_hours, dtype=np.float64)
        for d, idx in enumerate(day_slices):
            own = rng.standard_normal(idx.size)
            eps = np.sqrt(c) * shared[d] + np.sqrt(1.0 - c) * own
            kappa = _index_from_innovations(
                schedule[d], eps, config, offset=drift[idx]
            )
            values[idx] = kappa * share[idx]
        customers.append(
            HourlyPowerSeries(
                site_id=f"customer-{i}",
                level=MeasurementLevel.CUSTOMER,
                start=config.start_utc,
                values=values,
            )
        )

    feeders, substation = aggregate(customers, config)

    meter_rng = make_generator(derive_seed(config.seed, _TAG_CUSTOMER_METER, 0))
    measured_customer = HourlyPowerSeries(
        site_id="customer-0",
        level=MeasurementLevel.CUSTOMER,
        start=config.start_utc,
        values=_meter_noise(
            customers[0].values, daylight, config.meter_noise_sd, meter_rng
        ),
    )
    dataset = MultiLevelDataset(
        customer=measured_customer, feeder=feeders[0], substation=substation, site=site
    )
    return dataset, profile

import math
import tracemalloc
from datetime import timedelta
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_acceptance import _synth_config

from pvlevels import synth
from pvlevels.clearsky import ClearSkyProfile, clearsky_profile
from pvlevels.core import (
    HourlyPowerSeries,
    MeasurementLevel,
    MultiLevelDataset,
    SiteConfig,
    Weather,
    derive_seed,
    make_generator,
    utc_datetime,
)
from pvlevels.pipeline import classify_weather_day
from pvlevels.preprocess import KAPPA_MAX
from pvlevels.synth import (
    DEFAULT_SITE,
    LOSS_FRACTION,
    REGIME_MEAN,
    REGIME_STAY_PROB,
    SynthConfig,
    _day_columns,
    _index_from_innovations,
    capacity_fractions,
    gen_dataset,
    random_regime_schedule,
)

ALL_SUNNY = SynthConfig(
    days=31,
    regime_schedule=tuple([Weather.SUNNY] * 31),
    sigma_sunny=0.0,
    meter_noise_sd=0.0,
    shared_drift_sd=0.0,
    seed=11,
)


class TestSynthConfigValidation:
    def test_defaults_valid(self):
        SynthConfig()

    def test_too_few_days(self):
        with pytest.raises(ValueError, match="days"):
            SynthConfig(days=30)

    def test_schedule_length_must_match_days(self):
        with pytest.raises(ValueError, match="regime_schedule"):
            SynthConfig(days=31, regime_schedule=tuple([Weather.SUNNY] * 30))

    def test_rho_bounds(self):
        with pytest.raises(ValueError):
            SynthConfig(ar_rho=1.0)
        with pytest.raises(ValueError):
            SynthConfig(ar_rho=-0.1)

    @pytest.mark.parametrize("field", ["n_customers", "n_feeders"])
    def test_needs_a_customer_and_a_feeder(self, field):
        with pytest.raises(ValueError, match="^need n_customers >= 1 and n_feeders >= 1$"):
            SynthConfig(**{field: 0})

    @pytest.mark.parametrize("rho", [1.0, -0.1])
    def test_drift_rho_bounds(self, rho):
        with pytest.raises(ValueError, match=r"^shared_drift_rho must be in \[0, 1\)$"):
            SynthConfig(shared_drift_rho=rho)

    def test_more_feeders_than_customers(self):
        with pytest.raises(ValueError):
            SynthConfig(n_customers=2, n_feeders=3)

    def test_shared_fraction_bounds(self):
        with pytest.raises(ValueError):
            SynthConfig(shared_fraction=1.5)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("meter_noise_sd", math.nan),
            ("shared_drift_sd", math.inf),
            ("sigma_sunny", math.nan),
            ("sigma_cloudy", -1.0),
            ("sigma_partly", math.inf),
        ],
    )
    def test_rejects_non_finite_or_negative_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and >= 0"):
            SynthConfig(**{field: value})

    def test_drift_sd_nonnegative(self):
        with pytest.raises(ValueError):
            SynthConfig(shared_drift_sd=-0.01)


def day_index(regimes, innovations, cfg):
    """Index values of one column per day, day j under ``regimes[j]``."""
    return _index_from_innovations(innovations, *_day_columns(regimes, cfg), cfg.ar_rho)


class TestGenCustomerIndex:
    """Customer-days of index values from a stream's innovations, one
    column per day."""

    def test_noise_free_sunny_is_constant(self):
        cfg = SynthConfig(sigma_sunny=0.0)
        eps = make_generator(0).standard_normal(14)
        idx = day_index((Weather.SUNNY,), eps[:, None], cfg)
        assert np.array_equal(idx, np.full((14, 1), 0.95))

    def test_noise_free_means_per_regime(self):
        cfg = SynthConfig(sigma_sunny=0.0, sigma_cloudy=0.0, sigma_partly=0.0)
        rng = make_generator(0)
        for regime, mean in ((Weather.CLOUDY, 0.30), (Weather.PARTLY_CLOUDY, 0.60)):
            idx = day_index((regime,), rng.standard_normal((5, 1)), cfg)
            assert idx[0, 0] == mean

    def test_values_bounded(self):
        cfg = SynthConfig(sigma_cloudy=0.5)
        eps = make_generator(3).standard_normal((500, 1))
        idx = day_index((Weather.CLOUDY,), eps, cfg)
        assert np.all(idx >= 0.0)
        assert np.all(idx <= KAPPA_MAX)

    def test_same_stream_same_series(self):
        cfg = SynthConfig()
        a, b = (
            day_index(
                (Weather.PARTLY_CLOUDY,), make_generator(7).standard_normal((20, 1)), cfg
            )
            for _ in range(2)
        )
        assert np.array_equal(a, b)

    @given(st.integers(0, 60), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bounded_for_any_stream(self, hours, days, seed):
        cfg = SynthConfig(sigma_partly=0.4, ar_rho=0.8)
        eps = make_generator(seed).standard_normal((hours, days))
        idx = day_index((Weather.PARTLY_CLOUDY,) * days, eps, cfg)
        assert idx.shape == (hours, days)
        assert np.all((idx >= 0.0) & (idx <= KAPPA_MAX))


class TestCapacityFractions:
    def test_round_robin_counts(self):
        cfg = SynthConfig(n_customers=12, n_feeders=3)
        assert capacity_fractions(cfg) == (1.0 / 12, 4.0 / 12, 0.96)

    def test_uneven_split(self):
        cfg = SynthConfig(n_customers=7, n_feeders=3)
        # round-robin: feeder 0 gets customers 0, 3, 6
        assert capacity_fractions(cfg) == (1.0 / 7, 3.0 / 7, 1.0 - LOSS_FRACTION)


class TestGenDataset:
    def test_sample_count(self):
        dataset, profile = gen_dataset(SynthConfig(days=31, seed=1))
        assert dataset.n == 744
        assert profile.n == 744

    def test_noise_free_sunny_composition(self):
        dataset, profile = gen_dataset(ALL_SUNNY)
        share = profile.power_kw / ALL_SUNNY.n_customers
        assert np.allclose(
            dataset.series(MeasurementLevel.CUSTOMER).values, 0.95 * share
        )

    def test_night_hours_exactly_zero_every_level(self):
        dataset, profile = gen_dataset(SynthConfig(days=31, seed=3))
        night = profile.power_kw == 0.0
        for level in MeasurementLevel:
            assert np.all(dataset.series(level).values[night] == 0.0)

    def test_same_seed_identical(self):
        a, _ = gen_dataset(SynthConfig(days=31, seed=9))
        b, _ = gen_dataset(SynthConfig(days=31, seed=9))
        for level in MeasurementLevel:
            assert np.array_equal(a.series(level).values, b.series(level).values)

    def test_different_seed_differs(self):
        a, _ = gen_dataset(SynthConfig(days=31, seed=9))
        b, _ = gen_dataset(SynthConfig(days=31, seed=10))
        assert not np.array_equal(
            a.series(MeasurementLevel.CUSTOMER).values,
            b.series(MeasurementLevel.CUSTOMER).values,
        )

    def test_customer_stream_unmoved_by_added_customers(self):
        # substream-per-entity layout: the measured customer's index
        # process must not change when the fleet grows behind it
        base = dict(days=31, meter_noise_sd=0.0, seed=4)
        small, profile = gen_dataset(SynthConfig(n_customers=6, **base))
        large, _ = gen_dataset(SynthConfig(n_customers=8, **base))
        day = profile.power_kw > 0.0
        idx_small = small.series(MeasurementLevel.CUSTOMER).values[day] * 6
        idx_large = large.series(MeasurementLevel.CUSTOMER).values[day] * 8
        assert np.allclose(idx_small, idx_large, rtol=0, atol=1e-12)

    def test_non_finite_customer_power_is_refused(self, monkeypatch):
        real = clearsky_profile(DEFAULT_SITE, ALL_SUNNY.start_utc, ALL_SUNNY.days * 24)
        power = real.power_kw.copy()
        power[np.flatnonzero(power)[5]] = np.inf

        def broken(site, start, n_hours):
            return ClearSkyProfile(start, power, real.ghi_wm2)

        monkeypatch.setattr(synth, "clearsky_profile", broken)
        with pytest.raises(ValueError, match="NaN/Inf"):
            gen_dataset(ALL_SUNNY)

    def test_peak_memory_holds_one_fleet_array(self):
        # criterion 6's config: 72 customers over 90 days. The fleet
        # array's innovations become its index and then its power in
        # place; a second array of its size, or a customers x hours
        # matrix, takes the peak past 2.5 MiB
        config = _synth_config(101)
        gen_dataset(config)
        tracemalloc.start()
        try:
            gen_dataset(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("seed", [1, 2])
    def test_one_feeder_is_the_substation_before_losses(self, seed):
        dataset, _ = gen_dataset(
            SynthConfig(days=31, n_customers=5, n_feeders=1, meter_noise_sd=0.0, seed=seed)
        )
        want = (1.0 - LOSS_FRACTION) * dataset.feeder.values
        assert dataset.substation.values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [1, 2])
    def test_feeder_per_customer_is_the_customer(self, seed):
        dataset, _ = gen_dataset(
            SynthConfig(days=31, n_customers=4, n_feeders=4, meter_noise_sd=0.0, seed=seed)
        )
        assert dataset.feeder.values.tobytes() == dataset.customer.values.tobytes()

    def test_levels_aligned(self):
        dataset, profile = gen_dataset(SynthConfig(days=31, seed=6))
        assert dataset.start == profile.start
        c = dataset.series(MeasurementLevel.CUSTOMER)
        s = dataset.series(MeasurementLevel.SUBSTATION)
        assert c.n == s.n == dataset.n


def reference_ar1(eps, rho, first_sd, innov_sd):
    """One AR(1) path, one scalar step at a time."""
    x = np.empty(eps.size)
    if eps.size:
        x[0] = first_sd * eps[0]
    for t in range(1, eps.size):
        x[t] = rho * x[t - 1] + innov_sd * eps[t]
    return x


def reference_meter_noise(values, on, sd, rng):
    """Noise drawn for every hour, added on the hours ``on`` masks and
    clamped at zero there."""
    noise = rng.standard_normal(values.size) * sd
    out = values.copy()
    out[on] = np.maximum(0.0, values[on] + noise[on])
    return out


def reference_aggregate(customers, config):
    """The feeder and substation readings as a loop over feeders: each
    feeder a running sum of its round-robin customers' series, the
    substation a running sum of the metered feeders, each meter noisy
    where some customer's power is positive."""
    tag_feeder_meter, tag_substation_meter = 5, 6
    n = customers[0].n
    on = np.zeros(n, dtype=bool)
    for c in customers:
        on |= c.values > 0.0
    feeders = []
    for j in range(config.n_feeders):
        total = np.zeros(n)
        for i, c in enumerate(customers):
            if i % config.n_feeders == j:
                total = total + c.values
        rng = make_generator(derive_seed(config.seed, tag_feeder_meter, j))
        feeders.append(reference_meter_noise(total, on, config.meter_noise_sd, rng))
    bus = np.zeros(n)
    for f in feeders:
        bus = bus + f
    rng = make_generator(derive_seed(config.seed, tag_substation_meter))
    substation = reference_meter_noise(
        (1.0 - LOSS_FRACTION) * bus, on, config.meter_noise_sd, rng
    )
    return feeders, substation


def reference_gen_dataset(config, site=DEFAULT_SITE):
    """``gen_dataset`` as a loop over customers and days: each customer
    draws its innovations one local day at a time, and each day's index
    is its own AR(1) path and clamp; the feeders and the substation
    come from ``reference_aggregate``. The substream tags are spelled
    out so a moved tag fails the comparison too."""
    tag_shared, tag_customer, tag_customer_meter, tag_drift = 2, 3, 4, 7
    n_hours = config.days * 24
    profile = clearsky_profile(site, config.start_utc, n_hours)
    schedule = config.schedule()
    share = profile.power_kw / config.n_customers
    daylight = profile.power_kw > 0.0
    local_day = np.floor((np.arange(n_hours) + site.tz_offset) / 24.0).astype(int)
    local_day = np.clip(local_day, 0, config.days - 1)
    day_slices = [
        np.flatnonzero(daylight & (local_day == d)) for d in range(config.days)
    ]
    shared_rng = make_generator(derive_seed(config.seed, tag_shared))
    shared = [shared_rng.standard_normal(idx.size) for idx in day_slices]
    drift_rng = make_generator(derive_seed(config.seed, tag_drift))
    sd, drift_rho = config.shared_drift_sd, config.shared_drift_rho
    drift = reference_ar1(
        drift_rng.standard_normal(n_hours),
        drift_rho,
        sd,
        sd * np.sqrt(1.0 - drift_rho * drift_rho),
    )
    c, rho = config.shared_fraction, config.ar_rho
    customers = []
    for i in range(config.n_customers):
        rng = make_generator(derive_seed(config.seed, tag_customer, i))
        values = np.zeros(n_hours)
        for d, idx in enumerate(day_slices):
            own = rng.standard_normal(idx.size)
            eps = np.sqrt(c) * shared[d] + np.sqrt(1.0 - c) * own
            sigma = config.regime_sigma(schedule[d])
            z = reference_ar1(eps, rho, sigma / np.sqrt(1.0 - rho * rho), sigma)
            kappa = np.clip(REGIME_MEAN[schedule[d]] + drift[idx] + z, 0.0, KAPPA_MAX)
            values[idx] = kappa * share[idx]
        customers.append(
            HourlyPowerSeries(
                site_id=f"customer-{i}",
                level=MeasurementLevel.CUSTOMER,
                start=config.start_utc,
                values=values,
            )
        )
    feeders, substation = reference_aggregate(customers, config)
    meter_rng = make_generator(derive_seed(config.seed, tag_customer_meter, 0))
    measured = customers[0].with_values(
        reference_meter_noise(customers[0].values, daylight, config.meter_noise_sd, meter_rng)
    )
    start = config.start_utc
    feeder = HourlyPowerSeries("feeder-0", MeasurementLevel.FEEDER, start, feeders[0])
    bus = HourlyPowerSeries("substation", MeasurementLevel.SUBSTATION, start, substation)
    return MultiLevelDataset(measured, feeder, bus, site=site), profile


EAST_SITE = SiteConfig(
    latitude=-33.9,
    longitude=151.2,
    tz_offset=10.0,
    dc_rating_kw=50.0,
    ac_rating_kw=45.0,
    system_efficiency=0.9,
)
POLAR_SITE = SiteConfig(
    latitude=75.0,
    longitude=15.0,
    tz_offset=1.0,
    dc_rating_kw=50.0,
    ac_rating_kw=50.0,
    system_efficiency=0.96,
)
CYCLE = (Weather.SUNNY, Weather.CLOUDY, Weather.PARTLY_CLOUDY)
# a dark, very noisy three-customer fleet: daylight hours where every
# customer reads 0, and hours where customer 0 does but the feeder not
ZERO_HOURS = SynthConfig(
    days=31,
    n_customers=3,
    n_feeders=1,
    shared_fraction=0.6,
    regime_schedule=(Weather.CLOUDY,) * 31,
    sigma_cloudy=0.6,
    seed=4,
)
MIXED = dict(
    days=40,
    n_customers=7,
    n_feeders=3,
    shared_fraction=0.35,
    shared_drift_sd=0.08,
    shared_drift_rho=0.98,
    ar_rho=0.6,
    seed=21,
)


class TestAgainstDayLoop:
    """``gen_dataset`` draws each stream once and advances every customer
    and day together; its three series equal the loop's over customers,
    days and feeders to the bit."""

    @pytest.mark.parametrize(
        "config, site",
        [
            pytest.param(
                SynthConfig(regime_schedule=tuple(CYCLE[k % 3] for k in range(40)), **MIXED),
                DEFAULT_SITE,
                id="shared-and-drift",
            ),
            pytest.param(SynthConfig(**MIXED), DEFAULT_SITE, id="drawn-schedule"),
            pytest.param(
                SynthConfig(days=31, n_customers=1, n_feeders=1, seed=5),
                DEFAULT_SITE,
                id="one-customer",
            ),
            pytest.param(SynthConfig(**MIXED), EAST_SITE, id="east-of-utc"),
            pytest.param(
                SynthConfig(start_utc=utc_datetime(2023, 10, 20), **MIXED),
                POLAR_SITE,
                id="polar-night-falls",
            ),
            pytest.param(
                SynthConfig(start_utc=utc_datetime(2023, 12, 1), **MIXED),
                POLAR_SITE,
                id="no-daylight",
            ),
            pytest.param(
                SynthConfig(days=31, n_customers=5, n_feeders=5, shared_fraction=0.4, seed=6),
                DEFAULT_SITE,
                id="feeder-per-customer",
            ),
            pytest.param(
                SynthConfig(days=33, n_customers=6, n_feeders=1, shared_drift_sd=0.1, seed=7),
                DEFAULT_SITE,
                id="one-feeder",
            ),
            pytest.param(
                SynthConfig(
                    days=31,
                    n_customers=72,
                    n_feeders=36,
                    meter_noise_sd=0.02,
                    ar_rho=0.3,
                    shared_drift_sd=0.23,
                    sigma_sunny=0.2,
                    sigma_partly=0.2,
                    seed=101,
                ),
                DEFAULT_SITE,
                id="case-study-scale",
            ),
            pytest.param(ZERO_HOURS, DEFAULT_SITE, id="zero-hours"),
        ],
    )
    def test_series_equal_the_day_loop(self, config, site):
        got, _ = gen_dataset(config, site)
        want, _ = reference_gen_dataset(config, site)
        for level in MeasurementLevel:
            assert got.series(level).values.tobytes() == want.series(level).values.tobytes()

    def test_cases_cover_what_they_name(self):
        # the east site's trailing UTC hours are daylight folded into the
        # last local day; the polar ranges have dark days, then no light
        def daylight(config, site):
            return clearsky_profile(site, config.start_utc, config.days * 24).power_kw > 0.0

        east = daylight(SynthConfig(**MIXED), EAST_SITE)
        assert east[-24 + 14 :].any()
        falls = daylight(SynthConfig(start_utc=utc_datetime(2023, 10, 20), **MIXED), POLAR_SITE)
        by_day = falls.reshape(-1, 24).any(axis=1)
        assert by_day.any() and not by_day.all()
        dark = daylight(SynthConfig(start_utc=utc_datetime(2023, 12, 1), **MIXED), POLAR_SITE)
        assert not dark.any()
        # the zero-hours fleet, noise-free so its series are the sums
        dataset, profile = gen_dataset(replace(ZERO_HOURS, meter_noise_sd=0.0))
        lit = profile.power_kw > 0.0
        feeder, customer = dataset.feeder.values, dataset.customer.values
        assert (lit & (feeder == 0.0)).any()
        assert (lit & (customer == 0.0) & (feeder > 0.0)).any()

    @pytest.mark.parametrize("a, b", [(0, 0), (0, 5), (7, 0), (1, 1), (13, 29), (500, 333)])
    def test_one_draw_is_its_parts_in_order(self, a, b):
        # the whole-stream draw rests on this: a standard-normal draw of
        # a + b values is a draw of a values followed by one of b
        for seed in (0, derive_seed(21, 3, 0)):
            whole = make_generator(seed).standard_normal(a + b)
            rng = make_generator(seed)
            parts = np.concatenate([rng.standard_normal(a), rng.standard_normal(b)])
            assert whole.tobytes() == parts.tobytes()


class TestRegimeSeparability:
    def test_scheduled_regimes_recovered(self):
        # one generated day per draw, classified by its mean index; the
        # default sigmas must keep the three regimes distinguishable
        cfg = SynthConfig(seed=0)
        rng = make_generator(12345)
        per_regime = 100
        hits = 0
        total = 0
        for regime in Weather:
            # 100 days of 14 hours, one column each, drawn day by day
            eps = rng.standard_normal(14 * per_regime).reshape(per_regime, 14).T
            idx = day_index((regime,) * per_regime, eps, cfg)
            for day in idx.T:
                got = classify_weather_day(day)
                hits += got is regime
                total += 1
        assert hits / total >= 0.95

    def test_dataset_substation_matches_schedule(self):
        days = 90
        cycle = [Weather.SUNNY, Weather.PARTLY_CLOUDY, Weather.CLOUDY]
        schedule = tuple(cycle[(k // 5) % 3] for k in range(days))
        cfg = SynthConfig(days=days, regime_schedule=schedule, seed=2)
        dataset, profile = gen_dataset(cfg, DEFAULT_SITE)
        share = capacity_fractions(cfg)[2]
        daylight = profile.power_kw > 0.0
        tz = DEFAULT_SITE.tz_offset
        local_day = np.floor((np.arange(dataset.n) + tz) / 24.0).astype(int)
        local_day = np.clip(local_day, 0, days - 1)
        values = dataset.series(MeasurementLevel.SUBSTATION).values
        hits = 0
        counted = 0
        for d in range(1, days):
            sel = daylight & (local_day == d)
            if not np.any(sel):
                continue
            kappa = values[sel] / (share * profile.power_kw[sel])
            hits += classify_weather_day(kappa) is schedule[d]
            counted += 1
        assert counted > 80
        assert hits / counted >= 0.95

    @pytest.mark.parametrize("hour", [0, 5, 12, 23])
    def test_regime_day_is_site_local_at_any_start_hour(self, hour):
        # noise-free, so every daylight hour reads its day's regime mean
        cycle = (Weather.SUNNY, Weather.CLOUDY, Weather.PARTLY_CLOUDY)
        start = utc_datetime(2023, 3, 1, hour)
        cfg = replace(
            ALL_SUNNY,
            regime_schedule=tuple(cycle[k % 3] for k in range(ALL_SUNNY.days)),
            sigma_cloudy=0.0,
            sigma_partly=0.0,
            start_utc=start,
        )
        dataset, profile = gen_dataset(cfg, DEFAULT_SITE)
        hours = np.flatnonzero(profile.power_kw > 0.0)
        # day k is the site-local date k days after the start's UTC date;
        # daylight before the first of them or after the last is clipped
        tz = timedelta(hours=DEFAULT_SITE.tz_offset)
        local_days = [
            ((start + timedelta(hours=int(h)) + tz).date() - start.date()).days
            for h in hours
        ]
        want = [REGIME_MEAN[cfg.regime_schedule[min(max(k, 0), cfg.days - 1)]]
                for k in local_days]
        kappa = dataset.customer.values[hours] / (
            profile.power_kw[hours] / cfg.n_customers
        )
        np.testing.assert_allclose(kappa, want, rtol=1e-12, atol=0.0)


class TestRandomRegimeSchedule:
    def test_deterministic(self):
        assert random_regime_schedule(50, 3) == random_regime_schedule(50, 3)

    def test_length_and_members(self):
        sched = random_regime_schedule(40, 1)
        assert len(sched) == 40
        assert all(w in tuple(Weather) for w in sched)

    def test_high_stay_prob_persists(self):
        # 199 transitions: the share kept is REGIME_STAY_PROB within about
        # three binomial standard deviations (0.032 each)
        sched = random_regime_schedule(200, 5)
        stays = sum(a is b for a, b in zip(sched, sched[1:]))
        assert abs(stays / 199 - REGIME_STAY_PROB) < 0.1

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            random_regime_schedule(0, 1)

    def test_markov_schedule_used_when_none(self):
        cfg = SynthConfig(days=40, seed=8)
        assert cfg.schedule() == cfg.schedule()
        assert len(cfg.schedule()) == 40

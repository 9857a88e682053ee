import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pvlevels.clearsky import clearsky_profile
from pvlevels.core import HourlyPowerSeries, MeasurementLevel, Weather, make_generator
from pvlevels.pipeline import classify_weather_day
from pvlevels.preprocess import KAPPA_MAX
from pvlevels.synth import (
    DEFAULT_SITE,
    SynthConfig,
    aggregate,
    capacity_fractions,
    gen_customer_index,
    gen_dataset,
    random_regime_schedule,
)

ALL_SUNNY = SynthConfig(
    days=31,
    regime_schedule=tuple([Weather.SUNNY] * 31),
    sigma_sunny=0.0,
    meter_noise_sd=0.0,
    loss_fraction=0.0,
    shared_drift_sd=0.0,
    seed=11,
)


def flat_customers(n, value=2.0, hours=48, start=None):
    """Constant daytime output; hour 0 of each day is night (zero)."""
    from pvlevels.core import utc_datetime

    start = start or utc_datetime(2023, 3, 1)
    values = np.full(hours, value)
    values[::24] = 0.0
    return [
        HourlyPowerSeries(
            site_id=f"customer-{i}",
            level=MeasurementLevel.CUSTOMER,
            start=start,
            values=values.copy(),
        )
        for i in range(n)
    ]


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

    def test_loss_bounds(self):
        with pytest.raises(ValueError):
            SynthConfig(loss_fraction=0.1)

    def test_more_feeders_than_customers(self):
        with pytest.raises(ValueError):
            SynthConfig(n_customers=2, n_feeders=3)

    def test_shared_fraction_bounds(self):
        with pytest.raises(ValueError):
            SynthConfig(shared_fraction=1.5)

    def test_drift_sd_nonnegative(self):
        with pytest.raises(ValueError):
            SynthConfig(shared_drift_sd=-0.01)


class TestGenCustomerIndex:
    def test_noise_free_sunny_is_constant(self):
        cfg = SynthConfig(sigma_sunny=0.0)
        rng = make_generator(0)
        idx = gen_customer_index(Weather.SUNNY, 14, cfg, rng)
        assert np.array_equal(idx, np.full(14, 0.95))

    def test_noise_free_means_per_regime(self):
        cfg = SynthConfig(sigma_sunny=0.0, sigma_cloudy=0.0, sigma_partly=0.0)
        rng = make_generator(0)
        assert gen_customer_index(Weather.CLOUDY, 5, cfg, rng)[0] == 0.30
        assert gen_customer_index(Weather.PARTLY_CLOUDY, 5, cfg, rng)[0] == 0.60

    def test_values_bounded(self):
        cfg = SynthConfig(sigma_cloudy=0.5)
        rng = make_generator(3)
        idx = gen_customer_index(Weather.CLOUDY, 500, cfg, rng)
        assert np.all(idx >= 0.0)
        assert np.all(idx <= KAPPA_MAX)

    def test_same_stream_same_series(self):
        cfg = SynthConfig()
        a = gen_customer_index(Weather.PARTLY_CLOUDY, 20, cfg, make_generator(7))
        b = gen_customer_index(Weather.PARTLY_CLOUDY, 20, cfg, make_generator(7))
        assert np.array_equal(a, b)

    def test_negative_hours_rejected(self):
        with pytest.raises(ValueError):
            gen_customer_index(Weather.SUNNY, -1, SynthConfig(), make_generator(0))

    @given(st.integers(0, 60), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bounded_for_any_stream(self, hours, seed):
        cfg = SynthConfig(sigma_partly=0.4, ar_rho=0.8)
        idx = gen_customer_index(
            Weather.PARTLY_CLOUDY, hours, cfg, make_generator(seed)
        )
        assert idx.shape == (hours,)
        assert np.all((idx >= 0.0) & (idx <= KAPPA_MAX))


class TestAggregate:
    def test_conservation_exact(self):
        cfg = SynthConfig(
            n_customers=6, n_feeders=2, loss_fraction=0.0, meter_noise_sd=0.0
        )
        customers = flat_customers(6)
        feeders, substation = aggregate(customers, cfg)
        total = np.sum([c.values for c in customers], axis=0)
        assert np.array_equal(substation.values, total)
        assert len(feeders) == 2

    def test_loss_fraction_applied(self):
        # 10 customers at 10 kW each: feeders total 100 kW, 5% loss -> 95
        cfg = SynthConfig(
            n_customers=10, n_feeders=2, loss_fraction=0.05, meter_noise_sd=0.0
        )
        customers = flat_customers(10, value=10.0)
        _, substation = aggregate(customers, cfg)
        day = customers[0].values > 0
        assert np.allclose(substation.values[day], 95.0)

    def test_noise_bounded_six_sigma(self):
        sd = 0.4
        cfg_noisy = SynthConfig(
            n_customers=6, n_feeders=3, loss_fraction=0.0, meter_noise_sd=sd, seed=5
        )
        cfg_clean = SynthConfig(
            n_customers=6, n_feeders=3, loss_fraction=0.0, meter_noise_sd=0.0, seed=5
        )
        customers = flat_customers(6, hours=744)
        _, noisy = aggregate(customers, cfg_noisy)
        _, clean = aggregate(customers, cfg_clean)
        delta = noisy.values - clean.values
        assert np.any(delta != 0.0)
        # the difference stacks three feeder meters and the substation
        # meter, so six sigma is six of the stacked deviation
        sigma_delta = sd * np.sqrt(1.0 + 3.0)
        assert np.all(np.abs(delta) < 6.0 * sigma_delta)

    def test_night_hours_stay_zero(self):
        cfg = SynthConfig(n_customers=4, n_feeders=2, meter_noise_sd=1.0, seed=2)
        customers = flat_customers(4)
        feeders, substation = aggregate(customers, cfg)
        night = customers[0].values == 0.0
        for f in feeders:
            assert np.all(f.values[night] == 0.0)
        assert np.all(substation.values[night] == 0.0)


class TestCapacityFractions:
    def test_round_robin_counts(self):
        cfg = SynthConfig(n_customers=12, n_feeders=3, loss_fraction=0.04)
        assert capacity_fractions(cfg) == (1.0 / 12, 4.0 / 12, 0.96)

    def test_uneven_split(self):
        cfg = SynthConfig(n_customers=7, n_feeders=3, loss_fraction=0.0)
        # round-robin: feeder 0 gets customers 0, 3, 6
        assert capacity_fractions(cfg) == (1.0 / 7, 3.0 / 7, 1.0)


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

    def test_levels_aligned(self):
        dataset, profile = gen_dataset(SynthConfig(days=31, seed=6))
        assert dataset.start == profile.start
        c = dataset.series(MeasurementLevel.CUSTOMER)
        s = dataset.series(MeasurementLevel.SUBSTATION)
        assert c.n == s.n == dataset.n


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
            for _ in range(per_regime):
                idx = gen_customer_index(regime, 14, cfg, rng)
                got = classify_weather_day(idx)
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


class TestRandomRegimeSchedule:
    def test_deterministic(self):
        assert random_regime_schedule(50, 3) == random_regime_schedule(50, 3)

    def test_length_and_members(self):
        sched = random_regime_schedule(40, 1)
        assert len(sched) == 40
        assert all(w in tuple(Weather) for w in sched)

    def test_high_stay_prob_persists(self):
        sched = random_regime_schedule(200, 5, stay_prob=0.9)
        stays = sum(a is b for a, b in zip(sched, sched[1:]))
        assert stays / 199 > 0.8

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            random_regime_schedule(0, 1)
        with pytest.raises(ValueError):
            random_regime_schedule(10, 1, stay_prob=1.0)

    def test_markov_schedule_used_when_none(self):
        cfg = SynthConfig(days=40, seed=8)
        assert cfg.schedule() == cfg.schedule()
        assert len(cfg.schedule()) == 40

"""Harness-level tests: weather classing, case plumbing, determinism.

The forecasting fixtures use deliberately tiny networks (3 hidden units,
60 epochs): these tests pin orchestration behavior, not forecast skill.
"""

import math
from dataclasses import FrozenInstanceError, fields, replace
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pvlevels as pv
from pvlevels.core import MeasurementLevel, Weather, utc_datetime
from pvlevels.errors import InputError, Unforecastable
from pvlevels.pipeline import CASE_LEVELS, CaseStudy
from pvlevels.preprocess import normalize_and_mask
from test_narnet import reference_train, row_kinds

C, F, S = (
    MeasurementLevel.CUSTOMER,
    MeasurementLevel.FEEDER,
    MeasurementLevel.SUBSTATION,
)

TINY_NET = pv.NetworkConfig(
    delay_d=3, hidden_width=3, max_epochs=60, step_size=0.01, early_stop_patience=15
)

# 44 local days (the per-level fitting nets need 360 day hours of
# history); the last six are scripted so every weather class has a
# candidate and the cloudy class has two days with a cloudy predecessor
_SCHEDULE = (
    (Weather.SUNNY,) * 39
    + (Weather.CLOUDY, Weather.CLOUDY, Weather.CLOUDY)
    + (Weather.PARTLY_CLOUDY, Weather.CLOUDY)
)


def local_day(k: int) -> date:
    return date(2023, 3, 1) + timedelta(days=k)


@pytest.fixture(scope="module")
def scfg():
    return pv.SynthConfig(
        days=44,
        n_customers=6,
        n_feeders=2,
        seed=11,
        meter_noise_sd=0.02,
        ar_rho=0.3,
        sigma_sunny=0.03,
        sigma_cloudy=0.05,
        sigma_partly=0.08,
        regime_schedule=_SCHEDULE,
    )


@pytest.fixture(scope="module")
def data(scfg):
    return pv.gen_dataset(scfg, pv.DEFAULT_SITE)


@pytest.fixture(scope="module")
def fast(scfg):
    return pv.PipelineConfig(
        seed=5,
        capacity_fractions=pv.capacity_fractions(scfg),
        max_retries=1,
        narx_committee=1,
        fit_net=TINY_NET,
        narx_net=TINY_NET,
        baseline_net=TINY_NET,
    )


def tiny_fitting(level, fit_r2, fit_mape):
    net = pv.init_network(pv.NetworkConfig(delay_d=2, hidden_width=2))
    return pv.FittingModel(level=level, net=net, fit_r2=fit_r2, fit_mape=fit_mape)


class TestClassifyWeatherDay:
    def test_thresholds_inclusive(self):
        assert pv.classify_weather_day([0.8] * 5) is Weather.SUNNY
        assert pv.classify_weather_day([0.4] * 5) is Weather.CLOUDY
        assert pv.classify_weather_day([0.6] * 5) is Weather.PARTLY_CLOUDY

    def test_mean_not_pointwise(self):
        # individual hours straddle both thresholds; only the mean counts
        values = [0.1, 0.9, 0.95, 0.9, 0.95]
        assert pv.classify_weather_day(values) is Weather.PARTLY_CLOUDY

    def test_custom_thresholds(self):
        assert (
            pv.classify_weather_day([0.5] * 4, sunny_threshold=0.45)
            is Weather.SUNNY
        )
        assert (
            pv.classify_weather_day([0.5] * 4, cloudy_threshold=0.55)
            is Weather.CLOUDY
        )

    def test_empty_day(self):
        with pytest.raises(Unforecastable, match="no day-hour index values to classify"):
            pv.classify_weather_day([])

    @given(
        st.lists(st.floats(0.0, 1.2), min_size=1, max_size=14),
        st.floats(0.5, 0.9),
        st.floats(0.1, 0.45),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_mean_rule(self, values, hi, lo):
        w = pv.classify_weather_day(values, hi, lo)
        mean = float(np.mean(values))
        if mean >= hi:
            assert w is Weather.SUNNY
        elif mean <= lo:
            assert w is Weather.CLOUDY
        else:
            assert w is Weather.PARTLY_CLOUDY


class TestSelectBestFitting:
    def test_highest_r2_wins(self):
        models = [
            tiny_fitting(C, 0.90, 0.05),
            tiny_fitting(F, 0.95, 0.20),
            tiny_fitting(S, 0.80, 0.01),
        ]
        assert pv.select_best_fitting(models).level is F

    def test_r2_tie_broken_by_mape(self):
        models = [tiny_fitting(C, 0.9, 0.10), tiny_fitting(F, 0.9, 0.05)]
        assert pv.select_best_fitting(models).level is F

    def test_full_tie_broken_by_level_order(self):
        models = [tiny_fitting(S, 0.9, 0.1), tiny_fitting(C, 0.9, 0.1)]
        assert pv.select_best_fitting(models).level is C

    def test_empty(self):
        with pytest.raises(ValueError, match="no fitting models to select from"):
            pv.select_best_fitting([])


class TestPipelineConfigValidation:
    def test_defaults_valid(self):
        pv.PipelineConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"capacity_fractions": (1.0, 1.0)},
            {"capacity_fractions": (1.0, 0.0, 1.0)},
            {"epsilon_fraction": -0.01},
            {"day_threshold_fraction": 0.0},
            {"day_threshold_fraction": 1.0},
            {"max_retries": 0},
            {"narx_committee": 0},
            {"cloudy_threshold": 0.8},
            {"cloudy_threshold": 0.0},
            {"seed": -1},
            {"seed": 2**64},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            pv.PipelineConfig(**kwargs)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("epsilon_fraction", math.nan),
            ("capacity_fractions", (1.0, math.inf, 1.0)),
        ],
    )
    def test_rejects_non_finite_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be .*finite"):
            pv.PipelineConfig(**{field: value})

    @pytest.mark.parametrize(
        "name,value", [("kappa_max", pv.KAPPA_MAX), ("sunny_threshold", 0.8)]
    )
    def test_constants_are_not_settable(self, name, value):
        assert name not in {f.name for f in fields(pv.PipelineConfig)}
        cfg = pv.PipelineConfig()
        assert getattr(cfg, name) == getattr(pv.PipelineConfig, name) == value
        with pytest.raises(TypeError):
            pv.PipelineConfig(**{name: value})
        with pytest.raises(TypeError):
            replace(cfg, **{name: value})
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, name, value)

    def test_fraction_maps_levels(self):
        cfg = pv.PipelineConfig(capacity_fractions=(0.1, 0.4, 0.9))
        assert cfg.fraction(C) == 0.1
        assert cfg.fraction(F) == 0.4
        assert cfg.fraction(S) == 0.9


class TestLevelErrors:
    def test_met(self):
        e = pv.LevelErrors(e_c=0.3, e_f=0.2, e_s=0.25, e_n=0.1)
        assert e.target_met

    def test_not_met(self):
        e = pv.LevelErrors(e_c=0.3, e_f=0.2, e_s=0.25, e_n=0.2)
        assert not e.target_met  # ties do not count as beating the floor


def dummy_forecast():
    return pv.HourlyPowerSeries(
        site_id="t", level=C, start=utc_datetime(2023, 4, 1), values=np.zeros(24)
    )


def dummy_report(mape_target):
    actual = np.array([10.0, 20.0, 30.0])
    return pv.report(actual, actual * (1.0 + mape_target))


class TestCaseResultValidation:
    def test_case1_shape(self):
        reports = {lv: dummy_report(0.1 * (i + 1)) for i, lv in enumerate((C, F, S))}
        r = pv.CaseResult(
            case_id=CaseStudy.CASE1,
            weather=Weather.SUNNY,
            levels_used=frozenset((C, F, S)),
            forecast=dummy_forecast(),
            seed=0,
            per_level_reports=reports,
        )
        assert r.mape == pytest.approx(0.1)  # the per-level minimum

    def test_case1_requires_every_level(self):
        with pytest.raises(ValueError):
            pv.CaseResult(
                case_id=CaseStudy.CASE1,
                weather=Weather.SUNNY,
                levels_used=frozenset((C, F, S)),
                forecast=dummy_forecast(),
                seed=0,
                per_level_reports={C: dummy_report(0.1)},
            )

    def test_case1_rejects_single_report(self):
        reports = {lv: dummy_report(0.1) for lv in (C, F, S)}
        with pytest.raises(ValueError):
            pv.CaseResult(
                case_id=CaseStudy.CASE1,
                weather=Weather.SUNNY,
                levels_used=frozenset((C, F, S)),
                forecast=dummy_forecast(),
                seed=0,
                per_level_reports=reports,
                report=dummy_report(0.1),
            )

    def test_case2_shape(self):
        r = pv.CaseResult(
            case_id=CaseStudy.CASE2,
            weather=Weather.CLOUDY,
            levels_used=CASE_LEVELS[CaseStudy.CASE2],
            forecast=dummy_forecast(),
            seed=3,
            report=dummy_report(0.07),
        )
        assert r.mape == pytest.approx(0.07)

    def test_case2_rejects_per_level_reports(self):
        with pytest.raises(ValueError):
            pv.CaseResult(
                case_id=CaseStudy.CASE2,
                weather=Weather.CLOUDY,
                levels_used=CASE_LEVELS[CaseStudy.CASE2],
                forecast=dummy_forecast(),
                seed=3,
                report=dummy_report(0.07),
                per_level_reports={lv: dummy_report(0.1) for lv in (C, F, S)},
            )

    def test_levels_must_match_case(self):
        with pytest.raises(ValueError):
            pv.CaseResult(
                case_id=CaseStudy.CASE4,
                weather=Weather.CLOUDY,
                levels_used=frozenset((C, F)),  # that's case 3's set
                forecast=dummy_forecast(),
                seed=3,
                report=dummy_report(0.07),
            )


class TestCaseLevels:
    def test_sets(self):
        assert CASE_LEVELS[CaseStudy.CASE2] == frozenset((C, F, S))
        assert CASE_LEVELS[CaseStudy.CASE3] == frozenset((C, F))
        assert CASE_LEVELS[CaseStudy.CASE4] == frozenset((C,))
        assert CaseStudy.CASE1 not in CASE_LEVELS


def day_mean(data, config, day):
    """Mean measured customer index of one local day at UTC-7 (test-side copy)."""
    dataset, profile = data
    i0 = dataset.customer.hour_index(utc_datetime(day.year, day.month, day.day, 7))
    scaled = profile.scaled(config.fraction(C))
    threshold = config.day_threshold_fraction * float(profile.power_kw.max())
    pre = normalize_and_mask(
        dataset.customer.sliced(i0, i0 + 24),
        scaled.sliced(i0, i0 + 24),
        day_mask=(profile.power_kw >= threshold)[i0 : i0 + 24],
    )
    return float(pre.index_values.mean())


def context(dataset, profile, day, config):
    return pv.ForecastDay.at(dataset, profile, day, config)


@pytest.fixture(scope="module")
def north():
    """A year at 66 deg N from 1 March 2023, where no hour from 8 November
    to 1 February clears the day threshold. Every day is cloudy but 8
    and 9 February, so 10 February is a cloudy day with a sunny eve, and
    2 February a cloudy day whose eve has no day hour."""
    schedule = [Weather.CLOUDY] * 365
    for day in (date(2024, 2, 8), date(2024, 2, 9)):
        schedule[(day - date(2023, 3, 1)).days] = Weather.SUNNY
    scfg = pv.SynthConfig(
        days=365, n_customers=4, n_feeders=2, seed=1, regime_schedule=tuple(schedule)
    )
    site = replace(pv.DEFAULT_SITE, latitude=66.0)
    net = pv.NetworkConfig(delay_d=3, hidden_width=3, max_epochs=5)
    # the winter days' few day hours all lie below the default MAPE
    # floor; a zero floor lets them be scored
    config = pv.PipelineConfig(
        seed=5,
        capacity_fractions=pv.capacity_fractions(scfg),
        epsilon_fraction=0.0,
        max_retries=1,
        narx_committee=1,
        fit_net=net,
        narx_net=net,
        baseline_net=net,
    )
    return (*pv.gen_dataset(scfg, site), config)


def test_north_winter_day_stops_compare_cases(north):
    """At the default MAPE floor, 2 and 10 February are valid forecast
    days whose day hours all read below a level's floor, so
    compare_cases stops with AllExcluded instead of reporting the row
    (ROADMAP item 1 makes such a day a skipped row)."""
    dataset, profile, config = north
    config = replace(config, epsilon_fraction=pv.PipelineConfig().epsilon_fraction)
    days = pv.valid_forecast_days(dataset, profile, config)
    for day in (date(2024, 2, 2), date(2024, 2, 10)):
        assert day in days
        with pytest.raises(pv.AllExcluded, match=r"no actual value at or above 1\.25 kW$"):
            pv.compare_cases(dataset, profile, [day], config)


class TestForecastWindowErrors:
    def test_too_little_history(self, data, fast):
        dataset, profile = data
        with pytest.raises(
            Unforecastable, match=r"day hours of history before .*; need at least 360$"
        ):
            context(dataset, profile, local_day(5), fast)

    def test_day_past_dataset_end(self, data, fast):
        dataset, profile = data
        with pytest.raises(Unforecastable, match="is not fully inside the dataset"):
            context(dataset, profile, local_day(43), fast)

    def test_profile_misaligned(self, data, fast):
        dataset, profile = data
        aligned = "dataset and clear-sky profile are not aligned"
        with pytest.raises(InputError, match=aligned):
            context(dataset, profile.sliced(0, profile.n - 24), local_day(39), fast)
        with pytest.raises(InputError, match=aligned):
            pv.valid_forecast_days(dataset, profile.sliced(0, profile.n - 24), fast)

    def test_fractional_tz_rejected(self, data, fast):
        dataset, profile = data
        skewed = replace(dataset, site=replace(dataset.site, tz_offset=-6.5))
        grid = "tz_offset -6.5 does not put local midnight on the hour grid"
        with pytest.raises(InputError, match=grid):
            context(skewed, profile, local_day(39), fast)
        with pytest.raises(InputError, match=grid):
            pv.valid_forecast_days(skewed, profile, fast)

    def test_unknown_level_set(self, data, fast):
        # case 1 has no entry in CASE_LEVELS: it runs only the baselines
        dataset, profile = data
        with pytest.raises(ValueError, match="case1"):
            pv.forecast_day_ahead(
                context(dataset, profile, local_day(39), fast), CaseStudy.CASE1
            )


class TestForecastDay:
    def test_valid_days_are_the_accepted_days(self, data, fast):
        dataset, profile = data
        accepted = []
        for k in range(-2, 47):
            try:
                context(dataset, profile, local_day(k), fast)
            except Unforecastable:
                continue
            accepted.append(local_day(k))
        assert pv.valid_forecast_days(dataset, profile, fast) == accepted
        # the first accepted day is the first whose history holds the
        # fitting nets' day hours
        mask = pv.day_mask(profile, fast)
        first = context(dataset, profile, accepted[0], fast)
        assert np.count_nonzero(mask[: first.i0]) >= pv.MIN_FIT_DAY_HOURS
        assert np.count_nonzero(mask[: first.i0 - 24]) < pv.MIN_FIT_DAY_HOURS

    def test_valid_days_skip_days_without_a_day_hour(self, north):
        dataset, profile, config = north
        days = pv.valid_forecast_days(dataset, profile, config)
        for day in days:
            assert context(dataset, profile, day, config).day_hours.any()
        # the days left out after the first are the 86 with no day hour
        span = [days[0] + timedelta(k) for k in range((days[-1] - days[0]).days + 1)]
        polar = [d for d in span if d not in days]
        assert polar == [date(2023, 11, 8) + timedelta(k) for k in range(86)]
        with pytest.raises(Unforecastable, match="no day hours on 2023-12-21"):
            context(dataset, profile, date(2023, 12, 21), config)

    def test_valid_days_at_the_default_site(self):
        dataset, profile = pv.gen_dataset(
            pv.SynthConfig(days=730, n_customers=4, n_feeders=2, seed=101)
        )
        days = pv.valid_forecast_days(dataset, profile, pv.PipelineConfig())
        assert (len(days), days[0], days[-1]) == (
            694, date(2023, 4, 5), date(2025, 2, 26)
        )
        assert days == [days[0] + timedelta(k) for k in range(694)]

    def test_fields(self, data, fast):
        dataset, profile = data
        day = context(dataset, profile, local_day(39), fast)
        assert day.day == local_day(39)
        assert dataset.customer.timestamp(day.i0) == utc_datetime(2023, 4, 9, 7)
        threshold = fast.day_threshold_fraction * float(profile.power_kw.max())
        assert np.array_equal(day.mask, profile.power_kw >= threshold)
        assert np.array_equal(pv.day_mask(profile, fast), day.mask)
        assert day.day_profile.start == dataset.customer.timestamp(day.i0)
        assert day.weather is Weather.CLOUDY
        assert pv.classify_weather_day(
            [day_mean(data, fast, day.day)], cloudy_threshold=fast.cloudy_threshold
        ) is day.weather

    def test_score_is_the_measured_day_hours_above_the_floor(self, data, fast):
        dataset, profile = data
        day = context(dataset, profile, local_day(39), fast)
        actual = dataset.series(F).values[day.i0 : day.i0 + 24]
        measured = actual[day.day_hours]
        floor = fast.epsilon_fraction * dataset.site.ac_rating_kw * fast.fraction(F)
        excluded = np.count_nonzero((measured < floor) | (measured == 0.0))
        assert 0 < excluded < measured.size
        rep = day.score(F, 1.1 * actual)
        assert rep.mape == pytest.approx(0.1)
        assert rep.rmse == pytest.approx(np.sqrt(np.mean((0.1 * measured) ** 2)))
        assert rep.n_excluded == excluded


@pytest.fixture(scope="module")
def run(data, fast):
    dataset, profile = data
    return pv.forecast_day_ahead(
        context(dataset, profile, local_day(39), fast), CaseStudy.CASE2
    )


@pytest.fixture(scope="module")
def comparison(data, fast):
    dataset, profile = data
    days = [local_day(k) for k in range(38, 43)]
    return pv.compare_cases(dataset, profile, days, fast)


class TestForecastDayAhead:
    def test_forecast_shape(self, run, data, fast):
        dataset, profile = data
        forecast, _, _ = run
        assert forecast.n == 24
        assert forecast.level is C
        # local midnight at UTC-7 is 07:00 UTC
        assert forecast.start == utc_datetime(2023, 4, 9, 7)

    def test_night_hours_exactly_zero(self, run, data, fast):
        dataset, profile = data
        forecast, _, _ = run
        i0 = dataset.customer.hour_index(forecast.start)
        threshold = fast.day_threshold_fraction * float(profile.power_kw.max())
        mask_day = profile.power_kw[i0 : i0 + 24] >= threshold
        assert np.all(forecast.values[~mask_day] == 0.0)
        assert np.any(forecast.values[mask_day] > 0.0)

    def test_errors_wired_through(self, run):
        _, errors, result = run
        assert result.level_errors is errors
        assert errors.e_n == result.report.mape
        assert errors.target_met == (
            errors.e_n < min(errors.e_c, errors.e_f, errors.e_s)
        )
        assert result.case_id is CaseStudy.CASE2
        assert result.levels_used == CASE_LEVELS[CaseStudy.CASE2]

    def test_deterministic(self, run, data, fast):
        dataset, profile = data
        again, errors, _ = pv.forecast_day_ahead(
            context(dataset, profile, local_day(39), fast), CaseStudy.CASE2
        )
        assert np.array_equal(run[0].values, again.values)
        assert run[1] == errors

    def test_committee_deterministic(self, data, fast):
        dataset, profile = data
        cfg = replace(fast, narx_committee=2)
        a = pv.forecast_day_ahead(
            context(dataset, profile, local_day(39), cfg), CaseStudy.CASE4
        )
        b = pv.forecast_day_ahead(
            context(dataset, profile, local_day(39), cfg), CaseStudy.CASE4
        )
        assert np.array_equal(a[0].values, b[0].values)


class TestRunCase:
    def test_case1_structure(self, data, fast):
        dataset, profile = data
        r = pv.run_case(CaseStudy.CASE1, context(dataset, profile, local_day(39), fast))
        assert r.case_id is CaseStudy.CASE1
        assert set(r.per_level_reports) == {C, F, S}
        assert r.report is None
        assert r.mape == min(rep.mape for rep in r.per_level_reports.values())
        assert r.forecast.level is C  # the target level's baseline forecast
        assert r.weather is Weather.CLOUDY

    def test_case1_matches_reference_training(self, data, fast, monkeypatch):
        """Case 1's raw-kW batches hold nights, whose all-zero rows train
        as one weighted row; the forecasts stay those of plain full-batch
        training up to rounding."""
        dataset, profile = data
        kinds = []
        train = pv.pipeline.train

        def recording(model, X, t):
            kinds.append(row_kinds(X, t))
            return train(model, X, t)

        monkeypatch.setattr("pvlevels.pipeline.train", recording)
        got = context(dataset, profile, local_day(39), fast)
        pv.run_case(CaseStudy.CASE1, got)
        # every baseline batch has rows to merge, and dawn and dusk rows
        assert len(kinds) == 3
        assert all(z >= 2 and dawn > 0 and dusk > 0 for z, dawn, dusk in kinds)
        monkeypatch.setattr("pvlevels.pipeline.train", reference_train)
        want = context(dataset, profile, local_day(39), fast)
        pv.run_case(CaseStudy.CASE1, want)
        for lv in (C, F, S):
            np.testing.assert_allclose(
                got.baseline(lv)[1].values, want.baseline(lv)[1].values,
                rtol=1e-9, atol=0.0,
            )

    def test_case_delegates_to_forecast(self, data, fast):
        dataset, profile = data
        r = pv.run_case(CaseStudy.CASE3, context(dataset, profile, local_day(39), fast))
        forecast, errors, _ = pv.forecast_day_ahead(
            context(dataset, profile, local_day(39), fast), CaseStudy.CASE3
        )
        assert np.array_equal(r.forecast.values, forecast.values)
        assert r.level_errors == errors

    def test_shared_context_does_not_change_results(self, data, fast):
        dataset, profile = data
        shared = context(dataset, profile, local_day(39), fast)
        for cid in CaseStudy:
            warm = pv.run_case(cid, shared)
            cold = pv.run_case(cid, context(dataset, profile, local_day(39), fast))
            assert np.array_equal(warm.forecast.values, cold.forecast.values)
            assert warm.seed == cold.seed
            assert warm.weather is cold.weather
            assert warm.mape == cold.mape
            assert warm.level_errors == cold.level_errors
        # every level's history was preprocessed once, and its baseline
        # and fit model trained once, then reused
        assert all(shared.history(lv) is shared.history(lv) for lv in (C, F, S))
        assert all(shared.fit(lv) is shared.fit(lv) for lv in (C, F, S))
        assert shared.baseline(F) is shared.baseline(F)

    def test_shared_context_runs_each_level_future_once(
        self, data, fast, monkeypatch
    ):
        """All four cases on one context run 9 closed loops: the three
        baselines, the three level futures and one NARX member per case
        (each case running its levels' futures again would make 12)."""
        calls = []
        closed_loop = pv.pipeline.predict_closed_loop

        def counting(*args, **kwargs):
            calls.append(1)
            return closed_loop(*args, **kwargs)

        monkeypatch.setattr("pvlevels.pipeline.predict_closed_loop", counting)
        dataset, profile = data
        shared = context(dataset, profile, local_day(39), fast)
        for cid in CaseStudy:
            pv.run_case(cid, shared)
        assert len(calls) == 9
        assert all(shared.future(lv) is shared.future(lv) for lv in (C, F, S))
        assert all(
            shared.fit_channel(lv) is shared.fit_channel(lv) for lv in (C, F, S)
        )


class TestCompareCases:
    def test_all_classes_present(self, comparison):
        assert comparison.missing_classes == ()
        assert [row.weather for row in comparison.rows] == [
            Weather.SUNNY, Weather.CLOUDY, Weather.PARTLY_CLOUDY,
        ]

    def test_sunny_pick_prefers_stable_predecessor(self, comparison):
        # day 38 is the only candidate whose previous day is also sunny
        (sunny,) = [r for r in comparison.rows if r.weather is Weather.SUNNY]
        assert sunny.forecast_day == local_day(38)

    def test_partly_pick_falls_back_when_no_stable_day(self, comparison):
        (partly,) = [
            r for r in comparison.rows if r.weather is Weather.PARTLY_CLOUDY
        ]
        assert partly.forecast_day == local_day(42)

    def test_cloudy_pick_is_steadiest(self, comparison, data, fast):
        (cloudy,) = [r for r in comparison.rows if r.weather is Weather.CLOUDY]
        assert cloudy.forecast_day in (local_day(40), local_day(41))
        deltas = {
            k: abs(
                day_mean(data, fast, local_day(k))
                - day_mean(data, fast, local_day(k - 1))
            )
            for k in (40, 41)
        }
        expected = min(deltas, key=lambda k: (deltas[k], k))
        assert cloudy.forecast_day == local_day(expected)

    def test_row_consistency(self, comparison):
        for row in comparison.rows:
            assert set(row.results) == set(CaseStudy)
            assert row.case1_min_mape == row.results[CaseStudy.CASE1].mape
            assert row.case2_mape == row.results[CaseStudy.CASE2].mape
            assert row.case3_mape == row.results[CaseStudy.CASE3].mape
            assert row.case4_mape == row.results[CaseStudy.CASE4].mape
            assert row.reduction_vs_case1 == pytest.approx(
                (row.case1_min_mape - row.case2_mape) / row.case1_min_mape
            )
            for cid in (CaseStudy.CASE2, CaseStudy.CASE3, CaseStudy.CASE4):
                assert row.results[cid].level_errors is not None

    def test_missing_classes_in_weather_order(self):
        row = pv.CaseRow(
            weather=Weather.PARTLY_CLOUDY, forecast_day=local_day(40), results={}
        )
        assert pv.CaseComparison(rows=(row,)).missing_classes == (
            Weather.SUNNY, Weather.CLOUDY,
        )
        assert pv.CaseComparison(rows=()).missing_classes == tuple(Weather)

    def test_eve_without_day_hours_is_neither_stable_nor_steady(self, north):
        dataset, profile, config = north
        (row,) = pv.compare_cases(dataset, profile, [date(2024, 2, 2)], config).rows
        assert (row.weather, row.forecast_day) == (Weather.CLOUDY, date(2024, 2, 2))
        # the earlier day loses to one whose eve is merely of another class
        candidates = [date(2024, 2, 2), date(2024, 2, 10)]
        (row,) = pv.compare_cases(dataset, profile, candidates, config).rows
        assert row.forecast_day == date(2024, 2, 10)
        # and to one with a stable eve
        candidates = [date(2024, 2, 2), date(2024, 2, 3)]
        (row,) = pv.compare_cases(dataset, profile, candidates, config).rows
        assert row.forecast_day == date(2024, 2, 3)

    def test_single_candidate_reports_missing_classes(self, data, fast):
        dataset, profile = data
        cmp = pv.compare_cases(dataset, profile, [local_day(39)], fast)
        assert len(cmp.rows) == 1
        assert cmp.rows[0].weather is Weather.CLOUDY
        assert cmp.rows[0].forecast_day == local_day(39)  # fallback: no stable day
        assert cmp.missing_classes == (Weather.SUNNY, Weather.PARTLY_CLOUDY)

    def test_row_independent_of_candidate_set(self, comparison, data, fast):
        """The chosen day fixes the computation; other candidates don't leak in."""
        dataset, profile = data
        (cloudy,) = [r for r in comparison.rows if r.weather is Weather.CLOUDY]
        solo = pv.compare_cases(dataset, profile, [cloudy.forecast_day], fast)
        row = solo.rows[0]
        assert row.case1_min_mape == cloudy.case1_min_mape
        assert row.case2_mape == cloudy.case2_mape
        assert row.case3_mape == cloudy.case3_mape
        assert row.case4_mape == cloudy.case4_mape

    def test_one_context_per_row(self, data, fast, monkeypatch):
        """Candidates are ranked without a ForecastDay; only each row's
        chosen day gets one."""
        built = []
        at = pv.ForecastDay.at.__func__

        def counting_at(cls, dataset, profile, day, config):
            built.append(day)
            return at(cls, dataset, profile, day, config)

        monkeypatch.setattr(pv.ForecastDay, "at", classmethod(counting_at))
        dataset, profile = data
        days = [local_day(k) for k in range(38, 43)]
        comparison = pv.compare_cases(dataset, profile, days, fast)
        assert built == [row.forecast_day for row in comparison.rows]

    def test_empty_days(self, data, fast):
        dataset, profile = data
        with pytest.raises(ValueError, match="no candidate forecast days"):
            pv.compare_cases(dataset, profile, [], fast)

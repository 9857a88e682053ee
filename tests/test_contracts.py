"""Contract tests: properties a whole forecast keeps whatever the trainer.

Each test runs all four cases on one day of a small synthetic site
(4 customers, 3x3 nets, 300 epochs) and checks a relation between that
run and a run on transformed data, or a bound on the run itself, so a
change that moves the numbers must still keep them.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pvlevels as pv
from pvlevels import pipeline
from pvlevels.pipeline import CaseStudy

NET = pv.NetworkConfig(delay_d=3, hidden_width=3, max_epochs=300)
SYNTH = pv.SynthConfig(days=45, n_customers=4, n_feeders=2, seed=7)
CONFIG = pv.PipelineConfig(
    seed=3,
    capacity_fractions=pv.capacity_fractions(SYNTH),
    fit_net=NET,
    narx_net=NET,
    baseline_net=NET,
)
NARX_CASES = (CaseStudy.CASE2, CaseStudy.CASE3, CaseStudy.CASE4)


def run_cases(dataset, profile, day, config=CONFIG):
    context = pv.ForecastDay.at(dataset, profile, day, config)
    return context, {cid: pv.run_case(cid, context) for cid in CaseStudy}


def with_levels(dataset, transform, site=None):
    """``dataset`` with every level's values replaced by ``transform(values)``."""
    return pv.MultiLevelDataset(
        *(
            dataset.series(level).with_values(transform(dataset.series(level).values))
            for level in pv.MeasurementLevel
        ),
        site=site or dataset.site,
    )


@pytest.fixture(scope="module")
def reference():
    """The site, a forecast day with two valid days after it, and its run."""
    dataset, profile = pv.gen_dataset(SYNTH, pv.DEFAULT_SITE)
    day = pv.valid_forecast_days(dataset, profile, CONFIG)[-3]
    context, results = run_cases(dataset, profile, day)
    return dataset, profile, context, results


@given(k=st.integers(-2, 3))
@settings(max_examples=6, deadline=None)
def test_kw_scale(reference, k):
    """Every kW reading and both ratings times 2**k: every forecast is
    exactly 2**k times as large, and nothing else moves."""
    dataset, profile, context, results = reference
    factor = 2.0**k
    site = replace(
        dataset.site,
        ac_rating_kw=factor * dataset.site.ac_rating_kw,
        dc_rating_kw=factor * dataset.site.dc_rating_kw,
    )
    scaled = with_levels(dataset, lambda v: factor * v, site)
    scaled_profile = pv.clearsky_profile(site, scaled.start, scaled.n)
    _, scaled_results = run_cases(scaled, scaled_profile, context.day)
    for cid, result in results.items():
        got = scaled_results[cid]
        assert np.array_equal(got.forecast.values, factor * result.forecast.values)
        assert got.mape == result.mape
        assert got.weather is result.weather
        assert got.seed == result.seed


@given(offset=st.integers(0, 47), factor=st.floats(0.1, 3.0))
@example(offset=0, factor=0.37)
@example(offset=0, factor=3.0)
@settings(max_examples=4, deadline=None)
def test_future_blindness(reference, offset, factor):
    """Data after the forecast day changes no forecast and no score: every
    level's readings from ``offset`` hours after the day's end are scaled
    by ``factor``, which above 1 can raise a series' maximum."""
    dataset, profile, context, results = reference
    first = context.i0 + 24 + offset
    assert first < dataset.n

    def scale_future(values):
        values = values.copy()
        values[first:] *= factor
        return values

    _, blind = run_cases(with_levels(dataset, scale_future), profile, context.day)
    for cid, result in results.items():
        assert np.array_equal(blind[cid].forecast.values, result.forecast.values)
        assert blind[cid].mape == result.mape


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_evening_before(reference, factor):
    """With one attempt, a forecast is made the evening before: every
    level's readings over the forecast day's own 24 hours scaled by
    ``factor`` leave every case's forecast byte-identical, and only the
    scores and the weather label may move. Nothing is asserted at more
    attempts, where a retry is decided by scoring against the day."""
    dataset, profile, context, _ = reference
    one_attempt = replace(CONFIG, max_retries=1)
    i0 = context.i0

    def scale_day(values):
        values = values.copy()
        values[i0 : i0 + 24] *= factor
        return values

    _, results = run_cases(dataset, profile, context.day, one_attempt)
    _, scaled = run_cases(
        with_levels(dataset, scale_day), profile, context.day, one_attempt
    )
    for cid, result in results.items():
        got = scaled[cid].forecast.values
        assert got.tobytes() == result.forecast.values.tobytes()
        assert scaled[cid].mape != result.mape


def test_forecast_bounds(reference):
    """Every case forecasts exactly 0 kW where the clear-sky power is 0.
    Cases 2-4 forecast 0 kW outside the day mask, and at most KAPPA_MAX
    times the target level's clear-sky power inside it. Case 1 is left out
    of those two checks: its raw-kW baseline forecasts the dawn and dusk
    readings it was trained on (README)."""
    _, _, context, results = reference
    night = context.day_profile.night_mask
    assert night.any()
    for result in results.values():
        assert np.all(result.forecast.values[night] == 0.0)
    day_hours = context.day_hours
    ceiling = pv.KAPPA_MAX * context.day_profile.power_kw[day_hours]
    for cid in NARX_CASES:
        values = results[cid].forecast.values
        assert np.all(values[~day_hours] == 0.0)
        assert np.all((values[day_hours] >= 0.0) & (values[day_hours] <= ceiling))


def test_clamp_bounds_a_net_that_leaves_the_range(reference, monkeypatch):
    """NARX members whose output bias puts every closed-loop step above
    3 * KAPPA_MAX, whatever the hidden layer does: cases 2-4 then forecast
    exactly KAPPA_MAX times the target level's clear-sky power on every
    day hour, so the clamp, not the trained nets, holds the bound."""
    _, _, context, _ = reference
    train = pipeline.train

    def out_of_range(model, inputs, targets):
        if model.config.n_exo_channels == 0:
            return train(model, inputs, targets)
        theta = model.theta.copy()
        theta[-1] = 3.0 * pv.KAPPA_MAX + np.abs(model.w_out).sum() + 1.0
        return replace(model, theta=theta, trained=True)

    monkeypatch.setattr(pipeline, "train", out_of_range)
    day_hours = context.day_hours
    ceiling = pv.KAPPA_MAX * context.day_profile.power_kw[day_hours]
    for cid in NARX_CASES:
        values = pv.run_case(cid, context).forecast.values
        assert np.array_equal(values[day_hours], ceiling)
        assert np.all(values[~day_hours] == 0.0)

import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pvlevels.clearsky import clearsky_profile
from pvlevels.core import HourlyPowerSeries, MeasurementLevel, utc_datetime
from pvlevels.errors import InputError, Unforecastable
from pvlevels.preprocess import (
    KAPPA_MAX,
    PreprocessedSeries,
    median,
    normalize_and_mask,
    postprocess,
    preprocess,
    remove_offset,
)
from pvlevels.synth import DEFAULT_SITE

START = utc_datetime(2023, 3, 1)


@pytest.fixture(scope="module")
def profile():
    return clearsky_profile(DEFAULT_SITE, START, 96)


def series_from(values, level=MeasurementLevel.CUSTOMER):
    return HourlyPowerSeries(site_id="t", level=level, start=START, values=values)


def clean_series(profile, index=0.8):
    """Measured = index * clear-sky, no bias: round-trippable by design."""
    return series_from(index * profile.power_kw)


def one_percent_mask(profile):
    """Day hours at or above 1% of the profile's peak power."""
    return profile.power_kw >= 0.01 * float(profile.power_kw.max())


class TestRemoveOffset:
    def test_no_bias(self, profile):
        corrected, offset = remove_offset(clean_series(profile), profile)
        assert offset == 0.0
        assert np.array_equal(corrected.values, clean_series(profile).values)

    def test_constant_bias_removed(self, profile):
        biased = series_from(0.8 * profile.power_kw + 0.25)
        corrected, offset = remove_offset(biased, profile)
        assert offset == pytest.approx(0.25)
        night = profile.power_kw == 0.0
        assert np.allclose(corrected.values[night], 0.0)

    def test_negative_bias_clamped_to_zero(self, profile):
        vals = 0.8 * profile.power_kw - 0.3
        biased = series_from(np.where(profile.power_kw > 0, vals, -0.3))
        corrected, offset = remove_offset(biased, profile)
        assert offset == 0.0  # median night reading is negative, clamp wins
        assert np.all(corrected.values >= 0.0)

    def test_median_robust_to_night_spike(self, profile):
        vals = 0.8 * profile.power_kw + 0.1
        night_idx = np.flatnonzero(profile.power_kw == 0.0)
        vals = vals.copy()
        vals[night_idx[0]] = 50.0  # one stuck reading
        _, offset = remove_offset(series_from(vals), profile)
        assert offset == pytest.approx(0.1)

    def test_no_night_hours(self):
        prof = clearsky_profile(DEFAULT_SITE, START, 96)
        day_only = prof.sliced(18, 22)  # mid-day slice, no zero-power hours
        s = HourlyPowerSeries(
            site_id="t",
            level=MeasurementLevel.CUSTOMER,
            start=day_only.start,
            values=np.ones(4),
        )
        with pytest.raises(Unforecastable, match="clear-sky profile has no zero-power hours"):
            remove_offset(s, day_only)

    def test_misaligned(self, profile):
        s = HourlyPowerSeries("t", MeasurementLevel.CUSTOMER, utc_datetime(2023, 3, 2), np.ones(96))
        with pytest.raises(InputError, match=r"series \[.*\] vs profile \["):
            remove_offset(s, profile)


def assert_numpy_median(values, axis=None):
    # two middle values near the float maximum overflow to inf in both
    with np.errstate(over="ignore"):
        want = np.median(values, axis=axis)
        got = median(values)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (values, got, want)


class TestMedian:
    """`median` is ``np.median(values, axis=0)`` bit for bit."""

    @pytest.mark.parametrize("n", range(1, 41))
    def test_one_dimension(self, n):
        rng = np.random.default_rng(n)
        assert_numpy_median(rng.standard_normal(n))
        # ties, and zeros of both signs, in the middle and around it
        for _ in range(20):
            assert_numpy_median(rng.choice([-0.0, 0.0, 0.0, 1.0, -1.0, 0.25], n))
        assert_numpy_median(np.full(n, -0.0))

    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=1,
            max_size=40,
        )
    )
    @example([1.7e308, 1.7e308])
    @settings(max_examples=300, deadline=None)
    def test_drawn_values(self, values):
        assert_numpy_median(np.array(values))

    @pytest.mark.parametrize("members", range(1, 6))
    def test_committee_along_axis_0(self, members):
        rng = np.random.default_rng(members)
        for hours in range(1, 25):
            paths = rng.uniform(0.0, KAPPA_MAX, (members, hours))
            assert_numpy_median(paths, axis=0)
            # clamped paths: ties at the bounds, zeros of both signs
            tied = rng.choice([-0.0, 0.0, 0.5, KAPPA_MAX], (members, hours))
            assert_numpy_median(tied, axis=0)
            # a committee arrives as a list of paths
            assert_numpy_median(list(paths), axis=0)


class TestNormalizeAndMask:
    def test_constant_index_recovered(self, profile):
        pre = normalize_and_mask(
            clean_series(profile, 0.8), profile, day_mask=one_percent_mask(profile)
        )
        assert np.allclose(pre.index_values, 0.8, atol=1e-12)
        assert pre.clip_count == 0

    def test_mask_matches_threshold(self, profile):
        mask = one_percent_mask(profile)
        pre = normalize_and_mask(clean_series(profile), profile, day_mask=mask)
        assert np.array_equal(pre.day_mask, mask)
        assert pre.day_mask.size == 96

    def test_clipping_counted(self, profile):
        hot = series_from(2.0 * profile.power_kw)  # index 2 > kappa_max
        pre = normalize_and_mask(hot, profile, day_mask=one_percent_mask(profile))
        assert pre.clip_count == pre.n_day
        assert np.all(pre.index_values == KAPPA_MAX)

    def test_explicit_mask_shared(self, profile):
        mask = profile.power_kw >= 1.0
        pre = normalize_and_mask(clean_series(profile), profile, day_mask=mask)
        assert np.array_equal(pre.day_mask, mask)

    def test_mask_rejects_zero_power_hours(self, profile):
        mask = np.ones(96, dtype=bool)  # marks nights as day
        with pytest.raises(ValueError):
            normalize_and_mask(clean_series(profile), profile, day_mask=mask)

    def test_mask_length_checked(self, profile):
        with pytest.raises(InputError, match="day_mask length 10 != series length 96"):
            normalize_and_mask(
                clean_series(profile), profile, day_mask=np.ones(10, dtype=bool)
            )

    def test_all_night(self, profile):
        with pytest.raises(Unforecastable, match="no hours at or above the day threshold"):
            normalize_and_mask(
                clean_series(profile), profile, day_mask=np.zeros(96, dtype=bool)
            )


class TestRoundTrip:
    def test_exact_on_clean_series(self, profile):
        original = clean_series(profile, 0.73)
        pre = preprocess(original, profile, day_mask=one_percent_mask(profile))
        back = postprocess(
            pre.index_values,
            pre.day_mask,
            profile,
            site_id="t",
            level=MeasurementLevel.CUSTOMER,
        )
        day = pre.day_mask
        assert np.allclose(back.values[day], original.values[day], atol=1e-9)
        assert np.all(back.values[~day] == 0.0)

    @given(
        index=st.lists(
            st.floats(0.0, KAPPA_MAX), min_size=96, max_size=96
        ),
        bias=st.floats(0.0, 2.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_index_profiles(self, index, bias):
        """postprocess(preprocess(x)) == x on day hours whenever the series
        has clean nights, non-negative readings, and no clipping."""
        profile = clearsky_profile(DEFAULT_SITE, START, 96)
        idx = np.asarray(index)
        measured = idx * profile.power_kw + bias
        pre = preprocess(
            series_from(measured), profile, day_mask=one_percent_mask(profile)
        )
        back = postprocess(
            pre.index_values,
            pre.day_mask,
            profile,
            site_id="t",
            level=MeasurementLevel.CUSTOMER,
        )
        day = pre.day_mask
        true_day = idx[day] * profile.power_kw[day]
        assert np.allclose(back.values[day], true_day, atol=1e-9)
        assert np.all(back.values[~day] == 0.0)

    def test_postprocess_shape_checks(self, profile):
        mask = profile.power_kw > 0
        with pytest.raises(InputError, match="^3 index values for .* day hours$"):
            postprocess(np.ones(3), mask, profile, site_id="t", level=MeasurementLevel.CUSTOMER)
        with pytest.raises(InputError, match="day_mask length 95 != profile n 96"):
            postprocess(
                np.ones(int(mask.sum())),
                mask[:-1],
                profile,
                site_id="t",
                level=MeasurementLevel.CUSTOMER,
            )


class TestPreprocessedSeries:
    def test_validates_mask_count(self, profile):
        mask = profile.power_kw > 0
        with pytest.raises(InputError, match="^3 index values for .* day hours$"):
            PreprocessedSeries(
                level=MeasurementLevel.CUSTOMER,
                index_values=np.ones(3),
                day_mask=mask,
                offset_kw=0.0,
                source_start=START,
                clip_count=0,
            )

    def test_validates_range(self, profile):
        mask = profile.power_kw > 0
        bad = np.full(int(mask.sum()), 2.0)  # above kappa_max
        with pytest.raises(ValueError):
            PreprocessedSeries(
                level=MeasurementLevel.CUSTOMER,
                index_values=bad,
                day_mask=mask,
                offset_kw=0.0,
                source_start=START,
                clip_count=0,
            )

    @pytest.mark.parametrize(
        "index, mask, offset_kw, error, message",
        [
            ([[1.0]], [[True]], 0.0, ValueError, "index_values and day_mask must be 1-d"),
            ([], [False, False], 0.0, Unforecastable, "no day hours in series"),
            ([1.0, np.nan], [True, True], 0.0, ValueError, "index_values must be finite"),
            ([1.0], [True], -0.5, ValueError, "offset_kw must be >= 0, got -0.5"),
        ],
    )
    def test_rejects_naming_the_fault(self, index, mask, offset_kw, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            PreprocessedSeries(
                level=MeasurementLevel.CUSTOMER,
                index_values=np.array(index, dtype=np.float64),
                day_mask=np.array(mask, dtype=bool),
                offset_kw=offset_kw,
                source_start=START,
                clip_count=0,
            )

    def test_day_hour_indices(self, profile):
        pre = normalize_and_mask(
            clean_series(profile), profile, day_mask=one_percent_mask(profile)
        )
        idx = pre.day_hour_indices()
        assert np.array_equal(pre.day_mask[idx], np.ones(len(idx), dtype=bool))
        assert len(idx) == pre.n_day

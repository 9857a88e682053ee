import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pvlevels.errors import AllExcluded, InputError, Unforecastable
from pvlevels.metrics import MetricReport, mape, r_squared, report, rmse


def exact_mape(a, f, eps):
    """Fraction-arithmetic oracle, no floating point accumulation at all."""
    terms = [
        abs(Fraction(x) - Fraction(y)) / Fraction(x)
        for x, y in zip(a, f)
        if x != 0 and x >= eps
    ]
    return float(sum(terms) / len(terms))


def exact_rmse(a, f):
    total = sum((Fraction(x) - Fraction(y)) ** 2 for x, y in zip(a, f))
    return math.sqrt(float(total / len(a)))


def exact_r2(a, f):
    mean = sum(Fraction(x) for x in a) / len(a)
    ss_tot = sum((Fraction(x) - mean) ** 2 for x in a)
    ss_res = sum((Fraction(x) - Fraction(y)) ** 2 for x, y in zip(a, f))
    return float(1 - ss_res / ss_tot)


class TestHandCases:
    def test_mape_hand_case(self):
        value, excluded = mape([100.0, 200.0], [110.0, 190.0])
        assert value == pytest.approx(0.075, abs=1e-12)
        assert excluded == 0

    def test_rmse_hand_case(self):
        assert rmse([3.0, 4.0], [0.0, 0.0]) == pytest.approx(
            math.sqrt(12.5), abs=1e-12
        )

    def test_r2_hand_case(self):
        assert r_squared([1.0, 2.0, 3.0], [1.5, 2.0, 2.5]) == pytest.approx(
            0.75, abs=1e-12
        )

    def test_perfect_forecast(self):
        a = [1.0, 5.0, 2.0]
        assert mape(a, a)[0] == 0.0
        assert rmse(a, a) == 0.0
        assert r_squared(a, a) == 1.0


class TestMape:
    def test_exact_zero_always_excluded(self):
        value, excluded = mape([0.0, 100.0], [50.0, 110.0], epsilon_kw=0.0)
        assert value == pytest.approx(0.1, abs=1e-12)
        assert excluded == 1

    def test_epsilon_exclusion(self):
        value, excluded = mape([0.5, 100.0], [5.0, 90.0], epsilon_kw=1.0)
        assert value == pytest.approx(0.1, abs=1e-12)
        assert excluded == 1

    def test_all_excluded(self):
        with pytest.raises(AllExcluded):
            mape([0.0, 0.0], [1.0, 2.0])
        with pytest.raises(AllExcluded):
            mape([0.5, 0.2], [1.0, 2.0], epsilon_kw=1.0)

    def test_negative_epsilon(self):
        with pytest.raises(ValueError):
            mape([1.0], [1.0], epsilon_kw=-0.5)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_epsilon(self, epsilon):
        # rejected as an argument, not reported as AllExcluded
        with pytest.raises(ValueError, match=f"got {epsilon}"):
            mape([1.0, 2.0], [1.0, 2.0], epsilon_kw=epsilon)

    def test_length_mismatch(self):
        with pytest.raises(InputError, match="actual length 2 != forecast length 1"):
            mape([1.0, 2.0], [1.0])

    def test_not_one_dimensional(self):
        with pytest.raises(ValueError, match="^actual and forecast must be 1-d$"):
            mape([[1.0, 2.0]], [[1.0, 2.0]])

    def test_non_finite(self):
        with pytest.raises(ValueError):
            mape([1.0, np.inf], [1.0, 2.0])

    @given(
        st.lists(
            st.tuples(
                st.integers(1, 10**7),
                st.integers(-(10**7), 10**7),
            ),
            min_size=1,
            max_size=200,
        )
    )
    def test_against_fraction_oracle(self, pairs):
        a = [p[0] / 1000.0 for p in pairs]
        f = [p[1] / 1000.0 for p in pairs]
        value, _ = mape(a, f)
        assert value == pytest.approx(exact_mape(a, f, 0.0), rel=1e-12, abs=1e-15)


class TestRmse:
    def test_single_pair(self):
        assert rmse([2.0], [5.0]) == 3.0

    @given(
        st.lists(
            st.tuples(
                st.integers(-(10**8), 10**8),
                st.integers(-(10**8), 10**8),
            ),
            min_size=1,
            max_size=200,
        )
    )
    def test_against_fraction_oracle(self, pairs):
        a = [p[0] / 1000.0 for p in pairs]
        f = [p[1] / 1000.0 for p in pairs]
        assert rmse(a, f) == pytest.approx(exact_rmse(a, f), rel=1e-12, abs=1e-15)


class TestRSquared:
    def test_mean_forecast_scores_zero(self):
        a = [1.0, 2.0, 3.0, 4.0]
        m = sum(a) / len(a)
        assert r_squared(a, [m] * 4) == pytest.approx(0.0, abs=1e-15)

    def test_worse_than_mean_is_negative(self):
        assert r_squared([1.0, 2.0, 3.0], [3.0, 1.0, 5.0]) < 0.0

    def test_constant_actual(self):
        with pytest.raises(Unforecastable, match="actual vector is constant"):
            r_squared([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_needs_two_points(self):
        with pytest.raises(InputError, match="need at least 2 pairs, got 1"):
            r_squared([1.0], [1.0])

    def test_never_above_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.normal(size=20)
            f = rng.normal(size=20)
            assert r_squared(a, f) <= 1.0

    @given(
        st.lists(
            st.tuples(
                st.integers(-(10**7), 10**7),
                st.integers(-(10**7), 10**7),
            ),
            min_size=2,
            max_size=200,
        )
    )
    @settings(max_examples=60)
    def test_against_fraction_oracle(self, pairs):
        a = [p[0] / 1000.0 for p in pairs]
        f = [p[1] / 1000.0 for p in pairs]
        if len(set(a)) == 1:
            return
        expected = exact_r2(a, f)
        assert r_squared(a, f) == pytest.approx(expected, rel=1e-9, abs=1e-12)


class TestReport:
    def test_bundles_all_three(self):
        rep = report([100.0, 200.0, 300.0], [110.0, 190.0, 310.0])
        assert rep.mape == pytest.approx(mape([100, 200, 300], [110, 190, 310])[0])
        assert rep.rmse == pytest.approx(rmse([100, 200, 300], [110, 190, 310]))
        assert rep.n_excluded == 0

    def test_partial_mode_constant_actual(self):
        rep = report([5.0, 5.0], [4.0, 6.0])
        assert rep.r_squared is None
        assert rep.mape == pytest.approx(0.2)

    def test_partial_mode_single_point(self):
        rep = report([5.0], [6.0])
        assert rep.r_squared is None

    def test_exclusions_counted(self):
        rep = report([0.0, 1.0, 50.0], [1.0, 2.0, 55.0], epsilon_kw=10.0)
        assert rep.n_excluded == 2


class TestMetricReportValidation:
    def test_rejects_negative_metrics(self):
        with pytest.raises(ValueError):
            MetricReport(-0.1, 1.0, 0.5, 0)
        with pytest.raises(ValueError):
            MetricReport(0.1, -1.0, 0.5, 0)
        with pytest.raises(ValueError, match="^n_excluded must be >= 0$"):
            MetricReport(0.1, 1.0, 0.5, -1)

    def test_rejects_r2_above_one(self):
        with pytest.raises(ValueError):
            MetricReport(0.1, 1.0, 1.5, 0)

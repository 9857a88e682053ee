"""Forecast accuracy metrics: MAPE, RMSE, coefficient of determination.

All three take paired actual/forecast vectors in kW. Accumulation goes
through math.fsum, which is exactly rounded regardless of length, so the
results match a naive high-precision summation to the last bit or two.
Each sum walks a ``tolist()`` of its terms: exact rounding makes the
result the same whatever the iterable, and a list of Python floats is
cheaper to walk than an ndarray's elements.

MAPE divides by the actual value, so hours with small actuals are
excluded below a caller-chosen threshold (and exact zeros are always
excluded); the number of exclusions is reported, never hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllExcluded, InputError, Unforecastable


@dataclass(frozen=True)
class MetricReport:
    """Bundle of mape (fraction), rmse (kW), r_squared, and the number of
    hours MAPE left out.

    r_squared is None where the statistic is undefined: a constant actual
    vector, or a single pair.
    """

    mape: float
    rmse: float
    r_squared: float | None
    n_excluded: int

    def __post_init__(self) -> None:
        if self.mape < 0.0 or self.rmse < 0.0:
            raise ValueError("mape and rmse must be >= 0")
        if self.r_squared is not None and self.r_squared > 1.0 + 1e-12:
            raise ValueError(f"r_squared above 1: {self.r_squared}")
        if self.n_excluded < 0:
            raise ValueError("n_excluded must be >= 0")


def _paired(actual, forecast, min_n: int = 1) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(actual, dtype=np.float64)
    f = np.asarray(forecast, dtype=np.float64)
    if a.ndim != 1 or f.ndim != 1:
        raise ValueError("actual and forecast must be 1-d")
    if a.size != f.size:
        raise InputError(f"actual length {a.size} != forecast length {f.size}")
    if a.size < min_n:
        raise InputError(f"need at least {min_n} pairs, got {a.size}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(f))):
        raise ValueError("actual and forecast must be finite")
    return a, f


def mape(actual, forecast, epsilon_kw: float = 0.0) -> tuple[float, int]:
    """Mean absolute percentage error as a fraction, plus exclusion count.

    Hours with actual below ``epsilon_kw`` are excluded from the mean;
    hours with actual exactly zero are always excluded (the ratio is
    undefined there). Returns (fraction, n_excluded).
    """
    if not (math.isfinite(epsilon_kw) and epsilon_kw >= 0.0):
        raise ValueError(f"epsilon_kw must be finite and >= 0, got {epsilon_kw}")
    a, f = _paired(actual, forecast)
    used = (a >= epsilon_kw) & (a != 0.0)
    n_excluded = int(a.size - used.sum())
    if not used.any():
        raise AllExcluded(f"no actual value at or above {epsilon_kw} kW")
    ratios = np.abs((a[used] - f[used]) / a[used])
    return math.fsum(ratios.tolist()) / int(used.sum()), n_excluded


def rmse(actual, forecast) -> float:
    """Root mean square error in kW."""
    a, f = _paired(actual, forecast)
    return math.sqrt(math.fsum(((a - f) ** 2).tolist()) / a.size)


def r_squared(actual, forecast) -> float:
    """Coefficient of determination: 1 - SS_res / SS_tot.

    At most 1; negative when the forecast does worse than the actual
    mean. Undefined (Unforecastable) when the actual vector is constant.
    """
    a, f = _paired(actual, forecast, min_n=2)
    mean_a = math.fsum(a.tolist()) / a.size
    ss_tot = math.fsum(((a - mean_a) ** 2).tolist())
    if ss_tot == 0.0:
        raise Unforecastable("actual vector is constant; r_squared undefined")
    ss_res = math.fsum(((a - f) ** 2).tolist())
    return 1.0 - ss_res / ss_tot


def report(actual, forecast, epsilon_kw: float = 0.0) -> MetricReport:
    """All three metrics over one actual/forecast pair.

    Where R^2 is undefined (a constant actual vector, a single pair)
    r_squared is None, so MAPE and RMSE still come through.
    """
    a, f = _paired(actual, forecast)
    mape_value, n_excluded = mape(a, f, epsilon_kw)
    try:
        r2: float | None = r_squared(a, f)
    except (Unforecastable, InputError):
        r2 = None
    return MetricReport(
        mape=mape_value, rmse=rmse(a, f), r_squared=r2, n_excluded=n_excluded
    )

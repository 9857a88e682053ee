"""Data preparation: offset removal, clear-sky-index normalization, night masking.

The training signal for the forecasting nets is the clear-sky index
(measured power divided by simulated clear-sky power), computed on day
hours only. Dividing out the deterministic diurnal/seasonal envelope is
the stationarizing transform; no differencing is applied on top of it.
Post-processing inverts the transform: index times clear-sky power on day
hours, exactly zero at night.

Two different night notions are used on purpose:

* offset estimation uses hours where the clear-sky profile is exactly
  zero (true astronomical night; any reading there is sensor bias),
* the day mask is supplied by the caller (the pipeline's is
  ``pipeline.day_mask``, a fraction of the profile's peak power) and may
  only mark hours with positive clear-sky power, so the index ratio is
  never taken against a vanishing denominator at dawn or dusk.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .clearsky import ClearSkyProfile
from .core import HourlyPowerSeries, MeasurementLevel
from .errors import InputError, Unforecastable

#: Ceiling on the clear-sky index; cloud-edge enhancement can push the
#: measured/clear-sky ratio a little above 1, but not this far.
KAPPA_MAX = 1.5


@dataclass(frozen=True, eq=False)
class PreprocessedSeries:
    """Clear-sky-index series (day hours only) with its night mask.

    ``index_values[k]`` is the index of the k-th day hour; ``day_mask``
    has one entry per hour of the source series from ``source_start``
    and exactly ``len(index_values)`` True entries. ``offset_kw`` is
    what was subtracted before normalizing, ``clip_count`` how many
    indexes hit ``kappa_max``.
    """

    level: MeasurementLevel
    index_values: np.ndarray
    day_mask: np.ndarray
    offset_kw: float
    source_start: datetime
    clip_count: int
    kappa_max: float = KAPPA_MAX

    def __post_init__(self) -> None:
        index = np.array(self.index_values, dtype=np.float64)
        mask = np.array(self.day_mask, dtype=bool)
        if index.ndim != 1 or mask.ndim != 1:
            raise ValueError("index_values and day_mask must be 1-d")
        if int(mask.sum()) != index.size:
            raise InputError(
                f"{index.size} index values for {int(mask.sum())} day hours"
            )
        if index.size == 0:
            raise Unforecastable("no day hours in series")
        if not np.all(np.isfinite(index)):
            raise ValueError("index_values must be finite")
        if np.any(index < 0.0) or np.any(index > self.kappa_max):
            raise ValueError(f"index values out of [0, {self.kappa_max}]")
        if not self.offset_kw >= 0.0:
            raise ValueError(f"offset_kw must be >= 0, got {self.offset_kw}")
        index.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "index_values", index)
        object.__setattr__(self, "day_mask", mask)

    @property
    def n_day(self) -> int:
        return int(self.index_values.size)

    def day_hour_indices(self) -> np.ndarray:
        """Positions of the day hours on the original hourly grid."""
        return np.flatnonzero(self.day_mask)


def day_run_lengths(day_mask) -> list[int]:
    """Lengths of each unbroken run of True in an hourly day mask.

    The sum equals the mask's True count, so the result partitions a
    compressed day-hour chain back into its per-day stretches.
    """
    mask = np.asarray(day_mask, dtype=bool)
    if mask.ndim != 1:
        raise ValueError("day_mask must be 1-d")
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(idx) > 1)
    bounds = np.concatenate([[0], breaks + 1, [idx.size]])
    return [int(x) for x in np.diff(bounds)]


def _require_aligned(series: HourlyPowerSeries, profile: ClearSkyProfile) -> None:
    if series.start != profile.start or series.n != profile.n:
        raise InputError(
            f"series [{series.start}, n={series.n}] vs "
            f"profile [{profile.start}, n={profile.n}]"
        )


def median(values) -> np.ndarray | float:
    """``numpy.median(values, axis=0)`` of finite values, bit for bit.

    numpy's rule on a partition along axis 0: the middle value, or the
    sum of the two middle values halved, where each sum starts from 0.0
    as ``numpy.mean``'s does (so a median of zeros is +0.0).
    ``numpy.median`` also looks for NaN through ``numpy.ma``, whose first
    import costs a process about 1.2 MiB and 15 ms; the values here are
    always finite.
    """
    values = np.asarray(values)
    n = values.shape[0]
    m = n // 2
    if n % 2:
        return 0.0 + np.partition(values, m, axis=0)[m]
    part = np.partition(values, (m - 1, m), axis=0)
    return (0.0 + part[m - 1] + part[m]) / 2


def remove_offset(
    series: HourlyPowerSeries, profile: ClearSkyProfile
) -> tuple[HourlyPowerSeries, float]:
    """Subtract the median nighttime reading, clamping results at zero.

    Night is the profile's ``night_mask``: zero clear-sky power. The
    median (`median`, numpy's to the bit) is robust to isolated night
    spikes; it is clamped at zero so a negatively-biased sensor never
    inflates the series.

    Returns the corrected series and the offset that was subtracted.
    """
    _require_aligned(series, profile)
    night = profile.night_mask
    if not night.any():
        raise Unforecastable("clear-sky profile has no zero-power hours")
    offset = max(0.0, float(median(series.values[night])))
    corrected = np.maximum(0.0, series.values - offset)
    return series.with_values(corrected), offset


def normalize_and_mask(
    series: HourlyPowerSeries,
    profile: ClearSkyProfile,
    *,
    day_mask: np.ndarray,
    offset_kw: float = 0.0,
    kappa_max: float = KAPPA_MAX,
) -> PreprocessedSeries:
    """Divide by clear-sky power on the hours of ``day_mask``; drop the rest.

    ``series`` is expected to be offset-free already; ``offset_kw`` is
    only recorded, not applied. ``day_mask`` has one entry per hour and
    may mark only hours with positive clear-sky power; callers that mask
    several series with one mask keep them sample-aligned. Ratios above
    ``kappa_max`` are clipped and counted.
    """
    _require_aligned(series, profile)
    day = np.asarray(day_mask, dtype=bool)
    if day.shape != (series.n,):
        raise InputError(
            f"day_mask length {day.size} != series length {series.n}"
        )
    if np.any(day & (profile.power_kw <= 0.0)):
        raise ValueError("day_mask marks an hour with zero clear-sky power")
    if not day.any():
        raise Unforecastable("no hours at or above the day threshold")
    ratio = series.values[day] / profile.power_kw[day]
    clip_count = int(np.count_nonzero(ratio > kappa_max))
    index = np.minimum(kappa_max, ratio)
    return PreprocessedSeries(
        level=series.level,
        index_values=index,
        day_mask=day,
        offset_kw=offset_kw,
        source_start=series.start,
        clip_count=clip_count,
        kappa_max=kappa_max,
    )


def preprocess(
    series: HourlyPowerSeries,
    profile: ClearSkyProfile,
    *,
    day_mask: np.ndarray,
) -> PreprocessedSeries:
    """Offset removal followed by normalization and night masking."""
    corrected, offset = remove_offset(series, profile)
    return normalize_and_mask(
        corrected, profile, day_mask=day_mask, offset_kw=offset
    )


def postprocess(
    index_values: np.ndarray,
    day_mask: np.ndarray,
    profile: ClearSkyProfile,
    *,
    site_id: str,
    level: MeasurementLevel,
) -> HourlyPowerSeries:
    """Denormalize an index series back to kW, re-inserting night zeros.

    Day hour i gets ``index * profile.power_kw[i]``; night hours are
    exactly 0 kW. Inverse of :func:`preprocess` (up to offset and
    clipping) on day hours.
    """
    index = np.asarray(index_values, dtype=np.float64)
    mask = np.asarray(day_mask, dtype=bool)
    if mask.ndim != 1 or mask.size != profile.n:
        raise InputError(f"day_mask length {mask.size} != profile n {profile.n}")
    if index.ndim != 1 or index.size != int(mask.sum()):
        raise InputError(
            f"{index.size} index values for {int(mask.sum())} day hours"
        )
    power = np.zeros(profile.n, dtype=np.float64)
    power[mask] = index * profile.power_kw[mask]
    return HourlyPowerSeries(
        site_id=site_id, level=level, start=profile.start, values=power
    )

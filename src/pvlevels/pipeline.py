"""Day-ahead forecasting orchestration and the case-study harness.

The forecasting recipe, end to end:

1. preprocess each measurement level's history into clear-sky-index
   series (one shared day mask so all levels line up sample-for-sample),
2. train a NAR fitting model per level in use and keep the one with the
   best in-sample R^2,
3. train a NARX whose target is the configured level's index and whose
   exogenous channels are the levels in use plus the best fitting
   model's open-loop output,
4. run the NARX closed-loop over the forecast day's daylight hours,
   feeding it each level's own NAR closed-loop prediction as the
   exogenous future,
5. denormalize to kW (nights exactly zero) and score MAPE / RMSE / R^2
   against the measured day.

A per-level raw-kW NAR baseline (no preprocessing) provides the three
reference errors; the multi-level forecast is accepted when its error
beats the smallest of them, retraining with fresh seeds a bounded number
of times otherwise and keeping the best attempt.

The case studies wrap this: Case 1 is the raw baseline at every level,
Cases 2/3/4 run the recipe with all three levels, customer+feeder, and
customer only.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from datetime import date, datetime, timedelta, timezone
from typing import ClassVar, Iterable

import numpy as np

from .clearsky import ClearSkyProfile
from .core import (
    HourlyPowerSeries,
    MeasurementLevel,
    MultiLevelDataset,
    Weather,
    check_seed,
    derive_seed,
)
from .errors import InputError, Unforecastable
from .metrics import MetricReport, report
from .narnet import (
    MIN_FIT_DAY_HOURS,
    FittingModel,
    NetworkConfig,
    fit_nar,
    init_network,
    make_training_set,
    predict_closed_loop,
    predict_open_loop,
    train,
)
from .preprocess import (
    KAPPA_MAX,
    PreprocessedSeries,
    day_run_lengths,
    median,
    normalize_and_mask,
    preprocess,
    postprocess,
)

# substream tags under the pipeline seed
_TAG_FIT = 101
_TAG_NARX = 102
_TAG_BASELINE = 103

#: Mean clear-sky index at or above which a day is sunny.
SUNNY_THRESHOLD = 0.8


class CaseStudy(enum.Enum):
    """The four benchmark configurations."""

    CASE1 = "case1"
    CASE2 = "case2"
    CASE3 = "case3"
    CASE4 = "case4"

    @property
    def label(self) -> str:
        return self.value


#: Measurement levels each NARX case feeds on.
CASE_LEVELS = {
    CaseStudy.CASE2: frozenset(MeasurementLevel),
    CaseStudy.CASE3: frozenset(
        {MeasurementLevel.CUSTOMER, MeasurementLevel.FEEDER}
    ),
    CaseStudy.CASE4: frozenset({MeasurementLevel.CUSTOMER}),
}


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a forecasting run needs beyond the data itself.

    capacity_fractions scale the site clear-sky profile down to the
    share actually behind each level's meter (customer, feeder,
    substation order). epsilon_fraction sets the MAPE exclusion
    threshold as a fraction of each level's scaled AC rating.
    day_threshold_fraction decides which hours count as day: clear-sky
    power at least that fraction of the profile peak. Its default is
    deliberately not "just above zero": at dawn and dusk a small
    customer's clear-sky power sinks below the meter's absolute noise,
    and the measured index there is garbage (often an exact 0 after
    offset removal and clamping) that poisons the tapped-delay lags.
    A day is cloudy at a mean clear-sky index of cloudy_threshold or
    less, and sunny at SUNNY_THRESHOLD or more.
    """

    seed: int = 0
    target_level: MeasurementLevel = MeasurementLevel.CUSTOMER
    capacity_fractions: tuple[float, float, float] = (1.0, 1.0, 1.0)
    epsilon_fraction: float = 0.05
    day_threshold_fraction: float = 0.10
    max_retries: int = 5
    narx_committee: int = 3
    cloudy_threshold: float = 0.4
    fit_net: NetworkConfig = NetworkConfig()
    narx_net: NetworkConfig = NetworkConfig()
    baseline_net: NetworkConfig = NetworkConfig()
    # not fields, and not settable: the benchmark's day classifier
    # (bench/workloads.day_weather) reads both from a config, so they
    # stay here until it reads the module constants
    kappa_max: ClassVar[float] = KAPPA_MAX
    sunny_threshold: ClassVar[float] = SUNNY_THRESHOLD

    def __post_init__(self) -> None:
        check_seed(self.seed)
        if len(self.capacity_fractions) != 3 or any(
            not (math.isfinite(f) and f > 0.0) for f in self.capacity_fractions
        ):
            raise ValueError("capacity_fractions must be three finite positive numbers")
        if not (math.isfinite(self.epsilon_fraction) and self.epsilon_fraction >= 0.0):
            raise ValueError("epsilon_fraction must be finite and >= 0")
        if not 0.0 < self.day_threshold_fraction < 1.0:
            raise ValueError("day_threshold_fraction must be in (0, 1)")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1 (it counts attempts)")
        if self.narx_committee < 1:
            raise ValueError("narx_committee must be >= 1")
        if not 0.0 < self.cloudy_threshold < SUNNY_THRESHOLD:
            raise ValueError("need 0 < cloudy_threshold < SUNNY_THRESHOLD")

    def fraction(self, level: MeasurementLevel) -> float:
        return self.capacity_fractions[int(level)]


@dataclass(frozen=True)
class LevelErrors:
    """The per-level baseline errors and the multi-level error beside them."""

    e_c: float
    e_f: float
    e_s: float
    e_n: float

    @property
    def target_met(self) -> bool:
        """Whether e_n beat the smallest baseline error (a tie does not)."""
        return self.e_n < min(self.e_c, self.e_f, self.e_s)


@dataclass(frozen=True, eq=False)
class CaseResult:
    """Outcome of one case study on one forecast day.

    Case 1 fills per_level_reports (one per level); cases 2-4 fill
    report and level_errors. forecast is the 24-hour kW series for the
    target level's meter. seed names the kept attempt: for cases 2-4 it
    is ``derive_seed(config.seed, _TAG_NARX, day.i0, attempt)``, which
    seeds no net itself (member m of that attempt is seeded with the
    same tags plus m); for case 1 it is the pipeline seed.
    """

    case_id: CaseStudy
    weather: Weather
    levels_used: frozenset[MeasurementLevel]
    forecast: HourlyPowerSeries
    seed: int
    per_level_reports: dict[MeasurementLevel, MetricReport] | None = None
    report: MetricReport | None = None
    level_errors: LevelErrors | None = None

    def __post_init__(self) -> None:
        if self.case_id is CaseStudy.CASE1:
            if self.per_level_reports is None or self.report is not None:
                raise ValueError("case 1 carries per-level reports only")
            if set(self.per_level_reports) != set(MeasurementLevel):
                raise ValueError("case 1 needs a report for every level")
        else:
            if self.report is None or self.per_level_reports is not None:
                raise ValueError("cases 2-4 carry a single report")
            if self.levels_used != CASE_LEVELS[self.case_id]:
                raise ValueError(
                    f"{self.case_id.label} must use levels "
                    f"{sorted(l.label for l in CASE_LEVELS[self.case_id])}"
                )

    @property
    def mape(self) -> float:
        """The headline MAPE: the single report's, or the per-level minimum."""
        if self.report is not None:
            return self.report.mape
        return min(r.mape for r in self.per_level_reports.values())


def classify_weather_day(
    day_index_values,
    sunny_threshold: float = SUNNY_THRESHOLD,
    cloudy_threshold: float = PipelineConfig.cloudy_threshold,
) -> Weather:
    """Weather class of one day from its mean clear-sky index."""
    values = np.asarray(day_index_values, dtype=np.float64)
    if values.size == 0:
        raise Unforecastable("no day-hour index values to classify")
    mean = float(values.mean())
    if mean >= sunny_threshold:
        return Weather.SUNNY
    if mean <= cloudy_threshold:
        return Weather.CLOUDY
    return Weather.PARTLY_CLOUDY


def select_best_fitting(models: list[FittingModel]) -> FittingModel:
    """Highest fit_r2 wins; ties fall to lower fit_mape, then level order."""
    if not models:
        raise ValueError("no fitting models to select from")
    return min(models, key=lambda m: (-m.fit_r2, m.fit_mape, int(m.level)))


def day_mask(profile: ClearSkyProfile, config: PipelineConfig) -> np.ndarray:
    """The hours every level counts as day: clear-sky power at or above
    day_threshold_fraction of the profile's peak."""
    return profile.power_kw >= config.day_threshold_fraction * float(profile.power_kw.max())


def _day_hours(
    dataset: MultiLevelDataset, profile: ClearSkyProfile, config: PipelineConfig
) -> tuple[np.ndarray, np.ndarray]:
    """``day_mask`` of a profile aligned with the dataset, and its prefix
    count: ``before[i]`` day hours lie before hour i, for i in [0, n]."""
    if dataset.n != profile.n or dataset.start != profile.start:
        raise InputError("dataset and clear-sky profile are not aligned")
    mask = day_mask(profile, config)
    before = np.zeros(mask.size + 1, dtype=np.int64)
    np.cumsum(mask, out=before[1:])
    return mask, before


def _forecast_start(dataset: MultiLevelDataset, day: date, before: np.ndarray) -> int:
    """Hour index of ``day``'s local midnight, under the one rule for a
    forecastable day: it lies fully inside the dataset, holds a day hour
    (else Unforecastable) and has the MIN_FIT_DAY_HOURS day hours of history
    every level's fitting net needs (``before`` is ``_day_hours``')."""
    tz = dataset.site.tz_offset
    if (tz * 60.0) % 60.0 != 0.0:
        raise InputError(
            f"tz_offset {tz} does not put local midnight on the hour grid"
        )
    # UTC midnight's index less the whole-hour offset: the instant of a
    # local midnight east of Greenwich on 0001-01-01 is no datetime
    w0 = datetime(day.year, day.month, day.day, tzinfo=timezone.utc)
    i0 = dataset.customer.hour_index(w0) - int(tz)
    if i0 < 0 or i0 + 24 > dataset.n:
        raise Unforecastable(f"forecast day {day} is not fully inside the dataset")
    if before[i0 + 24] == before[i0]:
        raise Unforecastable(f"no day hours on {day}")
    history = int(before[i0])
    if history < MIN_FIT_DAY_HOURS:
        raise Unforecastable(
            f"{history} day hours of history before {day}; "
            f"need at least {MIN_FIT_DAY_HOURS}"
        )
    return i0


def valid_forecast_days(
    dataset: MultiLevelDataset, profile: ClearSkyProfile, config: PipelineConfig
) -> list[date]:
    """The site-local days ``ForecastDay.at`` accepts, in order: days fully
    inside the dataset that hold a day hour and follow MIN_FIT_DAY_HOURS
    day hours of history. Like ``at``, raises InputError for a
    profile not aligned with the dataset or a tz_offset off the hour grid."""
    _, before = _day_hours(dataset, profile, config)
    tz = timedelta(hours=dataset.site.tz_offset)
    first_local = (dataset.start + tz).date()
    # no day after the last hour's can be inside the dataset, and on
    # data that ends in 9999-12-31 a later one is no date at all
    last_local = (dataset.customer.timestamp(dataset.n - 1) + tz).date()
    days = []
    for k in range((last_local - first_local).days + 1):
        day = first_local + timedelta(days=k)
        try:
            _forecast_start(dataset, day, before)
        except Unforecastable:
            continue
        days.append(day)
    return days


def _measured_weather(
    dataset: MultiLevelDataset,
    profile: ClearSkyProfile,
    mask: np.ndarray,
    a: int,
    config: PipelineConfig,
) -> tuple[Weather, float]:
    """Weather class and mean clear-sky index the target level measured
    over the 24 hours from ``a``."""
    target = config.target_level
    measured = normalize_and_mask(
        dataset.series(target).sliced(a, a + 24),
        profile.sliced(a, a + 24).scaled(config.fraction(target)),
        day_mask=mask[a : a + 24],
    )
    weather = classify_weather_day(
        measured.index_values, cloudy_threshold=config.cloudy_threshold
    )
    return weather, float(measured.index_values.mean())


def build_fitting_models(
    series: Iterable[PreprocessedSeries], config: PipelineConfig
) -> list[FittingModel]:
    """One NAR fitting model per preprocessed level series, in (C, F, S) order.

    The series should share one day mask (``day_mask`` of the profile)
    so their index series stay sample-aligned.
    """
    models = []
    for pre in sorted(series, key=lambda p: int(p.level)):
        cfg = replace(config.fit_net, seed=derive_seed(config.seed, _TAG_FIT, int(pre.level)))
        models.append(fit_nar(pre, cfg))
    return models


def _fit_channel(model: FittingModel, own_index: np.ndarray) -> np.ndarray:
    """The fitting model's open-loop output as a full-length input channel.

    The first d hours have no prediction, so the measured values stand in
    for them; everything after is the model's one-step-ahead output.
    """
    d = model.net.config.delay_d
    preds = predict_open_loop(model.net, own_index)
    return np.concatenate([own_index[:d], preds])


@dataclass(frozen=True, eq=False)
class ForecastDay:
    """What every case on one forecast day shares, derived once.

    ``i0`` is the hour index of the day's local midnight; ``mask`` is the
    day mask all levels share, over the whole dataset; ``day_profile``
    is the target level's clear-sky profile over the day's 24 hours;
    ``weather`` is the class of the target level's measured day.

    The level histories, baselines and fitting models of the day are kept
    as they are first asked for, so the cases run on one context
    preprocess and train each of them once. Preprocessing and training
    are deterministic, so sharing never changes a result.
    """

    dataset: MultiLevelDataset
    profile: ClearSkyProfile
    config: PipelineConfig
    day: date
    i0: int
    mask: np.ndarray
    day_profile: ClearSkyProfile
    weather: Weather
    _histories: dict = field(default_factory=dict, init=False, repr=False)
    _baselines: dict = field(default_factory=dict, init=False, repr=False)
    _fits: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def at(
        cls,
        dataset: MultiLevelDataset,
        profile: ClearSkyProfile,
        forecast_day: date,
        config: PipelineConfig,
    ) -> ForecastDay:
        """The context of ``forecast_day``.

        Raises Unforecastable for a day outside ``valid_forecast_days``
        and InputError for a profile not aligned with the data.
        """
        mask, before = _day_hours(dataset, profile, config)
        i0 = _forecast_start(dataset, forecast_day, before)
        weather, _ = _measured_weather(dataset, profile, mask, i0, config)
        target = config.target_level
        return cls(
            dataset=dataset,
            profile=profile,
            config=config,
            day=forecast_day,
            i0=i0,
            mask=mask,
            day_profile=profile.sliced(i0, i0 + 24).scaled(config.fraction(target)),
            weather=weather,
        )

    @property
    def day_hours(self) -> np.ndarray:
        """The day mask over the forecast day's 24 hours."""
        return self.mask[self.i0 : self.i0 + 24]

    def score(self, level: MeasurementLevel, forecast_kw: np.ndarray) -> MetricReport:
        """A 24-hour kW forecast of ``level`` against its measured day
        hours. MAPE leaves out hours below epsilon_fraction of the
        level's share of the AC rating."""
        config, mask_day = self.config, self.day_hours
        return report(
            self.dataset.series(level).values[self.i0 : self.i0 + 24][mask_day],
            forecast_kw[mask_day],
            epsilon_kw=config.epsilon_fraction
            * self.dataset.site.ac_rating_kw
            * config.fraction(level),
        )

    def history(self, level: MeasurementLevel) -> PreprocessedSeries:
        """The level's clear-sky-index series before the forecast day."""
        if level not in self._histories:
            i0, config = self.i0, self.config
            self._histories[level] = preprocess(
                self.dataset.series(level).sliced(0, i0),
                self.profile.sliced(0, i0).scaled(config.fraction(level)),
                day_mask=self.mask[:i0],
            )
        return self._histories[level]

    def fitting_models(self, levels) -> list[FittingModel]:
        """The history's fitting models of ``levels``, in (C, F, S) order."""
        levels = sorted(levels, key=int)
        missing = tuple(lv for lv in levels if lv not in self._fits)
        if missing:
            for model in build_fitting_models(
                [self.history(lv) for lv in missing], self.config
            ):
                self._fits[model.level] = model
        return [self._fits[lv] for lv in levels]

    def baseline(
        self, level: MeasurementLevel
    ) -> tuple[MetricReport, HourlyPowerSeries]:
        """Raw-kW NAR baseline for one level: its report and forecast.

        No preprocessing: the net sees the measured series scaled by the
        level's full index-domain range (KAPPA_MAX times its share of the
        AC rating) purely to keep tanh inputs in a sane band. The
        architecture is deliberately the same as the forecasting nets so
        the comparison isolates what actually differs between the cases:
        normalization and the extra measurement channels, not network
        capacity. Hours with zero clear-sky power (the same hours at
        every level) forecast 0 kW, as in every other case.
        """
        if level in self._baselines:
            return self._baselines[level]
        config, i0 = self.config, self.i0
        scale = KAPPA_MAX * self.dataset.site.ac_rating_kw * config.fraction(level)
        series = self.dataset.series(level)
        u = series.values[:i0] / scale
        cfg = replace(
            config.baseline_net,
            n_exo_channels=0,
            seed=derive_seed(config.seed, _TAG_BASELINE, int(level), i0),
        )
        inputs, targets = make_training_set(u, (), cfg.delay_d)
        net = train(init_network(cfg), inputs, targets)
        pred_u = predict_closed_loop(
            net, u[-cfg.delay_d :], horizon=24, clamp=(0.0, 1.0)
        )
        values = pred_u * scale
        values[self.day_profile.night_mask] = 0.0
        forecast = HourlyPowerSeries(
            site_id=f"baseline-{level.label}",
            level=level,
            start=series.timestamp(i0),
            values=values,
        )
        self._baselines[level] = (self.score(level, forecast.values), forecast)
        return self._baselines[level]


def forecast_day_ahead(
    day: ForecastDay, case_id: CaseStudy
) -> tuple[HourlyPowerSeries, LevelErrors, CaseResult]:
    """The full multi-level recipe for one day. See the module docstring.

    The inputs are the levels of ``CASE_LEVELS[case_id]``; case 1 has
    none and raises ValueError.

    The target is ``config.target_level``. Each attempt trains
    narx_committee identically configured nets from different derived
    seeds and takes the pointwise median of their closed-loop index
    paths. Attempts repeat with fresh seeds (up to max_retries total)
    while the error is not below the smallest per-level baseline error,
    and the best attempt is kept either way.
    """
    if case_id not in CASE_LEVELS:
        raise ValueError(f"{case_id.label} has no multi-level recipe")
    levels_used = CASE_LEVELS[case_id]
    config = day.config
    target_level = config.target_level
    i0, mask_day = day.i0, day.day_hours

    fit_models = day.fitting_models(levels_used)
    best = select_best_fitting(fit_models)

    # channel layout: levels in (C, F, S) order, then the fit channel;
    # each level's future is its own NAR's closed loop
    horizon = int(np.count_nonzero(mask_day))
    exo_hist, exo_future = [], []
    for fm in fit_models:
        own = day.history(fm.level).index_values
        exo_hist.append(own)
        exo_future.append(
            predict_closed_loop(
                fm.net,
                own[-fm.net.config.delay_d :],
                horizon=horizon,
                clamp=(0.0, KAPPA_MAX),
            )
        )
    k = fit_models.index(best)
    exo_hist.append(_fit_channel(best, exo_hist[k]))
    exo_future.append(exo_future[k])

    d = config.narx_net.delay_d
    narx_cfg_base = replace(
        config.narx_net, n_exo_channels=len(exo_hist)
    )
    y = day.history(target_level).index_values
    # per-day stretches only: a sample must never regress across the
    # overnight gap, where the weather regime can silently turn over
    inputs, targets = make_training_set(
        y, exo_hist, d, segments=day_run_lengths(day.mask[:i0])
    )
    y_seed = y[-d:]
    exo_seed = [ch[-d:] for ch in exo_hist]

    e_c, e_f, e_s = (day.baseline(lv)[0].mape for lv in MeasurementLevel)

    kept: CaseResult | None = None
    for attempt in range(config.max_retries):
        seed = derive_seed(config.seed, _TAG_NARX, i0, attempt)
        # a small committee: tanh nets this size occasionally land in a
        # bad minimum whose closed loop wanders, so take the pointwise
        # median of the members' paths; unlike the mean it is unmoved
        # by one deviant member
        member_preds = []
        for member in range(config.narx_committee):
            member_seed = derive_seed(config.seed, _TAG_NARX, i0, attempt, member)
            net = train(
                init_network(replace(narx_cfg_base, seed=member_seed)),
                inputs,
                targets,
            )
            member_preds.append(
                predict_closed_loop(
                    net,
                    y_seed,
                    exo_future,
                    horizon=horizon,
                    exo_seed=exo_seed,
                    clamp=(0.0, KAPPA_MAX),
                )
            )
        pred_index = median(member_preds)
        forecast = postprocess(
            pred_index,
            mask_day,
            day.day_profile,
            site_id=f"forecast-{target_level.label}",
            level=target_level,
        )
        rep = day.score(target_level, forecast.values)
        # a later attempt replaces the kept one only when strictly better
        if kept is None or rep.mape < kept.report.mape:
            kept = CaseResult(
                case_id=case_id,
                weather=day.weather,
                levels_used=levels_used,
                forecast=forecast,
                seed=seed,
                report=rep,
                level_errors=LevelErrors(e_c=e_c, e_f=e_f, e_s=e_s, e_n=rep.mape),
            )
            if kept.level_errors.target_met:
                break
    return kept.forecast, kept.level_errors, kept


def run_case(case_id: CaseStudy, day: ForecastDay) -> CaseResult:
    """One benchmark case on one day.

    Case 1 runs the raw-kW baseline at every level and reports each;
    cases 2-4 delegate to the multi-level recipe.
    """
    if case_id is not CaseStudy.CASE1:
        return forecast_day_ahead(day, case_id)[2]
    reports = {lv: day.baseline(lv)[0] for lv in MeasurementLevel}
    return CaseResult(
        case_id=CaseStudy.CASE1,
        weather=day.weather,
        levels_used=frozenset(MeasurementLevel),
        forecast=day.baseline(day.config.target_level)[1],
        seed=day.config.seed,
        per_level_reports=reports,
    )


@dataclass(frozen=True, eq=False)
class CaseRow:
    """One weather class's line of the case comparison."""

    weather: Weather
    forecast_day: date
    results: dict[CaseStudy, CaseResult]

    @property
    def case1_min_mape(self) -> float:
        return self.results[CaseStudy.CASE1].mape

    @property
    def case2_mape(self) -> float:
        return self.results[CaseStudy.CASE2].mape

    @property
    def case3_mape(self) -> float:
        return self.results[CaseStudy.CASE3].mape

    @property
    def case4_mape(self) -> float:
        return self.results[CaseStudy.CASE4].mape

    @property
    def reduction_vs_case1(self) -> float:
        """Fractional error reduction of the three-level case over the baseline."""
        return (self.case1_min_mape - self.case2_mape) / self.case1_min_mape

    @property
    def reduction_vs_case3(self) -> float:
        return (self.case3_mape - self.case2_mape) / self.case3_mape

    @property
    def reduction_vs_case4(self) -> float:
        return (self.case4_mape - self.case2_mape) / self.case4_mape


@dataclass(frozen=True, eq=False)
class CaseComparison:
    """All weather rows, one per class that had a candidate day."""

    rows: tuple[CaseRow, ...]

    @property
    def missing_classes(self) -> tuple[Weather, ...]:
        """The classes with no candidate day, in ``Weather`` order."""
        present = {row.weather for row in self.rows}
        return tuple(w for w in Weather if w not in present)


def compare_cases(
    dataset: MultiLevelDataset,
    profile: ClearSkyProfile,
    days: list[date],
    config: PipelineConfig,
) -> CaseComparison:
    """Run all four cases on one representative day per weather class.

    Candidates are classified by the target level's measured mean index.
    Within each class, days whose previous day shares the class are
    preferred: a representative cloudy day is one where cloudy weather
    prevails, not the morning it arrives, and a forecast issued the
    evening before only characterizes the condition when yesterday
    already exhibited it. (Hand-picked exemplar days get chosen from a
    stretch of the condition for the same reason.) Among the preferred
    days the steadiest one wins: mean index nearest the previous day's
    mean index, ties to the earliest day. A day the weather happened to
    jump overnight measures that jump, not the condition; a day whose
    previous day has no day hour is neither preferred nor steady.
    Classes with no candidate are reported, not raised.
    """
    if not days:
        raise ValueError("no candidate forecast days")
    mask, before = _day_hours(dataset, profile, config)
    candidates = []
    for day in days:
        i0 = _forecast_start(dataset, day, before)
        weather, mean = _measured_weather(dataset, profile, mask, i0, config)
        try:
            prev_weather, prev_mean = _measured_weather(
                dataset, profile, mask, i0 - 24, config
            )
        except Unforecastable:
            prev_weather, prev_mean = None, math.inf
        candidates.append((day, mean, weather, prev_weather, prev_mean))
    del mask, before  # whole-dataset arrays; each row's context makes its own

    rows = []
    for weather in Weather:
        matching = [c for c in candidates if c[2] is weather]
        if not matching:
            continue
        stable = [c for c in matching if c[3] is weather]
        pool = stable if stable else matching
        chosen = min(pool, key=lambda c: (abs(c[1] - c[4]), c[0]))[0]
        # one context per row, shared by its four cases
        context = ForecastDay.at(dataset, profile, chosen, config)
        results = {cid: run_case(cid, context) for cid in CaseStudy}
        rows.append(CaseRow(weather=weather, forecast_day=chosen, results=results))
    return CaseComparison(rows=tuple(rows))

"""Day-ahead solar PV forecasting from customer, feeder, and substation meters.

The package turns three nested levels of hourly power measurements into a
day-ahead forecast for one target level. Measurements are normalized by a
simulated clear-sky profile, each level gets a small autoregressive network,
the best-fitting level is chosen by R-squared, and a final network fuses all
selected levels to forecast the next day. Case studies compare which levels
are worth including, split by weather class.
"""

from .clearsky import (
    GHI_SCALE_WM2,
    ClearSkyProfile,
    SolarPosition,
    clearsky_ghi,
    clearsky_power,
    clearsky_profile,
    solar_declination,
    solar_position,
    solar_zenith,
)
from .core import (
    HOUR,
    HourlyPowerSeries,
    MeasurementLevel,
    MultiLevelDataset,
    SiteConfig,
    Weather,
    derive_seed,
    make_generator,
    utc_datetime,
)
from .errors import (
    AllExcluded,
    InputError,
    PvlevelsError,
    TrainingFailed,
    Unforecastable,
)
from .metrics import MetricReport, mape, r_squared, report, rmse
from .narnet import (
    MIN_FIT_DAY_HOURS,
    FittingModel,
    NarxModel,
    NetworkConfig,
    fit_nar,
    forward,
    init_network,
    load_model,
    loss_and_gradient,
    make_training_set,
    model_from_text,
    model_to_text,
    predict_closed_loop,
    predict_open_loop,
    save_model,
    train,
)
from .pipeline import (
    CASE_LEVELS,
    CaseComparison,
    CaseResult,
    CaseRow,
    CaseStudy,
    ForecastDay,
    LevelErrors,
    PipelineConfig,
    build_fitting_models,
    classify_weather_day,
    compare_cases,
    day_mask,
    forecast_day_ahead,
    run_case,
    select_best_fitting,
    valid_forecast_days,
)
from .preprocess import (
    KAPPA_MAX,
    PreprocessedSeries,
    normalize_and_mask,
    postprocess,
    preprocess,
    remove_offset,
)
from .synth import (
    DEFAULT_SITE,
    SynthConfig,
    capacity_fractions,
    gen_dataset,
    random_regime_schedule,
)

__all__ = [name for name in dir() if not name.startswith("_")]

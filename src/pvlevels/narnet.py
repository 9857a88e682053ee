"""Tapped-delay feedforward nets for autoregressive forecasting.

One hidden tanh layer, linear output:

    y(t) = w_out . tanh(W_h u(t) + b_h) + b_out

where u(t) stacks d lags of each exogenous channel followed by d
autoregressive lags, most recent first within each block:

    u(t) = [x1(t-1)..x1(t-d), ..., xk(t-1)..xk(t-d), y(t-1)..y(t-d)]

With no exogenous channels this is a NAR net; with them, a NARX.
Training is full-batch gradient descent on mean squared error with
per-parameter adaptive moments (decay 0.9/0.999, bias correction),
teacher-forced (open-loop): measured lags in, one-step-ahead target out.
Forecasting runs the same net closed-loop, feeding predictions back as
autoregressive lags and clamping each step to the clear-sky-index range.

Everything is deterministic given (seed, data, config): initialization
comes from a PCG64 generator seeded explicitly, training is
single-threaded float64 with no stochastic batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import MeasurementLevel, make_generator
from .errors import (
    DimensionMismatch,
    DivergedLoss,
    EmptyBatch,
    InsufficientHistory,
    ParseError,
    SeedLengthMismatch,
    TooShort,
)
from .metrics import mape as _mape
from .metrics import r_squared as _r_squared
from .preprocess import KAPPA_MAX, PreprocessedSeries, day_run_lengths

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8

#: Minimum day hours fit_nar accepts (about 30 days of daylight).
MIN_FIT_DAY_HOURS = 360


@dataclass(frozen=True)
class NetworkConfig:
    """Topology and training knobs for one net.

    delay_d is the number of lags per channel; n_exo_channels=0 makes the
    net purely autoregressive. The input layer width is
    delay_d * (1 + n_exo_channels).
    """

    delay_d: int = 12
    hidden_width: int = 10
    n_exo_channels: int = 0
    seed: int = 0
    max_epochs: int = 2000
    step_size: float = 1e-2
    early_stop_patience: int = 50
    early_stop_delta: float = 1e-9

    def __post_init__(self) -> None:
        if self.delay_d < 1 or self.hidden_width < 1:
            raise ValueError("delay_d and hidden_width must be >= 1")
        if self.n_exo_channels < 0:
            raise ValueError("n_exo_channels must be >= 0")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        if not self.step_size > 0.0:
            raise ValueError("step_size must be > 0")
        if self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1")
        if not self.early_stop_delta > 0.0:
            raise ValueError("early_stop_delta must be > 0")

    @property
    def input_width(self) -> int:
        return self.delay_d * (1 + self.n_exo_channels)

    @property
    def n_params(self) -> int:
        h, w = self.hidden_width, self.input_width
        return h * w + h + h + 1


@dataclass(frozen=True, eq=False)
class NarxModel:
    """A net's parameters plus its config and training record."""

    config: NetworkConfig
    w_hidden: np.ndarray
    b_hidden: np.ndarray
    w_out: np.ndarray
    b_out: float
    trained: bool = False
    training_history: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        h, w = self.config.hidden_width, self.config.input_width
        wh = np.array(self.w_hidden, dtype=np.float64)
        bh = np.array(self.b_hidden, dtype=np.float64)
        wo = np.array(self.w_out, dtype=np.float64)
        if wh.shape != (h, w) or bh.shape != (h,) or wo.shape != (h,):
            raise DimensionMismatch(
                f"parameter shapes {wh.shape}/{bh.shape}/{wo.shape} "
                f"do not fit hidden={h}, input={w}"
            )
        if not (
            np.all(np.isfinite(wh))
            and np.all(np.isfinite(bh))
            and np.all(np.isfinite(wo))
            and math.isfinite(self.b_out)
        ):
            raise ValueError("all parameters must be finite")
        for arr in (wh, bh, wo):
            arr.setflags(write=False)
        object.__setattr__(self, "w_hidden", wh)
        object.__setattr__(self, "b_hidden", bh)
        object.__setattr__(self, "w_out", wo)
        object.__setattr__(self, "b_out", float(self.b_out))
        object.__setattr__(self, "training_history", tuple(self.training_history))


@dataclass(frozen=True, eq=False)
class FittingModel:
    """Per-level NAR fit of the clear-sky-index series with its quality."""

    level: MeasurementLevel
    net: NarxModel
    fit_r2: float
    fit_mape: float

    def __post_init__(self) -> None:
        if self.fit_r2 > 1.0 + 1e-12:
            raise ValueError(f"fit_r2 above 1: {self.fit_r2}")
        if self.net.config.n_exo_channels != 0:
            raise ValueError("fitting model net must be purely autoregressive")


def init_network(config: NetworkConfig) -> NarxModel:
    """Fresh untrained net: Glorot-uniform weights, zero biases.

    Each layer's weights are uniform in +-sqrt(6 / (fan_in + fan_out));
    the draw order (hidden layer first, then output) is part of the
    determinism contract.
    """
    rng = make_generator(config.seed)
    h, w = config.hidden_width, config.input_width
    bound_h = math.sqrt(6.0 / (w + h))
    bound_o = math.sqrt(6.0 / (h + 1))
    return NarxModel(
        config=config,
        w_hidden=rng.uniform(-bound_h, bound_h, size=(h, w)),
        b_hidden=np.zeros(h),
        w_out=rng.uniform(-bound_o, bound_o, size=h),
        b_out=0.0,
        trained=False,
        training_history=(),
    )


def forward(model: NarxModel, input_vec) -> float:
    """One scalar prediction for one tapped-delay input vector."""
    u = np.asarray(input_vec, dtype=np.float64)
    if u.shape != (model.config.input_width,):
        raise DimensionMismatch(
            f"input shape {u.shape}, expected ({model.config.input_width},)"
        )
    hidden = np.tanh(model.w_hidden @ u + model.b_hidden)
    return float(model.w_out @ hidden + model.b_out)


def _forward_batch(
    w_hidden: np.ndarray,
    b_hidden: np.ndarray,
    w_out: np.ndarray,
    b_out: float,
    inputs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    activations = np.tanh(inputs @ w_hidden.T + b_hidden)
    return activations @ w_out + b_out, activations


def _stack_channels(y: np.ndarray, exo: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Channel list in input order: exogenous first, autoregressive last."""
    return [np.asarray(x, dtype=np.float64) for x in exo] + [
        np.asarray(y, dtype=np.float64)
    ]


def make_training_set(
    y, exo: Sequence, d: int, segments: Sequence[int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Teacher-forced samples from measured series.

    Returns (inputs, targets) with one row per t in d..L-1: the row holds
    d lags of each exogenous channel then d lags of y, and the target is
    y(t). All series must share length L > d.

    When the series is a concatenation of disjoint stretches (daylight
    hours glued across nights, say), pass their lengths as ``segments``:
    rows are then built within each stretch only, so no sample regresses
    a value onto lags from the other side of a gap. Stretches no longer
    than d contribute nothing; at least one row must survive overall.
    """
    channels = _stack_channels(np.asarray(y, dtype=np.float64), exo)
    L = channels[-1].size
    for c in channels:
        if c.ndim != 1 or c.size != L:
            raise TooShort(f"channel length {c.size} != {L} or not 1-d")

    def rows(a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        n = (b - a) - d
        inputs = np.empty((n, d * len(channels)), dtype=np.float64)
        for j, c in enumerate(channels):
            for k in range(d):
                # lag k+1 of channel j, for every sample at once
                inputs[:, j * d + k] = c[a + d - 1 - k : b - 1 - k]
        return inputs, channels[-1][a + d : b].copy()

    if segments is None:
        if L <= d:
            raise TooShort(f"series length {L} must exceed delay {d}")
        return rows(0, L)
    segs = [int(s) for s in segments]
    if any(s <= 0 for s in segs) or sum(segs) != L:
        raise ValueError(
            f"segment lengths {segs} must be positive and sum to {L}"
        )
    parts = []
    start = 0
    for s in segs:
        if s > d:
            parts.append(rows(start, start + s))
        start += s
    if not parts:
        raise TooShort(
            f"no segment of {segs} exceeds delay {d}; nothing to train on"
        )
    return np.vstack([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def _flatten(w_hidden, b_hidden, w_out, b_out) -> np.ndarray:
    return np.concatenate(
        [w_hidden.ravel(), b_hidden, w_out, np.array([b_out])]
    )


def _unflatten(theta: np.ndarray, config: NetworkConfig):
    h, w = config.hidden_width, config.input_width
    i = 0
    w_hidden = theta[i : i + h * w].reshape(h, w)
    i += h * w
    b_hidden = theta[i : i + h]
    i += h
    w_out = theta[i : i + h]
    i += h
    return w_hidden, b_hidden, w_out, float(theta[i])


def _check_batch(
    config: NetworkConfig, inputs, targets
) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(inputs, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyBatch("need a non-empty 2-d batch of inputs")
    if X.shape[1] != config.input_width or t.shape != (X.shape[0],):
        raise DimensionMismatch(
            f"batch shapes {X.shape}/{t.shape} do not fit the net"
        )
    return X, t


def _loss_and_gradient(
    theta: np.ndarray, config: NetworkConfig, X: np.ndarray, t: np.ndarray
) -> tuple[float, np.ndarray]:
    """The gradient kernel on flat parameters and a checked batch."""
    w_hidden, b_hidden, w_out, b_out = _unflatten(theta, config)
    preds, acts = _forward_batch(w_hidden, b_hidden, w_out, b_out, X)
    n = X.shape[0]
    resid = preds - t
    loss = float(resid @ resid) / n
    g_pred = 2.0 * resid / n
    g_b_out = float(g_pred.sum())
    g_w_out = acts.T @ g_pred
    g_z = np.outer(g_pred, w_out) * (1.0 - acts**2)
    g_b_hidden = g_z.sum(axis=0)
    g_w_hidden = g_z.T @ X
    return loss, _flatten(g_w_hidden, g_b_hidden, g_w_out, g_b_out)


def loss_and_gradient(
    model: NarxModel, inputs, targets
) -> tuple[float, np.ndarray]:
    """Mean squared error over the batch and its analytic gradient.

    The gradient is flat, ordered [w_hidden row-major, b_hidden, w_out,
    b_out], matching the serialization order.
    """
    X, t = _check_batch(model.config, inputs, targets)
    theta = _flatten(model.w_hidden, model.b_hidden, model.w_out, model.b_out)
    return _loss_and_gradient(theta, model.config, X, t)


def train(model: NarxModel, inputs, targets) -> NarxModel:
    """Full-batch adaptive-moment descent with early stopping.

    Trains under ``model.config``. Stops at max_epochs or when the best
    loss has not improved by early_stop_delta for early_stop_patience
    consecutive epochs. The returned parameters are the best snapshot
    seen, so the final loss never exceeds the initial one. A zero-epoch
    budget returns the model untouched.

    Raises EmptyBatch or DimensionMismatch for a batch that does not fit
    the net, and DivergedLoss when the loss or an updated parameter
    becomes non-finite.
    """
    cfg = model.config
    X, t = _check_batch(cfg, inputs, targets)
    if cfg.max_epochs == 0:
        return model
    theta = _flatten(model.w_hidden, model.b_hidden, model.w_out, model.b_out)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    history: list[float] = []
    best_loss = math.inf
    best_theta = theta
    stall = 0
    for epoch in range(1, cfg.max_epochs + 1):
        loss, grad = _loss_and_gradient(theta, cfg, X, t)
        if not math.isfinite(loss):
            raise DivergedLoss(f"loss became non-finite at epoch {epoch}")
        history.append(loss)
        if loss < best_loss - cfg.early_stop_delta:
            best_loss = loss
            best_theta = theta
            stall = 0
        else:
            stall += 1
            if stall >= cfg.early_stop_patience:
                break
        m = _ADAM_BETA1 * m + (1.0 - _ADAM_BETA1) * grad
        v = _ADAM_BETA2 * v + (1.0 - _ADAM_BETA2) * grad**2
        m_hat = m / (1.0 - _ADAM_BETA1**epoch)
        v_hat = v / (1.0 - _ADAM_BETA2**epoch)
        # a new array each epoch, so best_theta is never written through
        theta = theta - cfg.step_size * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
        if not np.isfinite(theta).all():
            raise DivergedLoss(f"parameters became non-finite at epoch {epoch}")
    w_hidden, b_hidden, w_out, b_out = _unflatten(best_theta, cfg)
    return NarxModel(
        config=cfg,
        w_hidden=w_hidden,
        b_hidden=b_hidden,
        w_out=w_out,
        b_out=b_out,
        trained=True,
        training_history=tuple(history),
    )


def predict_open_loop(model: NarxModel, y, exo: Sequence = ()) -> np.ndarray:
    """One-step-ahead predictions with measured lags, for t = d..L-1."""
    inputs, _ = make_training_set(y, exo, model.config.delay_d)
    preds, _ = _forward_batch(
        model.w_hidden, model.b_hidden, model.w_out, model.b_out, inputs
    )
    return preds


def predict_closed_loop(
    model: NarxModel,
    y_seed,
    exo_future: Sequence = (),
    *,
    horizon: int | None = None,
    exo_seed: Sequence = (),
    clamp: tuple[float, float] = (0.0, KAPPA_MAX),
    clamp_stats: dict | None = None,
) -> np.ndarray:
    """Multi-step recursion feeding predictions back as y lags.

    y_seed holds the last d measured values (chronological, most recent
    last). Exogenous channels need both their future values over the
    horizon (exo_future) and their own last d values (exo_seed) so the
    first steps have complete lag vectors. Each prediction is clamped to
    ``clamp``; pass a dict as clamp_stats to get the clamp count back.
    """
    d = model.config.delay_d
    k = model.config.n_exo_channels
    ys = np.asarray(y_seed, dtype=np.float64)
    if ys.shape != (d,):
        raise SeedLengthMismatch(f"y_seed shape {ys.shape}, expected ({d},)")
    fut = [np.asarray(x, dtype=np.float64) for x in exo_future]
    seeds = [np.asarray(x, dtype=np.float64) for x in exo_seed]
    if len(fut) != k or len(seeds) != k:
        raise SeedLengthMismatch(
            f"{len(fut)} future / {len(seeds)} seed exogenous channels, expected {k}"
        )
    if horizon is None:
        if not fut:
            raise ValueError("horizon is required when there are no exogenous channels")
        horizon = min(x.size for x in fut)
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    for x in fut:
        if x.size < horizon:
            raise SeedLengthMismatch(
                f"exogenous future length {x.size} < horizon {horizon}"
            )
    for x in seeds:
        if x.shape != (d,):
            raise SeedLengthMismatch(f"exo_seed shape {x.shape}, expected ({d},)")

    lo, hi = clamp
    out = np.empty(horizon, dtype=np.float64)
    u = np.empty(model.config.input_width, dtype=np.float64)
    n_clamped = 0
    for h in range(horizon):
        for j, (channel_fut, channel_seed) in enumerate(zip(fut, seeds)):
            for lag in range(1, d + 1):
                idx = h - lag
                u[j * d + (lag - 1)] = (
                    channel_fut[idx] if idx >= 0 else channel_seed[d + idx]
                )
        for lag in range(1, d + 1):
            idx = h - lag
            u[k * d + (lag - 1)] = out[idx] if idx >= 0 else ys[d + idx]
        raw = forward(model, u)
        clipped = min(hi, max(lo, raw))
        if clipped != raw:
            n_clamped += 1
        out[h] = clipped
    if clamp_stats is not None:
        clamp_stats["n_clamped"] = n_clamped
    return out


def fit_nar(series: PreprocessedSeries, config: NetworkConfig) -> FittingModel:
    """Train a NAR net on one level's index series and score the fit.

    Training samples never straddle the overnight gap: the index chain is
    split back into per-day stretches, so no morning value is regressed
    on the previous evening's lags. (Weather can turn over during the
    night; teaching the net that jump as if it were an hourly transition
    drags every in-day prediction toward the climatological mean.)

    Quality is in-sample: one-step predictions on those same rows against
    the measured index, summarized as R^2 and MAPE (exact-zero actuals
    excluded from MAPE).
    """
    if config.n_exo_channels != 0:
        raise ValueError("fit_nar requires a purely autoregressive config")
    y = series.index_values
    if y.size < max(MIN_FIT_DAY_HOURS, config.delay_d + 1):
        raise InsufficientHistory(
            f"{y.size} day hours; need at least "
            f"{max(MIN_FIT_DAY_HOURS, config.delay_d + 1)}"
        )
    inputs, targets = make_training_set(
        y, (), config.delay_d, segments=series.day_run_lengths()
    )
    net = train(init_network(config), inputs, targets)
    preds, _ = _forward_batch(net.w_hidden, net.b_hidden, net.w_out, net.b_out, inputs)
    fit_r2 = _r_squared(targets, preds)
    fit_mape, _ = _mape(targets, preds, 0.0)
    return FittingModel(level=series.level, net=net, fit_r2=fit_r2, fit_mape=fit_mape)


_FORMAT_HEADER = "pvlevels-narx 1"


def model_to_text(model: NarxModel) -> str:
    """Serialize a model to the versioned flat text format.

    Floats are written with 17 significant digits, which round-trips
    IEEE doubles exactly.
    """
    c = model.config
    lines = [
        _FORMAT_HEADER,
        f"delay_d {c.delay_d}",
        f"hidden_width {c.hidden_width}",
        f"n_exo_channels {c.n_exo_channels}",
        f"seed {c.seed}",
        f"max_epochs {c.max_epochs}",
        f"step_size {c.step_size:.17g}",
        f"early_stop_patience {c.early_stop_patience}",
        f"early_stop_delta {c.early_stop_delta:.17g}",
        f"trained {int(model.trained)}",
        f"history {len(model.training_history)}",
    ]
    lines.extend(f"{v:.17g}" for v in model.training_history)
    lines.append("params")
    for row in model.w_hidden:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    lines.append(" ".join(f"{v:.17g}" for v in model.b_hidden))
    lines.append(" ".join(f"{v:.17g}" for v in model.w_out))
    lines.append(f"{model.b_out:.17g}")
    return "\n".join(lines) + "\n"


def model_from_text(text: str) -> NarxModel:
    """Parse the flat text format back into a model."""
    lines = text.splitlines()
    pos = 0

    def next_line() -> str:
        nonlocal pos
        if pos >= len(lines):
            raise ParseError("unexpected end of model text")
        line = lines[pos]
        pos += 1
        return line

    def keyed(key: str) -> str:
        line = next_line()
        head, _, rest = line.partition(" ")
        if head != key:
            raise ParseError(f"expected '{key} ...', got {line!r}")
        return rest

    if next_line() != _FORMAT_HEADER:
        raise ParseError(f"bad header; expected {_FORMAT_HEADER!r}")
    try:
        config = NetworkConfig(
            delay_d=int(keyed("delay_d")),
            hidden_width=int(keyed("hidden_width")),
            n_exo_channels=int(keyed("n_exo_channels")),
            seed=int(keyed("seed")),
            max_epochs=int(keyed("max_epochs")),
            step_size=float(keyed("step_size")),
            early_stop_patience=int(keyed("early_stop_patience")),
            early_stop_delta=float(keyed("early_stop_delta")),
        )
        trained = bool(int(keyed("trained")))
        n_history = int(keyed("history"))
        history = tuple(float(next_line()) for _ in range(n_history))
        if next_line() != "params":
            raise ParseError("expected 'params' marker")
        w_hidden = np.array(
            [[float(v) for v in next_line().split()] for _ in range(config.hidden_width)]
        )
        b_hidden = np.array([float(v) for v in next_line().split()])
        w_out = np.array([float(v) for v in next_line().split()])
        b_out = float(next_line())
    except ParseError:
        raise
    except (ValueError, IndexError) as exc:
        raise ParseError(f"malformed model text: {exc}") from exc
    if pos != len(lines):
        raise ParseError(f"{len(lines) - pos} trailing lines after parameters")
    return NarxModel(
        config=config,
        w_hidden=w_hidden,
        b_hidden=b_hidden,
        w_out=w_out,
        b_out=b_out,
        trained=trained,
        training_history=history,
    )


def save_model(model: NarxModel, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(model_to_text(model))


def load_model(path) -> NarxModel:
    with open(path, "r", encoding="ascii") as fh:
        return model_from_text(fh.read())

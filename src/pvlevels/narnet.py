"""Tapped-delay feedforward nets for autoregressive forecasting.

One hidden tanh layer, linear output:

    y(t) = w_out . tanh(W_h u(t) + b_h) + b_out

where u(t) stacks d lags of each exogenous channel followed by d
autoregressive lags, most recent first within each block:

    u(t) = [x1(t-1)..x1(t-d), ..., xk(t-1)..xk(t-d), y(t-1)..y(t-d)]

With no exogenous channels this is a NAR net; with them, a NARX.
Training rows (make_training_set) and closed-loop steps
(predict_closed_loop) read u(t) from the same lag windows, so the
layout lives in one function, _lag_windows.
Training is full-batch gradient descent on mean squared error with
per-parameter adaptive moments (decay 0.9/0.999, bias correction),
teacher-forced (open-loop): measured lags in, one-step-ahead target out.
Forecasting runs the same net closed-loop, feeding predictions back as
autoregressive lags and clamping each step to the clear-sky-index range.

Everything is deterministic given (seed, data, config): initialization
comes from a PCG64 generator seeded explicitly, training is
single-threaded float64 with no stochastic batching.

Batches run hidden-major: the kernel takes the inputs transposed to
(input_width, rows) and keeps the activations as (hidden, rows). The
hidden layer is only a few units wide, and numpy runs an elementwise op
or a reduction as an inner loop along the last axis, so row-major
(rows, hidden) storage pays one loop of length ``hidden`` per row; here
each op runs over contiguous rows of all ``rows`` values.

The biases ride in the GEMMs: the transposed batch ``XTa`` and the
activations ``A`` each carry a last row of ones, so ``[W_h | b_h] @ XTa``
and ``[w_out, b_out] @ A`` make the forward pass, and ``A @ r`` and
``g_z @ XTa.T`` give each layer's weight and bias gradients together.
The residual r runs unscaled through the backward pass, and the finished
gradient, a few dozen values, is scaled by 2/n once. For those GEMMs the
kernel keeps the parameters in its own order, each hidden unit's weights
followed by its bias, then [w_out, b_out], so that each layer is one
contiguous matrix. The serialized order, [w_hidden, b_hidden, w_out,
b_out], stays the public one (loss_and_gradient's gradient, the model
text); loss_and_gradient and train convert at the boundary. Adam is
elementwise, so running it in kernel order gives the same numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

#: Smallest loss decrease that counts as an improvement for early stopping.
_EARLY_STOP_DELTA = 1e-9

#: Minimum day hours fit_nar accepts, and so the day hours a forecast
#: day's history must hold (see pipeline.valid_forecast_days).
MIN_FIT_DAY_HOURS = 360


@dataclass(frozen=True)
class NetworkConfig:
    """Topology and training knobs for one net.

    delay_d is the number of lags per channel; n_exo_channels=0 makes the
    net purely autoregressive. The input layer width is
    delay_d * (1 + n_exo_channels).

    The defaults are the pipeline's fitting, forecasting and baseline
    nets. They are small on purpose: the NARX input grows with every
    exogenous channel, and a month of daylight hours is only a few
    hundred training rows.
    """

    delay_d: int = 6
    hidden_width: int = 6
    n_exo_channels: int = 0
    seed: int = 0
    max_epochs: int = 2000
    step_size: float = 0.005
    early_stop_patience: int = 200

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

    @property
    def input_width(self) -> int:
        return self.delay_d * (1 + self.n_exo_channels)


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


def _lag_windows(channels: Sequence[np.ndarray], d: int) -> list[np.ndarray]:
    """The tapped-delay layout: row i of each window holds the d lags of
    time i+d, most recent first. Views, so a write to a channel shows."""
    return [sliding_window_view(c, d)[:, ::-1] for c in channels]


def make_training_set(
    y, exo: Sequence, d: int, segments: Sequence[int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Teacher-forced samples from measured series.

    Returns (inputs, targets) with one row per t in d..L-1: the row is
    u(t) and the target is y(t). All series must be 1-d and share length
    L > d: a channel that is not raises DimensionMismatch, a series too
    short for d raises TooShort.

    When the series is a concatenation of disjoint stretches (daylight
    hours glued across nights, say), pass their lengths as ``segments``:
    rows are then built within each stretch only, so no sample regresses
    a value onto lags from the other side of a gap. Stretches no longer
    than d contribute nothing; at least one row must survive overall.
    """
    channels = [np.asarray(x, dtype=np.float64) for x in exo]
    channels.append(np.asarray(y, dtype=np.float64))
    L = channels[-1].size
    for c in channels:
        if c.ndim != 1 or c.size != L:
            raise DimensionMismatch(
                f"channel length {c.size} != {L} or not 1-d"
            )
    if segments is None:
        if L <= d:
            raise TooShort(f"series length {L} must exceed delay {d}")
        segments = [L]
    segs = [int(s) for s in segments]
    if any(s <= 0 for s in segs) or sum(segs) != L:
        raise ValueError(
            f"segment lengths {segs} must be positive and sum to {L}"
        )
    # row t is kept when t-d lies in t's own stretch
    offsets = np.arange(L) - np.repeat(np.cumsum([0] + segs)[:-1], segs)
    keep = offsets[d:] >= d
    if not keep.any():
        raise TooShort(
            f"no segment of {segs} exceeds delay {d}; nothing to train on"
        )
    inputs = np.concatenate(_lag_windows([c[:-1] for c in channels], d), axis=1)
    return inputs[keep], channels[-1][d:][keep]


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


def _kernel_theta(model: NarxModel) -> np.ndarray:
    """The parameters in kernel order: [W_h | b_h] row-major, then
    [w_out, b_out]. A copy, so the kernel never writes through to a model."""
    return np.concatenate([
        np.column_stack([model.w_hidden, model.b_hidden]).ravel(),
        model.w_out,
        np.array([model.b_out]),
    ])


def _layers(theta: np.ndarray, config: NetworkConfig):
    """The (hidden, input_width + 1) matrix [W_h | b_h] and the vector
    [w_out, b_out], as views of a kernel-order vector."""
    h, w = config.hidden_width, config.input_width
    return theta[: h * (w + 1)].reshape(h, w + 1), theta[h * (w + 1) :]


def _split_kernel_theta(theta: np.ndarray, config: NetworkConfig):
    """(w_hidden, b_hidden, w_out, b_out) views of a kernel-order vector."""
    wa, woa = _layers(theta, config)
    return wa[:, :-1], wa[:, -1], woa[:-1], float(woa[-1])


class _Kernel:
    """Forward pass and gradient over one augmented batch.

    Holds the batch as ``XTa``, (input_width + 1, rows), and the
    activations as ``A``, (hidden + 1, rows), each with a last row of
    ones, so each bias rides in a GEMM. Every
    buffer is made once, here; ``theta`` and ``grad`` are kernel-order
    vectors the caller owns and updates in place, and the kernel reads
    and writes them through views taken once.
    """

    def __init__(self, config: NetworkConfig, X: np.ndarray,
                 theta: np.ndarray, grad: np.ndarray) -> None:
        h, n = config.hidden_width, X.shape[0]
        self.n = n
        self.XTa = np.empty((X.shape[1] + 1, n))
        self.XTa[:-1] = X.T
        self.XTa[-1] = 1.0
        self.A = np.empty((h + 1, n))
        self.A[h] = 1.0
        self.acts = self.A[:h]
        self.preds = np.empty(n)
        self.g_z = np.empty((h, n))
        self.Wa, self.woa = _layers(theta, config)
        self.w_out_col = self.woa[:h, None]
        self.g_Wa, self.g_woa = _layers(grad, config)
        self.grad = grad

    def forward(self) -> np.ndarray:
        """Predictions into ``preds``; activations into ``A[:h]``."""
        np.matmul(self.Wa, self.XTa, out=self.acts)
        np.tanh(self.acts, out=self.acts)
        return np.matmul(self.woa, self.A, out=self.preds)

    def loss_and_gradient(self, t: np.ndarray) -> float:
        """Mean squared error against ``t``; its gradient goes to ``grad``.

        The residual runs unscaled through both GEMMs, and the finished
        gradient is scaled by 2/n once.
        """
        r = self.forward()
        r -= t
        loss = float(r @ r) / self.n
        # [g_w_out, g_b_out] = A r
        np.matmul(self.A, r, out=self.g_woa)
        # g_z = (w_out (x) r) * (1 - A[:h]**2)
        g_z = self.g_z
        np.square(self.acts, out=g_z)
        np.subtract(1.0, g_z, out=g_z)
        g_z *= self.w_out_col
        g_z *= r
        # [g_W_h | g_b_h] = g_z XTa^T
        np.matmul(g_z, self.XTa.T, out=self.g_Wa)
        self.grad *= 2.0 / self.n
        return loss


def _predict_batch(model: NarxModel, X: np.ndarray) -> np.ndarray:
    """Predictions for the rows of a row-major batch."""
    theta = _kernel_theta(model)
    return _Kernel(model.config, X, theta, np.empty_like(theta)).forward()


def loss_and_gradient(
    model: NarxModel, inputs, targets
) -> tuple[float, np.ndarray]:
    """Mean squared error over the batch and its analytic gradient.

    The gradient is flat, ordered [w_hidden row-major, b_hidden, w_out,
    b_out], matching the serialization order.
    """
    X, t = _check_batch(model.config, inputs, targets)
    theta = _kernel_theta(model)
    grad = np.empty_like(theta)
    loss = _Kernel(model.config, X, theta, grad).loss_and_gradient(t)
    return loss, _flatten(*_split_kernel_theta(grad, model.config))


def train(model: NarxModel, inputs, targets) -> NarxModel:
    """Full-batch adaptive-moment descent with early stopping.

    Trains under ``model.config``. Stops at max_epochs or when the best
    loss has not improved by more than _EARLY_STOP_DELTA for
    early_stop_patience consecutive epochs. The returned parameters are
    the best snapshot seen, so the final loss never exceeds the initial
    one. A zero-epoch budget returns the model untouched.

    Raises EmptyBatch or DimensionMismatch for a batch that does not fit
    the net, and DivergedLoss when the loss or an updated parameter
    becomes non-finite.
    """
    cfg = model.config
    X, t = _check_batch(cfg, inputs, targets)
    if cfg.max_epochs == 0:
        return model
    # theta, the gradient, the moments and the step are updated in
    # place, in kernel order; Adam is elementwise, so the order does not
    # change its arithmetic
    theta = _kernel_theta(model)
    grad = np.empty_like(theta)
    kernel = _Kernel(cfg, X, theta, grad)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    m_hat = np.empty_like(theta)
    v_hat = np.empty_like(theta)
    scratch = np.empty_like(theta)
    finite = np.empty(theta.shape, dtype=bool)
    history: list[float] = []
    best_loss = math.inf
    best_theta = theta.copy()
    stall = 0
    for epoch in range(1, cfg.max_epochs + 1):
        loss = kernel.loss_and_gradient(t)
        if not math.isfinite(loss):
            raise DivergedLoss(f"loss became non-finite at epoch {epoch}")
        history.append(loss)
        if loss < best_loss - _EARLY_STOP_DELTA:
            best_loss = loss
            np.copyto(best_theta, theta)
            stall = 0
        else:
            stall += 1
            if stall >= cfg.early_stop_patience:
                break
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g**2
        m *= _ADAM_BETA1
        np.multiply(grad, 1.0 - _ADAM_BETA1, out=scratch)
        m += scratch
        v *= _ADAM_BETA2
        np.square(grad, out=scratch)
        scratch *= 1.0 - _ADAM_BETA2
        v += scratch
        # theta -= step * m_hat / (sqrt(v_hat) + eps), bias-corrected
        np.divide(m, 1.0 - _ADAM_BETA1**epoch, out=m_hat)
        np.divide(v, 1.0 - _ADAM_BETA2**epoch, out=v_hat)
        np.sqrt(v_hat, out=v_hat)
        v_hat += _ADAM_EPS
        m_hat *= cfg.step_size
        m_hat /= v_hat
        theta -= m_hat
        if not np.isfinite(theta, out=finite).all():
            raise DivergedLoss(f"parameters became non-finite at epoch {epoch}")
    return NarxModel(
        cfg,
        *_split_kernel_theta(best_theta, cfg),
        trained=True,
        training_history=tuple(history),
    )


def predict_open_loop(model: NarxModel, y, exo: Sequence = ()) -> np.ndarray:
    """One-step-ahead predictions with measured lags, for t = d..L-1."""
    inputs, _ = make_training_set(y, exo, model.config.delay_d)
    return _predict_batch(model, inputs)


def predict_closed_loop(
    model: NarxModel,
    y_seed,
    exo_future: Sequence = (),
    *,
    horizon: int,
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

    # one buffer per channel, seed then horizon; y fills as steps come out
    buffers = [np.concatenate([s, x[:horizon]]) for s, x in zip(seeds, fut)]
    buffers.append(np.concatenate([ys, np.empty(horizon)]))
    windows = _lag_windows(buffers, d)
    lo, hi = clamp
    n_clamped = 0
    for h in range(horizon):
        raw = forward(model, np.concatenate([w[h] for w in windows]))
        clipped = min(hi, max(lo, raw))
        if clipped != raw:
            n_clamped += 1
        buffers[-1][d + h] = clipped
    if clamp_stats is not None:
        clamp_stats["n_clamped"] = n_clamped
    return buffers[-1][d:]


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
        y, (), config.delay_d, segments=day_run_lengths(series.day_mask)
    )
    net = train(init_network(config), inputs, targets)
    preds = _predict_batch(net, inputs)
    fit_r2 = _r_squared(targets, preds)
    fit_mape, _ = _mape(targets, preds, 0.0)
    return FittingModel(level=series.level, net=net, fit_r2=fit_r2, fit_mape=fit_mape)


_FORMAT_HEADER = "pvlevels-narx 2"


def model_to_text(model: NarxModel) -> str:
    """Serialize a model to the versioned flat text format.

    The config block holds one ``name value`` line per NetworkConfig
    field, in field order. Floats are written with 17 significant digits,
    which round-trips IEEE doubles exactly.
    """
    lines = [_FORMAT_HEADER]
    for f in fields(NetworkConfig):
        value = getattr(model.config, f.name)
        text = f"{value:.17g}" if isinstance(value, float) else str(value)
        lines.append(f"{f.name} {text}")
    lines.append(f"trained {int(model.trained)}")
    lines.append(f"history {len(model.training_history)}")
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
        # each field parses as the type of its default
        config = NetworkConfig(
            **{f.name: type(f.default)(keyed(f.name)) for f in fields(NetworkConfig)}
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

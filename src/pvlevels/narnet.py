"""Tapped-delay feedforward nets for autoregressive forecasting.

One hidden tanh layer, linear output:

    y(t) = w_out . tanh(W_h u(t) + b_h) + b_out

where u(t) stacks d lags of each exogenous channel followed by d
autoregressive lags, most recent first within each block:

    u(t) = [x1(t-1)..x1(t-d), ..., xk(t-1)..xk(t-d), y(t-1)..y(t-d)]

With no exogenous channels this is a NAR net; with them, a NARX.
Training rows (make_training_set) and closed-loop steps
(predict_closed_loop) read u(t) from the same lag windows, so the
layout lives in one function, _lag_windows. A series of day hours glued
across nights comes with its hourly day mask, and a training row is
kept only when its d lags are the d hours right before its target on
that grid: the one gap rule, for a night or a gap of any length.
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
The residual r runs unscaled through the backward pass, and so does the
output weight: g_z is (1 - A**2) * r, with no w_out in it. Both meet the
finished gradient, a few dozen values, in one multiply by a scale vector
that holds w_out[j] * 2/n for hidden unit j's row of [g_W_h | g_b_h] and
2/n for [g_w_out, g_b_out]; one small multiply refreshes its hidden
block from w_out at each call. No (hidden, rows) pass carries w_out or
2/n. (Applying w_out to g_z row by row gives the same gradient up to
rounding in the last bits.)

A net's parameters are one flat vector, ``NarxModel.theta``, in the
order those GEMMs read: each hidden unit's weights followed by its bias,
then [w_out, b_out], so each layer is one contiguous matrix (_layers).
The kernel, Adam and loss_and_gradient's gradient all use that order;
``w_hidden``, ``b_hidden``, ``w_out`` and ``b_out`` are views of it.

A net has at most a couple of hundred parameters, so a numpy call on
them costs its fixed overhead, about a microsecond, and next to nothing
for the arithmetic. An epoch therefore makes as few calls as it can, each
in its cheapest form. Adam's state is one (4, P) array [g, g**2, m, v]:
one multiply by [1-b1, 1-b2, b1, b2] applies both gains and decays, one
add forms [m, v], and [m_hat, v_hat] overwrite [g, g**2] until the next
gradient. Those four factors, the bias corrections, step, epsilon and
the parameter check's zeros are rows of one (9, P) array made once per
``train`` call, as is the kernel's 2/n: a Python-float operand costs
more per call than an array, a column broadcast more still. An epoch is
22 numpy calls and two ``ndarray.fill``s: 12 in the kernel, 4 of them
elementwise passes over (hidden, rows) arrays, and 10 for Adam and the
parameter check; a batch with merged rows (below) adds one multiply over
its rows. The epoch reaches them, and the kernel its buffers, through
local names and closure cells bound once per ``train`` call, not
through attribute loads. Every element still goes through the same
operations in the same order, so the numbers are those of the textbook
formulas over loss_and_gradient's gradient (tests/test_narnet.py:
reference_train).

The one exception is a batch of raw-kW rows with nights in it: every
night hour past the first d is the same row, zero lags and a zero
target, and on the benchmark's baseline batches those are 22-38% of the
rows. Each adds the same term to the loss and to every gradient sum, so
when a batch holds two or more, ``train`` keeps the first in place with
a weight equal to their count and drops the rest (_merge_zero_rows); the
kept rows go from the batch straight into the kernel's ``XTa``. The
kernel forms the weighted residual ``wr = w * r`` in that one extra
multiply; the loss is ``r . wr / n``, and ``A @ wr`` and
``g_z = (1 - A**2) * wr`` follow, with n, and so 2/n, still the full
row count. The loss stays the mean over every row up to rounding (k
equal squares summed become one square times k): per-net loss
histories stay within 6e-15 relative of the full batch's, and bit for
bit those of reference_train given the kept rows and their weights.
On any other batch ``wr`` is the residual's own buffer and the kernel
makes the same calls as without merging, bit for bit. Measured with
``time.thread_time`` on the benchmark's first baseline batch of each
workload (same 2-vCPU Xeon, 200 epochs, median of 15 alternating calls),
in µs per epoch (full batch -> merged): 3x3 net, 1,852 rows of which 665
merge, 51.3 -> 43.2; 6x6 net, 1,753 rows (458), 71.5 -> 59.1; 3x3 net,
16,948 rows (6,473), 273.3 -> 188.8.

Six of those calls are products: the kernel's four GEMMs, its r . r
and the parameter check. Each is the bound ``dot`` method of its left
operand, taken once per ``train`` call, and the other 16 are ufuncs.
``np.matmul`` is a gufunc and ``np.dot`` passes through numpy's
array-function dispatch, and on these shapes that overhead costs more
than the arithmetic. Timed alone on a 3x3 net over 700 rows (2-vCPU
Xeon, numpy 2.4, OpenBLAS on one thread), in µs, ``np.matmul`` /
``np.dot`` / bound ``dot``: [W_h | b_h] @ XTa 1.66 / 1.11 / 0.90,
[w_out, b_out] @ A 1.08 / 0.74 / 0.54, A @ r 1.10 / 0.79 / 0.57; on a
16-value vector ``np.dot`` takes 0.56 and ``a.dot(b)`` 0.38.
``ndarray.dot`` is the C routine behind ``np.dot``, which hands these
layouts to the same BLAS routines ``np.matmul`` does, so the bits are
matmul's (tests/test_narnet.py: reference_hidden_major). The best
snapshot is kept by slice assignment, and predict_closed_loop's steps
use bound ``dot`` methods and slice assignment the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import MeasurementLevel, check_seed, make_generator
from .errors import InputError, TrainingFailed, Unforecastable
from .metrics import mape as _mape
from .metrics import r_squared as _r_squared
from .preprocess import KAPPA_MAX, PreprocessedSeries

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
        check_seed(self.seed)
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        if not (math.isfinite(self.step_size) and self.step_size > 0.0):
            raise ValueError("step_size must be finite and > 0")
        if self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1")

    @property
    def input_width(self) -> int:
        return self.delay_d * (1 + self.n_exo_channels)


def _layers(theta: np.ndarray, config: NetworkConfig):
    """The (hidden, input_width + 1) matrix [W_h | b_h] and the vector
    [w_out, b_out], as views of a parameter vector."""
    h, w = config.hidden_width, config.input_width
    return theta[: h * (w + 1)].reshape(h, w + 1), theta[h * (w + 1) :]


@dataclass(frozen=True, eq=False)
class NarxModel:
    """A net's parameters plus its config and training record.

    ``theta`` is a read-only copy of the parameters, [W_h | b_h]
    row-major, then [w_out, b_out]; the four parts are views of it.
    ``training_history`` is train's loss per epoch, every value finite,
    empty for a net that was never trained.
    """

    config: NetworkConfig
    theta: np.ndarray
    training_history: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        h, w = self.config.hidden_width, self.config.input_width
        theta = np.array(self.theta, dtype=np.float64)
        if theta.shape != (h * (w + 2) + 1,):
            raise ValueError(
                f"parameter shape {theta.shape} does not fit hidden={h}, input={w}"
            )
        if not np.all(np.isfinite(theta)):
            raise ValueError("all parameters must be finite")
        history = tuple(self.training_history)
        if not all(map(math.isfinite, history)):
            raise ValueError("every training loss must be finite")
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "training_history", history)

    @classmethod
    def from_layers(
        cls, config: NetworkConfig, w_hidden, b_hidden, w_out, b_out: float
    ) -> NarxModel:
        """A model from its four parts."""
        h, w = config.hidden_width, config.input_width
        wh = np.asarray(w_hidden, dtype=np.float64)
        bh = np.asarray(b_hidden, dtype=np.float64)
        wo = np.asarray(w_out, dtype=np.float64)
        if wh.shape != (h, w) or bh.shape != (h,) or wo.shape != (h,):
            raise ValueError(
                f"parameter shapes {wh.shape}/{bh.shape}/{wo.shape} "
                f"do not fit hidden={h}, input={w}"
            )
        theta = np.empty(h * (w + 2) + 1)
        wa, woa = _layers(theta, config)
        wa[:, :-1], wa[:, -1], woa[:-1], woa[-1] = wh, bh, wo, b_out
        return cls(config, theta)

    @property
    def w_hidden(self) -> np.ndarray:
        return _layers(self.theta, self.config)[0][:, :-1]

    @property
    def b_hidden(self) -> np.ndarray:
        return _layers(self.theta, self.config)[0][:, -1]

    @property
    def w_out(self) -> np.ndarray:
        return _layers(self.theta, self.config)[1][:-1]

    @property
    def b_out(self) -> float:
        return float(_layers(self.theta, self.config)[1][-1])


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
    return NarxModel.from_layers(
        config,
        rng.uniform(-bound_h, bound_h, size=(h, w)),
        np.zeros(h),
        rng.uniform(-bound_o, bound_o, size=h),
        0.0,
    )


def forward(model: NarxModel, input_vec) -> float:
    """One scalar prediction for one tapped-delay input vector."""
    u = np.asarray(input_vec, dtype=np.float64)
    if u.shape != (model.config.input_width,):
        raise ValueError(
            f"input shape {u.shape}, expected ({model.config.input_width},)"
        )
    hidden = np.tanh(model.w_hidden @ u + model.b_hidden)
    return float(model.w_out @ hidden + model.b_out)


def _lag_windows(channels: np.ndarray, d: int) -> np.ndarray:
    """The tapped-delay layout of a (channel, time) array: ``[i, c]`` holds
    channel c's d lags of time i+d, most recent first, so ``[i]`` read
    row-major is u(i+d). A view, so a write to a channel shows."""
    return sliding_window_view(channels, d, axis=1)[:, :, ::-1].transpose(1, 0, 2)


def make_training_set(
    y, exo: Sequence, d: int, day_mask=None
) -> tuple[np.ndarray, np.ndarray]:
    """Teacher-forced samples from measured series.

    The series hold, in order, the values at the True hours of
    ``day_mask``, an hourly mask (daylight hours glued across nights,
    say); None means L consecutive hours. Returns (inputs, targets) with
    one row per t in d..L-1 whose d lags are the d hours right before
    t's hour on that grid: the row is u(t) and the target is y(t). So no
    sample regresses a value onto lags from the other side of a gap, of
    any length. All series must be 1-d and share length L > d, the mask
    must be 1-d with L True hours, and at least one row must survive,
    else ValueError.
    """
    channels = [np.asarray(x, dtype=np.float64) for x in exo]
    channels.append(np.asarray(y, dtype=np.float64))
    L = channels[-1].size
    for c in channels:
        if c.ndim != 1 or c.size != L:
            raise ValueError(
                f"channel length {c.size} != {L} or not 1-d"
            )
    if L <= d:
        raise ValueError(f"series length {L} must exceed delay {d}")
    mask = np.ones(L, bool) if day_mask is None else np.asarray(day_mask, bool)
    hours = np.flatnonzero(mask)
    if mask.ndim != 1 or hours.size != L:
        raise ValueError(f"day mask must be 1-d with {L} True hours")
    # row t is kept when its d lags are the d hours before its target
    keep = hours[d:] - hours[: L - d] == d
    if not keep.any():
        raise ValueError(
            f"no run of day hours exceeds delay {d}; nothing to train on"
        )
    series = np.stack(channels)
    lags = _lag_windows(series[:, :-1], d)[keep]
    return lags.reshape(lags.shape[0], -1), series[-1, d:][keep]


def _check_batch(
    config: NetworkConfig, inputs, targets
) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(inputs, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("need a non-empty 2-d batch of inputs")
    if X.shape[1] != config.input_width or t.shape != (X.shape[0],):
        raise ValueError(
            f"batch shapes {X.shape}/{t.shape} do not fit the net"
        )
    return X, t


def _merge_zero_rows(
    X: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray | None]:
    """The rows a training batch keeps, their targets and their weights.

    A row whose inputs and target are all exactly 0 (either sign; NaN
    never matches) adds the same term to the loss and to every gradient
    sum as any other such row. When a batch holds at least two, the
    first stays in place, weighted by their count, and the others drop
    out. Returns (keep, kept targets, weights), or (None, t, None) when
    nothing merges. The rows' inputs are scanned only when at least two
    targets are 0.
    """
    zero = t == 0.0
    if np.count_nonzero(zero) < 2:
        return None, t, None
    zero &= ~X.any(axis=1)
    k = int(np.count_nonzero(zero))
    if k < 2:
        return None, t, None
    first = int(zero.argmax())
    keep = ~zero
    keep[first] = True
    weights = np.ones(t.size - k + 1)
    # no row before the first zero row drops out, so its index stands
    weights[first] = k
    return keep, t[keep], weights


class _Kernel:
    """Forward pass and gradient over one augmented batch.

    Holds the batch as ``XTa``, (input_width + 1, rows), and the
    activations as ``A``, (hidden + 1, rows), each with a last row of
    ones, so each bias rides in a GEMM. Every buffer is made once, here;
    ``theta`` (which the kernel only reads) and ``grad`` are parameter
    vectors the caller owns and may update in place, and the kernel
    reads and writes them through views taken once. ``forward`` and
    ``loss_and_gradient`` are closures over those views, numpy's
    functions and the views' own ``dot`` methods, so a call loads no
    attributes and no product passes through numpy's dispatch.

    Given ``keep`` and ``weights`` (from _merge_zero_rows), the buffers
    hold only the kept rows, copied from X straight into ``XTa``, and
    each kept row's residual counts ``weights`` times. The loss and the
    gradient's 2/n still divide by X's full row count, and
    ``loss_and_gradient`` then takes the kept rows' targets.
    """

    def __init__(self, config: NetworkConfig, X: np.ndarray,
                 theta: np.ndarray, grad: np.ndarray,
                 keep: np.ndarray | None = None,
                 weights: np.ndarray | None = None) -> None:
        h, n = config.hidden_width, X.shape[0]
        weighted = weights is not None
        m = weights.size if weighted else n
        XTa = np.empty((X.shape[1] + 1, m))
        if weighted:
            # np.compress copies a strided input whole before it selects,
            # so one column at a time keeps that copy one column long
            for row, column in zip(XTa, X.T):
                np.compress(keep, column, out=row)
        else:
            XTa[:-1] = X.T
        XTa[-1] = 1.0
        Xa = XTa.T
        A = np.empty((h + 1, m))
        A[h] = 1.0
        acts = A[:h]
        preds = np.empty(m)
        # the weighted residual w * r; unweighted, it is r itself
        wr = np.empty(m) if weighted else preds
        g_z = np.empty((h, m))
        Wa, woa = _layers(theta, config)
        w_out_col = woa[:h, None]
        g_Wa, g_woa = _layers(grad, config)
        # scale is 2/n for [w_out, b_out] and w_out[j] 2/n for hidden
        # unit j's row of [W_h | b_h], refreshed from theta at each call
        scale = np.full(grad.shape, 2.0 / n)
        scale_Wa = _layers(scale, config)[0]
        two_over_n = scale_Wa.copy()
        tanh, subtract = np.tanh, np.subtract
        square, multiply = np.square, np.multiply
        # each product is its left operand's bound dot, which reaches the
        # BLAS routine behind np.dot and np.matmul without their dispatch
        Wa_dot, woa_dot, A_dot = Wa.dot, woa.dot, A.dot
        g_z_dot, r_dot = g_z.dot, preds.dot

        def forward() -> np.ndarray:
            """Predictions into ``preds``; activations into ``A[:h]``."""
            Wa_dot(XTa, acts)
            tanh(acts, acts)
            return woa_dot(A, preds)

        def loss_and_gradient(t: np.ndarray) -> float:
            """Mean squared error against ``t``; its gradient goes to ``grad``.

            The residual runs unscaled through both GEMMs, and the output
            weight and 2/n meet the finished gradient in one multiply.
            """
            # forward's three calls, inline; the residual r is preds
            Wa_dot(XTa, acts)
            tanh(acts, acts)
            woa_dot(A, preds)
            subtract(preds, t, preds)
            if weighted:
                multiply(preds, weights, wr)
            loss = float(r_dot(wr)) / n
            # [g_w_out, g_b_out] = A (w r)
            A_dot(wr, g_woa)
            # g_z = (1 - A[:h]**2) * (w r)
            square(acts, g_z)
            subtract(1.0, g_z, g_z)
            multiply(g_z, wr, g_z)
            # [g_W_h | g_b_h] = g_z XTa^T, then each row times w_out[j] 2/n
            g_z_dot(Xa, g_Wa)
            multiply(w_out_col, two_over_n, scale_Wa)
            multiply(grad, scale, grad)
            return loss

        self.forward = forward
        self.loss_and_gradient = loss_and_gradient


def _predict_batch(model: NarxModel, X: np.ndarray) -> np.ndarray:
    """Predictions for the rows of a row-major batch."""
    theta = model.theta
    return _Kernel(model.config, X, theta, np.empty_like(theta)).forward()


def loss_and_gradient(
    model: NarxModel, inputs, targets
) -> tuple[float, np.ndarray]:
    """Mean squared error over the batch and its analytic gradient.

    The gradient is flat, in the order of ``model.theta``.
    """
    X, t = _check_batch(model.config, inputs, targets)
    grad = np.empty_like(model.theta)
    loss = _Kernel(model.config, X, model.theta, grad).loss_and_gradient(t)
    return loss, grad


def train(model: NarxModel, inputs, targets) -> NarxModel:
    """Full-batch adaptive-moment descent with early stopping.

    Trains under ``model.config``. Stops at max_epochs or when the best
    loss has not improved by more than _EARLY_STOP_DELTA for
    early_stop_patience consecutive epochs. The returned parameters are
    the best snapshot seen, so the final loss never exceeds the initial
    one. A zero-epoch budget returns the model untouched.

    When two or more rows have inputs and target all exactly 0 (a raw-kW
    series' night hours), they train as one row weighted by their count
    (_merge_zero_rows): the loss and gradient are still the mean over
    every row, up to rounding, at the cost of one more multiply per
    epoch over the fewer rows. Any other batch trains bit for bit as the
    textbook loop over loss_and_gradient does.

    Raises ValueError for a batch that does not fit the net, and
    TrainingFailed when the loss or an updated parameter becomes
    non-finite.
    """
    cfg = model.config
    X, t = _check_batch(cfg, inputs, targets)
    if cfg.max_epochs == 0:
        return model
    # theta and Adam's state [g, g**2, m, v] are updated in place: the
    # kernel writes g into row 0, and [m_hat, v_hat] reuse [g, g**2]
    theta = model.theta.copy()
    P = theta.size
    state = np.zeros((4, P))
    grads, moments = state[:2], state[2:]
    grad, grad_sq = m_hat, v_hat = grads
    # all-zero night rows become one weighted row; t is then the kept rows'
    keep, t, weights = _merge_zero_rows(X, t)
    loss_and_grad = _Kernel(cfg, X, theta, grad, keep, weights).loss_and_gradient
    beta1, beta2, delta = _ADAM_BETA1, _ADAM_BETA2, _EARLY_STOP_DELTA
    # each factor a row: state's gains and decays, the bias corrections
    # (filled each epoch), the step, epsilon and the parameter check's 0
    factors = np.repeat([[1.0 - beta1], [1.0 - beta2], [beta1], [beta2], [0.0],
                         [0.0], [cfg.step_size], [_ADAM_EPS], [0.0]], P, axis=1)
    coef, correction = factors[:4], factors[4:6]
    step, eps, zeros = factors[6:]
    fill_m, fill_v = correction[0].fill, correction[1].fill
    history: list[float] = []
    best_loss = math.inf
    best_theta = theta.copy()
    stall = 0
    # bound once per call, so the epoch makes no global or attribute loads
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    square, sqrt, theta_dot = np.square, np.sqrt, theta.dot
    isfinite, record = math.isfinite, history.append
    patience = cfg.early_stop_patience
    for epoch in range(1, cfg.max_epochs + 1):
        loss = loss_and_grad(t)
        if not isfinite(loss):
            raise TrainingFailed(f"loss became non-finite at epoch {epoch}")
        record(loss)
        if loss < best_loss - delta:
            best_loss = loss
            best_theta[:] = theta
            stall = 0
        else:
            stall += 1
            if stall >= patience:
                break
        # [m, v] = [b1, b2] [m, v] + [1 - b1, 1 - b2] [g, g**2]
        square(grad, grad_sq)
        multiply(state, coef, state)
        add(moments, grads, moments)
        # [m_hat, v_hat] = [m, v] / [1 - b1**epoch, 1 - b2**epoch]
        fill_m(1.0 - beta1**epoch)
        fill_v(1.0 - beta2**epoch)
        divide(moments, correction, grads)
        # theta -= step * m_hat / (sqrt(v_hat) + eps)
        sqrt(v_hat, v_hat)
        add(v_hat, eps, v_hat)
        multiply(m_hat, step, m_hat)
        divide(m_hat, v_hat, m_hat)
        subtract(theta, m_hat, theta)
        # theta . 0 is 0 while every parameter is finite and NaN once one
        # is not (0 * inf is NaN): one call where isfinite and all are two
        if not isfinite(theta_dot(zeros)):
            raise TrainingFailed(f"parameters became non-finite at epoch {epoch}")
    return NarxModel(cfg, best_theta, training_history=history)


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
    ``clamp``, a finite (lo, hi) with lo <= hi; pass a dict as clamp_stats
    to get the clamp count back.
    """
    d = model.config.delay_d
    k = model.config.n_exo_channels
    ys = np.asarray(y_seed, dtype=np.float64)
    if ys.shape != (d,):
        raise ValueError(f"y_seed shape {ys.shape}, expected ({d},)")
    fut = [np.asarray(x, dtype=np.float64) for x in exo_future]
    seeds = [np.asarray(x, dtype=np.float64) for x in exo_seed]
    if len(fut) != k or len(seeds) != k:
        raise ValueError(
            f"{len(fut)} future / {len(seeds)} seed exogenous channels, expected {k}"
        )
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    lo, hi = clamp
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError(f"clamp must be finite with lo <= hi, got {clamp}")
    for x in fut:
        if x.size < horizon:
            raise ValueError(
                f"exogenous future length {x.size} < horizon {horizon}"
            )
    for x in seeds:
        if x.shape != (d,):
            raise ValueError(f"exo_seed shape {x.shape}, expected ({d},)")

    # one row per channel, seed then horizon; y's row fills as steps come out
    series = np.empty((k + 1, d + horizon))
    for row, s, x in zip(series, seeds, fut):
        row[:d] = s
        row[d:] = x[:horizon]
    series[k, :d] = ys
    lags = _lag_windows(series, d)
    # each step copies its u(t) into one buffer and runs forward's
    # operations on it, without forward's per-call conversion and checks
    u = np.empty(model.config.input_width)
    u_rows = u.reshape(k + 1, d)
    hidden = np.empty(model.config.hidden_width)
    hidden_dot, out_dot = model.w_hidden.dot, model.w_out.dot
    b_hidden, b_out = model.b_hidden, model.b_out
    add, tanh = np.add, np.tanh
    n_clamped = 0
    for h in range(horizon):
        u_rows[:] = lags[h]
        hidden_dot(u, hidden)
        add(hidden, b_hidden, hidden)
        tanh(hidden, hidden)
        raw = float(out_dot(hidden) + b_out)
        clipped = min(hi, max(lo, raw))
        if clipped != raw:
            n_clamped += 1
        series[k, d + h] = clipped
    if clamp_stats is not None:
        clamp_stats["n_clamped"] = n_clamped
    return series[k, d:]


def fit_nar(series: PreprocessedSeries, config: NetworkConfig) -> FittingModel:
    """Train a NAR net on one level's index series and score the fit.

    Training samples never straddle the overnight gap: make_training_set
    reads the series' day mask and keeps a row only when its d lags are
    the d hours right before its target, so no morning value is
    regressed on the previous evening's lags. (Weather can turn over
    during the night; teaching the net that jump as if it were an hourly
    transition drags every in-day prediction toward the climatological
    mean.)

    Quality is in-sample: one-step predictions on those same rows against
    the measured index, summarized as R^2 and MAPE (exact-zero actuals
    excluded from MAPE).
    """
    if config.n_exo_channels != 0:
        raise ValueError("fit_nar requires a purely autoregressive config")
    y = series.index_values
    if y.size < max(MIN_FIT_DAY_HOURS, config.delay_d + 1):
        raise Unforecastable(
            f"{y.size} day hours; need at least "
            f"{max(MIN_FIT_DAY_HOURS, config.delay_d + 1)}"
        )
    inputs, targets = make_training_set(y, (), config.delay_d, series.day_mask)
    net = train(init_network(config), inputs, targets)
    preds = _predict_batch(net, inputs)
    fit_r2 = _r_squared(targets, preds)
    fit_mape, _ = _mape(targets, preds, 0.0)
    return FittingModel(level=series.level, net=net, fit_r2=fit_r2, fit_mape=fit_mape)


_FORMAT_HEADER = "pvlevels-narx 3"


def model_to_text(model: NarxModel) -> str:
    """Serialize a model to the versioned flat text format.

    After the header come one ``name value`` line per NetworkConfig
    field, in field order, then a ``history`` line and a ``theta`` line,
    each holding its values after the name (theta in its own order,
    [W_h | b_h] row-major, then [w_out, b_out]). Floats are written with
    17 significant digits, which round-trips IEEE doubles exactly.
    """
    lines = [_FORMAT_HEADER]
    for f in fields(NetworkConfig):
        value = getattr(model.config, f.name)
        text = f"{value:.17g}" if isinstance(value, float) else str(value)
        lines.append(f"{f.name} {text}")
    for name, values in (("history", model.training_history), ("theta", model.theta)):
        lines.append(" ".join([name, *(f"{v:.17g}" for v in values)]))
    return "\n".join(lines) + "\n"


def model_from_text(text: str) -> NarxModel:
    """Parse the flat text format back into a model.

    Raises InputError for any other header (versions 1 and 2 included),
    for lines other than the config fields, ``history`` and ``theta`` in
    that order, and for values that do not parse or that NarxModel
    rejects.
    """
    header, *lines = text.splitlines() or [""]
    if header != _FORMAT_HEADER:
        raise InputError(f"bad header; expected {_FORMAT_HEADER!r}")
    config_fields = fields(NetworkConfig)
    keys = [f.name for f in config_fields] + ["history", "theta"]
    names = [line.partition(" ")[0] for line in lines]
    if names != keys:
        raise InputError(f"expected lines {keys}, got {names}")
    *config_values, history, theta = (line.partition(" ")[2] for line in lines)
    try:
        # each field parses as the type of its default
        config = NetworkConfig(
            *(type(f.default)(v) for f, v in zip(config_fields, config_values))
        )
        return NarxModel(
            config,
            [float(v) for v in theta.split()],
            training_history=[float(v) for v in history.split()],
        )
    except ValueError as exc:
        raise InputError(f"malformed model text: {exc}") from exc


def save_model(model: NarxModel, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(model_to_text(model))


def load_model(path) -> NarxModel:
    with open(path, "r", encoding="ascii") as fh:
        return model_from_text(fh.read())

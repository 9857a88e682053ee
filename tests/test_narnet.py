import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pvlevels.core import MeasurementLevel, utc_datetime
from pvlevels.errors import InputError, TrainingFailed, Unforecastable
from pvlevels.narnet import (
    MIN_FIT_DAY_HOURS,
    FittingModel,
    NarxModel,
    NetworkConfig,
    _merge_zero_rows,
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
from pvlevels.preprocess import PreprocessedSeries


# make_training_set's two messages for a series no row survives
TOO_SHORT = "must exceed delay|nothing to train on"


def tiny_model(w=5.0, out=2.0):
    """One input, one hidden unit: f(u) = out * tanh(w * u)."""
    cfg = NetworkConfig(delay_d=1, hidden_width=1)
    return NarxModel.from_layers(cfg, [[w]], [0.0], [out], 0.0)


def reference_loss_and_gradient(model, X, t):
    """The row-major kernel: activations stored as (rows x hidden)."""
    w_hidden, b_hidden, w_out, b_out = (
        model.w_hidden, model.b_hidden, model.w_out, model.b_out
    )
    acts = np.tanh(X @ w_hidden.T + b_hidden)
    preds = acts @ w_out + b_out
    n = X.shape[0]
    resid = preds - t
    loss = float(resid @ resid) / n
    g_pred = 2.0 * resid / n
    g_b_out = float(g_pred.sum())
    g_w_out = acts.T @ g_pred
    g_z = np.outer(g_pred, w_out) * (1.0 - acts**2)
    g_b_hidden = g_z.sum(axis=0)
    g_w_hidden = g_z.T @ X
    grad = NarxModel.from_layers(
        model.config, g_w_hidden, g_b_hidden, g_w_out, g_b_out
    )
    return loss, grad.theta


def reference_hidden_major(model, X, t, weights=None):
    """The kernel's arithmetic written with np.matmul: (input_width + 1,
    rows) batch and (hidden + 1, rows) activations, each with a ones row,
    the residual unscaled through both GEMMs, and w_out and 2/n applied
    to the finished gradient.

    Given ``weights``, X and t are the rows _merge_zero_rows keeps: the
    weighted residual wr = w * r stands in for r after the loss's first
    factor, and n is the full batch's row count, the weights' sum."""
    cfg = model.config
    h, rows = cfg.hidden_width, X.shape[0]
    n = rows if weights is None else int(weights.sum())
    # row-major, as the kernel stores it (np.vstack of X.T would not be)
    XTa = np.empty((cfg.input_width + 1, rows))
    XTa[:-1] = X.T
    XTa[-1] = 1.0
    theta = model.theta
    Wa = theta[: h * (cfg.input_width + 1)].reshape(h, -1)
    woa = theta[h * (cfg.input_width + 1):]
    A = np.empty((h + 1, rows))
    A[h] = 1.0
    np.matmul(Wa, XTa, A[:h])
    np.tanh(A[:h], A[:h])
    r = np.matmul(woa, A)
    np.subtract(r, t, r)
    wr = r if weights is None else r * weights
    loss = float(np.dot(r, wr)) / n
    grad = np.empty_like(theta)
    g_Wa = grad[: Wa.size].reshape(Wa.shape)
    np.matmul(A, wr, grad[Wa.size:])
    g_z = (1.0 - np.square(A[:h])) * wr
    np.matmul(g_z, XTa.T, g_Wa)
    scale = np.full(theta.shape, 2.0 / n)
    scale[: Wa.size].reshape(Wa.shape)[:] = woa[:h, None] * np.full(Wa.shape, 2.0 / n)
    np.multiply(grad, scale, grad)
    return loss, grad


def reference_train(model, X, t, weights=None):
    """Adam as a plain loop: a NarxModel rebuilt from the flat parameters
    every epoch, gradients from the public loss_and_gradient, and a loss
    improvement counted when it exceeds 1e-9. Given ``weights``, X and t
    are a merged batch's kept rows and the gradients come from
    reference_hidden_major with those weights."""
    cfg = model.config
    theta = model.theta
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    history = []
    best_loss, best_theta, stall = math.inf, theta.copy(), 0
    work = model
    for epoch in range(1, cfg.max_epochs + 1):
        if weights is None:
            loss, grad = loss_and_gradient(work, X, t)
        else:
            loss, grad = reference_hidden_major(work, X, t, weights)
        history.append(loss)
        if loss < best_loss - 1e-9:
            best_loss, best_theta, stall = loss, theta.copy(), 0
        else:
            stall += 1
            if stall >= cfg.early_stop_patience:
                break
        m = 0.9 * m + (1.0 - 0.9) * grad
        v = 0.999 * v + (1.0 - 0.999) * grad**2
        m_hat = m / (1.0 - 0.9**epoch)
        v_hat = v / (1.0 - 0.999**epoch)
        theta = theta - cfg.step_size * m_hat / (np.sqrt(v_hat) + 1e-8)
        work = NarxModel(cfg, theta)
    return NarxModel(cfg, best_theta, training_history=history)


def night_series(night_hours, seed=0):
    """A raw-kW-style series: for each entry of ``night_hours``, that many
    hours of exactly 0 kW, then a positive daylight hump over the day's
    other hours. With delay d, a night of more than d hours gives all-zero rows
    (zero lags, zero target), and every night gives a dawn row (zero
    lags, positive target) and dusk rows (zero target, nonzero lags)."""
    rng = np.random.default_rng(seed)
    days = []
    for night in night_hours:
        day = 24 - night
        hump = np.sin(np.pi * (np.arange(day) + 0.5) / day) * rng.uniform(0.5, 1.0)
        days.append(np.concatenate([np.zeros(night), hump]))
    return np.concatenate(days)


def row_kinds(X, t):
    """Counts of all-zero, dawn and dusk rows in a batch."""
    zero_lags = ~X.any(axis=1)
    return (
        int(np.sum(zero_lags & (t == 0.0))),
        int(np.sum(zero_lags & (t != 0.0))),
        int(np.sum(~zero_lags & (t == 0.0))),
    )


class CountingNumpy:
    """numpy as narnet sees it, with the calls to the dispatched products
    and copies (``matmul``, ``dot``, ``copyto``) counted by name."""

    COUNTED = ("matmul", "dot", "copyto")

    def __init__(self):
        self.calls = dict.fromkeys(self.COUNTED, 0)

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in self.COUNTED:
            return attr

        def counted(*args, **kw):
            self.calls[name] += 1
            return attr(*args, **kw)

        return counted


@pytest.fixture
def counting_np(monkeypatch):
    counting = CountingNumpy()
    monkeypatch.setattr("pvlevels.narnet.np", counting)
    return counting


class TestNetworkConfig:
    def test_input_width_counting(self):
        assert NetworkConfig(delay_d=12).input_width == 12
        assert NetworkConfig(delay_d=12, n_exo_channels=3).input_width == 48

    @pytest.mark.parametrize(
        "kw",
        [
            dict(delay_d=0),
            dict(hidden_width=0),
            dict(n_exo_channels=-1),
            dict(max_epochs=-1),
            dict(step_size=0.0),
            dict(early_stop_patience=0),
            dict(seed=2**64),
            dict(seed=-1),
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            NetworkConfig(**kw)

    def test_rejects_infinite_step_size(self):
        with pytest.raises(ValueError, match="step_size must be finite"):
            NetworkConfig(step_size=math.inf)


class TestInitNetwork:
    def test_deterministic(self):
        cfg = NetworkConfig(delay_d=4, hidden_width=5, seed=11)
        a, b = init_network(cfg), init_network(cfg)
        assert np.array_equal(a.w_hidden, b.w_hidden)
        assert np.array_equal(a.w_out, b.w_out)

    def test_seed_changes_weights(self):
        cfg = NetworkConfig(delay_d=4, hidden_width=5, seed=11)
        other = init_network(NetworkConfig(delay_d=4, hidden_width=5, seed=12))
        assert not np.array_equal(init_network(cfg).w_hidden, other.w_hidden)

    def test_glorot_bounds_and_zero_biases(self):
        cfg = NetworkConfig(delay_d=10, hidden_width=8, n_exo_channels=2, seed=3)
        m = init_network(cfg)
        limit_h = math.sqrt(6.0 / (cfg.input_width + cfg.hidden_width))
        limit_o = math.sqrt(6.0 / (cfg.hidden_width + 1))
        assert np.all(np.abs(m.w_hidden) <= limit_h)
        assert np.all(np.abs(m.w_out) <= limit_o)
        assert np.all(m.b_hidden == 0.0) and m.b_out == 0.0
        assert m.training_history == ()


class TestNarxModel:
    """The parameters live in one vector, theta: [W_h | b_h] row-major,
    then [w_out, b_out]."""

    cfg = NetworkConfig(delay_d=2, hidden_width=3, n_exo_channels=1)

    def parts(self):
        rng = np.random.default_rng(5)
        return (rng.normal(size=(3, 4)), rng.normal(size=3),
                rng.normal(size=3), 0.7)

    def test_from_layers_packs_theta(self):
        wh, bh, wo, bo = self.parts()
        m = NarxModel.from_layers(self.cfg, wh, bh, wo, bo)
        want = np.concatenate([np.column_stack([wh, bh]).ravel(), wo, [bo]])
        assert np.array_equal(m.theta, want)
        assert np.array_equal(m.w_hidden, wh) and np.array_equal(m.b_hidden, bh)
        assert np.array_equal(m.w_out, wo)
        assert m.b_out == bo and type(m.b_out) is float

    def test_parts_are_read_only_views(self):
        m = NarxModel.from_layers(self.cfg, *self.parts())
        assert not m.theta.flags.writeable
        for part in (m.w_hidden, m.b_hidden, m.w_out):
            assert np.shares_memory(part, m.theta)
            assert not part.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            m.w_out[0] = 1.0

    def test_keeps_its_own_copy(self):
        theta = NarxModel.from_layers(self.cfg, *self.parts()).theta.copy()
        m = NarxModel(self.cfg, theta)
        theta[0] += 1.0
        assert m.theta[0] == theta[0] - 1.0

    @pytest.mark.parametrize("size", [18, 20])
    def test_wrong_theta_length(self, size):
        with pytest.raises(
            ValueError, match=rf"^parameter shape \({size},\) does not fit hidden=3, input=4$"
        ):
            NarxModel(self.cfg, np.zeros(size))

    @pytest.mark.parametrize(
        "index, shape", [(0, (4, 3)), (0, (12,)), (1, (4,)), (2, (3, 1))],
        ids=["w_hidden-transposed", "w_hidden-flat", "b_hidden", "w_out"],
    )
    def test_wrong_part_shape(self, index, shape):
        parts = list(self.parts())
        parts[index] = np.zeros(shape)
        with pytest.raises(ValueError, match="do not fit hidden=3, input=4$"):
            NarxModel.from_layers(self.cfg, *parts)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_theta(self, bad):
        theta = np.zeros(19)
        theta[7] = bad
        with pytest.raises(ValueError, match="finite"):
            NarxModel(self.cfg, theta)
        with pytest.raises(ValueError, match="finite"):
            NarxModel.from_layers(self.cfg, *self.parts()[:3], bad)


class TestForward:
    def test_hand_value(self):
        # 2 * tanh(5 * 1) = 1.99982...
        assert forward(tiny_model(), [1.0]) == pytest.approx(1.99982, abs=1e-5)

    def test_zero_input(self):
        assert forward(tiny_model(), [0.0]) == 0.0

    def test_output_bias(self):
        m = tiny_model()
        shifted = NarxModel.from_layers(
            m.config, m.w_hidden, m.b_hidden, m.w_out, 0.5
        )
        assert forward(shifted, [0.0]) == 0.5

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match=r"input shape \(2,\), expected \(1,\)"):
            forward(tiny_model(), [1.0, 2.0])


class TestMakeTrainingSet:
    def test_autoregressive_layout(self):
        y = [1.0, 2.0, 3.0, 4.0, 5.0]
        inputs, targets = make_training_set(y, (), 2)
        assert np.array_equal(targets, [3.0, 4.0, 5.0])
        # row for target y(t): [y(t-1), y(t-2)]
        assert np.array_equal(inputs[0], [2.0, 1.0])
        assert np.array_equal(inputs[2], [4.0, 3.0])

    def test_exogenous_blocks_come_first(self):
        y = [1.0, 2.0, 3.0, 4.0]
        e = [10.0, 20.0, 30.0, 40.0]
        inputs, targets = make_training_set(y, [e], 2)
        # [e(t-1), e(t-2), y(t-1), y(t-2)]
        assert np.array_equal(inputs[0], [20.0, 10.0, 2.0, 1.0])
        assert np.array_equal(targets, [3.0, 4.0])

    def test_too_short(self):
        with pytest.raises(ValueError, match="series length 2 must exceed delay 2"):
            make_training_set([1.0, 2.0], (), 2)

    def test_channel_length_mismatch(self):
        with pytest.raises(ValueError, match="channel length 2 != 3 or not 1-d"):
            make_training_set([1.0, 2.0, 3.0], [[1.0, 2.0]], 1)
        with pytest.raises(ValueError, match="channel length 3 != 3 or not 1-d"):
            make_training_set([1.0, 2.0, 3.0], [[[1.0, 2.0, 3.0]]], 1)

    @pytest.mark.parametrize(
        "y,day_mask",
        [
            ([], None),
            # stretches of 2, 2 and 1 hours at d = 2, gaps of 3 and 1 hours
            (np.arange(5.0), [0, 1, 1, 0, 0, 0, 1, 1, 0, 1]),
            # d >= L
            (np.arange(2.0), [1, 1]),
        ],
    )
    def test_no_row_survives(self, y, day_mask):
        with pytest.raises(ValueError, match=TOO_SHORT):
            make_training_set(y, (), 2, day_mask)

    @pytest.mark.parametrize(
        "day_mask", [[1, 1, 0, 1, 1], [1, 1, 1, 0, 1, 1, 1], [[1, 1, 1], [0, 1, 1]]]
    )
    def test_bad_day_mask(self, day_mask):
        with pytest.raises(ValueError, match="day mask must be 1-d with 5 True hours"):
            make_training_set(np.arange(5.0), (), 1, day_mask)

    @given(
        n=st.integers(5, 40),
        d=st.integers(1, 4),
        n_exo=st.integers(0, 3),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_layout_matches_direct_indexing(self, n, d, n_exo, seed):
        rng = np.random.default_rng(seed)
        if n <= d:
            return
        y = rng.normal(size=n)
        exo = [rng.normal(size=n) for _ in range(n_exo)]
        channels = exo + [y]
        cuts = rng.choice(n - 1, size=int(rng.integers(0, min(6, n))), replace=False) + 1
        bounds = [0, *sorted(int(c) for c in cuts), n]
        # the stretches on an hourly grid: each after a gap of 1-3 night
        # hours (0-2 before the first), with 0-2 more after the last
        gaps = rng.integers(1, 4, size=len(bounds) - 1)
        gaps[0] -= 1
        mask = np.concatenate(
            [
                np.concatenate([np.zeros(g, bool), np.ones(b - a, bool)])
                for g, a, b in zip(gaps, bounds, bounds[1:])
            ]
            + [np.zeros(int(rng.integers(0, 3)), bool)]
        )
        # every t whose d lags are the d hours right before it on the
        # grid, i.e. stay inside t's own stretch, in order
        inside = [t for a, b in zip(bounds, bounds[1:]) for t in range(a + d, b)]
        for day_mask, ts in ((None, range(d, n)), (mask, inside)):
            if not ts:
                with pytest.raises(ValueError, match=TOO_SHORT):
                    make_training_set(y, exo, d, day_mask)
                continue
            inputs, targets = make_training_set(y, exo, d, day_mask)
            assert inputs.shape == (len(ts), d * len(channels))
            for row, t in enumerate(ts):
                assert targets[row] == y[t]
                for j, c in enumerate(channels):
                    for lag in range(1, d + 1):
                        assert inputs[row, j * d + (lag - 1)] == c[t - lag]


class TestLossAndGradient:
    def test_loss_is_mse(self):
        m = tiny_model()
        X = np.array([[0.0], [1.0]])
        t = np.array([1.0, 1.0])
        loss, _ = loss_and_gradient(m, X, t)
        pred1 = 2.0 * math.tanh(5.0)
        assert loss == pytest.approx((1.0 + (pred1 - 1.0) ** 2) / 2.0, rel=1e-12)

    def test_empty_batch(self):
        with pytest.raises(ValueError, match="need a non-empty 2-d batch of inputs"):
            loss_and_gradient(tiny_model(), np.empty((0, 1)), np.empty(0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match=r"batch shapes \(3, 2\)/\(3,\) do not fit"):
            loss_and_gradient(tiny_model(), np.ones((3, 2)), np.ones(3))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_central_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        cfg = NetworkConfig(
            delay_d=3, hidden_width=4, n_exo_channels=1, seed=seed + 100
        )
        model = init_network(cfg)
        X = rng.normal(size=(12, cfg.input_width))
        t = rng.normal(size=12)
        _, grad = loss_and_gradient(model, X, t)

        theta = model.theta
        h = 1e-6
        for i in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[i] += h
            down[i] -= h
            m_up = NarxModel(cfg, up)
            m_down = NarxModel(cfg, down)
            l_up, _ = loss_and_gradient(m_up, X, t)
            l_down, _ = loss_and_gradient(m_down, X, t)
            numeric = (l_up - l_down) / (2 * h)
            denom = max(1e-8, abs(numeric), abs(grad[i]))
            assert abs(grad[i] - numeric) / denom < 1e-5


    # float64 summation order differs between the layouts; fixed up front
    # w_out None keeps init_network's output weights
    @pytest.mark.parametrize(
        "rows, hidden, n_exo, w_out",
        [(50, 1, 0, None), (1, 4, 0, None), (1, 3, 4, None), (2000, 6, 0, None),
         (2000, 3, 4, None), (700, 5, 4, None),
         (700, 5, 4, (1e-3, -3e-2, 1.0, -3e1, 1e3))],
        ids=["hidden-1", "one-row", "one-row-narx", "2000-rows", "2000-rows-narx",
             "narx", "narx-w-out-1e-3-to-1e3"],
    )
    def test_matches_row_major_reference(self, rows, hidden, n_exo, w_out):
        rng = np.random.default_rng(rows + hidden + n_exo)
        cfg = NetworkConfig(
            delay_d=3, hidden_width=hidden, n_exo_channels=n_exo, seed=7
        )
        model = init_network(cfg)
        model = NarxModel.from_layers(
            cfg, model.w_hidden, rng.normal(0, 0.3, hidden),
            model.w_out if w_out is None else w_out, 0.2,
        )
        X = rng.uniform(0.0, 1.2, size=(rows, cfg.input_width))
        t = rng.uniform(0.0, 1.2, size=rows)
        want_loss, want_grad = reference_loss_and_gradient(model, X, t)
        loss, grad = loss_and_gradient(model, X, t)
        assert loss == pytest.approx(want_loss, rel=1e-10, abs=1e-13)
        np.testing.assert_allclose(grad, want_grad, rtol=1e-10, atol=1e-13)

    def test_zero_output_weight_zeroes_its_hidden_row(self):
        # the output weight scales its unit's finished gradient row, so a
        # unit the output ignores gets exact zeros, not rounding residue
        rng = np.random.default_rng(4)
        cfg = NetworkConfig(delay_d=3, hidden_width=4, n_exo_channels=1, seed=9)
        model = init_network(cfg)
        w_out = model.w_out.copy()
        w_out[2] = 0.0
        model = NarxModel.from_layers(
            cfg, model.w_hidden, rng.normal(0, 0.3, 4), w_out, 0.1
        )
        X = rng.uniform(0.0, 1.2, size=(40, cfg.input_width))
        t = rng.uniform(0.0, 1.2, size=40)
        _, grad = loss_and_gradient(model, X, t)
        g = NarxModel(cfg, grad)
        g_w_hidden, g_b_hidden = g.w_hidden, g.b_hidden
        assert np.all(g_w_hidden[2] == 0.0) and g_b_hidden[2] == 0.0
        others = np.delete(g_w_hidden, 2, axis=0)
        assert np.all(others != 0.0)

    # the shapes the benchmark trains; the kernel's products must give
    # the bits np.matmul gives
    @pytest.mark.parametrize(
        "rows, d, hidden, n_exo",
        [(1, 3, 3, 4), (703, 3, 3, 4), (1756, 6, 6, 0), (386, 6, 6, 4)],
        ids=["one-row", "narx-3x3-703-rows", "nar-6x6-1756-rows",
             "narx-6x6-386-rows"],
    )
    def test_bits_match_matmul_kernel(self, rows, d, hidden, n_exo):
        rng = np.random.default_rng(rows)
        cfg = NetworkConfig(
            delay_d=d, hidden_width=hidden, n_exo_channels=n_exo, seed=3
        )
        model = init_network(cfg)
        model = NarxModel.from_layers(
            cfg, model.w_hidden, rng.normal(0, 0.3, hidden), model.w_out, 0.2
        )
        X = rng.uniform(0.0, 1.2, size=(rows, cfg.input_width))
        t = rng.uniform(0.0, 1.2, size=rows)
        want_loss, want_grad = reference_hidden_major(model, X, t)
        loss, grad = loss_and_gradient(model, X, t)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert grad.tobytes() == want_grad.tobytes()


class TestTrain:
    def make_batch(self, n=200, seed=0):
        rng = np.random.default_rng(seed)
        y = np.sin(np.linspace(0, 12, n)) * 0.4 + 0.5 + rng.normal(0, 0.01, n)
        return make_training_set(y, (), 4)

    def make_night_batch(self):
        """Twelve days with 10-hour nights: 72 all-zero rows to merge."""
        return make_training_set(night_series([10] * 12), (), 4)

    def test_loss_never_ends_above_start(self):
        X, t = self.make_batch()
        cfg = NetworkConfig(delay_d=4, hidden_width=6, seed=5, max_epochs=150)
        model = init_network(cfg)
        before, _ = loss_and_gradient(model, X, t)
        trained = train(model, X, t)
        after, _ = loss_and_gradient(trained, X, t)
        assert after <= before
        assert len(trained.training_history) >= 1

    def test_deterministic(self):
        X, t = self.make_batch()
        cfg = NetworkConfig(delay_d=4, hidden_width=6, seed=5, max_epochs=60)
        a = train(init_network(cfg), X, t)
        b = train(init_network(cfg), X, t)
        assert np.array_equal(a.w_hidden, b.w_hidden)
        assert a.b_out == b.b_out
        assert a.training_history == b.training_history

    def test_zero_epochs_is_identity(self):
        X, t = self.make_batch()
        cfg = NetworkConfig(delay_d=4, hidden_width=6, seed=5, max_epochs=0)
        model = init_network(cfg)
        out = train(model, X, t)
        assert np.array_equal(out.w_hidden, model.w_hidden)
        assert out.training_history == ()

    def test_early_stop_cuts_epochs(self):
        X, t = self.make_batch()
        cfg = NetworkConfig(
            delay_d=4,
            hidden_width=6,
            seed=5,
            max_epochs=5000,
            step_size=1e-2,
            early_stop_patience=10,
        )
        trained = train(init_network(cfg), X, t)
        assert len(trained.training_history) < 5000

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_loss_aborts(self):
        X, t = self.make_batch()
        huge = np.full_like(t, 1e200)  # squared error overflows float64
        cfg = NetworkConfig(delay_d=4, hidden_width=6, seed=5, max_epochs=10)
        with pytest.raises(TrainingFailed, match="loss became non-finite at epoch"):
            train(init_network(cfg), X, huge)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_parameters_abort(self):
        # the loss is finite, but the hidden weight's gradient overflows,
        # so the first update turns that weight into NaN
        model = tiny_model(w=1e-305, out=100.0)
        with pytest.raises(TrainingFailed, match="parameters .* at epoch 1"):
            train(model, np.array([[1e305]]), np.zeros(1))

    @pytest.mark.parametrize(
        "n_exo, kw, rows, stops_early, length",
        [
            (0, {}, None, False, 200),
            (2, {}, None, False, 200),
            (0, dict(max_epochs=5000, early_stop_patience=10), None, True, 200),
            (0, dict(hidden_width=1), None, False, 200),
            (2, {}, 1, True, 200),
            # the shapes the benchmark times: a case-study NARX and a
            # day-ahead baseline
            (4, dict(delay_d=3, hidden_width=3), None, False, 703),
            (0, dict(delay_d=6, hidden_width=6), None, False, 1756),
            # and a day-ahead NARX: 4 channels, 30 inputs
            (4, dict(delay_d=6, hidden_width=6), None, False, 386),
        ],
        ids=["nar", "narx", "early-stop", "hidden-1", "one-row",
             "narx-3x3-700-rows", "nar-6x6-1750-rows", "narx-6x6-380-rows"],
    )
    def test_matches_reference_loop(self, n_exo, kw, rows, stops_early, length):
        rng = np.random.default_rng(21)
        y = (np.sin(np.linspace(0, 12 * length / 200, length)) * 0.4 + 0.5
             + rng.normal(0, 0.01, length))
        exo = [y + rng.normal(0, 0.05, y.size) for _ in range(n_exo)]
        cfg = replace(
            NetworkConfig(delay_d=4, hidden_width=6, n_exo_channels=n_exo, seed=5,
                          max_epochs=300, step_size=1e-2, early_stop_patience=50),
            **kw,
        )
        X, t = make_training_set(y, exo, cfg.delay_d)
        X, t = X[:rows], t[:rows]
        model = init_network(cfg)
        got = train(model, X, t)
        want = reference_train(model, X, t)
        assert np.array_equal(got.w_hidden, want.w_hidden)
        assert np.array_equal(got.b_hidden, want.b_hidden)
        assert np.array_equal(got.w_out, want.w_out)
        assert got.b_out == want.b_out
        assert got.training_history == want.training_history
        assert got.training_history
        stopped_early = len(got.training_history) < cfg.max_epochs
        assert stopped_early == stops_early


    def test_buffers_never_write_through(self):
        # on a plain batch and on one whose all-zero rows are merged
        for X, t in (self.make_batch(), self.make_night_batch()):
            X.setflags(write=False)
            t.setflags(write=False)
            X_before, t_before = X.copy(), t.copy()
            cfg = NetworkConfig(delay_d=4, hidden_width=6, seed=5, max_epochs=80)
            model = init_network(cfg)
            text_before = model_to_text(model)
            a = train(model, X, t)
            b = train(a, X, t)
            assert np.array_equal(X, X_before) and np.array_equal(t, t_before)
            assert model_to_text(model) == text_before
            params = lambda m: (m.w_hidden, m.b_hidden, m.w_out)
            for p in params(a):
                for q in params(b) + params(model):
                    assert not np.shares_memory(p, q)

    def test_epoch_makes_no_dispatched_call(self, counting_np):
        # matmul, dot and copyto go through numpy's dispatch; an epoch
        # reaches the same routines through bound ndarray methods, so the
        # counts are those of set-up alone and do not grow with the budget,
        # on a plain batch and on one whose all-zero rows are merged
        for X, t in (self.make_batch(), self.make_night_batch()):
            counts = []
            for epochs in (10, 20):
                model = init_network(
                    NetworkConfig(delay_d=4, hidden_width=6, seed=5, max_epochs=epochs)
                )
                counting_np.calls = dict.fromkeys(CountingNumpy.COUNTED, 0)
                trained = train(model, X, t)
                assert len(trained.training_history) == epochs
                counts.append(counting_np.calls)
            assert counts[0] == counts[1]

    def test_merges_signed_zeros_and_never_nan(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [-0.0, 0.0],
                      [0.0, np.nan], [0.0, 0.0], [0.0, 0.0]])
        t = np.array([0.0, 0.0, -0.0, 0.0, np.nan, 0.0])
        keep, kept_t, weights = _merge_zero_rows(X, t)
        # rows 0, 2 and 5 merge into row 0; a NaN input or target never does
        assert keep.tolist() == [True, True, False, True, True, False]
        assert np.array_equal(kept_t, t[keep], equal_nan=True)
        assert weights.tolist() == [3.0, 1.0, 1.0, 1.0]
        # one all-zero row is left as it is
        keep, kept_t, weights = _merge_zero_rows(X[:2], t[:2])
        assert keep is None and weights is None
        assert np.array_equal(kept_t, t[:2])

    def test_merged_rows_match_full_batch(self):
        X, t = self.make_night_batch()
        zeros, dawns, dusks = row_kinds(X, t)
        assert zeros >= 2 and dawns > 0 and dusks > 0
        assert _merge_zero_rows(X, t)[0] is not None
        cfg = NetworkConfig(delay_d=4, hidden_width=6, seed=5, max_epochs=300,
                            step_size=1e-2, early_stop_patience=50)
        model = init_network(cfg)
        got = train(model, X, t)
        want = reference_train(model, X, t)
        got_h = np.array(got.training_history)
        want_h = np.array(want.training_history)
        assert got_h.shape == want_h.shape
        np.testing.assert_allclose(got_h, want_h, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(got.theta, want.theta, rtol=0.0, atol=1e-12)
        # the loss is still the mean over every row, up to rounding
        full_loss, _ = loss_and_gradient(model, X, t)
        assert got_h[0] == pytest.approx(full_loss, rel=1e-14, abs=0.0)

    def test_merged_batch_matches_weighted_reference_bitwise(self):
        X, t = self.make_night_batch()
        keep, kept_t, weights = _merge_zero_rows(X, t)
        assert keep is not None and weights.max() == row_kinds(X, t)[0]
        cfg = NetworkConfig(delay_d=4, hidden_width=6, seed=5, max_epochs=300,
                            step_size=1e-2, early_stop_patience=50)
        model = init_network(cfg)
        got = train(model, X, t)
        want = reference_train(model, X[keep], kept_t, weights)
        assert np.array_equal(got.theta, want.theta)
        assert got.training_history == want.training_history

    @pytest.mark.parametrize(
        "night_hours, zeros",
        [([4, 5, 4, 4, 4, 4, 4, 4], 1), ([4] * 8, 0)],
        ids=["one-zero-row", "dawn-and-dusk-only"],
    )
    def test_unmerged_batch_matches_reference_bitwise(self, night_hours, zeros):
        X, t = make_training_set(night_series(night_hours), (), 4)
        got_zeros, dawns, dusks = row_kinds(X, t)
        assert got_zeros == zeros and dawns > 0 and dusks > 0
        cfg = NetworkConfig(delay_d=4, hidden_width=6, seed=5, max_epochs=300,
                            step_size=1e-2, early_stop_patience=50)
        model = init_network(cfg)
        got = train(model, X, t)
        want = reference_train(model, X, t)
        assert np.array_equal(got.theta, want.theta)
        assert got.training_history == want.training_history


class TestPredictOpenLoop:
    def test_matches_forward_rowwise(self):
        cfg = NetworkConfig(delay_d=3, hidden_width=4, seed=2)
        model = init_network(cfg)
        y = np.linspace(0.1, 1.0, 10)
        preds = predict_open_loop(model, y)
        inputs, _ = make_training_set(y, (), 3)
        for i in range(inputs.shape[0]):
            assert preds[i] == pytest.approx(forward(model, inputs[i]), abs=1e-15)

    def test_narx_matches_forward_rowwise(self):
        cfg = NetworkConfig(delay_d=3, hidden_width=4, n_exo_channels=2, seed=2)
        model = init_network(cfg)
        model = NarxModel.from_layers(
            cfg, model.w_hidden, np.linspace(-0.3, 0.3, 4), model.w_out, 0.2
        )
        y = np.linspace(0.1, 1.0, 10)
        exo = [np.cos(np.arange(10.0)), np.linspace(1.0, 0.0, 10)]
        preds = predict_open_loop(model, y, exo)
        inputs, _ = make_training_set(y, exo, 3)
        assert preds.shape == (7,)
        for i in range(inputs.shape[0]):
            assert preds[i] == pytest.approx(forward(model, inputs[i]), abs=1e-15)


class TestPredictClosedLoop:
    def test_first_step_equals_forward_on_seeds(self):
        cfg = NetworkConfig(delay_d=2, hidden_width=3, n_exo_channels=1, seed=4)
        model = init_network(cfg)
        y_seed = np.array([0.3, 0.6])  # chronological: y(t-2), y(t-1)
        e_seed = np.array([0.2, 0.9])
        e_future = np.array([0.5, 0.5, 0.5])
        out = predict_closed_loop(
            model, y_seed, [e_future], horizon=3, exo_seed=[e_seed],
            clamp=(-10.0, 10.0),
        )
        # input layout: [e(t-1), e(t-2), y(t-1), y(t-2)]
        u = np.array([e_seed[1], e_seed[0], y_seed[1], y_seed[0]])
        assert out[0] == pytest.approx(forward(model, u), abs=1e-15)
        assert out.size == 3

    def test_every_step_is_forward_on_its_training_row(self):
        d, horizon = 3, 9
        model = init_network(
            NetworkConfig(delay_d=d, hidden_width=4, n_exo_channels=1, seed=8)
        )
        rng = np.random.default_rng(2)
        y_seed, e_seed = rng.uniform(0.0, 1.0, (2, d))
        e_future = rng.uniform(0.0, 1.0, horizon)
        stats = {}
        out = predict_closed_loop(
            model, y_seed, [e_future], horizon=horizon, exo_seed=[e_seed],
            clamp=(-10.0, 10.0), clamp_stats=stats,
        )
        inputs, _ = make_training_set(
            np.concatenate([y_seed, out]), [np.concatenate([e_seed, e_future])], d
        )
        assert stats["n_clamped"] == 0
        assert out.size == inputs.shape[0] == horizon
        for h in range(horizon):
            assert out[h] == forward(model, inputs[h])

    def test_step_makes_no_dispatched_call(self, counting_np):
        model = init_network(
            NetworkConfig(delay_d=3, hidden_width=4, n_exo_channels=1, seed=8)
        )
        counts = []
        for horizon in (10, 20):
            counting_np.calls = dict.fromkeys(CountingNumpy.COUNTED, 0)
            predict_closed_loop(
                model, np.full(3, 0.5), [np.full(horizon, 0.5)],
                horizon=horizon, exo_seed=[np.full(3, 0.5)],
            )
            counts.append(counting_np.calls)
        assert counts[0] == counts[1]

    def test_feeds_back_own_predictions(self):
        cfg = NetworkConfig(delay_d=1, hidden_width=1)
        # f(y) = 2 tanh(5 y): iterate from 0.1 manually
        model = tiny_model()
        out = predict_closed_loop(
            model, np.array([0.1]), horizon=3, clamp=(-10.0, 10.0)
        )
        a = 2 * math.tanh(5 * 0.1)
        b = 2 * math.tanh(5 * a)
        c = 2 * math.tanh(5 * b)
        assert out == pytest.approx([a, b, c], abs=1e-12)

    def test_clamp_counts(self):
        model = tiny_model()  # saturates near 2 for positive input
        stats = {}
        out = predict_closed_loop(
            model,
            np.array([1.0]),
            horizon=4,
            clamp=(0.0, 0.5),
            clamp_stats=stats,
        )
        assert np.all(out == 0.5)
        assert stats["n_clamped"] == 4

    def test_inverted_clamp_rejected(self):
        # unchecked, every step would come out as the upper bound, 0.0
        cfg = NetworkConfig(delay_d=2, hidden_width=2, seed=3)
        with pytest.raises(ValueError, match=r"lo <= hi, got \(1.0, 0.0\)"):
            predict_closed_loop(
                init_network(cfg), np.array([0.1, 0.2]), horizon=3,
                clamp=(1.0, 0.0),
            )

    @pytest.mark.parametrize(
        "clamp", [(math.nan, 1.0), (0.0, math.inf), (-math.inf, 1.0)],
        ids=["nan-lo", "inf-hi", "minus-inf-lo"],
    )
    def test_non_finite_clamp_rejected(self, clamp):
        with pytest.raises(ValueError, match="clamp must be finite"):
            predict_closed_loop(
                tiny_model(), np.array([0.1]), horizon=2, clamp=clamp
            )

    def test_horizon_zero(self):
        out = predict_closed_loop(
            tiny_model(), np.array([0.1]), horizon=0
        )
        assert out.size == 0

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError, match="^horizon must be >= 0, got -1$"):
            predict_closed_loop(tiny_model(), np.array([0.1]), horizon=-1)

    def test_seed_length_checked(self):
        with pytest.raises(ValueError, match=r"y_seed shape \(2,\), expected \(1,\)"):
            predict_closed_loop(tiny_model(), np.array([0.1, 0.2]), horizon=1)

    def test_exo_channel_count_checked(self):
        cfg = NetworkConfig(delay_d=1, hidden_width=1, n_exo_channels=1)
        model = init_network(cfg)
        with pytest.raises(
            ValueError, match="0 future / 0 seed exogenous channels, expected 1"
        ):
            predict_closed_loop(model, np.array([0.1]), horizon=1)

    def test_exo_seed_length_checked(self):
        model = init_network(NetworkConfig(delay_d=1, hidden_width=1, n_exo_channels=1))
        with pytest.raises(ValueError, match=r"^exo_seed shape \(2,\), expected \(1,\)$"):
            predict_closed_loop(
                model,
                np.array([0.1]),
                [np.array([0.5])],
                exo_seed=[np.array([0.2, 0.3])],
                horizon=1,
            )

    def test_future_shorter_than_horizon(self):
        cfg = NetworkConfig(delay_d=1, hidden_width=1, n_exo_channels=1)
        model = init_network(cfg)
        with pytest.raises(ValueError, match="exogenous future length 1 < horizon 5"):
            predict_closed_loop(
                model,
                np.array([0.1]),
                [np.array([0.5])],
                exo_seed=[np.array([0.2])],
                horizon=5,
            )


class TestLearnability:
    def test_narx_learns_linear_lag_process(self):
        """y(t) = 0.3 y(t-1) + 0.6 x(t-1), noise-free: open-loop R^2 ~ 1."""
        rng = np.random.default_rng(7)
        n = 500
        x = rng.uniform(0.0, 1.0, n)
        y = np.zeros(n)
        for t in range(1, n):
            y[t] = 0.3 * y[t - 1] + 0.6 * x[t - 1]
        cfg = NetworkConfig(
            delay_d=2, hidden_width=8, n_exo_channels=1, seed=1, max_epochs=2000,
            step_size=1e-2, early_stop_patience=50,
        )
        inputs, targets = make_training_set(y, [x], 2)
        model = train(init_network(cfg), inputs, targets)
        preds = predict_open_loop(model, y, [x])
        from pvlevels.metrics import r_squared

        assert r_squared(targets, preds) >= 0.999


def synthetic_index_series(n_hours=1200, seed=0):
    """Deterministic periodically forced AR(1), packaged as day-hour data."""
    period = 12
    y = np.empty(n_hours)
    y[0] = 0.2
    for t in range(1, n_hours):
        force = 0.10 + 0.08 * math.sin(2 * math.pi * (t % period) / period)
        y[t] = 0.85 * y[t - 1] + force
    return np.clip(y, 0.0, 1.5)


class TestFitNar:
    def make_pre(self, values):
        n = values.size
        return PreprocessedSeries(
            level=MeasurementLevel.CUSTOMER,
            index_values=values,
            day_mask=np.ones(n, dtype=bool),
            offset_kw=0.0,
            source_start=utc_datetime(2023, 3, 1),
            clip_count=0,
        )

    def test_requires_enough_history(self):
        short = self.make_pre(np.full(100, 0.5))
        cfg = NetworkConfig(delay_d=4, hidden_width=4)
        with pytest.raises(Unforecastable, match="day hours; need at least 360$"):
            fit_nar(short, cfg)
        assert MIN_FIT_DAY_HOURS == 360

    def test_rejects_exogenous_config(self):
        pre = self.make_pre(synthetic_index_series())
        cfg = NetworkConfig(delay_d=4, hidden_width=4, n_exo_channels=1)
        with pytest.raises(ValueError):
            fit_nar(pre, cfg)

    def test_fitting_model_r2_at_most_one(self):
        net = init_network(NetworkConfig(delay_d=2, hidden_width=2))
        with pytest.raises(ValueError, match="^fit_r2 above 1: 1.5$"):
            FittingModel(MeasurementLevel.CUSTOMER, net, fit_r2=1.5, fit_mape=0.1)

    def test_fitting_model_net_is_autoregressive(self):
        net = init_network(NetworkConfig(delay_d=2, hidden_width=2, n_exo_channels=1))
        with pytest.raises(
            ValueError, match="^fitting model net must be purely autoregressive$"
        ):
            FittingModel(MeasurementLevel.CUSTOMER, net, fit_r2=0.5, fit_mape=0.1)

    def test_learns_deterministic_index_process(self):
        pre = self.make_pre(synthetic_index_series())
        cfg = NetworkConfig(
            delay_d=12, hidden_width=10, seed=3, max_epochs=2000,
            step_size=1e-2, early_stop_patience=50,
        )
        fm = fit_nar(pre, cfg)
        assert fm.level is MeasurementLevel.CUSTOMER
        assert fm.fit_r2 >= 0.999
        assert fm.fit_mape < 0.05
        assert fm.net.training_history


class TestSerialization:
    KEYS = ["delay_d", "hidden_width", "n_exo_channels", "seed", "max_epochs",
            "step_size", "early_stop_patience", "history", "theta"]

    def build(self):
        cfg = NetworkConfig(
            delay_d=3, hidden_width=4, n_exo_channels=2, seed=9, max_epochs=40
        )
        X = np.random.default_rng(0).normal(size=(30, cfg.input_width))
        t = np.random.default_rng(1).normal(size=30)
        return train(init_network(cfg), X, t)

    def lines(self):
        return model_to_text(self.build()).splitlines()

    def assert_lines_rejected(self, lines, got):
        with pytest.raises(InputError) as info:
            model_from_text("\n".join(lines) + "\n")
        assert str(info.value) == f"expected lines {self.KEYS}, got {got}"

    def test_round_trip_bitwise(self):
        model = self.build()
        back = model_from_text(model_to_text(model))
        assert back.config == model.config
        assert back.theta.tobytes() == model.theta.tobytes()
        assert (np.array(back.training_history).tobytes()
                == np.array(model.training_history).tobytes())

    def test_line_layout(self):
        model = self.build()
        assert len(model.training_history) == 40 and model.theta.size == 45
        assert self.lines() == [
            "pvlevels-narx 3",
            "delay_d 3",
            "hidden_width 4",
            "n_exo_channels 2",
            "seed 9",
            "max_epochs 40",
            "step_size 0.0050000000000000001",
            "early_stop_patience 200",
            " ".join(["history", *(f"{v:.17g}" for v in model.training_history)]),
            " ".join(["theta", *(f"{v:.17g}" for v in model.theta)]),
        ]

    def test_file_round_trip(self, tmp_path):
        model = self.build()
        path = tmp_path / "model.txt"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.w_hidden, model.w_hidden)
        assert model_to_text(back) == model_to_text(model)

    def test_bad_header(self):
        # tiny_model() as the previous format wrote it
        version_2 = (
            "pvlevels-narx 2\ndelay_d 1\nhidden_width 1\nn_exo_channels 0\n"
            "seed 0\nmax_epochs 2000\nstep_size 0.0050000000000000001\n"
            "early_stop_patience 200\ntrained 0\nhistory 0\nparams\n5\n0\n2\n0\n"
        )
        current = model_to_text(tiny_model())
        assert current.splitlines()[1:8] == version_2.splitlines()[1:8]
        for text in (version_2, "pvlevels-narx 1\n", "some-other-format 9\n",
                     "", "\n" + current, current.replace("narx 3", "narx  3")):
            with pytest.raises(InputError, match="^bad header; expected 'pvlevels-narx 3'$"):
                model_from_text(text)

    def test_truncated(self):
        # the theta line is missing
        self.assert_lines_rejected(self.lines()[:-1], self.KEYS[:-1])

    def test_misnamed_line(self):
        lines = self.lines()
        lines[2] = lines[2].replace("hidden_width", "hidden_units")
        self.assert_lines_rejected(lines, [*self.KEYS[:1], "hidden_units", *self.KEYS[2:]])

    def test_trailing_garbage(self):
        self.assert_lines_rejected(self.lines() + ["extra line"], self.KEYS + ["extra"])

    def test_history_swapped_with_theta(self):
        lines = self.lines()
        lines[-2:] = lines[:-3:-1]
        self.assert_lines_rejected(lines, self.KEYS[:-2] + ["theta", "history"])

    MALFORMED = {
        "theta-short": r"parameter shape \(44,\) does not fit hidden=4, input=9",
        "theta-long": r"parameter shape \(46,\) does not fit hidden=4, input=9",
        "word-in-int": r"invalid literal for int\(\) with base 10: 'four'",
        "inf-in-theta": "all parameters must be finite",
        "nan-in-history": "every training loss must be finite",
        "-inf-in-history": "every training loss must be finite",
    }

    @pytest.mark.parametrize("probe", list(MALFORMED))
    def test_malformed_values(self, probe):
        lines = self.lines()
        if probe == "theta-short":
            lines[-1] = lines[-1].rsplit(" ", 1)[0]
        elif probe == "theta-long":
            lines[-1] += " 0.5"
        elif probe == "word-in-int":
            lines[2] = "hidden_width four"
        else:
            # the first value of the named line becomes the probe's value
            value, _, name = probe.partition("-in-")
            k = -2 if name == "history" else -1
            lines[k] = " ".join([name, value, lines[k].split(" ", 2)[2]])
        with pytest.raises(
            InputError, match=f"^malformed model text: {self.MALFORMED[probe]}$"
        ):
            model_from_text("\n".join(lines) + "\n")

    def test_untrained_round_trip(self):
        model = init_network(NetworkConfig(delay_d=2, hidden_width=2))
        text = model_to_text(model)
        assert text.splitlines()[-2] == "history"
        back = model_from_text(text)
        assert back.training_history == ()
        assert back.theta.tobytes() == model.theta.tobytes()

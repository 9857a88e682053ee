import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pvlevels.core import MeasurementLevel, utc_datetime
from pvlevels.errors import (
    DimensionMismatch,
    DivergedLoss,
    EmptyBatch,
    InsufficientHistory,
    ParseError,
    SeedLengthMismatch,
    TooShort,
)
from pvlevels.narnet import (
    MIN_FIT_DAY_HOURS,
    _flatten,
    _unflatten,
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
from pvlevels.preprocess import PreprocessedSeries


def tiny_model(w=5.0, out=2.0):
    """One input, one hidden unit: f(u) = out * tanh(w * u)."""
    cfg = NetworkConfig(delay_d=1, hidden_width=1)
    return NarxModel(
        config=cfg,
        w_hidden=np.array([[w]]),
        b_hidden=np.zeros(1),
        w_out=np.array([out]),
        b_out=0.0,
    )


def reference_loss_and_gradient(theta, config, X, t):
    """The row-major kernel: activations stored as (rows x hidden)."""
    w_hidden, b_hidden, w_out, b_out = _unflatten(theta, config)
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
    return loss, _flatten(g_w_hidden, g_b_hidden, g_w_out, g_b_out)


def reference_train(model, X, t):
    """Adam as a plain loop: a NarxModel rebuilt from the flat parameters
    every epoch, gradients from the public loss_and_gradient, and a loss
    improvement counted when it exceeds 1e-9."""
    cfg = model.config
    theta = _flatten(model.w_hidden, model.b_hidden, model.w_out, model.b_out)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    history = []
    best_loss, best_theta, stall = math.inf, theta.copy(), 0
    work = model
    for epoch in range(1, cfg.max_epochs + 1):
        loss, grad = loss_and_gradient(work, X, t)
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
        work = NarxModel(cfg, *_unflatten(theta, cfg))
    return NarxModel(
        cfg, *_unflatten(best_theta, cfg), trained=True, training_history=tuple(history)
    )


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
        assert not m.trained


class TestForward:
    def test_hand_value(self):
        # 2 * tanh(5 * 1) = 1.99982...
        assert forward(tiny_model(), [1.0]) == pytest.approx(1.99982, abs=1e-5)

    def test_zero_input(self):
        assert forward(tiny_model(), [0.0]) == 0.0

    def test_output_bias(self):
        m = tiny_model()
        shifted = NarxModel(
            config=m.config,
            w_hidden=m.w_hidden,
            b_hidden=m.b_hidden,
            w_out=m.w_out,
            b_out=0.5,
        )
        assert forward(shifted, [0.0]) == 0.5

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
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
        with pytest.raises(TooShort):
            make_training_set([1.0, 2.0], (), 2)

    def test_channel_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            make_training_set([1.0, 2.0, 3.0], [[1.0, 2.0]], 1)
        with pytest.raises(DimensionMismatch):
            make_training_set([1.0, 2.0, 3.0], [[[1.0, 2.0, 3.0]]], 1)

    @pytest.mark.parametrize(
        "y,segments", [([], None), ([], []), (np.arange(5.0), [2, 2, 1])]
    )
    def test_no_row_survives(self, y, segments):
        with pytest.raises(TooShort):
            make_training_set(y, (), 2, segments=segments)

    @pytest.mark.parametrize("segments", [[2, 2], [3, 0, 2], [6, -1]])
    def test_bad_segments(self, segments):
        with pytest.raises(ValueError, match="must be positive and sum to 5"):
            make_training_set(np.arange(5.0), (), 1, segments=segments)

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
        cuts = rng.choice(n - 1, size=int(rng.integers(0, 4)), replace=False) + 1
        bounds = [0, *sorted(int(c) for c in cuts), n]
        segments = [b - a for a, b in zip(bounds, bounds[1:])]
        # every t whose d lags stay inside t's own stretch, in order
        inside = [t for a, b in zip(bounds, bounds[1:]) for t in range(a + d, b)]
        for segs, ts in ((None, range(d, n)), (segments, inside)):
            if not ts:
                with pytest.raises(TooShort):
                    make_training_set(y, exo, d, segments=segs)
                continue
            inputs, targets = make_training_set(y, exo, d, segments=segs)
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
        with pytest.raises(EmptyBatch):
            loss_and_gradient(tiny_model(), np.empty((0, 1)), np.empty(0))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
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

        theta = _flatten(model.w_hidden, model.b_hidden, model.w_out, model.b_out)
        h = 1e-6
        for i in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[i] += h
            down[i] -= h
            m_up = NarxModel(cfg, *_unflatten(up, cfg))
            m_down = NarxModel(cfg, *_unflatten(down, cfg))
            l_up, _ = loss_and_gradient(m_up, X, t)
            l_down, _ = loss_and_gradient(m_down, X, t)
            numeric = (l_up - l_down) / (2 * h)
            denom = max(1e-8, abs(numeric), abs(grad[i]))
            assert abs(grad[i] - numeric) / denom < 1e-5


    # float64 summation order differs between the layouts; fixed up front
    @pytest.mark.parametrize(
        "rows, hidden, n_exo",
        [(50, 1, 0), (1, 4, 0), (1, 3, 4), (2000, 6, 0), (2000, 3, 4), (700, 5, 4)],
        ids=["hidden-1", "one-row", "one-row-narx", "2000-rows", "2000-rows-narx",
             "narx"],
    )
    def test_matches_row_major_reference(self, rows, hidden, n_exo):
        rng = np.random.default_rng(rows + hidden + n_exo)
        cfg = NetworkConfig(
            delay_d=3, hidden_width=hidden, n_exo_channels=n_exo, seed=7
        )
        model = init_network(cfg)
        model = NarxModel(
            cfg, model.w_hidden, rng.normal(0, 0.3, hidden), model.w_out, 0.2
        )
        X = rng.uniform(0.0, 1.2, size=(rows, cfg.input_width))
        t = rng.uniform(0.0, 1.2, size=rows)
        theta = _flatten(model.w_hidden, model.b_hidden, model.w_out, model.b_out)
        want_loss, want_grad = reference_loss_and_gradient(theta, cfg, X, t)
        loss, grad = loss_and_gradient(model, X, t)
        assert loss == pytest.approx(want_loss, rel=1e-10, abs=1e-13)
        np.testing.assert_allclose(grad, want_grad, rtol=1e-10, atol=1e-13)


class TestTrain:
    def make_batch(self, n=200, seed=0):
        rng = np.random.default_rng(seed)
        y = np.sin(np.linspace(0, 12, n)) * 0.4 + 0.5 + rng.normal(0, 0.01, n)
        return make_training_set(y, (), 4)

    def test_loss_never_ends_above_start(self):
        X, t = self.make_batch()
        cfg = NetworkConfig(delay_d=4, hidden_width=6, seed=5, max_epochs=150)
        model = init_network(cfg)
        before, _ = loss_and_gradient(model, X, t)
        trained = train(model, X, t)
        after, _ = loss_and_gradient(trained, X, t)
        assert after <= before
        assert trained.trained
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
        assert not out.trained

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
        with pytest.raises(DivergedLoss):
            train(init_network(cfg), X, huge)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_parameters_abort(self):
        # the loss is finite, but the hidden weight's gradient overflows,
        # so the first update turns that weight into NaN
        model = tiny_model(w=1e-305, out=100.0)
        with pytest.raises(DivergedLoss, match="parameters .* at epoch 1"):
            train(model, np.array([[1e305]]), np.zeros(1))

    @pytest.mark.parametrize(
        "n_exo, kw, rows, stops_early",
        [
            (0, {}, None, False),
            (2, {}, None, False),
            (0, dict(max_epochs=5000, early_stop_patience=10), None, True),
            (0, dict(hidden_width=1), None, False),
            (2, {}, 1, True),
        ],
        ids=["nar", "narx", "early-stop", "hidden-1", "one-row"],
    )
    def test_matches_reference_loop(self, n_exo, kw, rows, stops_early):
        rng = np.random.default_rng(21)
        y = np.sin(np.linspace(0, 12, 200)) * 0.4 + 0.5 + rng.normal(0, 0.01, 200)
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
        assert got.trained
        stopped_early = len(got.training_history) < cfg.max_epochs
        assert stopped_early == stops_early


    def test_buffers_never_write_through(self):
        X, t = self.make_batch()
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
        model = NarxModel(cfg, model.w_hidden, np.linspace(-0.3, 0.3, 4),
                          model.w_out, 0.2)
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

    def test_horizon_zero(self):
        out = predict_closed_loop(
            tiny_model(), np.array([0.1]), horizon=0
        )
        assert out.size == 0

    def test_seed_length_checked(self):
        with pytest.raises(SeedLengthMismatch):
            predict_closed_loop(tiny_model(), np.array([0.1, 0.2]), horizon=1)

    def test_exo_channel_count_checked(self):
        cfg = NetworkConfig(delay_d=1, hidden_width=1, n_exo_channels=1)
        model = init_network(cfg)
        with pytest.raises(SeedLengthMismatch):
            predict_closed_loop(model, np.array([0.1]), horizon=1)

    def test_future_shorter_than_horizon(self):
        cfg = NetworkConfig(delay_d=1, hidden_width=1, n_exo_channels=1)
        model = init_network(cfg)
        with pytest.raises(SeedLengthMismatch):
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
            site_id="t",
            level=MeasurementLevel.CUSTOMER,
            index_values=values,
            day_mask=np.ones(n, dtype=bool),
            offset_kw=0.0,
            source_start=utc_datetime(2023, 3, 1),
            source_n=n,
            clip_count=0,
        )

    def test_requires_enough_history(self):
        short = self.make_pre(np.full(100, 0.5))
        cfg = NetworkConfig(delay_d=4, hidden_width=4)
        with pytest.raises(InsufficientHistory):
            fit_nar(short, cfg)
        assert MIN_FIT_DAY_HOURS == 360

    def test_rejects_exogenous_config(self):
        pre = self.make_pre(synthetic_index_series())
        cfg = NetworkConfig(delay_d=4, hidden_width=4, n_exo_channels=1)
        with pytest.raises(ValueError):
            fit_nar(pre, cfg)

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
        assert fm.net.trained


class TestSerialization:
    def build(self):
        cfg = NetworkConfig(
            delay_d=3, hidden_width=4, n_exo_channels=2, seed=9, max_epochs=40
        )
        X = np.random.default_rng(0).normal(size=(30, cfg.input_width))
        t = np.random.default_rng(1).normal(size=30)
        return train(init_network(cfg), X, t)

    def test_round_trip_bitwise(self):
        model = self.build()
        back = model_from_text(model_to_text(model))
        assert back.config == model.config
        assert np.array_equal(back.w_hidden, model.w_hidden)
        assert np.array_equal(back.b_hidden, model.b_hidden)
        assert np.array_equal(back.w_out, model.w_out)
        assert back.b_out == model.b_out
        assert back.trained == model.trained
        assert back.training_history == model.training_history

    def test_file_round_trip(self, tmp_path):
        model = self.build()
        path = tmp_path / "model.txt"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.w_hidden, model.w_hidden)
        assert model_to_text(back) == model_to_text(model)

    def test_bad_header(self):
        with pytest.raises(ParseError):
            model_from_text("some-other-format 9\n")

    def test_truncated(self):
        text = model_to_text(self.build())
        lines = text.splitlines()
        with pytest.raises(ParseError):
            model_from_text("\n".join(lines[: len(lines) // 2]))

    def test_trailing_garbage(self):
        text = model_to_text(self.build())
        with pytest.raises(ParseError):
            model_from_text(text + "extra line\n")

    def test_untrained_round_trip(self):
        model = init_network(NetworkConfig(delay_d=2, hidden_width=2))
        back = model_from_text(model_to_text(model))
        assert not back.trained
        assert back.training_history == ()

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enas.nn import (
    EARLY_STOP_MIN_DELTA,
    EARLY_STOP_PATIENCE,
    LOSS_EPS,
    BETA_1,
    BETA_2,
    DEFAULT_LEARNING_RATES,
    OPT_EPS,
    RMS_RHO,
    EarlyStopper,
    MLPConfig,
    Optimizer,
    TrainedModel,
    TrainingError,
    glorot_uniform,
    init_params,
    layer_dims,
    loss_and_gradients,
    param_count,
    param_views,
    predict,
    row_losses,
    train,
    train_folds,
)
from enas import nn
from enas.seeding import make_rng


def first_stop_epoch(losses, patience=EARLY_STOP_PATIENCE, min_delta=EARLY_STOP_MIN_DELTA):
    """Oracle: first epoch e (1-based) such that no epoch in (e-patience, e]
    improved the best-so-far loss by more than min_delta."""
    for e in range(patience, len(losses) + 1):
        improved = False
        for i in range(e - patience, e):  # list indices of epochs (e-patience, e]
            best_before = min(losses[:i], default=math.inf)
            if best_before - losses[i] > min_delta:
                improved = True
                break
        if not improved:
            return e
    return None


def _config(**overrides):
    defaults = dict(
        hidden_layers=1,
        nodes_per_hidden=4,
        activations=("relu", "relu", "sigmoid"),
        optimizer="adam",
        epochs=10,
        batch_size=4,
    )
    defaults.update(overrides)
    return MLPConfig(**defaults)


class TestGlorot:
    def test_limit_for_fan_8_8(self):
        limit = math.sqrt(6 / 16)  # 0.6123724...
        w = glorot_uniform(8, 8, make_rng(0))
        assert np.abs(w).max() <= limit

    def test_limit_is_exactly_one_for_fan_3_3(self):
        w = glorot_uniform(3, 3, make_rng(1))
        assert np.abs(w).max() <= 1.0

    def test_variance_matches_uniform_moment(self):
        # Var(U(-L, L)) = L^2 / 3 = 2 / (fan_in + fan_out)
        w = glorot_uniform(40, 40, make_rng(2))  # 1600 draws, loose bound
        assert np.var(w) == pytest.approx(2 / 80, rel=0.2)

    def test_deterministic_per_seed(self):
        assert np.array_equal(glorot_uniform(5, 5, make_rng(3)), glorot_uniform(5, 5, make_rng(3)))


def _model(cfg, width, params):
    return TrainedModel(params=params, dims=layer_dims(width, cfg), activations=cfg.activations)


class TestPredict:
    def _zero_model(self, width=3):
        cfg = _config()
        return _model(cfg, width, np.zeros_like(init_params(cfg, width, make_rng(0))))

    def test_zero_weights_label_every_row_1(self):
        # sigmoid(0) is exactly 0.5, which labels 1
        assert np.array_equal(predict(self._zero_model(), np.ones((5, 3))), np.ones(5))

    def test_nan_parameters_label_every_row_0(self):
        model = self._zero_model()
        model.params = np.full_like(model.params, np.nan)
        assert np.array_equal(predict(model, np.ones((5, 3))), np.zeros(5))

    def test_single_unit_thresholds_at_zero_input(self):
        # one weighted path: sigmoid(w*x + b) with w=1, b=0
        model = TrainedModel(params=np.array([1.0, 0.0]), dims=(1, 1), activations=("sigmoid",))
        assert predict(model, np.array([[-1.0], [0.0], [1.0]])).tolist() == [0, 1, 1]

    def test_parameter_count_must_fit_dims(self):
        model = TrainedModel(params=np.zeros(3), dims=(1, 1), activations=("sigmoid",))
        with pytest.raises(TrainingError, match="parameters"):
            predict(model, np.array([[0.0]]))

    def test_output_length_matches_batch(self):
        model = self._zero_model()
        assert predict(model, np.ones((7, 3))).shape == (7,)


def binary_cross_entropy(predictions, labels):
    """Reference loss: mean negative log-likelihood along the last axis,
    predictions clipped to [LOSS_EPS, 1 - LOSS_EPS]."""
    p = np.clip(np.asarray(predictions, dtype=np.float64), LOSS_EPS, 1.0 - LOSS_EPS)
    y = np.asarray(labels, dtype=np.float64)
    return -np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p), axis=-1)


def sigmoid_by_sign(z):
    """Reference sigmoid, split by sign so that exp never overflows."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# A one-unit network whose output pre-activation is its one input:
# dims (1, 1, 1, 1), linear hidden units, unit weights, zero biases.
IDENTITY_DIMS = (1, 1, 1, 1)
IDENTITY_ACTIVATIONS = ("linear", "linear", "sigmoid")
IDENTITY_PARAMS = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])


def transposes(layers):
    """The ``weights_t`` argument of ``loss_and_gradients`` for ``layers``."""
    return [w.swapaxes(-1, -2) for w, _ in layers]


def batch_loss(layers, activations, batch, labels, grad_layers):
    """Mean ``row_losses`` of one batch, from one ``loss_and_gradients``
    pass (which also writes the gradient into ``grad_layers``)."""
    y = np.asarray(labels, dtype=np.float64)
    z = loss_and_gradients(layers, activations, batch, y, grad_layers, transposes(layers))
    return np.add.reduce(row_losses(z, y), axis=-1) / batch.shape[-2]


def _loss_at_logits(logits, labels):
    """``batch_loss`` of the identity network at output pre-activations
    ``logits``: (n,) gives one loss, (g, n) one loss per stacked network."""
    z = np.asarray(logits, dtype=np.float64)
    params = np.tile(IDENTITY_PARAMS, z.shape[:-1] + (1,))
    grad = np.empty_like(params)
    return batch_loss(
        param_views(params, IDENTITY_DIMS),
        IDENTITY_ACTIVATIONS,
        z[..., None],
        labels,
        param_views(grad, IDENTITY_DIMS),
    )


EXTREME_LOGITS = [-math.inf, -800.0, -40.0, -1.0, 0.0, 1.0, 40.0, 800.0, math.inf, math.nan]


class TestBinaryCrossEntropy:
    def test_half_probability_gives_ln2(self):
        assert _loss_at_logits([0.0], [1]) == pytest.approx(math.log(2))

    def test_perfect_prediction_is_near_zero(self):
        assert _loss_at_logits([40.0], [1]) < 1e-6

    def test_symmetric_pair_gives_ln2(self):
        assert _loss_at_logits([0.0, 0.0], [0, 1]) == pytest.approx(math.log(2))

    def test_stacked_rows_give_one_loss_each(self):
        z = np.array([[0.0, 0.0], [2.2, -1.4]])
        y = np.array([[0, 1], [1, 0]])
        stacked = _loss_at_logits(z, y)
        assert stacked.shape == (2,)
        assert stacked.tolist() == [_loss_at_logits(z[i], y[i]) for i in range(2)]

    @pytest.mark.parametrize("label", [0, 1])
    @pytest.mark.parametrize("logit", EXTREME_LOGITS)
    def test_extremes_match_clipped_probability_loss(self, monkeypatch, logit, label):
        # one epoch on one row: the epoch loss is that row's loss
        monkeypatch.setattr(nn, "init_params", lambda *args: IDENTITY_PARAMS.copy())
        config = _config(
            nodes_per_hidden=1,
            activations=IDENTITY_ACTIVATIONS,
            optimizer="sgd",
            epochs=1,
            batch_size=1,
        )
        with np.errstate(all="ignore"):
            model = train(config, np.array([[logit]]), np.array([label]), 0)
            expected = float(binary_cross_entropy(sigmoid_by_sign(np.array([logit])), [label]))
        (loss,) = model.loss_history
        assert model.diverged == math.isnan(logit)
        if math.isnan(logit):
            assert math.isnan(loss)
        else:
            assert loss == pytest.approx(expected, rel=1e-9, abs=0.0)


class TestSigmoid:
    GRID = np.concatenate(
        [
            np.linspace(-50.0, 50.0, 20001),
            [-800.0, -745.0, -710.0, -40.0, 40.0, 710.0, 745.0, 800.0],
            [-1e300, -1e-300, 0.0, 1e-300, 1e300],
        ]
    )

    def test_within_4p5e16_of_split_by_sign(self):
        grid = np.append(self.GRID, [-math.inf, math.inf])
        for z in (grid, grid.reshape(-1, 1), grid.reshape(2, 4, -1)):
            assert np.abs(nn._activate("sigmoid", z) - sigmoid_by_sign(z)).max() <= 4.5e-16

    def test_infinities_and_nan(self):
        out = nn._activate("sigmoid", np.array([-math.inf, math.inf, math.nan]))
        assert out[0] == 0.0 and out[1] == 1.0 and math.isnan(out[2])

    def test_finite_inputs_raise_nothing(self):
        with np.errstate(over="raise", invalid="raise"):
            nn._activate("sigmoid", self.GRID)

    def test_leaves_its_input_alone(self):
        z = self.GRID.copy()
        nn._activate("sigmoid", z)
        assert np.array_equal(z, self.GRID)


# Reference: per-tensor optimizer state and update in textbook operation
# order. The flat Optimizer must match it bit for bit.
def _reference_state(kind, param):
    if kind == "sgd":
        return {}
    state = {"t": 0}
    if kind in ("adam", "rmsprop"):
        state["v"] = np.zeros_like(param)
    if kind in ("adam", "adamax"):
        state["m"] = np.zeros_like(param)
    if kind == "adamax":
        state["u"] = np.zeros_like(param)
    return state


def _reference_update(kind, param, grad, state, lr):
    """Per-tensor update in its textbook form, one tensor and state at a time."""
    if kind == "sgd":
        param -= lr * grad
        return
    t = state["t"] = state["t"] + 1
    if kind == "adam":
        m, v = state["m"], state["v"]
        m *= BETA_1
        m += (1.0 - BETA_1) * grad
        v *= BETA_2
        v += (1.0 - BETA_2) * grad * grad
        m_hat = m / (1.0 - BETA_1**t)
        v_hat = v / (1.0 - BETA_2**t)
        param -= lr * m_hat / (np.sqrt(v_hat) + OPT_EPS)
    elif kind == "adamax":
        m, u = state["m"], state["u"]
        m *= BETA_1
        m += (1.0 - BETA_1) * grad
        np.maximum(BETA_2 * u, np.abs(grad), out=u)
        param -= (lr / (1.0 - BETA_1**t)) * m / (u + OPT_EPS)
    else:
        v = state["v"]
        v *= RMS_RHO
        v += (1.0 - RMS_RHO) * grad * grad
        param -= lr * grad / (np.sqrt(v) + OPT_EPS)


def _steps(kind, value, grads):
    """Values of a one-entry parameter after each step against ``grads``."""
    params = np.array([value])
    optimizer = Optimizer(kind, 1)
    seen = []
    for g in grads:
        optimizer.step(params, np.array([g]))
        seen.append(float(params[0]))
    return seen, optimizer


class TestOptimizerStep:
    def test_sgd_basic_step(self):
        # sgd's default rate is 0.01
        (p,), _ = _steps("sgd", 1.0, [0.5])
        assert p == pytest.approx(0.995)

    def test_adam_first_step_is_one_learning_rate(self):
        # bias-corrected first step: lr * g / (|g| + eps) for g=1
        (p,), optimizer = _steps("adam", 1.0, [1.0])
        assert p == pytest.approx(1.0 - 0.001 / (1.0 + 1e-7), abs=1e-12)
        assert optimizer.t == 1

    def test_zero_gradient_leaves_sgd_param(self):
        assert _steps("sgd", 2.0, [0.0])[0] == [2.0]

    def test_zero_gradient_leaves_adam_param(self):
        assert _steps("adam", 2.0, [0.0])[0] == [2.0]

    @pytest.mark.parametrize("kind", ["sgd", "adam", "adamax", "rmsprop"])
    def test_step_moves_against_gradient(self, kind):
        (p, p2), _ = _steps(kind, 1.0, [1.0, 1.0])
        assert p < 1.0
        assert p2 < p

    def test_sgd_allocates_no_scratch(self):
        shape = (3, 1000)
        params, grad = np.zeros(shape), np.ones(shape)
        tracemalloc.start()
        try:
            Optimizer("sgd", shape).step(params, grad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < params.nbytes
        assert np.array_equal(params, np.full(shape, -0.01))

    @pytest.mark.parametrize("kind", ["sgd", "adam", "adamax", "rmsprop"])
    def test_flat_steps_bit_identical_to_per_tensor_reference(self, kind):
        dims = (5, 4, 4, 3, 1)
        rng = make_rng(77)
        params = rng.normal(size=sum((i + 1) * o for i, o in zip(dims, dims[1:])))
        tensors = [t.copy() for layer in param_views(params, dims) for t in layer]
        states = [_reference_state(kind, t) for t in tensors]
        optimizer = Optimizer(kind, params.size)
        for step in range(6):
            grad = rng.normal(scale=10.0 ** (step - 3), size=params.size)
            grad[rng.random(params.size) < 0.2] = 0.0
            optimizer.step(params, grad.copy())  # the step consumes its gradient
            grads = [g for layer in param_views(grad, dims) for g in layer]
            for tensor, g, state in zip(tensors, grads, states):
                _reference_update(kind, tensor, g, state, DEFAULT_LEARNING_RATES[kind])
        assert np.array_equal(params, np.concatenate([t.ravel() for t in tensors]))


class TestBiasCorrections:
    # step counts around the ends of the two tables: the BETA_1 correction
    # is exactly 1.0 from t = 356 on, the BETA_2 one from t = 37,412 on
    STEP_COUNTS = [0, 1, 2, 349, 354, 355, 356, 357, 399, 400]
    STEP_COUNTS += [36_999, 37_410, 37_411, 37_412, 39_999]

    @pytest.mark.parametrize("kind", ["adam", "adamax"])
    def test_mixed_step_counts_match_per_network_reference(self, kind):
        rng = make_rng(31)
        shape = (len(self.STEP_COUNTS), 7)
        params, grad = rng.normal(size=shape), rng.normal(size=shape)
        optimizer = Optimizer(kind, shape)
        optimizer.m[...] = rng.normal(size=shape)
        optimizer.v[...] = rng.uniform(0.1, 2.0, size=shape)
        optimizer.t[...] = np.array(self.STEP_COUNTS)[:, None]
        expected = params.copy()
        for row, t in enumerate(self.STEP_COUNTS):
            state = {"t": t, "m": optimizer.m[row].copy()}
            state["v" if kind == "adam" else "u"] = optimizer.v[row].copy()
            _reference_update(kind, expected[row], grad[row], state, DEFAULT_LEARNING_RATES[kind])
        optimizer.step(params, grad)
        assert np.array_equal(params, expected)
        assert optimizer.t.ravel().tolist() == [t + 1 for t in self.STEP_COUNTS]

    @pytest.mark.parametrize("beta", [BETA_1, BETA_2])
    def test_table_equals_python_floats_then_one(self, beta):
        counts = np.arange(40_001)
        table = nn._BiasCorrection(beta)
        assert table(counts).tolist() == [1.0 - beta**t for t in range(40_001)]
        assert table(np.array([10**6, 10**9])).tolist() == [1.0, 1.0]


class TestTrain:
    def test_descends_on_separable_points(self):
        x = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        model = train(_config(epochs=50, batch_size=2), x, y, 0)
        assert model.loss_history[-1] < model.loss_history[0]

    def test_single_epoch(self):
        x = np.array([[0.0], [1.0]])
        model = train(_config(epochs=1, batch_size=2), x, np.array([0, 1]), 0)
        assert len(model.loss_history) == 1
        assert model.epochs_run == 1
        assert not model.stopped_early

    def test_constant_loss_stops_at_epoch_six(self, monkeypatch):
        # zero learning rate freezes the parameters, so epoch 1 sets the
        # best loss and epochs 2-6 are five straight non-improvements
        monkeypatch.setitem(nn.DEFAULT_LEARNING_RATES, "adam", 0.0)
        x = np.array([[0.0], [1.0], [0.5], [0.25]])
        y = np.array([0, 1, 1, 0])
        model = train(_config(epochs=50), x, y, 0)
        assert model.stopped_early
        assert model.epochs_run == EARLY_STOP_PATIENCE + 1 == 6
        assert len(model.loss_history) == 6

    def test_bit_identical_replay(self, small_dataset):
        cfg = _config(epochs=8)
        a = train(cfg, small_dataset.features, small_dataset.labels, 123)
        b = train(cfg, small_dataset.features, small_dataset.labels, 123)
        assert a.loss_history == b.loss_history

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_flags_model(self, small_dataset, monkeypatch):
        # linear layers with an absurd step size overflow within an epoch
        monkeypatch.setitem(nn.DEFAULT_LEARNING_RATES, "sgd", 1e60)
        cfg = _config(optimizer="sgd", epochs=30, activations=("linear", "linear", "sigmoid"))
        model = train(cfg, small_dataset.features, small_dataset.labels, 0)
        assert model.diverged
        assert not np.isfinite(model.loss_history[-1])
        assert model.epochs_run == len(model.loss_history) <= 30

    def test_loss_history_length_bounded_by_epochs(self, small_dataset):
        model = train(_config(epochs=5), small_dataset.features, small_dataset.labels, 0)
        assert model.epochs_run == len(model.loss_history) <= 5

    def test_predict_thresholds_at_half(self, small_dataset):
        # the labels of the output's sigmoid clipped to [LOSS_EPS, 1 - LOSS_EPS]
        # at 0.5: a clip on either side of 0.5 changes no label
        model = train(_config(epochs=20), small_dataset.features, small_dataset.labels, 0)
        layers = param_views(model.params, model.dims)
        z = nn._forward_chain(layers, model.activations, small_dataset.features)[-1].ravel()
        soft = np.clip(nn._activate("sigmoid", z), LOSS_EPS, 1.0 - LOSS_EPS)
        assert np.array_equal(predict(model, small_dataset.features), (soft >= 0.5).astype(int))


class TestEarlyStopper:
    @given(st.lists(st.floats(0.0, 20.0, allow_nan=False), min_size=1, max_size=40))
    @settings(max_examples=300)
    def test_matches_windowed_oracle(self, losses):
        stopper = EarlyStopper()
        stopped_at = None
        for epoch, loss in enumerate(losses, start=1):
            if stopper.update(loss):
                stopped_at = epoch
                break
        assert stopped_at == first_stop_epoch(losses)

    def test_exact_boundary_is_not_an_improvement(self):
        stopper = EarlyStopper()
        assert not stopper.update(EARLY_STOP_MIN_DELTA)
        # each an improvement of exactly the minimum delta: stale
        assert [stopper.update(0.0) for _ in range(EARLY_STOP_PATIENCE)] == [False] * (
            EARLY_STOP_PATIENCE - 1
        ) + [True]


class TestConfigValidation:
    def test_activation_count_must_match_depth(self):
        with pytest.raises(TrainingError, match="activations"):
            _config(hidden_layers=2)  # needs 4 entries, default has 3

    def test_final_activation_must_be_sigmoid(self):
        with pytest.raises(TrainingError, match="sigmoid"):
            _config(activations=("relu", "relu", "tanh"))

    def test_unknown_activation(self):
        with pytest.raises(TrainingError, match="unsupported activation"):
            _config(activations=("step", "relu", "sigmoid"))


class TestGradients:
    def test_analytic_matches_central_differences(self):
        rng = make_rng(404)
        for trial in range(4):
            hidden = int(rng.integers(1, 4))
            cfg = MLPConfig(
                hidden_layers=hidden,
                nodes_per_hidden=int(rng.integers(2, 6)),
                activations=tuple(
                    str(a) for a in rng.choice(["relu", "sigmoid", "tanh", "linear"], hidden + 1)
                )
                + ("sigmoid",),
                optimizer="sgd",
                epochs=1,
                batch_size=4,
            )
            width = int(rng.integers(2, 6))
            params = init_params(cfg, width, rng)
            grad, scratch = np.empty_like(params), np.empty_like(params)
            dims = layer_dims(width, cfg)
            layers, grad_layers = param_views(params, dims), param_views(grad, dims)
            scratch_layers = param_views(scratch, dims)
            x = rng.uniform(0, 1, size=(6, width))
            y = rng.integers(0, 2, size=6).astype(float)
            # six rows, then the first alone: a one-row batch has its own path
            for rows in (6, 1):
                xs, ys = x[:rows], y[:rows]
                loss_and_gradients(layers, cfg.activations, xs, ys, grad_layers, transposes(layers))
                h = 1e-5
                for i in range(params.size):
                    original = params[i]
                    params[i] = original + h
                    up = batch_loss(layers, cfg.activations, xs, ys, scratch_layers)
                    params[i] = original - h
                    down = batch_loss(layers, cfg.activations, xs, ys, scratch_layers)
                    params[i] = original
                    fd = (up - down) / (2 * h)
                    scale = max(abs(fd), abs(grad[i]), 1e-8)
                    assert abs(fd - grad[i]) / scale < 1e-4, (trial, rows, i)


def _reference_train(config, x, y, rng):
    """The per-fold trainer lockstep training replaced: one network, 2-D
    matmuls, one batch after another. An epoch's loss is one mean of the
    per-row losses of its batches, in batch order. Returns (params, loss
    history)."""
    dims = layer_dims(x.shape[1], config)
    params = init_params(config, x.shape[1], rng)
    grad = np.empty_like(params)
    layers, grad_layers = param_views(params, dims), param_views(grad, dims)
    optimizer = Optimizer(config.optimizer, params.size)
    weights_t, stopper, losses = transposes(layers), EarlyStopper(), []
    for _ in range(config.epochs):
        order = rng.permutation(len(y))
        epoch_rows = []
        for start in range(0, len(y), config.batch_size):
            idx = order[start : start + config.batch_size]
            z = loss_and_gradients(
                layers, config.activations, x[idx], y[idx], grad_layers, weights_t
            )
            epoch_rows.append(row_losses(z, y[idx]))
            optimizer.step(params, grad)
        losses.append(float(np.concatenate(epoch_rows).mean()))
        if not math.isfinite(losses[-1]) or stopper.update(losses[-1]):
            break
    return params, losses


def _ragged_folds(rows=23, k=4):
    """Data and k training sets: 17, 17, 17 and 18 rows by default."""
    rng = make_rng(5)
    x = rng.uniform(0.0, 1.0, size=(rows, 3))
    y = ((x[:, 0] + 0.3 * rng.standard_normal(rows)) > 0.5).astype(np.int64)
    folds = np.array_split(make_rng(6).permutation(rows), k)
    return x, y.astype(float), [np.setdiff1d(np.arange(rows), f) for f in folds]


def _descending_folds(rows=23, sizes=(20, 18, 17, 15)):
    """Data and training sets whose sizes fall from the first fold to the
    last, all different: the stack's size order reverses the fold order."""
    x, y, _ = _ragged_folds(rows)
    order = make_rng(7).permutation(rows)
    return x, y, [order[i : i + size] for i, size in enumerate(sizes)]


FOLD_LAYOUTS = {
    "ragged": lambda: _ragged_folds(23),
    "equal": lambda: _ragged_folds(24),
    "descending": _descending_folds,
}
FOLD_SEEDS = [11, 12, 13, 14]


def _assert_matches_each_fold_alone(config, x, y, train_sets, models, skip=()):
    for fold, (rows, model) in enumerate(zip(train_sets, models)):
        if fold in skip:
            continue
        seed = FOLD_SEEDS[fold]
        params, losses = _reference_train(config, x[rows], y[rows], np.random.default_rng(seed))
        alone = train(config, x[rows], y[rows], np.random.default_rng(seed))
        assert np.array_equal(model.params, params), fold
        assert np.array_equal(alone.params, params), fold
        assert model.loss_history == alone.loss_history == losses, fold
        assert (model.epochs_run, model.stopped_early, model.diverged) == (
            alone.epochs_run,
            alone.stopped_early,
            alone.diverged,
        )


class TestTrainFolds:
    @pytest.mark.parametrize("layout", list(FOLD_LAYOUTS))
    @pytest.mark.parametrize("batch_size", [1, 3, 4, 9])
    @pytest.mark.parametrize("optimizer", ["sgd", "adam", "adamax", "rmsprop"])
    def test_each_fold_matches_training_it_alone(self, optimizer, batch_size, layout):
        # ragged: 17- and 18-row folds; at batch 1 the 18-row fold takes an
        # extra tail step (its own adam step count), at batch 4 the tails
        # are 1 and 2 rows long. equal: four 18-row folds step together,
        # at batch 4 through a 2-row last step. descending: 20, 18, 17 and
        # 15 rows, so the stack holds the folds in reverse order and its
        # tail steps serve runs of one to three rows. At batch 9 the ragged
        # folds' last batches hold 8 and 9 rows.
        x, y, train_sets = FOLD_LAYOUTS[layout]()
        config = _config(
            hidden_layers=2,
            nodes_per_hidden=5,
            activations=("tanh", "relu", "sigmoid", "sigmoid"),
            optimizer=optimizer,
            epochs=6,
            batch_size=batch_size,
        )
        models = list(train_folds(config, x, y, train_sets, FOLD_SEEDS))
        assert len(models) == 4
        _assert_matches_each_fold_alone(config, x, y, train_sets, models)

    def test_folds_stop_early_at_different_epochs(self, monkeypatch):
        monkeypatch.setitem(nn.DEFAULT_LEARNING_RATES, "adam", 0.03)
        x, y, train_sets = _ragged_folds()
        config = _config(activations=("tanh", "relu", "sigmoid"), epochs=40, batch_size=1)
        models = list(train_folds(config, x, y, train_sets, FOLD_SEEDS))
        # three folds leave the stack at three different epochs, one trains on
        assert [(m.epochs_run, m.stopped_early) for m in models] == [
            (40, False),
            (11, True),
            (16, True),
            (21, True),
        ]
        _assert_matches_each_fold_alone(config, x, y, train_sets, models)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_fold_leaves_the_others_bit_identical(self):
        x, y, train_sets = _ragged_folds()
        # one huge row, in fold 2's training set only, overflows its network
        x = np.vstack([x, np.full((1, 3), 1e100)])
        y = np.append(y, 1.0)
        train_sets[2] = np.append(train_sets[2], len(y) - 1)
        config = _config(
            optimizer="sgd", activations=("linear", "linear", "sigmoid"), epochs=10, batch_size=3
        )
        models = list(train_folds(config, x, y, train_sets, FOLD_SEEDS))
        assert [m.diverged for m in models] == [False, False, True, False]
        assert not math.isfinite(models[2].loss_history[-1])
        _assert_matches_each_fold_alone(config, x, y, train_sets, models, skip=(2,))

    def test_group_size_follows_parameter_count(self, monkeypatch):
        x, y, train_sets = _ragged_folds()
        config = _config(optimizer="adam", epochs=3, batch_size=2)
        size = param_count(layer_dims(x.shape[1], config))
        real = nn.loss_and_gradients
        results = {}
        caps = ((size - 1, 1), (size, 1), (2 * size, 2), (3 * size, 3), (nn.LOCKSTEP_PARAMS, 4))
        for cap, group in caps:
            stacks = set()

            def spy(layers, *args):
                stacks.add(layers[0][0].shape[0])
                return real(layers, *args)

            monkeypatch.setattr(nn, "LOCKSTEP_PARAMS", cap)
            monkeypatch.setattr(nn, "loss_and_gradients", spy)
            models = list(train_folds(config, x, y, train_sets, FOLD_SEEDS))
            assert max(stacks) == group
            results[cap] = [(m.params.tolist(), m.loss_history) for m in models]
        assert all(value == results[size] for value in results.values())

    @pytest.mark.parametrize("batch_size", [1, 4, 9])
    def test_ragged_training_on_finite_data_warns_nothing(self, batch_size):
        x, y, train_sets = _descending_folds()
        config = _config(activations=("tanh", "relu", "sigmoid"), epochs=3, batch_size=batch_size)
        # NaN-filled blocks the size of the stack's logits buffer, freed to
        # numpy's allocation cache: a buffer whose padding was left
        # unwritten would read NaN there, and NaN losses warn
        junk = [np.full((len(train_sets), 20), np.nan) for _ in range(8)]
        del junk
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            list(train_folds(config, x, y, train_sets, FOLD_SEEDS))

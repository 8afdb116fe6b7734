import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enas.nn import (
    EARLY_STOP_MIN_DELTA,
    EARLY_STOP_PATIENCE,
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
    binary_cross_entropy,
    forward,
    glorot_uniform,
    init_params,
    layer_dims,
    loss_and_gradients,
    param_views,
    predict,
    train,
)
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
        seed=0,
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

    def test_bad_fans_rejected(self):
        with pytest.raises(ValueError):
            glorot_uniform(0, 3, make_rng(0))


def _model(cfg, width, params):
    return TrainedModel(params=params, dims=layer_dims(width, cfg), activations=cfg.activations)


class TestForward:
    def _zero_model(self, width=3):
        cfg = _config()
        return _model(cfg, width, np.zeros_like(init_params(cfg, width, make_rng(0))))

    def test_zero_weights_give_half(self):
        model = self._zero_model()
        out = forward(model, np.ones((5, 3)))
        assert np.allclose(out, 0.5)

    def test_single_unit_identity_at_zero_input(self):
        # one weighted path: sigmoid(w*x + b) with w=1, b=0, x=0 -> 0.5
        model = TrainedModel(params=np.array([1.0, 0.0]), dims=(1, 1), activations=("sigmoid",))
        assert forward(model, np.array([[0.0]]))[0] == pytest.approx(0.5)

    def test_parameter_count_must_fit_dims(self):
        model = TrainedModel(params=np.zeros(3), dims=(1, 1), activations=("sigmoid",))
        with pytest.raises(TrainingError, match="parameters"):
            forward(model, np.array([[0.0]]))

    def test_output_length_matches_batch(self):
        model = self._zero_model()
        assert forward(model, np.ones((7, 3))).shape == (7,)

    def test_dimension_mismatch(self):
        model = self._zero_model(width=3)
        with pytest.raises(TrainingError, match="columns"):
            forward(model, np.ones((2, 4)))

    def test_outputs_strictly_inside_unit_interval(self):
        cfg = _config(hidden_layers=2, activations=("tanh", "relu", "linear", "sigmoid"))
        model = _model(cfg, 4, init_params(cfg, 4, make_rng(9)))
        out = forward(model, make_rng(10).uniform(-50, 50, size=(100, 4)))
        assert (out > 0.0).all() and (out < 1.0).all()


class TestBinaryCrossEntropy:
    def test_half_probability_gives_ln2(self):
        assert binary_cross_entropy(np.array([0.5]), np.array([1])) == pytest.approx(math.log(2))

    def test_perfect_prediction_is_near_zero(self):
        assert binary_cross_entropy(np.array([1.0 - 1e-7]), np.array([1])) < 1e-6

    def test_symmetric_pair_gives_ln2(self):
        value = binary_cross_entropy(np.array([0.5, 0.5]), np.array([0, 1]))
        assert value == pytest.approx(math.log(2))

    def test_length_mismatch(self):
        with pytest.raises(TrainingError):
            binary_cross_entropy(np.array([0.5, 0.5]), np.array([1]))


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


def _steps(kind, value, grads, **kwargs):
    """Values of a one-entry parameter after each step against ``grads``."""
    params = np.array([value])
    optimizer = Optimizer(kind, 1, **kwargs)
    seen = []
    for g in grads:
        optimizer.step(params, np.array([g]))
        seen.append(float(params[0]))
    return seen, optimizer


class TestOptimizerStep:
    def test_sgd_basic_step(self):
        (p,), _ = _steps("sgd", 1.0, [0.5], learning_rate=0.1)
        assert p == pytest.approx(0.95)

    def test_adam_first_step_is_one_learning_rate(self):
        # bias-corrected first step: lr * g / (|g| + eps) for g=1
        (p,), optimizer = _steps("adam", 1.0, [1.0])
        assert p == pytest.approx(1.0 - 0.001 / (1.0 + 1e-7), abs=1e-12)
        assert optimizer.t == 1

    def test_zero_gradient_leaves_sgd_param(self):
        assert _steps("sgd", 2.0, [0.0])[0] == [2.0]

    def test_zero_gradient_leaves_adam_param(self):
        assert _steps("adam", 2.0, [0.0])[0] == [2.0]

    def test_unknown_optimizer(self):
        with pytest.raises(TrainingError):
            Optimizer("sparrow", 1)

    @pytest.mark.parametrize("kind", ["sgd", "adam", "adamax", "rmsprop"])
    def test_step_moves_against_gradient(self, kind):
        (p, p2), _ = _steps(kind, 1.0, [1.0, 1.0])
        assert p < 1.0
        assert p2 < p

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
            optimizer.step(params, grad)
            grads = [g for layer in param_views(grad, dims) for g in layer]
            for tensor, g, state in zip(tensors, grads, states):
                _reference_update(kind, tensor, g, state, DEFAULT_LEARNING_RATES[kind])
        assert np.array_equal(params, np.concatenate([t.ravel() for t in tensors]))


class TestTrain:
    def test_descends_on_separable_points(self):
        x = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        model = train(_config(epochs=50, batch_size=2), x, y)
        assert model.loss_history[-1] < model.loss_history[0]

    def test_single_epoch(self):
        x = np.array([[0.0], [1.0]])
        model = train(_config(epochs=1, batch_size=2), x, np.array([0, 1]))
        assert len(model.loss_history) == 1
        assert model.epochs_run == 1
        assert not model.stopped_early

    def test_constant_loss_stops_at_epoch_six(self):
        # zero learning rate freezes the parameters, so epoch 1 sets the
        # best loss and epochs 2-6 are five straight non-improvements
        x = np.array([[0.0], [1.0], [0.5], [0.25]])
        y = np.array([0, 1, 1, 0])
        model = train(_config(epochs=50, learning_rate=0.0), x, y)
        assert model.stopped_early
        assert model.epochs_run == EARLY_STOP_PATIENCE + 1 == 6
        assert len(model.loss_history) == 6

    def test_bit_identical_replay(self, small_dataset):
        cfg = _config(epochs=8, seed=123)
        a = train(cfg, small_dataset.features, small_dataset.labels)
        b = train(cfg, small_dataset.features, small_dataset.labels)
        assert a.loss_history == b.loss_history

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_flags_model(self, small_dataset):
        # linear layers with an absurd step size overflow within an epoch
        cfg = _config(
            optimizer="sgd",
            epochs=30,
            activations=("linear", "linear", "sigmoid"),
            learning_rate=1e60,
        )
        model = train(cfg, small_dataset.features, small_dataset.labels)
        assert model.diverged
        assert not np.isfinite(model.loss_history[-1])
        assert model.epochs_run == len(model.loss_history) <= 30

    def test_bad_labels_rejected(self):
        with pytest.raises(TrainingError):
            train(_config(), np.ones((2, 1)), np.array([1, 2]))

    def test_loss_history_length_bounded_by_epochs(self, small_dataset):
        model = train(_config(epochs=5), small_dataset.features, small_dataset.labels)
        assert model.epochs_run == len(model.loss_history) <= 5

    def test_predict_thresholds_at_half(self, small_dataset):
        model = train(_config(epochs=20), small_dataset.features, small_dataset.labels)
        hard = predict(model, small_dataset.features)
        soft = forward(model, small_dataset.features)
        assert np.array_equal(hard, (soft >= 0.5).astype(int))


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
        stopper = EarlyStopper(patience=2, min_delta=0.1)
        assert not stopper.update(1.0)
        assert not stopper.update(0.9)  # improvement of exactly min_delta: stale
        assert stopper.update(0.91)


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
                seed=trial,
            )
            width = int(rng.integers(2, 6))
            params = init_params(cfg, width, rng)
            grad, scratch = np.empty_like(params), np.empty_like(params)
            dims = layer_dims(width, cfg)
            layers, grad_layers = param_views(params, dims), param_views(grad, dims)
            scratch_layers = param_views(scratch, dims)
            x = rng.uniform(0, 1, size=(6, width))
            y = rng.integers(0, 2, size=6).astype(float)
            loss_and_gradients(layers, cfg.activations, x, y, grad_layers)
            h = 1e-5
            for i in range(params.size):
                original = params[i]
                params[i] = original + h
                up = loss_and_gradients(layers, cfg.activations, x, y, scratch_layers)
                params[i] = original - h
                down = loss_and_gradients(layers, cfg.activations, x, y, scratch_layers)
                params[i] = original
                fd = (up - down) / (2 * h)
                scale = max(abs(fd), abs(grad[i]), 1e-8)
                assert abs(fd - grad[i]) / scale < 1e-4

"""Dense feed-forward networks trained with mini-batch gradient descent.

The network shape is driven by two genes: the hidden layer count and a
single node width shared by all non-output layers. A network with H
hidden layers has H + 2 weighted layers (input projection, H hidden,
one sigmoid output unit) and therefore H + 2 activation entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SUPPORTED_ACTIVATIONS = ("relu", "sigmoid", "tanh", "linear")
SUPPORTED_OPTIMIZERS = ("sgd", "adam", "adamax", "rmsprop")

# Framework-style defaults: plain SGD steps at 0.01, moment-based
# optimizers at 0.001 with canonical moment constants.
DEFAULT_LEARNING_RATES = {"sgd": 0.01, "adam": 0.001, "adamax": 0.001, "rmsprop": 0.001}
BETA_1 = 0.9
BETA_2 = 0.999
RMS_RHO = 0.9
OPT_EPS = 1e-7

LOSS_EPS = 1e-7
EARLY_STOP_PATIENCE = 5
EARLY_STOP_MIN_DELTA = 1e-4

# Per-layer (weights, bias) views of one flat parameter vector.
Layers = list[tuple[np.ndarray, np.ndarray]]


class TrainingError(ValueError):
    """Invalid network configuration or incompatible training inputs."""


class EarlyStopper:
    """Patience rule on the epoch loss.

    Training stops at the first epoch for which none of the last
    `patience` epochs improved the best loss seen so far by more than
    `min_delta`.
    """

    def __init__(self, patience: int = EARLY_STOP_PATIENCE, min_delta: float = EARLY_STOP_MIN_DELTA):
        self.patience = patience
        self.min_delta = min_delta
        self.best = math.inf
        self.stale = 0

    def update(self, loss: float) -> bool:
        """Record one epoch loss; True means stop now."""
        if self.best - loss > self.min_delta:
            self.best = loss
            self.stale = 0
            return False
        self.stale += 1
        return self.stale >= self.patience


@dataclass(frozen=True)
class MLPConfig:
    """Architecture and training settings for one network."""

    hidden_layers: int
    nodes_per_hidden: int
    activations: tuple[str, ...]
    optimizer: str
    epochs: int
    batch_size: int
    seed: int = 0
    learning_rate: float | None = None  # None = optimizer default

    def __post_init__(self) -> None:
        if self.hidden_layers < 1 or self.nodes_per_hidden < 1:
            raise TrainingError("hidden_layers and nodes_per_hidden must be positive")
        if self.epochs < 1 or self.batch_size < 1:
            raise TrainingError("epochs and batch_size must be positive")
        if len(self.activations) != self.hidden_layers + 2:
            raise TrainingError(
                f"expected {self.hidden_layers + 2} activations for "
                f"{self.hidden_layers} hidden layers, got {len(self.activations)}"
            )
        if self.activations[-1] != "sigmoid":
            raise TrainingError("the output activation must be sigmoid")
        for name in self.activations:
            if name not in SUPPORTED_ACTIVATIONS:
                raise TrainingError(f"unsupported activation {name!r}")
        if self.optimizer not in SUPPORTED_OPTIMIZERS:
            raise TrainingError(f"unsupported optimizer {self.optimizer!r}")


@dataclass
class TrainedModel:
    """Flat parameters, their layer dims, and the training trace that produced them."""

    params: np.ndarray
    dims: tuple[int, ...]
    activations: tuple[str, ...]
    loss_history: list[float] = field(default_factory=list)
    stopped_early: bool = False
    epochs_run: int = 0
    diverged: bool = False

    @property
    def input_width(self) -> int:
        return int(self.dims[0])


def glorot_uniform(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """Weight matrix with entries uniform on [-L, L], L = sqrt(6/(fan_in+fan_out))."""
    if fan_in < 1 or fan_out < 1:
        raise ValueError("fan_in and fan_out must be positive")
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "sigmoid":
        # Split by sign so exp never overflows.
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out
    if name == "tanh":
        return np.tanh(z)
    if name == "linear":
        return z
    raise TrainingError(f"unsupported activation {name!r}")


def _activation_grad(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    if name == "relu":
        return (z > 0).astype(z.dtype)
    if name == "sigmoid":
        return a * (1.0 - a)
    if name == "tanh":
        return 1.0 - a * a
    if name == "linear":
        return np.ones_like(z)
    raise TrainingError(f"unsupported activation {name!r}")


def layer_dims(input_width: int, config: MLPConfig) -> tuple[int, ...]:
    """Unit counts per layer: input, H+1 hidden-width layers, 1 output."""
    return (input_width,) + (config.nodes_per_hidden,) * (config.hidden_layers + 1) + (1,)


def param_views(flat: np.ndarray, dims) -> Layers:
    """Per-layer (weights, bias) views of a flat vector laid out W0, b0, W1, b1, ...

    Weights are (fan_in, fan_out) row-major blocks. Writing to a view
    writes to ``flat``; this is the only place that knows the layout.
    """
    views = []
    start = 0
    for fan_in, fan_out in zip(dims, dims[1:]):
        end = start + fan_in * fan_out
        views.append((flat[start:end].reshape(fan_in, fan_out), flat[end : end + fan_out]))
        start = end + fan_out
    if start != flat.size:
        raise TrainingError(f"{flat.size} parameters do not fit layer dims {list(dims)}")
    return views


def init_params(config: MLPConfig, input_width: int, rng: np.random.Generator) -> np.ndarray:
    """Flat parameter vector: Glorot-uniform weights drawn layer by layer, zero biases."""
    dims = layer_dims(input_width, config)
    params = np.zeros(sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims, dims[1:])))
    for w, _ in param_views(params, dims):
        w[...] = glorot_uniform(w.shape[0], w.shape[1], rng)
    return params


def _forward_chain(
    layers: Layers, activations: tuple[str, ...], batch: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Pre-activations and activations per layer; batch is (rows, input_width)."""
    zs: list[np.ndarray] = []
    outs: list[np.ndarray] = [batch]
    for (w, b), act in zip(layers, activations):
        z = outs[-1] @ w + b
        zs.append(z)
        outs.append(_activate(act, z))
    return zs, outs


def forward(model: TrainedModel, batch: np.ndarray) -> np.ndarray:
    """Predicted positive-class probabilities, strictly inside (0, 1)."""
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if batch.shape[1] != model.input_width:
        raise TrainingError(
            f"batch has {batch.shape[1]} columns, model expects {model.input_width}"
        )
    _, outs = _forward_chain(param_views(model.params, model.dims), model.activations, batch)
    return np.clip(outs[-1].ravel(), LOSS_EPS, 1.0 - LOSS_EPS)


def predict(model: TrainedModel, batch: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Hard 0/1 labels at the given probability threshold."""
    return (forward(model, batch) >= threshold).astype(np.int64)


def binary_cross_entropy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood with predictions clipped away from 0/1."""
    p = np.asarray(predictions, dtype=np.float64).ravel()
    y = np.asarray(labels, dtype=np.float64).ravel()
    if p.shape != y.shape:
        raise TrainingError(f"length mismatch: {p.shape} vs {y.shape}")
    p = np.clip(p, LOSS_EPS, 1.0 - LOSS_EPS)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def loss_and_gradients(
    layers: Layers,
    activations: tuple[str, ...],
    batch: np.ndarray,
    labels: np.ndarray,
    grad_layers: Layers,
) -> float:
    """Mean BCE over the batch; its gradient goes into ``grad_layers``.

    ``layers`` and ``grad_layers`` are ``param_views`` of the parameter
    vector and of a gradient buffer with the same layout. The output
    delta folds the sigmoid and the cross-entropy together, which is
    exact as long as the loss clipping is inactive.
    """
    if activations[-1] != "sigmoid":
        raise TrainingError("gradients require a sigmoid output unit")
    zs, outs = _forward_chain(layers, activations, batch)
    p = outs[-1].ravel()
    y = np.asarray(labels, dtype=np.float64).ravel()
    loss = binary_cross_entropy(p, y)

    n = batch.shape[0]
    delta = ((p - y) / n).reshape(-1, 1)
    for layer in range(len(layers) - 1, -1, -1):
        grad_w, grad_b = grad_layers[layer]
        np.matmul(outs[layer].T, delta, out=grad_w)
        delta.sum(axis=0, out=grad_b)
        if layer > 0:
            delta = (delta @ layers[layer][0].T) * _activation_grad(
                activations[layer - 1], zs[layer - 1], outs[layer]
            )
    return loss


class Optimizer:
    """One optimizer's state over a flat parameter vector.

    ``m`` is the first moment and ``v`` the second (for adamax, the
    decayed infinity norm), each one array, with a single step count.
    Every step writes its intermediates into two scratch buffers made
    here, so a step allocates nothing the size of the parameters. Each
    expression keeps the operation order of the textbook form, e.g.
    ``(lr * m_hat) / (sqrt(v_hat) + eps)``, so results do not depend on
    how the parameters are laid out.
    """

    def __init__(self, kind: str, size: int, learning_rate: float | None = None):
        if kind not in SUPPORTED_OPTIMIZERS:
            raise TrainingError(f"unsupported optimizer {kind!r}")
        self.kind = kind
        self.lr = DEFAULT_LEARNING_RATES[kind] if learning_rate is None else learning_rate
        self.t = 0
        self.m = np.zeros(size) if kind in ("adam", "adamax") else None
        self.v = np.zeros(size) if kind != "sgd" else None
        self._a = np.empty(size)
        self._b = np.empty(size) if kind != "sgd" else None

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        """Update ``params`` against ``grad`` (both flat) and the state, in place."""
        kind, lr, m, v, a, b = self.kind, self.lr, self.m, self.v, self._a, self._b
        if kind == "sgd":
            params -= np.multiply(grad, lr, out=a)
            return
        self.t += 1
        if kind in ("adam", "adamax"):
            m *= BETA_1
            m += np.multiply(grad, 1.0 - BETA_1, out=a)
        if kind == "adam":
            v *= BETA_2
            v += np.multiply(np.multiply(grad, 1.0 - BETA_2, out=a), grad, out=a)
            np.multiply(np.divide(m, 1.0 - BETA_1**self.t, out=a), lr, out=a)
            np.sqrt(np.divide(v, 1.0 - BETA_2**self.t, out=b), out=b)
            b += OPT_EPS
        elif kind == "adamax":
            v *= BETA_2
            np.maximum(v, np.abs(grad, out=a), out=v)
            np.multiply(m, lr / (1.0 - BETA_1**self.t), out=a)
            np.add(v, OPT_EPS, out=b)
        else:  # rmsprop
            v *= RMS_RHO
            v += np.multiply(np.multiply(grad, 1.0 - RMS_RHO, out=a), grad, out=a)
            np.multiply(grad, lr, out=a)
            np.sqrt(v, out=b)
            b += OPT_EPS
        params -= np.divide(a, b, out=a)


def train(
    config: MLPConfig,
    train_features: np.ndarray,
    train_labels: np.ndarray,
    rng: np.random.Generator | None = None,
) -> TrainedModel:
    """Mini-batch gradient descent on binary cross-entropy.

    Stops at the configured epoch count, or earlier once the best epoch
    loss has not improved by more than the minimum delta for 5 epochs
    in a row. A non-finite epoch loss aborts training and flags the
    model as diverged.
    """
    x = np.asarray(train_features, dtype=np.float64)
    y = np.asarray(train_labels, dtype=np.float64).ravel()
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise TrainingError("features and labels disagree on the instance count")
    if not np.isin(y, (0.0, 1.0)).all():
        raise TrainingError("training labels must be 0 or 1")
    if rng is None:
        rng = np.random.default_rng(config.seed)

    dims = layer_dims(x.shape[1], config)
    params = init_params(config, x.shape[1], rng)
    grad = np.empty_like(params)
    layers, grad_layers = param_views(params, dims), param_views(grad, dims)
    optimizer = Optimizer(config.optimizer, params.size, config.learning_rate)

    model = TrainedModel(params=params, dims=dims, activations=config.activations)
    n = x.shape[0]
    stopper = EarlyStopper()

    for _ in range(config.epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            loss = loss_and_gradients(layers, config.activations, x[idx], y[idx], grad_layers)
            loss_sum += loss * idx.size
            optimizer.step(params, grad)
        epoch_loss = loss_sum / n
        model.loss_history.append(epoch_loss)
        model.epochs_run += 1

        if not math.isfinite(epoch_loss):
            model.diverged = True
            break
        if stopper.update(epoch_loss):
            model.stopped_early = True
            break

    return model

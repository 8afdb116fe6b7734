"""Dense feed-forward networks trained with mini-batch gradient descent.

The network shape is driven by two genes: the hidden layer count and a
single node width shared by all non-output layers. A network with H
hidden layers has H + 2 weighted layers (input projection, H hidden,
one sigmoid output unit) and therefore H + 2 activation entries.

A network's weights and biases live in one flat vector. Cross-validation
trains its k fold networks together (``train_folds``): their vectors are
the rows of one (g, P) stack, and each mini-batch step is one batched
forward/backward pass and one optimizer update over the whole stack,
bit-identical to training each fold alone. ``train`` is the one-fold case.
"""

from __future__ import annotations

import copy
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

# Parameters one lockstep stack may hold: g = max(1, min(k, C // P)) folds
# of P parameters each. The cap is about cache size: a stack whose state
# falls out of L2 steps more slowly per fold than the folds one at a time.
LOCKSTEP_PARAMS = 2**15

# Per-layer (weights, bias) views of one flat parameter vector or a stack.
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


def param_count(dims) -> int:
    """Weights and biases of one network with these layer dims."""
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims, dims[1:]))


def param_views(flat: np.ndarray, dims) -> Layers:
    """Per-layer (weights, bias) views of parameters laid out W0, b0, W1, b1, ...

    ``flat`` holds one network, shape (P,), or a stack of g networks,
    shape (g, P), one per row. Weights come out as (..., fan_in, fan_out)
    row-major blocks and biases as (..., 1, fan_out) rows. Writing to a
    view writes to ``flat``; this is the only place that knows the layout.
    """
    if flat.shape[-1] != param_count(dims):
        raise TrainingError(f"{flat.shape[-1]} parameters do not fit layer dims {list(dims)}")
    lead = flat.shape[:-1]
    views = []
    start = 0
    for fan_in, fan_out in zip(dims, dims[1:]):
        end = start + fan_in * fan_out
        views.append(
            (
                flat[..., start:end].reshape(lead + (fan_in, fan_out)),
                flat[..., end : end + fan_out].reshape(lead + (1, fan_out)),
            )
        )
        start = end + fan_out
    return views


def init_params(config: MLPConfig, input_width: int, rng: np.random.Generator) -> np.ndarray:
    """Flat parameter vector: Glorot-uniform weights drawn layer by layer, zero biases."""
    dims = layer_dims(input_width, config)
    params = np.zeros(param_count(dims))
    for w, _ in param_views(params, dims):
        w[...] = glorot_uniform(w.shape[0], w.shape[1], rng)
    return params


def _forward_chain(
    layers: Layers, activations: tuple[str, ...], batch: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Pre-activations and activations per layer; batch is (..., rows, input_width)."""
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


def binary_cross_entropy(predictions: np.ndarray, labels: np.ndarray):
    """Mean negative log-likelihood along the last axis, predictions clipped away from 0/1.

    One network's (n,) vectors give a scalar; a stack's (g, n) arrays give
    one loss per network.
    """
    p = np.asarray(predictions, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if p.shape != y.shape:
        raise TrainingError(f"shape mismatch: {p.shape} vs {y.shape}")
    p = np.clip(p, LOSS_EPS, 1.0 - LOSS_EPS)
    return -np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p), axis=-1)


def loss_and_gradients(
    layers: Layers,
    activations: tuple[str, ...],
    batch: np.ndarray,
    labels: np.ndarray,
    grad_layers: Layers,
):
    """Mean BCE over the batch; its gradient goes into ``grad_layers``.

    ``layers`` and ``grad_layers`` are ``param_views`` of the parameters
    and of a gradient buffer with the same layout. For one network the
    batch is (n, width) and the labels (n,); for a stack of g networks
    they are (g, n, width) and (g, n), every matmul is a batched one, and
    the result is one loss per network. The output delta folds the
    sigmoid and the cross-entropy together, which is exact as long as the
    loss clipping is inactive.
    """
    if activations[-1] != "sigmoid":
        raise TrainingError("gradients require a sigmoid output unit")
    zs, outs = _forward_chain(layers, activations, batch)
    p = outs[-1][..., 0]
    y = np.asarray(labels, dtype=np.float64)
    loss = binary_cross_entropy(p, y)

    delta = ((p - y) / batch.shape[-2])[..., None]
    for layer in range(len(layers) - 1, -1, -1):
        grad_w, grad_b = grad_layers[layer]
        np.matmul(outs[layer].swapaxes(-1, -2), delta, out=grad_w)
        delta.sum(axis=-2, keepdims=True, out=grad_b)
        if layer > 0:
            delta = (delta @ layers[layer][0].swapaxes(-1, -2)) * _activation_grad(
                activations[layer - 1], zs[layer - 1], outs[layer]
            )
    return loss


class Optimizer:
    """One optimizer's state over flat parameters: one network or a stack.

    ``m`` is the first moment and ``v`` the second (for adamax, the
    decayed infinity norm), each one array of the parameters' shape. ``t``
    holds one step count per network, so networks of a stack that take
    different numbers of steps keep their own bias corrections. Every
    step writes its intermediates into two scratch buffers made here, so
    a step allocates nothing the size of the parameters. Each expression
    keeps the operation order of the textbook form, e.g.
    ``(lr * m_hat) / (sqrt(v_hat) + eps)``, so results do not depend on
    how the parameters are laid out or stacked.
    """

    def __init__(self, kind: str, shape, learning_rate: float | None = None):
        if kind not in SUPPORTED_OPTIMIZERS:
            raise TrainingError(f"unsupported optimizer {kind!r}")
        self.kind = kind
        self.lr = DEFAULT_LEARNING_RATES[kind] if learning_rate is None else learning_rate
        self.m = np.zeros(shape) if kind in ("adam", "adamax") else None
        self.v = np.zeros(shape) if kind != "sgd" else None
        self._a = np.empty(shape)
        self._b = np.empty(shape) if kind != "sgd" else None
        self.t = np.zeros(self._a.shape[:-1], dtype=np.int64)

    def rows(self, index) -> Optimizer:
        """The state of the stacked networks at ``index``.

        A slice gives views, so stepping the result steps these rows of
        ``self``; an index array gives a compacted copy.
        """
        part = copy.copy(self)
        for name in ("m", "v", "_a", "_b", "t"):
            value = getattr(self, name)
            setattr(part, name, None if value is None else value[index])
        return part

    def _per_network(self, correction) -> np.ndarray:
        # One Python float per network from its own step count, shaped to
        # broadcast over that network's row.
        values = [correction(t) for t in self.t.ravel().tolist()]
        return np.array(values).reshape(self.t.shape + (1,))

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        """Update ``params`` against ``grad`` (both of the state's shape) in place."""
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
            m_correction = self._per_network(lambda t: 1.0 - BETA_1**t)
            v_correction = self._per_network(lambda t: 1.0 - BETA_2**t)
            np.multiply(np.divide(m, m_correction, out=a), lr, out=a)
            np.sqrt(np.divide(v, v_correction, out=b), out=b)
            b += OPT_EPS
        elif kind == "adamax":
            v *= BETA_2
            np.maximum(v, np.abs(grad, out=a), out=v)
            np.multiply(m, self._per_network(lambda t: lr / (1.0 - BETA_1**t)), out=a)
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
    """One network trained on all given rows: ``train_folds`` with a single fold.

    ``rng`` draws the initial weights and the batch order; by default it
    is ``np.random.default_rng(config.seed)``.
    """
    rows = np.arange(np.shape(train_labels)[0])
    seed = config.seed if rng is None else rng
    return train_folds(config, train_features, train_labels, [rows], [seed])[0]


def train_folds(
    config: MLPConfig,
    features: np.ndarray,
    labels: np.ndarray,
    train_sets,
    seeds,
) -> list[TrainedModel]:
    """Mini-batch gradient descent on binary cross-entropy, one network per fold.

    Fold f trains on the rows of ``features`` indexed by ``train_sets[f]``
    and draws its initial weights, then one batch order per epoch, from
    its own ``np.random.default_rng(seeds[f])`` (a seed or a Generator).
    A fold stops at the configured epoch count, or earlier once its best
    epoch loss has not improved by more than the minimum delta for 5
    epochs in a row. A non-finite epoch loss stops it and flags it as
    diverged.

    Folds train in lockstep groups of up to ``LOCKSTEP_PARAMS`` parameters:
    one stacked step per mini-batch serves the whole group, and each
    network comes out bit-identical to training it alone.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64).ravel()
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise TrainingError("features and labels disagree on the instance count")
    if len(train_sets) != len(seeds):
        raise TrainingError(f"{len(train_sets)} training sets but {len(seeds)} seeds")
    if any(len(rows) == 0 for rows in train_sets):
        raise TrainingError("every fold needs at least one training row")
    if not np.isin(y[np.concatenate(train_sets)], (0.0, 1.0)).all():
        raise TrainingError("training labels must be 0 or 1")

    dims = layer_dims(x.shape[1], config)
    group = max(1, min(len(train_sets), LOCKSTEP_PARAMS // param_count(dims)))
    models: list[TrainedModel] = []
    for first in range(0, len(train_sets), group):
        chunk = slice(first, first + group)
        models += _train_lockstep(config, x, y, dims, train_sets[chunk], seeds[chunk])
    return models


def _train_lockstep(config, x, y, dims, train_sets, seeds) -> list[TrainedModel]:
    """Train the networks of one group as one (g, P) stack; see ``train_folds``.

    Training sets may differ in size. Every step in which each live fold
    has the same number of rows runs on the whole stack; the one or two
    ragged tail steps of an epoch run fold by fold on one-row slices.
    Nothing is padded, since a padded row would change the gradient sums.
    A fold that stops is dropped from the stack: the rows still training
    are copied into a smaller one.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    params = np.stack([init_params(config, x.shape[1], rng) for rng in rngs])
    grad = np.empty_like(params)
    optimizer = Optimizer(config.optimizer, params.shape, config.learning_rate)
    models = [TrainedModel(params=row, dims=dims, activations=config.activations) for row in params]
    stoppers = [EarlyStopper() for _ in train_sets]
    live = list(range(len(train_sets)))  # fold of each stack row
    batch, acts = config.batch_size, config.activations

    for _ in range(config.epochs):
        sizes = [len(train_sets[f]) for f in live]
        rows = np.zeros((len(live), max(sizes)), dtype=np.intp)
        for r, f in enumerate(live):
            rows[r, : sizes[r]] = train_sets[f][rngs[f].permutation(sizes[r])]
        bx, by = x[rows], y[rows]
        loss_sum = np.zeros(len(live))

        # Rows every live fold steps through together: all of them when the
        # folds are the same size, else every full batch of the smallest.
        shared = max(sizes) if min(sizes) == max(sizes) else min(sizes) - min(sizes) % batch
        layers, grad_layers = param_views(params, dims), param_views(grad, dims)
        for start in range(0, shared, batch):
            end = min(start + batch, shared)
            batch_x, batch_y = bx[:, start:end], by[:, start:end]
            losses = loss_and_gradients(layers, acts, batch_x, batch_y, grad_layers)
            loss_sum += losses * (end - start)
            optimizer.step(params, grad)
        for start in range(shared, max(sizes), batch):
            for r, size in enumerate(sizes):
                end = min(start + batch, size)
                if end <= start:
                    continue
                row = slice(r, r + 1)
                loss_sum[row] += (end - start) * loss_and_gradients(
                    param_views(params[row], dims),
                    acts,
                    bx[row, start:end],
                    by[row, start:end],
                    param_views(grad[row], dims),
                )
                optimizer.rows(row).step(params[row], grad[row])

        stopped = []
        for r, (f, epoch_loss) in enumerate(zip(live, (loss_sum / sizes).tolist())):
            model = models[f]
            model.loss_history.append(epoch_loss)
            model.epochs_run += 1
            if not math.isfinite(epoch_loss):
                model.diverged = True
            elif stoppers[f].update(epoch_loss):
                model.stopped_early = True
            else:
                continue
            stopped.append(r)
            # Compaction below copies the live rows out, so this stack is
            # never written again and a row view of it is final.
            model.params = params[r]
        if stopped:
            keep = [r for r in range(len(live)) if r not in stopped]
            live = [live[r] for r in keep]
            if not live:
                break
            params, grad, optimizer = params[keep], grad[keep], optimizer.rows(keep)

    for r, f in enumerate(live):
        models[f].params = params[r]
    return models

"""Dense feed-forward networks trained with mini-batch gradient descent.

The network shape is driven by two genes: the hidden layer count and a
single node width shared by all non-output layers. A network with H
hidden layers has H + 2 weighted layers (input projection, H hidden,
one sigmoid output unit) and therefore H + 2 activation entries.

A network's weights and biases live in one flat vector. Cross-validation
trains its k fold networks together (``train_folds``): their vectors are
the rows of one (g, P) stack, and each mini-batch step is one batched
forward/backward pass and one optimizer update over the whole stack,
bit-identical to training each fold alone. ``train_folds`` yields the
models of one such lockstep group before it trains the next, so a caller
that scores and drops each model holds about one group's networks at a
time. ``train`` is the one-fold case.
A step returns the output pre-activations of its batch. Once per epoch, a
network's epoch loss is taken from them as one mean of its training
rows' ``row_losses``. The optimizer update then consumes the gradient
buffer: it serves as the update's scratch space until the next step
rewrites it.

Two rules keep a step's numpy calls few and cheap without changing a
double of its results. Every scalar operand of the step is a read-only
0-d float64 module constant (``Optimizer.lr`` too), so numpy takes it as
it is instead of converting a Python float on each call. A one-row batch
skips the mean's divide by n (x / 1 is x) and copies its delta into each
bias gradient in place of a sum over one row.
"""

from __future__ import annotations

import bisect
import copy
import itertools
import math
from collections.abc import Iterator
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


def _scalar(value: float) -> np.ndarray:
    """``value`` as a read-only 0-d float64 array: the same double, but an
    operand numpy takes as it is, where it converts a Python float again
    on every call."""
    value = np.array(value, dtype=np.float64)
    value.flags.writeable = False
    return value


# The step's scalar operands.
_ZERO, _HALF, _ONE = _scalar(0.0), _scalar(0.5), _scalar(1.0)
_BETA_1, _BETA_2, _RMS_RHO = _scalar(BETA_1), _scalar(BETA_2), _scalar(RMS_RHO)
_BETA_1_C, _BETA_2_C, _RMS_RHO_C = (_scalar(1.0 - b) for b in (BETA_1, BETA_2, RMS_RHO))
_OPT_EPS = _scalar(OPT_EPS)

LOSS_EPS = 1e-7
# Per-row loss range: the losses of a probability clipped to
# [LOSS_EPS, 1 - LOSS_EPS], about 1e-7 to 16.118. The upper cap keeps an
# overconfident wrong row finite, so only a NaN output diverges.
LOSS_RANGE = (-math.log(1.0 - LOSS_EPS), -math.log(LOSS_EPS))
EARLY_STOP_PATIENCE = 5
EARLY_STOP_MIN_DELTA = 1e-4

# Parameters one lockstep stack may hold: g = max(1, min(k, C // P)) folds
# of P parameters each. The cap is about cache size: a stack whose state
# falls out of L2 steps more slowly per fold than the folds one at a time.
LOCKSTEP_PARAMS = 2**15

# Per-layer (weights, bias) views of one flat parameter vector or a stack.
Layers = list[tuple[np.ndarray, np.ndarray]]


class TrainingError(ValueError):
    """Invalid network configuration, or parameters that do not fit it."""


class EarlyStopper:
    """Patience rule on the epoch loss.

    Training stops at the first epoch for which none of the last
    ``EARLY_STOP_PATIENCE`` epochs improved the best loss seen so far by
    more than ``EARLY_STOP_MIN_DELTA``.
    """

    def __init__(self):
        self.best = math.inf
        self.stale = 0

    def update(self, loss: float) -> bool:
        """Record one epoch loss; True means stop now."""
        if self.best - loss > EARLY_STOP_MIN_DELTA:
            self.best = loss
            self.stale = 0
            return False
        self.stale += 1
        return self.stale >= EARLY_STOP_PATIENCE


@dataclass(frozen=True)
class MLPConfig:
    """The network a genome encodes: its architecture and training genes."""

    hidden_layers: int
    nodes_per_hidden: int
    activations: tuple[str, ...]
    optimizer: str
    epochs: int
    batch_size: int

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

    @property
    def epochs_run(self) -> int:
        return len(self.loss_history)

    @property
    def diverged(self) -> bool:
        """Training stopped on a non-finite epoch loss."""
        return bool(self.loss_history) and not math.isfinite(self.loss_history[-1])


def glorot_uniform(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """Weight matrix with entries uniform on [-L, L], L = sqrt(6/(fan_in+fan_out))."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _activate(name: str, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The activation of ``z``, written to ``out``: a new array by default, or ``z`` itself."""
    if name == "relu":
        return np.maximum(z, _ZERO, out=out)
    if name == "sigmoid":
        # 0.5 * (1 + tanh(z / 2)): equal to 1 / (1 + exp(-z)), with no
        # exp to overflow; exactly 0 and 1 at -inf and +inf.
        out = np.multiply(z, _HALF, out=out)
        np.tanh(out, out=out)
        out += _ONE
        out *= _HALF
        return out
    if name == "tanh":
        return np.tanh(z, out=out)
    return z  # linear


def _activation_grad(name: str, a: np.ndarray) -> np.ndarray:
    """Derivative of a sigmoid or tanh unit, from its activation ``a``."""
    if name == "sigmoid":
        return a * (_ONE - a)
    return _ONE - a * a


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
) -> list[np.ndarray]:
    """Each layer's input, then the output pre-activation; batch is (..., rows, input_width).

    A hidden layer's activation overwrites its pre-activation. The output
    layer's pre-activation is left as it is: the loss is computed from it.
    """
    outs = [batch]
    for (w, b), act in zip(layers, activations[:-1]):
        z = outs[-1] @ w
        z += b
        outs.append(_activate(act, z, out=z))
    w, b = layers[-1]
    z = outs[-1] @ w
    z += b
    outs.append(z)
    return outs


def predict(model: TrainedModel, batch: np.ndarray) -> np.ndarray:
    """Hard 0/1 labels: 1 where the output unit's sigmoid is at least 0.5.

    A NaN output labels its row 0.
    """
    z = _forward_chain(param_views(model.params, model.dims), model.activations, batch)[-1]
    return (_activate("sigmoid", z, out=z).ravel() >= 0.5).astype(np.int64)


def row_losses(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Binary cross-entropy of each row, from its output pre-activation z.

    A row's loss is softplus((1 - 2y) z), i.e. -log p for y = 1 and
    -log(1 - p) for y = 0, capped to ``LOSS_RANGE``. A batch's loss is the
    mean of its rows' losses.
    """
    rows = np.multiply(labels, -2.0)
    rows += 1.0
    rows *= logits
    np.logaddexp(0.0, rows, out=rows)
    np.maximum(rows, LOSS_RANGE[0], out=rows)
    np.minimum(rows, LOSS_RANGE[1], out=rows)
    return rows


def loss_and_gradients(
    layers: Layers,
    activations: tuple[str, ...],
    batch: np.ndarray,
    labels: np.ndarray,
    grad_layers: Layers,
    weights_t: list[np.ndarray],
) -> np.ndarray:
    """The batch's output pre-activations; its mean loss's gradient goes into ``grad_layers``.

    ``layers`` and ``grad_layers`` are ``param_views`` of the parameters
    and of a gradient buffer with the same layout; ``weights_t`` holds each
    layer's weights transposed. For one network the batch is (n, width)
    and the labels and the result (n,); for a stack of g networks they are
    (g, n, width) and (g, n), and every matmul is a batched one. The
    batch's loss is the mean of ``row_losses`` of the result; a trainer
    takes one mean per epoch instead.

    The output delta p - y folds the sigmoid and the cross-entropy
    together, which is exact as long as the loss cap is inactive.
    """
    outs = _forward_chain(layers, activations, batch)
    delta = _activate("sigmoid", outs[-1])
    delta -= labels[..., None]
    one_row = batch.shape[-2] == 1
    if not one_row:
        delta /= batch.shape[-2]
    for layer in range(len(layers) - 1, -1, -1):
        grad_w, grad_b = grad_layers[layer]
        np.matmul(outs[layer].swapaxes(-1, -2), delta, out=grad_w)
        if one_row:
            np.copyto(grad_b, delta)
        else:
            np.add.reduce(delta, axis=-2, keepdims=True, out=grad_b)
        if layer > 0:
            delta = delta @ weights_t[layer]
            act = activations[layer - 1]
            if act == "relu":
                # the layer's output is positive exactly where its input is
                delta *= outs[layer] > _ZERO
            elif act != "linear":
                delta *= _activation_grad(act, outs[layer])
    return outs[-1][..., 0]


class _BiasCorrection:
    """1 - beta**t for arrays of step counts t, looked up in a table.

    The entries are Python floats, so each is the same double as the
    textbook expression for its t. The table grows on demand, doubling,
    and ends at the first t whose correction is exactly 1.0 (t = 356 for
    ``BETA_1``, 37,412 for ``BETA_2``); every later t reads that entry.
    """

    def __init__(self, beta: float):
        self.beta = beta
        self.table = np.array([1.0 - beta**t for t in range(64)])
        self.mode = "raise"  # "clip" once the table is complete

    def __call__(self, t: np.ndarray) -> np.ndarray:
        while True:
            try:
                return self.table.take(t, mode=self.mode)
            except IndexError:
                self._grow()

    def _grow(self) -> None:
        size = len(self.table)
        more = [1.0 - self.beta**t for t in range(size, 2 * size)]
        if 1.0 in more:
            more = more[: more.index(1.0) + 1]
            self.mode = "clip"
        self.table = np.concatenate([self.table, more])


_M_CORRECTION = _BiasCorrection(BETA_1)
_V_CORRECTION = _BiasCorrection(BETA_2)


class Optimizer:
    """One optimizer's state over flat parameters: one network or a stack.

    ``m`` is the first moment and ``v`` the second (for adamax, the
    decayed infinity norm), each one array of the parameters' shape. ``t``
    holds one step count per network, so networks of a stack that take
    different numbers of steps keep their own bias corrections. A step
    writes its intermediates into one scratch buffer made here (none for
    ``sgd``) and into the gradient it consumes, so it allocates nothing
    the size of the parameters. Each expression keeps the operation order
    of the textbook form, e.g.
    ``(lr * m_hat) / (sqrt(v_hat) + eps)``, so results do not depend on
    how the parameters are laid out or stacked.
    """

    def __init__(self, kind: str, shape):
        shape = tuple(np.atleast_1d(shape))
        self.kind = kind
        self.lr = _scalar(DEFAULT_LEARNING_RATES[kind])
        self.m = np.zeros(shape) if kind in ("adam", "adamax") else None
        self.v = np.zeros(shape) if kind != "sgd" else None
        self._a = np.empty(shape) if kind != "sgd" else None
        # one count per network, shaped to broadcast over its row
        self.t = np.zeros(shape[:-1] + (1,), dtype=np.int64)

    def rows(self, index) -> Optimizer:
        """The state of the stacked networks at ``index``.

        A slice gives views, so stepping the result steps these rows of
        ``self``; an index array gives a compacted copy.
        """
        part = copy.copy(self)
        for name in ("m", "v", "_a", "t"):
            value = getattr(self, name)
            setattr(part, name, None if value is None else value[index])
        return part

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        """Update ``params`` against ``grad`` (both of the state's shape) in place.

        ``grad`` is consumed: after its last read, the step writes intermediates there.
        """
        kind, lr, m, v, a = self.kind, self.lr, self.m, self.v, self._a
        if kind == "sgd":
            params -= np.multiply(grad, lr, out=grad)
            return
        self.t += 1
        if kind in ("adam", "adamax"):
            m *= _BETA_1
            m += np.multiply(grad, _BETA_1_C, out=a)
        if kind == "adam":
            v *= _BETA_2
            v += np.multiply(np.multiply(grad, _BETA_2_C, out=a), grad, out=a)
            np.multiply(np.divide(m, _M_CORRECTION(self.t), out=a), lr, out=a)
            np.sqrt(np.divide(v, _V_CORRECTION(self.t), out=grad), out=grad)
            grad += _OPT_EPS
        elif kind == "adamax":
            v *= _BETA_2
            np.maximum(v, np.abs(grad, out=a), out=v)
            np.multiply(m, np.divide(lr, _M_CORRECTION(self.t)), out=a)
            np.add(v, _OPT_EPS, out=grad)
        else:  # rmsprop
            v *= _RMS_RHO
            v += np.multiply(np.multiply(grad, _RMS_RHO_C, out=a), grad, out=a)
            np.multiply(grad, lr, out=a)
            np.sqrt(v, out=grad)
            grad += _OPT_EPS
        params -= np.divide(a, grad, out=a)


def train(
    config: MLPConfig,
    train_features: np.ndarray,
    train_labels: np.ndarray,
    seed: int | np.random.Generator,
) -> TrainedModel:
    """One network trained on all given rows: ``train_folds`` with a single fold.

    ``np.random.default_rng(seed)`` draws the initial weights and the
    batch order; a Generator is used as it is.
    """
    rows = np.arange(np.shape(train_labels)[0])
    return next(train_folds(config, train_features, train_labels, [rows], [seed]))


def train_folds(
    config: MLPConfig,
    features: np.ndarray,
    labels: np.ndarray,
    train_sets,
    seeds,
) -> Iterator[TrainedModel]:
    """Mini-batch gradient descent on binary cross-entropy, one network per fold.

    Fold f trains on the rows of ``features`` indexed by ``train_sets[f]``
    and draws its initial weights, then one batch order per epoch, from
    its own ``np.random.default_rng(seeds[f])`` (a seed or a Generator).
    A fold's epoch loss is the mean loss of its training rows over the
    epoch. It stops at the configured epoch count, or earlier once its best
    epoch loss has not improved by more than the minimum delta for 5
    epochs in a row. A non-finite epoch loss stops it, as the last entry
    of its ``loss_history``, so the model reads as ``diverged``.

    Folds train in lockstep groups of up to ``LOCKSTEP_PARAMS`` parameters:
    one stacked step per mini-batch serves the whole group, and each
    network comes out bit-identical to training it alone. The models come
    out in fold order, lazily: a group trains when its first model is
    drawn, and the previous group is released by then unless the caller
    still holds its models. The data is a ``Dataset``'s, and each training
    set is non-empty, with one seed per set, as ``CrossValFitness`` ensures.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    dims = layer_dims(x.shape[1], config)
    group = max(1, min(len(train_sets), LOCKSTEP_PARAMS // param_count(dims)))
    return itertools.chain.from_iterable(
        _train_lockstep(config, x, y, dims, train_sets[i : i + group], seeds[i : i + group])
        for i in range(0, len(train_sets), group)
    )


def _train_lockstep(config, x, y, dims, train_sets, seeds) -> list[TrainedModel]:
    """Train the networks of one group as one (g, P) stack; see ``train_folds``.

    Training sets may differ in size, so the stack's rows are ordered by
    it. Every full batch of the smallest set is one step of the whole
    stack; in the last one or two batches of an epoch, each run of rows
    that share a batch end takes one step (``_epoch_plan``). Nothing is
    padded, since a padded row would change the gradient sums. A step's
    output pre-activations go into a per-epoch buffer, and the epoch loss
    of stack row r is the mean of the ``row_losses`` of its n entries
    there, in batch order. A fold that stops is dropped from the stack:
    the rows still training are copied into a smaller one.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    live = sorted(range(len(train_sets)), key=lambda f: len(train_sets[f]))  # fold of each row
    sizes = [len(train_sets[f]) for f in live]
    params = np.stack([init_params(config, x.shape[1], rngs[f]) for f in live])
    grad = np.empty_like(params)
    optimizer = Optimizer(config.optimizer, params.shape)
    models = {
        f: TrainedModel(params=row, dims=dims, activations=config.activations)
        for f, row in zip(live, params)
    }
    stoppers = [EarlyStopper() for _ in train_sets]
    batch, acts = config.batch_size, config.activations
    steps, logits = _stack_steps(params, grad, optimizer, dims, sizes, batch)

    for _ in range(config.epochs):
        rows = np.zeros(logits.shape, dtype=np.intp)
        for r, f in enumerate(live):
            rows[r, : sizes[r]] = train_sets[f][rngs[f].permutation(sizes[r])]
        bx, by = x[rows], y[rows]
        for stack, cols, (layers, weights_t, grad_layers, opt, stack_params, stack_grad) in steps:
            logits[stack, cols] = loss_and_gradients(
                layers, acts, bx[stack, cols], by[stack, cols], grad_layers, weights_t
            )
            opt.step(stack_params, stack_grad)
        losses = row_losses(logits, by)

        stopped = []
        for r, (f, n) in enumerate(zip(live, sizes)):
            epoch_loss = float(losses[r, :n].mean())
            model = models[f]
            model.loss_history.append(epoch_loss)
            if not model.diverged:
                if not stoppers[f].update(epoch_loss):
                    continue
                model.stopped_early = True
            stopped.append(r)
            # Compaction below copies the live rows out, so this stack is
            # never written again and a row view of it is final.
            model.params = params[r]
        if stopped:
            keep = [r for r in range(len(live)) if r not in stopped]
            live, sizes = [live[r] for r in keep], [sizes[r] for r in keep]
            if not live:
                break
            params, grad, optimizer = params[keep], grad[keep], optimizer.rows(keep)
            steps, logits = _stack_steps(params, grad, optimizer, dims, sizes, batch)

    for r, f in enumerate(live):
        models[f].params = params[r]
    return [models[f] for f in range(len(train_sets))]


def _epoch_plan(sizes: list[int], batch: int) -> list[tuple[int, int, int, int]]:
    """The steps of one epoch, in order, as (first, last, start, end): stack
    rows first..last-1 step on their batch entries start..end-1.

    ``sizes``, each row's training-set size, ascend. The full batches of
    the smallest set step the whole stack. After them, the rows that still
    have entries and share a batch end are adjacent, and step together.
    """
    g, shared = len(sizes), sizes[0] - sizes[0] % batch
    plan = [(0, g, start, start + batch) for start in range(0, shared, batch)]
    for start in range(shared, sizes[-1], batch):
        first = bisect.bisect_right(sizes, start)
        while first < g:
            end = min(start + batch, sizes[first])
            last = g if end == start + batch else bisect.bisect_right(sizes, end)
            plan.append((first, last, start, end))
            first = last
    return plan


def _stack_steps(params, grad, optimizer, dims, sizes, batch):
    """``_epoch_plan`` as (rows, cols, views) steps, and a zeroed logits buffer.

    The views of a step's rows are its parameter, weight-transpose and
    gradient views, its optimizer state, and its parameter and gradient
    rows; steps on the same rows share them. The buffer's padding stays
    zero, so the per-row losses of an epoch are finite wherever the
    network's outputs are.
    """
    views = {}
    steps = []
    for first, last, start, end in _epoch_plan(sizes, batch):
        if (first, last) not in views:
            stack = slice(first, last)
            layers = param_views(params[stack], dims)
            views[first, last] = (
                layers,
                [w.swapaxes(-1, -2) for w, _ in layers],
                param_views(grad[stack], dims),
                optimizer.rows(stack),
                params[stack],
                grad[stack],
            )
        steps.append((slice(first, last), slice(start, end), views[first, last]))
    return steps, np.zeros((len(sizes), sizes[-1]))

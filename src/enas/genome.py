"""Candidate genomes: architecture genes plus four self-adaptation genes.

A genome carries both the network architecture (depth, width,
activations, optimizer, epochs, batch size) and the evolutionary
control values it would impose on the whole population if it became
the fittest individual: its own mutation rate, population size,
cloning rate and generation budget. The control genes cross over and
mutate exactly like any other gene. Every gene is declared once, in
``GENES``; sampling, breeding and serialization all read that table.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .nn import SUPPORTED_ACTIVATIONS, SUPPORTED_OPTIMIZERS, MLPConfig

# Hard rails for the self-adaptation genes; narrower per-run bounds may
# be configured, wider ones may not.
POPULATION_LIMITS = (3, 50)
GENERATION_LIMITS = (1, 500)
# The same for the integer architecture genes, so that every network the
# search can sample is one that can be allocated and trained. No run
# narrows the depth: every search draws it from this range.
HIDDEN_LAYER_LIMITS = (1, 4)
NODE_LIMITS = (1, 1024)
EPOCH_LIMITS = (1, 10_000)
# The batch sizes every search draws from; its optimizers and hidden
# activations are every one that training supports.
BATCH_SIZES = (1, 2, 4, 8, 16, 32)
# Integer gene -> its hard rails; every gene but the depth is also a
# SearchSpace field.
INTEGER_GENE_LIMITS = {
    "hidden_layers": HIDDEN_LAYER_LIMITS,
    "nodes": NODE_LIMITS,
    "epochs": EPOCH_LIMITS,
    "population_size": POPULATION_LIMITS,
    "max_generations": GENERATION_LIMITS,
}
# The beta priors of the two rate genes, with means 0.1 and 0.3 and usable
# upper tails. With both shapes above 1, numpy draws beta(a, b) as X / (X + Y)
# from two positive gamma draws, so a draw is never 0.0; it would round to 1.0
# only if Y were about 1e-16 times X, which these shapes never give in practice.
MUTATION_RATE_PRIOR = (2.0, 18.0)
CLONING_RATE_PRIOR = (3.0, 7.0)


@dataclass(frozen=True)
class SearchSpace:
    """The inclusive bounds a run samples its width, epoch and size genes from.

    Every other gene has a fixed prior; the depth, for one, is drawn from
    its hard rails ``HIDDEN_LAYER_LIMITS``.
    """

    nodes: tuple[int, int] = (2, 128)
    epochs: tuple[int, int] = (1, 100)
    population_size: tuple[int, int] = POPULATION_LIMITS
    max_generations: tuple[int, int] = GENERATION_LIMITS

    def __post_init__(self) -> None:
        for name in (f.name for f in fields(self)):
            lo, hi = getattr(self, name)
            limits = INTEGER_GENE_LIMITS[name]
            if lo > hi:
                raise ValueError(f"{name} low bound {lo} is above its high bound {hi}")
            if lo < limits[0] or hi > limits[1]:
                raise ValueError(f"{name} bounds must sit inside {limits}, got ({lo}, {hi})")


@dataclass(frozen=True)
class Genome:
    hidden_layers: int
    nodes: int
    activations: tuple[str, ...]
    optimizer: str
    epochs: int
    batch_size: int
    mutation_rate: float
    population_size: int
    cloning_rate: float
    max_generations: int


def config_from_genome(genome: Genome) -> MLPConfig:
    """Network settings taken from a genome's architecture genes."""
    return MLPConfig(
        hidden_layers=genome.hidden_layers,
        nodes_per_hidden=genome.nodes,
        activations=genome.activations,
        optimizer=genome.optimizer,
        epochs=genome.epochs,
        batch_size=genome.batch_size,
    )


def _uniform(field: str) -> Callable:
    """An integer drawn uniformly from the space's inclusive bounds ``field``, else its rails."""

    def prior(space: SearchSpace, rng: np.random.Generator) -> int:
        lo, hi = getattr(space, field, INTEGER_GENE_LIMITS[field])
        return int(rng.integers(lo, hi + 1))

    return prior


def _choice(options: tuple) -> Callable:
    """One of the fixed ``options``."""
    return lambda space, rng: options[int(rng.integers(0, len(options)))]


def _beta(shape: tuple[float, float]) -> Callable:
    """A rate drawn from the fixed beta prior ``shape``."""
    return lambda space, rng: float(rng.beta(*shape))


@dataclass(frozen=True)
class Gene:
    """How one gene is serialized and drawn."""

    key: str  # its name in the serialized document
    prior: Callable | None = None  # (space, rng) -> a draw


# Every gene, in Genome field order, which is also the document's key order
# and the order sample_genome draws in. The activation list has no prior of
# its own, because its length follows the depth.
GENES = {
    "hidden_layers": Gene("hidden_layers", _uniform("hidden_layers")),
    "nodes": Gene("nodes", _uniform("nodes")),
    "activations": Gene("activation functions"),
    "optimizer": Gene("optimiser", _choice(SUPPORTED_OPTIMIZERS)),
    "epochs": Gene("number of epochs", _uniform("epochs")),
    "batch_size": Gene("batch size", _choice(BATCH_SIZES)),
    "mutation_rate": Gene("mutation rate", _beta(MUTATION_RATE_PRIOR)),
    "population_size": Gene("population size", _uniform("population_size")),
    "cloning_rate": Gene("cloning rate", _beta(CLONING_RATE_PRIOR)),
    "max_generations": Gene("max generations", _uniform("max_generations")),
}
# The self-adaptation genes, which an adaptive run promotes to its live values.
CONTROL_GENES = ("mutation_rate", "population_size", "cloning_rate", "max_generations")
# crossover and mutate settle the depth, then the activation list, then the rest.
_BREEDING_ORDER = ("hidden_layers", "activations") + tuple(
    name for name in GENES if name not in ("hidden_layers", "activations")
)


def sample_gene(name: str, space: SearchSpace, rng: np.random.Generator):
    """Draw gene ``name``, which must have a prior, from its prior in ``space``."""
    return GENES[name].prior(space, rng)


def _rebuild_activations(source: tuple[str, ...], hidden_layers: int) -> tuple[str, ...]:
    """Fit an activation list onto a new depth; the output stays sigmoid."""
    body = list(source[:-1])
    needed = hidden_layers + 1
    if len(body) >= needed:
        body = body[:needed]
    else:
        body.extend([body[-1]] * (needed - len(body)))
    return tuple(body) + ("sigmoid",)


def _draw(name: str, genes: dict, space: SearchSpace, rng: np.random.Generator):
    """Draw gene ``name``; the activation list takes the depth already in ``genes``."""
    if name != "activations":
        return sample_gene(name, space, rng)
    picks = rng.integers(0, len(SUPPORTED_ACTIVATIONS), size=genes["hidden_layers"] + 1)
    return tuple(SUPPORTED_ACTIVATIONS[i] for i in picks) + ("sigmoid",)


def sample_genome(space: SearchSpace, rng: np.random.Generator) -> Genome:
    """Draw every gene from its prior."""
    genes: dict = {}
    for name in GENES:
        genes[name] = _draw(name, genes, space, rng)
    return Genome(**genes)


def _fitted(genes: dict) -> Genome:
    # A fresh activation list already fits; an inherited one is resized.
    genes["activations"] = _rebuild_activations(genes["activations"], genes["hidden_layers"])
    return Genome(**genes)


def crossover(a: Genome, b: Genome, rng: np.random.Generator) -> Genome:
    """Uniform crossover: every gene comes from either parent with equal odds.

    The activation list is inherited as a single gene from one donor and
    then resized to the child's depth.
    """
    return _fitted(
        {name: getattr(a if rng.random() < 0.5 else b, name) for name in _BREEDING_ORDER}
    )


def mutate(genome: Genome, rate: float, space: SearchSpace, rng: np.random.Generator) -> Genome:
    """Resample each gene from its prior independently with probability `rate`."""
    genes: dict = {}
    for name in _BREEDING_ORDER:
        resample = rng.random() < rate
        genes[name] = _draw(name, genes, space, rng) if resample else getattr(genome, name)
    return _fitted(genes)


def genome_to_doc(genome: Genome) -> dict:
    """Serialize to the canonical JSON-compatible gene document."""
    doc = {}
    for name, gene in GENES.items():
        value = getattr(genome, name)
        doc[gene.key] = list(value) if isinstance(value, tuple) else value
    return doc


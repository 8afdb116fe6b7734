"""Candidate genomes: architecture genes plus four self-adaptation genes.

A genome carries both the network architecture (depth, width,
activations, optimizer, epochs, batch size) and the evolutionary
control values it would impose on the whole population if it became
the fittest individual: its own mutation rate, population size,
cloning rate and generation budget. The control genes cross over and
mutate exactly like any other gene.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .nn import SUPPORTED_ACTIVATIONS, SUPPORTED_OPTIMIZERS

# Hard rails for the self-adaptation genes; narrower per-run bounds may
# be configured, wider ones may not.
POPULATION_LIMITS = (3, 50)
GENERATION_LIMITS = (1, 500)
# The same for the integer architecture genes, so that every network the
# search can sample is one that can be allocated and trained.
HIDDEN_LAYER_LIMITS = (1, 16)
NODE_LIMITS = (1, 1024)
EPOCH_LIMITS = (1, 10_000)
# Integer gene -> its hard rails; the gene names are also SearchSpace fields.
INTEGER_GENE_LIMITS = {
    "hidden_layers": HIDDEN_LAYER_LIMITS,
    "nodes": NODE_LIMITS,
    "epochs": EPOCH_LIMITS,
    "population_size": POPULATION_LIMITS,
    "max_generations": GENERATION_LIMITS,
}

# Serialized gene names, in serialization order.
_DOC_KEYS = (
    "hidden_layers",
    "nodes",
    "activation functions",
    "optimiser",
    "number of epochs",
    "batch size",
    "mutation rate",
    "population size",
    "cloning rate",
    "max generations",
)


class InvalidGenomeError(ValueError):
    """A genome violates its structural invariants or search-space bounds."""


@dataclass(frozen=True)
class SearchSpace:
    """Bounds and priors every gene is sampled from.

    Integer bounds are inclusive. The two rate genes are beta-distributed:
    the mutation-rate prior has mean 0.1 and the cloning-rate prior mean
    0.3, both with usable upper tails.
    """

    hidden_layers: tuple[int, int] = (1, 4)
    nodes: tuple[int, int] = (2, 128)
    epochs: tuple[int, int] = (1, 100)
    batch_sizes: tuple[int, ...] = (1, 2, 4, 8, 16, 32)
    optimizers: tuple[str, ...] = SUPPORTED_OPTIMIZERS
    activations: tuple[str, ...] = SUPPORTED_ACTIVATIONS
    mutation_rate_beta: tuple[float, float] = (2.0, 18.0)
    cloning_rate_beta: tuple[float, float] = (3.0, 7.0)
    population_size: tuple[int, int] = POPULATION_LIMITS
    max_generations: tuple[int, int] = GENERATION_LIMITS

    def __post_init__(self) -> None:
        for name, limits in INTEGER_GENE_LIMITS.items():
            lo, hi = getattr(self, name)
            if lo < limits[0] or hi > limits[1] or hi < lo:
                raise InvalidGenomeError(
                    f"{name} bounds must sit inside {limits}, got ({lo}, {hi})"
                )
        if not self.batch_sizes or not self.optimizers or not self.activations:
            raise InvalidGenomeError("choice sets must be non-empty")
        if min(self.batch_sizes) < 1:
            raise InvalidGenomeError(f"batch sizes must be positive, got {list(self.batch_sizes)}")
        for name, chosen, supported in (
            ("optimizers", self.optimizers, SUPPORTED_OPTIMIZERS),
            ("activations", self.activations, SUPPORTED_ACTIVATIONS),
        ):
            unknown = sorted(set(chosen) - set(supported))
            if unknown:
                raise InvalidGenomeError(
                    f"unsupported {name} {unknown}; expected {list(supported)}"
                )
        for value in self.mutation_rate_beta + self.cloning_rate_beta:
            if not value > 0:
                raise InvalidGenomeError("beta parameters must be positive")


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


def validate_genome(genome: Genome, space: SearchSpace | None = None) -> Genome:
    """Check all genome invariants and hard rails, and bounds when a space is given."""
    g = genome
    if len(g.activations) != g.hidden_layers + 2:
        raise InvalidGenomeError(
            f"{g.hidden_layers} hidden layers require {g.hidden_layers + 2} "
            f"activation entries, got {len(g.activations)}"
        )
    if g.activations[-1] != "sigmoid":
        raise InvalidGenomeError("the output activation must be sigmoid")
    if not 0.0 < g.mutation_rate < 1.0 or not 0.0 < g.cloning_rate < 1.0:
        raise InvalidGenomeError("mutation and cloning rates must lie inside (0, 1)")
    for name, limits in INTEGER_GENE_LIMITS.items():
        value = getattr(g, name)
        # The hard rails, then the run's own bounds when a space is given.
        for bounds in (limits, getattr(space, name, limits)):
            if not bounds[0] <= value <= bounds[1]:
                raise InvalidGenomeError(f"{name} value {value} outside bounds {bounds}")
    if g.batch_size < 1:
        raise InvalidGenomeError(f"batch size must be positive, got {g.batch_size}")
    if g.optimizer not in SUPPORTED_OPTIMIZERS:
        raise InvalidGenomeError(f"unsupported optimizer {g.optimizer!r}")
    unknown = sorted(set(g.activations) - set(SUPPORTED_ACTIVATIONS))
    if unknown:
        raise InvalidGenomeError(f"unsupported activations {unknown}")
    if space is not None:
        if g.batch_size not in space.batch_sizes:
            raise InvalidGenomeError(f"batch size {g.batch_size} not in {space.batch_sizes}")
        if g.optimizer not in space.optimizers:
            raise InvalidGenomeError(f"optimizer {g.optimizer!r} not in {space.optimizers}")
        for name in g.activations[:-1]:
            if name not in space.activations:
                raise InvalidGenomeError(f"activation {name!r} not in {space.activations}")
    return genome


def _uniform_int(bounds: tuple[int, int], rng: np.random.Generator) -> int:
    return int(rng.integers(bounds[0], bounds[1] + 1))


def sample_mutation_rate(rng: np.random.Generator, space: SearchSpace | None = None) -> float:
    """Mutation-rate prior: beta draw with mean 0.1, biased low, open tail."""
    a, b = (space or SearchSpace()).mutation_rate_beta
    return float(rng.beta(a, b))


def sample_cloning_rate(rng: np.random.Generator, space: SearchSpace | None = None) -> float:
    """Cloning-rate prior: beta draw with mean 0.3."""
    a, b = (space or SearchSpace()).cloning_rate_beta
    return float(rng.beta(a, b))


def sample_population_size(space: SearchSpace, rng: np.random.Generator) -> int:
    return _uniform_int(space.population_size, rng)


def sample_max_generations(space: SearchSpace, rng: np.random.Generator) -> int:
    return _uniform_int(space.max_generations, rng)


def _sample_activations(
    hidden_layers: int, space: SearchSpace, rng: np.random.Generator
) -> tuple[str, ...]:
    picks = rng.integers(0, len(space.activations), size=hidden_layers + 1)
    return tuple(space.activations[i] for i in picks) + ("sigmoid",)


def _rebuild_activations(source: tuple[str, ...], hidden_layers: int) -> tuple[str, ...]:
    """Fit an activation list onto a new depth; the output stays sigmoid."""
    body = list(source[:-1])
    needed = hidden_layers + 1
    if len(body) >= needed:
        body = body[:needed]
    else:
        body.extend([body[-1]] * (needed - len(body)))
    return tuple(body) + ("sigmoid",)


def sample_genome(space: SearchSpace, rng: np.random.Generator) -> Genome:
    """Draw every gene from its prior."""
    hidden_layers = _uniform_int(space.hidden_layers, rng)
    return Genome(
        hidden_layers=hidden_layers,
        nodes=_uniform_int(space.nodes, rng),
        activations=_sample_activations(hidden_layers, space, rng),
        optimizer=space.optimizers[int(rng.integers(0, len(space.optimizers)))],
        epochs=_uniform_int(space.epochs, rng),
        batch_size=int(space.batch_sizes[int(rng.integers(0, len(space.batch_sizes)))]),
        mutation_rate=sample_mutation_rate(rng, space),
        population_size=sample_population_size(space, rng),
        cloning_rate=sample_cloning_rate(rng, space),
        max_generations=sample_max_generations(space, rng),
    )


def crossover(a: Genome, b: Genome, rng: np.random.Generator) -> Genome:
    """Uniform crossover: every gene comes from either parent with equal odds.

    The activation list is inherited as a single gene from one donor and
    then resized to the child's depth.
    """

    def pick(x, y):
        return x if rng.random() < 0.5 else y

    hidden_layers = pick(a.hidden_layers, b.hidden_layers)
    donor_acts = pick(a.activations, b.activations)
    return Genome(
        hidden_layers=hidden_layers,
        nodes=pick(a.nodes, b.nodes),
        activations=_rebuild_activations(donor_acts, hidden_layers),
        optimizer=pick(a.optimizer, b.optimizer),
        epochs=pick(a.epochs, b.epochs),
        batch_size=pick(a.batch_size, b.batch_size),
        mutation_rate=pick(a.mutation_rate, b.mutation_rate),
        population_size=pick(a.population_size, b.population_size),
        cloning_rate=pick(a.cloning_rate, b.cloning_rate),
        max_generations=pick(a.max_generations, b.max_generations),
    )


def mutate(genome: Genome, rate: float, space: SearchSpace, rng: np.random.Generator) -> Genome:
    """Resample each gene from its prior independently with probability `rate`."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"mutation rate must lie in [0, 1], got {rate}")

    def maybe(old, sampler):
        return sampler() if rng.random() < rate else old

    hidden_layers = maybe(genome.hidden_layers, lambda: _uniform_int(space.hidden_layers, rng))
    activations_mutated = rng.random() < rate
    if activations_mutated:
        activations = _sample_activations(hidden_layers, space, rng)
    else:
        activations = _rebuild_activations(genome.activations, hidden_layers)
    return Genome(
        hidden_layers=hidden_layers,
        nodes=maybe(genome.nodes, lambda: _uniform_int(space.nodes, rng)),
        activations=activations,
        optimizer=maybe(
            genome.optimizer,
            lambda: space.optimizers[int(rng.integers(0, len(space.optimizers)))],
        ),
        epochs=maybe(genome.epochs, lambda: _uniform_int(space.epochs, rng)),
        batch_size=maybe(
            genome.batch_size,
            lambda: int(space.batch_sizes[int(rng.integers(0, len(space.batch_sizes)))]),
        ),
        mutation_rate=maybe(genome.mutation_rate, lambda: sample_mutation_rate(rng, space)),
        population_size=maybe(genome.population_size, lambda: sample_population_size(space, rng)),
        cloning_rate=maybe(genome.cloning_rate, lambda: sample_cloning_rate(rng, space)),
        max_generations=maybe(genome.max_generations, lambda: sample_max_generations(space, rng)),
    )


def genome_to_doc(genome: Genome) -> dict:
    """Serialize to the canonical JSON-compatible gene document."""
    return {
        "hidden_layers": genome.hidden_layers,
        "nodes": genome.nodes,
        "activation functions": list(genome.activations),
        "optimiser": genome.optimizer,
        "number of epochs": genome.epochs,
        "batch size": genome.batch_size,
        "mutation rate": genome.mutation_rate,
        "population size": genome.population_size,
        "cloning rate": genome.cloning_rate,
        "max generations": genome.max_generations,
    }


def genome_from_doc(doc: Mapping) -> Genome:
    """Parse the canonical gene document; optimizer/activation case is forgiven."""
    missing = [key for key in _DOC_KEYS if key not in doc]
    if missing:
        raise InvalidGenomeError(f"genome document missing keys: {missing}")
    genome = Genome(
        hidden_layers=int(doc["hidden_layers"]),
        nodes=int(doc["nodes"]),
        activations=tuple(str(a).lower() for a in doc["activation functions"]),
        optimizer=str(doc["optimiser"]).lower(),
        epochs=int(doc["number of epochs"]),
        batch_size=int(doc["batch size"]),
        mutation_rate=float(doc["mutation rate"]),
        population_size=int(doc["population size"]),
        cloning_rate=float(doc["cloning rate"]),
        max_generations=int(doc["max generations"]),
    )
    return validate_genome(genome)

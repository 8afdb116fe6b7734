"""Generational search loop with optional self-adaptation of its own knobs.

The parameters in force are always an ``EvolutionConfig``: the run's own
config with its four control values (mutation rate, population size,
cloning rate, generation budget) swapped for the ones now live; the
crossover rate, tournament size and elitism are module constants. Two
modes share one engine:

* static mode ("nas_plus"): the live config is the run's config, fixed
  for the whole run;
* adaptive mode ("enas"): the initial control values are drawn from the
  gene priors, and after each generation is evaluated the fittest
  individual's control genes replace them. A shrunken budget can halt
  the run immediately; a changed population size, always inside the
  search space's bounds, culls the weakest individuals or spawns fresh
  random ones.

Fitness is computed once per individual and cached on it; elites and
clones carry their records into later generations untouched, which is
what makes the best-so-far fitness provably non-decreasing. Each batch
of newcomers (the initial population, a generation's offspring, a
spawn) goes to the fitness function in one ``evaluate`` call, so an
evaluator can train the batch's same-config genomes together.
"""

from __future__ import annotations

import math
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Protocol, Sequence

from .fitness import FitnessRecord
from .genome import (
    CONTROL_GENES,
    Genome,
    SearchSpace,
    crossover,
    genome_to_doc,
    mutate,
    sample_gene,
    sample_genome,
)
from .seeding import derive_seed, make_rng


class Mode(str, Enum):
    NAS_PLUS = "nas_plus"
    ENAS = "enas"


class FitnessFunction(Protocol):
    def evaluate(self, pairs: Sequence[tuple[Genome, int]]) -> list[FitnessRecord]:
        """One record per (genome, seed) pair, in order; the same record for
        a pair whatever else is in the batch."""
        ...


# Breeding settings that no experiment varies: the baseline hand-sets only the
# four control values. Selection fits the tournament to a smaller population.
CROSSOVER_RATE = 0.9
TOURNAMENT_SIZE = 4
ELITISM_SIZE = 1  # the elite carries the best genome over, so the best score never regresses
# Upper limits of the static-mode population size and generation budget
# (``EvolutionConfig``), ten times its defaults of 100 and 500.
STATIC_POPULATION_MAX = 1_000
STATIC_GENERATION_MAX = 5_000


@dataclass(frozen=True)
class EvolutionConfig:
    """The four control values plus the gene search space.

    A run's config holds the static-mode settings. The engine's live
    config (``EvolutionState.live``) is a copy with the control values now
    in force: in adaptive mode the four ``CONTROL_GENES`` fields come from
    the genes. Every copy passes the same checks.
    """

    space: SearchSpace = SearchSpace()
    population_size: int = 100
    max_generations: int = 500
    mutation_rate: float = 0.2
    cloning_rate: float = 0.3

    def __post_init__(self) -> None:
        for rate_name in ("mutation_rate", "cloning_rate"):
            rate = getattr(self, rate_name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{rate_name} must lie in [0, 1], got {rate}")
        if not 2 <= self.population_size <= STATIC_POPULATION_MAX:  # an elite and an offspring
            raise ValueError(
                f"population_size must lie in [2, {STATIC_POPULATION_MAX}], "
                f"got {self.population_size}"
            )
        if not 1 <= self.max_generations <= STATIC_GENERATION_MAX:
            raise ValueError(
                f"max_generations must lie in [1, {STATIC_GENERATION_MAX}], "
                f"got {self.max_generations}"
            )


@dataclass
class Individual:
    id: int
    genome: Genome
    fitness: FitnessRecord | None = None
    birth_generation: int = 0


@dataclass(frozen=True)
class GenerationRecord:
    """One exported history row; the data behind the trajectory plots."""

    generation: int
    best_f1: float
    mean_f1: float
    mutation_rate: float
    population_size: int
    cloning_rate: float
    max_generations: int
    models_trained_cumulative: int


@dataclass
class EvolutionState:
    run_seed: int
    live: EvolutionConfig
    emit: Callable[[dict], None]  # called with each event of the run as it happens
    population: list[Individual] = field(default_factory=list)
    generation: int = 0
    next_id: int = 0
    models_trained: int = 0
    history: list[GenerationRecord] = field(default_factory=list)

    @property
    def best(self) -> Individual:
        """The fittest individual of the current population."""
        return best_individual(self.population)

    @property
    def halted(self) -> bool:
        """A promotion lowered the live generation budget below the current generation."""
        return self.generation > self.live.max_generations


class TasksLost(BrokenProcessPool):
    """A worker process died; ``tasks`` holds the indices of the tasks then in flight."""

    def __init__(self, message: str, tasks: list[int]):
        super().__init__(message)
        self.tasks = tasks


class EvaluatorPool:
    """Maps tasks to ``fn(*task)`` in task order, serially or in worker processes.

    ``fn`` must be a module-level function, so that workers can import it. No code in
    ``enas`` sums the ``wall_time`` of its results; only the benchmark's pool probe
    (``_evaluate_facts`` in ``perfbench/tracer.py``) does. ``jobs`` 1, or a single task,
    runs in the calling process; otherwise one worker per task, up to ``jobs``.
    Results come back in task order whatever the pool size, so with
    deterministic tasks the outcome is bit-identical for any ``jobs``.
    Tasks start in order, at most ``jobs`` at a time, and none starts once
    a task has failed: the tasks still running finish, and the error of the
    first failed task in task order is raised, or ``TasksLost`` if a worker
    process died.
    """

    def __init__(self, fn: Callable, jobs: int):
        self.fn = fn
        self.jobs = jobs

    def evaluate(self, tasks: Sequence[tuple]) -> list:
        workers = min(self.jobs, len(tasks))
        if workers <= 1:
            return [self.fn(*task) for task in tasks]
        with ProcessPoolExecutor(workers) as executor:
            futures = []
            try:
                for task in tasks:
                    running = [future for future in futures if not future.done()]
                    if len(running) == workers:
                        wait(running, return_when=FIRST_COMPLETED)
                    if any(future.done() and future.exception() for future in futures):
                        break
                    futures.append(executor.submit(self.fn, *task))
                return [future.result() for future in futures]
            except BrokenProcessPool as exc:
                # a broken pool fails every future it has not finished: those in flight
                lost = [
                    i for i, f in enumerate(futures) if isinstance(f.exception(), BrokenProcessPool)
                ]
                raise TasksLost(str(exc), lost) from exc


def _fittest_first(ind: Individual) -> tuple[float, int]:
    """The ranking key: highest mean F-measure first, ties broken towards the lower id."""
    return -ind.fitness.mean_f_measure, ind.id


def best_individual(population: list[Individual]) -> Individual:
    return min(population, key=_fittest_first)


def _born(
    state: EvolutionState, genome: Genome, generation: int, fitness: FitnessRecord | None = None
) -> Individual:
    """A new individual with the next free id; a clone passes its parent's fitness."""
    state.next_id += 1
    return Individual(state.next_id - 1, genome, fitness, birth_generation=generation)


def _evaluate_individuals(
    state: EvolutionState,
    individuals: list[Individual],
    fitness_fn: FitnessFunction,
    generation: int,
) -> None:
    """Evaluate a batch of newcomers in one call; seeds fix (run_seed, generation, id)."""
    records = fitness_fn.evaluate(
        [(ind.genome, derive_seed(state.run_seed, generation, ind.id)) for ind in individuals]
    )
    for ind, record in zip(individuals, records):
        ind.fitness = record
        state.models_trained += record.models_trained
        state.emit({
            "type": "evaluation", "individual": ind.id, "genome": genome_to_doc(ind.genome),
            "per_fold": list(record.per_fold), "mean_f_measure": record.mean_f_measure,
            "models_trained": record.models_trained, "wall_time": record.wall_time,
            "diverged_folds": list(record.diverged_folds), "generation": generation,
        })


def init(
    mode: Mode,
    config: EvolutionConfig,
    fitness_fn: FitnessFunction,
    run_seed: int,
    emit: Callable[[dict], None],
) -> EvolutionState:
    """Spawn and evaluate the initial random population."""
    rng = make_rng(run_seed, "init")
    live = config
    if mode is Mode.ENAS:
        # Before any individual has been evaluated there is no fittest to
        # copy from, so the initial live values are drawn from the same
        # priors as the genes; the first promotion replaces them.
        live = replace(
            live, **{name: sample_gene(name, config.space, rng) for name in CONTROL_GENES}
        )

    state = EvolutionState(run_seed=run_seed, live=live, emit=emit)
    state.population = [
        _born(state, sample_genome(config.space, rng), 0) for _ in range(live.population_size)
    ]
    _evaluate_individuals(state, state.population, fitness_fn, generation=0)
    return state


def _tournament_size(state: EvolutionState) -> int:
    """``TOURNAMENT_SIZE``, fitted to the current population.

    Only selection fits it, so a freshly shrunken population never starves
    selection and a regrown one breeds with the full size again.
    """
    return min(TOURNAMENT_SIZE, len(state.population))


def tournament_select(state: EvolutionState, rng) -> Individual:
    """Pick the fittest of `_tournament_size` distinct random individuals."""
    population = state.population
    picks = rng.choice(len(population), size=_tournament_size(state), replace=False)
    return best_individual([population[i] for i in picks])


def clone_count(population_size: int, cloning_rate: float) -> int:
    """Clones to select beyond the automatic elite copies.

    The total round(cloning_rate * population_size) includes the elite,
    so the elite count is subtracted; the floor keeps the elite alive
    even when the rate rounds to zero.
    """
    total = math.floor(population_size * cloning_rate + 0.5)
    return max(total, ELITISM_SIZE) - ELITISM_SIZE


def next_generation(state: EvolutionState, fitness_fn: FitnessFunction) -> None:
    """Assemble and evaluate the next population: elites, clones, offspring."""
    live = state.live
    new_generation = state.generation + 1
    rng = make_rng(state.run_seed, "breed", new_generation)
    target = live.population_size

    ranked = sorted(state.population, key=_fittest_first)
    elites = ranked[:ELITISM_SIZE]

    clones = []
    for _ in range(clone_count(target, live.cloning_rate)):
        winner = tournament_select(state, rng)
        clones.append(_born(state, winner.genome, new_generation, winner.fitness))

    offspring = []
    for _ in range(target - len(elites) - len(clones)):
        first = tournament_select(state, rng)
        if rng.random() < CROSSOVER_RATE:
            second = tournament_select(state, rng)
            child = crossover(first.genome, second.genome, rng)
        else:
            child = first.genome
        child = mutate(child, live.mutation_rate, live.space, rng)
        offspring.append(_born(state, child, new_generation))

    state.generation = new_generation
    _evaluate_individuals(state, offspring, fitness_fn, generation=new_generation)
    state.population = elites + clones + offspring
    state.emit({
        "type": "bred", "generation": new_generation, "elites": [ind.id for ind in elites],
        "clones": [ind.id for ind in clones], "offspring": [ind.id for ind in offspring],
    })


def resize_population(
    state: EvolutionState, new_size: int, rng, fitness_fn: FitnessFunction
) -> None:
    """Grow with fresh random genomes or cull the weakest down to `new_size`.

    ``new_size`` is a promoted population-size gene, so it already lies
    inside the search space's bounds and is used as it is.
    """
    current = len(state.population)
    if new_size > current:
        spawned = [
            _born(state, sample_genome(state.live.space, rng), state.generation)
            for _ in range(new_size - current)
        ]
        _evaluate_individuals(state, spawned, fitness_fn, generation=state.generation)
        state.population.extend(spawned)
        ids = [ind.id for ind in spawned]
        state.emit({"type": "spawn", "generation": state.generation, "ids": ids})
    elif new_size < current:
        # Ascending fitness; among equals the older individual goes first,
        # which keeps fresher genetic material around.
        order = sorted(
            state.population,
            key=lambda ind: (ind.fitness.mean_f_measure, ind.birth_generation, ind.id),
        )
        removed = order[: current - new_size]
        removed_ids = {ind.id for ind in removed}
        state.population = [ind for ind in state.population if ind.id not in removed_ids]
        state.emit({
            "type": "cull", "generation": state.generation,
            "removed": [
                {"id": ind.id, "fitness": ind.fitness.mean_f_measure,
                 "birth_generation": ind.birth_generation}
                for ind in removed
            ],
            "survivor_fitness_min": min(ind.fitness.mean_f_measure for ind in state.population),
        })
    state.live = replace(state.live, population_size=new_size)


def apply_eco_genes(state: EvolutionState, fitness_fn: FitnessFunction) -> None:
    """Promote the fittest individual's control genes to the live config (adaptive mode).

    When the newly promoted generation budget is already exceeded, the
    run has halted (``state.halted``) and the population is left untouched.
    """
    fittest = state.best
    genes = fittest.genome
    # The population size goes live in resize_population, unless the run halts.
    state.live = replace(
        state.live,
        mutation_rate=genes.mutation_rate,
        cloning_rate=genes.cloning_rate,
        max_generations=genes.max_generations,
    )

    state.emit({
        "type": "promotion", "generation": state.generation, "fittest": fittest.id,
        **{name: getattr(genes, name) for name in CONTROL_GENES}, "halted": state.halted,
    })
    if state.halted:
        return
    rng = make_rng(state.run_seed, "resize", state.generation)
    resize_population(state, genes.population_size, rng, fitness_fn)


def _record_generation(state: EvolutionState) -> None:
    best = state.best
    mean = sum(ind.fitness.mean_f_measure for ind in state.population) / len(
        state.population
    )
    state.history.append(
        GenerationRecord(
            generation=state.generation,
            best_f1=best.fitness.mean_f_measure,
            mean_f1=mean,
            **{name: getattr(state.live, name) for name in CONTROL_GENES},
            models_trained_cumulative=state.models_trained,
        )
    )
    state.emit({
        "type": "generation_end", "generation": state.generation,
        "population_len": len(state.population),
        "live_population_size": state.live.population_size,
        "tournament_size": _tournament_size(state), "best": best.id,
    })


def run(
    mode: Mode,
    config: EvolutionConfig,
    fitness_fn: FitnessFunction,
    run_seed: int,
    emit: Callable[[dict], None],
) -> EvolutionState:
    """Execute one full search, passing each event to ``emit`` as it happens, and
    return its final state. No clock is read, so with a deterministic ``fitness_fn``
    equal arguments give equal states.

    Per generation: evaluate, promote control genes (adaptive mode,
    which may resize the population or halt the run), record history,
    then breed, so freshly promoted rates govern the very next breeding
    step. The loop ends once the generation counter reaches the live
    budget, or has passed a budget that a promotion lowered (a halt).
    """
    state = init(mode, config, fitness_fn, run_seed, emit)
    while True:
        if mode is Mode.ENAS:
            apply_eco_genes(state, fitness_fn)
        _record_generation(state)
        if state.generation >= state.live.max_generations:
            break
        next_generation(state, fitness_fn)
    return state

import math
import time
from dataclasses import asdict, dataclass, replace
from types import SimpleNamespace
from typing import Sequence

import pytest

from enas import evolution, nn
from enas.evolution import (
    CROSSOVER_RATE,
    ELITISM_SIZE,
    STATIC_GENERATION_MAX,
    STATIC_POPULATION_MAX,
    TOURNAMENT_SIZE,
    EvaluatorPool,
    EvolutionConfig,
    EvolutionState,
    Individual,
    Mode,
    apply_eco_genes,
    best_individual,
    clone_count,
    init,
    next_generation,
    resize_population,
    run,
    tournament_select,
)
from enas.data import kfold_split
from enas.fitness import CrossValFitness, FitnessRecord
from enas.genome import (
    CONTROL_GENES,
    Genome,
    SearchSpace,
    sample_genome,
)
from enas.seeding import make_rng
from enas.synthetic import make_threshold_dataset

DESK_SPACE = SearchSpace(population_size=(3, 20), max_generations=(1, 40), nodes=(2, 32))
DESK_CONFIG = EvolutionConfig(space=DESK_SPACE, population_size=8, max_generations=12)


@dataclass(frozen=True)
class SyntheticFitness:
    """Closed-form genome scoring: no training, microsecond evaluations.

    The score is a smooth bump peaked at a mid-sized architecture with a
    small seeded noise term, so selection pressure exists but evaluations
    stay deterministic per (genome, seed).
    """

    noise: float = 0.02
    folds: int = 1

    def evaluate(self, pairs: Sequence[tuple[Genome, int]]) -> list[FitnessRecord]:
        return [self(genome, seed) for genome, seed in pairs]

    def __call__(self, genome: Genome, seed: int) -> FitnessRecord:
        shape = (
            ((genome.nodes - 64) / 96.0) ** 2
            + ((genome.hidden_layers - 2) / 3.0) ** 2
            + ((genome.epochs - 50) / 90.0) ** 2
            + ((genome.batch_size - 8) / 24.0) ** 2
        )
        base = 0.7 * math.exp(-shape)
        bonus = 0.1 if genome.optimizer == "adam" else 0.0
        relu_share = sum(1 for a in genome.activations[:-1] if a == "relu")
        bonus += 0.1 * relu_share / (len(genome.activations) - 1)
        jitter = float(make_rng(seed, "synthetic").normal(0.0, self.noise))
        score = min(max(base + bonus + jitter, 0.0), 1.0)
        return FitnessRecord(per_fold=(score,) * self.folds, wall_time=0.0)


def _record(score):
    return FitnessRecord(per_fold=(score,))


def _individual(ident, score, birth=0, genome=None):
    genome = genome or sample_genome(DESK_SPACE, make_rng(1000 + ident))
    return Individual(id=ident, genome=genome, fitness=_record(score), birth_generation=birth)


def discard(event):
    """An ``emit`` for a search whose events the test does not read."""


def run_logged(mode, config, fitness, run_seed):
    """``run``'s final state, and the events it emitted, in order."""
    events = []
    return run(mode, config, fitness, run_seed, events.append), events


def _state(scores, generation=0):
    population = [_individual(i, s) for i, s in enumerate(scores)]
    # A lone individual is below any config's population size, so the live
    # size then stays at the space's floor.
    live = EvolutionConfig(
        space=DESK_SPACE,
        population_size=max(len(population), DESK_SPACE.population_size[0]),
        max_generations=40,
    )
    return EvolutionState(
        run_seed=42,
        live=live,
        emit=discard,
        population=population,
        generation=generation,
        next_id=len(population),
    )


def _sleep_then_report(index, delay):
    time.sleep(delay)
    return SimpleNamespace(index=index, finished=time.monotonic(), wall_time=delay)


def _fail_first_else_mark(index, marker_dir):
    if index == 0:
        raise RuntimeError("task 0 failed")
    time.sleep(0.2)
    (marker_dir / str(index)).touch()
    return SimpleNamespace(wall_time=0.2)


def _slow_first_fail_second_else_mark(index, marker_dir):
    if index == 0:
        time.sleep(0.5)
    elif index == 1:
        raise RuntimeError("task 1 failed")
    else:
        time.sleep(0.05)
        (marker_dir / str(index)).touch()
    return SimpleNamespace(wall_time=0.0)


class TestEvaluatorPool:
    def test_results_in_task_order_when_earlier_tasks_cost_more(self):
        tasks = [(0, 0.8), (1, 0.2), (2, 0.0), (3, 0.0)]
        results = EvaluatorPool(_sleep_then_report, jobs=2).evaluate(tasks)
        assert [r.index for r in results] == [0, 1, 2, 3]
        # The cheap tasks really did finish first, in the second worker.
        assert results[2].finished < results[0].finished

    def test_no_task_starts_after_the_first_failure(self, tmp_path):
        tasks = [(index, tmp_path) for index in range(12)]
        with pytest.raises(RuntimeError, match="task 0 failed"):
            EvaluatorPool(_fail_first_else_mark, jobs=2).evaluate(tasks)
        # A worker may already hold the next few tasks, but not all eleven.
        assert len(list(tmp_path.iterdir())) < 11

    def test_failure_stops_the_pool_before_its_turn_in_task_order(self, tmp_path):
        # Task 1 fails while task 0 still runs: the free worker starts nothing
        # more, although the failure is raised only once task 0 has finished.
        tasks = [(index, tmp_path) for index in range(12)]
        with pytest.raises(RuntimeError, match="task 1 failed"):
            EvaluatorPool(_slow_first_fail_second_else_mark, jobs=2).evaluate(tasks)
        assert list(tmp_path.iterdir()) == []


class TestCloneCount:
    def test_thirty_percent_of_ten_with_one_elite(self):
        # total round(0.3 * 10) = 3 clones, one of which is the elite
        assert clone_count(10, 0.3) == 2

    def test_tiny_rate_floors_at_the_elite(self):
        assert clone_count(10, 0.04) == 0

    def test_half_rate_counts_the_elite(self):
        assert clone_count(4, 0.5) == 1

    def test_round_half_up(self):
        # round(2.5) is 3 here, where round-half-to-even would give 2
        assert clone_count(10, 0.25) == 2


class TestTournament:
    def test_population_of_one(self):
        state = _state([0.5])
        assert tournament_select(state, make_rng(0)).id == 0

    def test_full_tournament_returns_global_best(self):
        state = _state([0.1, 0.9, 0.4])
        for seed in range(10):
            assert tournament_select(state, make_rng(seed)).id == 1

    def test_oversized_tournament_clamps_to_population(self):
        state = _state([0.1, 0.9, 0.4])
        assert tournament_select(state, make_rng(0)).id == 1

    def test_ties_break_to_lower_id(self):
        state = _state([0.5, 0.5, 0.5])
        assert tournament_select(state, make_rng(0)).id == 0


class TestInit:
    def test_default_static_parameters(self):
        # the out-of-the-box baseline: population 100 for 500 generations,
        # 90% crossover, 20% mutation, tournament of 4, one elite
        config = EvolutionConfig()
        state = init(Mode.NAS_PLUS, config, SyntheticFitness(), run_seed=1, emit=discard)
        assert state.live == config
        assert (
            config.population_size,
            config.max_generations,
            CROSSOVER_RATE,
            config.mutation_rate,
            config.cloning_rate,
            TOURNAMENT_SIZE,
            ELITISM_SIZE,
        ) == (100, 500, 0.9, 0.2, 0.3, 4, 1)
        assert len(state.population) == 100

    def test_static_mode_uses_configured_live_params(self):
        config = EvolutionConfig(space=DESK_SPACE, population_size=12, max_generations=25)
        state = init(Mode.NAS_PLUS, config, SyntheticFitness(), run_seed=7, emit=discard)
        assert state.live.population_size == 12
        assert state.live.max_generations == 25
        assert state.live.mutation_rate == 0.2
        assert len(state.population) == 12
        assert all(ind.fitness is not None for ind in state.population)

    def test_adaptive_mode_population_within_bounds(self):
        for seed in range(5):
            state = init(Mode.ENAS, DESK_CONFIG, SyntheticFitness(), run_seed=seed, emit=discard)
            lo, hi = DESK_SPACE.population_size
            assert lo <= len(state.population) <= hi

    def test_deterministic_population(self):
        a = init(Mode.ENAS, DESK_CONFIG, SyntheticFitness(), run_seed=11, emit=discard)
        b = init(Mode.ENAS, DESK_CONFIG, SyntheticFitness(), run_seed=11, emit=discard)
        assert [ind.genome for ind in a.population] == [ind.genome for ind in b.population]

    def test_invalid_config_rejected(self):
        # a population of one holds the elite and no offspring
        with pytest.raises(ValueError, match=r"population_size must lie in \[2, "):
            EvolutionConfig(space=DESK_SPACE, population_size=1)
        EvolutionConfig(space=DESK_SPACE, population_size=2)
        with pytest.raises(ValueError, match="mutation_rate must lie in"):
            EvolutionConfig(space=DESK_SPACE, mutation_rate=1.5)

    def test_static_limits_admit_their_bound_only(self):
        EvolutionConfig(
            population_size=STATIC_POPULATION_MAX, max_generations=STATIC_GENERATION_MAX
        )
        with pytest.raises(ValueError, match="population_size must lie in"):
            EvolutionConfig(population_size=STATIC_POPULATION_MAX + 1)
        with pytest.raises(ValueError, match="max_generations must lie in"):
            EvolutionConfig(max_generations=STATIC_GENERATION_MAX + 1)


class TestNextGeneration:
    def test_best_never_worsens(self):
        state = init(Mode.NAS_PLUS, DESK_CONFIG, SyntheticFitness(), run_seed=3, emit=discard)
        best = best_individual(state.population).fitness.mean_f_measure
        for _ in range(5):
            next_generation(state, SyntheticFitness())
            new_best = best_individual(state.population).fitness.mean_f_measure
            assert new_best >= best
            best = new_best

    def test_population_size_constant_in_static_mode(self):
        state = init(Mode.NAS_PLUS, DESK_CONFIG, SyntheticFitness(), run_seed=4, emit=discard)
        for _ in range(4):
            next_generation(state, SyntheticFitness())
            assert len(state.population) == DESK_CONFIG.population_size

    def test_degenerate_operators_copy_tournament_winners(self, monkeypatch):
        monkeypatch.setattr(evolution, "CROSSOVER_RATE", 0.0)
        config = EvolutionConfig(
            space=DESK_SPACE, population_size=6, max_generations=5, mutation_rate=0.0
        )
        state = init(Mode.NAS_PLUS, config, SyntheticFitness(), run_seed=5, emit=discard)
        parents = {ind.genome for ind in state.population}
        next_generation(state, SyntheticFitness())
        assert {ind.genome for ind in state.population} <= parents

    def test_elite_keeps_identity_and_cached_fitness(self):
        state = init(Mode.NAS_PLUS, DESK_CONFIG, SyntheticFitness(), run_seed=6, emit=discard)
        elite = best_individual(state.population)
        record = elite.fitness
        next_generation(state, SyntheticFitness())
        survivor = next(ind for ind in state.population if ind.id == elite.id)
        assert survivor.fitness is record


class TestApplyEcoGenes:
    def test_promotes_fittest_control_genes(self):
        state = _state([0.2, 0.8, 0.5])
        fittest = state.population[1]
        apply_eco_genes(state, SyntheticFitness())
        assert not state.halted
        assert state.live.mutation_rate == fittest.genome.mutation_rate
        assert state.live.cloning_rate == fittest.genome.cloning_rate
        assert state.live.max_generations == fittest.genome.max_generations
        assert state.live.population_size == fittest.genome.population_size
        assert len(state.population) == fittest.genome.population_size

    def test_halts_when_generation_exceeds_new_budget(self):
        # the fittest carries a generation budget of 50 but we are at 60
        state = _state([0.2, 0.8, 0.5], generation=60)
        genome = replace(sample_genome(DESK_SPACE, make_rng(2001)), max_generations=50)
        state.population[1] = _individual(1, 0.8, genome=genome)
        before = list(state.population)
        apply_eco_genes(state, SyntheticFitness())
        assert state.halted
        assert state.population == before

    def test_regrown_population_breeds_with_the_configured_tournament(self):
        # selection fits the tournament to a population cut to 3 only while it is 3
        state = _state([0.2, 0.8, 0.5, 0.4, 0.6])
        sizes = []
        rng = SimpleNamespace(choice=lambda n, size, replace: sizes.append(size) or range(size))
        for population_size in (3, 5):
            fittest = best_individual(state.population)
            fittest.genome = replace(fittest.genome, population_size=population_size)
            apply_eco_genes(state, SyntheticFitness())
            assert len(state.population) == population_size
            tournament_select(state, rng)
        assert sizes == [3, TOURNAMENT_SIZE]


class TestResize:
    def test_growth_spawns_evaluated_newcomers(self):
        state = _state([0.4, 0.6, 0.5, 0.3, 0.7])
        state.generation = 2
        resize_population(state, 8, make_rng(1), SyntheticFitness())
        assert len(state.population) == 8
        newcomers = [ind for ind in state.population if ind.id >= 5]
        assert len(newcomers) == 3
        assert all(ind.birth_generation == 2 for ind in newcomers)
        assert all(ind.fitness is not None for ind in newcomers)

    def test_equal_size_is_a_no_op(self):
        state = _state([0.4, 0.6, 0.5])
        before = list(state.population)
        resize_population(state, 3, make_rng(1), SyntheticFitness())
        assert state.population == before

    def test_cull_removes_exactly_the_weakest(self):
        # ascending sort, then the first n = current - new are dropped
        state = _state([0.2, 0.9, 0.5, 0.7, 0.4])
        resize_population(state, 3, make_rng(1), SyntheticFitness())
        survivors = {ind.fitness.mean_f_measure for ind in state.population}
        assert survivors == {0.9, 0.7, 0.5}

    def test_cull_tie_break_removes_older_first(self):
        state = _state([0.5, 0.5, 0.5, 0.5])
        for ind, birth in zip(state.population, (0, 2, 1, 3)):
            ind.birth_generation = birth
        resize_population(state, 3, make_rng(1), SyntheticFitness())
        assert {ind.id for ind in state.population} == {1, 2, 3}


class TestRun:
    def test_static_run_records_configured_generations_plus_init(self):
        config = EvolutionConfig(space=DESK_SPACE, population_size=5, max_generations=3)
        result = run(Mode.NAS_PLUS, config, SyntheticFitness(), run_seed=9, emit=discard)
        assert result.generation == 3
        assert len(result.history) == 4  # init row plus one per generation
        assert [r.generation for r in result.history] == [0, 1, 2, 3]

    def test_static_live_params_never_change(self):
        config = EvolutionConfig(space=DESK_SPACE, population_size=5, max_generations=6)
        result = run(Mode.NAS_PLUS, config, SyntheticFitness(), run_seed=10, emit=discard)
        for row in result.history:
            assert row.mutation_rate == config.mutation_rate
            assert row.population_size == config.population_size
            assert row.cloning_rate == config.cloning_rate
            assert row.max_generations == config.max_generations

    def test_adaptive_run_terminates_within_budget_bounds(self):
        for seed in range(8):
            result = run(Mode.ENAS, DESK_CONFIG, SyntheticFitness(), run_seed=seed, emit=discard)
            assert result.generation <= DESK_SPACE.max_generations[1]

    def test_replay_is_identical(self):
        a = run(Mode.ENAS, DESK_CONFIG, SyntheticFitness(), run_seed=12, emit=discard)
        b = run(Mode.ENAS, DESK_CONFIG, SyntheticFitness(), run_seed=12, emit=discard)
        assert [asdict(r) for r in a.history] == [asdict(r) for r in b.history]

    def test_each_individual_evaluated_exactly_once(self):
        result, events = run_logged(Mode.ENAS, DESK_CONFIG, SyntheticFitness(), run_seed=13)
        evaluated = [e["individual"] for e in events if e["type"] == "evaluation"]
        assert len(evaluated) == len(set(evaluated))
        clones = {i for doc in events if doc["type"] == "bred" for i in doc["clones"]}
        assert set(evaluated) == set(range(result.next_id)) - clones

    def test_models_counter_matches_evaluations(self):
        fitness = SyntheticFitness(folds=3)
        result, events = run_logged(Mode.ENAS, DESK_CONFIG, fitness, run_seed=14)
        evaluations = [doc for doc in events if doc["type"] == "evaluation"]
        assert result.models_trained == 3 * len(evaluations)
        assert result.history[-1].models_trained_cumulative == result.models_trained

    def test_adaptive_run_returns_its_final_state(self):
        halted = set()
        for seed in range(5):
            state, events = run_logged(Mode.ENAS, DESK_CONFIG, SyntheticFitness(), run_seed=seed)
            promotion = [doc for doc in events if doc["type"] == "promotion"][-1]
            promoted = {name: promotion[name] for name in CONTROL_GENES}
            if promotion["halted"]:
                # a halting promotion leaves the population, and its size, as they were
                promoted["population_size"] = len(state.population)
            assert {name: getattr(state.live, name) for name in CONTROL_GENES} == promoted
            assert state.best is best_individual(state.population)
            halted.add(state.halted)
        assert halted == {False, True}

    @pytest.mark.parametrize("mode", list(Mode))
    def test_equal_inputs_give_equal_final_states(self, mode):
        # every individual and its fitness, the history, the live config and the counters
        first = run(mode, DESK_CONFIG, SyntheticFitness(), run_seed=3, emit=discard)
        second = run(mode, DESK_CONFIG, SyntheticFitness(), run_seed=3, emit=discard)
        assert first == second


class OneAtATime:
    """The batch protocol with no shared training: ``__call__`` once per pair."""

    def __init__(self, inner):
        self.inner = inner

    def evaluate(self, pairs):
        return [self.inner(genome, seed) for genome, seed in pairs]


class CountingFitness:
    """Records the size of every ``evaluate`` batch."""

    def __init__(self, inner):
        self.inner = inner
        self.batches = []

    def evaluate(self, pairs):
        self.batches.append(len(pairs))
        return self.inner.evaluate(pairs)


def _without_wall_time(events):
    return [{key: value for key, value in doc.items() if key != "wall_time"} for doc in events]


# One width and one epoch count, so that breeding yields same-config siblings.
NARROW_CONFIG = EvolutionConfig(
    space=SearchSpace(nodes=(2, 2), epochs=(1, 1), population_size=(3, 8), max_generations=(2, 6)),
    population_size=6,
    max_generations=4,
)


class TestBatchEvaluation:
    @pytest.mark.parametrize("mode", list(Mode))
    def test_run_with_shared_training_equals_one_genome_at_a_time(self, mode, monkeypatch):
        dataset = make_threshold_dataset(36, 3, seed=60)
        fitness = CrossValFitness(dataset, kfold_split(dataset, 3, seed=61))
        alone, alone_events = run_logged(mode, NARROW_CONFIG, OneAtATime(fitness), run_seed=62)
        networks = []
        real_train_folds = nn.train_folds

        def spy(config, x, y, train_sets, seeds):
            networks.append(len(train_sets))
            return real_train_folds(config, x, y, train_sets, seeds)

        monkeypatch.setattr(nn, "train_folds", spy)
        shared, shared_events = run_logged(mode, NARROW_CONFIG, fitness, run_seed=62)
        assert max(networks) > len(fitness.folds)  # some genomes did share a stack
        assert shared.history == alone.history
        assert shared.best.genome == alone.best.genome
        assert shared.best.fitness == alone.best.fitness
        assert _without_wall_time(shared_events) == _without_wall_time(alone_events)

    def test_one_evaluate_call_per_batch(self):
        fitness = CountingFitness(SyntheticFitness())
        _, events = run_logged(Mode.ENAS, DESK_CONFIG, fitness, run_seed=6)
        # the initial population is every evaluation before the first other event
        initial = next(i for i, doc in enumerate(events) if doc["type"] != "evaluation")
        later = [
            len(doc["offspring"] if doc["type"] == "bred" else doc["ids"])
            for doc in events
            if doc["type"] in ("bred", "spawn")
        ]
        assert [doc["type"] for doc in events].count("spawn") == 2
        assert fitness.batches == [initial, *later]
        assert sum(fitness.batches) == [doc["type"] for doc in events].count("evaluation")

import numpy as np
import pytest

from enas.genome import (
    Genome,
    InvalidGenomeError,
    SearchSpace,
    crossover,
    genome_from_doc,
    genome_to_doc,
    mutate,
    sample_cloning_rate,
    sample_genome,
    sample_max_generations,
    sample_mutation_rate,
    sample_population_size,
    validate_genome,
)
from enas.seeding import make_rng

SPACE = SearchSpace()


def _fixed_genome(**overrides):
    genes = dict(
        hidden_layers=2,
        nodes=40,
        activations=("relu", "relu", "relu", "sigmoid"),
        optimizer="adam",
        epochs=50,
        batch_size=2,
        mutation_rate=0.1,
        population_size=10,
        cloning_rate=0.6,
        max_generations=100,
    )
    genes.update(overrides)
    return Genome(**genes)


class TestPriors:
    def test_mutation_rate_mean_biased_to_tenth(self):
        rng = make_rng(1)
        draws = [sample_mutation_rate(rng) for _ in range(20_000)]
        assert np.mean(draws) == pytest.approx(0.1, abs=0.01)

    def test_mutation_rate_inside_open_interval(self):
        rng = make_rng(2)
        draws = [sample_mutation_rate(rng) for _ in range(5_000)]
        assert 0.0 < min(draws) and max(draws) < 1.0

    def test_cloning_rate_mean_favours_point_three(self):
        rng = make_rng(3)
        draws = [sample_cloning_rate(rng) for _ in range(20_000)]
        assert np.mean(draws) == pytest.approx(0.3, abs=0.01)

    def test_cloning_rate_median_below_half(self):
        rng = make_rng(4)
        draws = [sample_cloning_rate(rng) for _ in range(20_000)]
        assert np.median(draws) < 0.5

    def test_population_prior_covers_bounds(self):
        rng = make_rng(5)
        draws = {sample_population_size(SPACE, rng) for _ in range(20_000)}
        assert min(draws) == 3 and max(draws) == 50

    def test_generation_prior_within_bounds(self):
        rng = make_rng(6)
        draws = [sample_max_generations(SPACE, rng) for _ in range(5_000)]
        assert 1 <= min(draws) and max(draws) <= 500


class TestSampleGenome:
    def test_fuzz_satisfies_invariants(self):
        rng = make_rng(7)
        for _ in range(10_000):
            validate_genome(sample_genome(SPACE, rng), SPACE)

    def test_deterministic_per_seed(self):
        assert sample_genome(SPACE, make_rng(8)) == sample_genome(SPACE, make_rng(8))

    def test_listing_shape_possible(self):
        # depth 2 implies exactly 4 activation entries
        rng = make_rng(9)
        genomes = [sample_genome(SPACE, rng) for _ in range(500)]
        twos = [g for g in genomes if g.hidden_layers == 2]
        assert twos and all(len(g.activations) == 4 for g in twos)


class TestCrossover:
    def test_identical_parents_reproduce_exactly(self):
        a = _fixed_genome()
        child = crossover(a, a, make_rng(10))
        assert child == a

    def test_scalar_genes_come_from_a_parent(self):
        a = _fixed_genome()
        b = _fixed_genome(
            hidden_layers=3,
            nodes=8,
            activations=("tanh", "tanh", "tanh", "tanh", "sigmoid"),
            optimizer="sgd",
            epochs=10,
            batch_size=16,
            mutation_rate=0.4,
            population_size=25,
            cloning_rate=0.2,
            max_generations=200,
        )
        rng = make_rng(11)
        for _ in range(200):
            child = crossover(a, b, rng)
            for gene in (
                "nodes",
                "optimizer",
                "epochs",
                "batch_size",
                "mutation_rate",
                "population_size",
                "cloning_rate",
                "max_generations",
            ):
                assert getattr(child, gene) in {getattr(a, gene), getattr(b, gene)}

    def test_activation_list_rebuilt_to_child_depth(self):
        a = _fixed_genome(hidden_layers=1, activations=("relu", "linear", "sigmoid"))
        b = _fixed_genome(
            hidden_layers=3, activations=("tanh", "tanh", "relu", "linear", "sigmoid")
        )
        rng = make_rng(12)
        for _ in range(100):
            child = crossover(a, b, rng)
            assert len(child.activations) == child.hidden_layers + 2
            assert child.activations[-1] == "sigmoid"
            validate_genome(child, SPACE)

    def test_deterministic(self):
        a, b = _fixed_genome(), _fixed_genome(nodes=99)
        assert crossover(a, b, make_rng(13)) == crossover(a, b, make_rng(13))


class TestMutate:
    def test_zero_rate_is_identity(self):
        g = _fixed_genome()
        assert mutate(g, 0.0, SPACE, make_rng(14)) == g

    def test_full_rate_resamples_validly(self):
        rng = make_rng(15)
        for _ in range(300):
            child = mutate(_fixed_genome(), 1.0, SPACE, rng)
            validate_genome(child, SPACE)

    def test_rate_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            mutate(_fixed_genome(), 1.5, SPACE, make_rng(0))

    def test_changed_fraction_matches_resample_collision_model(self):
        # P(change) per gene = rate * (1 - P(resample hits the old value)).
        rate = 0.2
        trials = 10_000
        genome = _fixed_genome()
        rng = make_rng(16)
        counts = {"hidden_layers": 0, "batch_size": 0, "mutation_rate": 0, "epochs": 0}
        for _ in range(trials):
            child = mutate(genome, rate, SPACE, rng)
            for gene in counts:
                counts[gene] += getattr(child, gene) != getattr(genome, gene)
        collision = {
            "hidden_layers": 1 / (SPACE.hidden_layers[1] - SPACE.hidden_layers[0] + 1),
            "batch_size": 1 / len(SPACE.batch_sizes),
            "mutation_rate": 0.0,  # continuous prior never collides
            "epochs": 1 / (SPACE.epochs[1] - SPACE.epochs[0] + 1),
        }
        for gene, count in counts.items():
            expected = rate * (1 - collision[gene])
            assert count / trials == pytest.approx(expected, abs=0.02), gene

    def test_activation_list_resized_when_depth_mutates(self):
        rng = make_rng(17)
        genome = _fixed_genome()
        for _ in range(2_000):
            child = mutate(genome, 0.5, SPACE, rng)
            validate_genome(child, SPACE)

    def test_deterministic(self):
        g = _fixed_genome()
        assert mutate(g, 0.3, SPACE, make_rng(18)) == mutate(g, 0.3, SPACE, make_rng(18))


class TestOperatorClosure:
    def test_random_operator_chains_stay_valid(self):
        rng = make_rng(19)
        pool = [sample_genome(SPACE, rng) for _ in range(20)]
        for _ in range(10_000):
            op = rng.integers(0, 3)
            if op == 0:
                genome = sample_genome(SPACE, rng)
            elif op == 1:
                a, b = rng.integers(0, len(pool), size=2)
                genome = crossover(pool[a], pool[b], rng)
            else:
                genome = mutate(pool[int(rng.integers(0, len(pool)))], float(rng.random()), SPACE, rng)
            validate_genome(genome, SPACE)
            pool[int(rng.integers(0, len(pool)))] = genome


class TestSerialization:
    def test_doc_uses_canonical_key_names(self):
        doc = genome_to_doc(_fixed_genome())
        assert set(doc) == {
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
        }

    def test_roundtrip_identity(self):
        rng = make_rng(20)
        for _ in range(100):
            genome = sample_genome(SPACE, rng)
            assert genome_from_doc(genome_to_doc(genome)) == genome

    def test_accepts_capitalised_optimizer(self):
        doc = genome_to_doc(_fixed_genome())
        doc["optimiser"] = "Adam"
        assert genome_from_doc(doc).optimizer == "adam"

    def test_missing_key_rejected(self):
        doc = genome_to_doc(_fixed_genome())
        del doc["cloning rate"]
        with pytest.raises(InvalidGenomeError, match="missing"):
            genome_from_doc(doc)


class TestValidation:
    def test_activation_length_enforced(self):
        with pytest.raises(InvalidGenomeError):
            validate_genome(_fixed_genome(activations=("relu", "sigmoid")))

    def test_output_activation_enforced(self):
        with pytest.raises(InvalidGenomeError):
            validate_genome(_fixed_genome(activations=("relu", "relu", "relu", "tanh")))

    def test_rate_bounds_enforced(self):
        with pytest.raises(InvalidGenomeError):
            validate_genome(_fixed_genome(cloning_rate=1.0))

    def test_population_hard_limits_enforced(self):
        with pytest.raises(InvalidGenomeError):
            validate_genome(_fixed_genome(population_size=51))

    def test_space_bounds_enforced(self):
        narrow = SearchSpace(nodes=(2, 16))
        with pytest.raises(InvalidGenomeError, match="nodes"):
            validate_genome(_fixed_genome(nodes=40), narrow)

    def test_space_rejects_bounds_outside_hard_rails(self):
        with pytest.raises(InvalidGenomeError):
            SearchSpace(population_size=(2, 50))
        with pytest.raises(InvalidGenomeError):
            SearchSpace(max_generations=(1, 501))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("batch_sizes", (4, 0)),
            ("optimizers", ("adam", "sparrow")),
            ("activations", ("relu", "step")),
            ("mutation_rate_beta", (float("nan"), 2.0)),
        ],
    )
    def test_space_rejects_choices_training_cannot_use(self, field, value):
        with pytest.raises(InvalidGenomeError):
            SearchSpace(**{field: value})

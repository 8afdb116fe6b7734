from dataclasses import asdict

import numpy as np
import pytest

from enas.genome import (
    BATCH_SIZES,
    HIDDEN_LAYER_LIMITS,
    INTEGER_GENE_LIMITS,
    Genome,
    SearchSpace,
    config_from_genome,
    crossover,
    genome_to_doc,
    mutate,
    sample_gene,
    sample_genome,
)
from enas.seeding import make_rng

SPACE = SearchSpace()


def assert_valid_genome(genome: Genome, space: SearchSpace = SPACE) -> None:
    """The oracle of a genome the search can produce: its network builds (``MLPConfig``'s
    checks), and every gene lies inside its hard rails and ``space``'s bounds."""
    config_from_genome(genome)
    for name, limits in INTEGER_GENE_LIMITS.items():
        for lo, hi in (limits, getattr(space, name, limits)):
            assert lo <= getattr(genome, name) <= hi, f"{name} {getattr(genome, name)}"
    assert genome.batch_size in BATCH_SIZES, genome.batch_size
    assert 0.0 < genome.mutation_rate < 1.0 and 0.0 < genome.cloning_rate < 1.0, genome


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
        draws = [sample_gene("mutation_rate", SPACE, rng) for _ in range(20_000)]
        assert np.mean(draws) == pytest.approx(0.1, abs=0.01)

    def test_mutation_rate_inside_open_interval(self):
        rng = make_rng(2)
        draws = [sample_gene("mutation_rate", SPACE, rng) for _ in range(5_000)]
        assert 0.0 < min(draws) and max(draws) < 1.0

    def test_cloning_rate_mean_favours_point_three(self):
        rng = make_rng(3)
        draws = [sample_gene("cloning_rate", SPACE, rng) for _ in range(20_000)]
        assert np.mean(draws) == pytest.approx(0.3, abs=0.01)

    def test_cloning_rate_median_below_half(self):
        rng = make_rng(4)
        draws = [sample_gene("cloning_rate", SPACE, rng) for _ in range(20_000)]
        assert np.median(draws) < 0.5

    def test_population_prior_covers_bounds(self):
        rng = make_rng(5)
        draws = {sample_gene("population_size", SPACE, rng) for _ in range(20_000)}
        assert min(draws) == 3 and max(draws) == 50

    def test_generation_prior_within_bounds(self):
        rng = make_rng(6)
        draws = [sample_gene("max_generations", SPACE, rng) for _ in range(5_000)]
        assert 1 <= min(draws) and max(draws) <= 500


class TestSampleGenome:
    def test_fuzz_satisfies_invariants(self):
        rng = make_rng(7)
        for _ in range(10_000):
            assert_valid_genome(sample_genome(SPACE, rng))

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
            assert_valid_genome(child)

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
            assert_valid_genome(child)

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
            "hidden_layers": 1 / (HIDDEN_LAYER_LIMITS[1] - HIDDEN_LAYER_LIMITS[0] + 1),
            "batch_size": 1 / len(BATCH_SIZES),
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
            assert_valid_genome(child)

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
            assert_valid_genome(genome)
            pool[int(rng.integers(0, len(pool)))] = genome


# Two seeded sample -> sample -> crossover -> mutate(0.5) chains, as recorded.
# Seed 21: the mutation resamples the activation list at a new depth. Seed 28:
# the crossover resizes the donor's activation list up, and the mutation
# changes the depth but keeps and shortens the list.
RECORDED_CHAINS = {
    21: (
        Genome(3, 122, ("relu", "sigmoid", "sigmoid", "tanh", "sigmoid"), "adamax", 100, 32,
               0.05102394839789373, 28, 0.32513449368139086, 233),
        Genome(2, 78, ("linear", "relu", "relu", "sigmoid"), "adam", 48, 8,
               0.07287427726578276, 44, 0.5364093128355268, 357),
        Genome(3, 78, ("relu", "sigmoid", "sigmoid", "tanh", "sigmoid"), "adam", 100, 8,
               0.07287427726578276, 44, 0.32513449368139086, 233),
        Genome(1, 78, ("tanh", "sigmoid", "sigmoid"), "adam", 100, 2,
               0.07287427726578276, 44, 0.32513449368139086, 237),
    ),
    28: (
        Genome(1, 82, ("sigmoid", "relu", "sigmoid"), "rmsprop", 100, 1,
               0.1485336586378491, 13, 0.26406191968522713, 320),
        Genome(4, 69, ("linear", "sigmoid", "tanh", "linear", "relu", "sigmoid"), "sgd", 10, 2,
               0.00894441324278677, 14, 0.15565787575377246, 223),
        Genome(4, 82, ("sigmoid", "relu", "relu", "relu", "relu", "sigmoid"), "rmsprop", 100, 2,
               0.00894441324278677, 14, 0.15565787575377246, 223),
        Genome(2, 82, ("sigmoid", "relu", "relu", "sigmoid"), "adamax", 100, 2,
               0.17627956392021574, 40, 0.29097418436656686, 105),
    ),
}


class TestDrawOrder:
    @pytest.mark.parametrize("seed", sorted(RECORDED_CHAINS))
    def test_operators_reproduce_recorded_genomes(self, seed):
        # Every random draw must keep its place, or the searches' outputs change.
        rng = make_rng(seed)
        a = sample_genome(SPACE, rng)
        b = sample_genome(SPACE, rng)
        child = crossover(a, b, rng)
        assert (a, b, child, mutate(child, 0.5, SPACE, rng)) == RECORDED_CHAINS[seed]


class TestSerialization:
    def test_doc_uses_canonical_key_names(self):
        doc = genome_to_doc(_fixed_genome())
        assert list(doc) == [
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
        ]


class TestValidation:
    # The operator tests above are only as strong as their oracle, so it must
    # reject each kind of genome outside the rails.
    def test_activation_length_enforced(self):
        with pytest.raises(ValueError, match="activations"):
            config_from_genome(_fixed_genome(activations=("relu", "sigmoid")))

    def test_output_activation_enforced(self):
        with pytest.raises(ValueError, match="sigmoid"):
            config_from_genome(_fixed_genome(activations=("relu", "relu", "relu", "tanh")))

    def test_rate_bounds_enforced(self):
        with pytest.raises(AssertionError):
            assert_valid_genome(_fixed_genome(cloning_rate=1.0))

    def test_population_hard_limits_enforced(self):
        with pytest.raises(AssertionError, match="population_size"):
            assert_valid_genome(_fixed_genome(population_size=51))

    @pytest.mark.parametrize(
        "overrides, match",
        [
            pytest.param({"activations": ("relu", "relu", "sigmoid")}, "activations", id="length"),
            pytest.param(
                {"activations": ("relu", "relu", "relu", "tanh")}, "sigmoid", id="tanh-output"
            ),
            pytest.param({"activations": ("relu", "step", "relu", "sigmoid")}, "step", id="step"),
            pytest.param({"optimizer": "sparrow"}, "sparrow", id="unknown-optimizer"),
            pytest.param({"batch_size": 0}, "batch_size", id="batch-size-0"),
        ],
    )
    def test_network_checks_raise_invalid_genome_not_training_error(self, overrides, match):
        # The network checks are MLPConfig's: building the genome's config
        # rejects it with a ValueError, before any network is trained.
        with pytest.raises(ValueError, match=match):
            config_from_genome(_fixed_genome(**overrides))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("nodes", 10**12),
            ("epochs", 10**20),
            ("batch_size", 0),
            ("optimizer", "sparrow"),
            ("activations", ("relu", "step", "relu", "sigmoid")),
            ("hidden_layers", 5),
            ("batch_size", 3),
        ],
    )
    def test_genome_outside_hard_rails_rejected(self, field, value):
        genes = {field: value}
        if field == "hidden_layers":  # an activation list that fits, so only the depth is out
            genes["activations"] = ("relu",) * (value + 1) + ("sigmoid",)
        # MLPConfig's checks raise ValueError, the oracle's own AssertionError
        with pytest.raises((AssertionError, ValueError)):
            assert_valid_genome(_fixed_genome(**genes))

    def test_space_bounds_enforced(self):
        narrow = SearchSpace(nodes=(2, 16))
        assert_valid_genome(_fixed_genome(nodes=16), narrow)
        with pytest.raises(AssertionError, match="nodes"):
            assert_valid_genome(_fixed_genome(nodes=40), narrow)

    def test_space_rejects_bounds_outside_hard_rails(self):
        with pytest.raises(ValueError):
            SearchSpace(population_size=(2, 50))
        with pytest.raises(ValueError):
            SearchSpace(max_generations=(1, 501))

    @pytest.mark.parametrize(
        "field, bounds",
        [
            ("max_generations", (0, 4)),
            ("nodes", (2, 10**12)),
            ("nodes", (0, 8)),
            ("epochs", (1, 10**20)),
            ("population_size", (5, 3)),
        ],
    )
    def test_space_rejects_integer_genes_outside_hard_rails(self, field, bounds):
        with pytest.raises(ValueError, match=field) as error:
            SearchSpace(**{field: bounds})
        # reversed bounds inside the rails are named as reversed
        assert ("above its high bound" in str(error.value)) == (bounds[0] > bounds[1])

    def test_network_config_is_exactly_the_network_genes(self):
        genome = _fixed_genome()
        assert asdict(config_from_genome(genome)) == {
            "hidden_layers": genome.hidden_layers,
            "nodes_per_hidden": genome.nodes,
            "activations": genome.activations,
            "optimizer": genome.optimizer,
            "epochs": genome.epochs,
            "batch_size": genome.batch_size,
        }

import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enas import nn
from enas.data import Dataset, kfold_split
from enas.fitness import CrossValFitness, FitnessRecord, f_measure
from enas.genome import Genome, config_from_genome
from enas.seeding import derive_seed
from enas.synthetic import make_threshold_dataset


def brute_force_f1(predictions, labels):
    """Independent oracle: explicit confusion-matrix loop, exact arithmetic."""
    tp = fp = fn = 0
    for p, y in zip(predictions, labels):
        if p == 1 and y == 1:
            tp += 1
        elif p == 1 and y == 0:
            fp += 1
        elif p == 0 and y == 1:
            fn += 1
    precision = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
    recall = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
    if precision + recall == 0:
        return 0.0
    return float(2 * precision * recall / (precision + recall))


REASONABLE_GENOME = Genome(
    hidden_layers=1,
    nodes=8,
    activations=("relu", "relu", "sigmoid"),
    optimizer="adam",
    epochs=50,
    batch_size=2,
    mutation_rate=0.1,
    population_size=10,
    cloning_rate=0.3,
    max_generations=50,
)


class TestFMeasure:
    def test_perfect_classifier(self):
        assert f_measure(np.array([1, 0, 1]), np.array([1, 0, 1])) == 1.0

    def test_hand_computed_confusion_matrix(self):
        # TP=2, FP=1, FN=1 -> precision=recall=2/3 -> F1 = 2/3
        predictions = np.array([1, 1, 1, 0, 0])
        labels = np.array([1, 1, 0, 1, 0])
        assert f_measure(predictions, labels) == pytest.approx(2 / 3)

    def test_no_positive_predictions_scores_zero(self):
        assert f_measure(np.zeros(4, dtype=int), np.array([0, 1, 0, 1])) == 0.0

    def test_no_positives_anywhere_scores_zero(self):
        assert f_measure(np.zeros(3, dtype=int), np.zeros(3, dtype=int)) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            f_measure(np.array([1, 0]), np.array([1]))

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=60))
    @settings(max_examples=300)
    def test_matches_brute_force_oracle(self, pairs):
        predictions = np.array([p for p, _ in pairs])
        labels = np.array([y for _, y in pairs])
        assert f_measure(predictions, labels) == brute_force_f1(predictions, labels)


class TestFitnessRecord:
    def test_mean_must_be_in_unit_interval(self):
        with pytest.raises(ValueError):
            FitnessRecord(per_fold=(1.2,))

    @pytest.mark.parametrize(
        "per_fold", [(), (0.5, 1.2), (-0.1, 1.0), (math.nan,)], ids=["empty", "high", "low", "nan"]
    )
    def test_each_fold_score_must_be_in_unit_interval(self, per_fold):
        # (0.5, 1.2) and (-0.1, 1.0) have means inside [0, 1]
        with pytest.raises(ValueError):
            FitnessRecord(per_fold=per_fold)

    def test_mean_is_the_mean_of_the_folds(self):
        record = FitnessRecord(per_fold=(0.25, 0.5, 1.0))
        assert record.mean_f_measure == (0.25 + 0.5 + 1.0) / 3
        assert record.models_trained == 3

    def test_equality_ignores_wall_time(self):
        a = FitnessRecord((0.5,), wall_time=1.0)
        b = FitnessRecord((0.5,), wall_time=9.0)
        assert a == b


class TestEvaluate:
    def test_separable_dataset_scores_high(self):
        dataset = make_threshold_dataset(60, 4, seed=21)
        split = kfold_split(dataset, 3, seed=22)
        record = CrossValFitness(dataset, split)(REASONABLE_GENOME, seed=23)
        assert record.mean_f_measure > 0.9

    def test_deterministic_record(self):
        dataset = make_threshold_dataset(40, 3, seed=24)
        split = kfold_split(dataset, 3, seed=25)
        first = CrossValFitness(dataset, split)(REASONABLE_GENOME, seed=26)
        second = CrossValFitness(dataset, split)(REASONABLE_GENOME, seed=26)
        assert first == second  # wall time excluded from equality

    def test_one_model_per_fold(self):
        dataset = make_threshold_dataset(40, 3, seed=27)
        split = kfold_split(dataset, 5, seed=28)
        record = CrossValFitness(dataset, split)(REASONABLE_GENOME, seed=29)
        assert record.models_trained == 5
        assert len(record.per_fold) == 5

    def test_mean_is_arithmetic_mean_of_folds(self):
        dataset = make_threshold_dataset(40, 3, seed=30)
        split = kfold_split(dataset, 4, seed=31)
        record = CrossValFitness(dataset, split)(REASONABLE_GENOME, seed=32)
        assert record.mean_f_measure == pytest.approx(sum(record.per_fold) / 4)

    def test_diverged_fold_scores_zero_and_completes(self, monkeypatch):
        dataset = make_threshold_dataset(30, 2, seed=33)
        split = kfold_split(dataset, 3, seed=34)
        real_train_folds = nn.train_folds

        def flaky_train_folds(*args):
            models = list(real_train_folds(*args))
            models[1].loss_history.append(math.nan)  # poison the second fold only
            return models

        monkeypatch.setattr("enas.fitness.nn.train_folds", flaky_train_folds)
        record = CrossValFitness(dataset, split)(REASONABLE_GENOME, seed=35)
        assert record.per_fold[1] == 0.0
        assert record.diverged_folds == (1,)
        assert len(record.per_fold) == 3

    def test_folds_train_with_their_own_rows_and_seeds(self, monkeypatch):
        dataset = make_threshold_dataset(31, 2, seed=39)
        split = kfold_split(dataset, 4, seed=40)
        calls = []
        real_train_folds = nn.train_folds

        def spy(config, x, y, train_sets, seeds):
            calls.append((train_sets, seeds))
            return real_train_folds(config, x, y, train_sets, seeds)

        monkeypatch.setattr("enas.fitness.nn.train_folds", spy)
        CrossValFitness(dataset, split)(REASONABLE_GENOME, seed=41)
        [(train_sets, seeds)] = calls
        assert seeds == [derive_seed(41, fold) for fold in range(4)]
        for fold, rows in enumerate(train_sets):
            others = [test_rows for other, test_rows in enumerate(split) if other != fold]
            assert np.array_equal(rows, np.concatenate(others))

    def test_split_must_cover_dataset(self):
        dataset = make_threshold_dataset(30, 2, seed=36)
        other = make_threshold_dataset(40, 2, seed=37)
        split = kfold_split(other, 4, seed=38)
        with pytest.raises(ValueError, match="cover"):
            CrossValFitness(dataset, split)

    def test_split_of_one_fold_rejected(self):
        dataset = make_threshold_dataset(6, 2, seed=44)
        with pytest.raises(ValueError, match="at least two folds"):
            CrossValFitness(dataset, kfold_split(dataset, 1, seed=45))

    def test_split_with_an_empty_fold_rejected(self):
        # seven folds of six rows: one fold is empty, so its model has no test rows
        dataset = make_threshold_dataset(6, 2, seed=44)
        with pytest.raises(ValueError, match="none of them empty"):
            CrossValFitness(dataset, kfold_split(dataset, 7, seed=45))

    @pytest.mark.parametrize("second_fold", [[3, 4, -6], [3, 4, 9]], ids=["negative", "past-end"])
    def test_split_must_index_each_row_once(self, second_fold):
        # -6 reads row 0 a second time and leaves row 5 out; 9 is no row
        dataset = make_threshold_dataset(6, 2, seed=44)
        with pytest.raises(ValueError, match="cover"):
            CrossValFitness(dataset, ([0, 1, 2], second_fold))

    @pytest.mark.parametrize(
        "second_fold",
        [[3.0, 4.0, 5.0], [3, 4, 5.5], np.ones(3, dtype=bool)],
        ids=["float", "fraction", "boolean"],
    )
    def test_split_must_hold_integer_rows(self, second_fold):
        # a cast to int64 would turn 5.5 into row 5 and pass the cover check
        dataset = make_threshold_dataset(6, 2, seed=44)
        with pytest.raises(ValueError, match="integer row numbers"):
            CrossValFitness(dataset, ([0, 1, 2], second_fold))


def _alone(fitness, pairs):
    return [fitness(genome, seed) for genome, seed in pairs]


def _assert_same_records(batch, alone):
    assert batch == alone
    assert [r.diverged_folds for r in batch] == [r.diverged_folds for r in alone]


def _spy_train_folds(monkeypatch):
    """Record (networks, seeds) of each ``nn.train_folds`` call."""
    calls = []
    real_train_folds = nn.train_folds

    def spy(config, x, y, train_sets, seeds):
        calls.append((len(train_sets), list(seeds)))
        return real_train_folds(config, x, y, train_sets, seeds)

    monkeypatch.setattr("enas.fitness.nn.train_folds", spy)
    return calls


SMALL_GENOME = replace(REASONABLE_GENOME, epochs=6, batch_size=4)


class TestEvaluateBatch:
    """``evaluate`` gives every genome the record it would get alone."""

    @pytest.fixture
    def fitness(self):
        dataset = make_threshold_dataset(36, 3, seed=42)
        return CrossValFitness(dataset, kfold_split(dataset, 3, seed=43))

    def test_repeated_config_shares_one_call_and_matches_alone(self, fitness, monkeypatch):
        other = replace(SMALL_GENOME, optimizer="sgd")
        pairs = [(SMALL_GENOME, 1), (other, 2), (SMALL_GENOME, 3), (SMALL_GENOME, 4)]
        alone = _alone(fitness, pairs)
        calls = _spy_train_folds(monkeypatch)
        _assert_same_records(fitness.evaluate(pairs), alone)
        # groups in first-seen order; a member's folds take derive_seed(seed, f)
        assert calls == [
            (9, [derive_seed(seed, fold) for seed in (1, 3, 4) for fold in range(3)]),
            (3, [derive_seed(2, fold) for fold in range(3)]),
        ]
        assert len({record.per_fold for record in alone}) > 1

    def test_configs_differing_only_in_epochs_do_not_share(self, fitness, monkeypatch):
        pairs = [(SMALL_GENOME, 5), (replace(SMALL_GENOME, epochs=7), 5)]
        alone = _alone(fitness, pairs)
        calls = _spy_train_folds(monkeypatch)
        _assert_same_records(fitness.evaluate(pairs), alone)
        assert [networks for networks, _ in calls] == [3, 3]

    def test_diverging_genome_matches_alone(self):
        # Features near 1e100 overflow the unbounded networks but not the
        # squashing ones, so one batch holds diverged and finite folds.
        base = make_threshold_dataset(30, 3, seed=50)
        dataset = Dataset(features=base.features * 1e100, labels=base.labels)
        fitness = CrossValFitness(dataset, kfold_split(dataset, 3, seed=51))
        relu = replace(SMALL_GENOME, optimizer="sgd", epochs=5)
        linear = replace(relu, activations=("linear", "linear", "sigmoid"))
        tanh = replace(relu, activations=("tanh", "tanh", "sigmoid"), optimizer="adam")
        pairs = [(relu, 7), (tanh, 7), (linear, 7), (relu, 8), (tanh, 9)]
        with np.errstate(all="ignore"):
            alone = _alone(fitness, pairs)
            batch = fitness.evaluate(pairs)
        _assert_same_records(batch, alone)
        assert alone[2].diverged_folds == (0, 1, 2)
        assert not alone[1].diverged_folds

    def test_group_split_by_the_lockstep_cap_matches_alone(self, fitness, monkeypatch):
        pairs = [(SMALL_GENOME, seed) for seed in (11, 12, 13)]
        alone = _alone(fitness, pairs)
        stacks = []
        real_lockstep = nn._train_lockstep

        def spy(config, x, y, dims, train_sets, seeds):
            stacks.append(len(train_sets))
            return real_lockstep(config, x, y, dims, train_sets, seeds)

        dims = nn.layer_dims(3, config_from_genome(SMALL_GENOME))
        # two networks per stack: the 9 fold networks straddle the members
        monkeypatch.setattr(nn, "LOCKSTEP_PARAMS", 2 * nn.param_count(dims))
        monkeypatch.setattr(nn, "_train_lockstep", spy)
        _assert_same_records(fitness.evaluate(pairs), alone)
        assert stacks == [2, 2, 2, 2, 1]

    def test_wall_time_is_an_even_share_of_training_and_scoring(self, fitness, monkeypatch):
        clock = [0.0]
        real_train_folds, real_predict = nn.train_folds, nn.predict

        def train_folds(*args):
            clock[0] += 6.0
            return real_train_folds(*args)

        def predict(*args):
            clock[0] += 1.0
            return real_predict(*args)

        monkeypatch.setattr("enas.fitness.time", SimpleNamespace(perf_counter=lambda: clock[0]))
        monkeypatch.setattr(nn, "train_folds", train_folds)
        monkeypatch.setattr(nn, "predict", predict)
        other = replace(SMALL_GENOME, nodes=5)
        pairs = [(SMALL_GENOME, 1), (SMALL_GENOME, 2), (other, 3), (SMALL_GENOME, 4)]
        records = fitness.evaluate(pairs)
        # three members share 6 s of training and 9 s of scoring
        assert [record.wall_time for record in records] == [5.0, 5.0, 9.0, 5.0]
        assert sum(record.wall_time for record in records) == clock[0]

    def test_empty_batch(self, fitness):
        assert fitness.evaluate([]) == []

    def test_wide_genome_holds_under_eight_parameter_vectors(self):
        # 4 x 128 hidden units on 60 columns: 73,985 parameters, one network
        # per lockstep group. Training holds the parameters, the gradient and
        # adam's two moments and one scratch array; a fold network is freed
        # once it is scored, so the five never coexist.
        dataset = make_threshold_dataset(208, 60, seed=52)
        fitness = CrossValFitness(dataset, kfold_split(dataset, 5, seed=53))
        wide = replace(
            REASONABLE_GENOME,
            hidden_layers=4,
            nodes=128,
            activations=("relu",) * 5 + ("sigmoid",),
            epochs=1,
            batch_size=32,
        )
        vector_bytes = 8 * nn.param_count(nn.layer_dims(60, config_from_genome(wide)))
        tracemalloc.start()
        try:
            [record] = fitness.evaluate([(wide, 54)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert record.models_trained == 5
        assert peak < 8 * vector_bytes

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enas import nn
from enas.data import kfold_split
from enas.fitness import CrossValFitness, FitnessRecord, f_measure
from enas.genome import Genome
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

    def test_empty_input(self):
        with pytest.raises(ValueError, match="at least one"):
            f_measure(np.array([]), np.array([]))

    def test_non_binary_values_rejected(self):
        with pytest.raises(ValueError):
            f_measure(np.array([2, 0]), np.array([1, 0]))

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=60))
    @settings(max_examples=300)
    def test_matches_brute_force_oracle(self, pairs):
        predictions = np.array([p for p, _ in pairs])
        labels = np.array([y for _, y in pairs])
        assert f_measure(predictions, labels) == brute_force_f1(predictions, labels)


class TestFitnessRecord:
    def test_mean_must_be_in_unit_interval(self):
        with pytest.raises(ValueError):
            FitnessRecord(mean_f_measure=1.2, per_fold=(1.2,), models_trained=1)

    def test_equality_ignores_wall_time(self):
        a = FitnessRecord(0.5, (0.5,), 1, wall_time=1.0)
        b = FitnessRecord(0.5, (0.5,), 1, wall_time=9.0)
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
        real_train = nn.train
        calls = {"n": 0}

        def flaky_train(config, x, y, rng=None):
            calls["n"] += 1
            model = real_train(config, x, y, rng)
            if calls["n"] == 2:  # poison the second fold only
                model.diverged = True
            return model

        monkeypatch.setattr("enas.fitness.nn.train", flaky_train)
        record = CrossValFitness(dataset, split)(REASONABLE_GENOME, seed=35)
        assert record.per_fold[1] == 0.0
        assert record.diverged_folds == (1,)
        assert len(record.per_fold) == 3

    def test_split_must_cover_dataset(self):
        dataset = make_threshold_dataset(30, 2, seed=36)
        other = make_threshold_dataset(40, 2, seed=37)
        split = kfold_split(other, 4, seed=38)
        with pytest.raises(ValueError, match="cover"):
            CrossValFitness(dataset, split)

"""Fitness scoring: mean F-measure over k-fold cross-validation.

The search scores each batch of new genomes in one
``CrossValFitness.evaluate`` call, which trains the fold networks of all
same-config genomes in the batch as one lockstep stack.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import nn
from .data import Dataset
from .genome import Genome, config_from_genome
from .seeding import derive_seed


@dataclass(frozen=True)
class FitnessRecord:
    """Outcome of one genome evaluation.

    ``wall_time`` is excluded from equality so that two deterministic
    re-evaluations of the same genome compare equal.
    """

    per_fold: tuple[float, ...]
    wall_time: float = field(compare=False, default=0.0)
    diverged_folds: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.per_fold:
            raise ValueError("per_fold must contain at least one score")
        for score in self.per_fold:
            if not 0.0 <= score <= 1.0:
                raise ValueError(f"fold F-measure {score} outside [0, 1]")

    @property
    def mean_f_measure(self) -> float:
        """The genome's fitness: the mean F-measure over its folds."""
        return sum(self.per_fold) / len(self.per_fold)

    @property
    def models_trained(self) -> int:
        """One network per fold."""
        return len(self.per_fold)


def f_measure(predictions: np.ndarray, labels: np.ndarray) -> float:
    """F1 of two 0/1 integer vectors on the positive class; 0 when precision+recall is 0."""
    denominator = int(predictions.sum() + labels.sum())  # 2 tp + fp + fn
    if denominator == 0:
        return 0.0
    return 2 * int(predictions @ labels) / denominator


@dataclass(frozen=True)
class CrossValFitness:
    """Picklable evaluator: train one network per fold, score fold F1.

    ``evaluate(pairs)`` scores a batch of (genome, seed) pairs, such as
    one generation's offspring. Genomes with the same network config
    (``config_from_genome``, epochs included) train together: the k fold
    networks of every member come from one ``nn.train_folds`` call, fold f
    of a member on the rows of the other folds with seed
    ``derive_seed(seed, f)``. ``folds`` holds two or more non-empty arrays
    of row numbers of ``dataset`` that cover each row exactly once.
    ``train_folds`` trains each network bit-identically to training it
    alone, so a record does not depend on which genomes shared its call.
    ``__call__`` scores each genome from its own fold models; given no
    models, it trains them alone first. The models are drawn lazily and
    each is scored before the next is drawn, so a fold network is freed
    once it is scored, before the next lockstep group trains.

    A fold whose training diverges scores 0.0 and is flagged; the
    evaluation still completes so the search can discard bad genomes
    instead of crashing.
    """

    dataset: Dataset
    folds: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.folds) < 2 or any(len(fold) == 0 for fold in self.folds):
            raise ValueError("fold split must hold at least two folds, none of them empty")
        if any(np.asarray(fold).dtype.kind not in "iu" for fold in self.folds):
            raise ValueError("fold split must hold integer row numbers")
        rows = np.sort(np.concatenate(self.folds))
        if not np.array_equal(rows, np.arange(self.dataset.instance_count)):
            raise ValueError("fold split must cover each row of this dataset exactly once")

    def evaluate(self, pairs: Sequence[tuple[Genome, int]]) -> list[FitnessRecord]:
        """One record per (genome, seed) pair, in order; same-config genomes train in one call.

        Groups train in the order their configs first appear. Each member
        is scored from its k models as they come out of the group's call,
        so training and scoring interleave; a record's ``wall_time`` is an
        even share of its group's elapsed time, training and scoring
        together.
        """
        groups: dict[nn.MLPConfig, list[int]] = {}
        for index, (genome, _) in enumerate(pairs):
            groups.setdefault(config_from_genome(genome), []).append(index)
        k = len(self.folds)
        records: dict[int, FitnessRecord] = {}
        for config, members in groups.items():
            started = time.perf_counter()
            models = iter(self._train(config, [pairs[i][1] for i in members]))
            scored = [self(*pairs[i], itertools.islice(models, k)) for i in members]
            share = (time.perf_counter() - started) / len(members)
            for i, record in zip(members, scored):
                records[i] = replace(record, wall_time=share)
        return [records[i] for i in range(len(pairs))]

    def __call__(
        self, genome: Genome, seed: int, models: Iterable[nn.TrainedModel] | None = None
    ) -> FitnessRecord:
        """Score one genome from its k fold models, trained here when not given."""
        started = time.perf_counter()
        if models is None:
            models = self._train(config_from_genome(genome), [seed])
        # map drops each model once scored; zip's reused result tuple would
        # keep it alive while the next fold trains
        scores = list(map(self._score, models, self.folds))
        return FitnessRecord(
            per_fold=tuple(0.0 if score is None else score for score in scores),
            wall_time=time.perf_counter() - started,
            diverged_folds=tuple(fold for fold, score in enumerate(scores) if score is None),
        )

    def _score(self, model: nn.TrainedModel, test_idx: np.ndarray) -> float | None:
        """The fold model's F-measure on its test rows; None when its training diverged."""
        if model.diverged:
            return None
        x, y = self.dataset.features, self.dataset.labels
        return f_measure(nn.predict(model, x[test_idx]), y[test_idx])

    def _train(self, config: nn.MLPConfig, seeds: list[int]) -> Iterator[nn.TrainedModel]:
        """The k fold models of each seed in turn, drawn lazily from one ``nn.train_folds`` call."""
        fold_ids = range(len(self.folds))
        train_sets = [np.concatenate([*self.folds[:f], *self.folds[f + 1 :]]) for f in fold_ids]
        return nn.train_folds(
            config,
            self.dataset.features,
            self.dataset.labels,
            train_sets * len(seeds),
            [derive_seed(seed, fold) for seed in seeds for fold in fold_ids],
        )

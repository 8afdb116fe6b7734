"""Fitness scoring: mean F-measure over k-fold cross-validation."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .data import Dataset, FoldSplit
from .genome import Genome
from .seeding import derive_seed


@dataclass(frozen=True)
class FitnessRecord:
    """Outcome of one genome evaluation.

    ``wall_time`` is excluded from equality so that two deterministic
    re-evaluations of the same genome compare equal.
    """

    mean_f_measure: float
    per_fold: tuple[float, ...]
    models_trained: int
    wall_time: float = field(compare=False, default=0.0)
    diverged_folds: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.per_fold:
            raise ValueError("per_fold must contain at least one score")
        if not 0.0 <= self.mean_f_measure <= 1.0:
            raise ValueError(f"mean F-measure {self.mean_f_measure} outside [0, 1]")


def f_measure(predictions: np.ndarray, labels: np.ndarray) -> float:
    """F1 on the positive class (label 1); 0 when precision+recall is 0."""
    p = np.asarray(predictions).ravel()
    y = np.asarray(labels).ravel()
    if p.size == 0:
        raise ValueError("f_measure needs at least one instance")
    if p.shape != y.shape:
        raise ValueError(f"length mismatch: {p.size} predictions vs {y.size} labels")
    if not np.isin(p, (0, 1)).all() or not np.isin(y, (0, 1)).all():
        raise ValueError("predictions and labels must be 0/1 vectors")
    tp = int(np.sum((p == 1) & (y == 1)))
    fp = int(np.sum((p == 1) & (y == 0)))
    fn = int(np.sum((p == 0) & (y == 1)))
    denominator = 2 * tp + fp + fn
    if denominator == 0:
        return 0.0
    return 2 * tp / denominator


def config_from_genome(genome: Genome) -> nn.MLPConfig:
    """Network settings taken from a genome's architecture genes."""
    return nn.MLPConfig(
        hidden_layers=genome.hidden_layers,
        nodes_per_hidden=genome.nodes,
        activations=genome.activations,
        optimizer=genome.optimizer,
        epochs=genome.epochs,
        batch_size=genome.batch_size,
    )


@dataclass(frozen=True)
class CrossValFitness:
    """Picklable evaluator: train one network per fold, score fold F1.

    The k fold networks train together in one ``nn.train_folds`` call,
    fold f on its training rows with seed ``derive_seed(seed, f)``. A
    fold whose training diverges scores 0.0 and is flagged; the
    evaluation still completes so the search can discard bad genomes
    instead of crashing.
    """

    dataset: Dataset
    split: FoldSplit

    def __post_init__(self) -> None:
        if self.split.instance_count != self.dataset.instance_count:
            raise ValueError("fold split does not cover this dataset")

    @property
    def folds(self) -> int:
        return self.split.k

    def __call__(self, genome: Genome, seed: int) -> FitnessRecord:
        started = time.perf_counter()
        x, y = self.dataset.features, self.dataset.labels
        fold_ids = range(self.split.k)
        models = nn.train_folds(
            config_from_genome(genome),
            x,
            y,
            [self.split.train_indices(fold) for fold in fold_ids],
            [derive_seed(seed, fold) for fold in fold_ids],
        )
        per_fold = [
            0.0 if model.diverged else f_measure(nn.predict(model, x[test_idx]), y[test_idx])
            for model, test_idx in zip(models, self.split.folds)
        ]
        return FitnessRecord(
            mean_f_measure=sum(per_fold) / len(per_fold),
            per_fold=tuple(per_fold),
            models_trained=self.split.k,
            wall_time=time.perf_counter() - started,
            diverged_folds=tuple(fold for fold in fold_ids if models[fold].diverged),
        )


def evaluation_doc(individual_id: int, genome_doc: dict, record: FitnessRecord) -> dict:
    """JSON-compatible log line for one completed evaluation."""
    return {
        "type": "evaluation",
        "individual": individual_id,
        "genome": genome_doc,
        "per_fold": list(record.per_fold),
        "mean_f_measure": record.mean_f_measure,
        "models_trained": record.models_trained,
        "wall_time": record.wall_time,
        "diverged_folds": list(record.diverged_folds),
    }

"""Synthetic problems for fast, deterministic exercising of the search loop."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import Dataset
from .fitness import FitnessRecord
from .genome import Genome
from .seeding import make_rng


def make_threshold_dataset(
    instances: int, attributes: int, seed: int, name: str = "threshold", margin: float = 0.1
) -> Dataset:
    """Separable toy data: the label is 1 iff the first feature exceeds 0.5.

    A margin keeps the first feature away from the decision boundary so
    that any reasonable classifier can reach a high F-measure.
    """
    rng = make_rng(seed, name)
    features = rng.uniform(0.0, 1.0, size=(instances, attributes))
    side = rng.integers(0, 2, size=instances)
    low = rng.uniform(0.0, 0.5 - margin, size=instances)
    high = rng.uniform(0.5 + margin, 1.0, size=instances)
    features[:, 0] = np.where(side == 1, high, low)
    return Dataset(features=features, labels=side.astype(np.int64), name=name)


def write_dataset_csv(dataset: Dataset, path: str | Path) -> Path:
    """Write a dataset as a label-last CSV loadable by ``load_csv``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])
    return path


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
        return FitnessRecord(
            mean_f_measure=score,
            per_fold=(score,) * self.folds,
            wall_time=0.0,
        )

"""Synthetic problems for fast, deterministic exercising of the search loop."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .data import Dataset
from .seeding import make_rng


def make_threshold_dataset(
    instances: int, attributes: int, seed: int, name: str = "threshold", margin: float = 0.1
) -> Dataset:
    """Separable toy data: the label is 1 iff the first feature exceeds 0.5.

    A margin keeps the first feature away from the decision boundary so
    that any reasonable classifier can reach a high F-measure. ``name``
    joins ``seed`` in choosing the random stream.
    """
    rng = make_rng(seed, name)
    features = rng.uniform(0.0, 1.0, size=(instances, attributes))
    side = rng.integers(0, 2, size=instances)
    low = rng.uniform(0.0, 0.5 - margin, size=instances)
    high = rng.uniform(0.5 + margin, 1.0, size=instances)
    features[:, 0] = np.where(side == 1, high, low)
    return Dataset(features=features, labels=side.astype(np.int64))


def write_dataset_csv(dataset: Dataset, path: str | Path) -> Path:
    """Write a dataset as a label-last CSV loadable by ``load_csv``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])
    return path

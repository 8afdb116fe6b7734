"""CSV dataset loading, label encoding, scaling and k-fold splits.

A dataset keeps the row order of its input file, and a fold split is a
tuple of arrays of row numbers into it, so a row number names the same
data row from loading through to ``folds_*.csv``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np


class DatasetError(ValueError):
    """A dataset file could not be parsed into a valid dataset."""


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Dataset:
    """An in-memory binary classification dataset.

    Rows of ``features`` align with ``labels``; labels are already
    encoded to {0, 1}. Instances are immutable after construction and
    safe to share across concurrent evaluators.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if features.ndim != 2:
            raise DatasetError("features must be a 2-d matrix")
        if labels.ndim != 1 or labels.shape[0] != features.shape[0]:
            raise DatasetError("labels length must equal the feature row count")
        if features.shape[0] == 0 or features.shape[1] == 0:
            raise DatasetError("dataset must have at least one row and one attribute")
        if not np.isfinite(features).all():
            raise DatasetError("features contain non-finite values")
        if not np.isin(labels, (0, 1)).all():
            raise DatasetError("labels must all be 0 or 1")
        object.__setattr__(self, "features", _read_only(features))
        object.__setattr__(self, "labels", _read_only(labels))

    @property
    def instance_count(self) -> int:
        return int(self.features.shape[0])


def _parse_float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _looks_like_header(row: Sequence[str]) -> bool:
    # A first row is a header only when every feature cell fails to parse
    # as a number; the last cell, the label, is excluded because string
    # labels are data. A partially numeric first row is treated as data so
    # that a corrupt cell surfaces as an error instead of being skipped.
    return all(_parse_float(cell) is None for cell in row[:-1])


def load_csv(path: str | Path, label_mapping: Mapping[str, int] | None = None) -> Dataset:
    """Load a comma-separated dataset and encode its labels to {0, 1}.

    The label is the last column. ``label_mapping`` maps raw label strings
    to 0/1; when omitted, labels must already be the literals "0"/"1". A
    header row is auto-detected from non-numeric feature cells in the first
    row.
    """
    path = Path(path)
    shown = repr(str(path))
    if not path.exists():
        raise DatasetError(f"dataset file not found: {shown}")
    try:
        # utf-8-sig drops a leading byte-order mark, which would glue onto the first cell
        with path.open(newline="", encoding="utf-8-sig") as fh:
            rows = [
                [cell.strip() for cell in row]
                for row in csv.reader(fh)
                if any(cell.strip() for cell in row)
            ]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DatasetError(f"cannot read dataset {shown}: {exc}") from exc
    if not rows:
        raise DatasetError(f"no data rows in {shown}")

    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DatasetError(f"ragged row {i} in {shown}: {len(row)} != {width} cells")
    if width < 2:
        raise DatasetError("need at least one feature column and one label column")

    data = rows[1:] if _looks_like_header(rows[0]) else rows
    if not data:
        raise DatasetError(f"no data rows in {shown}")

    mapping = {"0": 0, "1": 1} if label_mapping is None else dict(label_mapping)
    if not set(mapping.values()) <= {0, 1}:
        raise DatasetError("label mapping values must be 0 or 1")

    features = np.empty((len(data), width - 1), dtype=np.float64)
    labels = np.empty(len(data), dtype=np.int64)
    for r, row in enumerate(data):
        raw = row[-1]
        if raw not in mapping:
            raise DatasetError(f"unmapped label value {raw!r} on row {r}")
        labels[r] = mapping[raw]
        for i, cell in enumerate(row[:-1]):
            value = _parse_float(cell)
            if value is None:
                raise DatasetError(f"non-numeric feature cell {cell!r} at row {r}, column {i}")
            if not math.isfinite(value):
                raise DatasetError(f"non-finite feature value at row {r}, column {i}")
            features[r, i] = value

    return Dataset(features=features, labels=labels)


def normalize_min_max(dataset: Dataset) -> Dataset:
    """Map each feature column affinely onto [0, 1]; constant columns to 0.

    A column whose range, max - min, exceeds the largest float cannot be
    scaled, and raises ``DatasetError``.
    """
    x = dataset.features
    lo, hi = x.min(axis=0), x.max(axis=0)
    with np.errstate(over="ignore"):
        span = hi - lo
    overflowed = np.flatnonzero(np.isinf(span))
    if overflowed.size:
        i = overflowed[0]
        raise DatasetError(
            f"feature column {i} ranges from {lo[i]:g} to {hi[i]:g}, wider than the largest float"
        )
    keep = span > 0
    scaled = np.zeros_like(x)
    scaled[:, keep] = (x[:, keep] - lo[keep]) / span[keep]
    return Dataset(features=scaled, labels=dataset.labels.copy())


def kfold_split(dataset: Dataset, k: int, seed: int) -> tuple[np.ndarray, ...]:
    """Partition row numbers into k folds whose sizes differ by at most 1.

    Each fold is a read-only int64 array; the split is deterministic in seed.
    No fold is empty when 2 <= k <= n, as ``ExperimentConfig`` and
    ``run_experiment`` require.
    """
    perm = np.random.default_rng(seed).permutation(dataset.instance_count)
    return tuple(_read_only(fold) for fold in np.array_split(perm, k))

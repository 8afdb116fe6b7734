from pathlib import Path

import numpy as np
import pytest

from enas.data import Dataset


@pytest.fixture
def write_csv(tmp_path):
    """Write CSV text lines to a temp file and return its path."""

    def _write(lines, name="data.csv"):
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    return _write


@pytest.fixture
def small_dataset():
    rng = np.random.default_rng(1234)
    features = rng.uniform(0.0, 1.0, size=(24, 3))
    labels = (features[:, 0] > 0.5).astype(np.int64)
    return Dataset(features=features, labels=labels)


SONAR_PATH = Path(__file__).resolve().parent.parent / "data" / "sonar.csv"

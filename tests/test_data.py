import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enas import evolution
from enas.data import Dataset, DatasetError, kfold_split, load_csv, normalize_min_max
from enas.evolution import EvolutionConfig, Mode
from enas.experiment import DatasetSpec, ExperimentConfig, fold_split, run_experiment
from enas.fitness import CrossValFitness
from enas.genome import SearchSpace
from enas.seeding import derive_seed
from enas.synthetic import make_threshold_dataset, write_dataset_csv

from .conftest import SONAR_PATH
from .test_evolution import discard


class TestLoadCsv:
    def test_single_row(self, write_csv):
        path = write_csv(["1.0,2.0,pos"])
        ds = load_csv(path, label_mapping={"pos": 1})
        assert ds.features.tolist() == [[1.0, 2.0]]
        assert ds.labels.tolist() == [1]

    def test_unmapped_label_is_an_error(self, write_csv):
        path = write_csv(["1.0,2.0,x", "3.0,4.0,y"])
        with pytest.raises(DatasetError, match="unmapped label"):
            load_csv(path, label_mapping={"y": 0})

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="not found"):
            load_csv(tmp_path / "nope.csv")

    def test_ragged_rows(self, write_csv):
        path = write_csv(["1.0,2.0,1", "1.0,1"])
        with pytest.raises(DatasetError, match="ragged"):
            load_csv(path)

    def test_non_numeric_feature_cell(self, write_csv):
        path = write_csv(["1.0,oops,1", "2.0,3.0,0"])
        with pytest.raises(DatasetError, match="non-numeric"):
            load_csv(path)

    def test_non_finite_feature_rejected(self, write_csv):
        path = write_csv(["1.0,nan,1", "2.0,3.0,0"])
        with pytest.raises(DatasetError, match="non-finite"):
            load_csv(path)

    def test_missing_value_rejected(self, write_csv):
        path = write_csv(["1.0,,1", "2.0,3.0,0"])
        with pytest.raises(DatasetError, match="non-numeric"):
            load_csv(path)

    def test_header_autodetected(self, write_csv):
        path = write_csv(["f1,f2,target", "1.0,2.0,1", "3.0,4.0,0"])
        ds = load_csv(path)
        assert ds.instance_count == 2
        assert ds.features[0].tolist() == [1.0, 2.0]

    def test_row_order_preserved(self, write_csv):
        path = write_csv([f"{i}.0,{i % 2}" for i in range(10)])
        ds = load_csv(path)
        assert ds.features.ravel().tolist() == [float(i) for i in range(10)]

    def test_label_roundtrip_is_identity(self, write_csv):
        raw = ["m", "r", "r", "m", "r"]
        mapping = {"m": 0, "r": 1}
        path = write_csv([f"0.{i},{label}" for i, label in enumerate(raw)])
        ds = load_csv(path, label_mapping=mapping)
        inverse = {v: k for k, v in mapping.items()}
        assert [inverse[v] for v in ds.labels.tolist()] == raw

    def test_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes("\ufeff0.5,1.0,1\n0.2,0.3,0\n".encode("utf-8"))
        ds = load_csv(path)
        assert ds.features.tolist() == [[0.5, 1.0], [0.2, 0.3]]
        assert ds.labels.tolist() == [1, 0]

    @pytest.mark.skipif(not SONAR_PATH.exists(), reason="sonar.csv not supplied locally")
    def test_sonar_shape(self):
        ds = load_csv(SONAR_PATH, label_mapping={"m": 0, "r": 1})
        assert ds.instance_count == 208
        assert ds.features.shape[1] == 60


class TestNormalize:
    def test_range_wider_than_the_largest_float_rejected(self):
        features = np.array([[0.0, 1e308], [1.0, -1e308], [0.5, 0.0]])
        ds = Dataset(features=features, labels=np.array([0, 1, 0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DatasetError, match="column 1 ranges from -1e[+]308 to 1e[+]308"):
                normalize_min_max(ds)

    def test_affine_endpoints(self):
        ds = Dataset(features=np.array([[2.0], [4.0], [6.0]]), labels=np.array([0, 1, 0]))
        out = normalize_min_max(ds)
        assert out.features.ravel().tolist() == [0.0, 0.5, 1.0]

    def test_constant_column_maps_to_zero(self):
        ds = Dataset(features=np.array([[5.0], [5.0]]), labels=np.array([0, 1]))
        assert normalize_min_max(ds).features.ravel().tolist() == [0.0, 0.0]

    def test_already_unit_interval_unchanged(self):
        ds = Dataset(features=np.array([[0.0], [0.25], [1.0]]), labels=np.array([0, 1, 0]))
        assert normalize_min_max(ds).features.ravel().tolist() == [0.0, 0.25, 1.0]

    def test_idempotent(self, small_dataset):
        once = normalize_min_max(small_dataset)
        twice = normalize_min_max(once)
        assert np.array_equal(once.features, twice.features)

    @given(st.lists(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2), min_size=1, max_size=30))
    def test_output_in_unit_interval(self, rows):
        features = np.array(rows)
        ds = Dataset(features=features, labels=np.zeros(len(rows), dtype=np.int64))
        out = normalize_min_max(ds).features
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_labels_untouched(self, small_dataset):
        assert np.array_equal(normalize_min_max(small_dataset).labels, small_dataset.labels)


SPLIT_CONFIG = EvolutionConfig(
    space=SearchSpace(nodes=(2, 8), epochs=(1, 6), population_size=(3, 6), max_generations=(1, 4)),
    population_size=4,
    max_generations=3,
)


class TestShuffle:
    """The "shuffle" stream orders each run's split; no shuffled copy is made."""

    def test_deterministic(self, small_dataset):
        a = fold_split(small_dataset, 3, data_seed=7)
        b = fold_split(small_dataset, 3, data_seed=7)
        c = fold_split(small_dataset, 3, data_seed=8)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert not all(np.array_equal(x, y) for x, y in zip(a, c))

    @pytest.mark.parametrize("mode", list(Mode))
    def test_split_trains_like_a_shuffled_copy(self, mode):
        # The reference is the construction the input-row split replaced: a
        # co-permuted copy of the dataset, split by position.
        dataset = make_threshold_dataset(36, 3, seed=70)
        order = np.random.default_rng(derive_seed(71, "shuffle")).permutation(36)
        shuffled = Dataset(features=dataset.features[order], labels=dataset.labels[order])
        positions = kfold_split(shuffled, 3, derive_seed(71, "folds"))
        copy = evolution.run(mode, SPLIT_CONFIG, CrossValFitness(shuffled, positions), 72, discard)
        rows = fold_split(dataset, 3, data_seed=71)
        split = evolution.run(mode, SPLIT_CONFIG, CrossValFitness(dataset, rows), 72, discard)
        assert split.history == copy.history
        assert split.best.genome == copy.best.genome
        assert split.best.fitness.per_fold == copy.best.fitness.per_fold


class TestKFold:
    def test_even_division(self, small_dataset):
        split = kfold_split(small_dataset, k=4, seed=0)
        assert [f.size for f in split] == [6, 6, 6, 6]

    def test_ten_instances_five_folds_of_two(self):
        ds = Dataset(features=np.ones((10, 2)), labels=np.zeros(10, dtype=np.int64))
        split = kfold_split(ds, k=5, seed=3)
        assert [f.size for f in split] == [2, 2, 2, 2, 2]

    def test_balanced_sizes_208_by_5(self):
        # 208 = 5 * 41 + 3, so three folds take the extra instance.
        ds = Dataset(features=np.ones((208, 2)), labels=np.zeros(208, dtype=np.int64))
        split = kfold_split(ds, k=5, seed=1)
        assert sorted(f.size for f in split) == [41, 41, 42, 42, 42]

    @given(st.data())
    @settings(max_examples=40)
    def test_folds_partition_indices(self, data):
        # every k that ExperimentConfig and run_experiment let through
        n = data.draw(st.integers(2, 60), label="n")
        k = data.draw(st.integers(2, n), label="k")
        ds = Dataset(features=np.ones((n, 1)), labels=np.zeros(n, dtype=np.int64))
        split = kfold_split(ds, k=k, seed=data.draw(st.integers(0, 2**32), label="seed"))
        combined = np.concatenate(split)
        assert sorted(combined.tolist()) == list(range(n))
        sizes = [f.size for f in split]
        assert len(sizes) == k and min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
        CrossValFitness(ds, split)

    def test_deterministic_in_seed(self, small_dataset):
        a = kfold_split(small_dataset, k=3, seed=5)
        b = kfold_split(small_dataset, k=3, seed=5)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_folds_are_read_only_int64_arrays(self, small_dataset):
        split = kfold_split(small_dataset, k=3, seed=5)
        assert isinstance(split, tuple) and len(split) == 3
        for fold in split:
            assert fold.dtype == np.int64
            with pytest.raises(ValueError):
                fold[0] = 0

    def test_export_assignments(self, small_dataset, tmp_path):
        # run_experiment writes each run's fold assignment through _write_lines
        path = write_dataset_csv(small_dataset, tmp_path / "small.csv")
        run_experiment(_one_generation(DatasetSpec("small", path), tmp_path / "out", runs=1))
        text = (tmp_path / "out" / "folds_small_0.csv").read_bytes().decode("utf-8")
        assert "\r" not in text and text.endswith("\n")
        header, *rows = [line.split(",") for line in text.splitlines()]
        assert header == ["instance_index", "fold_id"]
        assert [int(index) for index, _ in rows] == list(range(small_dataset.instance_count))
        fold_ids = [int(fold_id) for _, fold_id in rows]
        assert sorted(fold_ids.count(k) for k in range(3)) == [8, 8, 8]


    def test_exported_rows_are_input_rows(self, write_csv, tmp_path, monkeypatch):
        # Feature 0 of each data row is its row number, counted from 0 without
        # the header and the blank line, so a fold's test rows name themselves;
        # min-max scaling maps row number i to i / 19.
        lines = ["row,x,label", *(f"{i},{i * 7 % 10},{i % 2}" for i in range(20))]
        lines.insert(9, "")
        spec = DatasetSpec("rows", write_csv(lines))
        scored = []
        real_run = evolution.run

        def spy(mode, config, fitness, run_seed, emit):
            scored.append(fitness)
            return real_run(mode, config, fitness, run_seed, emit)

        monkeypatch.setattr(evolution, "run", spy)
        run_experiment(_one_generation(spec, tmp_path / "out", runs=2))
        assert len(scored) == 2
        for run_index, fitness in enumerate(scored):
            text = (tmp_path / "out" / f"folds_rows_{run_index}.csv").read_text()
            exported = {int(i): int(k) for i, k in (line.split(",") for line in text.split()[1:])}
            tested = {
                round(19 * x): k
                for k, fold in enumerate(fitness.folds)
                for x in fitness.dataset.features[fold, 0]
            }
            assert exported == tested
            assert sorted(exported) == list(range(20))


def _one_generation(spec, out_dir, runs):
    """A one-mode experiment on ``spec`` with 3 folds and one tiny generation."""
    space = SearchSpace(nodes=(2, 2), epochs=(1, 1), population_size=(3, 3))
    return ExperimentConfig(
        datasets=[spec],
        modes=[Mode.NAS_PLUS],
        runs=runs,
        base_seed=5,
        out_dir=out_dir,
        folds=3,
        evolution=EvolutionConfig(space=space, population_size=3, max_generations=1),
    )


class TestDatasetInvariants:
    def test_label_length_mismatch(self):
        with pytest.raises(DatasetError):
            Dataset(features=np.ones((3, 2)), labels=np.array([0, 1]))

    def test_non_binary_labels(self):
        with pytest.raises(DatasetError):
            Dataset(features=np.ones((2, 2)), labels=np.array([0, 2]))

    def test_non_finite_features(self):
        with pytest.raises(DatasetError):
            Dataset(features=np.array([[np.inf, 1.0]]), labels=np.array([0]))

    def test_features_immutable(self, small_dataset):
        with pytest.raises(ValueError):
            small_dataset.features[0, 0] = 99.0

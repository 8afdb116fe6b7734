import contextlib
import io
import json
import tempfile
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enas.cli import main
from enas.evolution import EvolutionConfig, Mode, run
from enas.experiment import (
    AuditError,
    ExperimentError,
    audit_output_dir,
    config_from_file,
    emit_plot_data,
    read_history_csv,
    run_experiment,
    summarize_efficiency,
    write_history_csv,
)
from enas.genome import SearchSpace
from enas.synthetic import SyntheticFitness, make_threshold_dataset, write_dataset_csv

TINY_SPACE = {
    "population_size": [3, 6],
    "max_generations": [1, 4],
    "nodes": [2, 12],
    "epochs": [1, 12],
}


def _write_config(tmp_path, datasets=2, runs=2, modes=("nas_plus", "enas"), **extra):
    data_dir = tmp_path / "data"
    data_dir.mkdir(exist_ok=True)
    entries = []
    for i in range(datasets):
        name = f"toy{i}"
        ds = make_threshold_dataset(30 + 6 * i, 3, seed=100 + i, name=name)
        write_dataset_csv(ds, data_dir / f"{name}.csv")
        entries.append({"name": name, "path": f"data/{name}.csv"})
    doc = {
        "out_dir": "out",
        "runs": runs,
        "base_seed": 9,
        "folds": 3,
        "modes": list(modes),
        "datasets": entries,
        "search_space": TINY_SPACE,
        "static_params": {"population_size": 4, "max_generations": 3},
        **extra,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def experiment_dir(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("exp")
    config = config_from_file(_write_config(tmp_path))
    result = run_experiment(config, verbose=False)
    return tmp_path, config, result


class TestRunExperiment:
    def test_summary_has_one_row_per_dataset_mode_cell(self, experiment_dir):
        _, config, result = experiment_dir
        assert len(result.summary.rows) == len(config.datasets) * len(config.modes)

    def test_summary_row_invariants(self, experiment_dir):
        _, _, result = experiment_dir
        for row in result.summary.rows:
            assert row.range_ >= 0
            assert row.fittest - row.range_ <= row.average <= row.fittest
            assert 0.0 <= row.fittest <= 1.0

    def test_artifacts_written(self, experiment_dir):
        tmp_path, config, result = experiment_dir
        out = result.out_dir
        for spec in config.datasets:
            for run_index in range(config.runs):
                assert (out / f"folds_{spec.name}_{run_index}.csv").exists()
                for mode in config.modes:
                    stem = f"{spec.name}_{mode.value}_{run_index}"
                    assert (out / f"history_{stem}.csv").exists()
                    assert (out / f"best_genome_{stem}.json").exists()
        assert (out / "summary.csv").exists()
        assert (out / "efficiency.csv").exists()
        assert (out / "events.jsonl").exists()

    def test_best_genome_document_is_loadable(self, experiment_dir):
        from enas.genome import genome_from_doc

        _, _, result = experiment_dir
        doc = json.loads(result.artifacts[0].genome_path.read_text())
        genome = genome_from_doc(doc["genome"])
        assert genome.hidden_layers >= 1
        assert doc["mean_f_measure"] == result.artifacts[0].result.best.fitness.mean_f_measure

    def test_audit_passes_on_fresh_output(self, experiment_dir):
        _, _, result = experiment_dir
        audit_output_dir(result.out_dir)

    def test_audit_detects_tampering(self, experiment_dir, tmp_path):
        import shutil

        _, _, result = experiment_dir
        copy = tmp_path / "tampered"
        shutil.copytree(result.out_dir, copy)
        target = next(copy.glob("history_*_0.csv"))
        lines = target.read_text().splitlines()
        cells = lines[-1].split(",")
        cells[1] = "0.999999"  # forge the best fitness
        lines[-1] = ",".join(cells)
        target.write_text("\n".join(lines) + "\n")
        with pytest.raises(AuditError, match="does not match"):
            audit_output_dir(copy)

    def test_histories_reproducible_from_summary_values(self, experiment_dir):
        _, _, result = experiment_dir
        for row in result.summary.rows:
            bests = []
            for artifact in result.artifacts:
                if artifact.dataset == row.dataset and artifact.mode.value == row.mode:
                    history = read_history_csv(artifact.history_path)
                    bests.append(max(r.best_f1 for r in history))
            assert max(bests) == row.fittest

    def test_single_run_range_is_zero(self, tmp_path):
        config = config_from_file(_write_config(tmp_path, datasets=1, runs=1, modes=("enas",)))
        result = run_experiment(config, verbose=False)
        assert result.summary.rows[0].range_ == 0.0

    def test_missing_dataset_aborts_before_any_run(self, tmp_path):
        path = _write_config(tmp_path, datasets=1)
        doc = json.loads(path.read_text())
        doc["datasets"].append({"name": "ghost", "path": "data/ghost.csv"})
        doc["out_dir"] = "out_missing"
        path.write_text(json.dumps(doc))
        with pytest.raises(Exception):
            run_experiment(config_from_file(path), verbose=False)
        assert not (tmp_path / "out_missing").exists() or not list(
            (tmp_path / "out_missing").glob("history_*")
        )


class TestHistoryFiles:
    def test_history_roundtrip(self, tmp_path):
        result = run(
            Mode.ENAS,
            EvolutionConfig(space=SearchSpace(population_size=(3, 6), max_generations=(1, 5))),
            SyntheticFitness(),
            run_seed=3,
        )
        path = write_history_csv(result.history, tmp_path / "h.csv")
        parsed = read_history_csv(path)
        assert [r.as_dict() for r in parsed] == [r.as_dict() for r in result.history]

    def test_plot_data_shape(self, tmp_path):
        result = run(
            Mode.NAS_PLUS,
            EvolutionConfig(
                space=SearchSpace(population_size=(3, 6), max_generations=(1, 5)),
                population_size=4,
                max_generations=5,
            ),
            SyntheticFitness(),
            run_seed=4,
        )
        path = emit_plot_data(result.history, tmp_path / "plot.csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(result.history) + 1
        assert lines[0].startswith("generation,best_f1,mean_f1,mutation_rate")
        mutation_column = {line.split(",")[3] for line in lines[1:]}
        assert len(mutation_column) == 1  # static mode keeps the rate constant

    def test_plot_data_reemission_is_byte_identical(self, tmp_path):
        result = run(
            Mode.ENAS,
            EvolutionConfig(space=SearchSpace(population_size=(3, 6), max_generations=(1, 5))),
            SyntheticFitness(),
            run_seed=5,
        )
        a = emit_plot_data(result.history, tmp_path / "a.csv")
        b = emit_plot_data(result.history, tmp_path / "b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_empty_history_rejected(self, tmp_path):
        with pytest.raises(ExperimentError):
            emit_plot_data([], tmp_path / "x.csv")


class TestEfficiency:
    def _runs(self, mode, seeds, max_generations=8):
        space = SearchSpace(population_size=(3, 8), max_generations=(1, max_generations))
        config = EvolutionConfig(space=space, population_size=6, max_generations=max_generations)
        return [run(mode, config, SyntheticFitness(), run_seed=s) for s in seeds]

    def test_identical_run_lists_give_zero_delta(self):
        runs = self._runs(Mode.NAS_PLUS, range(3))
        report = summarize_efficiency({"toy": runs}, {"toy": runs})
        assert report.overall.models_delta_pct == 0.0
        assert report.overall.adaptive_fewer_models_fraction == 0.0

    def test_unpaired_inputs_rejected(self):
        runs = self._runs(Mode.NAS_PLUS, range(2))
        with pytest.raises(ExperimentError):
            summarize_efficiency({"toy": runs}, {"toy": runs[:1]})
        with pytest.raises(ExperimentError):
            summarize_efficiency({"toy": runs}, {"other": runs})

    def test_delta_matches_hand_computation(self):
        static = self._runs(Mode.NAS_PLUS, range(4))
        adaptive = self._runs(Mode.ENAS, range(4))
        report = summarize_efficiency({"toy": static}, {"toy": adaptive})
        mean_s = sum(r.models_trained for r in static) / 4
        mean_a = sum(r.models_trained for r in adaptive) / 4
        assert report.overall.mean_models_static == mean_s
        assert report.overall.mean_models_adaptive == mean_a
        assert report.overall.models_delta_pct == pytest.approx(
            100.0 * (mean_a - mean_s) / mean_s
        )
        fewer = sum(1 for a, s in zip(adaptive, static) if a.models_trained < s.models_trained)
        assert report.overall.adaptive_fewer_models_fraction == fewer / 4


class TestConfigFile:
    def test_overrides_applied(self, tmp_path):
        path = _write_config(tmp_path)
        config = config_from_file(
            path,
            {
                "runs": 5,
                "seed": 77,
                "out": "elsewhere",
                "pop_bounds": (3, 9),
                "max_generations_cap": 2,
                "jobs": 2,
                "modes": ["enas"],
                "datasets": ["toy1"],
            },
        )
        assert config.runs == 5
        assert config.base_seed == 77
        assert config.out_dir == Path("elsewhere")  # cwd-relative, as typed
        assert config.evolution.space.population_size == (3, 9)
        assert config.evolution.space.max_generations[1] == 2
        assert config.evolution.max_generations == 2
        assert config.jobs == 2
        assert [m.value for m in config.modes] == ["enas"]
        assert [d.name for d in config.datasets] == ["toy1"]

    def test_unknown_dataset_filter_rejected(self, tmp_path):
        path = _write_config(tmp_path)
        with pytest.raises(ExperimentError, match="unknown dataset"):
            config_from_file(path, {"datasets": ["nope"]})

    def test_missing_config_rejected(self, tmp_path):
        with pytest.raises(ExperimentError, match="not found"):
            config_from_file(tmp_path / "none.json")


class TestCli:
    def test_run_and_audit_roundtrip(self, tmp_path, capsys, monkeypatch):
        # the --out override is relative to the caller's cwd, not the config
        config_path = _write_config(tmp_path, datasets=1, runs=1)
        workdir = tmp_path / "elsewhere"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        code = main(["run", "--config", str(config_path), "--out", "cli_out"])
        assert code == 0
        out_dir = workdir / "cli_out"
        assert (out_dir / "summary.csv").exists()
        assert main(["audit", "--out", "cli_out"]) == 0
        assert "audit passed" in capsys.readouterr().out

    def test_audit_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config_path = _write_config(tmp_path, datasets=1, runs=1, modes=("enas",))
        assert main(["run", "--config", str(config_path), "--out", "cli_out2"]) == 0
        summary = tmp_path / "cli_out2" / "summary.csv"
        lines = summary.read_text().splitlines()
        cells = lines[1].split(",")
        cells[3] = "0.123456"
        lines[1] = ",".join(cells)
        summary.write_text("\n".join(lines) + "\n")
        assert main(["audit", "--out", str(tmp_path / "cli_out2")]) == 1

    def test_bad_config_exit_code(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2

    @staticmethod
    def _assert_one_line_error(capsys, argv):
        # main() returning at all means no exception (and so no traceback) escaped
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return err

    @pytest.mark.parametrize("flag", ["--runs", "--jobs", "--max-generations-cap"])
    def test_zero_override_rejected(self, tmp_path, capsys, flag):
        config_path = _write_config(tmp_path, datasets=1, runs=1)
        self._assert_one_line_error(capsys, ["run", "--config", str(config_path), flag, "0"])

    @pytest.mark.parametrize(
        "section, key",
        [
            (None, "runz"),
            ("datasets", "pathh"),
            ("search_space", "nodez"),
            ("static_params", "tournament_sise"),
        ],
    )
    def test_unknown_config_key_rejected(self, tmp_path, capsys, section, key):
        config_path = _write_config(tmp_path, datasets=1, runs=1)
        doc = json.loads(config_path.read_text())
        target = doc if section is None else doc[section]
        (target[0] if section == "datasets" else target)[key] = 1
        config_path.write_text(json.dumps(doc))
        assert key in self._assert_one_line_error(capsys, ["run", "--config", str(config_path)])

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda doc: json.dumps(doc)[:-1], id="malformed-json"),
            pytest.param(lambda doc: {**doc, "runs": "x"}, id="runs-not-integer"),
            pytest.param(lambda doc: {**doc, "modes": ["nope"]}, id="unknown-mode"),
            pytest.param(lambda doc: {**doc, "search_space": [1, 2]}, id="search-space-list"),
            pytest.param(
                lambda doc: {**doc, "search_space": {"nodes": "ab"}}, id="nodes-not-integers"
            ),
        ],
    )
    def test_wrongly_typed_config_rejected(self, tmp_path, capsys, edit):
        config_path = _write_config(tmp_path, datasets=1, runs=1)
        edited = edit(json.loads(config_path.read_text()))
        config_path.write_text(edited if isinstance(edited, str) else json.dumps(edited))
        self._assert_one_line_error(capsys, ["run", "--config", str(config_path)])

    def test_plot_data_subcommand(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config_path = _write_config(tmp_path, datasets=1, runs=1, modes=("enas",))
        assert main(["run", "--config", str(config_path), "--out", "cli_out3"]) == 0
        history = next((tmp_path / "cli_out3").glob("history_*.csv"))
        target = tmp_path / "plot.csv"
        assert main(["plot-data", str(history), str(target)]) == 0
        assert target.exists()

    def test_demo_data_subcommand(self, tmp_path):
        target = tmp_path / "demo"
        assert main(["demo-data", "--out", str(target), "--seed", "3"]) == 0
        files = sorted(p.name for p in target.glob("*.csv"))
        assert len(files) == 4


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 300) | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)
VALID_DOC = {
    "out_dir": "out",
    "runs": 1,
    "base_seed": 9,
    "folds": 3,
    "jobs": 1,
    "modes": ["nas_plus", "enas"],
    "datasets": [{"name": "toy", "path": "data/toy.csv"}],
    "search_space": dict(TINY_SPACE),
    "static_params": {"population_size": 4, "max_generations": 3, "crossover_rate": 0.9},
}
FIELD_NAMES = {
    None: sorted(VALID_DOC),
    "search_space": [f.name for f in fields(SearchSpace)],
    "static_params": [f.name for f in fields(EvolutionConfig) if f.name != "space"],
    "dataset": ["name", "path", "label_column", "label_mapping", "normalize"],
}


@st.composite
def config_documents(draw):
    """Config file text: a valid document with a few values replaced or removed,
    or arbitrary JSON, or arbitrary text."""
    kind = draw(st.sampled_from(["edited", "edited", "edited", "json", "text"]))
    if kind == "text":
        return draw(st.text(max_size=40))
    if kind == "json":
        return json.dumps(draw(JSON_VALUES))
    doc = json.loads(json.dumps(VALID_DOC))
    for _ in range(draw(st.integers(1, 3))):
        section = draw(st.sampled_from(sorted(FIELD_NAMES, key=str)))
        target = doc if section is None else doc.get(section)
        if section == "dataset":
            target = doc.get("datasets")
            target = target[0] if isinstance(target, list) and target else None
        if not isinstance(target, dict):
            continue
        key = draw(st.sampled_from(FIELD_NAMES[section]))
        if draw(st.booleans()):
            target[key] = draw(JSON_VALUES)
        else:
            target.pop(key, None)
    return json.dumps(doc)


@given(config_documents())
@settings(max_examples=300, deadline=None)
def test_fuzzed_config_loads_or_gives_one_error_line(text):
    # run_experiment is stubbed: only loading the config is under test
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with mock.patch("enas.cli.run_experiment", return_value=SimpleNamespace(out_dir=tmp)):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["run", "--config", str(path)])
    if code != 0:
        assert code == 2
        message = err.getvalue()
        assert message.startswith("error: ") and message.count("\n") == 1, message

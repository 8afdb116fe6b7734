import contextlib
import gc
import io
import json
import os
import re
import shutil
import signal
import sys
import tempfile
import time
import tracemalloc
import warnings
from dataclasses import asdict, astuple, fields, replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enas import evolution, experiment
from enas.cli import _DEMO_DATASETS, _build_parser, apply_run_flags, main
from enas.data import load_csv
from enas.evolution import EvolutionConfig, GenerationRecord, Mode, run
from enas.experiment import (
    MAX_JOBS,
    AuditError,
    Cell,
    DatasetSpec,
    EfficiencyRow,
    ExperimentConfig,
    ExperimentError,
    RunComplete,
    SummaryRow,
    _csv_lines,
    _run_cell,
    _write_lines,
    audit_output_dir,
    config_from_file,
    run_experiment,
    summarize_efficiency,
)
from enas.genome import Genome, SearchSpace, genome_to_doc
from enas.seeding import derive_seed
from enas.synthetic import make_threshold_dataset, write_dataset_csv

from .test_evolution import SyntheticFitness, discard
from .test_genome import assert_valid_genome

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

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


def _with_flags(path, *flags):
    """The config that ``enas run --config path flags...`` runs."""
    args = _build_parser().parse_args(["run", "--config", str(path), *flags])
    return apply_run_flags(config_from_file(path), args)


def _edit_dataset(key, value):
    return lambda doc: {**doc, "datasets": [{**doc["datasets"][0], key: value}]}


def _rewrite_lines(path, edit):
    lines = edit(path.read_text().splitlines())
    path.write_text("".join(f"{line}\n" for line in lines))


def _replace_last_cell(index, value):
    def edit(lines):
        cells = lines[-1].split(",")
        cells[index] = value
        return [*lines[:-1], ",".join(cells)]

    return edit


RUN_1_COMPLETE = '{"type": "run_complete", "dataset": "toy0", "mode": "nas_plus", "run": 1,'


def _edit_first_run_complete(pattern, replacement):
    def edit(lines):
        first = next(i for i, line in enumerate(lines) if '"type": "run_complete"' in line)
        return [*lines[:first], re.sub(pattern, replacement, lines[first]), *lines[first + 1 :]]

    return edit


def _move_two_rows_to_fold_zero(lines):
    moved = [i for i, line in enumerate(lines) if i and not line.endswith(",0")][:2]
    return [line.split(",")[0] + ",0" if i in moved else line for i, line in enumerate(lines)]


def _swap_fold_ids_of_row_0_and_a_row_of_another_fold(lines):
    # Every fold keeps its size, so the file is still a split, but not the one drawn.
    rows = [line.split(",") for line in lines[1:]]
    other = next(i for i, row in enumerate(rows) if row[1] != rows[0][1])
    rows[0][1], rows[other][1] = rows[other][1], rows[0][1]
    return [lines[0], *map(",".join, rows)]


def _edit_experiment_start(edit):
    def edited(lines):
        return [json.dumps(edit(json.loads(lines[0]))), *lines[1:]]

    return edited


def _edit_history_cell(column):
    """Change row 1 of a history in ``column``; return the file and the line edited."""

    def edit(out):
        path = out / "history_toy0_enas_0.csv"
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        value = json.loads(cells[column])
        cells[column] = str(value + 1) if type(value) is int else repr(value + 0.125)
        _rewrite_lines(path, lambda lines: [lines[0], ",".join(cells), *lines[2:]])
        return path, 2

    return edit


def _edit_event(kind, change):
    """Apply ``change`` to the first events.jsonl record of type ``kind``; return
    the file and the line edited."""

    def edit(out):
        path = out / "events.jsonl"
        lines = path.read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if json.loads(line)["type"] == kind)
        doc = json.loads(lines[i])
        change(doc)
        _rewrite_lines(path, lambda lines: [*lines[:i], json.dumps(doc), *lines[i + 1 :]])
        return path, i + 1

    return edit


def _drop_last_initial_evaluation(lines):
    """Lines without the first cell's last generation-0 evaluation, so that the
    replay scores that genome with the next line, which is no evaluation."""
    after = next(i for i, line in enumerate(lines[1:], 1) if '"type": "evaluation"' not in line)
    return [*lines[: after - 1], *lines[after:]]


def _rescore_first_fold(doc):
    doc["per_fold"][0] = doc["per_fold"][0] / 2 or 0.5


def _edit_best_genome_nodes(out):
    path = out / "best_genome_toy0_enas_0.json"
    doc = json.loads(path.read_text())
    doc["genome"]["nodes"] += 1
    lines = json.dumps(doc, indent=2).splitlines()
    _rewrite_lines(path, lambda _: lines)
    return path, next(i for i, line in enumerate(lines, start=1) if '"nodes"' in line)


def _edit_bytes(name, edit, number):
    """Apply ``edit`` to the bytes of the output file ``name``; return the file and
    the line that ``number(original bytes)`` names."""

    def edited(out):
        path = out / name
        original = path.read_bytes()
        path.write_bytes(edit(original))
        return path, number(original)

    return edited


def _edit_start_line(edit):
    """Apply ``edit`` to the text of line 1 of events.jsonl, the experiment_start record."""

    def edited(data):
        first, rest = data.split(b"\n", 1)
        return edit(first.decode()).encode() + b"\n" + rest

    return _edit_bytes("events.jsonl", edited, lambda data: 1)


# One file of each kind that enas audit rebuilds.
REBUILT_FILES = (
    "summary.csv",
    "efficiency.csv",
    "history_toy0_enas_0.csv",
    "best_genome_toy1_nas_plus_1.json",
    "folds_toy0_0.csv",
)
# Each line break that str.splitlines breaks a line at and LF does not.
OTHER_LINE_BREAKS = {"cr": "\r", "form-feed": "\x0c", "record-separator": "\x1e",
                     "next-line": "\x85", "line-separator": "\u2028"}
# Edits of the line format alone: no parsed JSON value or CSV cell changes.
LINE_FORMAT_EDITS = [
    *(
        pytest.param(
            _edit_bytes(name, lambda data: data.replace(b"\n", b"\r\n"), lambda data: 1),
            id=f"crlf-{name}",
        )
        for name in REBUILT_FILES
    ),
    *(
        pytest.param(
            _edit_bytes(name, lambda data: data[:-1], lambda data: data.count(b"\n")),
            id=f"no-last-lf-{name}",
        )
        for name in (*REBUILT_FILES, "events.jsonl")
    ),
    *(
        pytest.param(
            _edit_bytes(
                "history_toy0_enas_0.csv",
                lambda data, brk=brk: data.decode().replace("\n", brk, 1).encode(),
                lambda data: 1,
            ),
            id=f"history-first-lf-as-{kind}",
        )
        for kind, brk in OTHER_LINE_BREAKS.items()
    ),
    pytest.param(
        _edit_start_line(
            lambda line: json.dumps(dict(sorted(json.loads(line).items())), separators=(",", ":"))
        ),
        id="start-reordered-and-compact",
    ),
    pytest.param(_edit_start_line(lambda line: line + "\r"), id="start-cr-before-lf"),
    pytest.param(
        _edit_start_line(lambda line: line.replace(", ", ', "static_params": {}, ', 1)),
        id="start-duplicated-static-params",
    ),
    pytest.param(
        _edit_bytes("events.jsonl", lambda data: data + b"\n", lambda data: data.count(b"\n") + 1),
        id="blank-line-after-events",
    ),
]


def read_summary_rows(out_dir):
    """The rows of ``out_dir``'s summary.csv."""
    kinds = [str, str, int, float, float, float, int]
    lines = (Path(out_dir) / "summary.csv").read_text().splitlines()
    return [
        SummaryRow(*(kind(cell) for kind, cell in zip(kinds, line.split(","))))
        for line in lines[1:]
    ]


def read_history(path):
    """The rows of a history file; each cell is the JSON number it is written as."""
    lines = Path(path).read_text().splitlines()[1:]
    return [GenerationRecord(*map(json.loads, line.split(","))) for line in lines]


def _run_complete_docs(out_dir):
    lines = (Path(out_dir) / "events.jsonl").read_text().splitlines()
    return [doc for doc in map(json.loads, lines) if doc["type"] == "run_complete"]


def run_complete(state, dataset="toy", run_index=0):
    """The run_complete record of a cell whose search ended in ``state``."""
    best_f1 = state.best.fitness.mean_f_measure
    return RunComplete(
        dataset, state.mode.value, run_index, best_f1, state.generation,
        state.models_trained, state.halted, state.wall_time,
    )


@pytest.fixture(scope="module")
def experiment_dir(tmp_path_factory):
    """The config of an experiment that has run, two datasets x two runs x two modes."""
    config = config_from_file(_write_config(tmp_path_factory.mktemp("exp")))
    run_experiment(config)
    return config


@pytest.fixture(scope="module")
def one_mode_dir(tmp_path_factory):
    """The output directory of an experiment of one dataset x two runs x the adaptive mode."""
    config_path = _write_config(tmp_path_factory.mktemp("one-mode"), datasets=1, modes=("enas",))
    config = config_from_file(config_path)
    run_experiment(config)
    return config.out_dir


class TestRunExperiment:
    def test_summary_has_one_row_per_dataset_mode_cell(self, experiment_dir):
        config = experiment_dir
        rows = read_summary_rows(config.out_dir)
        assert [(row.dataset, row.mode) for row in rows] == [
            (spec.name, mode.value) for spec in config.datasets for mode in config.modes
        ]
        assert all(row.runs == config.runs for row in rows)

    def test_summary_row_invariants(self, experiment_dir):
        for row in read_summary_rows(experiment_dir.out_dir):
            assert row.range >= 0
            assert row.fittest - row.range <= row.average <= row.fittest
            assert 0.0 <= row.fittest <= 1.0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_output_file_is_lf_only(self, tmp_path, jobs):
        config = _with_flags(_write_config(tmp_path, datasets=1, runs=1), "--jobs", str(jobs))
        run_experiment(config)
        for path in config.out_dir.iterdir():
            data = path.read_bytes()
            assert data.endswith(b"\n") and b"\r" not in data, path.name

    def test_artifacts_written(self, experiment_dir):
        config = experiment_dir
        out = config.out_dir
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
        out = experiment_dir.out_dir
        doc = json.loads((out / "best_genome_toy0_nas_plus_0.json").read_text())
        genes = [tuple(v) if isinstance(v, list) else v for v in doc["genome"].values()]
        genome = Genome(*genes)
        assert_valid_genome(genome, experiment_dir.evolution.space)
        assert genome_to_doc(genome) == doc["genome"] and genome.hidden_layers >= 1
        assert doc["mean_f_measure"] == _run_complete_docs(out)[0]["best_f1"]

    def test_audit_passes_on_fresh_output(self, experiment_dir):
        config = experiment_dir
        audit_output_dir(config.out_dir)

    def test_audit_detects_tampering(self, experiment_dir, tmp_path):
        import shutil

        config = experiment_dir
        copy = tmp_path / "tampered"
        shutil.copytree(config.out_dir, copy)
        target = next(copy.glob("history_*_0.csv"))
        lines = target.read_text().splitlines()
        cells = lines[-1].split(",")
        cells[1] = "0.999999"  # forge the best fitness
        lines[-1] = ",".join(cells)
        target.write_text("\n".join(lines) + "\n")
        with pytest.raises(AuditError, match=rf"{re.escape(target.name)}':{len(lines)}: has "):
            audit_output_dir(copy)

    def test_histories_reproducible_from_summary_values(self, experiment_dir):
        config = experiment_dir
        for row in read_summary_rows(config.out_dir):
            bests = []
            for run_index in range(row.runs):
                path = config.out_dir / f"history_{row.dataset}_{row.mode}_{run_index}.csv"
                bests.append(max(r.best_f1 for r in read_history(path)))
            assert max(bests) == row.fittest

    def test_single_run_range_is_zero(self, tmp_path):
        config = config_from_file(_write_config(tmp_path, datasets=1, runs=1, modes=("enas",)))
        run_experiment(config)
        assert read_summary_rows(config.out_dir)[0].range == 0.0
        # with one mode there is no efficiency.csv, and the audit needs none
        assert not (config.out_dir / "efficiency.csv").exists()
        audit_output_dir(config.out_dir)

    def test_progress_line_is_one_write(self, tmp_path, monkeypatch):
        # Parallel cells share one stdout: a line written in two parts can
        # have another cell's line written between them.
        writes = []
        monkeypatch.setattr(sys, "stdout", mock.Mock(write=writes.append))
        config = EvolutionConfig(space=SearchSpace(population_size=(3, 6), max_generations=(1, 5)))
        _run_cell(Cell("toy", Mode.ENAS, 0), config, SyntheticFitness(), 5, tmp_path)
        assert len(writes) == 1 and re.fullmatch(r"toy enas run 0: .*\n", writes[0]), writes

    def test_cell_whose_part_write_fails_leaves_no_part(self, tmp_path, monkeypatch):
        # Each cell file is written under a temporary name and then renamed,
        # so a write cut short leaves only the temporary file.
        real_asdict = experiment.asdict

        def fail_at_run_complete(obj):
            if isinstance(obj, RunComplete):
                raise OSError("no space left on device")
            return real_asdict(obj)

        monkeypatch.setattr(experiment, "asdict", fail_at_run_complete)
        config = EvolutionConfig(space=SearchSpace(population_size=(3, 6), max_generations=(1, 5)))
        with pytest.raises(OSError, match="no space left"):
            _run_cell(Cell("toy", Mode.ENAS, 0), config, SyntheticFitness(), 5, tmp_path)
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "best_genome_toy_enas_0.json",
            "events_toy_enas_0.jsonl.tmp",
            "history_toy_enas_0.csv",
        ]
        assert (tmp_path / "events_toy_enas_0.jsonl.tmp").read_text().count("\n") > 1

    def test_events_file_is_replaced_whole_and_parts_kept_until_then(self, tmp_path, monkeypatch):
        # events.jsonl is written as events.jsonl.tmp and renamed, and no part is
        # deleted before the rename, so a merge that fails loses no event.
        real_copy, copies = shutil.copyfileobj, []

        def fail_at_second_part(source, target):
            copies.append(source.name)
            if len(copies) == 2:
                raise OSError("no space left on device")
            real_copy(source, target)

        monkeypatch.setattr(experiment.shutil, "copyfileobj", fail_at_second_part)
        config = config_from_file(_write_config(tmp_path, datasets=1, runs=1))
        with pytest.raises(OSError, match="no space left"):
            run_experiment(config)
        names = {path.name for path in config.out_dir.iterdir()}
        assert {"events_toy0_nas_plus_0.jsonl", "events_toy0_enas_0.jsonl"} <= names
        assert "events.jsonl.tmp" in names and "events.jsonl" not in names

    def test_summary_is_built_from_the_run_complete_records(self, tmp_path, monkeypatch):
        # With every history written without its last row, summary.csv still
        # agrees with the run_complete records, and so no longer with the histories.
        real_files = experiment._cell_files

        def cut_history(cell, state, wall_time):
            files, record = real_files(cell, state, wall_time)
            return {**files, cell.history_file: files[cell.history_file][:-1]}, record

        monkeypatch.setattr(experiment, "_cell_files", cut_history)
        config = config_from_file(_write_config(tmp_path, datasets=1))
        run_experiment(config)
        rows, docs = read_summary_rows(config.out_dir), _run_complete_docs(config.out_dir)
        for row in rows:
            runs = [doc for doc in docs if doc["mode"] == row.mode]
            assert row.models_trained == sum(doc["models_trained"] for doc in runs)
            assert row.fittest == max(doc["best_f1"] for doc in runs)
        histories = map(read_history, config.out_dir.glob("history_*.csv"))
        written = sum(history[-1].models_trained_cumulative for history in histories if history)
        assert written < sum(row.models_trained for row in rows)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_no_evaluation_event_waits_in_the_parent(self, tmp_path, monkeypatch, jobs):
        # Each cell writes its events to its own part file when it ends and
        # returns only its run_complete record, so a long search holds no
        # cell's state or events in the parent until the last ends.
        returned = []
        real_evaluate = evolution.EvaluatorPool.evaluate

        def recorded(self, tasks):
            results = real_evaluate(self, tasks)
            returned.extend(results)
            return results

        monkeypatch.setattr(evolution.EvaluatorPool, "evaluate", recorded)
        config = _with_flags(_write_config(tmp_path, datasets=1), "--jobs", str(jobs))
        run_experiment(config)
        assert len(returned) == 4 and all(type(record) is RunComplete for record in returned)
        written = _run_complete_docs(config.out_dir)
        assert [{"type": "run_complete", **asdict(record)} for record in returned] == written
        lines = (config.out_dir / "events.jsonl").read_text().splitlines()
        assert any(json.loads(line)["type"] == "evaluation" for line in lines)
        assert not list(config.out_dir.glob("events_*.jsonl"))

    def test_events_keep_config_order_when_cells_finish_out_of_order(
        self, tmp_path, capfd, monkeypatch
    ):
        first_seed = derive_seed(9, "toy0", 0, "enas")  # 9 is _write_config's base seed

        def delay_first_cell(mode, config, fitness, run_seed, emit):
            if run_seed == first_seed:
                time.sleep(0.3)
            return run(mode, config, fitness, run_seed, emit)

        monkeypatch.setattr(evolution, "run", delay_first_cell)
        config_path = _write_config(tmp_path, datasets=1, runs=3, modes=("enas",))
        outputs = {}
        for jobs in (1, 2):
            flags = ["--jobs", str(jobs), "--out", str(tmp_path / f"out{jobs}")]
            config = _with_flags(config_path, *flags)
            run_experiment(config)
            outputs[jobs] = {path.name: path.read_bytes() for path in config.out_dir.iterdir()}
            events = outputs[jobs].pop("events.jsonl").decode().splitlines()
            outputs[jobs]["events"] = [
                {key: value for key, value in json.loads(line).items() if key != "wall_time"}
                for line in events
            ]
        # Progress lines come in completion order: jobs 1, then jobs 2.
        finished = re.findall(r"^toy0 enas run (\d): ", capfd.readouterr().out, re.MULTILINE)
        assert finished[:3] == ["0", "1", "2"] and finished[3] != "0", finished
        assert len(outputs[1]) == 3 + 3 + 3 + 1 + 1  # histories, genomes, folds, summary, events
        assert outputs[1] == outputs[2]

    def test_a_cells_traced_memory_does_not_grow_with_its_event_count(self, tmp_path, monkeypatch):
        # Each event goes to the cell's part as it is emitted, so a cell holds
        # none: 10,000 events of about 1 KB each would take about 10 MB.
        config = EvolutionConfig(space=SearchSpace(population_size=(3, 6), max_generations=(1, 5)))
        state = run(Mode.ENAS, config, SyntheticFitness(), 5, discard)

        def peak(events):
            def emitting(mode, config, fitness, run_seed, emit):
                for i in range(events):
                    emit({"type": "evaluation", "i": i, "pad": "x" * 1000})
                return state

            monkeypatch.setattr(evolution, "run", emitting)
            gc.collect()  # the cycles that earlier cells left would count towards this peak
            tracemalloc.reset_peak()
            _run_cell(Cell("toy", Mode.ENAS, events), config, SyntheticFitness(), 5, tmp_path)
            return tracemalloc.get_traced_memory()[1]

        tracemalloc.start()
        try:
            peaks = [peak(events) for events in (100, 10_000)]
        finally:
            tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 16_000, peaks
        with (tmp_path / "events_toy_enas_10000.jsonl").open() as part:
            assert sum(1 for _ in part) == 10_000 + 1  # and the run_complete line

    def test_the_audits_traced_memory_does_not_grow_with_a_cells_event_count(
        self, tmp_path, monkeypatch
    ):
        # The audit reads events.jsonl a line at a time and holds only the lines of
        # one batch of evaluations: 10,000 lines of about 1 KB would take about 10 MB.
        real_run = evolution.run

        def padded(events):
            def run_padded(mode, config, fitness, run_seed, emit):
                for i in range(events):
                    emit({"type": "pad", "i": i, "pad": "x" * 1000})
                return real_run(mode, config, fitness, run_seed, emit)

            return run_padded

        config_path = _write_config(tmp_path, datasets=1, runs=1, modes=("nas_plus",))

        def peak(events):
            monkeypatch.setattr(evolution, "run", padded(events))
            out = tmp_path / f"out{events}"
            run_experiment(_with_flags(config_path, "--out", str(out)))
            audit_output_dir(out)  # a first call's imports and caches count in no peak
            gc.collect()
            tracemalloc.start()
            try:
                audit_output_dir(out)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peaks = [peak(events) for events in (100, 10_000)]
        assert peaks[1] <= peaks[0] + 16_000, peaks

    def test_events_stream_into_the_part_while_the_search_runs(self, tmp_path):
        # The part is open as <part>.tmp, line-buffered, from the start of the
        # search, so generation 0's events are on disk while generation 1 is
        # scored; a search that raises leaves that part and no other file.
        part = tmp_path / "events_toy_nas_plus_0.jsonl.tmp"
        seen = []

        class ReadThenFail:
            calls = 0

            def evaluate(self, pairs):
                self.calls += 1
                if self.calls == 2:  # generation 1's offspring
                    seen.extend(map(json.loads, part.read_text().splitlines()))
                    raise RuntimeError("generation 1 failed")
                return SyntheticFitness().evaluate(pairs)

        space = SearchSpace(population_size=(3, 6), max_generations=(1, 5))
        config = EvolutionConfig(space=space, population_size=4, max_generations=3)
        with pytest.raises(RuntimeError, match="generation 1 failed"):
            _run_cell(Cell("toy", Mode.NAS_PLUS, 0), config, ReadThenFail(), 5, tmp_path)
        assert [doc["type"] for doc in seen] == ["evaluation"] * 4 + ["generation_end"]
        keys = {"dataset": "toy", "mode": "nas_plus", "run": 0, "generation": 0}
        assert all(doc.items() >= keys.items() for doc in seen)
        assert [path.name for path in tmp_path.iterdir()] == [part.name]
        assert part.read_text().count("\n") == len(seen)

    def test_missing_dataset_aborts_before_any_run(self, tmp_path):
        path = _write_config(tmp_path, datasets=1)
        doc = json.loads(path.read_text())
        doc["datasets"].append({"name": "ghost", "path": "data/ghost.csv"})
        doc["out_dir"] = "out_missing"
        path.write_text(json.dumps(doc))
        with pytest.raises(Exception):
            run_experiment(config_from_file(path))
        assert not (tmp_path / "out_missing").exists() or not list(
            (tmp_path / "out_missing").glob("history_*")
        )


class TestHistoryFiles:
    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(_replace_last_cell(1, "x"), id="x"),
            pytest.param(_replace_last_cell(0, "+3"), id="plus"),
            pytest.param(_replace_last_cell(7, "1_000"), id="underscore"),
            pytest.param(_replace_last_cell(2, "nan"), id="nan"),
            pytest.param(_replace_last_cell(3, "inf"), id="inf"),
            pytest.param(_replace_last_cell(1, "[" * 100_000), id="deep-nesting"),
            pytest.param(_replace_last_cell(4, "9" * 5000), id="too-many-digits"),
            pytest.param(_replace_last_cell(1, "true"), id="true"),
            pytest.param(_replace_last_cell(0, "1.5"), id="float-for-int"),
            pytest.param(_replace_last_cell(5, '"0.5"'), id="string"),
            pytest.param(_replace_last_cell(1, "NaN"), id="json-nan"),
            pytest.param(_replace_last_cell(2, "Infinity"), id="json-infinity"),
            pytest.param(_replace_last_cell(3, "1e309"), id="beyond-float-range"),
            pytest.param(lambda lines: [*lines[:-1], lines[-1].rsplit(",", 1)[0]], id="short-row"),
            pytest.param(lambda lines: [*lines[:-1], ""], id="empty"),
        ],
    )
    def test_malformed_row_is_a_mismatch_naming_its_line(
        self, experiment_dir, tmp_path, capsys, edit
    ):
        # The audit parses no history cell: it compares each line with the replay's.
        out = tmp_path / "out"
        shutil.copytree(experiment_dir.out_dir, out)
        path = out / "history_toy0_enas_1.csv"
        original = path.read_text().splitlines()
        _rewrite_lines(path, edit)
        edited = path.read_text().splitlines()
        assert main(["audit", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"audit failed: {str(path)!r}:{len(edited)}: has {edited[-1]}, "
            f"recomputed {original[-1]}\n"
        )


class TestCsvFiles:
    def test_writer_bytes_are_exact(self, tmp_path):
        path = tmp_path / "t.csv"
        _write_lines(
            path, _csv_lines(("name", "count", "sum", "tiny"), [("a b", 3, 0.1 + 0.2, 1e-300)])
        )
        assert path.read_bytes() == b"name,count,sum,tiny\na b,3,0.30000000000000004,1e-300\n"

    def test_summary_and_efficiency_files_are_exact(self, experiment_dir):
        # every float is written with repr, so each file reproduces the values
        # recomputed here from the history files and the run_complete events
        out = experiment_dir.out_dir
        histories = [read_history(out / f"history_toy0_nas_plus_{i}.csv") for i in range(2)]
        bests = [max(record.best_f1 for record in history) for history in histories]
        models = sum(history[-1].models_trained_cumulative for history in histories)
        assert (out / "summary.csv").read_text().startswith(
            "dataset,mode,runs,fittest,average,range,models_trained\n"
            f"toy0,nas_plus,2,{max(bests)!r},{sum(bests) / 2!r},"
            f"{max(bests) - min(bests)!r},{models}\n"
        )
        records = [
            RunComplete(**{key: value for key, value in doc.items() if key != "type"})
            for doc in _run_complete_docs(out)
        ]
        e = summarize_efficiency(records)[-1]
        text = (out / "efficiency.csv").read_text()
        assert text.startswith(
            "dataset,pairs,mean_models_static,mean_models_adaptive,models_delta_pct,"
            "mean_wall_static,mean_wall_adaptive,wall_delta_pct,adaptive_fewer_models_fraction\n"
        )
        assert text.endswith(
            f"\noverall,{e.pairs},{e.mean_models_static!r},{e.mean_models_adaptive!r},"
            f"{e.models_delta_pct!r},{e.mean_wall_static!r},{e.mean_wall_adaptive!r},"
            f"{e.wall_delta_pct!r},{e.adaptive_fewer_models_fraction!r}\n"
        )


class TestEfficiency:
    def _runs(self, mode, seeds, max_generations=8):
        space = SearchSpace(population_size=(3, 8), max_generations=(1, max_generations))
        config = EvolutionConfig(space=space, population_size=6, max_generations=max_generations)
        return [
            run_complete(run(mode, config, SyntheticFitness(), s, discard), run_index=s)
            for s in seeds
        ]

    def test_identical_run_lists_give_zero_delta(self):
        runs = self._runs(Mode.NAS_PLUS, range(3))
        same = [replace(record, mode=Mode.ENAS.value) for record in runs]
        overall = summarize_efficiency(runs + same)[-1]
        assert overall.models_delta_pct == 0.0
        assert overall.adaptive_fewer_models_fraction == 0.0

    def test_delta_matches_hand_computation(self):
        static = self._runs(Mode.NAS_PLUS, range(4))
        adaptive = self._runs(Mode.ENAS, range(4))
        overall = summarize_efficiency(static + adaptive)[-1]
        mean_s = sum(r.models_trained for r in static) / 4
        mean_a = sum(r.models_trained for r in adaptive) / 4
        assert overall.mean_models_static == mean_s
        assert overall.mean_models_adaptive == mean_a
        assert overall.models_delta_pct == pytest.approx(
            100.0 * (mean_a - mean_s) / mean_s
        )
        fewer = sum(1 for a, s in zip(adaptive, static) if a.models_trained < s.models_trained)
        assert overall.adaptive_fewer_models_fraction == fewer / 4

    def test_rows_per_dataset_then_overall(self):
        # (models trained, wall time) per dataset, run and mode; every mean and
        # delta below is exact in binary floating point
        runs = {
            "toy": [{"nas_plus": (10, 2.0), "enas": (15, 1.0)},
                    {"nas_plus": (30, 6.0), "enas": (5, 2.0)}],
            "overall": [{"nas_plus": (25, 3.0), "enas": (20, 4.0)},
                        {"nas_plus": (15, 5.0), "enas": (30, 6.0)}],
        }
        records = [  # in task order: dataset, then run, then mode
            RunComplete(dataset, mode, run_index, 0.5, 1, models, False, wall)
            for dataset, pairs in runs.items()
            for run_index, pair in enumerate(pairs)
            for mode, (models, wall) in pair.items()
        ]
        # Paired by run index, toy's adaptive runs trained fewer in run 1 only
        # and the dataset named overall's in run 0 only; paired the other way
        # round, the fractions would be 1.0 and 0.0.
        assert summarize_efficiency(records) == [
            EfficiencyRow("toy", 2, 20.0, 10.0, -50.0, 4.0, 1.5, -62.5, 0.5),
            EfficiencyRow("overall", 2, 20.0, 25.0, 25.0, 4.0, 5.0, 25.0, 0.5),
            # all four pairs: static models 80 / 4, adaptive 70 / 4; walls 16 / 4 and 13 / 4
            EfficiencyRow("overall", 4, 20.0, 17.5, -12.5, 4.0, 3.25, -18.75, 0.5),
        ]


class TestConfigFile:
    def test_overrides_applied(self, tmp_path):
        path = _write_config(tmp_path)
        config = _with_flags(path, "--out", "elsewhere", "--jobs", "2")
        assert config.out_dir == Path("elsewhere")  # cwd-relative, as typed
        assert config.jobs == 2
        # every other setting is the file's alone
        assert config == replace(config_from_file(path), out_dir=Path("elsewhere"), jobs=2)

    def test_json_integer_for_a_number_is_read_as_float(self, tmp_path):
        path = _write_config(
            tmp_path,
            static_params={"population_size": 4, "max_generations": 3, "mutation_rate": 1},
        )
        assert type(config_from_file(path).evolution.mutation_rate) is float

    @pytest.mark.parametrize(
        "key, value, constant",
        [
            ("crossover_rate", 0.9, "CROSSOVER_RATE"),
            ("tournament_size", 4, "TOURNAMENT_SIZE"),
            ("elitism_size", 1, "ELITISM_SIZE"),
        ],
    )
    def test_engine_constant_restated_at_its_value_loads(self, tmp_path, key, value, constant):
        # perfbench/search.json still restates the three; the engine reads its constants
        assert getattr(evolution, constant) == value
        static = {"population_size": 4, "max_generations": 3}
        plain = config_from_file(_write_config(tmp_path, static_params=static))
        restated = _write_config(tmp_path, static_params={**static, key: value})
        assert config_from_file(restated) == plain

    def test_missing_config_rejected(self, tmp_path):
        with pytest.raises(ExperimentError, match="not found"):
            config_from_file(tmp_path / "none.json")

    def test_dataset_name_rule_holds_for_a_config_built_in_python(self, tmp_path):
        # A comma in the name would split its summary.csv row into one cell too many.
        with pytest.raises(ExperimentError, match=r"dataset name must be .*; got 'a,b'"):
            ExperimentConfig(datasets=[DatasetSpec("a,b", tmp_path / "a.csv")])


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

    def test_audit_pass_line_names_efficiency_only_when_checked(
        self, experiment_dir, one_mode_dir, capsys
    ):
        for out, named in ((experiment_dir.out_dir, True), (one_mode_dir, False)):
            assert main(["audit", "--out", str(out)]) == 0
            passed = capsys.readouterr().out
            assert passed.startswith("audit passed: ") and ("efficiency.csv" in passed) == named

    def test_printed_summary_matches_summary_csv(self, tmp_path, capsys):
        config_path = _write_config(tmp_path)
        assert main(["run", "--config", str(config_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = read_summary_rows(tmp_path / "out")
        # the table's header, one line per row, the totals line, the last line
        header = next(i for i, line in enumerate(lines) if line.startswith("dataset "))
        assert header + len(rows) + 3 == len(lines)
        assert [line.split() for line in lines[header + 1 : -2]] == [
            [f"{cell:.4f}" if isinstance(cell, float) else str(cell) for cell in astuple(row)]
            for row in rows
        ]
        totals = re.fullmatch(r"totals: (\d+) models trained, \d+\.\ds wall time", lines[-2])
        assert totals and int(totals[1]) == sum(row.models_trained for row in rows)
        assert lines[-1] == f"artifacts written to {tmp_path / 'out'}"

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
        capsys.readouterr()
        assert main(["audit", "--out", str(tmp_path / "cli_out2")]) == 1
        # one line, like every other error
        err = capsys.readouterr().err
        assert err.startswith("audit failed: ") and err.count("\n") == 1, err

    def test_bad_config_exit_code(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2

    @staticmethod
    def _assert_one_line_error(capsys, argv):
        # main() returning at all means no exception (and so no traceback) escaped
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return err

    @pytest.mark.parametrize("flags", [["--jobs", "0"]], ids=["jobs"])
    def test_failed_flag_check_names_the_flag(self, tmp_path, capsys, flags):
        config_path = _write_config(tmp_path, datasets=1, runs=1)
        err = self._assert_one_line_error(capsys, ["run", "--config", str(config_path), *flags])
        assert err.startswith(f"error: {flags[0]}: "), err

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                ["run", "--config", "c", "--pop-bounds", "3", "9"],
                "unrecognized arguments: --pop-bounds 3 9",
                id="pop-bounds",
            ),
            pytest.param(["plot-data", "a", "b"], "invalid choice: 'plot-data'", id="plot-data"),
            pytest.param(
                ["run", "--config", "c", "--jobs", "two"],
                "argument --jobs: invalid int value: 'two'",
                id="jobs-not-an-integer",
            ),
            # Every experiment setting is read from the config file alone.
            *(
                pytest.param(
                    ["run", "--config", "c", *removed],
                    f"unrecognized arguments: {' '.join(removed)}",
                    id=f"removed-{removed[0][2:]}",
                )
                for removed in (
                    ["--dataset", "toy0"],
                    ["--mode", "enas"],
                    ["--runs", "2"],
                    ["--seed", "3"],
                    ["--max-generations-cap", "0"],
                )
            ),
            pytest.param(["run"], "the following arguments are required: --config", id="no-config"),
        ],
    )
    def test_parser_error_gives_one_error_line(self, capsys, argv, message):
        assert message in self._assert_one_line_error(capsys, argv)

    @staticmethod
    def _flags():
        """Each subcommand's name -> the option strings its parser accepts."""
        (commands,) = _build_parser()._subparsers._group_actions
        return {name: set(p._option_string_actions) for name, p in commands.choices.items()}

    def test_run_takes_only_the_deployment_flags(self):
        assert self._flags()["run"] == {"-h", "--help", "--config", "--out", "--jobs"}

    def test_readme_names_no_flag_the_parser_lacks(self):
        named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", (ROOT / "README.md").read_text()))
        unknown = named - set.union(*self._flags().values())
        assert named and not unknown, sorted(unknown)

    @pytest.mark.parametrize("edit", [{"runs": 2**70}], ids=["file"])
    def test_too_many_runs_rejected_before_any_write(self, tmp_path, capsys, edit):
        config_path = _write_config(tmp_path, datasets=1, **edit)
        argv = ["run", "--config", str(config_path)]
        assert "runs must lie in [1, 1000]" in self._assert_one_line_error(capsys, argv)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "edit, flags",
        [({"jobs": 2**70}, []), ({}, ["--jobs", str(MAX_JOBS + 1)])],
        ids=["file", "flag"],
    )
    def test_too_many_jobs_rejected_before_any_write(self, tmp_path, capsys, edit, flags):
        # Rejected while the config is built, so no worker process is started.
        config_path = _write_config(tmp_path, datasets=1, runs=1, **edit)
        err = self._assert_one_line_error(capsys, ["run", "--config", str(config_path), *flags])
        assert f"jobs must lie in [1, {MAX_JOBS}], got " in err
        assert err.startswith("error: --jobs: ") == bool(flags)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["config", "dataset", "audit"])
    def test_path_with_a_line_break_stays_on_one_line(self, tmp_path, capsys, where):
        # The directory's name holds a line break; the message quotes it.
        directory = tmp_path / "a\nb"
        directory.mkdir()
        if where == "config":
            argv = ["run", "--config", str(directory)]
        elif where == "dataset":
            config_path = _write_config(tmp_path, datasets=1, runs=1)
            doc = json.loads(config_path.read_text())
            doc["datasets"][0]["path"] = "a\nb"
            config_path.write_text(json.dumps(doc))
            argv = ["run", "--config", str(config_path)]
        else:
            argv = ["audit", "--out", str(directory)]
        err = self._assert_one_line_error(capsys, argv)
        assert str(directory).replace("\n", "\\n") in err

    def test_zero_elitism_rejected(self, tmp_path, capsys):
        # without an elite the search can lose its best genome
        static = {"population_size": 4, "max_generations": 3, "elitism_size": 0}
        config_path = _write_config(tmp_path, datasets=1, runs=1, static_params=static)
        err = self._assert_one_line_error(capsys, ["run", "--config", str(config_path)])
        assert err == "error: static_params.elitism_size is fixed at 1, got 0\n"

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("tournament_size", 3, "is fixed at 4, got 3"),
            ("crossover_rate", 1, "is fixed at 0.9, got 1.0"),
            ("tournament_size", 4.0, "must be an integer, got 4.0"),
            ("elitism_size", 1.0, "must be an integer, got 1.0"),
            ("elitism_size", True, "must be an integer, got true"),
            ("crossover_rate", True, "must be a number, got true"),
        ],
    )
    def test_engine_constant_restated_otherwise_rejected(
        self, tmp_path, capsys, key, value, message
    ):
        static = {"population_size": 4, "max_generations": 3, key: value}
        config_path = _write_config(tmp_path, datasets=1, runs=1, static_params=static)
        err = self._assert_one_line_error(capsys, ["run", "--config", str(config_path)])
        assert err == f"error: static_params.{key} {message}\n"

    @pytest.mark.parametrize(
        "key, value, bounds",
        [
            ("population_size", 1, "[2, 1000]"),
            ("max_generations", 0, "[1, 5000]"),
            ("mutation_rate", 1.5, "[0, 1]"),
            ("cloning_rate", -0.5, "[0, 1]"),
        ],
    )
    def test_bad_static_value_names_its_section(self, tmp_path, capsys, key, value, bounds):
        static = {"population_size": 4, "max_generations": 3, key: value}
        config_path = _write_config(tmp_path, datasets=1, runs=1, static_params=static)
        err = self._assert_one_line_error(capsys, ["run", "--config", str(config_path)])
        assert err == f"error: static_params: {key} must lie in {bounds}, got {value}\n"

    @pytest.mark.parametrize(
        "nodes, message",
        [
            ([2, 10**12], "nodes bounds must sit inside (1, 1024), got (2, 1000000000000)"),
            ([8, 2], "nodes low bound 8 is above its high bound 2"),
        ],
    )
    def test_bad_search_space_bounds_name_their_section_once(
        self, tmp_path, capsys, nodes, message
    ):
        config_path = _write_config(tmp_path, datasets=1, runs=1, search_space={"nodes": nodes})
        err = self._assert_one_line_error(capsys, ["run", "--config", str(config_path)])
        assert err == f"error: search_space: {message}\n"

    def test_audit_rejects_a_tampered_best_genome(self, experiment_dir, tmp_path, capsys):
        config = experiment_dir
        out = tmp_path / "out"
        shutil.copytree(config.out_dir, out)
        target = out / "best_genome_toy1_nas_plus_1.json"
        doc = json.loads(target.read_text())
        doc["mean_f_measure"] = doc["mean_f_measure"] / 2
        target.write_text(json.dumps(doc))
        assert main(["audit", "--out", str(out)]) == 1
        assert target.name in capsys.readouterr().err

    def test_audit_rejects_a_best_genome_of_another_run_seed(
        self, experiment_dir, tmp_path, capsys
    ):
        out = tmp_path / "out"
        shutil.copytree(experiment_dir.out_dir, out)
        target = out / "best_genome_toy0_enas_1.json"
        doc = json.loads(target.read_text())
        seed = derive_seed(experiment_dir.base_seed, "toy0", 1, "enas")
        assert doc["run_seed"] == seed
        target.write_text(json.dumps({**doc, "run_seed": 12345}, indent=2) + "\n")
        number = len(target.read_text().splitlines()) - 1  # the last entry's line
        assert main(["audit", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f'audit failed: {str(target)!r}:{number}: has   "run_seed": 12345, '
            f'recomputed   "run_seed": {seed}\n'
        )

    @pytest.mark.parametrize(
        "edit",
        [
            *(
                pytest.param(_edit_history_cell(column), id=f"history-{name}")
                for column, name in enumerate(experiment.HISTORY_COLUMNS)
            ),
            pytest.param(
                # Its mean changes; a rescored fold that kept the mean and every
                # ranking would pass, as only retraining can check fold scores.
                _edit_event("evaluation", _rescore_first_fold),
                id="evaluation-per-fold",
            ),
            pytest.param(
                _edit_event("evaluation", lambda doc: doc.update(mean_f_measure=0.99)),
                id="evaluation-mean",
            ),
            pytest.param(
                _edit_event("bred", lambda doc: doc["offspring"].reverse()), id="bred-ids"
            ),
            pytest.param(
                _edit_event("promotion", lambda doc: doc.update(mutation_rate=0.5)),
                id="promotion-gene",
            ),
            pytest.param(
                _edit_event("cull", lambda doc: doc["removed"][0].update(id=999)), id="cull"
            ),
            pytest.param(_edit_event("spawn", lambda doc: doc["ids"].pop()), id="spawn"),
            pytest.param(
                _edit_event("generation_end", lambda doc: doc.update(best=doc["best"] + 1)),
                id="generation-end",
            ),
            pytest.param(_edit_best_genome_nodes, id="best-genome-gene"),
        ],
    )
    def test_replay_names_the_first_edited_line(self, experiment_dir, tmp_path, capsys, edit):
        # The audit replays each cell on its recorded fitness values, so an edit
        # of any line that the engine or the cell's files builder writes is a mismatch.
        out = tmp_path / "out"
        shutil.copytree(experiment_dir.out_dir, out)
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        path, number = edit(out)
        assert path.read_bytes() != before[path.name]
        assert main(["audit", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"audit failed: {str(path)!r}:{number}: has ")
        assert err.count("\n") == 1, err

    @pytest.mark.parametrize("edit", LINE_FORMAT_EDITS)
    def test_line_format_edit_names_its_file_and_line(self, experiment_dir, tmp_path, capsys, edit):
        # The audit reads every file a line at a time, each line ending at its LF
        # and at no other break, and rebuilds every line it reads, line 1 of
        # events.jsonl included; a line it cannot show as it is, it shows with repr.
        out = tmp_path / "out"
        shutil.copytree(experiment_dir.out_dir, out)
        path, number = edit(out)
        assert main(["audit", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"audit failed: {str(path)!r}:{number}: "), err
        assert err.endswith("\n") and err[:-1].isprintable(), err

    def test_experiment_start_without_search_space_gives_one_error_line(
        self, experiment_dir, tmp_path, capsys
    ):
        # So does an events.jsonl written before the record held the search space.
        out = tmp_path / "out"
        shutil.copytree(experiment_dir.out_dir, out)
        without = _edit_experiment_start(
            lambda start: {key: value for key, value in start.items() if key != "search_space"}
        )
        _rewrite_lines(out / "events.jsonl", without)
        err = self._assert_one_line_error(capsys, ["audit", "--out", str(out)])
        assert err == f"error: {str(out / 'events.jsonl')!r}:1 is missing keys: 'search_space'\n"

    @pytest.mark.parametrize(
        "edit, code, message",
        [
            pytest.param(
                lambda out: _rewrite_lines(out / "events.jsonl", _drop_last_initial_evaluation),
                1,
                r"audit failed: EVENTS:5: has \{[^\n]*, recomputed a record of type evaluation",
                id="dropped-evaluation",
            ),
            pytest.param(
                _edit_event("evaluation", lambda doc: doc.update(per_fold=None)),
                2,
                r"error: EVENTS:2\.per_fold must be a list, got null",
                id="null-per-fold",
            ),
        ],
    )
    def test_evaluation_line_the_replay_cannot_read_is_named_once(
        self, experiment_dir, tmp_path, capsys, edit, code, message
    ):
        out = tmp_path / "out"
        shutil.copytree(experiment_dir.out_dir, out)
        edit(out)
        assert main(["audit", "--out", str(out)]) == code
        events = re.escape(repr(str(out / "events.jsonl")))
        assert re.fullmatch(message.replace("EVENTS", events) + "\n", capsys.readouterr().err)

    def test_deeply_nested_best_genome_is_a_mismatch(self, experiment_dir, tmp_path, capsys):
        # The audit compares the file's lines with the replay's and parses none.
        out = tmp_path / "out"
        shutil.copytree(experiment_dir.out_dir, out)
        target = out / "best_genome_toy0_enas_1.json"
        target.write_text("[" * 100_000)
        assert main(["audit", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"audit failed: {str(target)!r}:1: has [[[") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "edit, named",
        [
            pytest.param(
                lambda out: _rewrite_lines(out / "summary.csv", lambda lines: lines[:2]),
                "summary.csv':3: line missing, recomputed toy0,enas,2,",
                id="rows-left-out",
            ),
            pytest.param(
                lambda out: _rewrite_lines(out / "summary.csv", lambda lines: lines + lines[1:2]),
                "summary.csv':6: surplus line toy0,nas_plus,2,",
                id="row-repeated",
            ),
            pytest.param(
                lambda out: shutil.copy(
                    out / "history_toy0_enas_0.csv", out / "history_toy0_enas_2.csv"
                ),
                "history_toy0_enas_2.csv",
                id="stale-history",
            ),
            pytest.param(
                lambda out: shutil.copy(out / "folds_toy0_0.csv", out / "folds_ghost_0.csv"),
                "folds_ghost_0.csv",
                id="stale-folds",
            ),
            pytest.param(
                lambda out: shutil.copy(out / "events.jsonl", out / "events_toy0_enas_0.jsonl"),
                "events_toy0_enas_0.jsonl",
                id="left-event-part",
            ),
            pytest.param(
                lambda out: shutil.copy(out / "summary.csv", out / "summary.csv.tmp"),
                "summary.csv.tmp",
                id="left-temporary-file",
            ),
        ],
    )
    def test_audit_fails_unless_each_file_has_one_summary_row(
        self, experiment_dir, tmp_path, capsys, edit, named
    ):
        config = experiment_dir
        out = tmp_path / "out"
        shutil.copytree(config.out_dir, out)
        edit(out)
        assert main(["audit", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("audit failed: ") and err.count("\n") == 1, err
        assert named in err

    @pytest.mark.parametrize(
        "name, edit, named",
        [
            pytest.param(
                "efficiency.csv", _replace_last_cell(1, "3"), "efficiency.csv':4: has overall,3,",
                id="edited-efficiency-cell",
            ),
            pytest.param(
                "efficiency.csv",
                lambda lines: lines[:-1],
                "efficiency.csv':4: line missing, recomputed overall,4,",
                id="cut-efficiency",
            ),
            pytest.param(
                "efficiency.csv",
                lambda lines: [*lines, lines[1]],
                "efficiency.csv':5: surplus line toy0,2,",
                id="extended-efficiency",
            ),
            pytest.param(
                "events.jsonl",
                _edit_first_run_complete(r'"wall_time": [^}]*', '"wall_time": 1000000000.0'),
                "efficiency.csv':2: has toy0,",
                id="edited-run-complete-wall-time",
            ),
            pytest.param(
                "events.jsonl",
                lambda lines: [line for line in lines if not line.startswith(RUN_1_COMPLETE)],
                'has {"dataset": "toy0", "mode": "enas", "run": 1, "type": "evaluation", ',
                id="dropped-run-complete",
            ),
        ],
    )
    def test_audit_recomputes_efficiency_from_the_events(
        self, experiment_dir, tmp_path, capsys, name, edit, named
    ):
        out = tmp_path / "out"
        shutil.copytree(experiment_dir.out_dir, out)
        _rewrite_lines(out / name, edit)
        assert main(["audit", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("audit failed: ") and err.count("\n") == 1, err
        assert named in err

    @pytest.mark.parametrize(
        "edit, code, named",
        [
            pytest.param(
                lambda out: (out / "events.jsonl").write_text("garbage{\n"),
                2,
                "events.jsonl':1 is not valid JSON: ",
                id="garbage-events",
            ),
            pytest.param(
                lambda out: (out / "events.jsonl").unlink(), 2, "events.jsonl", id="missing-events"
            ),
            pytest.param(
                lambda out: (out / "efficiency.csv").write_text("dataset,pairs\n"),
                1,
                str(Path("out", "efficiency.csv'")),
                id="stray-efficiency",
            ),
            pytest.param(
                lambda out: _rewrite_lines(
                    out / "events.jsonl",
                    _edit_first_run_complete(r'"models_trained": \d+', '"models_trained": 1'),
                ),
                1,
                'has {"type": "run_complete", "dataset": "toy0", "mode": "enas", "run": 0, ',
                id="run-complete-off-its-history",
            ),
            pytest.param(
                lambda out: _rewrite_lines(
                    out / "events.jsonl",
                    lambda lines: [line for line in lines if '"type": "run_complete"' not in line],
                ),
                1,
                'has {"dataset": "toy0", "mode": "enas", "run": 1, "type": "evaluation", ',
                id="dropped-run-completes",
            ),
            pytest.param(
                lambda out: _rewrite_lines(
                    out / "events.jsonl",
                    lambda lines: [*lines, lines[-1].replace('"run": 1', '"run": 2')],
                ),
                1,
                'surplus line {"type": "run_complete", "dataset": "toy0", "mode": "enas", "run": 2',
                id="run-complete-of-no-cell",
            ),
        ],
    )
    def test_audit_reads_the_events_of_a_one_mode_output(
        self, one_mode_dir, tmp_path, capsys, edit, code, named
    ):
        out = tmp_path / "out"
        shutil.copytree(one_mode_dir, out)
        edit(out)
        assert main(["audit", "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith(("", "audit failed: ", "error: ")[code]) and err.count("\n") == 1
        assert named in err, err

    @pytest.mark.parametrize(
        "name, edit, message",
        [
            pytest.param(
                "folds_toy0_0.csv",
                lambda lines: [lines[0], "0,-7", *lines[2:]],
                r"folds_toy0_0\.csv':2: has 0,-7, recomputed 0,\d$",
                id="negative-fold-id",
            ),
            pytest.param(
                "folds_toy0_0.csv",
                _move_two_rows_to_fold_zero,
                r"folds_toy0_0\.csv':\d+: has (\d+),0, recomputed \1,[12]$",
                id="one-fold-two-rows-larger",
            ),
            pytest.param(
                "folds_toy1_0.csv",
                _replace_last_cell(1, "5"),
                r"folds_toy1_0\.csv':37: has 35,5, recomputed 35,[0-2]$",
                id="fold-id-past-a-gap",
            ),
            pytest.param(
                "folds_toy1_1.csv",
                lambda lines: [re.sub(",2$", ",1", line) for line in lines],
                r"folds_toy1_1\.csv':\d+: has (\d+),1, recomputed \1,2$",
                id="fewer-folds-than-the-other-runs",
            ),
            pytest.param(
                "folds_toy0_0.csv",
                _swap_fold_ids_of_row_0_and_a_row_of_another_fold,
                r"folds_toy0_0\.csv':2: has 0,(\d), recomputed 0,(?!\1)\d$",
                id="two-rows-swapped-across-folds",
            ),
            *(
                pytest.param(
                    "folds_toy0_0.csv",
                    lambda lines, kept=kept: lines[:kept],
                    r"folds_toy0_0\.csv': fewer rows than the 3 folds$",
                    id=f"{kept}-lines-for-3-folds",
                )
                for kept in (0, 1, 3)
            ),
        ],
    )
    def test_audit_rejects_a_fold_file_that_is_no_split(
        self, experiment_dir, tmp_path, capsys, name, edit, message
    ):
        # The audit redraws each run's split from its data seed and compares
        # the file with it line for line, so it names the first wrong line.
        out = tmp_path / "out"
        shutil.copytree(experiment_dir.out_dir, out)
        _rewrite_lines(out / name, edit)
        assert main(["audit", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("audit failed: ") and err.count("\n") == 1, err
        assert re.search(message, err), err

    @pytest.mark.parametrize(
        "key, message",
        [
            ("datasets", "events.jsonl':1: dataset name must be non-empty"),
            ("modes", "events.jsonl':1: 'a\\x00b' is not a valid Mode"),
        ],
        ids=["dataset", "mode"],
    )
    def test_nul_in_an_experiment_start_name_gives_one_error_line(
        self, experiment_dir, tmp_path, capsys, key, message
    ):
        # A dataset name goes into file names, and no file system takes a NUL
        # there; a mode must name a mode. Both are refused before any file name
        # is built, by the checks of a config.
        out = tmp_path / "out"
        shutil.copytree(experiment_dir.out_dir, out)
        edit = _edit_experiment_start(lambda start: {**start, key: [*start[key][:-1], "a\0b"]})
        _rewrite_lines(out / "events.jsonl", edit)
        err = self._assert_one_line_error(capsys, ["audit", "--out", str(out)])
        assert message in err and "a\\x00b" in err

    def test_audit_without_summary_gives_one_error_line(self, tmp_path, capsys):
        err = self._assert_one_line_error(capsys, ["audit", "--out", str(tmp_path)])
        assert str(tmp_path / "events.jsonl") in err

    @pytest.mark.parametrize(
        "edit, flags, named",
        [
            pytest.param({"out_dir": 5}, ["--out", "x"], "config.out_dir", id="out-dir-under-out"),
            pytest.param({"jobs": 0}, ["--jobs", "1"], "error: jobs must", id="jobs-under-jobs"),
        ],
    )
    def test_bad_flag_or_file_value_under_a_flag_rejected(
        self, tmp_path, capsys, monkeypatch, edit, flags, named
    ):
        # A file must be valid on its own: no flag hides a bad file value.
        monkeypatch.chdir(tmp_path)
        config_path = _write_config(tmp_path, datasets=1, **{"runs": 1, **edit})
        argv = ["run", "--config", str(config_path), *flags]
        assert named in self._assert_one_line_error(capsys, argv)

    @pytest.mark.parametrize(
        "section, key",
        [
            (None, "runz"),
            ("datasets", "pathh"),
            ("search_space", "nodez"),
            ("static_params", "tournament_sise"),
            ("datasets", "label_column"),
            ("datasets", "normalize"),
            ("search_space", "mutation_rate_beta"),
            ("search_space", "cloning_rate_beta"),
            ("search_space", "hidden_layers"),
            ("search_space", "batch_sizes"),
            ("search_space", "optimizers"),
            ("search_space", "activations"),
        ],
    )
    def test_unknown_config_key_rejected(self, tmp_path, capsys, section, key):
        config_path = _write_config(tmp_path, datasets=1, runs=1)
        doc = json.loads(config_path.read_text())
        target = doc if section is None else doc[section]
        (target[0] if section == "datasets" else target)[key] = 1
        config_path.write_text(json.dumps(doc))
        err = self._assert_one_line_error(capsys, ["run", "--config", str(config_path)])
        assert err.startswith("error: unknown keys in ") and key in err

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda doc: json.dumps(doc)[:-1], id="malformed-json"),
            pytest.param(
                lambda doc: json.dumps(doc).replace('"runs": 1', '"runs": ' + "1" * 5000),
                id="runs-of-5000-digits",
            ),
            pytest.param(lambda doc: {**doc, "runs": "x"}, id="runs-not-integer"),
            pytest.param(lambda doc: {**doc, "folds": 1}, id="folds-of-one"),
            pytest.param(lambda doc: {**doc, "out_dir": "o\u0000p"}, id="out-dir-with-nul"),
            pytest.param(lambda doc: {**doc, "modes": ["nope"]}, id="unknown-mode"),
            pytest.param(lambda doc: {**doc, "modes": "both"}, id="modes-not-a-list"),
            pytest.param(lambda doc: {**doc, "search_space": [1, 2]}, id="search-space-list"),
            pytest.param(
                lambda doc: {**doc, "search_space": {"nodes": "ab"}}, id="nodes-not-integers"
            ),
            pytest.param(
                lambda doc: {**doc, "search_space": {"epochs": [1, 10**20]}}, id="epochs-too-high"
            ),
            pytest.param(
                lambda doc: {**doc, "search_space": {"nodes": [2, 10**12]}}, id="nodes-too-high"
            ),
            *(
                pytest.param(
                    lambda doc, key=key: {**doc, "static_params": {key: 2**70}},
                    id=f"static-{key}-too-high",
                )
                for key in ("population_size", "max_generations")
            ),
            pytest.param(
                _edit_dataset("label_mapping", {"0": 0, "1": True}),
                id="dataset-label_mapping-not-integer",
            ),
            *(
                pytest.param(_edit_dataset("name", name), id=f"dataset-name-{label}")
                for label, name in [
                    ("comma", "a,b"),
                    ("slash", "a/b"),
                    ("line-break", "a\nb"),
                    ("nul", "a\0b"),
                    ("empty", ""),
                ]
            ),
        ],
    )
    def test_wrongly_typed_config_rejected(self, tmp_path, capsys, edit):
        config_path = _write_config(tmp_path, datasets=1, runs=1)
        edited = edit(json.loads(config_path.read_text()))
        config_path.write_text(edited if isinstance(edited, str) else json.dumps(edited))
        self._assert_one_line_error(capsys, ["run", "--config", str(config_path)])

    def test_failed_cell_in_a_worker_gives_one_error_line(self, tmp_path, capsys, monkeypatch):
        # Run 1's cell fails (9 is _write_config's base seed), first by
        # raising, then by ending its worker process; the forked workers
        # inherit the patched module.
        failing_seed = derive_seed(9, "toy0", 1, "enas")

        def fail_one_cell(mode, config, fitness, run_seed, emit):
            if run_seed == failing_seed:
                raise ExperimentError("cell toy0 enas 1 failed")
            return run(mode, config, fitness, run_seed, emit)

        def end_one_worker(mode, config, fitness, run_seed, emit):
            if run_seed == failing_seed:
                os._exit(9)
            return run(mode, config, fitness, run_seed, emit)

        for patch, messages in (
            (fail_one_cell, ["cell toy0 enas 1 failed"]),
            (end_one_worker, ["terminated abruptly", "toy0 enas run 1"]),
        ):
            monkeypatch.setattr(evolution, "run", patch)
            workdir = tmp_path / patch.__name__
            workdir.mkdir()
            config_path = _write_config(workdir, datasets=1, runs=2, modes=("enas",))
            argv = ["run", "--config", str(config_path), "--jobs", "2"]
            err = self._assert_one_line_error(capsys, argv)
            assert all(message in err for message in messages), err

    def test_failed_cell_leaves_the_finished_cells_files(self, tmp_path, capsys, monkeypatch):
        # Each cell writes its files when it ends; only the experiment's own
        # files wait for the last cell, so a failed run has none of them. The
        # failed cell leaves only the part its events streamed into.
        calls = []

        def fail_third_cell(mode, config, fitness, run_seed, emit):
            calls.append(run_seed)
            if len(calls) == 3:
                raise ExperimentError("the third cell failed")
            return run(mode, config, fitness, run_seed, emit)

        monkeypatch.setattr(evolution, "run", fail_third_cell)
        config_path = _write_config(tmp_path, datasets=1, runs=2)
        err = self._assert_one_line_error(capsys, ["run", "--config", str(config_path)])
        assert "the third cell failed" in err
        out = tmp_path / "out"
        stems = ["toy0_nas_plus_0", "toy0_enas_0"]
        kinds = (("history", "csv"), ("best_genome", "json"), ("events", "jsonl"))
        written = [f"{kind}_{stem}.{ext}" for stem in stems for kind, ext in kinds]
        folds = ["folds_toy0_0.csv", "folds_toy0_1.csv"]
        left = ["events_toy0_nas_plus_1.jsonl.tmp"]
        assert sorted(path.name for path in out.iterdir()) == sorted(written + folds + left)
        self._assert_one_line_error(capsys, ["audit", "--out", str(out)])

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda path: path.mkdir(), id="directory"),
            pytest.param(lambda path: path.write_bytes(b"1,0\n\xff,1\n"), id="not-utf-8"),
            pytest.param(
                lambda path: path.write_text(f"1,{'0' * 200_000},1\n"), id="oversized-cell"
            ),
        ],
    )
    def test_unreadable_dataset_gives_one_error_line(self, tmp_path, capsys, make):
        config_path = _write_config(tmp_path, datasets=1, runs=1)
        dataset = tmp_path / "data" / "toy0.csv"
        dataset.unlink()
        make(dataset)
        err = self._assert_one_line_error(capsys, ["run", "--config", str(config_path)])
        assert str(dataset) in err

    def test_column_range_overflow_gives_one_error_line(self, tmp_path, capsys):
        # Every value is finite, but max - min of column 1 overflows; numpy's
        # overflow warnings used to print ahead of a false "non-finite" error.
        config_path = _write_config(tmp_path, datasets=1, runs=1)
        dataset = tmp_path / "data" / "toy0.csv"
        dataset.write_text("0.1,1e308,1\n0.9,-1e308,0\n0.5,0.0,1\n0.3,2.0,0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = self._assert_one_line_error(capsys, ["run", "--config", str(config_path)])
        assert str(dataset) in err and "column 1" in err and "non-finite" not in err

    def test_repeated_mode_rejected(self, tmp_path, capsys):
        # It used to run both copies and write summary rows that audit could not read back.
        config_path = _write_config(tmp_path, datasets=1, runs=1, modes=("enas", "enas"))
        err = self._assert_one_line_error(capsys, ["run", "--config", str(config_path)])
        assert "duplicate mode 'enas'" in err
        assert not (tmp_path / "out").exists()

    def test_single_class_dataset_rejected(self, tmp_path, capsys):
        # Every F-measure of an all-negative dataset is 0, so the search would mean nothing.
        config_path = _write_config(tmp_path, datasets=1, runs=1)
        doc = json.loads(config_path.read_text())
        doc["datasets"][0]["label_mapping"] = {"0": 0, "1": 0}
        config_path.write_text(json.dumps(doc))
        err = self._assert_one_line_error(capsys, ["run", "--config", str(config_path)])
        assert str(tmp_path / "data" / "toy0.csv") in err and "label 0" in err
        assert not (tmp_path / "out").exists()

    def test_more_folds_than_rows_rejected_before_any_write(self, tmp_path, capsys):
        config_path = _write_config(tmp_path, datasets=1, runs=1, folds=31)
        err = self._assert_one_line_error(capsys, ["run", "--config", str(config_path)])
        assert "folds 31" in err and "30 rows" in err and "'toy0'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "demo-data"])
    def test_unwritable_output_gives_one_error_line(self, tmp_path, capsys, command):
        taken = tmp_path / "taken"
        taken.write_text("")
        if command == "run":
            config_path = _write_config(tmp_path, datasets=1, runs=1)
            argv = ["run", "--config", str(config_path), "--out", str(taken)]
        else:
            argv = ["demo-data", "--out", str(taken)]
        assert str(taken) in self._assert_one_line_error(capsys, argv)

    @staticmethod
    def _loaded_config(argv):
        """The config ``main(argv)`` hands to run_experiment, which is stubbed."""
        with mock.patch("enas.cli.run_experiment") as stub:
            assert main(argv) == 0
        return stub.call_args.args[0]

    # A label that reads as a number ("3") must stay a string key, as the CSV cells are.
    @pytest.mark.parametrize("label", ["class", "3"])
    def test_dataset_entry_with_every_field_loads_exactly(self, tmp_path, label):
        config_path = _write_config(tmp_path, datasets=1, runs=1)
        doc = json.loads(config_path.read_text())
        doc["datasets"] = [
            {
                "name": "toy",
                "path": "data/toy0.csv",
                "label_mapping": {label: 0, "r": 1},
            }
        ]
        config_path.write_text(json.dumps(doc))
        config = self._loaded_config(["run", "--config", str(config_path)])
        assert config.datasets == [
            DatasetSpec(
                name="toy",
                path=tmp_path / "data" / "toy0.csv",
                label_mapping={label: 0, "r": 1},
            )
        ]

    def test_search_space_of_defaults_loads_to_default_space(self, tmp_path):
        defaults = asdict(SearchSpace())
        assert len(defaults) == 4
        config_path = _write_config(tmp_path, datasets=1, runs=1, search_space=defaults)
        config = self._loaded_config(["run", "--config", str(config_path)])
        assert config.evolution.space == SearchSpace()

    @pytest.mark.parametrize(
        "name, edit, code",
        [
            # An edited file is a mismatch: exit 1, naming the file and line.
            pytest.param("history_toy0_enas_1.csv", lambda lines: [], 1, id="empty"),
            pytest.param(
                "history_toy0_enas_1.csv", _replace_last_cell(1, "x"), 1, id="non-numeric"
            ),
            pytest.param(
                "history_toy0_enas_1.csv",
                lambda lines: [*lines[:-1], lines[-1].rsplit(",", 1)[0]],
                1,
                id="short-row",
            ),
            pytest.param("history_toy0_enas_1.csv", None, 2, id="audit-missing-history"),
            pytest.param("summary.csv", _replace_last_cell(2, "x"), 1, id="runs-not-integer"),
            # Refused before any file name is built, so the audit never lists 10^12 runs.
            pytest.param(
                "events.jsonl",
                _edit_experiment_start(lambda start: {**start, "runs": 10**12}),
                2,
                id="runs-too-many",
            ),
            pytest.param("folds_toy1_0.csv", None, 2, id="audit-missing-folds"),
            pytest.param(
                "folds_toy1_0.csv", _replace_last_cell(0, "x"), 1, id="fold-index-not-integer"
            ),
            pytest.param(
                "folds_toy1_0.csv", _replace_last_cell(1, "1.5"), 1, id="fold-not-integer"
            ),
            pytest.param(
                "folds_toy1_0.csv", lambda lines: [lines[0], *lines[2:]], 1, id="fold-row-missing"
            ),
            pytest.param(
                "folds_toy1_0.csv",
                lambda lines: [lines[0], lines[2], lines[1], *lines[3:]],
                1,
                id="fold-rows-out-of-order",
            ),
            pytest.param("summary.csv", lambda lines: [], 1, id="empty-summary"),
            pytest.param(
                "summary.csv", _replace_last_cell(1, "bogus"), 1, id="summary-unknown-mode"
            ),
            pytest.param("best_genome_toy0_enas_1.json", None, 2, id="audit-missing-genome"),
            pytest.param("efficiency.csv", None, 2, id="audit-missing-efficiency"),
            pytest.param("events.jsonl", None, 2, id="audit-missing-events"),
            pytest.param(
                "events.jsonl",
                _edit_first_run_complete(r'"halted": \w+', '"halted": 0'),
                1,
                id="run-complete-halted-not-boolean",
            ),
            pytest.param("events.jsonl", lambda lines: [*lines, "{"], 1, id="events-line-cut"),
            pytest.param(
                "best_genome_toy0_enas_1.json", lambda lines: lines[:-1], 1, id="cut-genome"
            ),
            pytest.param(
                "best_genome_toy0_enas_1.json",
                lambda lines: [line.replace('"per_fold"', '"per_folds"') for line in lines],
                1,
                id="renamed-genome-key",
            ),
            pytest.param(
                "best_genome_toy0_enas_1.json",
                lambda lines: json.dumps(
                    {**json.loads("".join(lines)), "genome": {"nodes": "lots", "junk": True}}
                ).splitlines(),
                1,
                id="junk-genome",
            ),
        ],
    )
    def test_malformed_outputs_give_one_error_line(
        self, experiment_dir, tmp_path, capsys, name, edit, code
    ):
        config = experiment_dir
        out = tmp_path / "out"
        shutil.copytree(config.out_dir, out)
        target = out / name
        if edit is None:
            target.unlink()
        else:
            _rewrite_lines(target, edit)
        if code == 1:
            assert main(["audit", "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("audit failed: ") and err.count("\n") == 1, err
            assert re.search(rf"{re.escape(name)}':\d+: (has|line missing|surplus line)\b", err)
        else:
            assert name in self._assert_one_line_error(capsys, ["audit", "--out", str(out)])

    @pytest.mark.parametrize(
        "path",
        [*sorted(CONFIGS.glob("*.json")), ROOT / "perfbench" / "search.json"],
        ids=lambda path: path.name,
    )
    def test_shipped_configs_load(self, path):
        config_from_file(path)

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda path: path.name)
    def test_shipped_configs_leave_the_engine_constants_out(self, path):
        # Only perfbench/search.json still restates them, so that the rule
        # accepting each at its fixed value can go once it no longer does.
        text = path.read_text()
        for key in ("crossover_rate", "tournament_size", "elitism_size"):
            assert f'"{key}"' not in text

    def test_demo_data_subcommand(self, tmp_path):
        target = tmp_path / "demo"
        assert main(["demo-data", "--out", str(target), "--seed", "3"]) == 0
        files = sorted(p.name for p in target.glob("*.csv"))
        assert len(files) == 4

    def test_demo_data_is_lf_only_and_loads_as_generated(self, tmp_path):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["demo-data", "--out", str(tmp_path), "--seed", "3"]) == 0
        for i, (name, instances, attributes, margin) in enumerate(_DEMO_DATASETS):
            data = (tmp_path / f"{name}.csv").read_bytes()
            assert data.endswith(b"\n") and b"\r" not in data, name
            loaded = load_csv(tmp_path / f"{name}.csv")
            made = make_threshold_dataset(instances, attributes, 3 + i, name, margin)
            assert (loaded.features == made.features).all(), name
            assert (loaded.labels == made.labels).all(), name


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-5, 300)
    | st.integers(2**40, 2**70)
    | st.floats()
    | st.text(max_size=6),
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
    "static_params": [
        *(f.name for f in fields(EvolutionConfig) if f.name != "space"),
        "crossover_rate",
        "tournament_size",
        "elitism_size",
    ],
    "dataset": [f.name for f in fields(DatasetSpec)],
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
        with mock.patch("enas.cli.run_experiment"):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["run", "--config", str(path)])
    if code != 0:
        assert code == 2
        message = err.getvalue()
        assert message.startswith("error: ") and message.count("\n") == 1, message


# The files ``enas audit`` reads, in a one-run output directory.
AUDITED_FILES = (
    "summary.csv",
    "history_toy0_enas_0.csv",
    "best_genome_toy0_nas_plus_0.json",
    "folds_toy0_0.csv",
    "efficiency.csv",
    "events.jsonl",
)
CELL_VALUES = st.sampled_from(
    ["", "-1", "0", "1.5", "nan", "inf", "1e309", "9" * 5000, "a/b", "a\0b", "enas", "toy0"]
    + ["[" * 10_000, "true", '"0.5"', "+1", "1_0", "NaN", "Infinity"]
) | st.text(max_size=8)
NOT_UTF_8 = st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"])
# The events.jsonl records whose values a fuzzed edit may replace: every type the
# fixture's events.jsonl holds, so that edits reach the replay.
RECORD_TYPES = (
    "experiment_start", "evaluation", "bred", "promotion", "cull", "spawn", "generation_end",
    "run_complete",
)


@pytest.fixture(scope="module")
def audit_source(tmp_path_factory):
    """A real output directory: one dataset, one run, both modes, generation cap 1."""
    space = {**TINY_SPACE, "max_generations": [1, 1]}
    static = {"population_size": 4, "max_generations": 1}
    path = _write_config(
        tmp_path_factory.mktemp("audit-fuzz"),
        datasets=1,
        runs=1,
        jobs=1,
        search_space=space,
        static_params=static,
    )
    config = config_from_file(path)
    run_experiment(config)
    return config.out_dir


class Overtime(BaseException):
    """An example ran past its time cap. Not an ``Exception``, so that no
    handler under test turns it into an error line."""


@contextlib.contextmanager
def time_cap(seconds):
    """Interrupt this process once ``seconds`` of wall time have passed."""

    def expire(signum, frame):
        raise Overtime(f"over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _edited(data, original: bytes, name: str) -> bytes:
    """``original``, the file ``name``, truncated, with a replaced CSV cell or
    JSON value, with a line dropped or repeated, or with bytes that are not
    UTF-8. In events.jsonl, a replaced value may also be one key of a record
    of any type, so that the edit reaches the typed readers and the replay."""
    kind = data.draw(st.sampled_from(["truncate", "replace", "drop", "repeat", "not-utf-8"]))
    if kind == "truncate":
        return original[: data.draw(st.integers(0, len(original) - 1), label="length")]
    if kind == "not-utf-8":
        at = data.draw(st.integers(0, len(original)), label="at")
        return original[:at] + data.draw(NOT_UTF_8) + original[at:]
    lines = original.splitlines(keepends=True)
    if kind != "replace":
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        kept = lines[:i] + lines[i + 1 :] if kind == "drop" else lines[: i + 1] + lines[i:]
        return b"".join(kept)
    if name.endswith(".json"):
        doc = json.loads(original)
        target = data.draw(st.sampled_from([doc, doc["genome"]]))
        target[data.draw(st.sampled_from(sorted(target)), label="key")] = data.draw(JSON_VALUES)
        return json.dumps(doc).encode()
    if name == "events.jsonl" and data.draw(st.booleans(), label="record"):
        docs = [json.loads(line) for line in lines]
        records = [i for i, doc in enumerate(docs) if doc["type"] in RECORD_TYPES]
        doc = docs[data.draw(st.sampled_from(records), label="line")]
        doc[data.draw(st.sampled_from(sorted(doc)), label="key")] = data.draw(JSON_VALUES)
        return "".join(json.dumps(doc) + "\n" for doc in docs).encode()
    rows = [line.split(",") for line in original.decode().splitlines()]
    row = data.draw(st.sampled_from(rows), label="row")
    row[data.draw(st.integers(0, len(row) - 1), label="cell")] = data.draw(CELL_VALUES)
    return "".join(",".join(cells) + "\n" for cells in rows).encode()


def test_fuzzed_audit_edits_reach_every_record_type(audit_source):
    lines = (audit_source / "events.jsonl").read_text().splitlines()
    assert {json.loads(line)["type"] for line in lines} == set(RECORD_TYPES)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_fuzzed_audit_input_passes_or_gives_one_error_line(audit_source, data):
    name = data.draw(st.sampled_from(AUDITED_FILES), label="file")
    edited = _edited(data, (audit_source / name).read_bytes(), name)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        shutil.copytree(audit_source, out)
        (out / name).write_bytes(edited)
        err = io.StringIO()
        with time_cap(5.0), contextlib.redirect_stdout(io.StringIO()):
            with contextlib.redirect_stderr(err):
                code = main(["audit", "--out", str(out)])
    message = err.getvalue()
    if code == 0:
        assert message == ""
    else:
        prefix = {1: "audit failed: ", 2: "error: "}[code]
        assert message.startswith(prefix) and message.count("\n") == 1, message


DATASET_CELLS = st.sampled_from(
    ["", "nan", "inf", "-inf", "1e308", "-1e308", "1e309", "9" * 400, "9" * 5000, "0x1p3", "m", '"']
) | st.text(max_size=8)
BYTE_ORDER_MARK = "\ufeff".encode()


@pytest.fixture(scope="module")
def dataset_source(tmp_path_factory):
    """A demo dataset's bytes, and a config that runs it alone: one run,
    generation cap 1, ``jobs`` 1."""
    directory = tmp_path_factory.mktemp("dataset-fuzz")
    with contextlib.redirect_stdout(io.StringIO()):
        main(["demo-data", "--out", str(directory)])
    doc = {
        "runs": 1,
        "folds": 3,
        "jobs": 1,
        "datasets": [{"name": "demo_small", "path": "demo_small.csv"}],
        "search_space": {**TINY_SPACE, "max_generations": [1, 1], "epochs": [1, 3]},
        "static_params": {"population_size": 4, "max_generations": 1},
    }
    return (directory / "demo_small.csv").read_bytes(), json.dumps(doc)


def _edited_dataset(data, original: bytes) -> bytes:
    """``original`` truncated; with a replaced cell; with a line dropped, repeated
    or made ragged; with one label on every row; or with bytes that are not
    UTF-8 or a byte-order mark inserted."""
    kind = data.draw(
        st.sampled_from(
            ["truncate", "cell", "drop", "repeat", "ragged", "one-label", "not-utf-8", "bom"]
        )
    )
    if kind == "truncate":
        return original[: data.draw(st.integers(0, len(original) - 1), label="length")]
    if kind in ("not-utf-8", "bom"):
        at = data.draw(st.sampled_from([0, len(original) // 2]), label="at")
        inserted = data.draw(NOT_UTF_8) if kind == "not-utf-8" else BYTE_ORDER_MARK
        return original[:at] + inserted + original[at:]
    rows = [line.split(",") for line in original.decode().splitlines()]
    i = data.draw(st.integers(0, len(rows) - 1), label="line")
    if kind == "cell":
        rows[i][data.draw(st.integers(0, len(rows[i]) - 1), label="cell")] = data.draw(DATASET_CELLS)
    elif kind == "drop":
        del rows[i]
    elif kind == "repeat":
        rows.insert(i, list(rows[i]))
    elif kind == "ragged":
        rows[i] = rows[i][:-1] if data.draw(st.booleans(), label="shorter") else rows[i] + ["0"]
    else:
        label = data.draw(st.sampled_from(["0", "1"]), label="label")
        rows = [[*row[:-1], label] for row in rows]
    return "".join(",".join(cells) + "\n" for cells in rows).encode()


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_fuzzed_dataset_runs_or_gives_one_error_line(dataset_source, data):
    original, config_text = dataset_source
    edited = _edited_dataset(data, original)
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "demo_small.csv").write_bytes(edited)
        (Path(tmp) / "config.json").write_text(config_text)
        err = io.StringIO()
        with time_cap(5.0), contextlib.redirect_stdout(io.StringIO()):
            with contextlib.redirect_stderr(err):
                code = main(["run", "--config", str(Path(tmp) / "config.json")])
                # a run that passes leaves an output that passes the audit
                audited = main(["audit", "--out", str(Path(tmp) / "out")]) if code == 0 else 0
    message = err.getvalue()
    if code == 0:
        assert message == "" and audited == 0, message
    else:
        prefix = {1: "audit failed: ", 2: "error: "}[code]
        assert message.startswith(prefix) and message.count("\n") == 1, message

"""Repeated-run experiment harness: seeded runs, summary stats, audit trail.

Each dataset is loaded once. For every (dataset, run) pair, ``fold_split``
draws the folds as input-row numbers from a data seed that leaves out the
mode, so the static and adaptive searches of a pair see identical folds
and their results are directly comparable.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
import time
from collections import deque
from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import closing, contextmanager
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import evolution
from .data import Dataset, DatasetError, kfold_split, load_csv, normalize_min_max
from .evolution import EvolutionConfig, EvolutionState, GenerationRecord, Mode
from .fitness import CrossValFitness, FitnessRecord
from .genome import SearchSpace, genome_to_doc
from .seeding import derive_seed, make_rng


class ExperimentError(ValueError):
    """Invalid experiment configuration or unusable inputs."""


class AuditError(AssertionError):
    """An output file disagrees with the files and records it is built from."""


# The dataset name goes into CSV cells and file names unquoted.
_NAME_FORBIDDEN = (",", "/", "\\", "\0")
# Most runs per cell. Every cell is built, and every run's fold file written,
# before the first cell starts, so a huge count would only fill memory and disk.
MAX_RUNS = 1_000
# Most worker processes. A pool starts one per cell up to ``jobs``, and there
# can be thousands of cells, so an unbounded value could start thousands.
MAX_JOBS = 64


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    path: Path
    label_mapping: Mapping[str, int] | None = None

    def __post_init__(self) -> None:
        name = self.name
        if name.splitlines() != [name] or set(name) & set(_NAME_FORBIDDEN):
            raise ExperimentError(
                "dataset name must be non-empty, without line breaks or any of "
                f"{', '.join(map(repr, _NAME_FORBIDDEN))}; got {name!r}"
            )


@dataclass
class ExperimentConfig:
    """An experiment; its fields and defaults are also the config file's top level.

    In the file, ``evolution`` is split into the ``search_space`` and
    ``static_params`` sections, and a relative ``out_dir`` is relative to
    the file.
    """

    datasets: list[DatasetSpec]
    modes: list[Mode] = field(default_factory=lambda: list(Mode))
    runs: int = 1
    base_seed: int = 0
    out_dir: Path = Path("out")
    folds: int = 5
    jobs: int = 1
    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)

    def __post_init__(self) -> None:
        if not 1 <= self.runs <= MAX_RUNS:
            raise ExperimentError(f"runs must lie in [1, {MAX_RUNS}], got {self.runs}")
        if self.folds < 2:
            raise ExperimentError("folds must be at least 2")
        if not 1 <= self.jobs <= MAX_JOBS:
            raise ExperimentError(f"jobs must lie in [1, {MAX_JOBS}], got {self.jobs}")
        if "\0" in str(self.out_dir):  # no file system takes it in a path
            raise ExperimentError(f"out_dir must not contain a NUL byte, got {str(self.out_dir)!r}")
        if not self.datasets:
            raise ExperimentError("at least one dataset is required")
        if not self.modes:
            raise ExperimentError("at least one mode is required")
        for kind, names in (
            ("dataset name", [spec.name for spec in self.datasets]),
            ("mode", [mode.value for mode in self.modes]),
        ):
            for i, name in enumerate(names):
                if name in names[:i]:
                    raise ExperimentError(f"duplicate {kind} {name!r}")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ExperimentError(message)


_KIND_NAMES = {
    int: "an integer",
    float: "a number",
    str: "a string",
    Path: "a string",
    tuple: "a list",
    dict: "an object",
    Mapping: "an object",
    NoneType: "null",
}
# Annotation class -> the classes of the JSON values it is read from, where not itself.
_JSON_CLASSES = {float: (int, float), Path: (str,), tuple: (list,), Mapping: (dict,)}

_SPACE_HINTS = get_type_hints(SearchSpace)
# Engine constants that perfbench/search.json still restates in static_params,
# where each is read at its fixed value only.
_FIXED_STATIC = {
    "crossover_rate": evolution.CROSSOVER_RATE,
    "tournament_size": evolution.TOURNAMENT_SIZE,
    "elitism_size": evolution.ELITISM_SIZE,
}
_STATIC_HINTS = {k: v for k, v in get_type_hints(EvolutionConfig).items() if k != "space"}
_STATIC_HINTS.update((key, type(fixed)) for key, fixed in _FIXED_STATIC.items())
_DATASET_HINTS = get_type_hints(DatasetSpec)
# The file's top level: ExperimentConfig's fields, where the lists of dataset
# entries and mode names and the two sections that fill ``evolution`` are
# first read as plain JSON.
_CONFIG_HINTS = {
    **{k: v for k, v in get_type_hints(ExperimentConfig).items() if k != "evolution"},
    "datasets": tuple[dict, ...],
    "modes": tuple[str, ...],
    "search_space": dict,
    "static_params": dict,
}
# What the audit's replay reads from each evaluation event.
_FITNESS_HINTS = get_type_hints(FitnessRecord)


def _typed(where: str, value, hint):
    """JSON ``value`` read as the annotation ``hint``; otherwise one error naming ``where``.

    A value's class must match exactly, so ``true`` is not an integer, but a
    JSON integer is also a number and is read as a float. A number is finite,
    as JSON has it, so NaN and infinity are none. Lists are read as
    tuples and strings as paths where ``hint`` asks for them; a union takes
    the first of its types that ``value``'s class matches.
    """
    arms = get_args(hint) if get_origin(hint) is UnionType else (hint,)
    for arm in arms:
        kind, args = get_origin(arm) or arm, get_args(arm)
        if type(value) not in _JSON_CLASSES.get(kind, (kind,)):
            continue
        if kind is tuple:
            hints = args[:1] * len(value) if args[-1] is Ellipsis else args
            _require(
                len(value) == len(hints),
                f"{where} must have {len(hints)} entries, got {len(value)}",
            )
            return tuple(
                _typed(f"{where}[{i}]", item, hints[i]) for i, item in enumerate(value)
            )
        if kind is Mapping:  # JSON object keys are always strings
            return {key: _typed(f"{where}[{key!r}]", item, args[1]) for key, item in value.items()}
        if kind is float:
            try:
                if math.isfinite(value):  # Python's json reads NaN, Infinity and 1e309
                    return float(value)
            except OverflowError:  # an integer beyond the float range
                pass
            break
        return Path(value) if kind is Path else value
    shown = json.dumps(value)
    shown = shown if len(shown) <= 40 else shown[:37] + "..."
    kinds = " or ".join(_KIND_NAMES[get_origin(arm) or arm] for arm in arms)
    raise ExperimentError(f"{where} must be {kinds}, got {shown}")


def _section(where: str, doc, hints: Mapping, required=()) -> dict:
    """The entries of the JSON object ``doc``, each read as its annotation in ``hints``."""
    unknown = sorted(set(_typed(where, doc, dict)) - set(hints))
    _require(not unknown, f"unknown keys in {where}: {', '.join(map(repr, unknown))}")
    missing = [key for key in required if key not in doc]
    _require(not missing, f"{where} is missing keys: {', '.join(map(repr, missing))}")
    return {key: _typed(f"{where}.{key}", value, hints[key]) for key, value in doc.items()}


def _json(where: str, text: str):
    """The JSON document ``text``; a malformed one raises ``ExperimentError`` naming ``where``."""
    try:
        return json.loads(text)
    # A JSONDecodeError, an integer of too many digits, or nesting too deep to parse.
    except (ValueError, RecursionError) as exc:
        raise ExperimentError(f"{where} is not valid JSON: {exc}") from None


def config_from_file(path: str | Path) -> ExperimentConfig:
    """Build a config from a JSON file; relative paths resolve next to it.

    Every value is type-checked as it is read, so a malformed file raises
    ``ExperimentError`` naming the offending entry.
    """
    path = Path(path)
    if not path.exists():
        raise ExperimentError(f"config file not found: {str(path)!r}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the name
        raise ExperimentError(f"cannot read {str(path)!r}: {exc}") from exc
    top = _section("config", _json(repr(str(path)), text), _CONFIG_HINTS)

    datasets = []
    for i, raw in enumerate(top.pop("datasets", ())):
        entry = _section(f"datasets[{i}]", raw, _DATASET_HINTS, required=("name", "path"))
        datasets.append(DatasetSpec(**{**entry, "path": path.parent / entry["path"]}))

    if "modes" in top:
        known_modes = [mode.value for mode in Mode]
        for name in top["modes"]:
            _require(name in known_modes, f"unknown mode {name!r}; expected one of {known_modes}")
        top["modes"] = [Mode(name) for name in top["modes"]]

    # Joined to the config's directory, an absolute path stays as it is.
    top["out_dir"] = path.parent / top.get("out_dir", ExperimentConfig.out_dir)
    evolution_config = _evolution(top)
    return ExperimentConfig(datasets=datasets, evolution=evolution_config, **top)


def _evolution(top: dict) -> EvolutionConfig:
    """The ``evolution`` of the ``search_space`` and ``static_params`` popped from ``top``."""
    bounds = _section("search_space", top.pop("search_space", {}), _SPACE_HINTS)
    try:
        space = SearchSpace(**bounds)
    except ValueError as exc:
        raise ExperimentError(f"search_space: {exc}") from exc
    static = _section("static_params", top.pop("static_params", {}), _STATIC_HINTS)
    for key, fixed in _FIXED_STATIC.items():
        value = static.pop(key, fixed)
        _require(value == fixed, f"static_params.{key} is fixed at {fixed}, got {value}")
    try:
        return EvolutionConfig(space=space, **static)
    except ValueError as exc:
        raise ExperimentError(f"static_params: {exc}") from exc


@contextmanager
def _replacing(path: Path):
    """A text file open as ``<path>.tmp``, line-buffered, moved to ``path`` once
    the block has written it, so that no reader finds a partly written file
    under ``path``. A block that raises leaves the ``.tmp`` file. Each line
    ends with the LF written, which no platform translates."""
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", encoding="utf-8", newline="\n", buffering=1) as file:
        yield file
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# CSV files. Every table goes through one writer, ``_write_lines`` of its
# ``_csv_lines``, and floats are written with repr() so that a parsed file
# reproduces the in-memory values bit for bit.

def _csv_line(cells: Iterable) -> str:
    return ",".join(repr(cell) if isinstance(cell, float) else str(cell) for cell in cells)


def _csv_lines(columns: Sequence[str], rows: Iterable[Sequence]) -> list[str]:
    """A header line of ``columns``, then one line per row of cells."""
    return [_csv_line(columns), *map(_csv_line, rows)]


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    with _replacing(path) as file:
        file.write("".join(line + "\n" for line in lines))


def _columns(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


HISTORY_COLUMNS = _columns(GenerationRecord)
FOLD_COLUMNS = ("instance_index", "fold_id")


# ---------------------------------------------------------------------------
# Summary table.

@dataclass(frozen=True)
class SummaryRow:
    dataset: str
    mode: str
    runs: int
    fittest: float
    average: float
    range: float
    models_trained: int


def _summary_text(rows: Sequence[SummaryRow], wall_time: float) -> str:
    """The summary rows as an aligned table, then a totals line."""
    header = [*_columns(SummaryRow)[:-1], "models"]
    body = [
        [f"{cell:.4f}" if isinstance(cell, float) else str(cell) for cell in astuple(row)]
        for row in rows
    ]
    widths = [max(len(cells[i]) for cells in [header, *body]) for i in range(len(header))]
    out = [
        "  ".join(cell.ljust(width) for cell, width in zip(cells, widths)).rstrip()
        for cells in [header, *body]
    ]
    out.append(
        f"totals: {sum(row.models_trained for row in rows)} models trained, "
        f"{wall_time:.1f}s wall time"
    )
    return "\n".join(out)


def _summary_row(records: Sequence[RunComplete]) -> SummaryRow:
    """One (dataset, mode)'s summary row, from its runs' run_complete ``records``, for ``enas
    run`` and ``enas audit`` alike. A run's best is its final ``best_f1``, which elitism
    never lowers."""
    bests = [record.best_f1 for record in records]
    fittest = max(bests)
    return SummaryRow(
        dataset=records[0].dataset,
        mode=records[0].mode,
        runs=len(bests),
        fittest=fittest,
        average=sum(bests) / len(bests),
        range=fittest - min(bests),
        models_trained=sum(record.models_trained for record in records),
    )


# ---------------------------------------------------------------------------
# Efficiency comparison of paired static/adaptive runs.

@dataclass(frozen=True)
class RunComplete:
    """A run_complete event, the last line of each run's part of events.jsonl:
    what a cell returns, and what summary.csv and efficiency.csv are built from."""

    dataset: str
    mode: str
    run: int
    best_f1: float
    generations: int
    models_trained: int
    halted: bool
    wall_time: float


@dataclass(frozen=True)
class EfficiencyRow:
    dataset: str
    pairs: int
    mean_models_static: float
    mean_models_adaptive: float
    models_delta_pct: float
    mean_wall_static: float
    mean_wall_adaptive: float
    wall_delta_pct: float
    adaptive_fewer_models_fraction: float


def summarize_efficiency(records: Iterable[RunComplete]) -> list[EfficiencyRow]:
    """One row per dataset, in the order the datasets first appear, then the
    ``overall`` row of every dataset's runs joined in that order. A dataset's
    i-th static run in ``records`` is paired with its i-th adaptive run."""
    runs: dict[str, tuple[list[RunComplete], list[RunComplete]]] = {}  # (static, adaptive)
    for record in records:
        static, adaptive = runs.setdefault(record.dataset, ([], []))
        (adaptive if record.mode == Mode.ENAS.value else static).append(record)
    joined = tuple([r for pair in runs.values() for r in pair[side]] for side in (0, 1))
    mean = lambda xs: sum(xs) / len(xs)
    pct = lambda new, old: 100.0 * (new - old) / old if old else 0.0
    rows = []
    for dataset, (static, adaptive) in [*runs.items(), ("overall", joined)]:
        models_s, models_a = ([r.models_trained for r in rs] for rs in (static, adaptive))
        wall_s, wall_a = ([r.wall_time for r in rs] for rs in (static, adaptive))
        fewer = sum(a < s for a, s in zip(models_a, models_s))
        rows.append(EfficiencyRow(
            dataset=dataset, pairs=len(static), adaptive_fewer_models_fraction=fewer / len(static),
            mean_models_static=mean(models_s), mean_models_adaptive=mean(models_a),
            models_delta_pct=pct(mean(models_a), mean(models_s)),
            mean_wall_static=mean(wall_s), mean_wall_adaptive=mean(wall_a),
            wall_delta_pct=pct(mean(wall_a), mean(wall_s)),
        ))
    return rows


# ---------------------------------------------------------------------------
# The harness itself.

@dataclass(frozen=True)
class Cell:
    """One (dataset, mode, run) search of an experiment: the names of its
    files, its progress name (``str(cell)``) and its seeds."""

    dataset: str
    mode: Mode
    run: int

    def __str__(self) -> str:
        return f"{self.dataset} {self.mode.value} run {self.run}"

    @property
    def stem(self) -> str:
        return f"{self.dataset}_{self.mode.value}_{self.run}"

    @property
    def history_file(self) -> str:
        return f"history_{self.stem}.csv"

    @property
    def best_genome_file(self) -> str:
        return f"best_genome_{self.stem}.json"

    @property
    def events_file(self) -> str:
        """Its part of events.jsonl, renamed from ``<name>.tmp`` when the cell ends."""
        return f"events_{self.stem}.jsonl"

    @property
    def folds_file(self) -> str:
        """Its run's folds, which the cells of the run's other modes share."""
        return f"folds_{self.dataset}_{self.run}.csv"

    def data_seed(self, base_seed: int) -> int:
        # Mode left out: both modes of a run share its row order and folds.
        return derive_seed(base_seed, self.dataset, self.run, "data")

    def run_seed(self, base_seed: int) -> int:
        return derive_seed(base_seed, self.dataset, self.run, self.mode.value)


def cells(config: ExperimentConfig) -> Iterator[Cell]:
    """The cells of ``config`` in task order: by dataset, then run, then mode."""
    for spec in config.datasets:
        for run_index in range(config.runs):
            for mode in config.modes:
                yield Cell(spec.name, mode, run_index)


def fold_split(dataset: Dataset, k: int, data_seed: int) -> tuple[np.ndarray, ...]:
    """A run's k folds as row numbers of ``dataset``: ``kfold_split`` splits the
    positions of a row order from the "shuffle" stream, and each maps to its row."""
    order = make_rng(data_seed, "shuffle").permutation(dataset.instance_count)
    return tuple(order[fold] for fold in kfold_split(dataset, k, derive_seed(data_seed, "folds")))


def _fold_rows(folds: Sequence[np.ndarray]) -> list[tuple[int, int]]:
    """A run's fold file: each input row, in row order, and the fold it is tested in."""
    return sorted((int(i), k) for k, fold in enumerate(folds) for i in fold)


def _tables(config: ExperimentConfig, records: Sequence[RunComplete]) -> dict[str, list]:
    """By file name, the rows that ``enas run`` writes and ``enas audit`` rebuilds from the
    run_complete ``records``: summary.csv's, and with both modes, efficiency.csv's."""
    summary = [
        _summary_row([r for r in records if (r.dataset, r.mode) == (spec.name, mode.value)])
        for spec in config.datasets for mode in config.modes
    ]
    if set(Mode) <= set(config.modes):
        return {"summary.csv": summary, "efficiency.csv": summarize_efficiency(records)}
    return {"summary.csv": summary}


def load_dataset(spec: DatasetSpec) -> Dataset:
    """The dataset of ``spec``, min-max scaled; a search needs rows of both classes."""
    dataset = load_csv(spec.path, label_mapping=spec.label_mapping)
    labels = set(dataset.labels.tolist())
    if len(labels) == 1:
        raise DatasetError(
            f"every row of {str(spec.path)!r} has label {labels.pop()}; need 0 and 1"
        )
    try:
        return normalize_min_max(dataset)
    except DatasetError as exc:
        raise DatasetError(f"cannot scale {str(spec.path)!r}: {exc}") from None


def _event_line(cell: Cell, event: dict) -> str:
    """An event of ``cell``'s search as its line of events.jsonl, without the line break."""
    return json.dumps({"dataset": cell.dataset, "mode": cell.mode.value, "run": cell.run, **event})


def _complete_line(record: RunComplete) -> str:
    return json.dumps({"type": "run_complete", **asdict(record)})


def _cell_files(cell: Cell, state: EvolutionState, wall_time: float) -> tuple[dict, RunComplete]:
    """What a cell writes from its search's final ``state``, for ``enas run`` and ``enas audit``
    alike: the lines of its history and best-genome files by file name, and its run_complete
    record, timed ``wall_time``."""
    best = state.best
    doc = {
        "genome": genome_to_doc(best.genome), "mean_f_measure": best.fitness.mean_f_measure,
        "per_fold": best.fitness.per_fold, "individual_id": best.id, "run_seed": state.run_seed,
    }
    files = {
        cell.history_file: _csv_lines(HISTORY_COLUMNS, map(astuple, state.history)),
        cell.best_genome_file: json.dumps(doc, indent=2).splitlines(),
    }
    record = RunComplete(
        cell.dataset, cell.mode.value, cell.run, best.fitness.mean_f_measure, state.generation,
        state.models_trained, state.halted, wall_time,
    )
    return files, record


def _run_cell(
    cell: Cell, config: EvolutionConfig, fitness: CrossValFitness, base_seed: int, out: Path
) -> RunComplete:
    """One cell: a whole search, then its files and progress line.

    The search's events stream into the cell's part of ``events.jsonl``, open
    as ``<part>.tmp``. Its history and best genome follow, then the part gets
    its last line, the ``run_complete`` record the cell returns, and is renamed
    last, so a part under its final name means a finished cell. The record's
    ``wall_time`` is the time spent in ``evolution.run``, from the initial
    population to the last generation."""
    with _replacing(out / cell.events_file) as part:
        emit = lambda event: part.write(_event_line(cell, event) + "\n")
        started = time.perf_counter()
        # Looked up on the module so that a wrapper installed there is called.
        state = evolution.run(cell.mode, config, fitness, cell.run_seed(base_seed), emit)
        files, record = _cell_files(cell, state, time.perf_counter() - started)
        for name, lines in files.items():
            _write_lines(out / name, lines)
        part.write(_complete_line(record) + "\n")
    # One write per line, so that the lines of parallel cells never interleave.
    sys.stdout.write(
        f"{cell}: best={record.best_f1:.4f} generations={record.generations} "
        f"models={record.models_trained} ({record.wall_time:.1f}s)\n"
    )
    sys.stdout.flush()
    return record


def run_experiment(config: ExperimentConfig) -> None:
    """Execute every (dataset, run, mode) cell and write all artifacts.

    Cells are independent searches, so they are what runs in parallel
    (``config.jobs`` worker processes, at most one per cell). Each cell
    writes its own files, and progress lines arrive in completion order;
    ``events.jsonl``, ``summary.csv`` and ``efficiency.csv`` are written
    after the last cell, in config order, so the outputs are the same for
    any pool size. ``_fold_rows`` and ``_tables`` build the fold files and
    the two tables, as ``audit_output_dir`` rebuilds them.
    """
    loaded = {spec.name: load_dataset(spec) for spec in config.datasets}
    for name, dataset in loaded.items():
        _require(
            config.folds <= dataset.instance_count,
            f"folds {config.folds} exceeds the {dataset.instance_count} rows "
            f"of dataset {name!r}",
        )
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()

    fitness: dict[str, CrossValFitness] = {}  # by fold file, which a run's modes share
    tasks = []
    for cell in cells(config):
        if cell.folds_file not in fitness:
            dataset = loaded[cell.dataset]
            folds = fold_split(dataset, config.folds, cell.data_seed(config.base_seed))
            _write_lines(out / cell.folds_file, _csv_lines(FOLD_COLUMNS, _fold_rows(folds)))
            fitness[cell.folds_file] = CrossValFitness(dataset, folds)
        tasks.append((cell, config.evolution, fitness[cell.folds_file], config.base_seed, out))
    try:
        records = evolution.EvaluatorPool(_run_cell, config.jobs).evaluate(tasks)
    except evolution.TasksLost as exc:
        lost = ", ".join(str(tasks[i][0]) for i in exc.tasks) or "none"
        raise ExperimentError(f"a worker process died; cells in flight: {lost} ({exc})") from None

    with _replacing(out / "events.jsonl") as events:
        events.write(_start_line(config) + "\n")
        for cell, *_ in tasks:
            with (out / cell.events_file).open(encoding="utf-8", newline="\n") as lines:
                shutil.copyfileobj(lines, events)
    for cell, *_ in tasks:  # only once events.jsonl holds them all
        (out / cell.events_file).unlink()

    tables = _tables(config, records)
    for name, rows in tables.items():
        _write_lines(out / name, _csv_lines(_columns(type(rows[0])), map(astuple, rows)))
    print(_summary_text(tables["summary.csv"], time.perf_counter() - started), flush=True)


def _start_line(config: ExperimentConfig) -> str:
    """Line 1 of events.jsonl: ``config``'s experiment_start record, which the audit rebuilds."""
    static = asdict(config.evolution)
    return json.dumps({"type": "experiment_start", "runs": config.runs, "folds": config.folds,
                       "base_seed": config.base_seed, "modes": [m.value for m in config.modes],
                       "datasets": [spec.name for spec in config.datasets],
                       "search_space": static.pop("space"), "static_params": static})


_START_HINTS = {"runs": int, "folds": int, "base_seed": int, "modes": tuple[str, ...],
                "datasets": tuple[str, ...], "search_space": dict, "static_params": dict}


def _experiment_start(where: str, doc) -> ExperimentConfig:
    """The experiment of an experiment_start record's entries but ``type``. Dataset paths
    are not recorded, so each ``DatasetSpec`` gets an empty one, which no audit opens."""
    start = _section(where, doc, _START_HINTS, required=_START_HINTS)
    try:
        specs = [DatasetSpec(name, Path()) for name in start.pop("datasets")]
        modes = [Mode(name) for name in start.pop("modes")]
        evolution_config = _evolution(start)
        return ExperimentConfig(specs, modes, evolution=evolution_config, **start)
    except ValueError as exc:  # an ExperimentError is one too
        raise ExperimentError(f"{where}: {exc}") from None


def _numbered_lines(path: Path) -> Iterator[tuple[str, str | None]]:
    """``(where, text)`` for each line of ``path`` in turn, ``where`` naming the file and the
    line and ``text`` the line without its LF, the one line break read; past the last line,
    ``(where, None)``, unless that line has no LF, which is a mismatch."""
    shown, number, line = repr(str(path)), 0, "\n"
    try:
        with path.open(encoding="utf-8", newline="\n") as file:
            for number, line in enumerate(file, start=1):
                yield f"{shown}:{number}", line.removesuffix("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ExperimentError(f"cannot read {shown}: {exc}") from exc
    if not line.endswith("\n"):
        raise AuditError(f"{shown}:{number}: no LF ends the file's last line")
    while True:
        yield f"{shown}:{number + 1}", None


def _match(where: str, line: str | None, expected: str | None) -> None:
    """Fail, naming ``where``, unless ``line`` is ``expected``; None stands for no line, and a
    line that is not printable, as one holding a CR, is shown with repr."""
    if line != expected:
        line, expected = (s if s is None or s.isprintable() else repr(s) for s in (line, expected))
        raise AuditError(
            f"{where}: line missing, recomputed {expected}" if line is None
            else f"{where}: surplus line {line}" if expected is None
            else f"{where}: has {line}, recomputed {expected}"
        )


def _match_file(path: Path, expected: Sequence[str]) -> None:
    with closing(_numbered_lines(path)) as lines:
        for want in [*expected, None]:
            _match(*next(lines), want)


def _next_record(lines: Iterator, kind: str) -> tuple[str, str, dict]:
    """The next of ``lines``, which must be a JSON record of type ``kind``, and its entries."""
    where, text = next(lines)
    doc = {} if text is None else _typed(where, _json(where, text), dict)
    if doc.get("type") != kind:
        _match(where, text, f"a record of type {kind}")
    return where, text, doc


@dataclass
class _Replay:
    """A cell's search replayed from ``lines``, the numbered lines of events.jsonl: each genome
    is scored with the next line, its evaluation record, which waits in ``read`` until the
    event is emitted; each other event emitted must be the next line."""

    cell: Cell
    lines: Iterator
    read: deque = field(default_factory=deque)

    def evaluate(self, pairs: Sequence) -> list[FitnessRecord]:
        records = []
        for _ in pairs:
            where, text, doc = _next_record(self.lines, "evaluation")
            self.read.append((where, text))
            entries = {key: doc[key] for key in _FITNESS_HINTS if key in doc}
            entries = _section(where, entries, _FITNESS_HINTS, required=_FITNESS_HINTS)
            try:
                records.append(FitnessRecord(**entries))
            except ValueError as exc:  # no fold score, or one outside [0, 1]
                raise ExperimentError(f"{where}: {exc}") from None
        return records

    def emit(self, event: dict) -> None:
        where, text = self.read.popleft() if self.read else next(self.lines)
        _match(where, text, _event_line(self.cell, event))


def audit_cell(out: Path, cell: Cell, config: ExperimentConfig, lines: Iterator) -> RunComplete:
    """Replay ``cell``'s search (``evolution.run`` on its seed and recorded fitness values, so
    the engine makes every draw it made), then check its run_complete record, history and
    best genome, as ``_cell_files`` builds them with the recorded ``wall_time``; return it."""
    replay = _Replay(cell, lines)
    seed = cell.run_seed(config.base_seed)
    state = evolution.run(cell.mode, config.evolution, replay, seed, replay.emit)
    where, text, doc = _next_record(lines, "run_complete")
    wall_time = _typed(f"{where}.wall_time", doc.get("wall_time"), float)
    files, record = _cell_files(cell, state, wall_time)
    _match(where, text, _complete_line(record))
    for name, expected in files.items():
        _match_file(out / name, expected)
    return record


def audit_output_dir(out_dir: str | Path) -> bool:
    """Rebuild line 1 of events.jsonl from the experiment it records, replay each of its cells
    (``audit_cell``) on the lines after it, and compare summary.csv, efficiency.csv and each
    fold file line for line with what ``enas run`` writes; every cell file must belong to a
    cell. Raise on any mismatch; return whether efficiency.csv was compared."""
    out = Path(out_dir)
    with closing(_numbered_lines(out / "events.jsonl")) as lines:
        where, text, doc = _next_record(lines, "experiment_start")
        config = _experiment_start(where, {k: v for k, v in doc.items() if k != "type"})
        _match(where, text, _start_line(config))
        experiment = list(cells(config))
        records = [audit_cell(out, cell, config, lines) for cell in experiment]
        _match(*next(lines), None)
    rebuilt = {
        name: _csv_lines(_columns(type(rows[0])), map(astuple, rows))
        for name, rows in _tables(config, records).items()
    }
    folds = {cell.folds_file: cell for cell in experiment}  # both modes of a run share one
    patterns = ("history_*.csv", "best_genome_*.json", "folds_*.csv", "efficiency.csv",
                "events_*.jsonl", "*.tmp")
    stray = {path.name for pattern in patterns for path in out.glob(pattern)}
    stray -= {name for cell in experiment for name in (cell.history_file, cell.best_genome_file)}
    stray -= {*rebuilt, *folds}
    if stray:
        raise AuditError(f"no experiment cell accounts for {str(out / min(stray))!r}")
    for name, cell in folds.items():
        lines = _numbered_lines(out / name)
        count = sum(1 for _ in iter(lambda: next(lines)[1], None)) - 1  # all fold_split reads
        if count < config.folds:  # never written; a split with empty folds could match a cut file
            raise AuditError(f"{str(out / name)!r}: fewer rows than the {config.folds} folds")
        stand_in = Dataset(np.zeros((count, 1)), np.zeros(count))
        split = fold_split(stand_in, config.folds, cell.data_seed(config.base_seed))
        rebuilt[name] = _csv_lines(FOLD_COLUMNS, _fold_rows(split))
    for name, expected in rebuilt.items():
        _match_file(out / name, expected)
    return "efficiency.csv" in rebuilt

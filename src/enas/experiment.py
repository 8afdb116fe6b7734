"""Repeated-run experiment harness: seeded runs, summary stats, audit trail.

Each dataset is loaded once. For every (dataset, run) pair, ``fold_split``
draws the folds as input-row numbers from a data seed that leaves out the
mode, so the static and adaptive searches of a pair see identical folds
and their results are directly comparable.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import evolution
from .data import Dataset, DatasetError, kfold_split, load_csv, normalize_min_max
from .evolution import EvolutionConfig, EvolutionState, GenerationRecord, Mode
from .fitness import CrossValFitness, FitnessRecord
from .genome import GENES, Genome, InvalidGenomeError, SearchSpace, genome_to_doc, validate_genome
from .seeding import derive_seed, make_rng


class ExperimentError(ValueError):
    """Invalid experiment configuration or unusable inputs."""


class AuditError(AssertionError):
    """Emitted summary values disagree with the per-run history files."""


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
# Gene document key -> the annotation of its Genome field.
_GENE_HINTS = {GENES[name].key: hint for name, hint in get_type_hints(Genome).items()}


def _check_keys(section: str, doc: Mapping, allowed) -> None:
    unknown = sorted(set(doc) - set(allowed))
    _require(not unknown, f"unknown keys in {section}: {', '.join(map(repr, unknown))}")


def _typed(where: str, value, hint):
    """JSON ``value`` read as the annotation ``hint``; otherwise one error naming ``where``.

    A value's class must match exactly, so ``true`` is not an integer, but a
    JSON integer is also a number and is read as a float. Lists are read as
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
                return float(value)
            except OverflowError:  # an integer beyond the float range
                break
        return Path(value) if kind is Path else value
    shown = json.dumps(value)
    shown = shown if len(shown) <= 40 else shown[:37] + "..."
    kinds = " or ".join(_KIND_NAMES[get_origin(arm) or arm] for arm in arms)
    raise ExperimentError(f"{where} must be {kinds}, got {shown}")


def _section(where: str, doc, hints: Mapping, required=()) -> dict:
    """The entries of the JSON object ``doc``, each read as its annotation in ``hints``."""
    _check_keys(where, _typed(where, doc, dict), hints)
    missing = [key for key in required if key not in doc]
    _require(not missing, f"{where} is missing keys: {', '.join(map(repr, missing))}")
    return {key: _typed(f"{where}.{key}", value, hints[key]) for key, value in doc.items()}


def _read_json(path: Path):
    """The JSON document in ``path``; an unreadable or malformed file raises ``ExperimentError``."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        raise ExperimentError(f"cannot read {str(path)!r}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer of too many digits
        raise ExperimentError(f"{str(path)!r} is not valid JSON: {exc}") from exc


def config_from_file(path: str | Path) -> ExperimentConfig:
    """Build a config from a JSON file; relative paths resolve next to it.

    Every value is type-checked as it is read, so a malformed file raises
    ``ExperimentError`` naming the offending entry.
    """
    path = Path(path)
    if not path.exists():
        raise ExperimentError(f"config file not found: {str(path)!r}")
    top = _section("config", _read_json(path), _CONFIG_HINTS)

    datasets = []
    for i, raw in enumerate(top.pop("datasets", ())):
        entry = _section(f"datasets[{i}]", raw, _DATASET_HINTS, required=("name", "path"))
        datasets.append(DatasetSpec(**{**entry, "path": path.parent / entry["path"]}))

    if "modes" in top:
        known_modes = [mode.value for mode in Mode]
        for name in top["modes"]:
            _require(name in known_modes, f"unknown mode {name!r}; expected one of {known_modes}")
        top["modes"] = [Mode(name) for name in top["modes"]]

    try:
        space = SearchSpace(**_section("search_space", top.pop("search_space", {}), _SPACE_HINTS))
    except InvalidGenomeError as exc:
        raise ExperimentError(f"search_space: {exc}") from exc
    static = _section("static_params", top.pop("static_params", {}), _STATIC_HINTS)
    for key, fixed in _FIXED_STATIC.items():
        value = static.pop(key, fixed)
        _require(value == fixed, f"static_params.{key} is fixed at {fixed}, got {value}")
    # Joined to the config's directory, an absolute path stays as it is.
    top["out_dir"] = path.parent / top.get("out_dir", ExperimentConfig.out_dir)
    return ExperimentConfig(
        datasets=datasets, evolution=EvolutionConfig(space=space, **static), **top
    )


def genome_from_doc(doc: Mapping) -> Genome:
    """Read a gene document strictly; optimizer and activation names are matched in lower case."""
    read = _section("genome", doc, _GENE_HINTS, required=_GENE_HINTS)
    genes = {name: read[gene.key] for name, gene in GENES.items()}
    genes["optimizer"] = genes["optimizer"].lower()
    genes["activations"] = tuple(name.lower() for name in genes["activations"])
    try:
        return validate_genome(Genome(**genes))
    except InvalidGenomeError as exc:
        raise ExperimentError(f"genome: {exc}") from exc


# ---------------------------------------------------------------------------
# CSV files. Every table goes through one writer, and floats are written
# with repr() so that a parsed file reproduces the in-memory values bit
# for bit.

def _csv_line(cells: Iterable) -> str:
    return ",".join(repr(cell) if isinstance(cell, float) else str(cell) for cell in cells)


def write_csv(path: str | Path, columns: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Write a header line of ``columns``, then one line per row of cells."""
    path = Path(path)
    lines = [_csv_line(columns), *map(_csv_line, rows)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _read_csv(path: str | Path, columns: Sequence[str]) -> list[tuple[str, list[str]]]:
    """The rows ``write_csv`` wrote under ``columns``, each as ("'file':line", cells)."""
    shown = repr(str(path))
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the name
        raise ExperimentError(f"cannot read {shown}: {exc}") from exc
    if not lines or lines[0] != _csv_line(columns):
        raise ExperimentError(f"{shown}:1: expected the header {_csv_line(columns)}")
    if len(lines) < 2:
        raise ExperimentError(f"{shown}: no rows under the header")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ExperimentError(
                f"{shown}:{number}: expected {len(columns)} cells, got {len(cells)}"
            )
        rows.append((f"{shown}:{number}", cells))
    return rows


def _parse(where: str, column: str, kind: type, cell: str):
    try:
        return kind(cell)
    except ValueError:
        raise ExperimentError(
            f"{where}: {column} must be {_KIND_NAMES[kind]}, got {cell!r}"
        ) from None


def _columns(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


HISTORY_COLUMNS = _columns(GenerationRecord)
# A run's fold file: each input row, in row order, and the fold it was tested in.
FOLD_COLUMNS = ("instance_index", "fold_id")
_HISTORY_KINDS = get_type_hints(GenerationRecord)


def write_history_csv(history: Sequence[GenerationRecord], path: str | Path) -> Path:
    return write_csv(path, HISTORY_COLUMNS, map(astuple, history))


def read_history_csv(path: str | Path) -> list[GenerationRecord]:
    """The inverse of ``write_history_csv``; a malformed file names its line."""
    return [
        GenerationRecord(
            **{
                name: _parse(where, name, _HISTORY_KINDS[name], cell)
                for name, cell in zip(HISTORY_COLUMNS, cells)
            }
        )
        for where, cells in _read_csv(path, HISTORY_COLUMNS)
    ]


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


SUMMARY_COLUMNS = _columns(SummaryRow)


def _summary_text(rows: Sequence[SummaryRow], wall_time: float) -> str:
    """The summary rows as an aligned table, then a totals line."""
    header = [*SUMMARY_COLUMNS[:-1], "models"]
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


def _aggregate_row(
    dataset: str, mode: str, histories: Sequence[Sequence[GenerationRecord]]
) -> SummaryRow:
    """The summary row of one cell's run histories: the harness writes it and
    the auditor recomputes it here. A run's best is its highest ``best_f1``."""
    bests = [max(record.best_f1 for record in history) for history in histories]
    fittest = max(bests)
    return SummaryRow(
        dataset=dataset,
        mode=mode,
        runs=len(bests),
        fittest=fittest,
        average=sum(bests) / len(bests),
        range=fittest - min(bests),
        models_trained=sum(history[-1].models_trained_cumulative for history in histories),
    )


# ---------------------------------------------------------------------------
# Efficiency comparison of paired static/adaptive runs.

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


def _efficiency_row(
    dataset: str, static: Sequence[EvolutionState], adaptive: Sequence[EvolutionState]
) -> EfficiencyRow:
    models_s = [r.models_trained for r in static]
    models_a = [r.models_trained for r in adaptive]
    wall_s = [r.wall_time for r in static]
    wall_a = [r.wall_time for r in adaptive]
    mean = lambda xs: sum(xs) / len(xs)
    pct = lambda new, old: 100.0 * (new - old) / old if old else 0.0
    fewer = sum(1 for a, s in zip(models_a, models_s) if a < s)
    return EfficiencyRow(
        dataset=dataset,
        pairs=len(static),
        mean_models_static=mean(models_s),
        mean_models_adaptive=mean(models_a),
        models_delta_pct=pct(mean(models_a), mean(models_s)),
        mean_wall_static=mean(wall_s),
        mean_wall_adaptive=mean(wall_a),
        wall_delta_pct=pct(mean(wall_a), mean(wall_s)),
        adaptive_fewer_models_fraction=fewer / len(static),
    )


def summarize_efficiency(
    static_runs: Mapping[str, Sequence[EvolutionState]],
    adaptive_runs: Mapping[str, Sequence[EvolutionState]],
) -> list[EfficiencyRow]:
    """Per-dataset resource deltas for paired-seed run lists, then the overall row."""
    rows = [
        _efficiency_row(name, static_runs[name], adaptive_runs[name])
        for name in static_runs
    ]
    all_static = [r for runs in static_runs.values() for r in runs]
    all_adaptive = [r for runs in adaptive_runs.values() for r in runs]
    rows.append(_efficiency_row("overall", all_static, all_adaptive))
    return rows


# ---------------------------------------------------------------------------
# The harness itself.

def _data_seed(config: ExperimentConfig, dataset: str, run_index: int) -> int:
    # Mode deliberately excluded: both modes of a pair share the row order
    # and fold assignment.
    return derive_seed(config.base_seed, dataset, run_index, "data")


def fold_split(dataset: Dataset, k: int, data_seed: int) -> tuple[np.ndarray, ...]:
    """A run's k folds as row numbers of ``dataset``: ``kfold_split`` splits the
    positions of a row order from the "shuffle" stream, and each maps to its row."""
    order = make_rng(data_seed, "shuffle").permutation(dataset.instance_count)
    return tuple(order[fold] for fold in kfold_split(dataset, k, derive_seed(data_seed, "folds")))


def _run_seed(config: ExperimentConfig, dataset: str, run_index: int, mode: Mode) -> int:
    return derive_seed(config.base_seed, dataset, run_index, mode.value)


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


def _cell_name(dataset: str, run_index: int, mode: Mode) -> str:
    return f"{dataset} {mode.value} run {run_index}"


@dataclass(frozen=True)
class BestGenomeDoc:
    """A best_genome_*.json file: a run's fittest individual. Its ``genome``
    is read by ``genome_from_doc``."""

    genome: dict
    mean_f_measure: float
    per_fold: tuple[float, ...]
    individual_id: int
    run_seed: int


def _run_cell(
    dataset: str,
    run_index: int,
    mode: Mode,
    config: EvolutionConfig,
    fitness: CrossValFitness,
    run_seed: int,
    out: Path,
) -> EvolutionState:
    """One (dataset, run, mode) cell: a whole search, then its files and progress line.

    The cell writes its history, its best genome and ``events_<stem>.jsonl``,
    the part of ``events.jsonl`` that ``run_experiment`` joins; the state it
    returns holds no events.
    """
    # Looked up on the module so that a wrapper installed there is called.
    result = evolution.run(mode, config, fitness, run_seed)
    best, stem = result.best, f"{dataset}_{mode.value}_{run_index}"
    write_history_csv(result.history, out / f"history_{stem}.csv")
    doc = BestGenomeDoc(
        genome=genome_to_doc(best.genome),
        mean_f_measure=best.fitness.mean_f_measure,
        per_fold=best.fitness.per_fold,
        individual_id=best.id,
        run_seed=result.run_seed,
    )
    (out / f"best_genome_{stem}.json").write_text(
        json.dumps(asdict(doc), indent=2) + "\n", encoding="utf-8"
    )
    keys = {"dataset": dataset, "mode": mode.value, "run": run_index}
    complete = {"type": "run_complete", **keys, "best_f1": best.fitness.mean_f_measure,
                "generations": result.generation, "models_trained": result.models_trained,
                "halted": result.halted, "wall_time": result.wall_time}
    with (out / f"events_{stem}.jsonl").open("w", encoding="utf-8") as part:
        for event in result.events:
            part.write(json.dumps({**keys, **event}) + "\n")
        part.write(json.dumps(complete) + "\n")
    result.events.clear()
    # One write per line, so that the lines of parallel cells never interleave.
    sys.stdout.write(
        f"{_cell_name(dataset, run_index, mode)}: "
        f"best={best.fitness.mean_f_measure:.4f} "
        f"generations={result.generation} "
        f"models={result.models_trained} "
        f"({result.wall_time:.1f}s)\n"
    )
    sys.stdout.flush()
    return result


def run_experiment(config: ExperimentConfig) -> None:
    """Execute every (dataset, run, mode) cell and write all artifacts.

    Cells are independent searches, so they are what runs in parallel
    (``config.jobs`` worker processes, at most one per cell). Each cell
    writes its own files when it ends, and progress lines arrive in
    completion order; ``events.jsonl``, ``summary.csv`` and
    ``efficiency.csv`` are written after the last cell, in config order,
    so the outputs are the same for any pool size.
    """
    loaded = [load_dataset(spec) for spec in config.datasets]
    for spec, dataset in zip(config.datasets, loaded):
        _require(
            config.folds <= dataset.instance_count,
            f"folds {config.folds} exceeds the {dataset.instance_count} rows "
            f"of dataset {spec.name!r}",
        )
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()

    cells = []
    for spec, dataset in zip(config.datasets, loaded):
        for run_index in range(config.runs):
            folds = fold_split(dataset, config.folds, _data_seed(config, spec.name, run_index))
            write_csv(
                out / f"folds_{spec.name}_{run_index}.csv",
                FOLD_COLUMNS,
                sorted((int(i), k) for k, fold in enumerate(folds) for i in fold),
            )
            fitness = CrossValFitness(dataset, folds)
            for mode in config.modes:
                run_seed = _run_seed(config, spec.name, run_index, mode)
                cells.append(
                    (spec.name, run_index, mode, config.evolution, fitness, run_seed, out)
                )
    try:
        results = evolution.EvaluatorPool(_run_cell, config.jobs).evaluate(cells)
    except evolution.TasksLost as exc:
        lost = ", ".join(_cell_name(*cells[i][:3]) for i in exc.tasks) or "none"
        raise ExperimentError(f"a worker process died; cells in flight: {lost} ({exc})") from None

    start = {"type": "experiment_start", "runs": config.runs, "folds": config.folds,
             "base_seed": config.base_seed, "modes": [m.value for m in config.modes],
             "datasets": [spec.name for spec in config.datasets]}
    runs: dict[tuple[str, Mode], list[EvolutionState]] = {}
    with (out / "events.jsonl").open("w", encoding="utf-8") as events:
        events.write(json.dumps(start) + "\n")
        for (name, run_index, mode, *_), result in zip(cells, results):
            part = out / f"events_{name}_{mode.value}_{run_index}.jsonl"
            with part.open(encoding="utf-8") as lines:
                shutil.copyfileobj(lines, events)
            part.unlink()
            runs.setdefault((name, mode), []).append(result)

    summary = [
        _aggregate_row(name, mode.value, [r.history for r in cell_runs])
        for (name, mode), cell_runs in runs.items()
    ]
    write_csv(out / "summary.csv", SUMMARY_COLUMNS, map(astuple, summary))
    print(_summary_text(summary, time.perf_counter() - started), flush=True)

    if Mode.NAS_PLUS in config.modes and Mode.ENAS in config.modes:
        efficiency = summarize_efficiency(
            {spec.name: runs[(spec.name, Mode.NAS_PLUS)] for spec in config.datasets},
            {spec.name: runs[(spec.name, Mode.ENAS)] for spec in config.datasets},
        )
        write_csv(out / "efficiency.csv", _columns(EfficiencyRow), map(astuple, efficiency))


def _audit_best_genome(path: Path, history: Sequence[GenerationRecord]) -> None:
    """The file's genome must be valid, and its score the mean of its fold
    scores and its run's last ``best_f1``."""
    shown = repr(str(path))
    hints = get_type_hints(BestGenomeDoc)
    doc = _section(shown, _read_json(path), hints, required=hints)
    try:
        genome_from_doc(doc["genome"])
        record = FitnessRecord(per_fold=doc["per_fold"])
    except ValueError as exc:  # an ExperimentError is one too
        raise ExperimentError(f"{shown}: {exc}") from None
    for expected, what in (
        (record.mean_f_measure, "the mean of its per_fold"),
        (history[-1].best_f1, "the last best_f1 of its history"),
    ):
        if doc["mean_f_measure"] != expected:
            raise AuditError(
                f"{shown}: mean_f_measure {doc['mean_f_measure']!r} is not {what}, {expected!r}"
            )


def audit_output_dir(out_dir: str | Path) -> None:
    """Recompute summary.csv from the history files, check each best-genome
    file against its history and each fold file's rows and split, and require every
    history, best-genome and fold file to belong to a summary row (every
    history and best-genome file to exactly one); raise on any mismatch."""
    out = Path(out_dir)
    accounted: set[str] = set()
    fold_files: set[str] = set()  # the two modes of a dataset share its runs' folds
    for where, cells in _read_csv(out / "summary.csv", SUMMARY_COLUMNS):
        dataset, mode = cells[:2]
        runs = _parse(where, "runs", int, cells[2])
        _require(1 <= runs <= MAX_RUNS, f"{where}: runs must lie in [1, {MAX_RUNS}], got {runs}")
        fold_files.update(f"folds_{dataset}_{run_index}.csv" for run_index in range(runs))
        stems = [f"{dataset}_{mode}_{run_index}" for run_index in range(runs)]
        files = {f for s in stems for f in (f"history_{s}.csv", f"best_genome_{s}.json")}
        if files & accounted:
            raise AuditError(f"{where}: the row for ({dataset}, {mode}) repeats an earlier row")
        accounted |= files
        histories = [read_history_csv(out / f"history_{stem}.csv") for stem in stems]
        recomputed = _aggregate_row(dataset, mode, histories)
        line, expected = ",".join(cells), _csv_line(astuple(recomputed))
        if expected != line:
            raise AuditError(
                f"summary row for ({dataset}, {mode}) does not match its histories: "
                f"summary.csv has {line}, recomputed {expected}"
            )
        for stem, history in zip(stems, histories):
            _audit_best_genome(out / f"best_genome_{stem}.json", history)
    reference = None  # (file, k): every run's fold file splits into the same k folds
    for fold_file in sorted(fold_files):  # integer cells, and instance indices 0..n-1 in order
        sizes: dict[int, int] = {}  # fold id -> rows
        for index, (where, cells) in enumerate(_read_csv(out / fold_file, FOLD_COLUMNS)):
            instance, fold = (_parse(where, name, int, c) for name, c in zip(FOLD_COLUMNS, cells))
            _require(instance == index, f"{where}: instance_index must be {index}, got {instance}")
            if fold < 0:
                raise AuditError(f"{where}: fold_id must be at least 0, got {fold}")
            sizes[fold] = sizes.get(fold, 0) + 1
        # fold ids 0..k-1 with sizes that differ by at most one, as np.array_split gives
        shown, ids = repr(str(out / fold_file)), sorted(sizes)
        gap = next((j for j, fold in enumerate(ids) if fold != j), None)
        if gap is not None:
            raise AuditError(f"{shown}: fold {gap} has no rows, but fold {ids[-1]} has")
        if len(ids) < 2:
            raise AuditError(f"{shown}: every row is in fold 0, but a split has at least 2 folds")
        reference = reference or (shown, len(ids))
        if len(ids) != reference[1]:
            raise AuditError(f"{shown}: {len(ids)} folds, but {reference[0]} has {reference[1]}")
        low, high = min(sizes.values()), max(sizes.values())
        if high - low > 1:
            raise AuditError(f"{shown}: fold sizes range from {low} to {high}, more than one apart")
    patterns = ("history_*.csv", "best_genome_*.json", "folds_*.csv", "events_*.jsonl")
    stray = {path.name for pattern in patterns for path in out.glob(pattern)}
    stray -= accounted | fold_files
    if stray:
        raise AuditError(f"no row of summary.csv accounts for {str(out / min(stray))!r}")

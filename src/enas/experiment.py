"""Repeated-run experiment harness: seeded runs, summary stats, audit trail.

For every (dataset, run) pair the shuffle and fold seeds are derived
without reference to the mode, so the static and adaptive searches of a
pair see identical fold assignments and their results are directly
comparable.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping, Sequence

from .data import (
    Dataset,
    export_fold_assignments,
    kfold_split,
    load_csv,
    normalize_min_max,
    shuffle,
)
from .evolution import (
    EvolutionConfig,
    GenerationRecord,
    Mode,
    RunResult,
    run_on_dataset,
)
from .genome import InvalidGenomeError, SearchSpace, genome_to_doc
from .seeding import derive_seed


class ExperimentError(ValueError):
    """Invalid experiment configuration or unusable inputs."""


class AuditError(AssertionError):
    """Emitted summary values disagree with the per-run history files."""


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    path: Path
    label_column: int | str | None = None
    label_mapping: Mapping[str, int] | None = None
    normalize: bool = True


@dataclass
class ExperimentConfig:
    datasets: list[DatasetSpec]
    modes: list[Mode]
    runs: int
    base_seed: int
    out_dir: Path
    folds: int = 5
    jobs: int = 1
    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ExperimentError("runs must be at least 1")
        if self.folds < 2:
            raise ExperimentError("folds must be at least 2")
        if self.jobs < 1:
            raise ExperimentError("jobs must be at least 1")
        if not self.datasets:
            raise ExperimentError("at least one dataset is required")
        if not self.modes:
            raise ExperimentError("at least one mode is required")
        seen = set()
        for spec in self.datasets:
            if spec.name in seen:
                raise ExperimentError(f"duplicate dataset name {spec.name!r}")
            seen.add(spec.name)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ExperimentError(message)


_TOP_LEVEL_KEYS = {
    "out_dir", "runs", "base_seed", "folds", "jobs", "modes", "datasets", "search_space",
    "static_params",
}


def _check_keys(section: str, doc: Mapping, allowed) -> None:
    unknown = sorted(set(doc) - set(allowed))
    _require(not unknown, f"unknown keys in {section}: {', '.join(unknown)}")


def config_from_file(path: str | Path, overrides: Mapping | None = None) -> ExperimentConfig:
    """Build a config from a JSON file; relative paths resolve next to it."""
    path = Path(path)
    if not path.exists():
        raise ExperimentError(f"config file not found: {path}")
    doc = json.loads(path.read_text(encoding="utf-8"))
    base = path.parent
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    _check_keys("config", doc, _TOP_LEVEL_KEYS)

    def _resolve(p: str) -> Path:
        p = Path(p)
        return p if p.is_absolute() else base / p

    datasets = []
    for entry in doc.get("datasets", []):
        _require("name" in entry and "path" in entry, "dataset entries need name and path")
        _check_keys("dataset entry", entry, [f.name for f in fields(DatasetSpec)])
        datasets.append(
            DatasetSpec(
                name=entry["name"],
                path=_resolve(entry["path"]),
                label_column=entry.get("label_column"),
                label_mapping=entry.get("label_mapping"),
                normalize=entry.get("normalize", True),
            )
        )
    if overrides.get("datasets"):
        wanted = set(overrides["datasets"])
        unknown = wanted - {spec.name for spec in datasets}
        _require(not unknown, f"unknown dataset names in override: {sorted(unknown)}")
        datasets = [spec for spec in datasets if spec.name in wanted]

    mode_names = overrides.get("modes") or doc.get("modes", ["nas_plus", "enas"])
    if mode_names == "both":
        mode_names = ["nas_plus", "enas"]
    modes = [Mode(name) for name in mode_names]

    space_doc = dict(doc.get("search_space", {}))
    _check_keys("search_space", space_doc, [f.name for f in fields(SearchSpace)])
    if "pop_bounds" in overrides:
        space_doc["population_size"] = list(overrides["pop_bounds"])
    if "max_generations_cap" in overrides:
        cap = int(overrides["max_generations_cap"])
        _require(cap >= 1, "max_generations_cap must be at least 1")
        lo = space_doc.get("max_generations", [1, cap])[0]
        space_doc["max_generations"] = [min(lo, cap), cap]
    space_kwargs = {}
    for key in (
        "hidden_layers",
        "nodes",
        "epochs",
        "population_size",
        "max_generations",
    ):
        if key in space_doc:
            space_kwargs[key] = tuple(int(v) for v in space_doc[key])
    for key in ("batch_sizes", "optimizers", "activations"):
        if key in space_doc:
            space_kwargs[key] = tuple(space_doc[key])
    for key in ("mutation_rate_beta", "cloning_rate_beta"):
        if key in space_doc:
            space_kwargs[key] = tuple(float(v) for v in space_doc[key])
    try:
        space = SearchSpace(**space_kwargs)
    except InvalidGenomeError as exc:
        raise ExperimentError(f"search_space: {exc}") from exc

    static_doc = dict(doc.get("static_params", {}))
    static_keys = [f.name for f in fields(EvolutionConfig) if f.name != "space"]
    _check_keys("static_params", static_doc, static_keys)
    if "max_generations_cap" in overrides:
        static_doc["max_generations"] = min(int(static_doc.get("max_generations", cap)), cap)
    evolution = EvolutionConfig(space=space, **static_doc)

    # A config-file out_dir is relative to the config; a command-line
    # override is relative to the caller's working directory.
    if "out" in overrides:
        out_dir = Path(overrides["out"])
    else:
        out_dir = _resolve(doc.get("out_dir", "out"))
    return ExperimentConfig(
        datasets=datasets,
        modes=modes,
        runs=int(overrides.get("runs", doc.get("runs", 1))),
        base_seed=int(overrides.get("seed", doc.get("base_seed", 0))),
        out_dir=out_dir,
        folds=int(doc.get("folds", 5)),
        jobs=int(overrides.get("jobs", doc.get("jobs", 1))),
        evolution=evolution,
    )


# ---------------------------------------------------------------------------
# History file I/O. Floats are written with repr() so that a parsed file
# reproduces the in-memory values bit for bit.

_INT_COLUMNS = {"generation", "population_size", "max_generations", "models_trained_cumulative"}


def _format_cell(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def write_history_csv(history: Sequence[GenerationRecord], path: str | Path) -> Path:
    path = Path(path)
    lines = [",".join(GenerationRecord.FIELDS)]
    for record in history:
        row = record.as_dict()
        lines.append(",".join(_format_cell(row[name]) for name in GenerationRecord.FIELDS))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_history_csv(path: str | Path) -> list[GenerationRecord]:
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    header = lines[0].split(",")
    if tuple(header) != GenerationRecord.FIELDS:
        raise AuditError(f"unexpected history header in {path}: {header}")
    records = []
    for line in lines[1:]:
        cells = line.split(",")
        values = {
            name: (int(cell) if name in _INT_COLUMNS else float(cell))
            for name, cell in zip(header, cells)
        }
        records.append(GenerationRecord(**values))
    return records


PLOT_COLUMNS = (
    "generation",
    "best_f1",
    "mean_f1",
    "mutation_rate",
    "population_size",
    "cloning_rate",
    "max_generations",
)


def emit_plot_data(history: Sequence[GenerationRecord], path: str | Path) -> Path:
    """Write the per-generation trajectory columns used for plotting."""
    if not history:
        raise ExperimentError("cannot emit plot data for an empty history")
    path = Path(path)
    lines = [",".join(PLOT_COLUMNS)]
    for record in history:
        row = record.as_dict()
        lines.append(",".join(_format_cell(row[name]) for name in PLOT_COLUMNS))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Summary table.

SUMMARY_COLUMNS = ("dataset", "mode", "runs", "fittest", "average", "range", "models_trained")


@dataclass(frozen=True)
class SummaryRow:
    dataset: str
    mode: str
    runs: int
    fittest: float
    average: float
    range_: float
    models_trained: int

    def cells(self) -> list[str]:
        return [
            self.dataset,
            self.mode,
            str(self.runs),
            repr(self.fittest),
            repr(self.average),
            repr(self.range_),
            str(self.models_trained),
        ]


@dataclass
class SummaryTable:
    rows: list[SummaryRow]
    total_models_trained: int = 0
    total_wall_time: float = 0.0

    def to_csv_text(self) -> str:
        lines = [",".join(SUMMARY_COLUMNS)]
        lines.extend(",".join(row.cells()) for row in self.rows)
        return "\n".join(lines) + "\n"

    def render_text(self) -> str:
        header = ["dataset", "mode", "runs", "fittest", "average", "range", "models"]
        body = [
            [
                row.dataset,
                row.mode,
                str(row.runs),
                f"{row.fittest:.4f}",
                f"{row.average:.4f}",
                f"{row.range_:.4f}",
                str(row.models_trained),
            ]
            for row in self.rows
        ]
        widths = [max(len(cells[i]) for cells in [header, *body]) for i in range(len(header))]
        out = [
            "  ".join(cell.ljust(width) for cell, width in zip(cells, widths)).rstrip()
            for cells in [header, *body]
        ]
        out.append(
            f"totals: {self.total_models_trained} models trained, "
            f"{self.total_wall_time:.1f}s wall time"
        )
        return "\n".join(out)


def _aggregate_row(
    dataset: str, mode: str, bests: Sequence[float], models: Sequence[int]
) -> SummaryRow:
    """Shared by the harness and the auditor so both round identically."""
    fittest = max(bests)
    lowest = min(bests)
    return SummaryRow(
        dataset=dataset,
        mode=mode,
        runs=len(bests),
        fittest=fittest,
        average=sum(bests) / len(bests),
        range_=fittest - lowest,
        models_trained=int(sum(models)),
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


@dataclass
class EfficiencyReport:
    rows: list[EfficiencyRow]

    @property
    def overall(self) -> EfficiencyRow:
        return self.rows[-1]


def _efficiency_row(
    dataset: str, static: Sequence[RunResult], adaptive: Sequence[RunResult]
) -> EfficiencyRow:
    if len(static) != len(adaptive) or not static:
        raise ExperimentError("efficiency comparison needs equal, non-empty run lists")
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
    static_runs: Mapping[str, Sequence[RunResult]],
    adaptive_runs: Mapping[str, Sequence[RunResult]],
) -> EfficiencyReport:
    """Per-dataset and overall resource deltas for paired-seed run lists."""
    if set(static_runs) != set(adaptive_runs):
        raise ExperimentError("efficiency comparison needs the same datasets in both modes")
    rows = [
        _efficiency_row(name, static_runs[name], adaptive_runs[name])
        for name in static_runs
    ]
    all_static = [r for runs in static_runs.values() for r in runs]
    all_adaptive = [r for runs in adaptive_runs.values() for r in runs]
    rows.append(_efficiency_row("overall", all_static, all_adaptive))
    return EfficiencyReport(rows=rows)


EFFICIENCY_COLUMNS = (
    "dataset",
    "pairs",
    "mean_models_static",
    "mean_models_adaptive",
    "models_delta_pct",
    "mean_wall_static",
    "mean_wall_adaptive",
    "wall_delta_pct",
    "adaptive_fewer_models_fraction",
)


def write_efficiency_csv(report: EfficiencyReport, path: str | Path) -> Path:
    path = Path(path)
    lines = [",".join(EFFICIENCY_COLUMNS)]
    for row in report.rows:
        lines.append(
            ",".join(
                [
                    row.dataset,
                    str(row.pairs),
                    repr(row.mean_models_static),
                    repr(row.mean_models_adaptive),
                    repr(row.models_delta_pct),
                    repr(row.mean_wall_static),
                    repr(row.mean_wall_adaptive),
                    repr(row.wall_delta_pct),
                    repr(row.adaptive_fewer_models_fraction),
                ]
            )
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# The harness itself.

@dataclass
class RunArtifact:
    dataset: str
    mode: Mode
    run_index: int
    result: RunResult
    history_path: Path
    genome_path: Path


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    summary: SummaryTable
    artifacts: list[RunArtifact]
    efficiency: EfficiencyReport | None
    out_dir: Path


def _data_seed(config: ExperimentConfig, dataset: str, run_index: int) -> int:
    # Mode deliberately excluded: both modes of a pair share the shuffle
    # and fold assignment.
    return derive_seed(config.base_seed, dataset, run_index, "data")


def _run_seed(config: ExperimentConfig, dataset: str, run_index: int, mode: Mode) -> int:
    return derive_seed(config.base_seed, dataset, run_index, mode.value)


def load_dataset(spec: DatasetSpec) -> Dataset:
    dataset = load_csv(
        spec.path,
        label_column=spec.label_column,
        label_mapping=spec.label_mapping,
        name=spec.name,
    )
    return normalize_min_max(dataset) if spec.normalize else dataset


def run_experiment(config: ExperimentConfig, verbose: bool = True) -> ExperimentResult:
    """Execute every (dataset, mode, run) cell and write all artifacts."""
    loaded = {spec.name: load_dataset(spec) for spec in config.datasets}

    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    events_path = out / "events.jsonl"
    started = time.perf_counter()

    artifacts: list[RunArtifact] = []
    by_cell: dict[tuple[str, Mode], list[RunResult]] = {}
    with events_path.open("w", encoding="utf-8") as events:

        def log(doc: dict) -> None:
            events.write(json.dumps(doc) + "\n")

        log({"type": "experiment_start", "runs": config.runs, "folds": config.folds,
             "base_seed": config.base_seed, "modes": [m.value for m in config.modes],
             "datasets": [spec.name for spec in config.datasets]})

        for spec in config.datasets:
            dataset = loaded[spec.name]
            for run_index in range(config.runs):
                data_seed = _data_seed(config, spec.name, run_index)
                shuffled = shuffle(dataset, derive_seed(data_seed, "shuffle"))
                split = kfold_split(shuffled, config.folds, derive_seed(data_seed, "folds"))
                export_fold_assignments(split, out / f"folds_{spec.name}_{run_index}.csv")
                for mode in config.modes:
                    result = run_on_dataset(
                        mode,
                        config.evolution,
                        shuffled,
                        split,
                        _run_seed(config, spec.name, run_index, mode),
                        jobs=config.jobs,
                    )
                    stem = f"{spec.name}_{mode.value}_{run_index}"
                    history_path = write_history_csv(result.history, out / f"history_{stem}.csv")
                    genome_path = out / f"best_genome_{stem}.json"
                    genome_path.write_text(
                        json.dumps(
                            {
                                "genome": genome_to_doc(result.best.genome),
                                "mean_f_measure": result.best.fitness.mean_f_measure,
                                "per_fold": list(result.best.fitness.per_fold),
                                "individual_id": result.best.id,
                                "run_seed": result.run_seed,
                            },
                            indent=2,
                        )
                        + "\n",
                        encoding="utf-8",
                    )
                    for doc in result.events:
                        log({"dataset": spec.name, "mode": mode.value, "run": run_index, **doc})
                    log(
                        {
                            "type": "run_complete",
                            "dataset": spec.name,
                            "mode": mode.value,
                            "run": run_index,
                            "best_f1": result.best.fitness.mean_f_measure,
                            "generations": result.generations,
                            "models_trained": result.models_trained,
                            "halted": result.halted,
                            "wall_time": result.wall_time,
                        }
                    )
                    if verbose:
                        print(
                            f"{spec.name} {mode.value} run {run_index}: "
                            f"best={result.best.fitness.mean_f_measure:.4f} "
                            f"generations={result.generations} "
                            f"models={result.models_trained} "
                            f"({result.wall_time:.1f}s)",
                            flush=True,
                        )
                    artifacts.append(
                        RunArtifact(spec.name, mode, run_index, result, history_path, genome_path)
                    )
                    by_cell.setdefault((spec.name, mode), []).append(result)

    rows = []
    for spec in config.datasets:
        for mode in config.modes:
            results = by_cell[(spec.name, mode)]
            rows.append(
                _aggregate_row(
                    spec.name,
                    mode.value,
                    [r.best.fitness.mean_f_measure for r in results],
                    [r.models_trained for r in results],
                )
            )
    summary = SummaryTable(
        rows=rows,
        total_models_trained=sum(a.result.models_trained for a in artifacts),
        total_wall_time=time.perf_counter() - started,
    )
    (out / "summary.csv").write_text(summary.to_csv_text(), encoding="utf-8")
    if verbose:
        print(summary.render_text(), flush=True)

    efficiency = None
    if Mode.NAS_PLUS in config.modes and Mode.ENAS in config.modes:
        efficiency = summarize_efficiency(
            {spec.name: by_cell[(spec.name, Mode.NAS_PLUS)] for spec in config.datasets},
            {spec.name: by_cell[(spec.name, Mode.ENAS)] for spec in config.datasets},
        )
        write_efficiency_csv(efficiency, out / "efficiency.csv")

    return ExperimentResult(
        config=config, summary=summary, artifacts=artifacts, efficiency=efficiency, out_dir=out
    )


def audit_output_dir(out_dir: str | Path) -> None:
    """Recompute summary.csv from the history files; raise on any mismatch."""
    out = Path(out_dir)
    summary_path = out / "summary.csv"
    if not summary_path.exists():
        raise AuditError(f"no summary.csv under {out}")
    lines = summary_path.read_text(encoding="utf-8").strip().splitlines()
    if tuple(lines[0].split(",")) != SUMMARY_COLUMNS:
        raise AuditError(f"unexpected summary header: {lines[0]}")
    for line in lines[1:]:
        dataset, mode, runs_text = line.split(",")[:3]
        runs = int(runs_text)
        bests: list[float] = []
        models: list[int] = []
        for run_index in range(runs):
            history = read_history_csv(out / f"history_{dataset}_{mode}_{run_index}.csv")
            bests.append(max(record.best_f1 for record in history))
            models.append(history[-1].models_trained_cumulative)
        recomputed = _aggregate_row(dataset, mode, bests, models)
        expected = ",".join(recomputed.cells())
        if expected != line:
            raise AuditError(
                f"summary row for ({dataset}, {mode}) does not match its histories:\n"
                f"  summary.csv: {line}\n"
                f"  recomputed:  {expected}"
            )

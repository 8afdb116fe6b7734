"""One repetition of a benchmark workload, run in a fresh process by run.py.

    python3 perfbench/rep.py --workload NAME --seed N --workdir DIR \
        --result FILE [--trace] [--quick]

The repetition builds its inputs from the seed, drives the package through
its public functions, checks the outputs and writes one JSON record to
FILE. Its own start-up (interpreter, imports, data, fold split) up to the
first fitness evaluation is the set-up that run.py times.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import resource
import sys
import time
from multiprocessing import util as mp_util
from pathlib import Path

import numpy as np

from tracer import Tracer, around_calls, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

OPTIMIZERS = ("sgd", "adam", "adamax", "rmsprop")
HIDDEN_ACTIVATIONS = ("relu", "tanh", "sigmoid", "linear")

# Panel workloads: batch sizes x OPTIMIZERS, with the (hidden layers, nodes)
# shapes taken in turn. Epochs are set so a repetition takes a few seconds.
PANELS = {
    "panel-narrow": {"batch_sizes": (1, 2, 4), "shapes": ((1, 8), (2, 16)), "epochs": 4},
    "panel-wide": {"batch_sizes": (16, 32), "shapes": ((3, 128), (4, 128)), "epochs": 10},
}
PANEL_ROWS, PANEL_COLUMNS, PANEL_FOLDS = 208, 60, 5
# The panel dataset is one fixed draw. Which draw it is sets the attainable
# F-measure (two draws gave panel means of 0.61 and 0.80 in a 6-epoch
# trial), which would swamp best_f1_mean across seeds; the workload seed
# varies the fold split and every network's initial weights and batch order
# instead.
PANEL_DATA_SEED = 2024

_PROBE_RNG = np.random.default_rng(0)
_PROBE_X = _PROBE_RNG.standard_normal((8, 60))
_PROBE_W = _PROBE_RNG.standard_normal((60, 16))
_PROBE_B = _PROBE_RNG.standard_normal((32, 128))
_PROBE_V = _PROBE_RNG.standard_normal((128, 128)) / 128

# Where the host's speed is sampled: after every call of the first site
# that exists (see HostProbe).
PROBE_SITES = ["enas.fitness:CrossValFitness.__call__", "enas.nn:train"]

SEARCH_CONFIG = HERE / "search.json"
QUICK_DATASETS = ("demo_small",)

# Where the search workload evaluates a generation; the first site that
# still exists is clocked. Its first call ends set-up, and the end of each
# call ends a piece of the work (see Pieces).
EVALUATION_SITES = [
    "enas.evolution:EvaluatorPool.evaluate",
    "enas.evolution:run",
    "enas.experiment:run_experiment",
]


def reference_probe() -> float:
    """Time one fixed, small numpy workload: the host-speed reference.

    It mixes what the workloads spend their time on: steps of a narrow net
    (small matmuls and elementwise numpy calls, dispatch-bound) and a
    128-wide matmul (BLAS-bound). It uses nothing from the package, so a
    change to the program cannot change it.
    """
    started = time.perf_counter()
    w = _PROBE_W.copy()
    for _ in range(80):
        h = np.tanh(_PROBE_X @ w)
        w -= 0.01 * (_PROBE_X.T @ (h * (1.0 - h * h)))
    for _ in range(8):
        np.tanh(_PROBE_B @ _PROBE_V) @ _PROBE_V
    return time.perf_counter() - started


class HostProbe:
    """Samples the host's speed after every fitness evaluation, in whichever process runs it.

    The samples are taken while the work runs and next to it, on the cores
    it runs on. Pool workers are forked from this process and inherit the
    patch; each writes its samples to probes-<pid>.json in the work
    directory when it exits, and collect() merges them with this process's
    own. When no probe site exists, the caller samples after each piece.
    """

    def __init__(self, directory: Path):
        self.directory = directory
        self.samples: list[float] = []
        self.installed = around_calls(PROBE_SITES, after=self.sample)
        mp_util.register_after_fork(self, HostProbe._after_fork)

    def sample(self) -> None:
        self.samples.append(reference_probe())

    def _after_fork(self) -> None:
        self.samples = []
        mp_util.Finalize(None, self._dump, exitpriority=10)

    def _dump(self) -> None:
        path = self.directory / f"probes-{os.getpid()}.json"
        path.write_text(json.dumps(self.samples), encoding="utf-8")

    def collect(self) -> list[float]:
        samples = list(self.samples)
        for path in sorted(self.directory.glob("probes-*.json")):
            samples += json.loads(path.read_text(encoding="utf-8"))
            path.unlink()
        return samples


class Pieces:
    """Cuts a repetition's fixed work into pieces.

    Every repetition of a seed does the same work, so the same pieces come
    out each time (one per panel genome, one per search generation) and
    run.py can take each piece's median over the repetitions.
    """

    def __init__(self, probe: HostProbe) -> None:
        self.ready: float | None = None
        self.durations: list[float] = []
        self._since = 0.0
        self._probe = None if probe.installed else probe

    def begin(self, at: float | None = None) -> None:
        if self.ready is None:
            self.ready = self._since = time.perf_counter() if at is None else at

    def cut(self) -> None:
        self.durations.append(time.perf_counter() - self._since)
        if self._probe is not None:
            self._probe.sample()
        self._since = time.perf_counter()

    def record(self) -> dict:
        return {"ready": self.ready, "wall_s": sum(self.durations), "pieces": self.durations}


def panel_genomes(batch_sizes, shapes, epochs):
    from enas.genome import Genome

    genomes = []
    for i, (batch, optimizer) in enumerate(itertools.product(batch_sizes, OPTIMIZERS)):
        hidden, nodes = shapes[i % len(shapes)]
        activation = HIDDEN_ACTIVATIONS[(i // len(shapes)) % len(HIDDEN_ACTIVATIONS)]
        genomes.append(
            Genome(
                hidden_layers=hidden,
                nodes=nodes,
                activations=(activation,) * (hidden + 1) + ("sigmoid",),
                optimizer=optimizer,
                epochs=epochs,
                batch_size=batch,
                mutation_rate=0.1,
                population_size=10,
                cloning_rate=0.3,
                max_generations=10,
            )
        )
    return genomes


def run_panel(name: str, seed: int, quick: bool, probe: HostProbe) -> dict:
    from enas.data import kfold_split
    from enas.fitness import CrossValFitness
    from enas.synthetic import make_threshold_dataset

    spec = dict(PANELS[name], epochs=1) if quick else PANELS[name]
    genomes = panel_genomes(**spec)
    dataset = make_threshold_dataset(PANEL_ROWS, PANEL_COLUMNS, PANEL_DATA_SEED, name="sonar-like")
    evaluator = CrossValFitness(dataset, kfold_split(dataset, PANEL_FOLDS, seed + 1))

    pieces = Pieces(probe)
    pieces.begin()
    records = []
    for i, genome in enumerate(genomes):
        records.append(evaluator(genome, seed * 1000 + i))
        pieces.cut()

    problems = []
    for i, record in enumerate(records):
        folds = record.per_fold
        if len(folds) != PANEL_FOLDS or record.models_trained != PANEL_FOLDS:
            problems.append(f"genome {i}: {len(folds)} fold scores, {record.models_trained} models")
        elif not all(0.0 <= f <= 1.0 for f in folds) or not math.isclose(
            record.mean_f_measure, sum(folds) / len(folds), rel_tol=1e-12
        ):
            problems.append(f"genome {i}: fold scores {folds} vs mean {record.mean_f_measure}")
    per_fold = [[repr(f) for f in record.per_fold] for record in records]
    return {
        **pieces.record(),
        "models": sum(record.models_trained for record in records),
        "best_f1_mean": sum(record.mean_f_measure for record in records) / len(records),
        "digest": hashlib.sha256(json.dumps(per_fold).encode()).hexdigest(),
        "problems": problems,
    }


def output_digest(out_dir: Path) -> str:
    """SHA-256 over the names and bytes of the history and best-genome files."""
    h = hashlib.sha256()
    for pattern in ("history_*.csv", "best_genome_*.json"):
        for path in sorted(out_dir.glob(pattern)):
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def search_outcome(out_dir: Path, cells: int) -> dict:
    """Check a search output directory; return its digest, totals and problems."""
    from enas import cli

    problems = []
    started = time.perf_counter()
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        if cli.main(["audit", "--out", str(out_dir)]) != 0:
            problems.append("enas audit failed: " + err.getvalue().strip()[:300])
    audit_s = time.perf_counter() - started

    histories = sorted(out_dir.glob("history_*.csv"))
    genomes = sorted(out_dir.glob("best_genome_*.json"))
    if len(histories) != cells or len(genomes) != cells:
        problems.append(f"{len(histories)} histories and {len(genomes)} genomes for {cells} cells")
    models = 0
    for path in histories:
        header, *rows = path.read_text(encoding="utf-8").split()
        column = header.split(",").index("models_trained_cumulative")
        models += int(rows[-1].split(",")[column])
    bests = [json.loads(path.read_text(encoding="utf-8"))["mean_f_measure"] for path in genomes]
    return {
        "digest": output_digest(out_dir),
        "models": models,
        "best_f1_mean": sum(bests) / len(bests) if bests else 0.0,
        "audit_s": audit_s,
        "problems": problems,
    }


def run_search(seed: int, workdir: Path, quick: bool, probe: HostProbe) -> dict:
    from enas import cli

    data_dir, out_dir = workdir / "data", workdir / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(["demo-data", "--out", str(data_dir), "--seed", str(seed)]) != 0:
            raise RuntimeError("enas demo-data failed")
    config = json.loads(SEARCH_CONFIG.read_text(encoding="utf-8"))
    if quick:
        config["datasets"] = [d for d in config["datasets"] if d["name"] in QUICK_DATASETS]
    for entry in config["datasets"]:
        entry["path"] = str(data_dir / f"{entry['name']}.csv")
    config["out_dir"] = str(out_dir)
    config_path = workdir / "search.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")

    pieces = Pieces(probe)
    around_calls(EVALUATION_SITES, pieces.begin, pieces.cut)
    called = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(["run", "--config", str(config_path)])
    pieces.begin(at=called)
    pieces.cut()

    cells = len(config["datasets"]) * len(config["modes"]) * config["runs"]
    outcome = search_outcome(out_dir, cells)
    if status != 0:
        outcome["problems"].insert(0, f"enas run exited {status}")
    return {**pieces.record(), **outcome}


def environment() -> dict:
    import platform

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "machine": f"{platform.node()} {platform.machine()} {platform.platform()}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def usage() -> dict:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        # ru_maxrss is in KiB on Linux; children count the largest one.
        "peak_rss_mb": max(me.ru_maxrss, kids.ru_maxrss) / 1024.0,
        "cpu_user_s": me.ru_utime + kids.ru_utime,
        "cpu_sys_s": me.ru_stime + kids.ru_stime,
        "ctx_switches": me.ru_nvcsw + me.ru_nivcsw + kids.ru_nvcsw + kids.ru_nivcsw,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*PANELS, "search"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    args.workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        tracer = Tracer(args.workdir)
        tracer.install()
    probe = HostProbe(args.workdir)

    if args.workload == "search":
        record = run_search(args.seed, args.workdir, args.quick, probe)
    else:
        record = run_panel(args.workload, args.seed, args.quick, probe)
    record["probes"] = probe.collect()
    record.update(usage())
    if tracer is not None:
        spans = tracer.collect(args.workdir / "spans.jsonl")
        record["layers"] = layer_metrics(spans, tracer.patched)
    record["env"] = environment()
    args.result.write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

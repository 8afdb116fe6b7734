"""Span tracer that wraps the package's public functions from outside.

The benchmark never edits the program. In a traced repetition it replaces
each function named in ``TARGETS`` at every place its callers look it up
(``derive_seed``, for one, is imported by name into ``fitness``,
``evolution`` and ``experiment``), records one span per call and keeps the
spans in memory until the repetition ends.

Pool workers are forked from the traced process, so they inherit the
wrappers. After a fork the worker clears the spans it inherited and, when
it exits, writes its own spans to ``spans-<pid>.jsonl`` in the trace
directory; ``Tracer.collect`` merges those files with the parent's spans.
A pool that starts workers by ``spawn`` instead would give no worker
spans, and the layer counts of the ``search`` workload would read 0.

A target that no longer exists is skipped, and every metric that needs it
is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import time
from multiprocessing import util as mp_util
from pathlib import Path

# Span name -> "module:attribute" sites where callers look the function up.
TARGETS = {
    "nn.train": ["enas.nn:train"],
    "nn.loss_and_gradients": ["enas.nn:loss_and_gradients"],
    "nn.predict": ["enas.nn:predict"],
    "fitness.eval": ["enas.fitness:CrossValFitness.__call__"],
    "evolution.pool.evaluate": ["enas.evolution:EvaluatorPool.evaluate"],
    "evolution.run": ["enas.evolution:run"],
    "genome.breed": [
        f"enas.{module}:{name}"
        for module in ("genome", "evolution")
        for name in ("sample_genome", "crossover", "mutate")
    ],
    "seeding.derive_seed": [
        f"enas.{module}:derive_seed"
        for module in ("seeding", "fitness", "evolution", "experiment")
    ],
    "data.load_csv": ["enas.data:load_csv", "enas.experiment:load_csv"],
    "data.split": ["enas.data:kfold_split", "enas.experiment:kfold_split"],
    "experiment.run": ["enas.experiment:run_experiment", "enas.cli:run_experiment"],
}


def _train_facts(args, model) -> list:
    return [getattr(model, name, None) for name in ("epochs_run", "stopped_early", "diverged")]


def _evaluate_facts(args, records) -> list:
    walls = [getattr(record, "wall_time", None) for record in records]
    busy = None if None in walls else sum(walls)
    return [len(records), busy, getattr(args[0], "jobs", None)]


# Facts kept from a call's arguments and result, beside its span.
PROBES = {"nn.train": _train_facts, "evolution.pool.evaluate": _evaluate_facts}


def resolve(site: str):
    """Return (owner, attribute, current value) for a "module:a.b" site, or None."""
    module_name, _, path = site.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


class Tracer:
    """Records (id, parent id, name, start, end, facts) spans per process."""

    def __init__(self, trace_dir: Path):
        self.trace_dir = Path(trace_dir)
        self.spans: list[tuple] = []
        self.patched: set[str] = set()
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0

    def install(self) -> None:
        for name, sites in TARGETS.items():
            for site in sites:
                found = resolve(site)
                if found is None:
                    continue
                owner, attr, original = found
                setattr(owner, attr, self._wrap(name, original, PROBES.get(name)))
                self.patched.add(name)
        mp_util.register_after_fork(self, Tracer._after_fork)

    def _wrap(self, name: str, fn, probe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            if parent is not None and parent[1] == name:
                # One layer calling itself through another patched site.
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            stack.append((span_id, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            facts = probe(args, result) if probe else None
            tracer.spans.append(
                (span_id, None if parent is None else parent[0], name, start, end, facts)
            )
            return result

        return traced

    def _after_fork(self) -> None:
        # Runs in a freshly forked pool worker, after multiprocessing has
        # cleared the finalizers it inherited.
        self.spans = []
        self._stack = []
        mp_util.Finalize(None, self._dump_worker, exitpriority=10)

    def _dump_worker(self) -> None:
        path = self.trace_dir / f"spans-{os.getpid()}.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps([os.getpid(), *span]) + "\n")

    def collect(self, out_path: Path) -> list[tuple]:
        """Merge parent and worker spans, write them to out_path, return them."""
        pid = os.getpid()
        spans = [(pid, *span) for span in self.spans]
        for path in sorted(self.trace_dir.glob("spans-*.jsonl")):
            with path.open(encoding="utf-8") as fh:
                spans.extend(tuple(json.loads(line)) for line in fh)
            path.unlink()
        with Path(out_path).open("w", encoding="utf-8") as fh:
            for span in spans:
                pid_, span_id, parent, name, start, end, facts = span
                fh.write(
                    json.dumps(
                        {"pid": pid_, "id": span_id, "parent": parent, "name": name,
                         "start": start, "end": end, "facts": facts}
                    )
                    + "\n"
                )
        return spans


def around_calls(sites: list[str], before=None, after=None) -> bool:
    """Patch the first available site so that before() and after() run around every call.

    Either may be None. Returns False when no site exists.
    """
    for site in sites:
        found = resolve(site)
        if found is None:
            continue
        owner, attr, original = found

        @functools.wraps(original)
        def wrapped(*args, **kwargs):
            if before is not None:
                before()
            try:
                return original(*args, **kwargs)
            finally:
                if after is not None:
                    after()

        setattr(owner, attr, wrapped)
        return True
    return False


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(spans: list[tuple], patched: set[str]) -> dict[str, float]:
    """Per-layer figures of one traced repetition.

    A metric whose spans could not be recorded (its target is gone) is left
    out. A self time is a span's duration minus the spans of the named
    child layers nearest beneath it, in the same process.
    """
    by_key = {(s[0], s[1]): s for s in spans}
    durations: dict[str, list[float]] = {}
    for s in spans:
        durations.setdefault(s[3], []).append(s[5] - s[4])

    def dur(name: str) -> list[float]:
        return durations.get(name, [])

    def total(name: str) -> float:
        return sum(dur(name))

    def self_time(name: str, children: tuple[str, ...]) -> float:
        covered = 0.0
        for s in spans:
            if s[3] not in children:
                continue
            parent = by_key.get((s[0], s[2]))
            while parent is not None and parent[3] not in children and parent[3] != name:
                parent = by_key.get((parent[0], parent[2]))
            if parent is not None and parent[3] == name:
                covered += s[5] - s[4]
        return total(name) - covered

    # Each entry: (span names the metric needs, how to compute it).
    def calls(name):
        return (name,), lambda: len(dur(name))

    def summed(name):
        return (name,), lambda: total(name)

    def quantile(name, q, scale=1.0):
        return (name,), lambda: _quantile(dur(name), q) * scale if dur(name) else 0.0

    def own(name, *children):
        return (name, *children), lambda: self_time(name, children)

    table = {
        "nn.train.calls": calls("nn.train"),
        "nn.train.p50_ms": quantile("nn.train", 0.5, 1e3),
        "nn.train.total_s": summed("nn.train"),
        "nn.train.self_s": own("nn.train", "nn.loss_and_gradients"),
        "nn.loss_and_gradients.calls": calls("nn.loss_and_gradients"),
        "nn.loss_and_gradients.p50_us": quantile("nn.loss_and_gradients", 0.5, 1e6),
        "nn.loss_and_gradients.total_s": summed("nn.loss_and_gradients"),
        "nn.predict.total_s": summed("nn.predict"),
        "fitness.eval.calls": calls("fitness.eval"),
        "fitness.eval.p50_s": quantile("fitness.eval", 0.5),
        "fitness.eval.p90_s": quantile("fitness.eval", 0.9),
        "fitness.eval.self_s": own("fitness.eval", "nn.train", "nn.predict"),
        "evolution.pool.evaluate.calls": calls("evolution.pool.evaluate"),
        "evolution.pool.evaluate.total_s": summed("evolution.pool.evaluate"),
        "evolution.run.p50_s": quantile("evolution.run", 0.5),
        "evolution.engine_self_s": own("evolution.run", "evolution.pool.evaluate"),
        "genome.breed.total_s": summed("genome.breed"),
        "seeding.derive_seed.calls": calls("seeding.derive_seed"),
        "seeding.derive_seed.total_s": summed("seeding.derive_seed"),
        "data.load_csv.total_s": summed("data.load_csv"),
        "data.split.total_s": summed("data.split"),
        "experiment.cell_overhead_s": own("experiment.run", "evolution.run"),
    }
    metrics = {
        metric: float(compute())
        for metric, (needs, compute) in table.items()
        if set(needs) <= patched
    }

    trained = [s[6] for s in spans if s[3] == "nn.train" and s[6] is not None]
    if trained and all(None not in f for f in trained):
        metrics["nn.epochs_run.mean"] = sum(f[0] for f in trained) / len(trained)
        metrics["nn.early_stop_frac"] = sum(bool(f[1]) for f in trained) / len(trained)
        metrics["nn.diverged_frac"] = sum(bool(f[2]) for f in trained) / len(trained)
    elif "nn.train" in patched and not dur("nn.train"):
        metrics.update({"nn.epochs_run.mean": 0.0, "nn.early_stop_frac": 0.0,
                        "nn.diverged_frac": 0.0})

    if "evolution.pool.evaluate" in patched:
        calls = [s for s in spans if s[3] == "evolution.pool.evaluate" and s[6] is not None]
        metrics["evolution.pool.tasks_per_call.mean"] = (
            sum(s[6][0] for s in calls) / len(calls) if calls else 0.0
        )
        if all(None not in s[6] for s in calls):
            # Summed FitnessRecord.wall_time over jobs x the evaluate wall time.
            busy = sum(s[6][1] for s in calls)
            capacity = sum(s[6][2] * (s[5] - s[4]) for s in calls)
            metrics["evolution.pool.worker_busy_frac"] = busy / capacity if capacity else 0.0
    return metrics

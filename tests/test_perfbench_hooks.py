"""The benchmark wraps package functions by name from outside the package.

A rename in the package must fail here, not show up later as an ``absent``
layer in a traced benchmark pass. The benchmark's modules are imported
read-only: no bytecode is written next to them.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

from enas import nn
from enas.data import kfold_split
from enas.evolution import EvaluatorPool, EvolutionConfig, Mode
from enas.experiment import Cell, _run_cell, config_from_file, run_experiment
from enas.fitness import CrossValFitness
from enas.genome import SearchSpace, config_from_genome, sample_genome
from enas.seeding import make_rng
from enas.synthetic import make_threshold_dataset

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        yield importlib.import_module("tracer"), importlib.import_module("rep")
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
        sys.modules.pop("tracer", None)
        sys.modules.pop("rep", None)


def _unresolved(tracer, sites):
    return [site for site in sites if tracer.resolve(site) is None]


def test_every_traced_target_resolves(perfbench):
    tracer, _ = perfbench
    sites = [site for group in tracer.TARGETS.values() for site in group]
    assert sites and not _unresolved(tracer, sites)


@pytest.mark.parametrize("name", ["PROBE_SITES", "EVALUATION_SITES"])
def test_every_clocked_site_resolves(perfbench, name):
    tracer, rep = perfbench
    sites = getattr(rep, name)
    assert sites and not _unresolved(tracer, sites)


# The tracer and rep.run_panel read these result attributes by name, the
# tracer through getattr(..., None): a renamed or removed attribute would
# otherwise turn into a silent None fact.
SPACE = SearchSpace(population_size=(3, 4), max_generations=(1, 2), nodes=(2, 4), epochs=(1, 3))


def _evaluator():
    dataset = make_threshold_dataset(24, 3, seed=3)
    return CrossValFitness(dataset, kfold_split(dataset, 3, seed=4))


def test_train_probe_reads_every_fact_of_a_trained_model(perfbench):
    tracer, _ = perfbench
    dataset = make_threshold_dataset(24, 3, seed=1)
    config = config_from_genome(sample_genome(SPACE, make_rng(2)))
    args = (config, dataset.features, dataset.labels, 5)
    facts = tracer.PROBES["nn.train"](args, nn.train(*args))
    assert len(facts) == 3 and None not in facts


def test_pool_probe_reads_every_fact_of_a_pool_call(perfbench, capsys, tmp_path):
    tracer, _ = perfbench
    config = EvolutionConfig(space=SPACE, population_size=3, max_generations=1)
    tasks = [(Cell("toy", mode, 0), config, _evaluator(), 6, tmp_path) for mode in Mode]
    pool = EvaluatorPool(_run_cell, jobs=1)
    facts = tracer.PROBES["evolution.pool.evaluate"]((pool, tasks), pool.evaluate(tasks))
    assert facts[0] == len(tasks) and None not in facts


def test_panel_reads_every_fact_of_a_fitness_record():
    record = _evaluator()(sample_genome(SPACE, make_rng(7)), 8)
    folds = record.per_fold
    assert len(folds) == record.models_trained == 3
    assert record.mean_f_measure == sum(folds) / len(folds)


def test_search_scores_every_genome_by_call_inside_one_pool_call(tmp_path, monkeypatch):
    # rep.HostProbe samples the host's speed after each CrossValFitness.__call__,
    # and run.py's host_factor takes their median, so a search that scored
    # genomes without it would leave the search workload with no samples;
    # rep.Pieces clocks EvaluatorPool.evaluate, which must run the whole search.
    from .test_experiment import _write_config

    calls, pool_calls = [], []
    real_call, real_evaluate = CrossValFitness.__call__, EvaluatorPool.evaluate

    def counted(self, *args):
        calls.append(args)
        return real_call(self, *args)

    def counted_pool(self, tasks):
        pool_calls.append(len(tasks))
        return real_evaluate(self, tasks)

    monkeypatch.setattr(CrossValFitness, "__call__", counted)
    monkeypatch.setattr(EvaluatorPool, "evaluate", counted_pool)
    config = config_from_file(_write_config(tmp_path, datasets=1, runs=1))
    run_experiment(config)
    lines = (config.out_dir / "events.jsonl").read_text().splitlines()
    evaluations = [doc for doc in map(json.loads, lines) if doc["type"] == "evaluation"]
    assert config.jobs == 1 and evaluations
    assert len(calls) == len(evaluations)
    assert pool_calls == [len(config.modes)]

"""End-to-end acceptance suite.

Each test verifies one headline guarantee of the package at its stated
tolerance and prints a single PASS line on success; run with
``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the lines).
"""

import json
import math
import re
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from enas.data import load_csv, normalize_min_max
from enas.evolution import TOURNAMENT_SIZE, EvolutionConfig, Mode, run
from enas.experiment import (
    audit_output_dir,
    config_from_file,
    fold_split,
    run_experiment,
    summarize_efficiency,
)
from enas.fitness import CrossValFitness, f_measure
from enas.genome import (
    SearchSpace,
    sample_gene,
)
from enas.nn import (
    MLPConfig,
    glorot_uniform,
    init_params,
    layer_dims,
    loss_and_gradients,
    param_views,
)
from enas.seeding import derive_seed, make_rng
from enas.synthetic import make_threshold_dataset, write_dataset_csv

from .conftest import SONAR_PATH
from .test_evolution import SyntheticFitness, discard, run_logged
from .test_experiment import read_summary_rows, run_complete
from .test_fitness import brute_force_f1
from .test_nn import batch_loss, transposes


def _announce(line):
    print(f"\nPASS: {line}")


def test_f_measure_agrees_exactly_with_bruteforce_oracle():
    started = time.perf_counter()
    rng = make_rng("acceptance", "f1")
    for _ in range(10_000):
        length = int(rng.integers(1, 201))
        predictions = rng.integers(0, 2, size=length)
        labels = rng.integers(0, 2, size=length)
        fast = f_measure(predictions, labels)
        slow = brute_force_f1(predictions.tolist(), labels.tolist())
        assert fast == slow, (predictions.tolist(), labels.tolist())
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"oracle comparison took {elapsed:.1f}s"
    _announce(f"f_measure matched the brute-force oracle on 10^4 vectors ({elapsed:.1f}s)")


def test_analytic_gradients_match_finite_differences_on_20_networks():
    started = time.perf_counter()
    rng = make_rng("acceptance", "gradients")
    checked = 0
    for trial in range(20):
        hidden = int(rng.integers(1, 4))
        config = MLPConfig(
            hidden_layers=hidden,
            nodes_per_hidden=int(rng.integers(2, 6)),
            activations=tuple(
                str(a) for a in rng.choice(["relu", "sigmoid", "tanh", "linear"], hidden + 1)
            )
            + ("sigmoid",),
            optimizer="sgd",
            epochs=1,
            batch_size=4,
        )
        width = int(rng.integers(2, 7))
        params = init_params(config, width, rng)
        grad, scratch = np.empty_like(params), np.empty_like(params)
        dims = layer_dims(width, config)
        layers, grad_layers = param_views(params, dims), param_views(grad, dims)
        scratch_layers = param_views(scratch, dims)
        x = rng.uniform(0.0, 1.0, size=(8, width))
        y = rng.integers(0, 2, size=8).astype(float)
        loss_and_gradients(layers, config.activations, x, y, grad_layers, transposes(layers))
        h = 1e-5
        for i in range(params.size):
            original = params[i]
            params[i] = original + h
            up = batch_loss(layers, config.activations, x, y, scratch_layers)
            params[i] = original - h
            down = batch_loss(layers, config.activations, x, y, scratch_layers)
            params[i] = original
            fd = (up - down) / (2 * h)
            scale = max(abs(fd), abs(grad[i]), 1e-8)
            assert abs(fd - grad[i]) / scale < 1e-4, (trial, i)
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s"
    _announce(f"gradients matched finite differences on 20 networks, {checked} parameters ({elapsed:.1f}s)")


def test_glorot_statistics_over_1e5_draws():
    fan_in, fan_out = 8, 8
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    rng = make_rng("acceptance", "glorot")
    draws = np.concatenate(
        [glorot_uniform(fan_in, fan_out, rng).ravel() for _ in range(1600)]
    )
    assert draws.size >= 100_000
    assert np.abs(draws).max() <= limit
    target_variance = 2.0 / (fan_in + fan_out)
    assert abs(np.var(draws) - target_variance) / target_variance < 0.05
    _announce(
        f"glorot draws stayed inside ±{limit:.4f} with variance within 5% of {target_variance}"
    )


def test_control_gene_prior_statistics():
    space = SearchSpace()
    rng = make_rng("acceptance", "priors")
    n = 100_000

    mutation = np.array([sample_gene("mutation_rate", space, rng) for _ in range(n)])
    assert abs(mutation.mean() - 0.1) < 0.01
    assert ((mutation > 0) & (mutation < 1)).all()

    # the low bias must still leave a usable upper tail
    tail = np.array([sample_gene("mutation_rate", space, rng) for _ in range(1_000_000)])
    assert (tail > 0.5).any()

    cloning = np.array([sample_gene("cloning_rate", space, rng) for _ in range(n)])
    assert abs(cloning.mean() - 0.3) < 0.01
    assert ((cloning > 0) & (cloning < 1)).all()

    populations = np.array([sample_gene("population_size", space, rng) for _ in range(n)])
    counts = np.bincount(populations, minlength=51)[3:51]
    assert stats.chisquare(counts).pvalue > 0.001

    generations = np.array([sample_gene("max_generations", space, rng) for _ in range(n)])
    counts = np.bincount(generations, minlength=501)[1:501]
    assert stats.chisquare(counts).pvalue > 0.001
    _announce("prior means hit 0.1/0.3 within ±0.01 and integer priors look uniform")


DESK_SPACE = SearchSpace(population_size=(3, 20), max_generations=(1, 60))
DESK_CONFIG = EvolutionConfig(space=DESK_SPACE, population_size=10, max_generations=30)


def _check_mechanism_invariants(result, events):
    bests = [row.best_f1 for row in result.history]
    assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:])), "best fitness regressed"
    for event in events:
        if event["type"] == "generation_end":
            assert event["population_len"] == event["live_population_size"]
            expected = min(TOURNAMENT_SIZE, event["population_len"])
            assert event["tournament_size"] == expected
        elif event["type"] == "cull":
            removed_top = max(item["fitness"] for item in event["removed"])
            assert removed_top <= event["survivor_fitness_min"]
        elif event["type"] == "promotion":
            # Every genome is drawn or bred inside the space, so a promoted
            # size needs no clamping before the population is resized to it.
            lo, hi = DESK_SPACE.population_size
            assert lo <= event["population_size"] <= hi
            if event["halted"]:
                assert event["generation"] > event["max_generations"]


def test_mechanism_invariants_over_50_desk_runs():
    started = time.perf_counter()
    fitness = SyntheticFitness()
    halted_runs = 0
    for seed in range(50):
        result, events = run_logged(Mode.ENAS, DESK_CONFIG, fitness, run_seed=seed)
        _check_mechanism_invariants(result, events)
        assert result.generation <= DESK_SPACE.max_generations[1]
        halted_runs += result.halted
    assert halted_runs >= 1  # the budget-halt path must actually be exercised
    for seed in range(10):
        result, events = run_logged(Mode.NAS_PLUS, DESK_CONFIG, fitness, run_seed=seed)
        _check_mechanism_invariants(result, events)
        for row in result.history:
            assert row.mutation_rate == DESK_CONFIG.mutation_rate
            assert row.population_size == DESK_CONFIG.population_size
            assert row.cloning_rate == DESK_CONFIG.cloning_rate
            assert row.max_generations == DESK_CONFIG.max_generations
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"mechanism sweep took {elapsed:.1f}s"
    _announce(
        f"mechanism invariants held over 60 seeded runs, {halted_runs} early halts ({elapsed:.1f}s)"
    )


def _comparable_outputs(out_dir):
    """Every artifact's bytes; events.jsonl parsed, with its wall times dropped."""
    outputs = {
        path.name: path.read_bytes()
        for pattern in ("history_*.csv", "best_genome_*.json", "folds_*.csv", "summary.csv")
        for path in sorted(out_dir.glob(pattern))
    }
    events = [json.loads(line) for line in (out_dir / "events.jsonl").read_text().splitlines()]
    outputs["events.jsonl"] = [
        {key: value for key, value in doc.items() if key != "wall_time"} for doc in events
    ]
    return outputs


def test_parallel_determinism_across_pool_sizes(tmp_path, capfd):
    entries = []
    for i in range(3):
        name = f"cell{i}"
        dataset = make_threshold_dataset(30 + 6 * i, 3, seed=8 + i, name=name)
        write_dataset_csv(dataset, tmp_path / f"{name}.csv")
        entries.append({"name": name, "path": f"{name}.csv"})
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "runs": 1,
                "base_seed": 77,
                "folds": 3,
                "modes": ["nas_plus", "enas"],
                "datasets": entries,
                "search_space": {
                    "population_size": [3, 6],
                    "max_generations": [1, 3],
                    "nodes": [2, 12],
                    "epochs": [1, 8],
                },
                "static_params": {"population_size": 4, "max_generations": 3},
            }
        )
    )
    progress_line = re.compile(r"(\S+ \S+ run \d+: .*) \([\d.]+s\)")
    outputs, progress = {}, {}
    for jobs in (1, 2, 8):
        config = replace(config_from_file(config_path), jobs=jobs, out_dir=tmp_path / f"out{jobs}")
        run_experiment(config)
        outputs[jobs] = _comparable_outputs(config.out_dir)
        printed = capfd.readouterr().out.splitlines()
        progress[jobs] = sorted(
            match.group(1) for match in map(progress_line.fullmatch, printed) if match
        )
    assert len(outputs[1]) == 6 + 6 + 3 + 1 + 1  # histories, genomes, folds, summary, events
    assert outputs[1] == outputs[2] == outputs[8]
    assert len(progress[1]) == 6 and progress[1] == progress[2] == progress[8]

    # Fewer cells than jobs.
    single = {}
    for jobs in (1, 2):
        config = config_from_file(config_path)
        cell1 = [spec for spec in config.datasets if spec.name == "cell1"]
        config = replace(
            config, jobs=jobs, out_dir=tmp_path / f"single{jobs}", datasets=cell1, modes=[Mode.ENAS]
        )
        run_experiment(config)
        single[jobs] = _comparable_outputs(config.out_dir)
    assert len(single[1]) == 5 and single[1] == single[2]
    _announce("pool sizes 1, 2 and 8 produced byte-identical experiment outputs")


def test_adaptive_search_reaches_080_on_sonar(tmp_path):
    if not SONAR_PATH.exists():
        pytest.fail(
            "data/sonar.csv is not present. This environment has no network access "
            "and no local copy of the 208-instance, 60-attribute sonar returns "
            "dataset, so the end-to-end quality check cannot run here. Supply the "
            "standard UCI connectionist-bench file (60 numeric columns plus a final "
            "m/r label) at data/sonar.csv and re-run; the test then executes five "
            "seeded adaptive runs (population bounds [3, 20], generation cap 60, "
            "5-fold CV) and requires best mean F-measure >= 0.80 in at least 4 of 5."
        )
    started = time.perf_counter()
    dataset = normalize_min_max(
        load_csv(SONAR_PATH, label_mapping={"m": 0, "r": 1})
    )
    assert dataset.instance_count == 208 and dataset.features.shape[1] == 60
    space = SearchSpace(population_size=(3, 20), max_generations=(1, 60))
    config = EvolutionConfig(space=space)
    successes = 0
    scores = []
    for run_index in range(5):
        split = fold_split(dataset, 5, derive_seed(2024, "sonar", run_index, "data"))
        run_seed = derive_seed(2024, "sonar", run_index, "enas")
        result = run(Mode.ENAS, config, CrossValFitness(dataset, split), run_seed, discard)
        score = result.best.fitness.mean_f_measure
        scores.append(round(score, 4))
        successes += score >= 0.80
    elapsed = time.perf_counter() - started
    assert successes >= 4, f"only {successes}/5 runs reached 0.80: {scores}"
    _announce(f"sonar best F-measures {scores}, {successes}/5 above 0.80 ({elapsed/60:.1f} min)")


def test_adaptive_mode_trains_fewer_models_in_most_paired_runs():
    space = SearchSpace(population_size=(3, 20), max_generations=(1, 30))
    config = EvolutionConfig(space=space, population_size=10, max_generations=30)
    fitness = SyntheticFitness()
    searches = {mode: [] for mode in (Mode.NAS_PLUS, Mode.ENAS)}
    for pair in range(20):
        for mode, states in searches.items():
            states.append(run(mode, config, fitness, derive_seed("pair", pair), discard))
    static_runs, adaptive_runs = (
        [run_complete(state, "synthetic", pair) for pair, state in enumerate(states)]
        for states in searches.values()
    )
    fewer = sum(
        1 for a, s in zip(adaptive_runs, static_runs) if a.models_trained < s.models_trained
    )
    assert fewer / 20 >= 0.6, f"adaptive mode trained fewer models in only {fewer}/20 pairs"

    overall = summarize_efficiency(static_runs + adaptive_runs)[-1]
    # hand-audit the counters straight from the history files' final rows
    audited_static = [r.history[-1].models_trained_cumulative for r in searches[Mode.NAS_PLUS]]
    audited_adaptive = [r.history[-1].models_trained_cumulative for r in searches[Mode.ENAS]]
    mean_static = sum(audited_static) / len(audited_static)
    mean_adaptive = sum(audited_adaptive) / len(audited_adaptive)
    assert overall.mean_models_static == mean_static
    assert overall.mean_models_adaptive == mean_adaptive
    expected_delta = 100.0 * (mean_adaptive - mean_static) / mean_static
    assert overall.models_delta_pct == pytest.approx(expected_delta, abs=1e-12)
    assert overall.adaptive_fewer_models_fraction == fewer / 20
    _announce(
        f"adaptive mode trained fewer models in {fewer}/20 pairs "
        f"(mean {mean_adaptive:.0f} vs {mean_static:.0f}, delta {expected_delta:.1f}%)"
    )


def test_two_mode_four_dataset_summary_is_fully_auditable(tmp_path):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    entries = []
    for i in range(4):
        name = f"synth{i}"
        dataset = make_threshold_dataset(30 + 4 * i, 2 + i, seed=300 + i, name=name)
        write_dataset_csv(dataset, data_dir / f"{name}.csv")
        entries.append({"name": name, "path": f"data/{name}.csv"})
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "out_dir": "out",
                "runs": 2,
                "base_seed": 31,
                "folds": 3,
                "modes": ["nas_plus", "enas"],
                "datasets": entries,
                "search_space": {
                    "population_size": [3, 6],
                    "max_generations": [1, 4],
                    "nodes": [2, 10],
                    "epochs": [1, 10],
                },
                "static_params": {"population_size": 4, "max_generations": 3},
            }
        )
    )
    config = config_from_file(config_path)
    run_experiment(config)
    rows = read_summary_rows(config.out_dir)
    assert len(rows) == 8  # 4 datasets x 2 modes
    for row in rows:
        assert 0.0 <= row.fittest <= 1.0
        assert row.range >= 0.0
        assert row.fittest - row.range <= row.average <= row.fittest
    audit_output_dir(config.out_dir)  # every summary number recomputable, exactly
    assert (config.out_dir / "efficiency.csv").exists()
    _announce("2-mode x 4-dataset x 2-run summary emitted and audited exactly")

"""Repeat one benchmark workload for a fixed time and report medians.

    python3 perfbench/run.py --workload panel-narrow --seed 1 --seconds 40 --trace 0

Each repetition is a fresh process (rep.py), so set-up is measured every
time. With ``--trace 0`` every repetition is untraced and the last line of
standard output is the end-to-end result. With ``--trace 1`` untraced and
traced repetitions alternate: the traced ones give the per-layer figures,
the untraced ones the base for the tracing overhead and the step rate.
The line before the result records the machine, the sample counts and any
failures.

Exit status is 0 when a result was printed, 2 when the repository's
package is not next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
BENCHMARK = ROOT / "BENCHMARK.json"
WORKLOADS = ("panel-narrow", "panel-wide", "search")

MIN_REPS = 3
# Median time of rep.reference_probe on the machine of record (see
# README.md). A run's host-speed factor is this over the run's own median
# probe time.
REFERENCE_PROBE_S = 1.5e-3
# A run must end within 180 s even when the program has become very slow.
DEADLINE_S = 170.0
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def run_rep(
    workload: str, seed: int, traced: bool, quick: bool, workdir: Path, budget: float
) -> dict:
    """Run one repetition in its own process group; return its record."""
    result = workdir / "result.json"
    command = [
        sys.executable, str(HERE / "rep.py"), "--workload", workload, "--seed", str(seed),
        "--workdir", str(workdir), "--result", str(result),
    ]
    command += ["--trace"] * traced + ["--quick"] * quick
    env = dict(os.environ, **{name: "1" for name in THREAD_VARIABLES})
    launched = time.perf_counter()
    proc = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, start_new_session=True
    )
    try:
        output, _ = proc.communicate(timeout=max(budget, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"traced": traced, "problems": [f"repetition exceeded {budget:.0f} s"]}
    elapsed = time.perf_counter() - launched
    if proc.returncode != 0 or not result.exists():
        tail = output.decode(errors="replace").strip().splitlines()[-3:]
        return {"traced": traced, "problems": [f"repetition exited {proc.returncode}: {tail}"]}
    record = json.loads(result.read_text(encoding="utf-8"))
    # perf_counter reads CLOCK_MONOTONIC, which every process shares.
    record.update(traced=traced, elapsed=elapsed, setup_s=record["ready"] - launched)
    return record


def gate(reps: list[dict]) -> list[str]:
    """Reasons each failed repetition failed; one entry per failure.

    A repetition fails when it exits non-zero, reports a problem (such as a
    failed ``enas audit``) or gives a result digest that differs from the
    one most repetitions of this seed agree on. Timings play no part.
    """
    digests = Counter(rep["digest"] for rep in reps if not rep["problems"])
    agreed = digests.most_common(1)[0][0] if digests else None
    failures = []
    for i, rep in enumerate(reps):
        if rep["problems"]:
            failures.append(f"repetition {i}: {'; '.join(rep['problems'])}")
        elif rep["digest"] != agreed:
            failures.append(f"repetition {i}: digest {rep['digest'][:12]} != {agreed[:12]}")
    return failures


def median(reps: list[dict], key: str) -> float:
    return statistics.median(rep[key] for rep in reps)


def typical_wall(reps: list[dict]) -> float:
    """Wall time of the fixed work: each piece's median over the repetitions, summed.

    Every repetition of a seed does the same work, cut into the same pieces
    (rep.Pieces). The host's speed jumps by a third for seconds at a time;
    a per-piece median drops such a jump unless it hit that piece in most
    repetitions, where a median of whole repetitions moves with every jump
    that overlapped them.
    """
    if len({len(rep["pieces"]) for rep in reps}) != 1:
        return median(reps, "wall_s")
    return sum(statistics.median(piece) for piece in zip(*(rep["pieces"] for rep in reps)))


def host_factor(reps: list[dict]) -> float:
    """How fast the host ran during these repetitions, relative to the machine of record.

    rep.HostProbe times a fixed reference workload after every fitness
    evaluation, in the process that ran it (pool workers included), so the
    samples see the host while and where the work runs. The host's speed
    drifts by tens of percent over minutes; multiplying a time by this
    factor gives that time at the machine of record's speed, which is what
    lets runs minutes apart be compared.
    """
    return REFERENCE_PROBE_S / statistics.median(p for rep in reps for p in rep["probes"])


def end_to_end(reps: list[dict]) -> dict[str, float]:
    factor = host_factor(reps)
    wall = typical_wall(reps) * factor
    return {
        "setup_s": median(reps, "setup_s") * factor,
        "wall_s": wall,
        "models_per_s": median(reps, "models") / wall,
        "peak_rss_mb": median(reps, "peak_rss_mb"),
        "best_f1_mean": median(reps, "best_f1_mean"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    names = set.intersection(*(set(rep["layers"]) for rep in traced))
    metrics = {name: statistics.median(rep["layers"][name] for rep in traced) for name in names}
    wall = typical_wall(plain) * host_factor(plain)
    if "nn.loss_and_gradients.calls" in metrics:
        metrics["nn.grad_steps_per_s"] = metrics["nn.loss_and_gradients.calls"] / wall
    metrics["trace.overhead_s"] = typical_wall(traced) * host_factor(traced) - wall
    metrics["experiment.audit_s"] = median(plain, "audit_s") if "audit_s" in plain[0] else 0.0
    for name in ("cpu_user_s", "cpu_sys_s", "ctx_switches"):
        metrics[f"proc.{name}"] = median(plain, name)
    return metrics


def with_units(values: dict[str, float], declared: list[dict]) -> dict[str, dict]:
    """The declared metrics that were measured, as {name: {"value", "unit"}}."""
    return {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in declared
        if metric["name"] in values
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny workloads, for the self-check")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "enas" / "__init__.py").is_file():
        print(f"error: no enas package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))

    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    started = time.perf_counter()
    reps: list[dict] = []
    try:
        while True:
            elapsed = time.perf_counter() - started
            traced = bool(args.trace) and len(reps) % 2 == 1
            reps.append(
                run_rep(args.workload, args.seed, traced, args.quick,
                        run_dir / f"rep-{len(reps)}", DEADLINE_S - elapsed)
            )
            elapsed = time.perf_counter() - started
            typical = statistics.median(rep.get("elapsed", 0.0) for rep in reps)
            if len(reps) >= MIN_REPS and elapsed + typical > args.seconds:
                break
            if elapsed + 2 * typical > DEADLINE_S or "elapsed" not in reps[-1]:
                break
        failures = gate(reps)
        kept = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
        first_traced = run_dir / "rep-1" / "spans.jsonl"
        if args.trace and first_traced.exists():
            shutil.move(first_traced, kept)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    good = [rep for rep in reps if not rep["problems"]]
    plain = [rep for rep in good if not rep["traced"]]
    traced = [rep for rep in good if rep["traced"]]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = {}
    if plain and (traced or not args.trace):
        values = per_layer(plain, traced) if args.trace else end_to_end(plain)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": {"untraced": len(plain), "traced": len(traced)},
        "host_factor": host_factor(plain) if plain else None,
        "raw_wall_s": typical_wall(plain) if plain else None,
        "raw_setup_s": median(plain, "setup_s") if plain else None,
        "wall_s_samples": [rep["wall_s"] for rep in plain],
        "failed_frac": len(failures) / len(reps),
        "failures": failures,
        "absent": sorted({metric["name"] for metric in declared} - set(values)),
        "env": good[0]["env"] if good else None,
    }
    if args.trace and values:
        # The traced pass also prints the end-to-end figures of its untraced
        # repetitions, so that one command shows every metric.
        plain_metrics = end_to_end(plain)
        info["end_to_end"] = with_units(plain_metrics, spec["end_to_end"])
        info["spans"] = str(kept.relative_to(ROOT))
        info["trace_overhead_frac"] = values["trace.overhead_s"] / plain_metrics["wall_s"]
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": not failures and bool(values),
                "attempted": len(reps),
                "failed": len(failures),
                "metrics": with_units(values, declared),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

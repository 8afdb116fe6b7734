"""Self-check of the benchmark itself; takes under a minute.

    python3 perfbench/selfcheck.py

1. Runs every workload in its --quick form with tracing off and on, and
   checks that the result line names exactly the metrics BENCHMARK.json
   declares for that mode, each with its declared unit and a finite value.
2. Checks that the correctness gate fails a repetition whose digest was
   tampered with, and that a tampered search history fails the audit and
   changes the digest.
3. Checks that a traced function that no longer exists is skipped and its
   metrics are left out, and that the host-speed probe falls back to
   sampling after each piece when its sites are gone.
4. Checks that the benchmark exits non-zero without a result when the
   package is missing.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import rep
import run
import tracer

ROOT, WORK = run.ROOT, run.WORK


class CheckFailed(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_metrics() -> None:
    spec = json.loads(run.BENCHMARK.read_text(encoding="utf-8"))
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            done = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--quick"],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            check(done.returncode == 0, f"{label}: exit {done.returncode}: {done.stderr[-500:]}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0,
                  f"{label}: not correct: {done.stdout[-800:]}")
            declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            emitted = result["metrics"]
            check(set(emitted) == set(declared),
                  f"{label}: missing {sorted(set(declared) - set(emitted))}, "
                  f"extra {sorted(set(emitted) - set(declared))}")
            for name, unit in declared.items():
                value = emitted[name]["value"]
                check(emitted[name]["unit"] == unit,
                      f"{label}: {name} has unit {emitted[name]['unit']}")
                check(isinstance(value, (int, float)) and math.isfinite(value),
                      f"{label}: {name} = {value!r}")
            if trace:
                info = json.loads(done.stdout.strip().splitlines()[-2])
                units = {name: metric["unit"] for name, metric in info["end_to_end"].items()}
                check(units == {m["name"]: m["unit"] for m in spec["end_to_end"]},
                      f"{label}: end-to-end metrics in the info line: {units}")
            print(f"ok   {label}: {len(emitted)} metrics with their units")


def check_gate() -> None:
    workdir = WORK / "selfcheck"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        reps = [
            run.run_rep("panel-narrow", 5, False, True, workdir / f"rep-{i}", 120) for i in range(2)
        ]
        check(run.gate(reps) == [], f"untouched panel repetitions fail: {run.gate(reps)}")
        reps.append(dict(reps[0], digest="0" * 64))
        check(len(run.gate(reps)) == 1, "the gate missed a tampered panel digest")
        print("ok   gate fails a repetition with a tampered digest")

        searched = run.run_rep("search", 5, False, True, workdir / "search", 120)
        check(not searched["problems"], f"quick search failed: {searched['problems']}")
        out = workdir / "search" / "out"
        history = sorted(out.glob("history_*.csv"))[0]
        header, *rows = history.read_text(encoding="utf-8").splitlines()
        column = header.split(",").index("models_trained_cumulative")
        cells = rows[-1].split(",")
        cells[column] = str(int(cells[column]) + 1)
        rows[-1] = ",".join(cells)
        history.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        sys.path.insert(0, str(ROOT / "src"))
        tampered = rep.search_outcome(out, cells=len(list(out.glob("best_genome_*.json"))))
        check(tampered["digest"] != searched["digest"], "a tampered history kept the digest")
        check(any("audit" in p for p in tampered["problems"]), "a tampered history passed audit")
        print("ok   tampered search history fails enas audit and changes the digest")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_missing_target() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    check(tracer.resolve("enas.evolution:EvaluatorPool.evaluate") is not None, "pool not found")
    check(tracer.resolve("enas.evolution:NoSuchPool.evaluate") is None, "a missing class resolved")
    check(tracer.resolve("enas.no_such_module:write_csv") is None, "a missing module resolved")
    # A pool-evaluate span recorded while the target existed, then the
    # target reported as gone: its metrics must be left out, not crash.
    spans = [(1, 0, None, "evolution.pool.evaluate", 0.0, 1.0, [3, 1.5, 2])]
    full = tracer.layer_metrics(spans, {"evolution.pool.evaluate"})
    check(full.get("evolution.pool.worker_busy_frac") == 0.75, f"busy fraction: {full}")
    gone = tracer.layer_metrics(spans, set())
    check(not any(name.startswith("evolution.pool") for name in gone),
          f"absent target measured: {gone}")
    print("ok   a missing target is skipped and its metrics are left out")

    # With no probe site left, the host is sampled after each piece instead.
    sites, rep.PROBE_SITES = rep.PROBE_SITES, ["enas.fitness:NoSuchFitness.__call__"]
    try:
        probe = rep.HostProbe(WORK / "no-such-dir")
    finally:
        rep.PROBE_SITES = sites
    pieces = rep.Pieces(probe)
    pieces.begin()
    pieces.cut()
    check(not probe.installed and len(probe.collect()) == 1, "no fallback host sample")
    print("ok   without a probe site the host is sampled after each piece")


def check_bare_directory() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(
            run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__")
        )
        shutil.copy(run.BENCHMARK, bare / run.BENCHMARK.name)
        done = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "search", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        check(done.returncode != 0 and not done.stdout.strip(),
              f"without the package: exit {done.returncode}, output {done.stdout[-300:]!r}")
        print("ok   no package: exit", done.returncode, "and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    try:
        check_metrics()
        check_gate()
        check_missing_target()
        check_bare_directory()
    except CheckFailed as exc:
        print(f"FAIL {exc}")
        return 1
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke check of the benchmark's output, traced and untraced.

Runs ``perfbench/run.py --workload W --seed 0 --seconds 1 --trace T``
for every workload in BENCHMARK.json and T in {0, 1}; one unit each.
Fails unless, for every run, the last line of standard output parses
as JSON with ``"correct": true`` and ``"failed": 0``, an untraced run
reports every end-to-end metric of BENCHMARK.json, and standard error
has no ``not traced, absent`` line (a traced entry point the program no
longer offers). For every traced run it prints one line with the
solver's counts (COUNTS below), and fails when it assembled more drag
Jacobians (``forms.drag_mass_calls``) than it made factorizations
(``solver.factorizations``): the chord iteration assembles a Jacobian
only to factor it.
After the runs it reads ``perfbench/out/<workload>-trace{0,1}.json``
and fails unless every unit of a workload's traced and untraced runs
has the same ``output_sha256``, so that tracing does not change
results; it prints that digest.

Usage (from the repository root): python3 .github/scripts/bench_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
OUT = ROOT / "perfbench" / "out"
# Per-layer counts printed for every traced run.
COUNTS = (
    "solver.sweeps",
    "solver.max_sweeps_per_step",
    "solver.worst_residual",
    "solver.factorizations",
    "solver.trisolves",
    "forms.drag_mass_calls",
    "solver.lu_nnz",
)


def check(workload: str, trace: int, end_to_end: list) -> list:
    cmd = [
        sys.executable,
        "perfbench/run.py",
        "--workload",
        workload,
        "--seed",
        "0",
        "--seconds",
        "1",
        "--trace",
        str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    where = f"{workload} --trace {trace}"
    problems = []
    if proc.returncode != 0:
        problems.append(f"{where}: exited {proc.returncode}")
    if "not traced, absent" in proc.stderr:
        problems.append(f"{where}: entry points not traced")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return problems + [f"{where}: last stdout line is not JSON"]
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(
            f"{where}: correct = {result.get('correct')}, failed = {result.get('failed')}"
        )
    metrics = result.get("metrics", {})
    if trace == 0:
        absent = [name for name in end_to_end if name not in metrics]
        if absent:
            problems.append(f"{where}: end-to-end metrics absent: {', '.join(absent)}")
    else:
        counts = {name: metrics.get(name, {}).get("value") for name in COUNTS}
        shown = (f"{name} {'absent' if v is None else v}" for name, v in counts.items())
        print(f"{workload}: " + ", ".join(shown))
        jacobians = counts["forms.drag_mass_calls"]
        factors = counts["solver.factorizations"]
        if jacobians is None or factors is None or jacobians > factors:
            problems.append(f"{where}: {jacobians} drag Jacobians for {factors} factorizations")
    return problems


def same_output(workload: str) -> list:
    digests = set()
    for trace in (0, 1):
        path = OUT / f"{workload}-trace{trace}.json"
        try:
            units = json.loads(path.read_text())["units"]
        except (OSError, ValueError, KeyError) as exc:
            return [f"{workload}: cannot read {path.name}: {exc}"]
        digests.update(u.get("output_sha256") for u in units)
    if len(digests) != 1 or None in digests:
        return [f"{workload}: traced and untraced output digests differ: {digests}"]
    print(f"{workload}: output_sha256 {digests.pop()}")
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            problems += check(workload, trace, end_to_end)
        problems += same_output(workload)
    for problem in problems:
        print(problem, file=sys.stderr)
    print("benchmark smoke: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

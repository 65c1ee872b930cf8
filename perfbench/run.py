"""sdgflow benchmark: runs one workload for a fixed time and reports medians.

Usage (from the repository root):

    python3 perfbench/run.py --workload table_be --seed 1 --seconds 60 --trace 0

One caller, closed loop: units run one after another, each in a fresh
interpreter (see worker.py), for ``--seconds``; the next unit starts only
after the previous one has ended and been checked.
Every unit builds its meshes and operators from scratch, solves, and
checks its outputs; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` traces every
unit and reports the per-layer metrics, among them the tracing overhead:
the spans a unit recorded times the calibrated cost of one span, over
the unit's wall time.

The environment (versions, nproc, thread caps, source digest, seed),
per-unit results and the spans of traced units are written to
``perfbench/out/<workload>-trace<0|1>.json``.

Steadiness: on a shared 2-vCPU Xeon VM, the timing medians of 60 s runs
spread by 19-24% (interquartile range over median, ten seeds), because
the machine's speed drifts: a fixed loop runs either at full speed or
about 1.8x slower, in phases of milliseconds to a second, and the share
of slow phases changes over minutes, so identical units differ by 15-20%
and run medians follow the drift. Peak memory, errors, success_frac and
the per-layer counts are steady, and the counts repeat exactly for a
seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "sdgflow"
WORKER = HERE / "worker.py"
OUT = HERE / "out"

# The names of workloads.WORKLOADS, listed here so that this parent
# process never imports numpy.
WORKLOADS = ("table_be", "drag_sweep")
EXIT_NO_PROGRAM = 3
# Every run must end within this many seconds, whatever --seconds says.
HARD_LIMIT_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "peak_rss_mb": "MB",
    "err_u": "l2",
    "err_L": "l2",
    "err_p": "l2",
    "success_frac": "ratio",
}
PER_LAYER = {
    "mesh.build_s": "s",
    "spaces.build_s": "s",
    "spaces.tables_s": "s",
    "spaces.table_builds": "count",
    "spaces.interpolate_s": "s",
    "forms.mass_s": "s",
    "forms.velocity_gradient_s": "s",
    "forms.velocity_gradient_adjoint_s": "s",
    "forms.divergence_s": "s",
    "forms.divergence_adjoint_s": "s",
    "forms.trace_jump_s": "s",
    "forms.trace_jump_adjoint_s": "s",
    "forms.pressure_integral_s": "s",
    "forms.load_s": "s",
    "forms.load_calls": "count",
    "forms.load_ms_p50": "ms",
    "forms.drag_mass_s": "s",
    "forms.drag_mass_calls": "count",
    "forms.drag_mass_ms_p50": "ms",
    "solver.factor_s": "s",
    "solver.factorizations": "count",
    "solver.factor_ms_p50": "ms",
    "solver.lu_nnz": "count",
    "solver.trisolve_s": "s",
    "solver.trisolves": "count",
    "solver.trisolve_ms_p50": "ms",
    "solver.trisolve_ms_p99": "ms",
    "solver.sweeps": "count",
    "solver.max_sweeps_per_step": "count",
    "solver.sweeps_per_trisolve": "ratio",
    "solver.sweeps_per_factorization": "ratio",
    "solver.self_s": "s",
    "solver.worst_residual": "ratio",
    "verify.errors_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}
# Pooled per-call percentiles: metric -> (span name, percentile).
PERCENTILES = {
    "forms.load_ms_p50": ("forms.load", 50),
    "forms.drag_mass_ms_p50": ("forms.drag_mass", 50),
    "solver.factor_ms_p50": ("solver.factor", 50),
    "solver.trisolve_ms_p50": ("solver.trisolve", 50),
    "solver.trisolve_ms_p99": ("solver.trisolve", 99),
}
UNITS = {**END_TO_END, **PER_LAYER}


def source_digest() -> str:
    """SHA-256 over the package sources, standing in for a commit id
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit_id() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_unit(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    """One worker process; a crash, a timeout or unreadable output is a
    failed unit."""
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--trace",
        "1" if traced else "0",
    ]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "problems": [f"unit exceeded {timeout:.0f} s"]}
    if proc.returncode == EXIT_NO_PROGRAM:
        sys.stderr.write(proc.stderr)
        raise SystemExit(EXIT_NO_PROGRAM)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        problem = f"worker exited {proc.returncode} without a result"
        return {"ok": False, "problems": [problem]}
    if proc.returncode != 0:
        result["ok"] = False
        result.setdefault("problems", []).append(f"worker exited {proc.returncode}")
    return result


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def check_repeats(units: list) -> None:
    """Outputs of one seed must repeat byte for byte across units; a unit
    that disagrees with the first passing one is failed."""
    digests = [u["output_sha256"] for u in units if u.get("ok")]
    if not digests:
        return
    first = digests[0]
    for u in units:
        if u.get("ok") and u["output_sha256"] != first:
            u["ok"] = False
            u.setdefault("problems", []).append("output differs from the first unit")


def end_to_end(units: list) -> dict:
    good = [u for u in units if u.get("ok")]
    metrics = {}
    if good:
        for name in END_TO_END:
            if name != "success_frac":
                metrics[name] = statistics.median(u[name] for u in good)
    metrics["success_frac"] = len(good) / len(units)
    return metrics


def per_layer(units: list) -> dict:
    traced = [u for u in units if u.get("ok")]
    metrics = {}
    if not traced:
        return metrics
    # median_low keeps counts whole: it always picks an observed value.
    for name in PER_LAYER:
        values = [u["layers"][name] for u in traced if name in u["layers"]]
        if values:
            metrics[name] = statistics.median_low(values)
    for metric, (span, q) in PERCENTILES.items():
        if any(span in u["per_call_ms"] for u in traced):
            pooled = [ms for u in traced for ms in u["per_call_ms"].get(span, [])]
            metrics[metric] = percentile(pooled, q) if pooled else 0.0
    return {name: metrics[name] for name in PER_LAYER if name in metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sdgflow benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "__init__.py").is_file():
        print(f"sdgflow sources not found under {SRC}", file=sys.stderr)
        return EXIT_NO_PROGRAM

    # A unit starts only if a typical unit still fits in --seconds, so a
    # run ends close to --seconds rather than up to one unit past it.
    start = time.monotonic()
    units: list[dict] = []
    took: list[float] = []
    while True:
        elapsed = time.monotonic() - start
        typical = statistics.median(took) if took else 0.0
        if units and elapsed + typical > args.seconds:
            break
        if elapsed + max(took, default=0.0) > HARD_LIMIT_S:
            break
        began = time.monotonic()
        units.append(
            run_unit(args.workload, args.seed, bool(args.trace), HARD_LIMIT_S - elapsed)
        )
        took.append(time.monotonic() - began)
    for i, u in enumerate(units):
        for problem in u.get("problems", []):
            print(f"unit {i}: {problem}", file=sys.stderr)
    missing = sorted({name for u in units for name in u.get("missing", [])})
    if missing:
        print(f"not traced, absent from sdgflow: {', '.join(missing)}", file=sys.stderr)

    check_repeats(units)
    attempted = len(units)
    failed = sum(1 for u in units if not u.get("ok"))
    metrics = per_layer(units) if args.trace else end_to_end(units)

    env = next((u["env"] for u in units if "env" in u), {})
    env.update(
        commit=commit_id(),
        source_sha256=source_digest(),
        seed=args.seed,
        workload=args.workload,
        seconds=args.seconds,
        trace=args.trace,
        units=attempted,
    )
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "metrics": metrics, "units": units})
    )

    print(json.dumps({"env": env}))
    for name, value in metrics.items():
        print(f"{args.workload:>10}  {name:<34} {value:>16.6g} {UNITS[name]}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

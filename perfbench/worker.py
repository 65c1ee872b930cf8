"""One benchmark unit: set up, solve and check one workload in this fresh
interpreter, then print one JSON line with its measurements.

Usage: python3 perfbench/worker.py --workload NAME --seed N --trace 0|1

A fresh interpreter per unit matters: sdgflow caches quadrature tables
in module globals keyed by ``id(mesh)`` and pins every mesh it has seen,
so a reused process would skew both set-up time and peak memory.

Exit codes: 0 when the unit ran (its JSON says whether it passed), 3
when the sdgflow sources are not present next to the benchmark.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools read these when numpy loads, so they are set first.
# One thread: SuperLU is serial, and a single thread keeps timings steady
# on a shared machine.
THREAD_CAP = "1"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = THREAD_CAP

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracer import Tracer, self_times, span_cost  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

EXIT_NO_PROGRAM = 3

# Per-layer metric -> span name whose durations it sums.
SUMMED = {
    "mesh.build_s": "mesh.build",
    "spaces.build_s": "spaces.build",
    "spaces.tables_s": "spaces.tables",
    "spaces.interpolate_s": "spaces.interpolate",
    "forms.mass_s": "forms.mass",
    "forms.velocity_gradient_s": "forms.velocity_gradient",
    "forms.velocity_gradient_adjoint_s": "forms.velocity_gradient_adjoint",
    "forms.divergence_s": "forms.divergence",
    "forms.divergence_adjoint_s": "forms.divergence_adjoint",
    "forms.trace_jump_s": "forms.trace_jump",
    "forms.trace_jump_adjoint_s": "forms.trace_jump_adjoint",
    "forms.pressure_integral_s": "forms.pressure_integral",
    "forms.load_s": "forms.load",
    "forms.drag_mass_s": "forms.drag_mass",
    "solver.factor_s": "solver.factor",
    "solver.trisolve_s": "solver.trisolve",
    "verify.errors_s": "verify.errors",
}
# Per-layer metric -> span name whose calls it counts.
COUNTED = {
    "forms.load_calls": "forms.load",
    "forms.drag_mass_calls": "forms.drag_mass",
    "solver.factorizations": "solver.factor",
    "solver.trisolves": "solver.trisolve",
}
# Spans that make up set-up: mesh plus operators.
SETUP_SPANS = ("mesh.build", "solver.build_operators")
# Spans whose per-call durations feed pooled percentiles.
PER_CALL = ("forms.load", "forms.drag_mass", "solver.factor", "solver.trisolve")

# Operators that build_operators looks up in sdgflow.solver.
OPERATORS = {
    "assemble_mass": "forms.mass",
    "assemble_velocity_gradient": "forms.velocity_gradient",
    "assemble_velocity_gradient_adjoint": "forms.velocity_gradient_adjoint",
    "assemble_divergence": "forms.divergence",
    "assemble_divergence_adjoint": "forms.divergence_adjoint",
    "assemble_trace_jump": "forms.trace_jump",
    "assemble_trace_jump_adjoint": "forms.trace_jump_adjoint",
    "pressure_integral": "forms.pressure_integral",
}


def import_sdgflow():
    """Import sdgflow from the sources beside the benchmark, never from an
    installed copy; exits with EXIT_NO_PROGRAM when they are absent."""
    if not (SRC / "sdgflow" / "__init__.py").is_file():
        print(f"sdgflow sources not found under {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    sys.path.insert(0, str(SRC))
    import sdgflow
    import sdgflow.cli

    if Path(sdgflow.__file__).resolve().parent != SRC / "sdgflow":
        print(f"imported sdgflow from {sdgflow.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    return sdgflow


class _TracedFactor:
    """SuperLU factor whose triangular solves are traced."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


def install(tracer: Tracer, sdg, traced: bool) -> None:
    """Wrap the layer entry points where their callers look them up.

    Untraced units wrap only the coarse calls the end-to-end metrics
    need (mesh, operator set-up, time stepping); traced units wrap every
    layer boundary.
    """
    solver, spaces, forms, verify, cli = (
        sdg.solver,
        sdg.spaces,
        sdg.forms,
        sdg.verify,
        sdg.cli,
    )

    def after_run(res, _args):
        sweeps = [r.picard_iterations for r in res.reports]
        tracer.count("solver.sweeps", sum(sweeps))
        tracer.gauge_max("solver.max_sweeps_per_step", max(sweeps, default=0))
        tracer.gauge_max(
            "solver.worst_residual", max((r.residual for r in res.reports), default=0.0)
        )

    tracer.patch(cli, "build_rectangle_mesh", "mesh.build")
    tracer.patch(cli, "build_staggered", "mesh.build")
    tracer.patch(cli, "build_operators", "solver.build_operators")
    tracer.patch(verify, "run_transient", "solver.run_transient", after=after_run)
    if not traced:
        return

    tracer.patch(cli, "run_manufactured", "verify.run_manufactured")
    tracer.patch(verify, "error_l2", "verify.errors")
    tracer.patch(solver, "build_space", "spaces.build")
    tracer.patch(solver, "interpolate", "spaces.interpolate")
    for attr, name in OPERATORS.items():
        tracer.patch(solver, attr, name)
    tracer.patch(solver, "assemble_load", "forms.load")

    # A table call is a build the first time its (mesh, degree,
    # exactness, kind) is seen; the meshes are held so ids stay unique.
    seen = {}

    def table_after(kind):
        def after(_tables, args):
            if len(args) < 3:
                return
            mesh, k, exactness = args[:3]
            key = (kind, id(mesh), k, exactness)
            if key not in seen:
                seen[key] = mesh
                tracer.count("spaces.table_builds")

        return after

    for module in (spaces, forms, verify):
        for attr in ("tri_tables", "edge_tables"):
            tracer.patch(module, attr, "spaces.tables", after=table_after(attr))

    def drag_factory(cls):
        def make(space):
            return tracer.wrap(cls(space).__call__, "forms.drag_mass")

        return make

    tracer.patch(solver, "DragMassAssembler", "forms.drag_mass", factory=drag_factory)

    def after_factor(lu, _args):
        tracer.gauge_max("solver.lu_nnz", lu.nnz)
        return _TracedFactor(lu, tracer.wrap(lu.solve, "solver.trisolve"))

    tracer.patch(solver, "splu", "solver.factor", after=after_factor)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values of one traced unit; a metric whose span or count
    the code under test no longer offers is left out."""
    spans = tracer.spans
    by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    for name, start, end, _ in spans:
        by_name[name] = by_name.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
    installed = tracer.installed
    out = {}
    for metric, name in SUMMED.items():
        if name in installed:
            out[metric] = by_name.get(name, 0.0)
    for metric, name in COUNTED.items():
        if name in installed:
            out[metric] = calls.get(name, 0)
    if "spaces.tables" in installed:
        out["spaces.table_builds"] = tracer.counters.get("spaces.table_builds", 0)
    own = self_times(spans)
    if "solver.run_transient" in calls:
        out["solver.self_s"] = sum(
            o for s, o in zip(spans, own) if s[0] == "solver.run_transient"
        )
        out["solver.sweeps"] = tracer.counters.get("solver.sweeps", 0)
        out["solver.max_sweeps_per_step"] = tracer.gauges.get(
            "solver.max_sweeps_per_step", 0
        )
        out["solver.worst_residual"] = tracer.gauges.get("solver.worst_residual", 0.0)
    if "solver.lu_nnz" in tracer.gauges:
        out["solver.lu_nnz"] = tracer.gauges["solver.lu_nnz"]
    if "solver.sweeps" in out and out.get("solver.trisolves"):
        out["solver.sweeps_per_trisolve"] = (
            out["solver.sweeps"] / out["solver.trisolves"]
        )
    if "solver.sweeps" in out and out.get("solver.factorizations"):
        out["solver.sweeps_per_factorization"] = (
            out["solver.sweeps"] / out["solver.factorizations"]
        )
    out["cli.self_s"] = sum(o for s, o in zip(spans, own) if s[0].startswith("cli."))
    return out


def environment(sdg) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sdgflow": getattr(sdg, "__version__", "unknown"),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sdg = import_sdgflow()
    tracer = Tracer()
    install(tracer, sdg, bool(args.trace))
    result = {"env": environment(sdg), "missing": tracer.missing}

    start = time.perf_counter()
    try:
        outcome = WORKLOADS[args.workload](sdg, tracer, args.seed)
        problems = outcome.problems
    except Exception as exc:  # a unit that raises is a failed unit
        traceback.print_exc()
        outcome = None
        problems = [f"{type(exc).__name__}: {exc}"]
    wall = time.perf_counter() - start
    tracer.restore()

    spans = tracer.spans
    result.update(
        ok=not problems,
        problems=problems,
        wall_s=wall,
        setup_s=sum(e - s for n, s, e, _ in spans if n in SETUP_SPANS),
        solve_s=sum(e - s for n, s, e, _ in spans if n == "solver.run_transient"),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if outcome is not None:
        result.update(
            err_u=outcome.err_u,
            err_L=outcome.err_L,
            err_p=outcome.err_p,
            output_sha256=hashlib.sha256(outcome.output.encode()).hexdigest(),
        )
    if args.trace:
        result["layers"] = layer_metrics(tracer)
        result["layers"]["trace.overhead_frac"] = len(spans) * span_cost() / wall
        result["per_call_ms"] = {
            name: [1e3 * (e - s) for n, s, e, _ in spans if n == name]
            for name in PER_CALL
            if name in tracer.installed
        }
        result["spans"] = spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The two benchmark workloads, their inputs and their output checks.

Every workload drives sdgflow through its public API and returns the
errors it reports plus a list of failed checks. The workloads are sized
so that one unit (one fresh interpreter, set-up plus solve plus checks)
takes a few seconds on a 2-core machine; a run repeats units until its
time is up and reports medians.

- ``table_be``: the first-order convergence table through the CLI layer
  (``parse_config``/``run_config``/``csv_lines``) on uniform squares,
  1/h in {2, 4, 8}, N = h^-2, eps = alpha = beta = 1. About two drag
  sweeps per step; time goes to repeated solves with a reused factor,
  the 121-point load, per-sweep matrix rebuilds and operator assembly.
- ``drag_sweep``: Forchheimer-dominated, beta = 1e4, backward Euler with
  dt = 1/640 (T = 0.05, N = 32) on a seeded jittered 4x4 mesh, eps in
  {1, 0} on one set of operators the way the CLI sweep mode reuses them.
  The drag iteration dominates (about ten sweeps per step), and the
  eps = 0 cell is the only one that reaches the Darcy-limit system (no
  scaled gradient, no trace unknowns). The step stays at 1/640 because
  at 4x4 with dt = 1/160 the seed code's drag iteration stalls.

An assembly- and factorization-bound workload (BDF2 without drag on a
jittered 16x16 mesh) is left out: its units take about ten seconds, and
with three workloads the runs are too short for steady medians on a
shared 2-core machine. ``table_be`` still times assembly and
factorization, and ``drag_sweep`` spends little of its time there.

Jittered rather than uniform meshes: moving interior vertices raises LU
fill by about 1.5x over congruent squares at 1/h = 16, and a shortcut
that only works when all triangles are congruent would be rewarded on
squares.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Acceptance criterion 1: frozen (err_u, err_L, err_p) of the first-order
# table at eps = alpha = beta = 1, keyed by (1/h, N). Errors must agree
# within a factor 1.5 and the finest observed orders within 0.2 of the
# orders these references imply.
REFERENCE_FIRST_ORDER = {
    (2, 4): (2.45e-2, 1.35e-1, 6.63e-2),
    (4, 16): (6.13e-3, 5.65e-2, 2.37e-2),
    (8, 64): (1.54e-3, 1.51e-2, 5.83e-3),
    (16, 256): (3.85e-4, 3.90e-3, 1.35e-3),
}
TABLE_FACTOR = 1.5
TABLE_ORDER_TOL = 0.2
TABLE_BE_MESHES = (2, 4, 8)
TABLE_BE_CONFIG = f"""\
mode = convergence
mesh = [{", ".join(str(n) for n in TABLE_BE_MESHES)}]
scheme = backward-euler
epsilon = 1.0
alpha = 1.0
beta = 1.0
final_time = 0.1
quiet = true
"""

# Acceptance criterion 2's robustness rule: the velocity errors of the
# eps cells lie within 15% of each other.
DRAG_SPREAD = 1.15
DRAG_N = 4
DRAG_STEPS = 32
DRAG_FINAL_TIME = 0.05
DRAG_BETA = 1e4
DRAG_EPSILONS = (1.0, 0.0)

JITTER = 0.15

# Errors the seed code (sdgflow 0.1.0) reports on the jittered workload
# for seeds 0-31, keyed by workload and seed. A tabled seed must
# reproduce them to FROZEN_RTOL. Any other seed must land within a factor
# FROZEN_FACTOR of the tabled range, which covers the spread the jitter
# causes (err_p varies by about 10% either way on the 4x4 mesh).
FROZEN = json.loads(Path(__file__).with_name("frozen_errors.json").read_text())
FROZEN_RTOL = 1e-6
FROZEN_FACTOR = 1.25


def jittered_square(n: int, seed: int, amp: float = JITTER):
    """Vertices and quads of an n-by-n grid on the unit square whose
    interior vertices move by up to ``amp * h`` in each coordinate.

    Vertex numbering is row by row from the lower-left corner and each
    quad is listed counterclockwise.
    """
    rng = np.random.default_rng(seed)
    xs = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="xy")
    verts = np.column_stack([xx.ravel(), yy.ravel()])
    ii, jj = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="xy")
    interior = ((ii > 0) & (ii < n) & (jj > 0) & (jj < n)).ravel()
    h = 1.0 / n
    verts[interior] += rng.uniform(-amp * h, amp * h, size=(int(interior.sum()), 2))

    def vid(i, j):
        return j * (n + 1) + i

    quads = [
        [vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)]
        for j in range(n)
        for i in range(n)
    ]
    return verts, quads


@dataclass
class Outcome:
    """What a workload produced: reported errors, the text whose bytes
    must repeat across units of one seed, and failed checks."""

    err_u: float = math.nan
    err_L: float = math.nan
    err_p: float = math.nan
    output: str = ""
    problems: list = field(default_factory=list)


def _within(got: float, want: float, factor: float) -> bool:
    return want / factor <= got <= want * factor


def _finite(out: Outcome) -> None:
    for name in ("err_u", "err_L", "err_p"):
        value = getattr(out, name)
        if not math.isfinite(value):
            out.problems.append(f"{name} is {value}")


def _check_frozen(out: Outcome, workload: str, seed: int) -> None:
    table = FROZEN[workload]
    names = ("err_u", "err_L", "err_p")
    want = table.get(str(seed))
    for i, name in enumerate(names):
        value = getattr(out, name)
        if want is not None:
            ok = abs(value - want[i]) <= FROZEN_RTOL * abs(want[i])
            expected = f"{want[i]:.6e} (relative tolerance {FROZEN_RTOL:g})"
        else:
            lo = min(v[i] for v in table.values()) / FROZEN_FACTOR
            hi = max(v[i] for v in table.values()) * FROZEN_FACTOR
            ok = lo <= value <= hi
            expected = f"in [{lo:.6e}, {hi:.6e}]"
        if not ok:
            out.problems.append(f"{name} = {value:.6e}, expected {expected}")


def _build_jittered(sdg, tracer, n: int, seed: int):
    verts, quads = jittered_square(n, seed)
    with tracer.span("mesh.build"):
        mesh = sdg.build_staggered(sdg.PrimalMesh(verts, quads))
    with tracer.span("solver.build_operators"):
        ops = sdg.build_operators(mesh, 1)
    return ops


def table_be(sdg, tracer, seed: int) -> Outcome:
    """Convergence table through the CLI layer; the seed is unused
    because the meshes are uniform squares."""
    cli = sdg.cli
    with tracer.span("cli.parse_config"):
        cfg = cli.parse_config(TABLE_BE_CONFIG)
    with tracer.span("cli.run_config"):
        rows, _ = cli.run_config(cfg)
    with tracer.span("cli.csv_lines"):
        csv = "\n".join(cli.csv_lines(rows)) + "\n"
    out = Outcome(output=csv)
    expect = [(n, n * n) for n in TABLE_BE_MESHES]
    got = [(r.inv_h, r.n_steps) for r in rows]
    if got != expect:
        out.problems.append(f"table rows {got}, expected {expect}")
        return out
    for r in rows:
        ref = REFERENCE_FIRST_ORDER[(r.inv_h, r.n_steps)]
        for name, want in zip(("err_u", "err_L", "err_p"), ref):
            value = getattr(r, name)
            if not _within(value, want, TABLE_FACTOR):
                out.problems.append(
                    f"1/h = {r.inv_h}: {name} = {value:.3e}, reference {want:.3e}"
                )
    coarse = REFERENCE_FIRST_ORDER[expect[-2]]
    fine = REFERENCE_FIRST_ORDER[expect[-1]]
    for i, name in enumerate(("ord_u", "ord_L", "ord_p")):
        want = math.log2(coarse[i] / fine[i])
        value = getattr(rows[-1], name)
        if value is None or abs(value - want) > TABLE_ORDER_TOL:
            out.problems.append(f"finest {name} = {value}, reference {want:.2f}")
    finest = rows[-1]
    out.err_u, out.err_L, out.err_p = finest.err_u, finest.err_L, finest.err_p
    _finite(out)
    return out


def drag_sweep(sdg, tracer, seed: int) -> Outcome:
    """Forchheimer-dominated eps sweep on one set of jittered operators;
    reports the worst cell."""
    ops = _build_jittered(sdg, tracer, DRAG_N, seed)
    cells = {}
    for eps in DRAG_EPSILONS:
        params = sdg.ModelParams(epsilon=eps, alpha=1.0, beta=DRAG_BETA)
        with tracer.span("verify.run_manufactured"):
            row, _ = sdg.run_manufactured(
                DRAG_N,
                DRAG_STEPS,
                params,
                sdg.BACKWARD_EULER,
                1,
                DRAG_FINAL_TIME,
                ops=ops,
            )
        cells[eps] = row
    out = Outcome(
        err_u=max(r.err_u for r in cells.values()),
        err_L=max(r.err_L for r in cells.values()),
        err_p=max(r.err_p for r in cells.values()),
        output=repr([(e, r.err_u, r.err_L, r.err_p) for e, r in cells.items()]),
    )
    _finite(out)
    _check_frozen(out, "drag_sweep", seed)
    eu = [r.err_u for r in cells.values()]
    if not max(eu) <= DRAG_SPREAD * min(eu):
        out.problems.append(f"err_u over eps = {eu} spreads more than 15%")
    if cells[0.0].err_L != 0.0:
        out.problems.append(f"Darcy-limit err_L = {cells[0.0].err_L}, expected 0")
    return out


WORKLOADS = {
    "table_be": table_be,
    "drag_sweep": drag_sweep,
}

"""Manufactured-solution verification and diagnostic norms.

The exact solution is a divergence-free no-slip velocity with a
sinusoidal time factor and a mean-zero pressure on the unit square. The
forcing is hand-coded from its analytic derivatives as a sum of spatial
fields times time factors (see ManufacturedProblem.forcing_terms), so a
run assembles the load of each field once; the test suite cross-checks
every derivative against finite differences. ZeroProblem is the same
harness with no source, whose exact fields are all zero.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .mesh import build_rectangle_mesh, build_staggered
from .solver import (
    BACKWARD_EULER,
    BDF2,
    ModelParams,
    TransientResult,
    build_operators,
    run_transient,
)
from .spaces import (
    PRESSURE,
    FieldCoefficients,
    edge_tables,
    enhanced_degree,
    tri_tables,
)

TWO_PI = 2.0 * np.pi
# Mean of sin(x)cos(y) over the unit square, subtracted so the exact
# pressure integrates to zero.
_P_SHIFT = np.sin(1.0) * (np.cos(1.0) - 1.0)


def _g(x):
    return x * x * (1.0 - x) ** 2


def _gp(x):
    return 2.0 * x * (1.0 - x) * (1.0 - 2.0 * x)


def _gpp(x):
    return 2.0 - 12.0 * x + 12.0 * x * x


def _gppp(x):
    return 24.0 * x - 12.0


def _u0(pts):
    """Spatial factor of the velocity."""
    pts = np.asarray(pts, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    return np.column_stack(
        [np.pi * _g(x) * np.sin(TWO_PI * y), -_gp(x) * np.sin(np.pi * y) ** 2]
    )


def _lap_u0(pts):
    pts = np.asarray(pts, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    wy = np.sin(np.pi * y) ** 2
    return np.column_stack(
        [
            np.pi * np.sin(TWO_PI * y) * (_gpp(x) - 4.0 * np.pi**2 * _g(x)),
            -(_gppp(x) * wy + 2.0 * np.pi**2 * _gp(x) * np.cos(TWO_PI * y)),
        ]
    )


def _grad_p0(pts):
    pts = np.asarray(pts, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    return np.column_stack([np.cos(x) * np.cos(y), -np.sin(x) * np.sin(y)])


@dataclass(frozen=True)
class ManufacturedProblem:
    """Closed-form fields and the forcing they induce.

    The velocity starts from rest (a sin(2 pi t) factor), vanishes on the
    whole boundary and is exactly divergence free, so it exercises every
    term of the scheme without boundary-data plumbing.
    """

    params: ModelParams
    final_time: float = 0.1

    def velocity(self, pts, t):
        return _u0(pts) * np.sin(TWO_PI * t)

    def pressure(self, pts, t):
        pts = np.asarray(pts, dtype=float)
        x, y = pts[:, 0], pts[:, 1]
        return (np.sin(x) * np.cos(y) + _P_SHIFT) * np.cos(TWO_PI * t)

    def velocity_gradient(self, pts, t):
        """(n, 2, 2) array with entry [i, j] = d u_i / d x_j."""
        pts = np.asarray(pts, dtype=float)
        x, y = pts[:, 0], pts[:, 1]
        s = np.sin(TWO_PI * t)
        out = np.empty((len(pts), 2, 2))
        out[:, 0, 0] = np.pi * _gp(x) * np.sin(TWO_PI * y) * s
        out[:, 0, 1] = 2.0 * np.pi**2 * _g(x) * np.cos(TWO_PI * y) * s
        out[:, 1, 0] = -_gpp(x) * np.sin(np.pi * y) ** 2 * s
        out[:, 1, 1] = -np.pi * _gp(x) * np.sin(TWO_PI * y) * s
        return out

    def scaled_gradient(self, pts, t):
        return np.sqrt(self.params.epsilon) * self.velocity_gradient(pts, t)

    def forcing_terms(self):
        """The forcing as ``[(a, g), ...]`` with ``f(x, t) = sum a(t) g(x)``.

        With ``u = s u0`` and ``p = c p0``, ``s = sin(2 pi t)`` and ``c =
        cos(2 pi t)``, the momentum equation has three terms: ``c (2 pi
        u0 + grad p0)``, ``s (alpha u0 - eps lap u0)`` and the drag ``s|s|
        beta |u0| u0``, since ``|u| u = s|s| |u0| u0``.
        """
        eps, alpha, beta = self.params.epsilon, self.params.alpha, self.params.beta

        def sin_t(t):
            return np.sin(TWO_PI * t)

        def drag(pts):
            u0 = _u0(pts)
            return beta * np.hypot(u0[:, 0], u0[:, 1])[:, None] * u0

        return [
            (lambda t: np.cos(TWO_PI * t), lambda pts: TWO_PI * _u0(pts) + _grad_p0(pts)),
            (sin_t, lambda pts: alpha * _u0(pts) - eps * _lap_u0(pts)),
            (lambda t: sin_t(t) * abs(sin_t(t)), drag),
        ]

    def forcing(self, pts, t):
        zero = np.zeros((len(pts), 2))
        return sum((a(t) * g(pts) for a, g in self.forcing_terms()), zero)


class ZeroProblem(ManufacturedProblem):
    """No source from rest: the trajectory and every exact field are zero,
    so every error is exactly zero."""

    def velocity(self, pts, t):
        return np.zeros((len(pts), 2))

    def pressure(self, pts, t):
        return np.zeros(len(pts))

    def velocity_gradient(self, pts, t):
        return np.zeros((len(pts), 2, 2))

    def forcing_terms(self):
        return []


def error_l2(fc: FieldCoefficients, exact, t: float) -> float:
    """L2 distance between a discrete field and an exact field at time t.

    Uses the enhanced quadrature tier; the integrand is not polynomial.
    ``exact`` maps (points, t) to values shaped like the field's space.
    """
    space = fc.space
    ttab = tri_tables(space.mesh, space.k, enhanced_degree(space.k))
    nt, nq = ttab.w.shape
    vals = np.einsum("tcn,tnq->tcq", space.broken(fc.values), ttab.val)
    ex = np.asarray(exact(ttab.pts.reshape(-1, 2), t), dtype=float)
    if space.kind == PRESSURE:
        ex = ex.reshape(nt, 1, nq)
    else:
        ex = ex.reshape(nt, nq, -1).transpose(0, 2, 1)
    return float(np.sqrt(np.einsum("tcq,tq->", (vals - ex) ** 2, ttab.w)))


def observed_orders(errors, hs=None) -> np.ndarray:
    """Convergence order next to each error row; the first is nan.

    With ``hs`` omitted the rows are assumed to halve the mesh size, so
    the rate is log2 of consecutive error ratios.
    """
    e = np.asarray(errors, dtype=float)
    orders = np.full(e.shape, np.nan)
    if hs is None:
        ratio = np.full(len(e) - 1, 2.0)
    else:
        h = np.asarray(hs, dtype=float)
        ratio = h[:-1] / h[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        orders[1:] = np.log(e[:-1] / e[1:]) / np.log(ratio)
    return orders


def _edge_jumps(space, broken, etab):
    """Signed jump ``sum_s edge_sign[e, s] * trace_s`` of a broken field on
    every edge, shape (ne, ncomp, nq). An absent side has sign 0 and a zero
    trace table, so it adds nothing."""
    mesh = space.mesh
    traces = np.einsum("escn,esnq->escq", broken[mesh.edge_tri], etab.trace)
    return np.einsum("es,escq->ecq", mesh.edge_sign, traces)


def z2_norm(fc: FieldCoefficients) -> float:
    """Broken W^{1,3}-style norm of a velocity field.

    Cubes the broken-gradient L3 norm, adds edge-jump L3 terms weighted
    by length^-2 (full jumps on primal edges, one-sided on the boundary,
    tangential jumps on dual edges) and takes the cube root.
    """
    space = fc.space
    mesh, k = space.mesh, space.k
    deg = enhanced_degree(k)
    ttab = tri_tables(mesh, k, deg)
    etab = edge_tables(mesh, k, deg)
    broken = space.broken(fc.values)
    gvals = np.einsum("tcn,tnqd->tcdq", broken, ttab.grad)
    total = float(np.einsum("tq,tq->", np.sum(gvals**2, axis=(1, 2)) ** 1.5, ttab.w))
    jump = _edge_jumps(space, broken, etab)
    w = etab.w / mesh.edge_length[:, None] ** 2
    pe, de = mesh.primal_edges, mesh.dual_edges
    total += float(np.einsum("eq,eq->", np.hypot(jump[pe, 0], jump[pe, 1]) ** 3, w[pe]))
    tangential = np.einsum("ec,ecq->eq", mesh.edge_tangent[de], jump[de])
    total += float(np.einsum("eq,eq->", np.abs(tangential) ** 3, w[de]))
    return total ** (1.0 / 3.0)


def pressure_seminorm(fc: FieldCoefficients) -> float:
    """Broken W^{1,3/2}-style seminorm of a pressure field.

    Integrates |grad q|^{3/2} per triangle plus length^{-1/2}-weighted
    dual-edge jump terms, raised to the power 2/3. Constants map to 0.
    """
    space = fc.space
    mesh, k = space.mesh, space.k
    deg = enhanced_degree(k)
    ttab = tri_tables(mesh, k, deg)
    etab = edge_tables(mesh, k, deg)
    broken = space.broken(fc.values)
    gvals = np.einsum("tcn,tnqd->tdq", broken, ttab.grad)
    total = float(np.einsum("tq,tq->", np.hypot(gvals[:, 0], gvals[:, 1]) ** 1.5, ttab.w))
    de = mesh.dual_edges
    jump = _edge_jumps(space, broken, etab)[de, 0]
    w = etab.w[de] / np.sqrt(mesh.edge_length[de])[:, None]
    total += float(np.einsum("eq,eq->", np.abs(jump) ** 1.5, w))
    return total ** (2.0 / 3.0)


@dataclass(frozen=True, kw_only=True)
class StudyRow:
    """One run of a study: its parameters and scheme, its errors at the
    final time and the observed orders (None on a study's first row, and
    until with_orders fills them in). The fields are in the order of the
    CLI's CSV columns."""

    epsilon: float
    alpha: float
    beta: float
    scheme: str
    inv_h: int
    n_steps: int
    err_u: float
    ord_u: float | None = None
    err_L: float
    ord_L: float | None = None
    err_p: float
    ord_p: float | None = None


def with_orders(rows: list[StudyRow]) -> list[StudyRow]:
    """The rows of one study with the orders observed between consecutive
    mesh sizes filled in."""
    hs = [1.0 / r.inv_h for r in rows]
    orders = {
        c: observed_orders([getattr(r, "err_" + c) for r in rows], hs=hs) for c in "uLp"
    }
    return [
        replace(r, **{"ord_" + c: None if i == 0 else float(orders[c][i]) for c in "uLp"})
        for i, r in enumerate(rows)
    ]


def default_steps(mesh_sizes, scheme: str) -> list[int]:
    """Step counts paired to mesh sizes: n^2 for the first-order scheme,
    n for the second-order one."""
    if scheme == BDF2:
        return [int(n) for n in mesh_sizes]
    return [int(n) ** 2 for n in mesh_sizes]


def run_manufactured(
    n: int,
    n_steps: int,
    params: ModelParams,
    scheme: str = BACKWARD_EULER,
    k: int = 1,
    final_time: float = 0.1,
    ops=None,
    problem=ManufacturedProblem,
) -> tuple[StudyRow, TransientResult]:
    """Solve a problem (by default the manufactured one) on an n-by-n
    grid; return its row, without orders, and the full result. ``ops``
    may carry prebuilt operators for the same n and k (parameter sweeps
    reuse them across runs)."""
    if ops is None:
        mesh = build_staggered(build_rectangle_mesh(n, n))
        ops = build_operators(mesh, k)
    prob = problem(params, final_time)
    res = run_transient(
        ops,
        params,
        prob.forcing_terms(),
        dt=final_time / n_steps,
        n_steps=n_steps,
        scheme=scheme,
    )
    row = StudyRow(
        epsilon=params.epsilon,
        alpha=params.alpha,
        beta=params.beta,
        scheme=scheme,
        inv_h=n,
        n_steps=n_steps,
        err_u=error_l2(res.u, prob.velocity, final_time),
        err_L=error_l2(res.L, prob.scaled_gradient, final_time),
        err_p=error_l2(res.p, prob.pressure, final_time),
    )
    return row, res


def convergence_study(
    mesh_sizes,
    n_steps_list,
    params: ModelParams,
    scheme: str = BACKWARD_EULER,
    k: int = 1,
    final_time: float = 0.1,
) -> list[StudyRow]:
    """Run the manufactured problem over a refinement schedule."""
    if len(mesh_sizes) != len(n_steps_list):
        raise ValueError("mesh sizes and step counts must pair up")
    return with_orders(
        [
            run_manufactured(n, steps, params, scheme, k, final_time)[0]
            for n, steps in zip(mesh_sizes, n_steps_list)
        ]
    )

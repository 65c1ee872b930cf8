"""Implicit time stepping for the staggered flow discretization.

Each step solves the saddle system coupling the velocity, its scaled
gradient, the dual-edge tangential trace, the pressure and one scalar
multiplier that pins the pressure mean. The velocity-magnitude factor of
the quadratic drag is frozen at the previous iterate and updated until
the velocity increment stalls; with no drag the step is a single linear
solve. A vanishing diffusion coefficient removes the gradient and trace
variables from the system entirely, which keeps the matrix nonsingular
in the Darcy limit.

A drag sweep changes only the velocity-mass block of the step matrix, so
the matrix lives on one sparsity pattern for the whole run (see
_StepMatrix): the fixed blocks are assembled once, the mass part of the
velocity block is rewritten only when the time-derivative weight
changes, and each sweep writes the drag values into the pattern in place
through a fixed index map.

The bordered multiplier system is never factored directly: its dense
coupling row defeats the fill-reducing ordering and triples the factor
size. Instead one pressure coefficient is pinned, which makes the core
nonsingular, and the multiplier and lost constant-pressure component are
recovered exactly from the one-dimensional consistency and constraint
relations; see _BorderedSolver. Factorizations are reused across drag
sweeps and steps through iterative refinement, since the frozen weight
drifts slowly, and are rebuilt only when refinement stops contracting.
Refinement starts from the previous solution, so a sweep whose answer
barely moved needs only one or two triangular solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .forms import (
    DragMassAssembler,
    assemble_divergence,
    assemble_divergence_adjoint,
    assemble_load,
    assemble_mass,
    assemble_trace_jump,
    assemble_trace_jump_adjoint,
    assemble_velocity_gradient,
    assemble_velocity_gradient_adjoint,
    pressure_integral,
)
from .mesh import StaggeredMesh
from .spaces import (
    GRADIENT,
    PRESSURE,
    TRACE,
    VELOCITY,
    DofSpace,
    FieldCoefficients,
    build_space,
    interpolate,
)

BACKWARD_EULER = "be"
BDF2 = "bdf2"


class SolverError(RuntimeError):
    """A linear solve failed or the drag iteration did not settle."""


@dataclass(frozen=True)
class ModelParams:
    """Coefficients of the momentum equation.

    epsilon scales the diffusion, alpha the linear drag, beta the
    quadratic drag. alpha must be positive; the time-stepping bounds
    degrade as alpha approaches zero.
    """

    epsilon: float
    alpha: float
    beta: float

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")


@dataclass(frozen=True)
class PicardConfig:
    """Stopping rule for the frozen-coefficient iteration."""

    tol: float = 1e-9
    max_iter: int = 50


@dataclass(eq=False)
class Operators:
    """Spaces and the time-independent matrices on one mesh.

    ``mp`` integrates a pressure field over the domain; ``p_const`` holds
    the coefficients of the constant pressure one, the nullspace of the
    unpinned step matrix.
    """

    mesh: StaggeredMesh
    k: int
    velocity: DofSpace
    gradient: DofSpace
    pressure: DofSpace
    trace: DofSpace
    MU: sp.csr_matrix
    MW: sp.csr_matrix
    BU: sp.csr_matrix
    BW: sp.csr_matrix
    DP: sp.csr_matrix
    GU: sp.csr_matrix
    TH: sp.csr_matrix
    TW: sp.csr_matrix
    mp: np.ndarray
    p_const: np.ndarray


def build_operators(mesh: StaggeredMesh, k: int) -> Operators:
    u = build_space(mesh, VELOCITY, k)
    w = build_space(mesh, GRADIENT, k)
    p = build_space(mesh, PRESSURE, k)
    th = build_space(mesh, TRACE, k)
    return Operators(
        mesh=mesh,
        k=k,
        velocity=u,
        gradient=w,
        pressure=p,
        trace=th,
        MU=assemble_mass(u),
        MW=assemble_mass(w),
        BU=assemble_velocity_gradient(u, w),
        BW=assemble_velocity_gradient_adjoint(w, u),
        DP=assemble_divergence(p, u),
        GU=assemble_divergence_adjoint(u, p),
        TH=assemble_trace_jump(th, w),
        TW=assemble_trace_jump_adjoint(w, th),
        mp=pressure_integral(p),
        p_const=interpolate(p, lambda pts: np.ones(len(pts))).values,
    )


@dataclass(eq=False)
class StepReport:
    """Diagnostics of one time step."""

    step: int
    t: float
    picard_iterations: int
    increments: list
    residual: float
    u_l2: float
    L_l2: float
    factorizations: int
    refine_passes: int


def write_step_log(path, reports) -> None:
    """Write per-step diagnostics as CSV.

    Columns: step, time, drag sweeps, last relative increment, worst
    linear-solve residual, the L2 energies of the velocity and scaled
    gradient, and the factorizations and refinement passes (triangular
    solves) the step spent.
    """
    lines = [
        "step,time,picard_iterations,increment,residual,u_l2,L_l2,"
        "factorizations,refine_passes"
    ]
    for r in reports:
        inc = r.increments[-1] if r.increments else 0.0
        lines.append(
            f"{r.step},{r.t:.10g},{r.picard_iterations},{inc:.6e},"
            f"{r.residual:.6e},{r.u_l2:.10e},{r.L_l2:.10e},"
            f"{r.factorizations},{r.refine_passes}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass(eq=False)
class TransientResult:
    """Final fields of a transient run plus per-step diagnostics."""

    ops: Operators
    params: ModelParams
    scheme: str
    dt: float
    u: FieldCoefficients
    L: FieldCoefficients
    uhat: FieldCoefficients
    p: FieldCoefficients
    mu: float
    reports: list


def _l2(M: sp.csr_matrix, x: np.ndarray) -> float:
    return float(np.sqrt(max(x @ (M @ x), 0.0)))


def _ones(B: sp.csr_matrix) -> sp.csr_matrix:
    """B's pattern with every stored value set to one."""
    return sp.csr_matrix((np.ones(B.nnz), B.indices, B.indptr), shape=B.shape)


class _StepMatrix:
    """The step matrix without the multiplier border, on one pattern.

    Columns are ordered [gradient, velocity, trace, pressure] (reduced to
    [velocity, pressure] in the Darcy limit); rows carry the gradient,
    momentum, mass and trace-jump equations in that order. Constant
    pressures span the nullspace on both sides. The velocity-velocity
    block is ``m MU + beta D`` with ``m = sigma/dt + alpha`` and the drag
    mass ``D``; every other block is fixed for the run.

    The pattern is the union of the block patterns, including that of
    the drag matrix ``drag`` when there is one, and ``A`` keeps it for
    the run. The fixed blocks are written once; ``update`` writes ``m MU``
    into the velocity block when ``m`` changes and scatters ``beta
    D.data`` into it through a precomputed slot map on every call, with
    no sparse arithmetic. The drag matrices passed to ``update`` must
    share the pattern of ``drag``.
    """

    def __init__(self, ops: Operators, se: float, drag: sp.csr_matrix | None = None):
        dim_u = ops.velocity.global_dim
        # The velocity block enters with the union of the MU and drag
        # patterns; every entry is an MU or drag slot, which update writes.
        uu = _ones(ops.MU) if drag is None else _ones(ops.MU) + _ones(drag)
        if se == 0.0:
            ou = 0
            blocks = [
                [uu, ops.GU],
                [-ops.DP, None],
            ]
        else:
            ou = ops.gradient.global_dim
            blocks = [
                [ops.MW, -se * ops.BW, -se * ops.TW, None],
                [se * ops.BU, uu, None, ops.GU],
                [None, -ops.DP, None, None],
                [ops.TH, None, None, None],
            ]
        A = sp.bmat(blocks, format="csr")
        A.sum_duplicates()
        self.A = A
        # Slot of every MU and drag entry in A.data, found among the keys
        # row * n + column of the momentum rows, which canonical CSR sorts.
        n = A.shape[0]
        lo = A.indptr[ou]
        rows = np.repeat(np.arange(ou, ou + dim_u), np.diff(A.indptr[ou : ou + dim_u + 1]))
        keys = rows.astype(np.int64) * n + A.indices[lo : A.indptr[ou + dim_u]]

        def slots(B):
            C = B.tocoo()
            return lo + np.searchsorted(keys, (C.row + ou).astype(np.int64) * n + C.col + ou)

        self._mass_slots, self._mass_vals = slots(ops.MU), ops.MU.tocoo().data
        self._drag_slots = slots(drag) if drag is not None else None
        self._drag_base = None
        self._m = None

    def update(self, m: float, beta: float = 0.0, drag: sp.csr_matrix | None = None):
        """Write ``m MU + beta drag`` into the velocity block of ``A``."""
        data = self.A.data
        if m != self._m:
            if self._drag_slots is not None:
                data[self._drag_slots] = 0.0
            data[self._mass_slots] = m * self._mass_vals
            if self._drag_slots is not None:
                self._drag_base = data[self._drag_slots]
            self._m = m
        if drag is not None:
            data[self._drag_slots] = self._drag_base + beta * drag.data
        return self.A

    def norm_inf(self) -> float:
        """Largest absolute row sum of ``A`` (no row of the core is empty)."""
        return float(np.add.reduceat(np.abs(self.A.data), self.A.indptr[:-1]).max())


class _BorderedSolver:
    """Solves [[A, c], [r^T, 0]] [x; mu] = [b; g] through a pinned core.

    A is the singular step core: constant pressures span its nullspace
    through both the pressure columns and the mass-equation rows, and the
    borders c (column, mass-equation rows) and r (row, pressure columns)
    both carry the pressure integral weights. Factoring the bordered
    matrix directly is slow because the dense border defeats the
    fill-reducing ordering, so the solve pins the pressure coefficient
    with the largest constant-pressure entry instead and recovers the
    multiplier and the lost nullspace component from the two scalar
    relations mu = <c1, b_mass> / <mp, c1> (consistency of the mass rows)
    and <mp, x_p> = g (the mean constraint).

    The factorization is reused across nearby systems, since the frozen
    drag weight drifts slowly between sweeps and steps: ``solve`` refines
    with the factor it holds and refactors only when the residual stops
    contracting. Refinement starts from a given guess, normally the
    previous sweep's solution, so it only has to remove the residual of
    that guess; a guess that already meets the tolerance costs no
    triangular solve. Residuals are always measured against the exact
    bordered system of the current matrix. ``factor_count`` and
    ``refine_count`` count factorizations and refinement passes (one
    triangular solve each).
    """

    def __init__(self, ops: Operators, se: float):
        dim_w, dim_u = ops.gradient.global_dim, ops.velocity.global_dim
        dim_p, dim_t = ops.pressure.global_dim, ops.trace.global_dim
        if se == 0.0:
            n = dim_u + dim_p
            self.rows_p = slice(dim_u, dim_u + dim_p)
            self.cols_p = slice(dim_u, dim_u + dim_p)
        else:
            n = dim_w + dim_u + dim_t + dim_p
            off = dim_w + dim_u
            self.rows_p = slice(off, off + dim_p)
            self.cols_p = slice(off + dim_t, off + dim_t + dim_p)
        self.n = n
        self.mp = ops.mp
        self.c1 = ops.p_const
        self.omega = float(self.mp @ self.c1)
        pin = int(np.argmax(np.abs(self.c1)))
        self._rp = self.rows_p.start + pin
        self._cp = self.cols_p.start + pin
        self._pin_unit = sp.csr_matrix(
            (np.asarray([1.0]), ([self._rp], [self._cp])), shape=(n, n)
        )
        self.lu = None
        self.factor_count = 0
        self.refine_count = 0

    def reset(self):
        """Drop the held factorization (call when the matrix jumps)."""
        self.lu = None

    def _refactor(self, A: sp.csr_matrix):
        core = A.copy()
        core.data[core.indptr[self._rp] : core.indptr[self._rp + 1]] = 0.0
        try:
            self.lu = splu((core + self._pin_unit).tocsc())
        except RuntimeError as exc:
            raise SolverError(f"factorization failed: {exc}") from exc
        self.factor_count += 1

    def _apply(self, d: np.ndarray, g: float):
        """One approximate bordered solve with the held factor."""
        mu = float(self.c1 @ d[self.rows_p]) / self.omega
        dd = d.copy()
        dd[self.rows_p] -= mu * self.mp
        dd[self._rp] = 0.0
        y = self.lu.solve(dd)
        tau = (g - float(self.mp @ y[self.cols_p])) / self.omega
        y[self.cols_p] += tau * self.c1
        return y, mu

    def _residual(self, A, b, g, x, mu):
        r = b - A @ x
        r[self.rows_p] -= mu * self.mp
        rg = g - float(self.mp @ x[self.cols_p])
        return r, rg, float(np.hypot(np.linalg.norm(r), rg))

    def solve(self, A, a_norm, b, x0=None, mu0=0.0, g=0.0):
        """Returns x, mu and the relative bordered-system residual.

        ``a_norm`` is the largest absolute row sum of ``A``; ``x0`` and
        ``mu0`` are the starting guess (zero when ``x0`` is omitted).
        """
        if self.lu is None:
            self._refactor(A)
            fresh = True
        else:
            fresh = False
        anorm = a_norm + float(np.abs(self.mp).sum())
        bnorm = float(np.hypot(np.linalg.norm(b), g))
        x = np.zeros(self.n) if x0 is None else np.array(x0, dtype=float)
        mu = mu0
        r, rg, rn = self._residual(A, b, g, x, mu)
        scale = bnorm + anorm * np.linalg.norm(x) + 1e-300
        rn_prev = np.inf
        for _ in range(12):
            if rn <= 1e-13 * scale:
                break
            dx, dmu = self._apply(r, rg)
            self.refine_count += 1
            x += dx
            mu += dmu
            r, rg, rn = self._residual(A, b, g, x, mu)
            scale = bnorm + anorm * np.linalg.norm(x) + 1e-300
            if rn <= 1e-13 * scale:
                break
            if not fresh and rn > 0.125 * rn_prev:
                self._refactor(A)
                fresh = True
                rn_prev = np.inf
                continue
            rn_prev = rn
        resid = rn / scale
        if resid > 1e-10:
            raise SolverError(f"linear solve stalled at relative residual {resid:.2e}")
        return x, mu, resid


def run_transient(
    ops: Operators,
    params: ModelParams,
    f,
    dt: float,
    n_steps: int,
    scheme: str = BACKWARD_EULER,
    picard: PicardConfig = PicardConfig(),
    u0: FieldCoefficients | None = None,
) -> TransientResult:
    """March the discrete system from a zero (or given) initial velocity.

    Parameters
    ----------
    ops : Operators
    params : ModelParams
    f : callable or None
        Momentum source; called as ``f(points, t)`` with (n, 2) points.
    dt, n_steps : float, int
        Uniform step size and step count.
    scheme : str
        "be" for first order, "bdf2" for the two-step scheme whose
        opening step falls back to "be".
    picard : PicardConfig
    u0 : FieldCoefficients, optional
        Initial velocity; zero when omitted.

    Returns
    -------
    TransientResult
        Final fields, the pressure-mean multiplier and step diagnostics.
    """
    if scheme not in (BACKWARD_EULER, BDF2):
        raise ValueError(f"unknown scheme {scheme!r}")
    if dt <= 0 or n_steps < 1:
        raise ValueError("need dt > 0 and at least one step")
    U, W, P, T = ops.velocity, ops.gradient, ops.pressure, ops.trace
    se = float(np.sqrt(params.epsilon))
    dim_u, dim_w, dim_p, dim_t = (
        U.global_dim,
        W.global_dim,
        P.global_dim,
        T.global_dim,
    )
    if se == 0.0:
        sl_u = slice(0, dim_u)
        sl_p = slice(dim_u, dim_u + dim_p)
        n_total = dim_u + dim_p
        sl_w = sl_t = slice(0, 0)
    else:
        sl_w = slice(0, dim_w)
        sl_u = slice(dim_w, dim_w + dim_u)
        sl_t = slice(dim_w + dim_u, dim_w + dim_u + dim_t)
        sl_p = slice(dim_w + dim_u + dim_t, dim_w + dim_u + dim_t + dim_p)
        n_total = dim_w + dim_u + dim_t + dim_p

    u_prev = np.zeros(dim_u) if u0 is None else np.asarray(u0.values, dtype=float)
    if u_prev.shape != (dim_u,):
        raise ValueError("initial velocity does not match the velocity space")
    u_prev2 = None
    x = np.zeros(n_total)
    mu_val = 0.0
    reports: list[StepReport] = []
    stepper = _BorderedSolver(ops, se)
    drag_mass = DragMassAssembler(U) if params.beta != 0.0 else None
    matrix = None

    for step in range(1, n_steps + 1):
        t_new = step * dt
        if scheme == BDF2 and step >= 2:
            sigma = 1.5
            hist = ops.MU @ ((4.0 * u_prev - u_prev2) / (2.0 * dt))
            if step == 2:
                stepper.reset()
        else:
            sigma = 1.0
            hist = ops.MU @ (u_prev / dt)
        rhs_u = hist if f is None else hist + assemble_load(U, f, t=t_new)
        b = np.zeros(n_total)
        b[sl_u] = rhs_u

        m = sigma / dt + params.alpha
        if u_prev2 is None:
            u_guess = u_prev.copy()
        else:
            u_guess = 2.0 * u_prev - u_prev2
        increments: list[float] = []
        worst_resid = 0.0
        factors0, passes0 = stepper.factor_count, stepper.refine_count
        for it in range(1, picard.max_iter + 1):
            drag = drag_mass(u_guess) if params.beta != 0.0 else None
            if matrix is None:
                matrix = _StepMatrix(ops, se, drag)
            A = matrix.update(m, params.beta, drag)
            x, mu_val, resid = stepper.solve(A, matrix.norm_inf(), b, x, mu_val)
            worst_resid = max(worst_resid, resid)
            u_new = x[sl_u]
            diff = u_new - u_guess
            inc = _l2(ops.MU, diff) / max(_l2(ops.MU, u_new), 1e-300)
            increments.append(inc)
            u_guess = u_new
            if params.beta == 0.0 or inc <= picard.tol:
                break
        else:
            raise SolverError(
                f"drag iteration did not reach {picard.tol:.1e} in "
                f"{picard.max_iter} sweeps (step {step}, last {inc:.2e})"
            )

        u_prev2 = u_prev
        u_prev = u_guess
        reports.append(
            StepReport(
                step=step,
                t=t_new,
                picard_iterations=len(increments),
                increments=increments,
                residual=worst_resid,
                u_l2=_l2(ops.MU, u_prev),
                L_l2=_l2(ops.MW, x[sl_w]) if se > 0.0 else 0.0,
                factorizations=stepper.factor_count - factors0,
                refine_passes=stepper.refine_count - passes0,
            )
        )

    t_final = n_steps * dt
    zero_w = np.zeros(dim_w)
    zero_t = np.zeros(dim_t)
    return TransientResult(
        ops=ops,
        params=params,
        scheme=scheme,
        dt=dt,
        u=FieldCoefficients(U, u_prev, t=t_final),
        L=FieldCoefficients(W, x[sl_w] if se > 0.0 else zero_w, t=t_final),
        uhat=FieldCoefficients(T, x[sl_t] if se > 0.0 else zero_t, t=t_final),
        p=FieldCoefficients(P, x[sl_p], t=t_final),
        mu=mu_val,
        reports=reports,
    )

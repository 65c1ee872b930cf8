"""Implicit time stepping for the staggered flow discretization.

Each step solves the saddle system coupling the velocity, its scaled
gradient ``L = sqrt(eps) grad u``, the dual-edge tangential trace and the
pressure, which the scheme fixes only up to a constant and which is
reported with zero mean. The gradient lives in a broken space whose mass
matrix ``MW`` is block diagonal, so the gradient equation ``MW L =
sqrt(eps) (BU^T u + TH^T uhat)`` is solved for ``L`` block by block and
``L`` is eliminated (static condensation): the linear solves run on the
velocity, trace and pressure alone, and ``L`` is recovered from the
solution. The quadratic drag makes the system nonlinear; it is solved by
Newton's method on the consistent drag Jacobian ``J(u)`` (see
forms.DragMassAssembler), one linear solve per sweep, until the velocity
increment falls below the tolerance. With no drag the step is a single
linear solve. A vanishing diffusion coefficient removes the gradient and
trace variables from the system entirely, which keeps the matrix
nonsingular in the Darcy limit.

A sweep changes only the velocity-velocity block of the step matrix, so
the matrix lives on one sparsity pattern for the whole run, built with
the run before its first sweep (see _StepSystem): the fixed blocks are
assembled once, the mass and condensed-gradient part of the velocity
block is rewritten only when the time-derivative weight changes, and a
sweep writes the Jacobian values into the pattern in place through a
fixed index map. The drag part of the pattern is known in advance: the
pairs of velocity coefficients that share a triangle.

Constant pressures span the nullspace of the step matrix on both sides,
and the mass equations, whose right-hand side is zero, stay consistent.
So the pressure needs a normalisation, not a Lagrange multiplier: the
step matrix pins one pressure coefficient in place of its mass equation,
which makes it nonsingular (see _StepSystem), and the final pressure is
shifted by a constant to zero mean.

Factorizations are reused across sweeps and steps through iterative
refinement, since the Jacobian drifts slowly between them, and are
rebuilt only when refinement stops contracting; a change of the
time-derivative weight (BDF2's second step) drops the held factor, since
the matrix then jumps. Refinement stops at ``|b - A x| <= 1e-14 (|b| +
|A|_inf |x|)`` (REFINE_TOL). A step's first sweep starts refinement
from the step vector predicted from the history of accepted steps (see
_StepHistory): the Newton–Gregory sum of its backward differences up to
fifth order, cut before the first difference whose velocity part stops
shrinking, so a smooth history is extrapolated to high order and a jump
or kink in the source lowers the order by itself (the initial state at
the first step, ``2 x_n - x_{n-1}`` at the second). Each later sweep
starts from the previous sweep's solution, so a sweep whose answer
barely moved needs only one or two triangular solves. Either way
the start's velocity is the sweep's linearization point, where the
residual of the Newton system is the nonlinear residual and needs no
Jacobian: ``D(u) u`` is applied without a matrix (forms.apply_drag). A
sweep whose start already meets the refinement stop, measured with the
norm of the step matrix as last written, is accepted as it stands, with
increment 0.0 and no Jacobian, matrix write or triangular solve; that is
how a converged step usually ends, and why a run from rest with no
source factors nothing. Every other sweep assembles the Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from .forms import (
    DragMassAssembler,
    apply_drag,
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
# Refinement stops once |b - A x| <= REFINE_TOL (|b| + |A|_inf |x|). The
# stop is normwise over the whole step vector, so the velocity, the
# smaller part of it, converges a decade or so behind; at 1e-13 a drag
# run's velocity could stop 1e-9 short of the Newton solution.
REFINE_TOL = 1e-14
# Highest order of the step-history predictor (see _StepHistory).
PREDICT_ORDER = 5


class SolverError(RuntimeError):
    """A linear solve failed or the drag iteration did not settle."""


@dataclass(frozen=True)
class ModelParams:
    """Coefficients of the momentum equation.

    epsilon scales the diffusion, alpha the linear drag, beta the
    quadratic drag. All three are finite; alpha must be positive; the
    time-stepping bounds degrade as alpha approaches zero.
    """

    epsilon: float
    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("epsilon", "alpha", "beta"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")


@dataclass(frozen=True)
class PicardConfig:
    """Stopping rule for the drag iteration: at most ``max_iter`` Newton
    sweeps per step, stopping once the relative velocity increment is at
    most ``tol``."""

    tol: float = 1e-9
    max_iter: int = 50


def _block_inverse(M: sp.spmatrix) -> sp.csr_matrix:
    """Inverse of a matrix whose pattern splits into small diagonal blocks.

    Each connected component of the pattern is one block, inverted
    densely; all blocks of one size go through one ``np.linalg.inv``
    call, so the Python work grows with the number of distinct block
    sizes, not with the number of blocks.
    """
    M = sp.coo_matrix(M)
    n = M.shape[0]
    n_blocks, label = connected_components(M, directed=False)
    size = np.bincount(label)
    # Nodes sorted by block; pos is a node's place within its block.
    order = np.argsort(label, kind="stable")
    start = np.zeros(n_blocks + 1, dtype=np.int64)
    np.cumsum(size, out=start[1:])
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n) - start[label[order]]
    rows, cols, vals = [], [], []
    for s in np.unique(size):
        ids = np.flatnonzero(size == s)
        slot = np.zeros(n_blocks, dtype=np.int64)
        slot[ids] = np.arange(len(ids))
        mine = size[label[M.row]] == s
        r, c = M.row[mine], M.col[mine]
        dense = np.zeros((len(ids), s, s))
        dense[slot[label[r]], pos[r], pos[c]] = M.data[mine]
        nodes = order[start[ids][:, None] + np.arange(s)]
        rows.append(np.repeat(nodes, s, axis=1).ravel())
        cols.append(np.tile(nodes, (1, s)).ravel())
        vals.append(np.linalg.inv(dense).ravel())
    inv = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    return inv.tocsr()


@dataclass(eq=False)
class Operators:
    """Spaces and the time-independent matrices on one mesh.

    ``build_operators`` assembles the five operators the solver uses: the
    masses ``MU`` and ``MW``, the velocity gradient ``BU``, the divergence
    ``DP`` and the trace jump ``TH``; their adjoints enter the step matrix
    as transposes. ``BW``, ``GU`` and ``TW`` are the adjoints assembled
    independently (equal to ``BU.T``, ``DP.T`` and ``TH.T`` to roundoff,
    with the same patterns), for checking that identity. They are built
    on first access; the solver never reads them. ``gradient_lift`` is
    also built on first use, by the solver.

    ``mp`` integrates a pressure field over the domain; ``p_const`` holds
    the coefficients of the constant pressure one. ``DP.T @ p_const``
    vanishes, so ``p_const`` spans the nullspace of the unpinned step
    matrix through both its pressure columns ``DP.T`` and its mass rows
    ``-DP``.
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
    DP: sp.csr_matrix
    TH: sp.csr_matrix
    mp: np.ndarray
    p_const: np.ndarray

    @cached_property
    def BW(self) -> sp.csr_matrix:
        return assemble_velocity_gradient_adjoint(self.gradient, self.velocity)

    @cached_property
    def GU(self) -> sp.csr_matrix:
        return assemble_divergence_adjoint(self.velocity, self.pressure)

    @cached_property
    def TW(self) -> sp.csr_matrix:
        return assemble_trace_jump_adjoint(self.gradient, self.trace)

    @cached_property
    def gradient_lift(self) -> sp.csr_matrix:
        """``MW^{-1} [BU^T, TH^T]``, which maps the velocity and trace
        coefficients to the scaled gradient over ``sqrt(eps)``. ``MW`` is
        inverted block by block (see _block_inverse)."""
        return (_block_inverse(self.MW) @ sp.hstack([self.BU.T, self.TH.T])).tocsr()


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
        DP=assemble_divergence(p, u),
        TH=assemble_trace_jump(th, w),
        mp=pressure_integral(p),
        p_const=interpolate(p, lambda pts: np.ones(len(pts))).values,
    )


@dataclass(eq=False)
class StepReport:
    """Diagnostics of one time step.

    ``increments`` holds every sweep's relative velocity increment; a
    last increment of exactly 0.0 marks a sweep accepted without a
    Jacobian (see the module docstring).
    """

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
    """Final fields of a transient run plus per-step diagnostics.

    ``p`` has zero mean.
    """

    ops: Operators
    params: ModelParams
    scheme: str
    dt: float
    u: FieldCoefficients
    L: FieldCoefficients
    uhat: FieldCoefficients
    p: FieldCoefficients
    reports: list


class _StepHistory:
    """Backward differences of the accepted step vectors and the
    Newton–Gregory prediction of the next one.

    ``diffs[j]`` is ``∇^j x_n`` for ``j = 0..min(n, PREDICT_ORDER)``,
    with ``∇^0 x_n = x_n`` and ``∇^j x_n = ∇^{j-1} x_n - ∇^{j-1}
    x_{n-1}``; ``push`` updates the table with one subtraction per order.
    ``predict`` sums ``x_n + ∇x_n + ∇^2 x_n + ...``, the polynomial
    through the stored points evaluated one step ahead, and truncates
    this asymptotic series before the first term of order two or more
    whose norm over ``sl`` does not shrink against the previous term's:
    a smooth history extrapolates to fifth order, a jump or kink drops
    the order by itself. One point predicts itself, two points ``2 x_n -
    x_{n-1}``. The norms are taken over ``sl`` alone so that the choice
    depends only on those entries.
    """

    def __init__(self, x0: np.ndarray, sl: slice):
        self.diffs = [x0]
        self._sl = sl

    def push(self, x: np.ndarray):
        diffs = [x]
        for d in self.diffs[:PREDICT_ORDER]:
            diffs.append(diffs[-1] - d)
        self.diffs = diffs

    def predict(self) -> np.ndarray:
        x = self.diffs[0].copy()
        size = np.inf
        for j, d in enumerate(self.diffs[1:], start=1):
            d_size = float(np.linalg.norm(d[self._sl]))
            if j >= 2 and not d_size < size:
                break
            x += d
            size = d_size
        return x


def _l2(M: sp.csr_matrix, x: np.ndarray) -> float:
    return float(np.sqrt(max(x @ (M @ x), 0.0)))


def _ones(B: sp.csr_matrix) -> sp.csr_matrix:
    """B's pattern with every stored value set to one."""
    return sp.csr_matrix((np.ones(B.nnz), B.indices, B.indptr), shape=B.shape)


def _layout(ops: Operators, se: float) -> list:
    """Slices of the step unknowns [u, uhat, p] in the step vector.

    They index the step matrix's equations [momentum, trace-jump, mass]
    as well. The scaled gradient is not a step unknown: it is eliminated
    and recovered (see Operators.gradient_lift). In the Darcy limit
    (``se == 0``) the trace slice is empty. The last stop is the system
    size.
    """
    u, t, p = (s.global_dim for s in (ops.velocity, ops.trace, ops.pressure))
    ends = np.cumsum([0, u, t if se > 0.0 else 0, p]).tolist()
    return [slice(a, b) for a, b in zip(ends[:-1], ends[1:])]


class _StepSystem:
    """The pinned step system of one run: its matrix on one pattern, the
    held factorization and the refinement stop.

    Rows and columns share the slices of _layout: columns are ordered
    [velocity, trace, pressure] and rows carry the momentum, trace-jump
    and mass equations in the same order. With ``eps = se^2``, ``Mi =
    MW^{-1}`` and the drag Jacobian ``J`` the matrix is

        [[m MU + beta J + eps BU Mi BU^T, eps BU Mi TH^T, DP^T],
         [TH Mi BU^T,                     TH Mi TH^T,     0   ],
         [-DP,                            0,              P   ]]

    with ``m = sigma/dt + alpha``: the gradient equation ``MW L = se (BU^T
    u + TH^T uhat)`` eliminated from the full system, and the trace-jump
    rows ``TH L = 0`` divided by ``se`` so that they do not degenerate as
    ``eps`` shrinks. In the Darcy limit it reduces to [[m MU + beta J,
    DP^T], [-DP, P]].

    Constant pressures ``c1 = p_const`` span the nullspace of the
    unpinned matrix on both sides, and the mass rows of every right-hand
    side are zero. The pin makes the matrix nonsingular: the mass row of
    the pressure coefficient ``ip = argmax |c1|`` is replaced by the unit
    entry ``P = e_ip e_ip^T``. The dropped row is the ``c1``-weighted sum
    of the other mass rows, so the pinned system has the solution of the
    singular one with ``x_p[ip] = 0``.

    The pattern is the union of the block patterns, including, for a run
    with drag, that of the velocity pairs sharing a triangle, on which
    every drag Jacobian lives (DofSpace.pattern); ``A`` keeps it for the
    run. The blocks outside the velocity block are written once. In the
    velocity block ``set_mass`` writes the fixed ``eps BU Mi BU^T`` part
    together with ``m MU`` when ``m`` changes, and ``solve`` scatters
    ``beta J.data`` on top of them through a precomputed slot map, with
    no sparse arithmetic. ``lin`` is the drag-free matrix on the same
    pattern (``A`` itself without drag), and ``norm`` the largest
    absolute row sum of ``A`` as last written.

    The factorization is reused across nearby systems, since the drag
    Jacobian drifts slowly between sweeps and steps: ``solve`` refines
    with the factor it holds and refactors only when the residual stops
    contracting, and ``set_mass`` drops it when ``m`` changes.
    ``factor_count`` and ``refine_count`` count factorizations and
    refinement passes (one triangular solve each).
    """

    def __init__(self, ops: Operators, se: float, drag: bool):
        sl_u = _layout(ops, se)[0]
        # The velocity block enters with the union of the MU, drag and
        # condensed patterns; every entry is one of their slots, which
        # set_mass writes.
        uu = _ones(ops.MU)
        if drag:
            indptr, indices, _ = ops.velocity.pattern
            pattern = sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=uu.shape)
            uu = uu + pattern
        dp, ip = ops.pressure.global_dim, int(np.argmax(np.abs(ops.p_const)))
        mass = -ops.DP
        mass.data[mass.indptr[ip] : mass.indptr[ip + 1]] = 0.0
        mass.eliminate_zeros()
        pin = sp.csr_matrix(([1.0], ([ip], [ip])), shape=(dp, dp))
        if se == 0.0:
            fixed = sp.csr_matrix(ops.MU.shape)
            blocks = [
                [uu, ops.DP.T],
                [mass, pin],
            ]
        else:
            # K = [BU; TH] Mi [BU^T, TH^T], split at the velocity/trace border.
            du, eps = ops.velocity.global_dim, se * se
            K = (sp.vstack([ops.BU, ops.TH]) @ ops.gradient_lift).tocsr()
            fixed = eps * K[:du, :du]
            uu = uu + _ones(fixed)
            blocks = [
                [uu, eps * K[:du, du:], ops.DP.T],
                [K[du:, :du], K[du:, du:], None],
                [mass, None, pin],
            ]
        A = sp.bmat(blocks, format="csr")
        A.sum_duplicates()
        self.A = A
        self.lin = A
        if drag:
            self.lin = sp.csr_matrix((A.data.copy(), A.indices, A.indptr), shape=A.shape)
        # Slot of every velocity-block entry in A.data, found among the
        # keys row * n + column of the momentum rows, which canonical CSR
        # sorts.
        n, ou, hi = A.shape[0], sl_u.start, sl_u.stop
        lo = A.indptr[ou]
        rows = np.repeat(np.arange(ou, hi), np.diff(A.indptr[ou : hi + 1]))
        keys = rows.astype(np.int64) * n + A.indices[lo : A.indptr[hi]]

        def slots(B):
            C = B.tocoo()
            return lo + np.searchsorted(keys, (C.row + ou).astype(np.int64) * n + C.col + ou)

        self._uu_slots = slots(uu)
        self._fixed_slots, self._fixed_vals = slots(fixed), fixed.tocoo().data
        self._mass_slots, self._mass_vals = slots(ops.MU), ops.MU.tocoo().data
        self._drag_slots = slots(pattern) if drag else None
        # Only the momentum rows, which lead, change; the largest sum of
        # the others is kept.
        self._n_u = hi
        self._other_norm = self._row_sums(hi, n)
        self._m = self.norm = self.lu = None
        self.factor_count = self.refine_count = 0

    def _row_sums(self, lo: int, hi: int) -> float:
        """Largest absolute row sum of ``A`` over rows lo..hi-1 (none of
        them is empty)."""
        ptr = self.A.indptr
        data = np.abs(self.A.data[ptr[lo] : ptr[hi]])
        return float(np.add.reduceat(data, ptr[lo:hi] - ptr[lo]).max())

    def _take_norm(self):
        """Take ``norm`` from ``A`` as just written."""
        self.norm = max(self._other_norm, self._row_sums(0, self._n_u))

    def set_mass(self, m: float):
        """Write ``m MU`` and the fixed condensed part into the velocity
        block of ``lin`` and ``A``, without drag, and drop the factor, when
        ``m`` changes."""
        if m == self._m:
            return
        lin = self.lin.data
        lin[self._uu_slots] = 0.0
        lin[self._fixed_slots] = self._fixed_vals
        lin[self._mass_slots] += m * self._mass_vals
        if self.lin is not self.A:
            self.A.data[:] = lin
        self._m, self.lu = m, None
        self._take_norm()

    def _refactor(self):
        try:
            self.lu = splu(self.A.tocsc())
        except RuntimeError as exc:
            raise SolverError(f"factorization failed: {exc}") from exc
        self.factor_count += 1

    def _stop(self, b, x, r):
        """``|r|``, the relative residual ``|r| / (|b| + norm |x|)`` and
        whether it meets the refinement stop."""
        rn = float(np.linalg.norm(r))
        scale = float(np.linalg.norm(b)) + self.norm * float(np.linalg.norm(x)) + 1e-300
        return rn, rn / scale, rn <= REFINE_TOL * scale

    def solve(self, b, x, r, beta, jacobian):
        """Returns the solution of ``A x = b`` refined from the start
        ``x``, and its relative residual.

        The drag part of ``A`` is ``beta jacobian()``, and ``r`` is the
        residual ``b - A x`` of the start, which the caller forms without
        the Jacobian. A start that meets the stop under the last written
        ``norm`` is returned as it is, with no Jacobian and no triangular
        solve. Otherwise the Jacobian is written into ``A``, which is
        factored if no factor is held, and refinement removes the residual
        with the held factor, measured against ``b - A x`` under the new
        ``norm``; a factor not made for this solve is rebuilt when a pass
        fails to shrink the residual eightfold. Raises SolverError unless
        the relative residual ends at most 1e-10 (a NaN one included).
        """
        rn, resid, done = self._stop(b, x, r)
        if done:
            return x, resid
        if beta != 0.0:
            slots = self._drag_slots
            self.A.data[slots] = self.lin.data[slots] + beta * jacobian().data
            self._take_norm()
        fresh, rn_prev = self.lu is None, np.inf
        if fresh:
            self._refactor()
        rn, resid, done = self._stop(b, x, r)
        for _ in range(12):
            if done:
                break
            x = x + self.lu.solve(r)
            self.refine_count += 1
            r = b - self.A @ x
            rn, resid, done = self._stop(b, x, r)
            if not done and not fresh and rn > 0.125 * rn_prev:
                self._refactor()
                fresh, rn_prev = True, np.inf
            else:
                rn_prev = rn
        if not resid <= 1e-10:
            raise SolverError(f"linear solve stalled at relative residual {resid:.2e}")
        return x, resid


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
    f : callable, sequence of (a, g) pairs, or None
        Momentum source. A callable is called as ``f(points, t)`` with
        (n, 2) points, and its load is assembled on every step. Pairs
        give a source separated in time, ``f(x, t) = sum a(t) g(x)``
        with ``a(t)`` a scalar and ``g(points)`` a field: the load of
        each ``g`` is assembled once, and a step only combines them.
        None is no source.
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
        Final fields (the pressure with zero mean) and the step
        diagnostics.
    """
    if scheme not in (BACKWARD_EULER, BDF2):
        raise ValueError(f"unknown scheme {scheme!r}")
    if not 0.0 < dt < np.inf or n_steps < 1:
        raise ValueError("need a finite dt > 0 and at least one step")
    U, W, P, T = ops.velocity, ops.gradient, ops.pressure, ops.trace
    se = float(np.sqrt(params.epsilon))
    sl_u, sl_t, sl_p = _layout(ops, se)
    dim_u = U.global_dim

    u_prev = np.zeros(dim_u) if u0 is None else np.asarray(u0.values, dtype=float)
    if u_prev.shape != (dim_u,):
        raise ValueError("initial velocity does not match the velocity space")
    u_prev2 = None
    x = np.zeros(sl_p.stop)
    x[sl_u] = u_prev
    history = _StepHistory(x, sl_u)
    reports: list[StepReport] = []
    system = _StepSystem(ops, se, params.beta != 0.0)
    drag_mass = DragMassAssembler(U) if params.beta != 0.0 else None
    if f is None:
        load = lambda t: 0.0
    elif callable(f):
        load = lambda t: assemble_load(U, f, t=t)
    else:
        terms = [(a, assemble_load(U, g)) for a, g in f]
        load = lambda t: sum(a(t) * b for a, b in terms)

    for step in range(1, n_steps + 1):
        t_new = step * dt
        if scheme == BDF2 and step >= 2:
            sigma = 1.5
            hist = ops.MU @ ((4.0 * u_prev - u_prev2) / (2.0 * dt))
        else:
            sigma = 1.0
            hist = ops.MU @ (u_prev / dt)
        b = np.zeros(sl_p.stop)
        b[sl_u] = hist + load(t_new)

        system.set_mass(sigma / dt + params.alpha)
        # The first sweep starts from the step vector predicted from the
        # history; at the first step that is the initial state.
        x = history.predict()
        increments: list[float] = []
        worst_resid = 0.0
        factors0, passes0 = system.factor_count, system.refine_count
        for it in range(1, picard.max_iter + 1):
            # Newton sweep about the velocity u of x, with A_lin the
            # drag-free matrix: (A_lin + beta J(u)) x_new = b + beta (J(u) -
            # D(u)) u = b + beta D(u) u, since J(u) u = 2 D(u) u on the
            # quadrature. Its residual at x is the nonlinear residual F(x) =
            # b - A_lin x - beta D(u) u, which needs no Jacobian: a start
            # that already meets the refinement stop comes back unchanged,
            # with increment exactly 0.0.
            u = x[sl_u]
            drag = params.beta * apply_drag(U, u) if params.beta != 0.0 else 0.0
            b_it = b.copy()
            b_it[sl_u] += drag
            r = b - system.lin @ x
            r[sl_u] -= drag
            x, resid = system.solve(b_it, x, r, params.beta, lambda: drag_mass(u))
            u_new = x[sl_u]
            inc = _l2(ops.MU, u_new - u) / max(_l2(ops.MU, u_new), 1e-300)
            worst_resid = max(worst_resid, resid)
            increments.append(inc)
            if params.beta == 0.0 or inc <= picard.tol:
                break
        else:
            raise SolverError(
                f"drag iteration did not reach {picard.tol:.1e} in "
                f"{picard.max_iter} sweeps (step {step}, last {inc:.2e})"
            )

        history.push(x)
        u_prev2 = u_prev
        u_prev = x[sl_u]
        # The velocity and trace slices lead the step vector.
        if se > 0.0:
            L = se * (ops.gradient_lift @ x[: sl_t.stop])
        else:
            L = np.zeros(W.global_dim)
        reports.append(
            StepReport(
                step=step,
                t=t_new,
                picard_iterations=len(increments),
                increments=increments,
                residual=worst_resid,
                u_l2=_l2(ops.MU, u_prev),
                L_l2=_l2(ops.MW, L),
                factorizations=system.factor_count - factors0,
                refine_passes=system.refine_count - passes0,
            )
        )

    t_final = n_steps * dt
    # The pinned pressure, shifted to zero mean.
    p = x[sl_p] - float(ops.mp @ x[sl_p]) / float(ops.mp @ ops.p_const) * ops.p_const
    return TransientResult(
        ops=ops,
        params=params,
        scheme=scheme,
        dt=dt,
        u=FieldCoefficients(U, u_prev, t=t_final),
        L=FieldCoefficients(W, L, t=t_final),
        uhat=FieldCoefficients(T, x[sl_t] if se > 0.0 else np.zeros(T.global_dim), t=t_final),
        p=FieldCoefficients(P, p, t=t_final),
        reports=reports,
    )

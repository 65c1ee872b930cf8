"""Implicit time stepping for the staggered flow discretization.

Each step solves the saddle system coupling the velocity, its scaled
gradient ``L = sqrt(eps) grad u``, the dual-edge tangential trace and the
pressure, which the scheme fixes only up to a constant and which is
reported with zero mean. The gradient lives in a broken space whose mass
matrix ``MW`` is block diagonal, so the gradient equation ``MW L =
sqrt(eps) (BU^T u + TH^T uhat)`` is solved for ``L`` block by block and
``L`` is eliminated (static condensation): the linear solves run on the
velocity, trace and pressure alone, and ``L`` is recovered from the
solution. The time derivative is the backward-difference formula
``sum_{j<=q} (1/j) ∇^j u_{n+1} / dt`` of the scheme's order ``q`` (1
for backward Euler, 2 for BDF2), read from the table of backward
differences of the accepted steps (see _StepHistory); a formula opens at
the order its history allows. The quadratic drag makes the system
nonlinear; each step solves it by the chord (simplified Newton)
iteration ``x += LU^{-1} F(x)`` on the nonlinear residual ``F(x) = b -
A_lin x - beta D(u) u``, with ``A_lin`` the drag-free step matrix and
``D(u) u`` applied without a matrix (forms.apply_drag). ``LU`` factors
the step matrix with the consistent drag Jacobian ``J(u)`` (see
forms.DragMassAssembler) at the velocity of the pass that factored it.
With no drag the iteration is iterative refinement of one linear solve.
A vanishing diffusion coefficient removes the gradient and trace
variables from the system entirely, which keeps the matrix nonsingular
in the Darcy limit.

The Jacobian changes only the velocity-velocity block of the step
matrix, so the matrix lives on one sparsity pattern for the whole run,
built with the run before its first step (see _StepSystem): the fixed
blocks are assembled once, the mass and condensed-gradient part of the
velocity block is rewritten only when the time-derivative weight
changes, and a factorization writes the Jacobian values into the pattern
in place through a fixed index map. The drag part of the pattern is
known in advance: the pairs of velocity coefficients that share a
triangle.

Constant pressures span the nullspace of the step matrix on both sides,
and the mass equations, whose right-hand side is zero, stay consistent.
So the pressure needs a normalisation, not a Lagrange multiplier: the
step matrix pins one pressure coefficient in place of its mass equation,
which makes it nonsingular (see _StepSystem), and the final pressure is
shifted by a constant to zero mean.

One factorization serves many passes and steps, since the Jacobian
drifts slowly between them. It is rebuilt, at the current velocity, only
when a correction by a factor that had already made one fails to shrink
the residual eightfold, and a change of the formula's order, which
changes the time-derivative weight, drops it, since the matrix then
jumps; the Jacobian is assembled for a factorization and for nothing
else. A step stops at ``|F(x)| <= 1e-14 (|b| + |A|_inf |x|)``
(REFINE_TOL), with ``A`` the step matrix as last written, and raises
SolverError after MAX_PASSES passes that do not meet it. It starts from
the step vector predicted from the history of accepted steps (see
_StepHistory): the Newton–Gregory sum of its backward differences up to
fifth order, cut before the first difference whose velocity part stops
shrinking, so a smooth history is extrapolated to high order and a jump
or kink in the source lowers the order by itself (the initial state at
the first step, ``2 x_n - x_{n-1}`` at the second). A start that already
meets the stop costs one residual and no triangular solve, which is why
a run from rest with no source factors nothing.
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
    _check,
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
# Order of each scheme's backward-difference formula (see _StepHistory.bdf).
_ORDERS = {BACKWARD_EULER: 1, BDF2: 2}
# A step stops once |F(x)| <= REFINE_TOL (|b| + |A|_inf |x|). The stop is
# normwise over the whole step vector, so the velocity, the smaller part
# of it, converges a decade or so behind; at 1e-13 a drag run's velocity
# could stop 1e-9 short of the solution.
REFINE_TOL = 1e-14
# A step raises SolverError after this many passes (residual evaluations)
# of its chord iteration without meeting the stop (see _StepSystem.solve).
MAX_PASSES = 50
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

    ``picard_iterations`` counts the passes of the step's chord
    iteration, one nonlinear residual each, the last of which met the
    stop; a drag-free step is one linear solve and counts 1.
    ``increments`` holds the relative ``MU``-norm velocity correction of
    every pass that applied one (none when the start met the stop), and
    ``residual`` the relative residual ``|F| / (|b| + |A|_inf |x|)`` at
    the stop. ``refine_passes`` counts the triangular solves.
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

    Columns: step, time, chord passes (``picard_iterations``, 1 for a
    drag-free step), the relative velocity correction of the last
    triangular solve (``increment``, 0 when there was none), the relative
    residual at the stop, the L2 energies of the velocity and scaled
    gradient, and the factorizations and triangular solves
    (``refine_passes``) the step spent.
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
    """Backward differences of the accepted step vectors: the
    backward-difference formula of a step and the Newton–Gregory
    prediction of its solution.

    ``diffs[j]`` is ``∇^j x_n`` for ``j = 0..min(n, PREDICT_ORDER)``,
    with ``∇^0 x_n = x_n`` and ``∇^j x_n = ∇^{j-1} x_n - ∇^{j-1}
    x_{n-1}``; ``push`` updates the table with one subtraction per order.

    ``bdf`` splits the order-``q`` time derivative ``sum_{j<=q} (1/j)
    ∇^j x_{n+1} / dt`` into ``(sigma x_{n+1} - h) / dt``, by ``∇^j
    x_{n+1} = x_{n+1} - sum_{i<j} ∇^i x_n``: ``q = 1`` is backward Euler
    and ``q = 2`` BDF2 (``sigma = 3/2``, ``h = 2 x_n - x_{n-1} / 2``).

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

    def bdf(self, order: int) -> tuple[float, np.ndarray]:
        """Weight ``sigma = sum_{j<=q} 1/j`` and history term ``h = sum_{j<=q}
        (1/j) sum_{i<j} ∇^i x_n`` of the formula of order ``q = min(order,
        points stored)``, so that a multistep formula opens at the order
        its history allows."""
        sigma, h = 1.0, self.diffs[0]
        partial = h
        for j, d in enumerate(self.diffs[1:order], start=2):
            partial = partial + d
            sigma += 1.0 / j
            h = h + partial / j
        return sigma, h

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
    """The pinned step system of one run and the chord iteration that
    solves it: the matrix on one pattern, the held factorization and the
    stop.

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
    run. ``lin`` is the drag-free matrix on the same pattern (``A``
    itself without drag). The blocks outside the velocity block are
    written once. In the velocity block ``set_mass`` writes the fixed
    ``eps BU Mi BU^T`` part together with ``m MU`` into ``lin`` when
    ``m`` changes, and ``_write`` copies ``lin`` into ``A`` with ``beta
    J.data`` added through a precomputed slot map, with no sparse
    arithmetic. ``norm`` is the largest absolute row sum of ``A`` as
    last written.

    ``solve`` holds one factorization across the passes of a step and
    across steps; ``set_mass`` drops it, since the matrix then jumps.
    ``factor_count`` and ``refine_count`` count factorizations and
    passes that applied a correction (one triangular solve each).
    """

    def __init__(self, ops: Operators, se: float, beta: float):
        sl_u = _layout(ops, se)[0]
        drag = beta != 0.0
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
        self._sl_u = sl_u
        self._other_norm = self._row_sums(hi, n)
        self._U, self._MU, self._beta = ops.velocity, ops.MU, beta
        self._m = self.norm = self.lu = None
        self.factor_count = self.refine_count = 0

    @cached_property
    def _drag_mass(self) -> DragMassAssembler:
        """The drag Jacobian's assembler. It is made at the first
        factorization, after the temporaries of ``__init__`` are freed, so
        that its tables do not add to their peak memory."""
        return DragMassAssembler(self._U)

    def _row_sums(self, lo: int, hi: int) -> float:
        """Largest absolute row sum of ``A`` over rows lo..hi-1 (none of
        them is empty)."""
        ptr = self.A.indptr
        data = np.abs(self.A.data[ptr[lo] : ptr[hi]])
        return float(np.add.reduceat(data, ptr[lo:hi] - ptr[lo]).max())

    def _write(self, u=None):
        """Write ``lin`` into ``A``, with ``beta J(u)`` added on the drag
        pattern when ``u`` is given, and take ``norm``."""
        if self.A is not self.lin:
            self.A.data[:] = self.lin.data
            if u is not None:
                self.A.data[self._drag_slots] += self._beta * self._drag_mass(u).data
        self.norm = max(self._other_norm, self._row_sums(0, self._sl_u.stop))

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
        self._m, self.lu = m, None
        self._write()

    def _refactor(self, u):
        """Write the Jacobian at the velocity ``u`` into ``A`` and factor."""
        self._write(u)
        try:
            self.lu = splu(self.A.tocsc())
        except RuntimeError as exc:
            raise SolverError(f"factorization failed: {exc}") from exc
        self.factor_count += 1

    def solve(self, b, x):
        """Solve the step ``lin x + beta D(u) u = b`` by the chord
        iteration from the start ``x``.

        Returns the solution, the relative ``MU``-norm velocity correction
        of every pass that applied one, and the relative residual at the
        stop.

        Each pass forms the nonlinear residual ``F(x) = b - lin x - beta
        D(u) u`` at the velocity ``u`` of ``x``, with ``D(u) u`` applied
        without a matrix (forms.apply_drag), and stops once ``|F| <=
        REFINE_TOL (|b| + norm |x|)``. Otherwise it adds the correction
        ``LU^{-1} F`` of the held factor, one triangular solve. The factor
        is rebuilt, at the current ``u``, when none is held or when a
        correction by a factor that had already made one did not shrink
        the residual eightfold; only then is the drag Jacobian assembled.
        Raises SolverError when MAX_PASSES passes do not meet the stop (a
        NaN residual never does).
        """
        sl_u, beta = self._sl_u, self._beta
        bn = float(np.linalg.norm(b))
        increments, rn_prev = [], np.inf
        for passes in range(1, MAX_PASSES + 1):
            u = x[sl_u]
            r = b - self.lin @ x
            if beta != 0.0:
                r[sl_u] -= beta * apply_drag(self._U, u)
            rn = float(np.linalg.norm(r))
            scale = bn + self.norm * float(np.linalg.norm(x)) + 1e-300
            if rn <= REFINE_TOL * scale:
                return x, increments, rn / scale
            if passes == MAX_PASSES:
                break
            if self.lu is None or rn > 0.125 * rn_prev:
                self._refactor(u)
                rn_prev = np.inf
            else:
                rn_prev = rn
            dx = self.lu.solve(r)
            self.refine_count += 1
            x = x + dx
            increments.append(_l2(self._MU, dx[sl_u]) / max(_l2(self._MU, x[sl_u]), 1e-300))
        raise SolverError(
            f"no convergence in {MAX_PASSES} passes (relative residual {rn / scale:.2e})"
        )


def run_transient(
    ops: Operators,
    params: ModelParams,
    f,
    dt: float,
    n_steps: int,
    scheme: str = BACKWARD_EULER,
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
        opening step falls back to "be" (see _StepHistory.bdf).
    u0 : FieldCoefficients, optional
        Initial velocity in ``ops.velocity`` or another velocity space of
        the same mesh and degree; zero when omitted.

    Returns
    -------
    TransientResult
        Final fields (the pressure with zero mean) and the step
        diagnostics.
    """
    order = _ORDERS.get(scheme)
    if order is None:
        raise ValueError(f"unknown scheme {scheme!r}")
    if not 0.0 < dt < np.inf or n_steps < 1:
        raise ValueError("need a finite dt > 0 and at least one step")
    U, W, P, T = ops.velocity, ops.gradient, ops.pressure, ops.trace
    se = float(np.sqrt(params.epsilon))
    sl_u, sl_t, sl_p = _layout(ops, se)

    x = np.zeros(sl_p.stop)
    if u0 is not None:
        _check(u0.space, VELOCITY, ops.mesh, ops.k)
        x[sl_u] = u0.values
    history = _StepHistory(x, sl_u)
    reports: list[StepReport] = []
    system = _StepSystem(ops, se, params.beta)
    if f is None:
        load = lambda t: 0.0
    elif callable(f):
        load = lambda t: assemble_load(U, f, t=t)
    else:
        terms = [(a, assemble_load(U, g)) for a, g in f]
        load = lambda t: sum(a(t) * b for a, b in terms)

    for step in range(1, n_steps + 1):
        t_new = step * dt
        sigma, hist = history.bdf(order)
        b = np.zeros(sl_p.stop)
        b[sl_u] = ops.MU @ (hist[sl_u] / dt) + load(t_new)

        system.set_mass(sigma / dt + params.alpha)
        factors0, passes0 = system.factor_count, system.refine_count
        try:
            x, increments, resid = system.solve(b, history.predict())
        except SolverError as exc:
            raise SolverError(f"step {step}: {exc}") from exc

        history.push(x)
        # The velocity and trace slices lead the step vector.
        if se > 0.0:
            L = se * (ops.gradient_lift @ x[: sl_t.stop])
        else:
            L = np.zeros(W.global_dim)
        reports.append(
            StepReport(
                step=step,
                t=t_new,
                picard_iterations=len(increments) + 1 if params.beta != 0.0 else 1,
                increments=increments,
                residual=resid,
                u_l2=_l2(ops.MU, x[sl_u]),
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
        u=FieldCoefficients(U, x[sl_u], t=t_final),
        L=FieldCoefficients(W, L, t=t_final),
        uhat=FieldCoefficients(T, x[sl_t] if se > 0.0 else np.zeros(T.global_dim), t=t_final),
        p=FieldCoefficients(P, p, t=t_final),
        reports=reports,
    )

"""Bilinear forms of the staggered scheme on global moment DOFs.

Every operator is assembled on the broken monomial spaces and then
compressed through the expansion matrices, ``A = E_test^T A_broken
E_trial``. Edge terms follow one rule: quantities that are single valued
in the compressed space (pressure traces and normal velocity jumps pair
on primal edges, normal velocity traces and pressure jumps on dual
edges, and so on) enter as the two-sided average, which compression
turns into the actual trace; jumping quantities carry the edge
orientation signs. Boundary primal edges keep the one-sided value, so
the no-slip condition is enforced weakly through the jump terms.

Convention: the first space argument is the test (row) space, the second
the trial (column) space.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .spaces import (
    GRADIENT,
    PRESSURE,
    SMOOTH_DEGREE,
    TRACE,
    VELOCITY,
    DofSpace,
    FieldCoefficients,
    _field_values,
    edge_tables,
    enhanced_degree,
    std_degree,
    tri_tables,
)


class _Coo:
    """Accumulates dense blocks into COO triplets in broken indexing."""

    def __init__(self):
        self.rows = []
        self.cols = []
        self.vals = []

    def put(self, rbase, cbase, block):
        nr, nc = block.shape
        self.rows.append(np.repeat(np.arange(rbase, rbase + nr), nc))
        self.cols.append(np.tile(np.arange(cbase, cbase + nc), nr))
        self.vals.append(block.ravel())

    def matrix(self, shape):
        return sp.coo_matrix(
            (
                np.concatenate(self.vals),
                (np.concatenate(self.rows), np.concatenate(self.cols)),
            ),
            shape=shape,
        )


def _compressed(test: DofSpace, trial: DofSpace, buf: _Coo) -> sp.csr_matrix:
    broken = buf.matrix((test.broken_dim, trial.broken_dim)).tocsr()
    return (test.E.T @ broken @ trial.E).tocsr()


def _check(space: DofSpace, kind: str, mesh, k):
    if space.kind != kind:
        raise ValueError(f"expected a {kind} space, got {space.kind}")
    if space.mesh is not mesh or space.k != k:
        raise ValueError("spaces must share one mesh and degree")


def _grad_val(mesh, k):
    """D[t, c, m, n] = integral over triangle t of (d_c phi_m) phi_n."""
    ttab = tri_tables(mesh, k, std_degree(k))
    return np.einsum("tmqc,tq,tnq->tcmn", ttab.grad, ttab.w, ttab.val)


def _edge_sides(mesh, e):
    """Present sides and the averaging weights of a single-valued trace."""
    if mesh.edge_tri[e, 1] < 0:
        return (0,), (1.0, 0.0)
    return (0, 1), (0.5, 0.5)


def assemble_mass(space: DofSpace, weight=None) -> sp.csr_matrix:
    """Mass matrix of a volume space, optionally with a scalar weight.

    Parameters
    ----------
    space : DofSpace
        Velocity, gradient or pressure space.
    weight : FieldCoefficients or callable, optional
        Pointwise nonnegative weight. A velocity field is taken through
        its Euclidean norm (the frozen Picard factor); a callable maps
        (n, 2) points to an (n,) array. Weighted integrands are not
        polynomial, so they use the enhanced quadrature tier.
    """
    if space.kind == TRACE:
        raise ValueError("the trace space carries no mass matrix")
    mesh, k, nk = space.mesh, space.k, space.nk
    deg = std_degree(k) if weight is None else enhanced_degree(k)
    ttab = tri_tables(mesh, k, deg)
    w = ttab.w
    if weight is not None:
        if isinstance(weight, FieldCoefficients):
            wtab = tri_tables(mesh, weight.space.k, deg)
            vals = np.einsum("tcn,tnq->tcq", weight.space.broken(weight.values), wtab.val)
            wvals = np.hypot(vals[:, 0], vals[:, 1])
        else:
            nt, nq = w.shape
            wvals = np.asarray(weight(ttab.pts.reshape(-1, 2)), dtype=float)
            wvals = wvals.reshape(nt, nq)
        w = w * wvals
    blocks = np.einsum("tmq,tq,tnq->tmn", ttab.val, w, ttab.val)
    nt = mesh.n_triangles
    loc = space.loc_dim
    data = np.zeros((nt, loc, loc))
    for c in range(space.ncomp):
        data[:, c * nk : (c + 1) * nk, c * nk : (c + 1) * nk] = blocks
    broken = sp.bsr_matrix(
        (data, np.arange(nt), np.arange(nt + 1)),
        shape=(space.broken_dim, space.broken_dim),
    )
    return (space.E.T @ (broken @ space.E)).tocsr()


class DragMassAssembler:
    """Builds speed-weighted velocity mass matrices for repeated calls.

    Matches ``assemble_mass(space, weight=FieldCoefficients(space,
    coeffs))``, but the quadrature tables, per-triangle expansion blocks
    and the CSR pattern are precomputed once. That matters inside the
    frozen-drag iteration, where a fresh matrix is needed every sweep.
    Every call returns a canonical CSR matrix on the same ``indptr`` and
    ``indices``, so callers may scatter its ``data`` into a larger
    pattern through a fixed index map.
    """

    def __init__(self, space: DofSpace):
        if space.kind != VELOCITY:
            raise ValueError("speed weights require a velocity space")
        self.space = space
        ttab = tri_tables(space.mesh, space.k, enhanced_degree(space.k))
        self._val = ttab.val
        self._valT = np.ascontiguousarray(ttab.val.swapaxes(1, 2))
        self._w = ttab.w
        nt = space.mesh.n_triangles
        n_loc = space.dof_map.shape[1]
        self._Z = space.local_E.reshape(nt, space.ncomp, space.nk, n_loc)
        self._ZT = np.ascontiguousarray(self._Z.swapaxes(2, 3))
        # Each local entry (t, l, j) lands in the slot of (dof_map[t, l],
        # dof_map[t, j]) of the canonical pattern; bincount sums repeats.
        n = space.global_dim
        rows = np.repeat(space.dof_map, n_loc, axis=1).ravel()
        cols = np.tile(space.dof_map, (1, n_loc)).ravel()
        keys, self._slot = np.unique(rows * n + cols, return_inverse=True)
        self._indices = (keys % n).astype(np.int32)
        self._indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(keys // n, minlength=n), out=self._indptr[1:])
        # Every returned matrix shares these; in-place edits must fail.
        self._indices.flags.writeable = False
        self._indptr.flags.writeable = False

    def __call__(self, coeffs: np.ndarray) -> sp.csr_matrix:
        space = self.space
        coeffs = np.asarray(coeffs, dtype=float)
        local_coeffs = coeffs[space.dof_map][:, None, :, None]
        broken = np.matmul(self._Z, local_coeffs)[..., 0]
        vals = np.matmul(broken, self._val)
        w = self._w * np.hypot(vals[:, 0], vals[:, 1])
        blocks = np.matmul(self._val * w[:, None, :], self._valT)
        local = np.matmul(np.matmul(self._ZT, blocks[:, None]), self._Z).sum(axis=1)
        data = np.bincount(self._slot, weights=local.ravel(), minlength=len(self._indices))
        n = space.global_dim
        return sp.csr_matrix((data, self._indices, self._indptr), shape=(n, n))


def assemble_velocity_gradient(u_space: DofSpace, w_space: DofSpace) -> sp.csr_matrix:
    """Pairing of a matrix field against the broken velocity gradient.

    Rows test with velocity fields v, columns carry the matrix trial
    field G: (G, grad_h v), minus the primal-edge jump terms ([v], G n)
    and the per-side dual-edge terms (v.t)(t.G n). Boundary primal edges
    take the full one-sided trace of v.
    """
    mesh, k = u_space.mesh, u_space.k
    _check(u_space, VELOCITY, mesh, k)
    _check(w_space, GRADIENT, mesh, k)
    nk, locU, locW = u_space.nk, u_space.loc_dim, w_space.loc_dim
    D = _grad_val(mesh, k)
    etab = edge_tables(mesh, k, std_degree(k))
    buf = _Coo()
    for t in range(mesh.n_triangles):
        for a in range(2):
            for c in range(2):
                buf.put(t * locU + a * nk, t * locW + (2 * a + c) * nk, D[t, c])
    for e in mesh.primal_edges:
        ts = mesh.edge_tri[e]
        sides, avg = _edge_sides(mesh, e)
        n = mesh.edge_normal[e]
        tw = etab.trace[e] * etab.w[e]
        for sv in sides:
            for sg in sides:
                S = tw[sv] @ etab.trace[e, sg].T
                f = -mesh.edge_sign[e, sv] * avg[sg]
                for a in range(2):
                    for c in range(2):
                        buf.put(
                            ts[sv] * locU + a * nk,
                            ts[sg] * locW + (2 * a + c) * nk,
                            (f * n[c]) * S,
                        )
    for e in mesh.dual_edges:
        ts = mesh.edge_tri[e]
        n, tv = mesh.edge_normal[e], mesh.edge_tangent[e]
        tw = etab.trace[e] * etab.w[e]
        for s in (0, 1):
            S = tw[s] @ etab.trace[e, s].T
            f = -mesh.edge_sign[e, s]
            for a in range(2):
                for r in range(2):
                    for c in range(2):
                        buf.put(
                            ts[s] * locU + a * nk,
                            ts[s] * locW + (2 * r + c) * nk,
                            (f * tv[a] * tv[r] * n[c]) * S,
                        )
    return _compressed(u_space, w_space, buf)


def assemble_velocity_gradient_adjoint(
    w_space: DofSpace, u_space: DofSpace
) -> sp.csr_matrix:
    """Adjoint pairing: -(v, div_h G) plus dual-edge normal-jump terms.

    Equals the transpose of :func:`assemble_velocity_gradient` on the
    compressed spaces; both are assembled independently so that identity
    can be checked.
    """
    mesh, k = w_space.mesh, w_space.k
    _check(w_space, GRADIENT, mesh, k)
    _check(u_space, VELOCITY, mesh, k)
    nk, locU, locW = u_space.nk, u_space.loc_dim, w_space.loc_dim
    D = _grad_val(mesh, k)
    etab = edge_tables(mesh, k, std_degree(k))
    buf = _Coo()
    for t in range(mesh.n_triangles):
        for a in range(2):
            for c in range(2):
                buf.put(t * locW + (2 * a + c) * nk, t * locU + a * nk, -D[t, c])
    for e in mesh.dual_edges:
        ts = mesh.edge_tri[e]
        n = mesh.edge_normal[e]
        tw = etab.trace[e] * etab.w[e]
        for sg in (0, 1):
            f = 0.5 * mesh.edge_sign[e, sg]
            for sv in (0, 1):
                S = tw[sg] @ etab.trace[e, sv].T
                for r in range(2):
                    for c in range(2):
                        for a in range(2):
                            buf.put(
                                ts[sg] * locW + (2 * r + c) * nk,
                                ts[sv] * locU + a * nk,
                                (f * n[r] * n[c] * n[a]) * S,
                            )
    return _compressed(w_space, u_space, buf)


def assemble_divergence(p_space: DofSpace, u_space: DofSpace) -> sp.csr_matrix:
    """Velocity-pressure pairing (v, grad_h q) - sum over dual edges of
    ({v.n}, [q])."""
    mesh, k = p_space.mesh, p_space.k
    _check(p_space, PRESSURE, mesh, k)
    _check(u_space, VELOCITY, mesh, k)
    nk, locU = p_space.nk, u_space.loc_dim
    D = _grad_val(mesh, k)
    etab = edge_tables(mesh, k, std_degree(k))
    buf = _Coo()
    for t in range(mesh.n_triangles):
        for a in range(2):
            buf.put(t * nk, t * locU + a * nk, D[t, a])
    for e in mesh.dual_edges:
        ts = mesh.edge_tri[e]
        n = mesh.edge_normal[e]
        tw = etab.trace[e] * etab.w[e]
        for sq in (0, 1):
            f = -0.5 * mesh.edge_sign[e, sq]
            for sv in (0, 1):
                S = tw[sq] @ etab.trace[e, sv].T
                for a in range(2):
                    buf.put(ts[sq] * nk, ts[sv] * locU + a * nk, (f * n[a]) * S)
    return _compressed(p_space, u_space, buf)


def assemble_divergence_adjoint(u_space: DofSpace, p_space: DofSpace) -> sp.csr_matrix:
    """Pressure-velocity pairing -(q, div_h v) + sum over all primal
    edges of ({q}, [v.n]); the boundary terms enforce no-slip weakly."""
    mesh, k = u_space.mesh, u_space.k
    _check(u_space, VELOCITY, mesh, k)
    _check(p_space, PRESSURE, mesh, k)
    nk, locU = p_space.nk, u_space.loc_dim
    D = _grad_val(mesh, k)
    etab = edge_tables(mesh, k, std_degree(k))
    buf = _Coo()
    for t in range(mesh.n_triangles):
        for a in range(2):
            buf.put(t * locU + a * nk, t * nk, -D[t, a])
    for e in mesh.primal_edges:
        ts = mesh.edge_tri[e]
        sides, avg = _edge_sides(mesh, e)
        n = mesh.edge_normal[e]
        tw = etab.trace[e] * etab.w[e]
        for sv in sides:
            for sq in sides:
                S = tw[sv] @ etab.trace[e, sq].T
                f = mesh.edge_sign[e, sv] * avg[sq]
                for a in range(2):
                    buf.put(ts[sv] * locU + a * nk, ts[sq] * nk, (f * n[a]) * S)
    return _compressed(u_space, p_space, buf)


def assemble_trace_jump(t_space: DofSpace, w_space: DofSpace) -> sp.csr_matrix:
    """Dual-edge pairing of the matrix-field normal jump with tangential
    trace tests: sum over dual edges of ([G n], vhat)."""
    mesh, k = t_space.mesh, t_space.k
    _check(t_space, TRACE, mesh, k)
    _check(w_space, GRADIENT, mesh, k)
    nk, locW = w_space.nk, w_space.loc_dim
    etab = edge_tables(mesh, k, std_degree(k))
    buf = _Coo()
    for e in mesh.dual_edges:
        ts = mesh.edge_tri[e]
        n = mesh.edge_normal[e]
        that = mesh.edge_canon_tangent[e]
        rbase = int(t_space.trace_edge_dofs(e)[0])
        lw = etab.leg[e] * etab.w[e]
        for s in (0, 1):
            B = lw @ etab.trace[e, s].T
            f = mesh.edge_sign[e, s]
            for r in range(2):
                for c in range(2):
                    buf.put(
                        rbase, ts[s] * locW + (2 * r + c) * nk, (f * that[r] * n[c]) * B
                    )
    return _compressed(t_space, w_space, buf)


def assemble_trace_jump_adjoint(w_space: DofSpace, t_space: DofSpace) -> sp.csr_matrix:
    """Transposed-role version of :func:`assemble_trace_jump`."""
    mesh, k = w_space.mesh, w_space.k
    _check(w_space, GRADIENT, mesh, k)
    _check(t_space, TRACE, mesh, k)
    nk, locW = w_space.nk, w_space.loc_dim
    etab = edge_tables(mesh, k, std_degree(k))
    buf = _Coo()
    for e in mesh.dual_edges:
        ts = mesh.edge_tri[e]
        n = mesh.edge_normal[e]
        that = mesh.edge_canon_tangent[e]
        cbase = int(t_space.trace_edge_dofs(e)[0])
        for s in (0, 1):
            B = (etab.trace[e, s] * etab.w[e]) @ etab.leg[e].T
            f = mesh.edge_sign[e, s]
            for r in range(2):
                for c in range(2):
                    buf.put(
                        ts[s] * locW + (2 * r + c) * nk, cbase, (f * that[r] * n[c]) * B
                    )
    return _compressed(w_space, t_space, buf)


def pressure_integral(p_space: DofSpace) -> np.ndarray:
    """Vector of integrals of the pressure basis; pins the pressure mean."""
    _check(p_space, PRESSURE, p_space.mesh, p_space.k)
    ttab = tri_tables(p_space.mesh, p_space.k, std_degree(p_space.k))
    broken = np.einsum("tnq,tq->tn", ttab.val, ttab.w)
    return p_space.E.T @ broken.ravel()


def assemble_load(space: DofSpace, fieldfn, t: float | None = None) -> np.ndarray:
    """Vector of (f, basis_i) with f sampled at time t if it accepts one.

    Uses the smooth quadrature tier: load data is generally not
    polynomial. ``fieldfn`` maps (n, 2) points to values shaped like the
    space; with ``t`` given, ``fieldfn(points, t)`` is called instead.
    """
    if space.kind == TRACE:
        raise ValueError("trace-space loads do not appear in the scheme")
    mesh, k = space.mesh, space.k
    ttab = tri_tables(mesh, k, SMOOTH_DEGREE)
    nt, nq = ttab.w.shape
    fn = fieldfn if t is None else (lambda pts: fieldfn(pts, t))
    vals = _field_values(space, fn, ttab.pts.reshape(-1, 2))
    if space.kind == PRESSURE:
        broken = np.einsum("tnq,tq,tq->tn", ttab.val, ttab.w, vals.reshape(nt, nq))
    elif space.kind == VELOCITY:
        broken = np.einsum(
            "tnq,tq,tqc->tcn", ttab.val, ttab.w, vals.reshape(nt, nq, 2)
        )
    else:
        broken = np.einsum(
            "tnq,tq,tqrc->trcn", ttab.val, ttab.w, vals.reshape(nt, nq, 2, 2)
        )
    return space.E.T @ broken.reshape(nt, -1).ravel()


def apply_divergence(p_space: DofSpace, vfn) -> np.ndarray:
    """Velocity-pressure pairing of a smooth vector field against every
    pressure test function, on the same quadrature as interpolation.

    Sharing the rule with :func:`sdgflow.spaces.interpolate` makes the
    pairing of ``v - (interpolant of v)`` cancel to roundoff.
    """
    _check(p_space, PRESSURE, p_space.mesh, p_space.k)
    mesh, k = p_space.mesh, p_space.k
    ttab = tri_tables(mesh, k, SMOOTH_DEGREE)
    etab = edge_tables(mesh, k, SMOOTH_DEGREE)
    nt, nq = ttab.w.shape
    vvol = np.asarray(vfn(ttab.pts.reshape(-1, 2)), dtype=float).reshape(nt, nq, 2)
    r = np.einsum("tnqd,tq,tqd->tn", ttab.grad, ttab.w, vvol)
    for e in mesh.dual_edges:
        ts = mesh.edge_tri[e]
        vn = np.asarray(vfn(etab.pts[e]), dtype=float) @ mesh.edge_normal[e]
        for s in (0, 1):
            r[ts[s]] -= mesh.edge_sign[e, s] * (etab.trace[e, s] @ (etab.w[e] * vn))
    return p_space.E.T @ r.ravel()


def apply_divergence_adjoint(u_space: DofSpace, qfn) -> np.ndarray:
    """Pressure-velocity pairing of a smooth scalar field against every
    velocity test function; same quadrature as interpolation."""
    _check(u_space, VELOCITY, u_space.mesh, u_space.k)
    mesh, k = u_space.mesh, u_space.k
    ttab = tri_tables(mesh, k, SMOOTH_DEGREE)
    etab = edge_tables(mesh, k, SMOOTH_DEGREE)
    nt, nq = ttab.w.shape
    qvol = np.asarray(qfn(ttab.pts.reshape(-1, 2)), dtype=float).reshape(nt, nq)
    r = -np.einsum("tnqa,tq,tq->tan", ttab.grad, ttab.w, qvol)
    for e in mesh.primal_edges:
        ts = mesh.edge_tri[e]
        sides, _ = _edge_sides(mesh, e)
        n = mesh.edge_normal[e]
        qe = np.asarray(qfn(etab.pts[e]), dtype=float)
        for s in sides:
            vec = etab.trace[e, s] @ (etab.w[e] * qe)
            for a in range(2):
                r[ts[s], a] += mesh.edge_sign[e, s] * n[a] * vec
    return u_space.E.T @ r.reshape(nt, -1).ravel()

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

Assembly is batched: the volume terms take one table contraction for
all triangles, and each edge term one array expression per edge class
(primal or dual edges, and one pair of adjacent sides) that builds the
dense local blocks of all those edges at once. The blocks are scattered
in broken indexing as one COO matrix and then compressed; there is no
Python loop per element or edge.

Compression cancels some entries only up to roundoff, for example where
the contributions of two sides of an edge meet. Every compressed
operator drops the entries at most ``DROP_TOL`` times the largest
magnitude in their row or column (see :func:`drop_small`), so its
pattern does not depend on the summation order: an operator and its
independently assembled adjoint share one pattern, and the step
system's LU carries no fill from residues.

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
    _kron,
    edge_tables,
    enhanced_degree,
    std_degree,
    tri_tables,
)


DROP_TOL = 1e-12


def drop_small(A: sp.spmatrix) -> sp.csr_matrix:
    """Canonical CSR copy of ``A`` without the entries ``a_ij`` with
    ``|a_ij| <= DROP_TOL * max(row max_i, column max_j)``, the maxima
    taken over the magnitudes of ``A``."""
    A = sp.csr_matrix(A, copy=True)
    A.sum_duplicates()
    mag = np.abs(A.data)
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    row_max = np.zeros(A.shape[0])
    np.maximum.at(row_max, rows, mag)
    col_max = np.zeros(A.shape[1])
    np.maximum.at(col_max, A.indices, mag)
    A.data[mag <= DROP_TOL * np.maximum(row_max[rows], col_max[A.indices])] = 0.0
    A.eliminate_zeros()
    return A


def _compressed(test: DofSpace, trial: DofSpace, parts) -> sp.csr_matrix:
    """``E_test^T A E_trial`` for the broken matrix ``A`` given as dense
    blocks: each part is (row offsets (n,), column offsets (n,), blocks
    (n, nr, nc)) in broken indexing; overlapping blocks add up. Roundoff
    residues are dropped."""
    rows, cols, vals = [], [], []
    for r0, c0, blocks in parts:
        _, nr, nc = blocks.shape
        r = (r0[:, None] + np.arange(nr))[:, :, None]
        c = (c0[:, None] + np.arange(nc))[:, None, :]
        rows.append(np.broadcast_to(r, blocks.shape).ravel())
        cols.append(np.broadcast_to(c, blocks.shape).ravel())
        vals.append(blocks.ravel())
    broken = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(test.broken_dim, trial.broken_dim),
    ).tocsr()
    return drop_small(test.E.T @ broken @ trial.E)


def _edge_mass(etab, edges, s_test, s_trial) -> np.ndarray:
    """(n, nk, nk) edge integrals of the basis traces from side s_test
    against those from side s_trial."""
    tw = etab.trace[edges, s_test] * etab.w[edges][:, None]
    return np.matmul(tw, etab.trace[edges, s_trial].swapaxes(1, 2))


def _side_pairs(mesh, edges):
    """(edges, s1, s2, avg) for each pair of present sides of the given
    edges. ``avg`` weights the single-valued average of a trace: 1 on
    boundary edges (one side) and 1/2 on interior edges."""
    two = mesh.edge_tri[edges, 1] >= 0
    avg = np.where(two, 0.5, 1.0)
    pairs = []
    for s1 in (0, 1):
        for s2 in (0, 1):
            sel = two if s1 or s2 else slice(None)
            pairs.append((edges[sel], s1, s2, avg[sel]))
    return pairs


def _check(space: DofSpace, kind: str, mesh, k):
    if space.kind != kind:
        raise ValueError(f"expected a {kind} space, got {space.kind}")
    if space.mesh is not mesh or space.k != k:
        raise ValueError("spaces must share one mesh and degree")


def _grad_val(mesh, k):
    """D[t, c, m, n] = integral over triangle t of (d_c phi_m) phi_n."""
    ttab = tri_tables(mesh, k, std_degree(k))
    return np.einsum("tmqc,tq,tnq->tcmn", ttab.grad, ttab.w, ttab.val)


def assemble_mass(space: DofSpace, weight=None) -> sp.csr_matrix:
    """Mass matrix of a volume space, optionally with a scalar weight.

    Parameters
    ----------
    space : DofSpace
        Velocity, gradient or pressure space.
    weight : FieldCoefficients or callable, optional
        Pointwise nonnegative weight. A velocity field is taken through
        its Euclidean norm (the drag weight ``|u|``); a callable maps
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
    return drop_small(space.E.T @ (broken @ space.E))


class DragMassAssembler:
    """Builds the drag Jacobian of a velocity field for repeated calls.

    With ``D(u)`` the speed-weighted velocity mass (pointwise weight ``|u|
    I``, which ``assemble_mass(space, weight=FieldCoefficients(space,
    coeffs))`` assembles), ``drag(coeffs)`` is the derivative ``J(u)`` of
    ``u -> D(u) u``: the velocity mass with the 2x2 pointwise weight ``|u|
    I + u u^T / |u|``, whose second term is taken as zero where ``u``
    vanishes (the weight's norm is at most ``2 |u|``, so ``J(0) = 0`` with
    no regularization). On its quadrature ``J(u) u = 2 D(u) u`` holds
    exactly; :func:`apply_drag` gives ``D(u) u`` without a matrix.

    The basis products ``val_m val_n w_q`` of every triangle and the
    per-triangle expansion blocks are precomputed once, since the drag
    iteration needs a fresh matrix every sweep; a call contracts the
    three distinct entries of the symmetric pointwise weight with the
    products in one batched product. Every call returns a canonical CSR
    matrix on the space's ``indptr`` and ``indices`` (see
    DofSpace.pattern), so callers may scatter its ``data`` into a larger
    pattern through a fixed index map.
    """

    def __init__(self, space: DofSpace):
        if space.kind != VELOCITY:
            raise ValueError("speed weights require a velocity space")
        self.space = space
        ttab = tri_tables(space.mesh, space.k, enhanced_degree(space.k))
        self._val = ttab.val
        nt, nk, nq = ttab.val.shape
        # P[t, q, (m, n)] = val_m val_n w_q.
        self._products = np.einsum("tmq,tnq,tq->tqmn", ttab.val, ttab.val, ttab.w)
        self._products = self._products.reshape(nt, nq, nk * nk)
        # Position in the contracted entries (s, m, n) of every broken
        # block entry ((c, m), (d, n)), with s = c + d.
        entry = np.arange(3 * nk * nk).reshape(3, nk, nk)[[[0, 1], [1, 2]]]
        self._block_index = entry.transpose(0, 2, 1, 3).ravel()
        self._Z = space.local_E
        self._ZT = np.ascontiguousarray(self._Z.swapaxes(1, 2))

    def __call__(self, coeffs: np.ndarray) -> sp.csr_matrix:
        space = self.space
        nt, nk = space.mesh.n_triangles, space.nk
        vals, speed = _nodal_velocity(space, self._val, coeffs)
        # Entries (0, 0), (0, 1) and (1, 1) of the symmetric pointwise 2x2
        # weight.
        inv = np.divide(1.0, speed, out=np.zeros_like(speed), where=speed > 0.0)
        weight = vals[:, [0, 0, 1]] * vals[:, [0, 1, 1]] * inv[:, None]
        weight[:, ::2] += speed[:, None]
        # Broken block B[t, (c, m), (d, n)] = sum_q weight_cd val_m val_n
        # w_q, then the local matrix Z^T B Z.
        entries = np.matmul(weight, self._products).reshape(nt, -1)
        blocks = entries[:, self._block_index].reshape(nt, 2 * nk, 2 * nk)
        local = np.matmul(np.matmul(self._ZT, blocks), self._Z)
        indptr, indices, slot = space.pattern
        data = np.bincount(slot, weights=local.ravel(), minlength=len(indices))
        n = space.global_dim
        return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def _nodal_velocity(u_space: DofSpace, val: np.ndarray, coeffs: np.ndarray):
    """The velocity (nt, 2, nq) at the quadrature nodes of the basis table
    ``val`` and its speed (nt, nq)."""
    nt, nk = u_space.mesh.n_triangles, u_space.nk
    coeffs = np.asarray(coeffs, dtype=float)
    broken = np.matmul(u_space.local_E, coeffs[u_space.dof_map][:, :, None])
    vals = np.matmul(broken.reshape(nt, 2, nk), val)
    return vals, np.sqrt(vals[:, 0] ** 2 + vals[:, 1] ** 2)


def apply_drag(u_space: DofSpace, coeffs: np.ndarray) -> np.ndarray:
    """``D(u) u`` for the velocity with coefficients ``coeffs``, without
    the matrix: the pointwise drag ``|u| u`` against every velocity test
    function, on the quadrature of :class:`DragMassAssembler`, so it
    equals both the weighted mass ``assemble_mass(u_space, weight=u) @
    coeffs`` and half the Jacobian applied to ``coeffs`` to roundoff."""
    _check(u_space, VELOCITY, u_space.mesh, u_space.k)
    nt, nk = u_space.mesh.n_triangles, u_space.nk
    ttab = tri_tables(u_space.mesh, u_space.k, enhanced_degree(u_space.k))
    vals, speed = _nodal_velocity(u_space, ttab.val, coeffs)
    weighted = vals * (speed * ttab.w)[:, None]
    tested = np.matmul(weighted, ttab.val.swapaxes(1, 2)).reshape(nt, 2 * nk, 1)
    local = np.matmul(u_space.local_E.swapaxes(1, 2), tested).ravel()
    return np.bincount(u_space.dof_map.ravel(), weights=local, minlength=u_space.global_dim)


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
    tris = np.arange(mesh.n_triangles)
    parts = [
        (tris * locU + a * nk, tris * locW + (2 * a + c) * nk, D[:, c])
        for a in range(2)
        for c in range(2)
    ]
    for e, sv, sg, avg in _side_pairs(mesh, mesh.primal_edges):
        ts = mesh.edge_tri[e]
        f = -mesh.edge_sign[e, sv] * avg
        coef = (f[:, None] * mesh.edge_normal[e])[:, None]
        blocks = _kron(coef, _edge_mass(etab, e, sv, sg))
        # Velocity component a pairs with row a of the matrix field.
        for a in range(2):
            rows, cols = ts[:, sv] * locU + a * nk, ts[:, sg] * locW + 2 * a * nk
            parts.append((rows, cols, blocks))
    e = mesh.dual_edges
    n, tv = mesh.edge_normal[e], mesh.edge_tangent[e]
    for s in (0, 1):
        ts = mesh.edge_tri[e, s]
        f = -mesh.edge_sign[e, s]
        coef = np.einsum("e,ea,er,ec->earc", f, tv, tv, n).reshape(-1, 2, 4)
        blocks = _kron(coef, _edge_mass(etab, e, s, s))
        parts.append((ts * locU, ts * locW, blocks))
    return _compressed(u_space, w_space, parts)


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
    tris = np.arange(mesh.n_triangles)
    parts = [
        (tris * locW + (2 * a + c) * nk, tris * locU + a * nk, -D[:, c])
        for a in range(2)
        for c in range(2)
    ]
    for e, sg, sv, _ in _side_pairs(mesh, mesh.dual_edges):
        ts = mesh.edge_tri[e]
        n = mesh.edge_normal[e]
        f = 0.5 * mesh.edge_sign[e, sg]
        coef = np.einsum("e,er,ec,ea->erca", f, n, n, n).reshape(-1, 4, 2)
        blocks = _kron(coef, _edge_mass(etab, e, sg, sv))
        parts.append((ts[:, sg] * locW, ts[:, sv] * locU, blocks))
    return _compressed(w_space, u_space, parts)


def assemble_divergence(p_space: DofSpace, u_space: DofSpace) -> sp.csr_matrix:
    """Velocity-pressure pairing (v, grad_h q) - sum over dual edges of
    ({v.n}, [q])."""
    mesh, k = p_space.mesh, p_space.k
    _check(p_space, PRESSURE, mesh, k)
    _check(u_space, VELOCITY, mesh, k)
    nk, locU = p_space.nk, u_space.loc_dim
    D = _grad_val(mesh, k)
    etab = edge_tables(mesh, k, std_degree(k))
    tris = np.arange(mesh.n_triangles)
    parts = [(tris * nk, tris * locU + a * nk, D[:, a]) for a in range(2)]
    for e, sq, sv, _ in _side_pairs(mesh, mesh.dual_edges):
        ts = mesh.edge_tri[e]
        f = -0.5 * mesh.edge_sign[e, sq]
        coef = (f[:, None] * mesh.edge_normal[e])[:, None]
        blocks = _kron(coef, _edge_mass(etab, e, sq, sv))
        parts.append((ts[:, sq] * nk, ts[:, sv] * locU, blocks))
    return _compressed(p_space, u_space, parts)


def assemble_divergence_adjoint(u_space: DofSpace, p_space: DofSpace) -> sp.csr_matrix:
    """Pressure-velocity pairing -(q, div_h v) + sum over all primal
    edges of ({q}, [v.n]); the boundary terms enforce no-slip weakly."""
    mesh, k = u_space.mesh, u_space.k
    _check(u_space, VELOCITY, mesh, k)
    _check(p_space, PRESSURE, mesh, k)
    nk, locU = p_space.nk, u_space.loc_dim
    D = _grad_val(mesh, k)
    etab = edge_tables(mesh, k, std_degree(k))
    tris = np.arange(mesh.n_triangles)
    parts = [(tris * locU + a * nk, tris * nk, -D[:, a]) for a in range(2)]
    for e, sv, sq, avg in _side_pairs(mesh, mesh.primal_edges):
        ts = mesh.edge_tri[e]
        f = mesh.edge_sign[e, sv] * avg
        coef = (f[:, None] * mesh.edge_normal[e])[:, :, None]
        blocks = _kron(coef, _edge_mass(etab, e, sv, sq))
        parts.append((ts[:, sv] * locU, ts[:, sq] * nk, blocks))
    return _compressed(u_space, p_space, parts)


def _trace_jump_coef(mesh, e, s) -> np.ndarray:
    """(n, 4) coefficients sign * t_hat[r] * n[c] of component 2r + c."""
    f, that, n = mesh.edge_sign[e, s], mesh.edge_canon_tangent[e], mesh.edge_normal[e]
    return np.einsum("e,er,ec->erc", f, that, n).reshape(-1, 4)


def assemble_trace_jump(t_space: DofSpace, w_space: DofSpace) -> sp.csr_matrix:
    """Dual-edge pairing of the matrix-field normal jump with tangential
    trace tests: sum over dual edges of ([G n], vhat)."""
    mesh, k = t_space.mesh, t_space.k
    _check(t_space, TRACE, mesh, k)
    _check(w_space, GRADIENT, mesh, k)
    locW = w_space.loc_dim
    etab = edge_tables(mesh, k, std_degree(k))
    e = mesh.dual_edges
    rbase = t_space.trace_edge_dofs(e)[:, 0]
    lw = etab.leg[e] * etab.w[e][:, None]
    parts = []
    for s in (0, 1):
        B = np.matmul(lw, etab.trace[e, s].swapaxes(1, 2))
        blocks = _kron(_trace_jump_coef(mesh, e, s)[:, None], B)
        parts.append((rbase, mesh.edge_tri[e, s] * locW, blocks))
    return _compressed(t_space, w_space, parts)


def assemble_trace_jump_adjoint(w_space: DofSpace, t_space: DofSpace) -> sp.csr_matrix:
    """Transposed-role version of :func:`assemble_trace_jump`."""
    mesh, k = w_space.mesh, w_space.k
    _check(w_space, GRADIENT, mesh, k)
    _check(t_space, TRACE, mesh, k)
    locW = w_space.loc_dim
    etab = edge_tables(mesh, k, std_degree(k))
    e = mesh.dual_edges
    cbase = t_space.trace_edge_dofs(e)[:, 0]
    parts = []
    for s in (0, 1):
        B = np.matmul(etab.trace[e, s] * etab.w[e][:, None], etab.leg[e].swapaxes(1, 2))
        blocks = _kron(_trace_jump_coef(mesh, e, s)[:, :, None], B)
        parts.append((mesh.edge_tri[e, s] * locW, cbase, blocks))
    return _compressed(w_space, t_space, parts)


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
    e = mesh.dual_edges
    vedge = np.asarray(vfn(etab.pts[e].reshape(-1, 2)), dtype=float)
    vn = np.einsum("eqa,ea->eq", vedge.reshape(len(e), -1, 2), mesh.edge_normal[e])
    wvn = etab.w[e] * vn
    for s in (0, 1):
        vec = np.matmul(etab.trace[e, s], wvn[:, :, None])[:, :, 0]
        np.subtract.at(r, mesh.edge_tri[e, s], mesh.edge_sign[e, s][:, None] * vec)
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
    edges = mesh.primal_edges
    qedge = np.asarray(qfn(etab.pts[edges].reshape(-1, 2)), dtype=float)
    wq = etab.w[edges] * qedge.reshape(len(edges), -1)
    for s in (0, 1):
        present = mesh.edge_tri[edges, s] >= 0
        e = edges[present]
        vec = np.matmul(etab.trace[e, s], wq[present][:, :, None])[:, :, 0]
        coef = mesh.edge_sign[e, s][:, None] * mesh.edge_normal[e]
        np.add.at(r, mesh.edge_tri[e, s], coef[:, :, None] * vec[:, None])
    return u_space.E.T @ r.reshape(nt, -1).ravel()

"""Staggered degree-of-freedom spaces over a simplicial submesh.

Each space couples a broken piecewise-polynomial space (scaled monomials
per triangle) with moment degrees of freedom that are shared across the
edges carrying that variable's continuity:

* velocity: normal moments on dual edges (shared) + interior moments;
* gradient: row-wise normal moments on primal edges (shared on interior
  primal edges) + private tangential edge moments + interior moments;
* pressure: trace moments on primal edges (shared on interior ones) +
  interior moments;
* trace: per dual edge, tangential Legendre coefficients (no volume part).

The sparse matrix ``E`` expands global moment values into broken monomial
coefficients, one inverted local functional matrix per triangle. Shared
moments make matching edge traces agree pointwise, which realizes exactly
the staggered continuity of each space. Edge moments use the canonical
edge frame (low vertex id towards high), never the jump normal, so the
degrees of freedom do not depend on the jump orientation convention.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .mesh import DUAL, StaggeredMesh
from .polybasis import (
    edge_quadrature,
    eval_basis,
    tri_dim,
    triangle_quadrature,
)

VELOCITY = "velocity"
GRADIENT = "gradient"
PRESSURE = "pressure"
TRACE = "trace"

_NCOMP = {VELOCITY: 2, GRADIENT: 4, PRESSURE: 1}

# Quadrature exactness tiers. Matrix assembly integrates products of
# degree-k polynomials exactly at 2k+2. The smooth tier serves moment
# functionals and load vectors: interpolation moments and the form
# residuals tested against them must share one rule so that identities
# like b_h(v - J_h v, q) = 0 cancel to roundoff for non-polynomial v.
SMOOTH_DEGREE = 19


def std_degree(k: int) -> int:
    return 2 * k + 2


def enhanced_degree(k: int) -> int:
    return 2 * k + 4


@dataclass(frozen=True, eq=False)
class TriTables:
    """Quadrature nodes/weights and basis tables on every triangle."""

    pts: np.ndarray  # (nt, nq, 2)
    w: np.ndarray  # (nt, nq)
    val: np.ndarray  # (nt, nk, nq)
    grad: np.ndarray  # (nt, nk, nq, 2)


@dataclass(frozen=True, eq=False)
class EdgeTables:
    """Quadrature and trace tables on every edge.

    ``trace[e, s]`` holds the adjacent triangle's basis values sampled on
    edge e from side s (zeros when the side is absent). ``leg`` holds
    Legendre values in the canonical edge frame.
    """

    pts: np.ndarray  # (ne, nq, 2)
    w: np.ndarray  # (ne, nq)
    trace: np.ndarray  # (ne, 2, nk, nq)
    leg: np.ndarray  # (ne, k+1, nq)


# Tables per mesh, keyed by (kind, k, exactness). The weak keys let a
# mesh and its tables be freed together once nothing else holds the mesh.
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _cached(kind: str, build, mesh: StaggeredMesh, k: int, exactness: int):
    per_mesh = _TABLES.setdefault(mesh, {})
    key = (kind, k, exactness)
    if key not in per_mesh:
        per_mesh[key] = build(mesh, k, exactness)
    return per_mesh[key]


def tri_tables(mesh: StaggeredMesh, k: int, exactness: int) -> TriTables:
    """Cached per-triangle quadrature and basis tables."""
    return _cached("tri", _build_tri_tables, mesh, k, exactness)


def _build_tri_tables(mesh: StaggeredMesh, k: int, exactness: int) -> TriTables:
    nt = mesh.n_triangles
    nk = tri_dim(k)
    rule0 = triangle_quadrature(exactness, mesh.tri_coords(0))
    nq = len(rule0.weights)
    pts = np.empty((nt, nq, 2))
    w = np.empty((nt, nq))
    val = np.empty((nt, nk, nq))
    grad = np.empty((nt, nk, nq, 2))
    for t in range(nt):
        coords = mesh.tri_coords(t)
        rule = triangle_quadrature(exactness, coords)
        pts[t], w[t] = rule.points, rule.weights
        val[t], grad[t] = eval_basis(k, coords, rule.points)
    return TriTables(pts, w, val, grad)


def edge_tables(mesh: StaggeredMesh, k: int, exactness: int) -> EdgeTables:
    """Cached per-edge quadrature, trace and Legendre tables."""
    return _cached("edge", _build_edge_tables, mesh, k, exactness)


def _build_edge_tables(mesh: StaggeredMesh, k: int, exactness: int) -> EdgeTables:
    ne = mesh.n_edges
    nk = tri_dim(k)
    rule0 = edge_quadrature(exactness, mesh.edge_coords(0))
    nq = len(rule0.weights)
    pts = np.empty((ne, nq, 2))
    w = np.empty((ne, nq))
    trace = np.zeros((ne, 2, nk, nq))
    leg = np.empty((ne, k + 1, nq))
    for e in range(ne):
        coords = mesh.edge_coords(e)
        rule = edge_quadrature(exactness, coords)
        pts[e], w[e] = rule.points, rule.weights
        leg[e] = eval_basis(k, coords, rule.points)[0]
        for s in range(2):
            t = mesh.edge_tri[e, s]
            if t >= 0:
                trace[e, s] = eval_basis(k, mesh.tri_coords(t), rule.points)[0]
    return EdgeTables(pts, w, trace, leg)


class DofSpace:
    """One staggered space over a mesh; see the module docstring.

    Attributes
    ----------
    broken_dim : int
        Total monomial coefficients over all triangles (components
        included); equals ``global_dim`` for the trace space.
    global_dim : int
        Independent moment degrees of freedom after edge sharing.
    dof_map : ndarray
        Shape (nt, n_local_dofs); global index of every local functional.
    E : scipy.sparse.csr_matrix
        (broken_dim, global_dim) expansion from moment values to broken
        coefficients.
    local_E : ndarray
        Shape (nt, loc_dim, n_local_dofs); the dense per-triangle blocks
        of ``E``, indexed by ``dof_map`` columns.
    """

    def __init__(self, mesh: StaggeredMesh, kind: str, k: int):
        if kind not in (VELOCITY, GRADIENT, PRESSURE, TRACE):
            raise ValueError(f"unknown space kind {kind!r}")
        if k < 0:
            raise ValueError("polynomial degree must be >= 0")
        self.mesh = mesh
        self.kind = kind
        self.k = k
        self.nk = tri_dim(k)
        self.nk1 = tri_dim(k - 1) if k >= 1 else 0
        if kind == TRACE:
            self.ncomp = 2
            self.loc_dim = 0
            self.global_dim = (k + 1) * len(mesh.dual_edges)
            self.broken_dim = self.global_dim
            self.dof_map = np.empty((0, 0), dtype=int)
            self.local_E = np.empty((0, 0, 0))
            self.E = sp.identity(self.global_dim, format="csr")
            self._dual_index = {int(e): i for i, e in enumerate(mesh.dual_edges)}
            return
        self.ncomp = _NCOMP[kind]
        self.loc_dim = self.ncomp * self.nk
        self.broken_dim = self.loc_dim * mesh.n_triangles
        self._build()

    # ----- global numbering ------------------------------------------------

    def _build(self):
        mesh, k, nk, nk1 = self.mesh, self.k, self.nk, self.nk1
        nt = mesh.n_triangles
        kp1 = k + 1
        if self.kind == VELOCITY:
            dual = mesh.dual_edges
            self._dual_index = {int(e): i for i, e in enumerate(dual)}
            edge_block = kp1 * len(dual)
            self.global_dim = edge_block + 2 * nk1 * nt
            n_loc = 2 * kp1 + 2 * nk1
        elif self.kind == PRESSURE:
            primal = mesh.primal_edges
            self._primal_index = {int(e): i for i, e in enumerate(primal)}
            edge_block = kp1 * len(primal)
            self.global_dim = edge_block + nk1 * nt
            n_loc = kp1 + nk1
        else:  # GRADIENT
            primal = mesh.primal_edges
            self._primal_index = {int(e): i for i, e in enumerate(primal)}
            edge_block = 2 * kp1 * len(primal)
            tang_block = 2 * kp1 * nt
            self.global_dim = edge_block + tang_block + 4 * nk1 * nt
            n_loc = 4 * kp1 + 4 * nk1
        self._edge_block = edge_block
        self.dof_map = np.empty((nt, n_loc), dtype=int)
        for t in range(nt):
            self.dof_map[t] = self._local_dofs(t)
        self._assemble_expansion()

    def _local_dofs(self, t: int) -> np.ndarray:
        mesh, k, nk1 = self.mesh, self.k, self.nk1
        kp1 = k + 1
        ids: list[int] = []
        if self.kind == VELOCITY:
            for de in mesh.tri_dual[t]:
                base = self._dual_index[int(de)] * kp1
                ids.extend(range(base, base + kp1))
            base = self._edge_block + t * 2 * nk1
            ids.extend(range(base, base + 2 * nk1))
        elif self.kind == PRESSURE:
            base = self._primal_index[int(mesh.tri_pedge[t])] * kp1
            ids.extend(range(base, base + kp1))
            base = self._edge_block + t * nk1
            ids.extend(range(base, base + nk1))
        else:
            base = self._primal_index[int(mesh.tri_pedge[t])] * 2 * kp1
            ids.extend(range(base, base + 2 * kp1))
            base = self._edge_block + t * 2 * kp1
            ids.extend(range(base, base + 2 * kp1))
            base = self._edge_block + 2 * kp1 * mesh.n_triangles + t * 4 * nk1
            ids.extend(range(base, base + 4 * nk1))
        return np.array(ids, dtype=int)

    # ----- local functional matrices ---------------------------------------

    def _edge_moments(self, etab: EdgeTables, e: int, side: int) -> np.ndarray:
        """(k+1, nk) matrix of (1/h_e) edge moments of the basis trace."""
        h = self.mesh.edge_length[e]
        return (etab.leg[e] * (etab.w[e] / h)) @ etab.trace[e, side].T

    def _interior_moments(self, ttab: TriTables, t: int, area: float) -> np.ndarray:
        """(nk1, nk) matrix of (1/|tau|) moments against degree k-1 monomials."""
        return (ttab.val[t, : self.nk1] * (ttab.w[t] / area)) @ ttab.val[t].T

    def _functional_matrix(self, t, ttab, etab, areas) -> np.ndarray:
        """V[i, j] = functional_i(basis_j) on triangle t; square and invertible."""
        mesh, k, nk, nk1 = self.mesh, self.k, self.nk, self.nk1
        kp1 = k + 1
        V = np.zeros((self.loc_dim, self.loc_dim))
        if self.kind == VELOCITY:
            row = 0
            for de in mesh.tri_dual[t]:
                side = 0 if mesh.edge_tri[de, 0] == t else 1
                mom = self._edge_moments(etab, de, side)
                n_hat = mesh.edge_canon_normal[de]
                for c in range(2):
                    V[row : row + kp1, c * nk : (c + 1) * nk] += n_hat[c] * mom
                row += kp1
            imom = self._interior_moments(ttab, t, areas[t])
            for c in range(2):
                V[row : row + nk1, c * nk : (c + 1) * nk] = imom
                row += nk1
        elif self.kind == PRESSURE:
            pe = mesh.tri_pedge[t]
            side = 0 if mesh.edge_tri[pe, 0] == t else 1
            V[:kp1, :] = self._edge_moments(etab, pe, side)
            V[kp1:, :] = self._interior_moments(ttab, t, areas[t])
        else:
            pe = mesh.tri_pedge[t]
            side = 0 if mesh.edge_tri[pe, 0] == t else 1
            mom = self._edge_moments(etab, pe, side)
            n_hat = mesh.edge_canon_normal[pe]
            t_hat = mesh.edge_canon_tangent[pe]
            row = 0
            for direction in (n_hat, t_hat):
                for r in range(2):
                    for c in range(2):
                        comp = 2 * r + c
                        V[row : row + kp1, comp * nk : (comp + 1) * nk] += (
                            direction[c] * mom
                        )
                    row += kp1
            imom = self._interior_moments(ttab, t, areas[t])
            for comp in range(4):
                V[row : row + nk1, comp * nk : (comp + 1) * nk] = imom
                row += nk1
        return V

    def _assemble_expansion(self):
        mesh = self.mesh
        deg = std_degree(self.k)
        ttab = tri_tables(mesh, self.k, deg)
        etab = edge_tables(mesh, self.k, deg)
        areas = mesh.tri_areas()
        nt = mesh.n_triangles
        n_loc = self.dof_map.shape[1]
        rows = np.empty(nt * self.loc_dim * n_loc, dtype=int)
        cols = np.empty_like(rows)
        data = np.empty(rows.shape)
        blk = self.loc_dim * n_loc
        self.local_E = np.empty((nt, self.loc_dim, n_loc))
        for t in range(nt):
            V = self._functional_matrix(t, ttab, etab, areas)
            Vinv = np.linalg.inv(V)
            self.local_E[t] = Vinv
            r = np.repeat(np.arange(self.loc_dim) + t * self.loc_dim, n_loc)
            c = np.tile(self.dof_map[t], self.loc_dim)
            rows[t * blk : (t + 1) * blk] = r
            cols[t * blk : (t + 1) * blk] = c
            data[t * blk : (t + 1) * blk] = Vinv.ravel()
        self.E = sp.coo_matrix(
            (data, (rows, cols)), shape=(self.broken_dim, self.global_dim)
        ).tocsr()

    # ----- field handling ---------------------------------------------------

    def broken(self, coeffs: np.ndarray) -> np.ndarray:
        """Broken coefficients, shaped (nt, ncomp, nk), from global values."""
        if self.kind == TRACE:
            raise ValueError("the trace space has no broken triangle form")
        out = self.E @ np.asarray(coeffs, dtype=float)
        return out.reshape(self.mesh.n_triangles, self.ncomp, self.nk)

    def trace_edge_dofs(self, e: int) -> np.ndarray:
        """Global indices of the trace DOFs on dual edge e."""
        base = self._dual_index[int(e)] * (self.k + 1)
        return np.arange(base, base + self.k + 1)


@dataclass(eq=False)
class FieldCoefficients:
    """Coefficient vector attached to its space, optionally time-stamped."""

    space: DofSpace
    values: np.ndarray
    t: float | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.space.global_dim,):
            raise ValueError(
                f"coefficient length {self.values.shape} does not match the "
                f"space dimension {self.space.global_dim}"
            )


def build_space(mesh: StaggeredMesh, kind: str, k: int) -> DofSpace:
    """Build one of the four staggered spaces on the mesh."""
    return DofSpace(mesh, kind, k)


def _field_values(space: DofSpace, fieldfn, pts: np.ndarray) -> np.ndarray:
    """Evaluate a user field, normalizing the output shape."""
    out = np.asarray(fieldfn(pts), dtype=float)
    if space.kind == PRESSURE:
        want = (len(pts),)
    elif space.kind == GRADIENT:
        want = (len(pts), 2, 2)
    else:
        want = (len(pts), 2)
    if out.shape != want:
        raise ValueError(
            f"field returned shape {out.shape}, expected {want} for {space.kind}"
        )
    return out


def interpolate(space: DofSpace, fieldfn, t: float | None = None) -> FieldCoefficients:
    """Apply the space's moment functionals to a smooth field.

    For the velocity space this realizes the edge-normal/interior-moment
    projection; for the pressure space the primal-edge/interior-moment
    projection. Polynomials of degree <= k are reproduced exactly.

    Parameters
    ----------
    space : DofSpace
    fieldfn : callable
        Maps an (n, 2) point array to field values shaped (n,), (n, 2) or
        (n, 2, 2) according to the space kind.
    t : float, optional
        Time stamp stored on the result.
    """
    mesh, k = space.mesh, space.k
    kp1 = k + 1
    g = np.zeros(space.global_dim)
    etab = edge_tables(mesh, k, SMOOTH_DEGREE)

    if space.kind == TRACE:
        for i, e in enumerate(mesh.dual_edges):
            vals = _field_values(space, fieldfn, etab.pts[e])
            tang = vals @ mesh.edge_canon_tangent[e]
            scale = (2 * np.arange(kp1) + 1) / mesh.edge_length[e]
            g[i * kp1 : (i + 1) * kp1] = scale * ((etab.leg[e] * etab.w[e]) @ tang)
        return FieldCoefficients(space, g, t)

    ttab = tri_tables(mesh, k, SMOOTH_DEGREE)
    areas = mesh.tri_areas()
    nk1 = space.nk1

    if space.kind == VELOCITY:
        for i, e in enumerate(mesh.dual_edges):
            vals = _field_values(space, fieldfn, etab.pts[e])
            normal = vals @ mesh.edge_canon_normal[e]
            g[i * kp1 : (i + 1) * kp1] = (
                (etab.leg[e] * (etab.w[e] / mesh.edge_length[e])) @ normal
            )
        if nk1:
            for tri in range(mesh.n_triangles):
                vals = _field_values(space, fieldfn, ttab.pts[tri])
                mom = (ttab.val[tri, :nk1] * (ttab.w[tri] / areas[tri])) @ vals
                base = space._edge_block + tri * 2 * nk1
                g[base : base + 2 * nk1] = mom.T.ravel()
    elif space.kind == PRESSURE:
        for i, e in enumerate(mesh.primal_edges):
            vals = _field_values(space, fieldfn, etab.pts[e])
            g[i * kp1 : (i + 1) * kp1] = (
                (etab.leg[e] * (etab.w[e] / mesh.edge_length[e])) @ vals
            )
        if nk1:
            for tri in range(mesh.n_triangles):
                vals = _field_values(space, fieldfn, ttab.pts[tri])
                base = space._edge_block + tri * nk1
                g[base : base + nk1] = (
                    ttab.val[tri, :nk1] * (ttab.w[tri] / areas[tri])
                ) @ vals
    else:  # GRADIENT
        for i, e in enumerate(mesh.primal_edges):
            vals = _field_values(space, fieldfn, etab.pts[e])
            wob = etab.leg[e] * (etab.w[e] / mesh.edge_length[e])
            gn = vals @ mesh.edge_canon_normal[e]
            base = i * 2 * kp1
            for r in range(2):
                g[base + r * kp1 : base + (r + 1) * kp1] = wob @ gn[:, r]
        tang_base = space._edge_block
        for tri in range(mesh.n_triangles):
            pe = mesh.tri_pedge[tri]
            # Tangential moments are sampled on the triangle's own side of
            # its primal edge; for a smooth field both sides agree.
            vals = _field_values(space, fieldfn, etab.pts[pe])
            wob = etab.leg[pe] * (etab.w[pe] / mesh.edge_length[pe])
            gt = vals @ mesh.edge_canon_tangent[pe]
            base = tang_base + tri * 2 * kp1
            for r in range(2):
                g[base + r * kp1 : base + (r + 1) * kp1] = wob @ gt[:, r]
        if nk1:
            ibase = tang_base + 2 * kp1 * mesh.n_triangles
            for tri in range(mesh.n_triangles):
                vals = _field_values(space, fieldfn, ttab.pts[tri])
                mom = np.einsum(
                    "mq,qrc->rcm",
                    ttab.val[tri, :nk1] * (ttab.w[tri] / areas[tri]),
                    vals,
                )
                base = ibase + tri * 4 * nk1
                g[base : base + 4 * nk1] = mom.ravel()
    return FieldCoefficients(space, g, t)


def evaluate_field(fc: FieldCoefficients, tri: int, points) -> np.ndarray:
    """Evaluate a discrete field inside one triangle.

    Returns (n,) for pressure, (n, 2) for velocity, (n, 2, 2) for the
    gradient space.
    """
    space = fc.space
    if space.kind == TRACE:
        raise ValueError("use evaluate_trace for the trace space")
    mesh = space.mesh
    if not 0 <= tri < mesh.n_triangles:
        raise IndexError(f"triangle index {tri} out of range")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rows = slice(tri * space.loc_dim, (tri + 1) * space.loc_dim)
    local = (space.E[rows] @ fc.values).reshape(space.ncomp, space.nk)
    vals, _ = eval_basis(space.k, mesh.tri_coords(tri), pts)
    out = local @ vals
    if space.kind == PRESSURE:
        return out[0]
    if space.kind == GRADIENT:
        return out.T.reshape(len(pts), 2, 2)
    return out.T


def evaluate_trace(fc: FieldCoefficients, edge: int, points) -> np.ndarray:
    """Evaluate a trace-space field on one dual edge; returns (n, 2)."""
    space = fc.space
    if space.kind != TRACE:
        raise ValueError("evaluate_trace expects a trace-space field")
    mesh = space.mesh
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    vals, _ = eval_basis(space.k, mesh.edge_coords(edge), pts)
    coef = fc.values[space.trace_edge_dofs(edge)]
    return np.outer(coef @ vals, mesh.edge_canon_tangent[edge])

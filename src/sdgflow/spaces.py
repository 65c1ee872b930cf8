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

Everything here is computed for all triangles or edges at once, with no
Python loop per element: the quadrature tables are affine images of one
reference rule with the basis evaluated in one batched pass (see
``polybasis``), the numbering is array arithmetic on the mesh's edge
tables, the local functional matrices of all triangles are stacked and
inverted by one ``np.linalg.inv`` call, and interpolation evaluates the
field once per edge class and once on all triangles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .mesh import StaggeredMesh
from .polybasis import (
    edge_rules,
    eval_basis,
    eval_edge_basis,
    eval_triangle_basis,
    tri_dim,
    triangle_rules,
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


def _cached(kind: str, build, mesh: StaggeredMesh, k: int, exactness: int):
    """Tables of one kind, kept on the mesh keyed by (kind, k, exactness)."""
    key = (kind, k, exactness)
    if key not in mesh.tables:
        mesh.tables[key] = build(mesh, k, exactness)
    return mesh.tables[key]


def tri_tables(mesh: StaggeredMesh, k: int, exactness: int) -> TriTables:
    """Cached per-triangle quadrature and basis tables."""
    return _cached("tri", _build_tri_tables, mesh, k, exactness)


def _build_tri_tables(mesh: StaggeredMesh, k: int, exactness: int) -> TriTables:
    coords = mesh.points[mesh.tri]
    pts, w = triangle_rules(exactness, coords)
    val, grad = eval_triangle_basis(k, coords, pts)
    return TriTables(pts, w, val, grad)


def edge_tables(mesh: StaggeredMesh, k: int, exactness: int) -> EdgeTables:
    """Cached per-edge quadrature, trace and Legendre tables."""
    return _cached("edge", _build_edge_tables, mesh, k, exactness)


def _build_edge_tables(mesh: StaggeredMesh, k: int, exactness: int) -> EdgeTables:
    coords = mesh.points[mesh.edge_points]
    pts, w = edge_rules(exactness, coords)
    leg = eval_edge_basis(k, coords, pts)[0]
    # Every present side (e, s) samples its triangle's basis on edge e.
    e, s = np.nonzero(mesh.edge_tri >= 0)
    t = mesh.edge_tri[e, s]
    trace = np.zeros((len(coords), 2, tri_dim(k), pts.shape[1]))
    trace[e, s] = eval_triangle_basis(k, mesh.points[mesh.tri[t]], pts[e])[0]
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
            self._dual_pos = _positions(mesh.dual_edges, mesh.n_edges)
            return
        self.ncomp = _NCOMP[kind]
        self.loc_dim = self.ncomp * self.nk
        self.broken_dim = self.loc_dim * mesh.n_triangles
        self._number()
        self._expand()

    # ----- global numbering ------------------------------------------------

    def _number(self):
        """Global numbering: shared edge moments first, then the private
        per-triangle blocks. Each triangle's local functionals are runs of
        consecutive global indices, given as (first index per triangle,
        run length) and concatenated into ``dof_map``."""
        mesh, k, nk1 = self.mesh, self.k, self.nk1
        nt = mesh.n_triangles
        kp1 = k + 1
        tris = np.arange(nt)
        if self.kind == VELOCITY:
            first = _positions(mesh.dual_edges, mesh.n_edges)[mesh.tri_dual] * kp1
            edge_block = kp1 * len(mesh.dual_edges)
            self.global_dim = edge_block + 2 * nk1 * nt
            runs = [(first[:, 0], kp1), (first[:, 1], kp1)]
            runs.append((edge_block + tris * 2 * nk1, 2 * nk1))
        elif self.kind == PRESSURE:
            first = _positions(mesh.primal_edges, mesh.n_edges)[mesh.tri_pedge] * kp1
            edge_block = kp1 * len(mesh.primal_edges)
            self.global_dim = edge_block + nk1 * nt
            runs = [(first, kp1), (edge_block + tris * nk1, nk1)]
        else:  # GRADIENT
            first = _positions(mesh.primal_edges, mesh.n_edges)[mesh.tri_pedge]
            first *= 2 * kp1
            edge_block = 2 * kp1 * len(mesh.primal_edges)
            tang_block = 2 * kp1 * nt
            self.global_dim = edge_block + tang_block + 4 * nk1 * nt
            runs = [(first, 2 * kp1), (edge_block + tris * 2 * kp1, 2 * kp1)]
            runs.append((edge_block + tang_block + tris * 4 * nk1, 4 * nk1))
        self._edge_block = edge_block
        self.dof_map = np.concatenate(
            [start[:, None] + np.arange(width) for start, width in runs], axis=1
        )

    # ----- local functional matrices ---------------------------------------

    def _functional_matrices(self) -> np.ndarray:
        """V[t, i, j] = functional_i(basis_j) on triangle t; each square and
        invertible. Edge moments use the canonical edge frame and are taken
        from the triangle's own side of the edge."""
        mesh, k, nk, nk1 = self.mesh, self.k, self.nk, self.nk1
        kp1 = k + 1
        nt = mesh.n_triangles
        tris = np.arange(nt)
        deg = std_degree(k)
        ttab = tri_tables(mesh, k, deg)
        etab = edge_tables(mesh, k, deg)

        def edge_moments(e):
            """(nt, k+1, nk) (1/h_e) moments of the basis traces on edges e."""
            side = np.where(mesh.edge_tri[e, 0] == tris, 0, 1)
            wob = etab.leg[e] * (etab.w[e] / mesh.edge_length[e][:, None])[:, None]
            return np.matmul(wob, etab.trace[e, side].swapaxes(1, 2))

        def kron2(coef, mom):
            """Rows coef[t, c] * mom[t] side by side over components c."""
            return (mom[:, :, None, :] * coef[:, None, :, None]).reshape(nt, -1, 2 * nk)

        # (1/|tau|) moments against the degree k-1 monomials.
        areas = mesh.tri_areas()
        imom = np.matmul(
            ttab.val[:, :nk1] * (ttab.w / areas[:, None])[:, None],
            ttab.val.swapaxes(1, 2),
        )
        V = np.zeros((nt, self.loc_dim, self.loc_dim))
        if self.kind == VELOCITY:
            for i in range(2):
                de = mesh.tri_dual[:, i]
                V[:, i * kp1 : (i + 1) * kp1] = kron2(
                    mesh.edge_canon_normal[de], edge_moments(de)
                )
            row = 2 * kp1
        elif self.kind == PRESSURE:
            V[:, :kp1] = edge_moments(mesh.tri_pedge)
            row = kp1
        else:
            pe = mesh.tri_pedge
            mom = edge_moments(pe)
            # Row r of the matrix field against the normal, then the tangent.
            for d, direction in enumerate(
                (mesh.edge_canon_normal[pe], mesh.edge_canon_tangent[pe])
            ):
                for r in range(2):
                    rows = slice((2 * d + r) * kp1, (2 * d + r + 1) * kp1)
                    V[:, rows, 2 * r * nk : (2 * r + 2) * nk] = kron2(direction, mom)
            row = 4 * kp1
        for c in range(self.ncomp):
            V[:, row + c * nk1 : row + (c + 1) * nk1, c * nk : (c + 1) * nk] = imom
        return V

    def _expand(self):
        self.local_E = np.linalg.inv(self._functional_matrices())
        n_loc = self.dof_map.shape[1]
        rows = np.repeat(np.arange(self.broken_dim), n_loc)
        cols = np.repeat(self.dof_map, self.loc_dim, axis=0).ravel()
        shape = (self.broken_dim, self.global_dim)
        self.E = sp.coo_matrix((self.local_E.ravel(), (rows, cols)), shape=shape).tocsr()

    @cached_property
    def pattern(self) -> tuple:
        """``(indptr, indices, slot)``: the canonical CSR pattern of the
        pairs of DOFs that share a triangle, which every volume form on
        the space fits, and the position in it of every local entry
        ``(dof_map[t, l], dof_map[t, j])`` in (t, l, j) order (repeats sum).
        The arrays are read-only."""
        n, n_loc = self.global_dim, self.dof_map.shape[1]
        rows = np.repeat(self.dof_map, n_loc, axis=1).ravel()
        cols = np.tile(self.dof_map, (1, n_loc)).ravel()
        keys, slot = np.unique(rows * n + cols, return_inverse=True)
        indptr = np.searchsorted(keys // n, np.arange(n + 1)).astype(np.int32)
        out = (indptr, (keys % n).astype(np.int32), slot)
        for a in out:
            a.flags.writeable = False
        return out

    # ----- field handling ---------------------------------------------------

    def broken(self, coeffs: np.ndarray) -> np.ndarray:
        """Broken coefficients, shaped (nt, ncomp, nk), from global values."""
        if self.kind == TRACE:
            raise ValueError("the trace space has no broken triangle form")
        out = self.E @ np.asarray(coeffs, dtype=float)
        return out.reshape(self.mesh.n_triangles, self.ncomp, self.nk)

    def trace_edge_dofs(self, e) -> np.ndarray:
        """Global indices of the trace DOFs on dual edge e; for an array of
        edges, one row per edge."""
        pos = np.asarray(self._dual_pos[e])
        if np.any(pos < 0):
            raise ValueError("trace DOFs live on dual edges only")
        return (pos * (self.k + 1))[..., None] + np.arange(self.k + 1)


def _positions(edges: np.ndarray, n_edges: int) -> np.ndarray:
    """Position of each listed edge in the list; -1 for the other edges."""
    pos = np.full(n_edges, -1)
    pos[edges] = np.arange(len(edges))
    return pos


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
    etab = edge_tables(mesh, k, SMOOTH_DEGREE)

    def on_edges(edges):
        """Field values at the quadrature nodes of the given edges and the
        (1/h_e) Legendre moment weights, shaped (n, k+1, nq)."""
        pts = etab.pts[edges]
        vals = _field_values(space, fieldfn, pts.reshape(-1, 2))
        wh = etab.w[edges] / mesh.edge_length[edges][:, None]
        return vals.reshape(pts.shape[:2] + vals.shape[1:]), etab.leg[edges] * wh[:, None]

    if space.kind == TRACE:
        dual = mesh.dual_edges
        vals, wob = on_edges(dual)
        tang = np.einsum("eqc,ec->eq", vals, mesh.edge_canon_tangent[dual])
        scale = 2 * np.arange(k + 1) + 1
        g = scale * np.matmul(wob, tang[:, :, None])[:, :, 0]
        return FieldCoefficients(space, g.ravel(), t)

    # Edge moments of the value (pressure) or of the normal component
    # (velocity on dual edges; each row of the matrix field on primal edges).
    edges = mesh.dual_edges if space.kind == VELOCITY else mesh.primal_edges
    vals, wob = on_edges(edges)
    normal = vals
    if space.kind != PRESSURE:
        normal = np.einsum("eq...c,ec->eq...", vals, mesh.edge_canon_normal[edges])
    parts = [np.einsum("emq,eq...->e...m", wob, normal)]
    if space.kind == GRADIENT:
        # Tangential moments on each triangle's own primal edge; for a
        # smooth field both sides agree, so the edge values are reused.
        pos = _positions(edges, mesh.n_edges)[mesh.tri_pedge]
        tang = np.einsum("eqrc,ec->eqr", vals, mesh.edge_canon_tangent[edges])
        parts.append(np.einsum("emq,eqr->erm", wob, tang)[pos])
    nk1 = space.nk1
    if nk1:
        ttab = tri_tables(mesh, k, SMOOTH_DEGREE)
        nt, nq = ttab.w.shape
        tvals = _field_values(space, fieldfn, ttab.pts.reshape(-1, 2))
        tvals = tvals.reshape((nt, nq) + tvals.shape[1:])
        wob = ttab.val[:, :nk1] * (ttab.w / mesh.tri_areas()[:, None])[:, None]
        parts.append(np.einsum("tmq,tq...->t...m", wob, tvals))
    g = np.concatenate([part.ravel() for part in parts])
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

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

``DofSpace._groups`` is the one place that declares these degrees of
freedom, as groups of moments per triangle: the numbering, the local
functional matrices and interpolation all read it, so they cannot drift
apart. The trace space, which has no triangles, is the one exception.

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
field once on the edges that carry the shared moments and once on all
triangles.
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

    def _groups(self) -> list:
        """The local functionals of every triangle, in local order, as
        ``(edges, C, shared)`` groups: the group's moment sets are taken
        on ``edges[t]`` (Legendre moments, scaled by ``1/h_e``, in the
        canonical edge frame) or, with ``edges`` None, inside the triangle
        (moments against the degree k-1 monomials, scaled by
        ``1/|tau|``). ``C[t]`` has one row per moment set and one column
        per field component; a set is the moment of ``C[t] . field``.
        ``shared`` groups are numbered once per edge of the space's
        family, the others once per triangle. Shared groups lead."""
        mesh, nt = self.mesh, self.mesh.n_triangles
        if self.kind == VELOCITY:
            # Normal moments on the two dual edges.
            de = mesh.tri_dual.T
            groups = [(e, mesh.edge_canon_normal[e][:, None], True) for e in de]
        elif self.kind == PRESSURE:
            groups = [(mesh.tri_pedge, np.ones((nt, 1, 1)), True)]
        else:
            # Each row r of the matrix field (components 2r + c) against
            # the normal, shared, then against the tangent, private.
            pe = mesh.tri_pedge
            rows = lambda d: np.einsum("rs,tc->trsc", np.eye(2), d[pe]).reshape(nt, 2, 4)
            groups = [
                (pe, rows(mesh.edge_canon_normal), True),
                (pe, rows(mesh.edge_canon_tangent), False),
            ]
        if self.nk1:
            eye = np.broadcast_to(np.eye(self.ncomp), (nt, self.ncomp, self.ncomp))
            groups.append((None, eye, False))
        return groups

    @property
    def _family(self) -> np.ndarray:
        """The edges that carry the space's shared moments: the primal
        edges for the gradient and pressure, the dual edges otherwise."""
        mesh = self.mesh
        return mesh.primal_edges if self.kind in (GRADIENT, PRESSURE) else mesh.dual_edges

    def _weights(self, exactness: int, edges) -> np.ndarray:
        """(n, n_moments, nq) weights of one group's moments at the nodes
        of the given quadrature tier: the (1/h_e) Legendre moments on the
        listed edges or, for None, the (1/|tau|) moments against the
        degree k-1 monomials on every triangle."""
        mesh = self.mesh
        if edges is None:
            tab = tri_tables(mesh, self.k, exactness)
            return tab.val[:, : self.nk1] * (tab.w / mesh.tri_areas()[:, None])[:, None]
        tab = edge_tables(mesh, self.k, exactness)
        return tab.leg[edges] * (tab.w[edges] / mesh.edge_length[edges][:, None])[:, None]

    def _number(self):
        """Global numbering: the shared moments first, one run per edge of
        the family, then one block per private group, one run per
        triangle. Each triangle's local functionals are runs of
        consecutive global indices, concatenated into ``dof_map``."""
        nt, family = self.mesh.n_triangles, self._family
        pos = _positions(family, self.mesh.n_edges)
        runs, end = [], 0
        for edges, C, shared in self._groups():
            width = C.shape[1] * (self.nk1 if edges is None else self.k + 1)
            if shared:
                start, end = pos[edges] * width, len(family) * width
            else:
                start, end = end + np.arange(nt) * width, end + nt * width
            runs.append((start, width))
        self.global_dim = end
        self.dof_map = np.concatenate(
            [start[:, None] + np.arange(width) for start, width in runs], axis=1
        )

    def _functional_matrices(self) -> np.ndarray:
        """V[t, i, j] = functional_i(basis_j) on triangle t; each square and
        invertible. Edge moments are taken from the triangle's own side of
        the edge."""
        mesh, deg = self.mesh, std_degree(self.k)
        tris = np.arange(mesh.n_triangles)

        def moments(e):
            """(nt, n_moments, nk) moments of the basis of every triangle."""
            if e is None:
                basis = tri_tables(mesh, self.k, deg).val
            else:
                side = np.where(mesh.edge_tri[e, 0] == tris, 0, 1)
                basis = edge_tables(mesh, self.k, deg).trace[e, side]
            return np.matmul(self._weights(deg, e), basis.swapaxes(1, 2))

        return np.concatenate([_kron(C, moments(e)) for e, C, _ in self._groups()], axis=1)

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


def _kron(coef: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Batched Kronecker products: out[n, (i, m), (j, l)] = coef[n, i, j] *
    blocks[n, m, l], for component-stacked rows and columns."""
    n, p, q = coef.shape
    _, nr, nc = blocks.shape
    out = coef[:, :, None, :, None] * blocks[:, None, :, None, :]
    return out.reshape(n, p * nr, q * nc)


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
    mesh, family = space.mesh, space._family

    def sample(pts):
        """Field values at (n, nq) nodes, shaped (n, nq, components)."""
        vals = _field_values(space, fieldfn, pts.reshape(-1, 2))
        return vals.reshape(pts.shape[:2] + (-1,))

    vals = sample(edge_tables(mesh, space.k, SMOOTH_DEGREE).pts[family])
    if space.kind == TRACE:
        tang = np.einsum("eqc,ec->eq", vals, mesh.edge_canon_tangent[family])
        wob = space._weights(SMOOTH_DEGREE, family)
        g = (2 * np.arange(space.k + 1) + 1) * np.matmul(wob, tang[:, :, None])[:, :, 0]
        return FieldCoefficients(space, g.ravel(), t)

    # Every group's moments of the field, as in DofSpace._functional_matrices,
    # with the field sampled once per edge of the family and gathered to
    # the triangles; both sides of a shared edge write the same numbers.
    pos = _positions(family, mesh.n_edges)
    local = []
    for edges, C, _ in space._groups():
        if edges is None:
            f = sample(tri_tables(mesh, space.k, SMOOTH_DEGREE).pts)
        else:
            f = vals[pos[edges]]
        proj = np.einsum("tqj,tij->tqi", f, C)
        wob = space._weights(SMOOTH_DEGREE, edges)
        local.append(np.einsum("tmq,tqi->tim", wob, proj).reshape(mesh.n_triangles, -1))
    g = np.empty(space.global_dim)
    g[space.dof_map] = np.concatenate(local, axis=1)
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

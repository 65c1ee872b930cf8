"""Polynomial bases and quadrature rules on physical triangles and edges.

Triangle rules are collapsed tensor-product Gauss rules (Duffy transform),
which keeps every weight positive at any requested exactness. Bases are
scaled monomials centered at the element centroid (triangles) and Legendre
polynomials in the normalized arclength coordinate (edges).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre


@dataclass(frozen=True, eq=False)
class QuadRule:
    """Quadrature rule in physical coordinates.

    Parameters
    ----------
    points : ndarray
        Shape (n, 2). Physical coordinates of the nodes (edge nodes lie on
        the segment).
    weights : ndarray
        Shape (n,). Positive weights summing to the element measure.
    """

    points: np.ndarray
    weights: np.ndarray


def tri_dim(k: int) -> int:
    """Dimension of the bivariate polynomial space of degree <= k."""
    return (k + 1) * (k + 2) // 2


def monomial_exponents(k: int) -> np.ndarray:
    """Exponent pairs (a, b) of x^a y^b for degree <= k, graded order."""
    exps = [(t - j, j) for t in range(k + 1) for j in range(t + 1)]
    return np.array(exps, dtype=int)


@lru_cache(maxsize=None)
def _gauss01(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], cached per order.

    The arrays are shared between callers and therefore read-only.
    """
    x, w = legendre.leggauss(m)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def triangle_quadrature(exactness_degree: int, triangle: np.ndarray) -> QuadRule:
    """Quadrature on a physical triangle, exact for degree <= exactness_degree.

    Parameters
    ----------
    exactness_degree : int
        Requested polynomial exactness, >= 0.
    triangle : ndarray
        Shape (3, 2). Vertex coordinates.

    Raises
    ------
    ValueError
        If the triangle is degenerate (zero area) or the degree is negative.
    """
    if exactness_degree < 0:
        raise ValueError("exactness degree must be >= 0")
    tri = np.asarray(triangle, dtype=float)
    v0, v1, v2 = tri
    jac = np.column_stack([v1 - v0, v2 - v0])
    det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    scale = max(np.abs(tri).max(), 1.0)
    if abs(det) <= 1e-14 * scale * scale:
        raise ValueError("degenerate (zero-area) triangle")
    # The Duffy map x = a, y = b(1 - a) raises the degree in a by one.
    m = math.ceil((exactness_degree + 2) / 2)
    ga, wa = _gauss01(m)
    gb, wb = _gauss01(m)
    a = np.repeat(ga, m)
    b = np.tile(gb, m)
    w = np.repeat(wa, m) * np.tile(wb, m) * (1.0 - a)
    ref = np.column_stack([a, b * (1.0 - a)])
    pts = v0 + ref @ jac.T
    return QuadRule(pts, w * abs(det))


def edge_quadrature(exactness_degree: int, segment: np.ndarray) -> QuadRule:
    """Gauss rule on a physical segment, exact for degree <= exactness_degree.

    Weights sum to the segment length; nodes are returned as 2D points on
    the segment.
    """
    if exactness_degree < 0:
        raise ValueError("exactness degree must be >= 0")
    seg = np.asarray(segment, dtype=float)
    p0, p1 = seg
    length = float(np.hypot(*(p1 - p0)))
    if length <= 1e-14 * max(np.abs(seg).max(), 1.0):
        raise ValueError("degenerate (zero-length) segment")
    m = math.ceil((exactness_degree + 1) / 2)
    g, w = _gauss01(m)
    pts = p0 + np.outer(g, p1 - p0)
    return QuadRule(pts, w * length)


def _triangle_frame(triangle: np.ndarray) -> tuple[np.ndarray, float]:
    """Centroid and diameter (longest side) used to scale the basis."""
    tri = np.asarray(triangle, dtype=float)
    sides = np.linalg.norm(tri - np.roll(tri, 1, axis=0), axis=1)
    return tri.mean(axis=0), float(sides.max())


def eval_basis(k: int, element: np.ndarray, points: np.ndarray):
    """Evaluate the degree-k basis of a triangle or an edge at given points.

    Parameters
    ----------
    k : int
        Polynomial degree, >= 0.
    element : ndarray
        Shape (3, 2) for a triangle or (2, 2) for an edge.
    points : ndarray
        Shape (n, 2). Physical evaluation points.

    Returns
    -------
    values : ndarray
        Shape (dim, n).
    gradients : ndarray
        Shape (dim, n, 2) for a triangle; shape (dim, n) for an edge
        (derivative with respect to arclength along the segment).
    """
    el = np.asarray(element, dtype=float)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if el.shape == (3, 2):
        return _eval_triangle_basis(k, el, pts)
    if el.shape == (2, 2):
        return _eval_edge_basis(k, el, pts)
    raise ValueError(f"element must have shape (3, 2) or (2, 2), got {el.shape}")


def _eval_triangle_basis(k: int, tri: np.ndarray, pts: np.ndarray):
    center, diam = _triangle_frame(tri)
    x = (pts[:, 0] - center[0]) / diam
    y = (pts[:, 1] - center[1]) / diam
    exps = monomial_exponents(k)
    n = pts.shape[0]
    # Positive powers only; 0^0 must evaluate to 1.
    xp = np.vander(x, k + 1, increasing=True).T  # (k+1, n)
    yp = np.vander(y, k + 1, increasing=True).T
    values = xp[exps[:, 0]] * yp[exps[:, 1]]
    grads = np.zeros((len(exps), n, 2))
    a = exps[:, 0]
    b = exps[:, 1]
    nz = a > 0
    grads[nz, :, 0] = (a[nz, None] / diam) * xp[a[nz] - 1] * yp[b[nz]]
    nz = b > 0
    grads[nz, :, 1] = (b[nz, None] / diam) * xp[a[nz]] * yp[b[nz] - 1]
    return values, grads


def _eval_edge_basis(k: int, seg: np.ndarray, pts: np.ndarray):
    p0, p1 = seg
    length = float(np.hypot(*(p1 - p0)))
    tang = (p1 - p0) / length
    mid = 0.5 * (p0 + p1)
    xi = 2.0 * ((pts - mid) @ tang) / length
    values = legendre.legvander(xi, k).T
    grads = np.zeros_like(values)
    for j in range(1, k + 1):
        coeff = np.zeros(j + 1)
        coeff[j] = 1.0
        grads[j] = legendre.legval(xi, legendre.legder(coeff)) * (2.0 / length)
    return values, grads


def edge_legendre(k: int, seg: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Legendre values P_0..P_k on a segment, oriented from seg[0] to seg[1]."""
    return _eval_edge_basis(k, np.asarray(seg, dtype=float), np.atleast_2d(pts))[0]

"""Polynomial bases and quadrature rules on physical triangles and edges.

Triangle rules are collapsed tensor-product Gauss rules (Duffy transform),
which keeps every weight positive at any requested exactness. Bases are
scaled monomials centered at the element centroid (triangles) and Legendre
polynomials in the normalized arclength coordinate (edges).

Every function works on a batch of elements at once: rules are affine
images of one cached reference rule, and bases are evaluated for all
elements in one pass. The single-element entry points (``eval_basis``,
``triangle_quadrature``, ``edge_quadrature``) are batches of one.
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


def triangle_rules(exactness_degree: int, triangles: np.ndarray):
    """Collapsed Gauss rules on a batch of triangles, exact for degree <=
    exactness_degree: affine images of one rule on the reference triangle.

    ``triangles`` has shape (n, 3, 2). Returns nodes (n, nq, 2) and
    positive weights (n, nq) summing to each triangle's area. Raises
    ValueError for a negative degree or a degenerate (zero-area) triangle.
    """
    if exactness_degree < 0:
        raise ValueError("exactness degree must be >= 0")
    tri = np.asarray(triangles, dtype=float)
    v0, e1, e2 = tri[:, 0], tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]
    det = e1[:, 0] * e2[:, 1] - e2[:, 0] * e1[:, 1]
    scale = np.maximum(np.abs(tri).max(axis=(1, 2)), 1.0)
    if np.any(np.abs(det) <= 1e-14 * scale * scale):
        raise ValueError("degenerate (zero-area) triangle")
    # Reference rule on (0,0), (1,0), (0,1) by the Duffy map x = a,
    # y = b(1 - a), which raises the degree in a by one.
    m = math.ceil((exactness_degree + 2) / 2)
    g, w = _gauss01(m)
    a, b = np.repeat(g, m), np.tile(g, m)
    w = np.repeat(w, m) * np.tile(w, m) * (1.0 - a)
    x, y = a[:, None], (b * (1.0 - a))[:, None]
    pts = v0[:, None] + (x * e1[:, None] + y * e2[:, None])
    return pts, w * np.abs(det)[:, None]


def edge_rules(exactness_degree: int, segments: np.ndarray):
    """One Gauss rule per segment, exact for degree <= exactness_degree.

    ``segments`` has shape (n, 2, 2). Returns nodes (n, nq, 2) on the
    segments and weights (n, nq) summing to each segment's length.
    """
    if exactness_degree < 0:
        raise ValueError("exactness degree must be >= 0")
    seg = np.asarray(segments, dtype=float)
    p0, d = seg[:, 0], seg[:, 1] - seg[:, 0]
    length = np.hypot(d[:, 0], d[:, 1])
    if np.any(length <= 1e-14 * np.maximum(np.abs(seg).max(axis=(1, 2)), 1.0)):
        raise ValueError("degenerate (zero-length) segment")
    m = math.ceil((exactness_degree + 1) / 2)
    g, w = _gauss01(m)
    pts = p0[:, None] + g[:, None] * d[:, None]
    return pts, w * length[:, None]


def triangle_quadrature(exactness_degree: int, triangle: np.ndarray) -> QuadRule:
    """Quadrature on one physical triangle; see :func:`triangle_rules`."""
    pts, w = triangle_rules(exactness_degree, np.asarray(triangle, dtype=float)[None])
    return QuadRule(pts[0], w[0])


def edge_quadrature(exactness_degree: int, segment: np.ndarray) -> QuadRule:
    """Gauss rule on one physical segment, exact for degree <=
    exactness_degree; weights sum to the segment length and nodes are
    returned as 2D points on the segment."""
    pts, w = edge_rules(exactness_degree, np.asarray(segment, dtype=float)[None])
    return QuadRule(pts[0], w[0])


def _powers(x: np.ndarray, k: int) -> np.ndarray:
    """x^0 .. x^k by repeated multiplication, stacked on a new axis 1."""
    out = np.empty((x.shape[0], k + 1) + x.shape[1:])
    out[:, 0] = 1.0
    for j in range(1, k + 1):
        out[:, j] = out[:, j - 1] * x
    return out


def eval_triangle_basis(k: int, triangles: np.ndarray, points: np.ndarray):
    """Scaled monomials of degree <= k on a batch of triangles, centered at
    each triangle's centroid and scaled by its longest side.

    ``triangles`` has shape (n, 3, 2) and ``points`` (n, nq, 2), row i
    evaluated on triangle i. Returns values (n, dim, nq) and gradients
    (n, dim, nq, 2).
    """
    tri = np.asarray(triangles, dtype=float)
    pts = np.asarray(points, dtype=float)
    center = tri.mean(axis=1)
    diam = np.linalg.norm(tri - np.roll(tri, 1, axis=1), axis=2).max(axis=1)[:, None]
    xp = _powers((pts[..., 0] - center[:, 0, None]) / diam, k)  # (n, k+1, nq)
    yp = _powers((pts[..., 1] - center[:, 1, None]) / diam, k)
    exps = monomial_exponents(k)
    a, b = exps[:, 0], exps[:, 1]
    values = xp[:, a] * yp[:, b]
    grads = np.zeros(values.shape + (2,))
    gx, gy = grads[..., 0], grads[..., 1]
    diam = diam[:, :, None]
    nz = a > 0
    gx[:, nz] = (a[nz, None] / diam) * xp[:, a[nz] - 1] * yp[:, b[nz]]
    nz = b > 0
    gy[:, nz] = (b[nz, None] / diam) * xp[:, a[nz]] * yp[:, b[nz] - 1]
    return values, grads


def eval_edge_basis(k: int, segments: np.ndarray, points: np.ndarray):
    """Legendre polynomials P_0..P_k on a batch of segments.

    The coordinate runs from -1 at ``segments[i, 0]`` to 1 at
    ``segments[i, 1]``. ``points`` has shape (n, nq, 2). Returns values
    (n, k+1, nq) and their arclength derivatives (n, k+1, nq).
    """
    seg = np.asarray(segments, dtype=float)
    pts = np.asarray(points, dtype=float)
    p0, p1 = seg[:, 0], seg[:, 1]
    d = p1 - p0
    length = np.hypot(d[:, 0], d[:, 1])[:, None]
    tang = d / length
    rel = pts - (0.5 * (p0 + p1))[:, None]
    along = rel[..., 0] * tang[:, 0, None] + rel[..., 1] * tang[:, 1, None]
    xi = 2.0 * along / length
    values = np.ascontiguousarray(np.moveaxis(legendre.legvander(xi, k), -1, 1))
    grads = np.zeros_like(values)
    for j in range(1, k + 1):
        coeff = np.zeros(j + 1)
        coeff[j] = 1.0
        grads[:, j] = legendre.legval(xi, legendre.legder(coeff)) * (2.0 / length)
    return values, grads


def eval_basis(k: int, element: np.ndarray, points: np.ndarray):
    """Evaluate the degree-k basis of one triangle or one edge.

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
    pts = np.atleast_2d(np.asarray(points, dtype=float))[None]
    if el.shape == (3, 2):
        values, grads = eval_triangle_basis(k, el[None], pts)
    elif el.shape == (2, 2):
        values, grads = eval_edge_basis(k, el[None], pts)
    else:
        raise ValueError(f"element must have shape (3, 2) or (2, 2), got {el.shape}")
    return values[0], grads[0]

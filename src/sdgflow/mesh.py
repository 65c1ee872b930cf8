"""Polygonal primal meshes and their staggered simplicial submeshes.

A primal mesh is a polygonal tiling of the domain. Connecting an interior
point of each polygon to its vertices yields the simplicial submesh: one
triangle per (polygon, polygon-edge) pair. Edges split into two families,
the primal edges (polygon boundaries, carrying pressure/gradient
continuity) and the dual edges (interior-point spokes, carrying velocity
normal continuity). Each edge stores a fixed unit normal, the adjacent
triangles and their orientation signs, so jump terms can be assembled
without re-deriving geometry.

Construction is array code with no Python loop per polygon, side or
edge. The sides of all polygons are kept as flat arrays; the primal edges
(keyed by their two vertices) and the dual edges (keyed by vertex and
interior point) are numbered in order of first appearance along those
sides, and the per-polygon geometry and checks run in one batch per
distinct polygon size.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

# Relative tolerance for geometric predicates, scaled by element diameter.
GEOM_TOL = 1e-12

# Edge classification codes.
PRIMAL_INTERIOR = 0
PRIMAL_BOUNDARY = 1
DUAL = 2


class MeshError(ValueError):
    """Base class for mesh construction failures."""


class MeshFormatError(MeshError):
    """Malformed mesh file; message carries the offending line number."""


class MeshTopologyError(MeshError):
    """Connectivity violation such as a non-manifold edge."""


class MeshGeometryError(MeshError):
    """Degenerate or inverted geometry; message names the polygon."""


def _first_seen(keys: np.ndarray):
    """Number the distinct keys in order of first appearance.

    Returns the number of every key and, per number, the index of the
    key's first appearance.
    """
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse.ravel()], first[order]


def _size_groups(start: np.ndarray, corners: np.ndarray):
    """Yield (m, polygon ids, (n, m) vertex ids) per distinct polygon size m."""
    sizes = np.diff(start)
    for m in np.unique(sizes).tolist():
        rows = np.flatnonzero(sizes == m)
        yield m, rows, corners[start[rows, None] + np.arange(m)]


def _orient(a, b, c):
    """Twice the signed area of the triangles (a, b, c), batched."""
    return (b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1]) - (b[..., 1] - a[..., 1]) * (
        c[..., 0] - a[..., 0]
    )


def _polygon_geometry(xy: np.ndarray):
    """Signed area, centroid, ptp diameter and self-crossing flag of a
    batch of polygons with m vertices each, ``xy`` of shape (n, m, 2).

    Every sum runs over a contiguous last axis, one coordinate at a time,
    so it rounds like ``np.sum`` on a single polygon.
    """
    m = xy.shape[1]
    x, y = xy[..., 0], xy[..., 1]
    xn, yn = np.roll(x, -1, axis=1), np.roll(y, -1, axis=1)
    cross = x * yn - xn * y
    area = 0.5 * cross.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        centroid = np.column_stack(
            [((x + xn) * cross).sum(axis=1), ((y + yn) * cross).sum(axis=1)]
        ) / (6.0 * area[:, None])
    diam = np.ptp(xy, axis=1).max(axis=1)
    tol = (GEOM_TOL * diam * diam)[:, None]
    # Sides i and j cross at interior points; adjacent sides share a vertex.
    i, j = np.triu_indices(m, 2)
    keep = (i > 0) | (j < m - 1)
    i, j = i[keep], j[keep]
    p1, p2, q1, q2 = xy[:, i], xy[:, (i + 1) % m], xy[:, j], xy[:, (j + 1) % m]
    crossing = (
        (_orient(q1, q2, p1) * _orient(q1, q2, p2) < -tol)
        & (_orient(p1, p2, q1) * _orient(p1, p2, q2) < -tol)
    ).any(axis=1)
    return area, centroid, diam, crossing


# The first failed check of a polygon, by code, in the order they are made.
_POLYGON_ERRORS = {
    1: (MeshError, "polygon {ip} has fewer than 3 vertices"),
    2: (MeshError, "polygon {ip} references a missing vertex"),
    3: (MeshError, "polygon {ip} repeats a vertex"),
    4: (MeshGeometryError, "polygon {ip} is degenerate or clockwise (signed area {area:g})"),
    5: (MeshGeometryError, "polygon {ip} is self-intersecting"),
}


class PrimalMesh:
    """Validated polygonal tiling.

    The sides of all polygons are kept as flat arrays, polygon by polygon
    and counterclockwise within each: side ``s`` runs from vertex
    ``side_from[s]`` to ``side_to[s]`` on polygon ``side_poly[s]`` and
    primal edge ``side_edge[s]``; the sides of polygon ``p`` are
    ``poly_start[p]:poly_start[p + 1]``. Edges are numbered in order of
    first appearance along the sides, and ``edge_vertices`` holds their
    (lower, higher) vertex ids. ``areas``, ``centroids`` and ``diameters``
    (the largest coordinate extent) are per polygon.

    Parameters
    ----------
    vertices : ndarray
        Shape (nv, 2). Vertex coordinates.
    polygons : sequence of int sequences
        Counterclockwise vertex-index cycles, one per polygon.

    Raises
    ------
    MeshError
        A polygon vertex index that is not an integer (``bool`` included).
    MeshGeometryError
        A vertex coordinate that is not finite, non-positive polygon area,
        clockwise cycle, or self-intersection.
    MeshTopologyError
        An edge shared by more than two polygons, by two polygons in the
        same direction, or a tiling that is not a partition: its polygon
        areas do not add up to the area enclosed by its boundary, two
        boundary sides meet away from their end points, or a boundary loop
        runs counterclockwise at an odd nesting depth or clockwise at an
        even one.
    """

    def __init__(self, vertices, polygons):
        self.vertices = np.array(vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        bad = np.flatnonzero(~np.isfinite(self.vertices).all(axis=1))
        if len(bad):
            iv = bad[0]
            raise MeshGeometryError(f"vertex {iv} has non-finite coordinates {self.vertices[iv]}")
        sizes = np.fromiter(map(len, polygons), dtype=int)
        self.poly_start = np.concatenate([[0], np.cumsum(sizes)])
        flat = list(chain.from_iterable(polygons))
        # The index types are checked as a set, so the Python work does not
        # grow with the mesh. bool is an int subclass, and the int
        # conversion would truncate a float.
        bad_types = {
            t for t in set(map(type, flat)) if t is bool or not issubclass(t, (int, np.integer))
        }
        if bad_types:
            s = next(s for s, i in enumerate(flat) if type(i) in bad_types)
            ip = int(np.searchsorted(self.poly_start, s, side="right")) - 1
            raise MeshError(f"polygon {ip} has a vertex index {flat[s]!r} that is not an integer")
        self.side_from = np.array(flat, dtype=int)
        self._validate_polygons()
        self._build_edges()
        self._validate_partition()
        for arr in (
            self.vertices, self.poly_start, self.side_from, self.side_to,
            self.side_poly, self.side_edge,
        ):
            arr.setflags(write=False)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_polygons(self) -> int:
        return len(self.poly_start) - 1

    @cached_property
    def polygons(self) -> list:
        """Vertex-index cycle of every polygon."""
        return np.split(self.side_from, self.poly_start[1:-1])[: self.n_polygons]

    def _validate_polygons(self):
        nv, npoly = self.n_vertices, self.n_polygons
        code = np.zeros(npoly, dtype=int)
        self.areas = np.zeros(npoly)
        self.centroids = np.zeros((npoly, 2))
        self.diameters = np.zeros(npoly)
        for m, rows, corners in _size_groups(self.poly_start, self.side_from):
            if m < 3:
                code[rows] = 1
                continue
            ids = np.sort(corners, axis=1)
            code[rows] = np.where(
                (ids[:, 0] < 0) | (ids[:, -1] >= nv),
                2,
                np.where((ids[:, 1:] == ids[:, :-1]).any(axis=1), 3, 0),
            )
            valid = code[rows] == 0
            rows = rows[valid]
            area, centroid, diam, crossing = _polygon_geometry(self.vertices[corners[valid]])
            self.areas[rows], self.centroids[rows], self.diameters[rows] = area, centroid, diam
            code[rows] = np.where(area <= GEOM_TOL * diam * diam, 4, np.where(crossing, 5, 0))
        bad = np.flatnonzero(code)
        if len(bad):
            ip = bad[0]
            cls, message = _POLYGON_ERRORS[code[ip]]
            raise cls(message.format(ip=ip, area=self.areas[ip]))

    def _build_edges(self):
        nv, start = self.n_vertices, self.poly_start
        self.side_poly = np.repeat(np.arange(self.n_polygons), np.diff(start))
        following = np.arange(1, len(self.side_from) + 1)
        following[start[1:] - 1] = start[:-1]
        self.side_to = self.side_from[following]
        lo = np.minimum(self.side_from, self.side_to)
        hi = np.maximum(self.side_from, self.side_to)
        self.side_edge, first = _first_seen(lo * nv + hi)
        self.edge_vertices = np.column_stack([lo[first], hi[first]])
        # The sides of every edge, in side order.
        order = np.argsort(self.side_edge, kind="stable")
        count = np.bincount(self.side_edge)
        head = np.cumsum(count) - count
        if (count > 2).any():
            eid = self.side_edge[order[head[count > 2] + 2].min()]
            raise MeshTopologyError(
                f"non-manifold edge {eid} {tuple(self.edge_vertices[eid].tolist())}: "
                "shared by more than two polygons"
            )
        forward = self.side_from < self.side_to
        two = np.flatnonzero(count == 2)
        same = forward[order[head[two] + 1]] == forward[first[two]]
        if same.any():
            eid = two[np.argmax(same)]
            raise MeshTopologyError(
                f"edge {eid} {tuple(self.edge_vertices[eid].tolist())} traversed twice in "
                "the same direction; polygons overlap or are inconsistently oriented"
            )
        self.boundary_edge = count == 1

    def _validate_partition(self):
        total = self.areas.sum()
        outer = np.flatnonzero(self.boundary_edge[self.side_edge])
        pa, pb = self.vertices[self.side_from[outer]], self.vertices[self.side_to[outer]]
        cross = pa[:, 0] * pb[:, 1] - pb[:, 0] * pa[:, 1]
        boundary = 0.5 * cross.sum()
        if abs(total - boundary) > 1e-12 * max(total, 1.0):
            raise MeshTopologyError(
                f"polygon areas sum to {total:g} but the boundary encloses "
                f"{boundary:g}; polygons overlap or leave gaps"
            )

        def side(i):
            s = outer[i]
            return (
                f"boundary side {s} ({self.side_from[s]} -> {self.side_to[s]}) "
                f"of polygon {self.side_poly[s]}"
            )

        # Overlaps the areas miss. First, boundary sides that cross or touch
        # away from their end points: dist[i, j] is the signed distance of a
        # point j from the line of side i, pos[i, j] its place along side i
        # in units of the side's length.
        tol = GEOM_TOL * np.ptp(self.vertices, axis=0).max()
        d = pb - pa
        length = np.hypot(d[:, 0], d[:, 1])[:, None]

        def to_lines(pts):
            rel = pts[None, :, :] - pa[:, None, :]
            dist = (d[:, None, 0] * rel[..., 1] - d[:, None, 1] * rel[..., 0]) / length
            pos = np.einsum("ijk,ik->ij", rel, d) / length**2
            on = (np.abs(dist) <= tol) & (pos * length > tol) & ((1.0 - pos) * length > tol)
            return dist, on

        dist_a, on_a = to_lines(pa)
        dist_b, on_b = to_lines(pb)
        apart = (dist_a * dist_b < 0.0) & (np.abs(dist_a) > tol) & (np.abs(dist_b) > tol)
        meet = (apart & apart.T) | on_a | on_b
        meet = np.triu(meet | meet.T, 1)
        if meet.any():
            i, j = np.argwhere(meet)[0]
            raise MeshTopologyError(
                f"{side(i)} meets {side(j)}; polygons overlap or a vertex hangs"
            )
        # Second, the boundary loops: counterclockwise when nested in an
        # even number of other loops, clockwise (a hole) when in an odd
        # number. A side is followed by a side starting at its end vertex;
        # where several loops pass one vertex they are paired in index
        # order, which keeps every loop closed. Pointer doubling labels
        # every side with the lowest side of its loop.
        n = len(outer)
        succ = np.empty(n, dtype=np.int64)
        succ[np.argsort(self.side_to[outer], kind="stable")] = np.argsort(
            self.side_from[outer], kind="stable"
        )
        label = np.arange(n)
        for _ in range((n - 1).bit_length()):
            label, succ = np.minimum(label, label[succ]), succ[succ]
        first, loop = np.unique(label, return_inverse=True)
        n_loops = len(first)
        loop_area = np.bincount(loop, cross, n_loops)
        # Winding number of every loop about the midpoint of the first side
        # of every other loop.
        rel_a = pa[None, :, :] - 0.5 * (pa[first] + pb[first])[:, None, :]
        rel_b = rel_a + d[None, :, :]
        angle = np.arctan2(
            rel_a[..., 0] * rel_b[..., 1] - rel_a[..., 1] * rel_b[..., 0],
            (rel_a * rel_b).sum(axis=-1),
        )
        winding = angle @ (loop[:, None] == np.arange(n_loops)) / (2.0 * np.pi)
        np.fill_diagonal(winding, 0.0)
        depth = (np.abs(winding) > 0.5).sum(axis=1)
        wrong = np.flatnonzero((loop_area > 0.0) != (depth % 2 == 0))
        if len(wrong):
            k = wrong[0]
            turn = "counterclockwise" if loop_area[k] > 0.0 else "clockwise"
            raise MeshTopologyError(
                f"{side(first[k])} is on a {turn} boundary loop at nesting depth "
                f"{depth[k]}; polygons overlap"
            )


def build_rectangle_mesh(nx: int, ny: int, domain=(0.0, 0.0, 1.0, 1.0)) -> PrimalMesh:
    """Uniform nx-by-ny rectangular tiling of an axis-aligned rectangle.

    Parameters
    ----------
    nx, ny : int
        Cell counts, >= 1.
    domain : tuple
        (xmin, ymin, xmax, ymax).
    """
    if nx < 1 or ny < 1:
        raise MeshError("cell counts must be positive")
    x0, y0, x1, y1 = map(float, domain)
    if x1 <= x0 or y1 <= y0:
        raise MeshError("degenerate domain rectangle")
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    xx, yy = np.meshgrid(xs, ys, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])
    # Lower-left vertex of every cell, row by row.
    v = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    return PrimalMesh(vertices, np.column_stack([v, v + 1, v + nx + 2, v + nx + 1]))


def read_polygon_mesh(source) -> PrimalMesh:
    """Read a primal mesh from the text format.

    Line 1 holds ``NV NP``; the next NV lines hold vertex coordinates
    ``x y``; the next NP lines hold ``m i1 ... im`` with counterclockwise
    0-based vertex indices. Lines starting with ``#`` and blank lines are
    skipped. ``source`` may be a path or an open text stream.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    if isinstance(text, bytes):
        text = text.decode("utf-8")

    lines = [
        (no, line.strip())
        for no, line in enumerate(io.StringIO(text), start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not lines:
        raise MeshFormatError("line 1: empty mesh file")

    def parse(no, line, kind, count=None):
        parts = line.split()
        if count is not None and len(parts) != count:
            raise MeshFormatError(
                f"line {no}: expected {count} fields, found {len(parts)}"
            )
        try:
            return [kind(p) for p in parts]
        except ValueError as exc:
            raise MeshFormatError(f"line {no}: {exc}") from None

    no, header = lines[0]
    nv, np_ = parse(no, header, int, 2)
    if nv < 0 or np_ < 0:
        raise MeshFormatError(f"line {no}: counts must be nonnegative")
    if len(lines) != 1 + nv + np_:
        raise MeshFormatError(
            f"line {lines[-1][0]}: expected {1 + nv + np_} data lines "
            f"({nv} vertices, {np_} polygons), found {len(lines)}"
        )
    vertices = [parse(no, line, float, 2) for no, line in lines[1 : 1 + nv]]
    polygons = []
    for no, line in lines[1 + nv :]:
        fields = parse(no, line, int)
        if not fields:
            raise MeshFormatError(f"line {no}: empty polygon record")
        m, idx = fields[0], fields[1:]
        if len(idx) != m:
            raise MeshFormatError(
                f"line {no}: polygon advertises {m} vertices, lists {len(idx)}"
            )
        polygons.append(idx)
    return PrimalMesh(np.array(vertices, dtype=float), polygons)


@dataclass(frozen=True, eq=False)
class StaggeredMesh:
    """Simplicial submesh with classified, oriented edges.

    ``points`` stacks the primal vertices first, then one interior point
    per polygon. Triangles are (edge start, edge end, interior point) in
    counterclockwise order. The edge table covers primal and dual edges
    jointly: ``edge_tri`` holds the one or two adjacent triangles (-1 for
    the missing side) ordered lowest-index first, and ``edge_sign`` the
    orientation signs of their outward normals against ``edge_normal``.
    ``edge_canon_tangent`` (endpoint with the smaller point id towards the
    larger) fixes the frame used for edge-moment degrees of freedom; it is
    deliberately independent of the jump normal convention.
    """

    primal: PrimalMesh
    points: np.ndarray
    tri: np.ndarray
    tri_poly: np.ndarray
    tri_pedge: np.ndarray
    tri_dual: np.ndarray
    edge_points: np.ndarray
    edge_class: np.ndarray
    edge_normal: np.ndarray
    edge_tangent: np.ndarray
    edge_canon_tangent: np.ndarray
    edge_canon_normal: np.ndarray
    edge_length: np.ndarray
    edge_tri: np.ndarray
    edge_sign: np.ndarray
    h: float
    # Quadrature tables built on this mesh, filled by sdgflow.spaces.
    tables: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def n_triangles(self) -> int:
        return len(self.tri)

    @property
    def n_edges(self) -> int:
        return len(self.edge_points)

    @property
    def primal_edges(self) -> np.ndarray:
        return np.flatnonzero(self.edge_class != DUAL)

    @property
    def interior_primal_edges(self) -> np.ndarray:
        return np.flatnonzero(self.edge_class == PRIMAL_INTERIOR)

    @property
    def dual_edges(self) -> np.ndarray:
        return np.flatnonzero(self.edge_class == DUAL)

    def tri_coords(self, t) -> np.ndarray:
        return self.points[self.tri[t]]

    def edge_coords(self, e) -> np.ndarray:
        return self.points[self.edge_points[e]]

    def tri_areas(self) -> np.ndarray:
        c = self.points[self.tri]
        return 0.5 * np.abs(
            (c[:, 1, 0] - c[:, 0, 0]) * (c[:, 2, 1] - c[:, 0, 1])
            - (c[:, 2, 0] - c[:, 0, 0]) * (c[:, 1, 1] - c[:, 0, 1])
        )


def build_staggered(primal: PrimalMesh, interior_points=None) -> StaggeredMesh:
    """Construct the simplicial submesh and its full edge table.

    Parameters
    ----------
    primal : PrimalMesh
    interior_points : ndarray, optional
        Shape (n_polygons, 2); one point strictly inside each polygon with
        the polygon star-shaped around it. Defaults to polygon centroids.

    Raises
    ------
    MeshGeometryError
        If an interior point produces an inverted or degenerate triangle;
        the message names the polygon.
    """
    npoly, nv = primal.n_polygons, primal.n_vertices
    if interior_points is None:
        interior_points = primal.centroids
    else:
        interior_points = np.asarray(interior_points, dtype=float)
        if interior_points.shape != (npoly, 2):
            raise MeshError("need one interior point per polygon")
    points = np.vstack([primal.vertices, interior_points])

    # One triangle (a, b, nu) per polygon side a -> b.
    a, b, poly = primal.side_from, primal.side_to, primal.side_poly
    nu = nv + poly
    area2 = _orient(points[a], points[b], points[nu])
    diam = primal.diameters[poly]
    bad = np.flatnonzero(area2 <= GEOM_TOL * diam * diam)
    if len(bad):
        s = bad[0]
        raise MeshGeometryError(
            f"interior point of polygon {poly[s]} yields an inverted or "
            f"degenerate triangle on edge ({a[s]}, {b[s]})"
        )
    tri = np.column_stack([a, b, nu])
    # Dual edges (v, nu) follow the primal edges, numbered in order of
    # first appearance along the triangle sides (a, nu), (b, nu).
    spokes, hubs = np.column_stack([a, b]).ravel(), np.repeat(nu, 2)
    dual, first = _first_seen(spokes * len(points) + hubs)
    tri_dual = (len(primal.edge_vertices) + dual).reshape(-1, 2)
    edge_points = np.vstack(
        [primal.edge_vertices, np.column_stack([spokes[first], hubs[first]])]
    )
    edge_class = np.concatenate(
        [
            np.where(primal.boundary_edge, PRIMAL_BOUNDARY, PRIMAL_INTERIOR),
            np.full(len(first), DUAL),
        ]
    ).astype(np.int8)
    ne = len(edge_points)

    # Adjacent triangles of every edge, lowest index first. A primal
    # edge has one triangle per polygon side on it, which PrimalMesh
    # caps at two (one on the boundary), and a dual edge (v, nu) has the
    # two triangles of the sides into and out of v.
    pair_edge = np.concatenate([primal.side_edge, tri_dual.ravel()])
    pair_tri = np.concatenate([np.arange(len(tri)), np.arange(len(tri)).repeat(2)])
    order = np.lexsort((pair_tri, pair_edge))
    count = np.bincount(pair_edge)
    head = np.cumsum(count) - count
    two = count == 2
    edge_tri = np.full((ne, 2), -1)
    edge_tri[:, 0] = pair_tri[order[head]]
    edge_tri[two, 1] = pair_tri[order[head[two] + 1]]
    ends = points[edge_points]
    vec = ends[:, 1] - ends[:, 0]
    edge_length = np.hypot(vec[:, 0], vec[:, 1])
    edge_canon_tangent = vec / edge_length[:, None]
    edge_canon_normal = np.column_stack(
        [edge_canon_tangent[:, 1], -edge_canon_tangent[:, 0]]
    )
    tri_centroids = points[tri].mean(axis=1)

    # Point the stored normal out of the first (lowest-index) triangle;
    # a second triangle must lie on the other side.
    mid = 0.5 * (ends[:, 0] + ends[:, 1])
    n = edge_canon_normal
    away = np.einsum("ed,ed->e", n, tri_centroids[edge_tri[:, 0]] - mid)
    edge_normal = np.where((away > 0)[:, None], -n, n)
    beyond = np.einsum("ed,ed->e", edge_normal, tri_centroids[edge_tri[:, 1]] - mid)
    same_side = two & (beyond <= 0)
    if same_side.any():
        e = np.argmax(same_side)
        raise MeshTopologyError(f"edge {e}: adjacent triangles lie on the same side")
    edge_sign = np.column_stack([np.ones(ne), np.where(two, -1.0, 0.0)])
    edge_tangent = np.column_stack([-edge_normal[:, 1], edge_normal[:, 0]])

    tri_xy = points[tri]
    sides = np.stack(
        [
            np.linalg.norm(tri_xy[:, 1] - tri_xy[:, 0], axis=1),
            np.linalg.norm(tri_xy[:, 2] - tri_xy[:, 1], axis=1),
            np.linalg.norm(tri_xy[:, 0] - tri_xy[:, 2], axis=1),
        ],
        axis=1,
    )
    h = float(sides.max())

    for arr in (
        points, tri, tri_dual, edge_points, edge_class,
        edge_normal, edge_tangent, edge_canon_tangent, edge_canon_normal,
        edge_length, edge_tri, edge_sign,
    ):
        arr.setflags(write=False)
    return StaggeredMesh(
        primal=primal,
        points=points,
        tri=tri,
        tri_poly=poly,
        tri_pedge=primal.side_edge,
        tri_dual=tri_dual,
        edge_points=edge_points,
        edge_class=edge_class,
        edge_normal=edge_normal,
        edge_tangent=edge_tangent,
        edge_canon_tangent=edge_canon_tangent,
        edge_canon_normal=edge_canon_normal,
        edge_length=edge_length,
        edge_tri=edge_tri,
        edge_sign=edge_sign,
        h=h,
    )

"""Mesh construction, file parsing, and staggered-submesh invariants.

The array construction must reproduce the loop construction kept in
``_oracles`` exactly, raise the same errors, and make a number of Python
calls that does not grow with the mesh.
"""

import dataclasses
import io
import math
import sys

import numpy as np
import pytest

import _oracles as ref
from sdgflow.mesh import (
    DUAL,
    PRIMAL_BOUNDARY,
    PRIMAL_INTERIOR,
    MeshError,
    MeshFormatError,
    MeshGeometryError,
    MeshTopologyError,
    PrimalMesh,
    build_rectangle_mesh,
    build_staggered,
    read_polygon_mesh,
)

SQUARE_FILE = """\
# one unit square
4 1
0 0
1 0
1 1
0 1
4 0 1 2 3
"""

TWO_TRIANGLES = """\
4 2
0 0
1 0
1 1
0 1
3 0 1 2
3 0 2 3
"""


def grid_counts(n):
    total = 2 * n * (n + 1)
    interior = 2 * n * (n - 1)
    return total, interior


def test_single_cell_rectangle():
    mesh = build_rectangle_mesh(1, 1)
    assert mesh.n_polygons == 1
    assert mesh.boundary_edge.sum() == 4
    assert (~mesh.boundary_edge).sum() == 0


@pytest.mark.parametrize("n,total,interior", [(2, 12, 4), (4, 40, 24)])
def test_rectangle_edge_counts(n, total, interior):
    mesh = build_rectangle_mesh(n, n)
    assert mesh.n_polygons == n * n
    assert len(mesh.edge_vertices) == total
    assert (~mesh.boundary_edge).sum() == interior
    assert (total, interior) == grid_counts(n)


def test_rectangle_cells_row_by_row():
    polys = build_rectangle_mesh(3, 2).polygons
    low_left = [j * 4 + i for j in range(2) for i in range(3)]
    np.testing.assert_array_equal(polys, [[v, v + 1, v + 5, v + 4] for v in low_left])


def test_rectangle_invalid_arguments():
    with pytest.raises(ValueError):
        build_rectangle_mesh(0, 3)
    with pytest.raises(ValueError):
        build_rectangle_mesh(2, 2, domain=(0, 0, 0, 1))


def test_read_single_square():
    mesh = read_polygon_mesh(io.StringIO(SQUARE_FILE))
    assert mesh.n_vertices == 4
    assert mesh.n_polygons == 1
    assert mesh.areas[0] == pytest.approx(1.0)


def test_read_two_triangles_share_edge():
    mesh = read_polygon_mesh(io.StringIO(TWO_TRIANGLES))
    assert (~mesh.boundary_edge).sum() == 1


def test_read_nonmanifold_edge():
    text = """\
5 3
0 0
1 0
1 1
0 1
-1 0.5
3 0 1 2
3 0 2 3
3 0 2 4
"""
    with pytest.raises(MeshTopologyError, match="edge"):
        read_polygon_mesh(io.StringIO(text))


def test_read_parse_error_reports_line():
    text = "4 1\n0 0\n1 zero\n1 1\n0 1\n4 0 1 2 3\n"
    with pytest.raises(MeshFormatError, match="line 3"):
        read_polygon_mesh(io.StringIO(text))


def test_read_wrong_polygon_count_reports_line():
    text = "3 1\n0 0\n1 0\n0 1\n4 0 1 2\n"
    with pytest.raises(MeshFormatError, match="line 5"):
        read_polygon_mesh(io.StringIO(text))


def test_read_from_path(tmp_path):
    path = tmp_path / "square.mesh"
    path.write_text(SQUARE_FILE)
    mesh = read_polygon_mesh(path)
    assert mesh.n_polygons == 1


def test_clockwise_polygon_rejected():
    with pytest.raises(MeshGeometryError):
        PrimalMesh([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 3, 2, 1]])


def test_overlapping_polygons_rejected():
    verts = [[0, 0], [1, 0], [1, 1], [0, 1]]
    with pytest.raises(MeshTopologyError):
        PrimalMesh(verts, [[0, 1, 2, 3], [0, 1, 2, 3]])


def test_overlapping_squares_with_balanced_areas_rejected():
    # Unit squares overlapping in a quarter: the polygon areas equal the
    # area their boundary sides enclose, but the sides cross.
    verts = [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5], [1.5, 0.5], [1.5, 1.5], [0.5, 1.5]]
    with pytest.raises(MeshTopologyError, match=r"side 1 \(1 -> 2\) of polygon 0 meets"):
        PrimalMesh(verts, [[0, 1, 2, 3], [4, 5, 6, 7]])


def test_nested_square_rejected():
    # A unit square inside a 2x2 square: no sides cross, but the inner
    # boundary loop runs counterclockwise where a hole would run clockwise.
    verts = [[0, 0], [2, 0], [2, 2], [0, 2], [0.5, 0.5], [1.5, 0.5], [1.5, 1.5], [0.5, 1.5]]
    with pytest.raises(MeshTopologyError, match="polygon 1 is on a counterclockwise"):
        PrimalMesh(verts, [[0, 1, 2, 3], [4, 5, 6, 7]])


def test_ring_with_island_accepted():
    # Boundary loops at depths 0, 1 and 2: counterclockwise, clockwise,
    # counterclockwise.
    verts = [
        [0, 0], [3, 0], [3, 3], [0, 3], [1, 1], [2, 1], [2, 2], [1, 2],
        [1.25, 1.25], [1.75, 1.25], [1.75, 1.75], [1.25, 1.75],
    ]
    ring = [[0, 1, 5, 4], [1, 2, 6, 5], [2, 3, 7, 6], [3, 0, 4, 7]]
    primal = PrimalMesh(verts, ring + [[8, 9, 10, 11]])
    assert primal.areas.sum() == pytest.approx(8.25)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_vertex_rejected(bad):
    # Named before any geometry is computed, which would warn and then
    # report an overlap.
    verts = [[0, 0], [1, float(bad)], [1, 1], [0, 1]]
    with pytest.raises(MeshGeometryError, match="vertex 1 has non-finite coordinates"):
        PrimalMesh(verts, [[0, 1, 2, 3]])
    text = SQUARE_FILE.replace("\n1 0\n", f"\n1 {bad}\n")
    with pytest.raises(MeshGeometryError, match="vertex 1 has non-finite coordinates"):
        read_polygon_mesh(io.StringIO(text))


@pytest.mark.parametrize(
    "index",
    [True, 1.0, 1.7, np.float64(1.0), np.True_],
    ids=["bool", "float", "fraction", "float64", "numpy-bool"],
)
def test_non_integer_vertex_index_rejected(index):
    # An int conversion would read each of these as vertex 1.
    verts = [[0, 0], [1, 0], [1, 1], [0, 1]]
    with pytest.raises(MeshError, match="polygon 0 has a vertex index .* not an integer"):
        PrimalMesh(verts, [[0, index, 2, 3]])


def test_numpy_integer_vertex_indices_accepted():
    verts = [[0, 0], [1, 0], [1, 1], [0, 1]]
    primal = PrimalMesh(verts, [[np.int32(0), np.int64(1), np.uint8(2), 3]])
    assert primal.polygons[0].tolist() == [0, 1, 2, 3]


def test_self_intersecting_polygon_rejected():
    verts = [[0, 0], [2, 0], [0, 1.5], [2, 1.5], [1, 4]]
    with pytest.raises(MeshGeometryError, match="self-intersecting"):
        PrimalMesh(verts, [[0, 1, 3, 2, 4]])


def test_staggered_2x2_counts():
    mesh = build_staggered(build_rectangle_mesh(2, 2))
    assert mesh.n_triangles == 16
    assert len(mesh.dual_edges) == 16
    assert len(mesh.primal_edges) == 12
    assert len(mesh.interior_primal_edges) == 4


def test_staggered_single_triangle_polygon():
    primal = PrimalMesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    mesh = build_staggered(primal)
    assert mesh.n_triangles == 3
    assert len(mesh.dual_edges) == 3


def test_staggered_partition_of_domain():
    mesh = build_staggered(build_rectangle_mesh(3, 5, domain=(0, 0, 2, 1)))
    assert mesh.tri_areas().sum() == pytest.approx(2.0, rel=1e-12)
    for p in range(mesh.primal.n_polygons)[:4]:
        tris = np.flatnonzero(mesh.tri_poly == p)
        assert mesh.tri_areas()[tris].sum() == pytest.approx(
            mesh.primal.areas[p], rel=1e-12
        )


def test_staggered_bad_interior_point():
    primal = build_rectangle_mesh(2, 1)
    pts = np.array([[0.25, 0.5], [5.0, 5.0]])
    with pytest.raises(MeshGeometryError, match="polygon 1"):
        build_staggered(primal, pts)


def outward_normal(mesh, t, e):
    """Outward unit normal of triangle t on edge e, from raw geometry."""
    a, b = mesh.edge_coords(e)
    d = b - a
    n = np.array([d[1], -d[0]]) / np.linalg.norm(d)
    centroid = mesh.tri_coords(t).mean(axis=0)
    mid = 0.5 * (a + b)
    return n if n @ (mid - centroid) > 0 else -n


def test_orientation_consistency():
    mesh = build_staggered(build_rectangle_mesh(3, 3))
    for e in range(mesh.n_edges):
        for side in range(2):
            t = mesh.edge_tri[e, side]
            if t < 0:
                continue
            ni = outward_normal(mesh, t, e)
            np.testing.assert_allclose(
                ni, mesh.edge_sign[e, side] * mesh.edge_normal[e], atol=1e-12
            )
        if mesh.edge_tri[e, 1] >= 0:
            assert mesh.edge_sign[e, 0] * mesh.edge_sign[e, 1] == -1


def test_boundary_normals_point_outward():
    mesh = build_staggered(build_rectangle_mesh(2, 2))
    for e in np.flatnonzero(mesh.edge_class == PRIMAL_BOUNDARY):
        mid = mesh.edge_coords(e).mean(axis=0)
        assert mesh.edge_normal[e] @ (mid - np.array([0.5, 0.5])) > 0


def test_triangle_edge_families():
    mesh = build_staggered(build_rectangle_mesh(2, 3))
    assert (mesh.edge_class[mesh.tri_pedge] != DUAL).all()
    assert (mesh.edge_class[mesh.tri_dual] == DUAL).all()
    # Every triangle side is in exactly one family: adjacency counts add up.
    counts = np.zeros(mesh.n_edges, dtype=int)
    for e in range(mesh.n_edges):
        counts[e] = (mesh.edge_tri[e] >= 0).sum()
    assert counts.sum() == 3 * mesh.n_triangles
    assert set(np.unique(counts)) <= {1, 2}


def test_dual_edges_shared_within_polygon():
    mesh = build_staggered(build_rectangle_mesh(3, 2))
    for e in mesh.dual_edges:
        t1, t2 = mesh.edge_tri[e]
        assert t2 >= 0
        assert mesh.tri_poly[t1] == mesh.tri_poly[t2]


def test_dual_regions_partition_triangles():
    mesh = build_staggered(build_rectangle_mesh(2, 2))
    seen = np.zeros(mesh.n_triangles, dtype=int)
    for e in mesh.primal_edges:
        region = np.flatnonzero(mesh.tri_pedge == e)
        expected = 1 if mesh.edge_class[e] == PRIMAL_BOUNDARY else 2
        assert len(region) == expected
        seen[region] += 1
    assert (seen == 1).all()


def test_hanging_node_split_edge():
    verts = [
        [0, 0], [1, 0], [2, 0], [2, 0.5], [1, 0.5], [2, 1], [1, 1], [0, 1],
    ]
    polys = [
        [0, 1, 4, 6, 7],  # left square, right side split at (1, 0.5)
        [1, 2, 3, 4],
        [4, 3, 5, 6],
    ]
    primal = PrimalMesh(verts, polys)
    mesh = build_staggered(primal)
    assert mesh.tri_areas().sum() == pytest.approx(2.0, rel=1e-12)
    # The split edge is represented as two interior primal edges.
    for pair in [(1, 4), (4, 6)]:
        (eid,) = np.flatnonzero((primal.edge_vertices == pair).all(axis=1))
        assert not primal.boundary_edge[eid]


def test_quality_2x2():
    mesh = build_staggered(build_rectangle_mesh(2, 2))
    # h is the longest triangle side: the 0.5-long primal edge. The dual
    # edges (centroid to corner) have length sqrt(2)/4.
    assert mesh.h == pytest.approx(0.5)
    np.testing.assert_allclose(
        mesh.edge_length[mesh.dual_edges], math.sqrt(2) / 4, rtol=1e-12
    )


def test_refinement_halves_h():
    h2 = build_staggered(build_rectangle_mesh(2, 2)).h
    h4 = build_staggered(build_rectangle_mesh(4, 4)).h
    assert h4 == pytest.approx(h2 / 2)


def honeycomb(n, amp=0.15):
    """Hexagon-dominant tiling of the unit square in n rows of bricks.

    Row j holds n bricks, shifted by half a brick on odd rows, where the
    two end bricks are halved into quadrilaterals. Every full brick spans
    three vertex columns at the bottom and three at the top; interior
    vertex rows zigzag by ``amp / n``, which bends each full brick into a
    convex hexagon.
    """
    cols, rows = np.meshgrid(np.arange(2 * n + 1), np.arange(n + 1))
    lift = np.where((rows > 0) & (rows < n), amp / n * (-1.0) ** (cols + rows), 0.0)
    verts = np.column_stack([(cols / (2 * n)).ravel(), (rows / n + lift).ravel()])

    def vid(c, r):
        return r * (2 * n + 1) + c

    polys = []
    for j in range(n):
        cuts = sorted({0, 2 * n, *range(j % 2, 2 * n + 1, 2)})
        for c0, c1 in zip(cuts[:-1], cuts[1:]):
            bottom = [vid(c, j) for c in range(c0, c1 + 1)]
            top = [vid(c, j + 1) for c in range(c1, c0 - 1, -1)]
            polys.append(bottom + top)
    return verts, polys


def wheel(m=9, seed=0):
    """An irregular m-gon ringed by m quadrilaterals to an outer m-gon."""
    rng = np.random.default_rng(seed)
    angle = 2 * np.pi * (np.arange(m) + rng.uniform(-0.2, 0.2, m)) / m
    unit = np.column_stack([np.cos(angle), np.sin(angle)])
    radius = np.concatenate([1 + rng.uniform(-0.1, 0.1, m), 2 + rng.uniform(-0.1, 0.1, m)])
    verts = np.vstack([unit, unit]) * radius[:, None]
    ring = [[k, m + k, m + (k + 1) % m, (k + 1) % m] for k in range(m)]
    return verts, [list(range(m)), *ring]


def _primal_input(mesh, inner):
    """Vertices, polygons and (when ``inner``) interior points of a mesh."""
    primal = mesh.primal
    points = mesh.points[primal.n_vertices :] if inner else None
    return primal.vertices, primal.polygons, points


def _squares(n):
    primal = build_rectangle_mesh(n, n)
    return primal.vertices, primal.polygons, None


def _trapezoids(n, inner):
    from test_setup import trapezoid_mesh

    return _primal_input(trapezoid_mesh(n), inner)


def _jittered(n, seed=0, amp=0.15):
    from test_spaces import perturbed_mesh

    return _primal_input(perturbed_mesh(n, seed=seed, amp=amp), inner=False)


MESH_INPUTS = {
    **{f"squares{n}": (lambda n=n: _squares(n)) for n in (1, 2, 3, 4, 8, 16)},
    **{f"jittered4-seed{s}": (lambda s=s: _jittered(4, seed=s)) for s in range(4)},
    "jittered8-amp0.3": lambda: _jittered(8, amp=0.3),
    **{
        f"trapezoids{n}-{where}": (lambda n=n, inner=inner: _trapezoids(n, inner))
        for n in (4, 8)
        for where, inner in (("off-centroid", True), ("centroids", False))
    },
    "honeycomb": lambda: (*honeycomb(4), None),
    "wheel9": lambda: (*wheel(9), None),
}


@pytest.mark.parametrize("name", sorted(MESH_INPUTS))
def test_array_construction_matches_loop_reference(name):
    verts, polys, inner = MESH_INPUTS[name]()
    primal = PrimalMesh(verts, polys)
    want_primal = ref.LoopPrimalMesh(verts, polys)
    mesh = build_staggered(primal, inner)
    want = ref.loop_build_staggered(want_primal, inner)
    for f in dataclasses.fields(mesh):
        if f.name in ("primal", "tables"):
            continue
        got, exp = getattr(mesh, f.name), getattr(want, f.name)
        if f.name == "h":
            assert got == exp
            continue
        assert got.dtype == exp.dtype and got.shape == exp.shape, f.name
        assert np.array_equal(got, exp), f.name
    np.testing.assert_array_equal(primal.edge_vertices, want_primal.edge_vertices)
    np.testing.assert_array_equal(primal.boundary_edge, want_primal.boundary_edge)
    assert len(primal.polygons) == len(want_primal.polygons)
    for got, exp in zip(primal.polygons, want_primal.polygons):
        np.testing.assert_array_equal(got, exp)


SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1]]

DEFECTS = {
    "non-manifold": (
        [[0, 0], [1, 0], [1, 1], [0, 1], [-1, 0.5]],
        [[0, 1, 2], [0, 2, 3], [0, 2, 4]],
        None,
    ),
    "clockwise": (SQUARE, [[0, 3, 2, 1]], None),
    "same direction": (SQUARE, [[0, 1, 2, 3], [0, 1, 2, 3]], None),
    "self-intersecting": ([[0, 0], [2, 0], [0, 1.5], [2, 1.5], [1, 4]], [[0, 1, 3, 2, 4]], None),
    "bad interior point": (
        build_rectangle_mesh(2, 1).vertices,
        build_rectangle_mesh(2, 1).polygons,
        [[0.25, 0.5], [5.0, 5.0]],
    ),
    "repeated vertex": (SQUARE, [[0, 1, 2, 3], [1, 2, 1]], None),
    "missing vertex": (SQUARE, [[0, 1, 2, 3], [1, 4, 2]], None),
    "too few vertices": (SQUARE, [[0, 1, 2, 3], [1, 2]], None),
    "interior point count": (SQUARE, [[0, 1, 2, 3]], [[0.5, 0.5], [0.2, 0.2]]),
}


def _failure(build_primal, build, verts, polys, inner):
    with pytest.raises(ValueError) as info:
        build(build_primal(verts, polys), inner)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("name", sorted(DEFECTS))
def test_defects_raise_like_loop_reference(name):
    got = _failure(PrimalMesh, build_staggered, *DEFECTS[name])
    want = _failure(ref.LoopPrimalMesh, ref.loop_build_staggered, *DEFECTS[name])
    assert got == want


def _python_calls(n):
    """Python and C-function call events while building an n-by-n square
    mesh and its staggered submesh."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    sys.setprofile(profile)
    try:
        build_staggered(build_rectangle_mesh(n, n))
    finally:
        sys.setprofile(None)
    return count


def test_mesh_python_calls_do_not_grow_with_mesh():
    _python_calls(2)  # warm lazy imports
    coarse, fine = _python_calls(4), _python_calls(16)
    assert fine <= 1.25 * coarse, (coarse, fine)

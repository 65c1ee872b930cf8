"""Batched set-up path against the element-by-element reference.

Tables, numbering, expansion matrices, the five operators of
``build_operators``, the three adjoints that ``Operators`` assembles on
first access, and interpolation must match the loop versions kept
in ``_oracles``; the number of Python calls made while building the
operators must not grow with the mesh. The constant pressure must span
the nullspaces of both pressure couplings, which the step solver's
pressure normalisation relies on.
"""

import io
import sys

import numpy as np
import pytest
import scipy.sparse as sp

import _oracles as ref
from sdgflow import spaces
from sdgflow.mesh import PrimalMesh, build_rectangle_mesh, build_staggered, read_polygon_mesh
from sdgflow.solver import build_operators
from sdgflow.spaces import GRADIENT, PRESSURE, TRACE, VELOCITY, interpolate
from test_forms import flipped
from test_mesh import honeycomb
from test_spaces import perturbed_mesh


def trapezoid_mesh(n):
    """n-by-n trapezoid tiling read through the polygon-file parser.

    Interior columns lean alternately left and right from row to row, so
    every cell is a trapezoid; one extra vertex on the first interior
    horizontal edge turns the two cells sharing it into pentagons.
    Interior points sit off the vertex mean, towards each polygon's first
    vertex.
    """
    verts = []
    for j in range(n + 1):
        for i in range(n + 1):
            lean = 0.2 / n * (-1) ** j if 0 < i < n and 0 < j < n else 0.0
            verts.append((i / n + lean, j / n))

    def vid(i, j):
        return j * (n + 1) + i

    mid = len(verts)
    verts.append((0.5 * (verts[vid(0, 1)][0] + verts[vid(1, 1)][0]), 1.0 / n))
    polys = []
    for j in range(n):
        for i in range(n):
            poly = [vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)]
            if (i, j) == (0, 0):
                poly.insert(3, mid)
            elif (i, j) == (0, 1):
                poly.insert(1, mid)
            polys.append(poly)
    lines = [f"{len(verts)} {len(polys)}"]
    lines += [f"{x!r} {y!r}" for x, y in verts]
    lines += [" ".join(str(v) for v in [len(p), *p]) for p in polys]
    primal = read_polygon_mesh(io.StringIO("\n".join(lines) + "\n"))
    inner = np.array(
        [
            0.75 * primal.vertices[p].mean(axis=0) + 0.25 * primal.vertices[p[0]]
            for p in primal.polygons
        ]
    )
    return build_staggered(primal, inner)


MESHES = {
    "squares": lambda: build_staggered(build_rectangle_mesh(4, 4)),
    "perturbed": lambda: perturbed_mesh(4),
    "flipped": lambda: flipped(perturbed_mesh(4)),
    "polygons": lambda: trapezoid_mesh(4),
    "hexagons": lambda: build_staggered(PrimalMesh(*honeycomb(4))),
}

KINDS = (VELOCITY, GRADIENT, PRESSURE, TRACE)


def rel(a, b):
    """Frobenius norm of a - b relative to that of b."""
    if sp.issparse(a):
        diff, base = sp.linalg.norm(a - b), sp.linalg.norm(b)
    else:
        diff, base = np.linalg.norm(a - b), np.linalg.norm(b)
    return diff / base


def smooth_field(kind):
    def fn(pts):
        x, y = pts[:, 0], pts[:, 1]
        s = np.sin(2.0 * x + y) + np.exp(x * y)
        if kind == PRESSURE:
            return s
        if kind == GRADIENT:
            return np.stack(
                [np.stack([s, x * s], -1), np.stack([np.cos(y), y**3], -1)], -2
            )
        return np.column_stack([s, np.cos(3.0 * x - y)])

    return fn


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_batched_setup_matches_loop_reference(mesh_name, k):
    mesh = MESHES[mesh_name]()
    for deg in (spaces.std_degree(k), spaces.enhanced_degree(k), spaces.SMOOTH_DEGREE):
        got_t, want_t = spaces.tri_tables(mesh, k, deg), ref.loop_tri_tables(mesh, k, deg)
        got_e, want_e = spaces.edge_tables(mesh, k, deg), ref.loop_edge_tables(mesh, k, deg)
        for name in ("pts", "w", "val", "grad"):
            a, b = getattr(got_t, name), getattr(want_t, name)
            assert a.shape == b.shape
            assert np.abs(a - b).max() <= 1e-15 * np.abs(b).max(), (deg, name)
        for name in ("pts", "w", "trace", "leg"):
            a, b = getattr(got_e, name), getattr(want_e, name)
            assert a.shape == b.shape
            assert np.abs(a - b).max() <= 1e-15 * np.abs(b).max(), (deg, name)

    ops = build_operators(mesh, k)
    got = dict(zip(KINDS, (ops.velocity, ops.gradient, ops.pressure, ops.trace)))
    want = {kind: ref.LoopSpace(mesh, kind, k) for kind in KINDS}
    for kind in KINDS:
        assert got[kind].global_dim == want[kind].global_dim
        assert got[kind].broken_dim == want[kind].broken_dim
        np.testing.assert_array_equal(got[kind].dof_map, want[kind].dof_map)
        assert got[kind].local_E.shape == want[kind].local_E.shape
        assert rel(got[kind].E, want[kind].E) <= 1e-14, kind
        if kind != TRACE:
            assert rel(got[kind].local_E, want[kind].local_E) <= 1e-14, kind

    u, w, p, th = (want[kind] for kind in KINDS)
    expected = {
        "MU": ref.loop_mass(u),
        "MW": ref.loop_mass(w),
        "BU": ref.loop_velocity_gradient(u, w),
        "BW": ref.loop_velocity_gradient_adjoint(w, u),
        "DP": ref.loop_divergence(p, u),
        "GU": ref.loop_divergence_adjoint(u, p),
        "TH": ref.loop_trace_jump(th, w),
        "TW": ref.loop_trace_jump_adjoint(w, th),
        "mp": ref.loop_pressure_integral(p),
        "p_const": ref.loop_interpolate(p, lambda pts: np.ones(len(pts))),
    }
    # The operators are compressed through E, and their roundoff grows
    # with the conditioning of the scaled-monomial functional matrices:
    # at k = 3, mp differs from the oracle's by up to 4e-14 relative (on
    # the trapezoids; BU by 1.5e-14), while E itself stays within 1e-14.
    op_tol = 1e-14 if k <= 2 else 1e-13
    for name, matrix in expected.items():
        assert rel(getattr(ops, name), matrix) <= op_tol, name

    for kind in KINDS:
        fn = smooth_field(kind)
        a = interpolate(got[kind], fn).values
        assert rel(a, ref.loop_interpolate(want[kind], fn)) <= 1e-14, kind


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_adjoint_patterns_match_transposes(mesh_name, k):
    # Compression leaves roundoff residues wherever contributions cancel,
    # in places that depend on the summation order. With the residues
    # dropped, each independently assembled adjoint stores exactly the
    # entries of its operator's transpose.
    ops = build_operators(MESHES[mesh_name](), k)
    for adjoint, name in (("BW", "BU"), ("GU", "DP"), ("TW", "TH")):
        got, want = getattr(ops, adjoint).tocsr(), getattr(ops, name).T.tocsr()
        got.sort_indices()
        want.sort_indices()
        np.testing.assert_array_equal(got.indptr, want.indptr, err_msg=adjoint)
        np.testing.assert_array_equal(got.indices, want.indices, err_msg=adjoint)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_constant_pressure_spans_both_nullspaces(mesh_name, k):
    # The pressure gradient of a constant vanishes, and the constant
    # weights the divergence rows to zero: the step matrix is singular on
    # both sides through p_const alone, so pinning one pressure
    # coefficient and shifting to zero mean solves it without a
    # multiplier.
    ops = build_operators(MESHES[mesh_name](), k)
    c1 = ops.p_const
    for name, image in (("DP", ops.DP.T @ c1), ("GU", ops.GU @ c1)):
        bound = 1e-14 * sp.linalg.norm(getattr(ops, name)) * np.linalg.norm(c1)
        assert np.linalg.norm(image) <= bound, name
    assert ops.mp @ c1 > 0.0


def _python_calls(n):
    """Python and C-function call events while building the operators of
    a fresh n-by-n square mesh at k = 1."""
    mesh = build_staggered(build_rectangle_mesh(n, n))
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    sys.setprofile(profile)
    try:
        build_operators(mesh, 1)
    finally:
        sys.setprofile(None)
    return count


def test_setup_python_calls_do_not_grow_with_mesh():
    _python_calls(2)  # warm lazy imports and cached rules
    coarse, fine = _python_calls(4), _python_calls(16)
    assert fine <= 1.25 * coarse, (coarse, fine)

"""Space dimensions, continuity realization, interpolation, evaluation."""

import numpy as np
import pytest

from _oracles import random_triangle
from sdgflow import spaces
from sdgflow.mesh import PrimalMesh, build_rectangle_mesh, build_staggered
from sdgflow.spaces import (
    GRADIENT,
    PRESSURE,
    TRACE,
    VELOCITY,
    FieldCoefficients,
    build_space,
    evaluate_field,
    evaluate_trace,
    interpolate,
)


def staggered(n):
    return build_staggered(build_rectangle_mesh(n, n))


def perturbed_mesh(n, seed=0, amp=0.15):
    """n-by-n quad mesh with interior vertices jittered off the grid."""
    rng = np.random.default_rng(seed)
    primal = build_rectangle_mesh(n, n)
    verts = np.array(primal.vertices)
    h = 1.0 / n
    xs, ys = verts[:, 0], verts[:, 1]
    interior = (xs > 1e-12) & (xs < 1 - 1e-12) & (ys > 1e-12) & (ys < 1 - 1e-12)
    verts[interior] += rng.uniform(-amp * h, amp * h, size=(interior.sum(), 2))
    return build_staggered(PrimalMesh(verts, [list(p) for p in primal.polygons]))


def l2_norm_sq(space, coeffs):
    ttab = spaces.tri_tables(space.mesh, space.k, spaces.enhanced_degree(space.k))
    broken = space.broken(coeffs)
    vals = np.einsum("tcn,tnq->tcq", broken, ttab.val)
    return float(np.einsum("tcq,tq->", vals**2, ttab.w))


def l2_error(space, coeffs, exact):
    """L2 distance between a discrete field and an exact callable."""
    ttab = spaces.tri_tables(space.mesh, space.k, spaces.SMOOTH_DEGREE)
    nt, nq = ttab.w.shape
    broken = space.broken(coeffs)
    vals = np.einsum("tcn,tnq->tcq", broken, ttab.val)
    ex = np.asarray(exact(ttab.pts.reshape(-1, 2)))
    if space.kind == PRESSURE:
        ex = ex.reshape(nt, 1, nq)
    elif space.kind == VELOCITY:
        ex = ex.reshape(nt, nq, 2).transpose(0, 2, 1)
    else:
        ex = ex.reshape(nt, nq, 4).transpose(0, 2, 1)
    return float(np.sqrt(np.einsum("tcq,tq->", (vals - ex) ** 2, ttab.w)))


DIMENSIONS_2X2 = {VELOCITY: 64, GRADIENT: 176, PRESSURE: 40, TRACE: 32}


@pytest.mark.parametrize("kind,expected", sorted(DIMENSIONS_2X2.items()))
def test_dimensions_on_2x2(kind, expected):
    space = build_space(staggered(2), kind, 1)
    assert space.global_dim == expected


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dimension_formulas_nxn(n):
    mesh = staggered(n)
    assert build_space(mesh, VELOCITY, 1).global_dim == 16 * n * n
    assert build_space(mesh, GRADIENT, 1).global_dim == 40 * n * n + 8 * n
    assert build_space(mesh, PRESSURE, 1).global_dim == 8 * n * n + 4 * n
    assert build_space(mesh, TRACE, 1).global_dim == 8 * n * n


def test_broken_dimensions_2x2():
    mesh = staggered(2)
    assert build_space(mesh, VELOCITY, 1).broken_dim == 96
    assert build_space(mesh, GRADIENT, 1).broken_dim == 192
    assert build_space(mesh, PRESSURE, 1).broken_dim == 48


def edge_trace_values(space, coeffs, e, side, pts):
    t = space.mesh.edge_tri[e, side]
    fc = FieldCoefficients(space, coeffs)
    return evaluate_field(fc, int(t), pts)


@pytest.mark.parametrize("meshfn", [lambda: staggered(3), lambda: perturbed_mesh(3)])
@pytest.mark.parametrize("k", [1, 2])
def test_velocity_normal_continuity(meshfn, k):
    mesh = meshfn()
    space = build_space(mesh, VELOCITY, k)
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(space.global_dim)
    for e in mesh.dual_edges[::3]:
        a, b = mesh.edge_coords(e)
        pts = a + np.linspace(0.1, 0.9, 5)[:, None] * (b - a)
        n = mesh.edge_normal[e]
        v1 = edge_trace_values(space, coeffs, e, 0, pts) @ n
        v2 = edge_trace_values(space, coeffs, e, 1, pts) @ n
        np.testing.assert_allclose(v1, v2, atol=1e-12 * max(1, np.abs(v1).max()))


@pytest.mark.parametrize("k", [1, 2])
def test_gradient_normal_continuity(k):
    mesh = perturbed_mesh(3, seed=5)
    space = build_space(mesh, GRADIENT, k)
    rng = np.random.default_rng(4)
    coeffs = rng.standard_normal(space.global_dim)
    for e in mesh.interior_primal_edges:
        a, b = mesh.edge_coords(e)
        pts = a + np.linspace(0.05, 0.95, 5)[:, None] * (b - a)
        n = mesh.edge_normal[e]
        g1 = edge_trace_values(space, coeffs, e, 0, pts) @ n
        g2 = edge_trace_values(space, coeffs, e, 1, pts) @ n
        np.testing.assert_allclose(g1, g2, atol=1e-12 * max(1, np.abs(g1).max()))


@pytest.mark.parametrize("k", [1, 2])
def test_pressure_trace_continuity(k):
    mesh = perturbed_mesh(3, seed=6)
    space = build_space(mesh, PRESSURE, k)
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(space.global_dim)
    for e in mesh.interior_primal_edges:
        a, b = mesh.edge_coords(e)
        pts = a + np.linspace(0.05, 0.95, 5)[:, None] * (b - a)
        q1 = edge_trace_values(space, coeffs, e, 0, pts)
        q2 = edge_trace_values(space, coeffs, e, 1, pts)
        np.testing.assert_allclose(q1, q2, atol=1e-12 * max(1, np.abs(q1).max()))


def test_velocity_interpolation_reproduces_members():
    mesh = staggered(2)
    space = build_space(mesh, VELOCITY, 1)
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(space.global_dim)
    fc = FieldCoefficients(space, coeffs)

    def member(pts):
        out = np.empty((len(pts), 2))
        ttab = spaces.tri_tables(mesh, 1, spaces.SMOOTH_DEGREE)
        # locate each point's triangle by matching the cached layout
        for i, p in enumerate(pts):
            t = _find_triangle(mesh, p)
            out[i] = evaluate_field(fc, t, p[None])[0]
        return out

    redone = interpolate(space, member)
    diff = redone.values - coeffs
    assert np.sqrt(l2_norm_sq(space, diff)) <= 1e-12 * np.abs(coeffs).max()


def _cross2(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _find_triangle(mesh, p):
    c = mesh.points[mesh.tri]
    d0 = _cross2(c[:, 1] - c[:, 0], p - c[:, 0])
    d1 = _cross2(c[:, 2] - c[:, 1], p - c[:, 1])
    d2 = _cross2(c[:, 0] - c[:, 2], p - c[:, 2])
    inside = (d0 >= -1e-12) & (d1 >= -1e-12) & (d2 >= -1e-12)
    return int(np.flatnonzero(inside)[0])


def test_velocity_constant_field():
    space = build_space(staggered(2), VELOCITY, 1)
    fc = interpolate(space, lambda p: np.tile([1.0, 0.0], (len(p), 1)))
    rng = np.random.default_rng(0)
    for t in [0, 5, 11]:
        pts = space.mesh.tri_coords(t).mean(axis=0) + 0.01 * rng.standard_normal((4, 2))
        np.testing.assert_allclose(
            evaluate_field(fc, t, pts), [[1.0, 0.0]] * 4, atol=1e-13
        )


def test_velocity_interpolation_order():
    def smooth(pts):
        x, y = pts[:, 0], pts[:, 1]
        return np.column_stack([np.sin(np.pi * x) * np.cos(y), np.exp(x) * y * y])

    errs = []
    for n in (2, 4, 8):
        space = build_space(staggered(n), VELOCITY, 1)
        fc = interpolate(space, smooth)
        errs.append(l2_error(space, fc.values, smooth))
    rates = np.log2(np.array(errs[:-1]) / errs[1:])
    assert rates[-1] == pytest.approx(2.0, abs=0.2)


def test_pressure_polynomial_reproduction():
    mesh = perturbed_mesh(2, seed=9)
    space = build_space(mesh, PRESSURE, 1)
    poly = lambda p: 2.0 + 3.0 * p[:, 0] - p[:, 1]
    fc = interpolate(space, poly)
    assert l2_error(space, fc.values, poly) <= 1e-13


def test_pressure_constant_one():
    space = build_space(staggered(2), PRESSURE, 1)
    fc = interpolate(space, lambda p: np.ones(len(p)))
    assert l2_error(space, fc.values, lambda p: np.ones(len(p))) <= 1e-13


def test_pressure_interpolation_order():
    smooth = lambda p: np.sin(p[:, 0]) * np.cos(p[:, 1])
    errs = []
    for n in (2, 4, 8):
        space = build_space(staggered(n), PRESSURE, 1)
        fc = interpolate(space, smooth)
        errs.append(l2_error(space, fc.values, smooth))
    rates = np.log2(np.array(errs[:-1]) / errs[1:])
    assert rates[-1] == pytest.approx(2.0, abs=0.2)


def test_gradient_polynomial_reproduction():
    mesh = perturbed_mesh(2, seed=13)
    space = build_space(mesh, GRADIENT, 1)

    def poly(p):
        x, y = p[:, 0], p[:, 1]
        out = np.empty((len(p), 2, 2))
        out[:, 0, 0] = 1 + x
        out[:, 0, 1] = 2 * y
        out[:, 1, 0] = x - y
        out[:, 1, 1] = 3.0
        return out

    fc = interpolate(space, poly)
    flat = lambda p: poly(p).reshape(len(p), 4)
    assert l2_error(space, fc.values, flat) <= 1e-12


@pytest.mark.parametrize("k", [0, 1, 2])
def test_interpolation_samples_the_field_once(k):
    # One call on the edges that carry the shared moments (the trace's
    # dual edges included) and, with interior moments, one on the
    # triangles: a shared edge is not sampled once per side.
    mesh = perturbed_mesh(2, seed=1)
    nq_edge = spaces.edge_tables(mesh, k, spaces.SMOOTH_DEGREE).w.shape[1]
    tri_nodes = spaces.tri_tables(mesh, k, spaces.SMOOTH_DEGREE).w.size
    shapes = {VELOCITY: (2,), GRADIENT: (2, 2), PRESSURE: (), TRACE: (2,)}
    for kind, edges in (
        (VELOCITY, mesh.dual_edges),
        (GRADIENT, mesh.primal_edges),
        (PRESSURE, mesh.primal_edges),
        (TRACE, mesh.dual_edges),
    ):
        calls = []

        def field(pts):
            calls.append(len(pts))
            return np.ones((len(pts),) + shapes[kind])

        interpolate(build_space(mesh, kind, k), field)
        want = [len(edges) * nq_edge] + ([tri_nodes] if k and kind != TRACE else [])
        assert calls == want, kind

def test_evaluate_zero_coefficients():
    space = build_space(staggered(2), VELOCITY, 1)
    fc = FieldCoefficients(space, np.zeros(space.global_dim))
    np.testing.assert_array_equal(evaluate_field(fc, 3, [[0.3, 0.3]]), 0.0)


def test_evaluate_linear_field_reproduced():
    space = build_space(staggered(2), VELOCITY, 1)
    linear = lambda p: np.column_stack([p[:, 0] + 2 * p[:, 1], 1 - p[:, 0]])
    fc = interpolate(space, linear)
    rng = np.random.default_rng(2)
    for t in [1, 7, 14]:
        tri = space.mesh.tri_coords(t)
        lam = rng.dirichlet([1, 1, 1], size=5)
        pts = lam @ tri
        np.testing.assert_allclose(evaluate_field(fc, t, pts), linear(pts), atol=1e-13)


def test_evaluate_out_of_range():
    space = build_space(staggered(2), VELOCITY, 1)
    fc = FieldCoefficients(space, np.zeros(space.global_dim))
    with pytest.raises(IndexError):
        evaluate_field(fc, 99, [[0.1, 0.1]])


def test_dual_edge_midpoint_normal_agreement():
    mesh = staggered(2)
    space = build_space(mesh, VELOCITY, 1)
    rng = np.random.default_rng(8)
    coeffs = rng.standard_normal(space.global_dim)
    fc = FieldCoefficients(space, coeffs)
    e = int(mesh.dual_edges[4])
    mid = mesh.edge_coords(e).mean(axis=0)[None]
    n = mesh.edge_normal[e]
    t1, t2 = mesh.edge_tri[e]
    v1 = evaluate_field(fc, int(t1), mid)[0] @ n
    v2 = evaluate_field(fc, int(t2), mid)[0] @ n
    assert v1 == pytest.approx(v2, abs=1e-12)


def test_trace_space_roundtrip():
    mesh = staggered(2)
    space = build_space(mesh, TRACE, 1)
    assert space.global_dim == 32

    def tangential(pts):
        return np.column_stack([pts[:, 1] - 0.3, 0.5 - pts[:, 0]])

    fc = interpolate(space, tangential)
    e = int(mesh.dual_edges[3])
    a, b = mesh.edge_coords(e)
    pts = a + np.linspace(0.2, 0.8, 3)[:, None] * (b - a)
    got = evaluate_trace(fc, e, pts)
    t_hat = mesh.edge_canon_tangent[e]
    expected = np.outer(tangential(pts) @ t_hat, t_hat)
    np.testing.assert_allclose(got, expected, atol=1e-12)
    # the trace field never has a normal component
    np.testing.assert_allclose(got @ mesh.edge_normal[e], 0.0, atol=1e-13)
    with pytest.raises(ValueError, match="dual edges"):
        evaluate_trace(fc, int(mesh.primal_edges[0]), pts)


def test_coefficient_length_validation():
    space = build_space(staggered(2), PRESSURE, 1)
    with pytest.raises(ValueError):
        FieldCoefficients(space, np.zeros(space.global_dim + 1))


def test_table_cache_does_not_keep_meshes_alive():
    import gc
    import weakref

    refs = []
    for _ in range(20):
        mesh = staggered(2)
        build_space(mesh, VELOCITY, 1)
        spaces.edge_tables(mesh, 1, spaces.SMOOTH_DEGREE)
        assert spaces.tri_tables(mesh, 1, 4) is spaces.tri_tables(mesh, 1, 4)
        refs.append(weakref.ref(mesh))
    del mesh
    gc.collect()
    assert not any(ref() is not None for ref in refs)

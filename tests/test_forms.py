"""Operator assembly: adjoint pairs, orientation invariance, oracles."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from sdgflow import spaces
from sdgflow.forms import (
    DragMassAssembler,
    apply_divergence,
    apply_drag,
    apply_divergence_adjoint,
    assemble_divergence,
    assemble_divergence_adjoint,
    assemble_load,
    assemble_mass,
    assemble_trace_jump,
    assemble_trace_jump_adjoint,
    assemble_velocity_gradient,
    assemble_velocity_gradient_adjoint,
    drop_small,
    pressure_integral,
)
from sdgflow.mesh import PrimalMesh, build_rectangle_mesh, build_staggered
from sdgflow.spaces import (
    GRADIENT,
    PRESSURE,
    TRACE,
    VELOCITY,
    FieldCoefficients,
    build_space,
    interpolate,
)
from _oracles import drag_jacobian
from test_spaces import perturbed_mesh


def staggered(n):
    return build_staggered(build_rectangle_mesh(n, n))


def flipped(mesh):
    """Copy of the mesh with the jump orientation reversed on interior edges."""
    en = np.array(mesh.edge_normal)
    et = np.array(mesh.edge_tangent)
    es = np.array(mesh.edge_sign)
    interior = mesh.edge_tri[:, 1] >= 0
    en[interior] *= -1.0
    et[interior] *= -1.0
    es[interior] *= -1.0
    for a in (en, et, es):
        a.setflags(write=False)
    return dataclasses.replace(mesh, edge_normal=en, edge_tangent=et, edge_sign=es)


def all_spaces(mesh, k):
    return {kind: build_space(mesh, kind, k) for kind in (VELOCITY, GRADIENT, PRESSURE, TRACE)}


def six_operators(sp_by_kind):
    u, w, p, th = (sp_by_kind[k] for k in (VELOCITY, GRADIENT, PRESSURE, TRACE))
    return {
        "BU": assemble_velocity_gradient(u, w),
        "BW": assemble_velocity_gradient_adjoint(w, u),
        "DP": assemble_divergence(p, u),
        "GU": assemble_divergence_adjoint(u, p),
        "TH": assemble_trace_jump(th, w),
        "TW": assemble_trace_jump_adjoint(w, th),
    }


@pytest.mark.parametrize(
    "meshfn,k",
    [(lambda: staggered(2), 1), (lambda: perturbed_mesh(3, seed=2), 1), (lambda: staggered(2), 2)],
)
def test_adjoint_identities(meshfn, k):
    ops = six_operators(all_spaces(meshfn(), k))
    for a, b in (("BU", "BW"), ("DP", "GU"), ("TH", "TW")):
        A = ops[a].toarray()
        B = ops[b].toarray().T
        np.testing.assert_allclose(A, B, atol=1e-12 * max(1.0, np.abs(A).max()))


def test_orientation_flip_invariance():
    mesh = perturbed_mesh(2, seed=7)
    ops = six_operators(all_spaces(mesh, 1))
    ops_f = six_operators(all_spaces(flipped(mesh), 1))
    for name, A in ops.items():
        np.testing.assert_allclose(
            A.toarray(), ops_f[name].toarray(), atol=1e-13 * max(1.0, np.abs(A).max())
        )


def grad_field(pts):
    out = np.zeros((len(pts), 2, 2))
    out[:, 0, 0] = pts[:, 0]
    return out


@pytest.mark.parametrize(
    "meshfn,area",
    [
        (lambda: build_staggered(PrimalMesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])), 0.5),
        (lambda: staggered(2), 1.0),
    ],
)
def test_velocity_gradient_hand_value(meshfn, area):
    # With G = x e1 (x) e1 and v = e1 only the boundary jump terms
    # survive, giving minus the boundary flux of x n_1 = minus the area.
    mesh = meshfn()
    u = build_space(mesh, VELOCITY, 1)
    w = build_space(mesh, GRADIENT, 1)
    BU = assemble_velocity_gradient(u, w)
    cu = interpolate(u, lambda p: np.tile([1.0, 0.0], (len(p), 1))).values
    cg = interpolate(w, grad_field).values
    assert cu @ (BU @ cg) == pytest.approx(-area, abs=1e-12)


def test_velocity_gradient_constants_vanish():
    mesh = staggered(2)
    u = build_space(mesh, VELOCITY, 1)
    w = build_space(mesh, GRADIENT, 1)
    BU = assemble_velocity_gradient(u, w)
    cu = interpolate(u, lambda p: np.tile([0.4, -1.1], (len(p), 1))).values
    cg = interpolate(w, lambda p: np.tile([[2.0, 1.0], [-3.0, 0.5]], (len(p), 1, 1))).values
    assert cu @ (BU @ cg) == pytest.approx(0.0, abs=1e-12)


def test_divergence_constant_pressure_vanishes():
    mesh = perturbed_mesh(2, seed=3)
    u = build_space(mesh, VELOCITY, 1)
    p = build_space(mesh, PRESSURE, 1)
    DP = assemble_divergence(p, u)
    c1 = interpolate(p, lambda pts: np.ones(len(pts))).values
    np.testing.assert_allclose(c1 @ DP, 0.0, atol=1e-12)


def test_trace_jump_vanishes_on_polynomials():
    mesh = perturbed_mesh(2, seed=4)
    w = build_space(mesh, GRADIENT, 1)
    th = build_space(mesh, TRACE, 1)
    TH = assemble_trace_jump(th, w)

    def poly(p):
        x, y = p[:, 0], p[:, 1]
        out = np.empty((len(p), 2, 2))
        out[:, 0, 0] = 1 + 2 * x - y
        out[:, 0, 1] = x + y
        out[:, 1, 0] = 3 * y
        out[:, 1, 1] = x - 4
        return out

    cg = interpolate(w, poly).values
    np.testing.assert_allclose(TH @ cg, 0.0, atol=1e-12 * np.abs(cg).max())


def test_mass_matches_l2_norm():
    mesh = staggered(2)
    u = build_space(mesh, VELOCITY, 1)
    MU = assemble_mass(u)
    c = interpolate(u, lambda p: np.tile([3.0, 4.0], (len(p), 1))).values
    assert c @ (MU @ c) == pytest.approx(25.0, rel=1e-12)
    sym = (MU - MU.T).toarray()
    assert np.abs(sym).max() <= 1e-13
    np.linalg.cholesky(MU.toarray())


def test_weighted_mass_constant_speed():
    # A frozen velocity of magnitude 5 scales the mass matrix by 5.
    mesh = staggered(2)
    u = build_space(mesh, VELOCITY, 1)
    MU = assemble_mass(u)
    wconst = interpolate(u, lambda p: np.tile([3.0, 4.0], (len(p), 1)))
    MW = assemble_mass(u, weight=wconst)
    np.testing.assert_allclose(MW.toarray(), 5.0 * MU.toarray(), atol=1e-12)


def test_reaction_energy_value():
    # (alpha v + beta |v| v, v) = (1 + |v|) |v|^2 |domain| for constant v.
    mesh = staggered(2)
    u = build_space(mesh, VELOCITY, 1)
    v = interpolate(u, lambda p: np.tile([3.0, 4.0], (len(p), 1)))
    A = assemble_mass(u) + assemble_mass(u, weight=v)
    assert v.values @ (A @ v.values) == pytest.approx(150.0, rel=1e-12)


def test_picard_weighted_mass_consistency():
    # The frozen-coefficient matrix against w itself must match a direct
    # quadrature of (alpha w + beta |w| w, basis_i) on the same tier.
    mesh = perturbed_mesh(2, seed=8)
    u = build_space(mesh, VELOCITY, 1)
    rng = np.random.default_rng(12)
    w = FieldCoefficients(u, rng.standard_normal(u.global_dim))
    alpha, beta = 0.7, 2.5
    lhs = (alpha * assemble_mass(u) + beta * assemble_mass(u, weight=w)) @ w.values

    ttab = spaces.tri_tables(mesh, 1, spaces.enhanced_degree(1))
    broken = u.broken(w.values)
    vals = np.einsum("tcn,tnq->tcq", broken, ttab.val)
    speed = np.hypot(vals[:, 0], vals[:, 1])
    nvals = (alpha + beta * speed)[:, None, :] * vals
    rhs = u.E.T @ np.einsum("tmq,tq,tcq->tcm", ttab.val, ttab.w, nvals).reshape(
        mesh.n_triangles, -1
    ).ravel()
    np.testing.assert_allclose(lhs, rhs, atol=1e-10 * np.abs(lhs).max())


@pytest.mark.parametrize("k", [1, 2])
def test_drag_mass_assembler_matches_reference(k):
    # The precomputed fast path must reproduce the Jacobian integrated
    # triangle by triangle.
    mesh = perturbed_mesh(3, seed=4)
    u = build_space(mesh, VELOCITY, k)
    fast = DragMassAssembler(u)
    rng = np.random.default_rng(77)
    for _ in range(3):
        coeffs = rng.standard_normal(u.global_dim)
        ref = drag_jacobian(u, coeffs).toarray()
        got = fast(coeffs).toarray()
        np.testing.assert_allclose(got, ref, atol=1e-13 * np.abs(ref).max())
    with pytest.raises(ValueError):
        DragMassAssembler(build_space(mesh, PRESSURE, k))


@pytest.mark.parametrize("k", [1, 2])
def test_drag_jacobian(k):
    # J(c) is the derivative of c -> D(c) c with D(c) = assemble_mass(u,
    # weight=c), symmetric, exactly twice D(c) against c itself, and zero
    # at rest.
    mesh = perturbed_mesh(3, seed=4)
    u = build_space(mesh, VELOCITY, k)
    drag = DragMassAssembler(u)
    rng = np.random.default_rng(5)

    def residual(c):
        return assemble_mass(u, weight=FieldCoefficients(u, c)) @ c

    for _ in range(2):
        c = rng.standard_normal(u.global_dim)
        J = drag(c)
        d = rng.standard_normal(u.global_dim)
        h = 1e-6
        fd = (residual(c + h * d) - residual(c - h * d)) / (2.0 * h)
        np.testing.assert_allclose(J @ d, fd, atol=1e-7 * np.abs(fd).max())
        twice = 2.0 * residual(c)
        np.testing.assert_allclose(J @ c, twice, atol=1e-12 * np.abs(twice).max())
        dense = J.toarray()
        np.testing.assert_allclose(dense, dense.T, atol=1e-14 * np.abs(dense).max())
    rest = drag(np.zeros(u.global_dim))
    assert rest.shape == (u.global_dim, u.global_dim) and not rest.data.any()


@pytest.mark.parametrize("k", [1, 2])
def test_apply_drag_matches_drag_matrices(k):
    # The matrix-free D(c) c equals the speed-weighted mass and half the
    # Jacobian applied to c itself, and vanishes at rest.
    mesh = perturbed_mesh(3, seed=4)
    u = build_space(mesh, VELOCITY, k)
    drag = DragMassAssembler(u)
    rng = np.random.default_rng(11)
    for _ in range(3):
        c = rng.standard_normal(u.global_dim)
        got = apply_drag(u, c)
        mass = assemble_mass(u, weight=FieldCoefficients(u, c))
        for want in (mass @ c, 0.5 * (drag(c) @ c)):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    rest = apply_drag(u, np.zeros(u.global_dim))
    assert rest.shape == (u.global_dim,) and not rest.any()


@pytest.mark.parametrize("k", [1, 2])
def test_velocity_pattern_fits_the_drag_matrices(k):
    # The space's pattern is the set of velocity pairs that share a
    # triangle, in canonical CSR order: the pattern of every drag
    # Jacobian, and a superset of the mass matrix's.
    mesh = perturbed_mesh(3, seed=4)
    u = build_space(mesh, VELOCITY, k)
    indptr, indices, slot = u.pattern
    n, n_loc = u.global_dim, u.dof_map.shape[1]
    rows = np.repeat(u.dof_map, n_loc, axis=1).ravel()
    cols = np.tile(u.dof_map, (1, n_loc)).ravel()
    pairs = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    pairs.sum_duplicates()
    assert np.array_equal(indptr, pairs.indptr) and np.array_equal(indices, pairs.indices)
    J = DragMassAssembler(u)(np.random.default_rng(3).standard_normal(n))
    assert J.has_canonical_format
    assert np.array_equal(J.indptr, indptr) and np.array_equal(J.indices, indices)
    # Every local entry's slot holds its own (row, column) pair.
    keys = np.repeat(np.arange(n), np.diff(indptr)) * n + indices
    assert np.array_equal(keys[slot], rows * n + cols)
    mass = assemble_mass(u).tocoo()
    assert np.isin(mass.row * n + mass.col, keys).all()


def _pointwise_values(space, coeffs):
    ttab = spaces.tri_tables(space.mesh, space.k, spaces.enhanced_degree(space.k))
    broken = space.broken(coeffs)
    return np.einsum("tcn,tnq->tcq", broken, ttab.val), ttab.w


def test_nonlinearity_monotone_and_lipschitz():
    mesh = staggered(2)
    space = build_space(mesh, VELOCITY, 1)
    rng = np.random.default_rng(21)
    alpha, beta = 0.6, 3.0
    nl = lambda v, s: alpha * v + beta * s[:, None, :] * v
    for _ in range(5):
        cu = rng.standard_normal(space.global_dim)
        cv = rng.standard_normal(space.global_dim)
        uv, w = _pointwise_values(space, cu)
        vv, _ = _pointwise_values(space, cv)
        su, sv = np.hypot(uv[:, 0], uv[:, 1]), np.hypot(vv[:, 0], vv[:, 1])
        dn = nl(uv, su) - nl(vv, sv)
        lhs = np.einsum("tcq,tcq,tq->", dn, uv - vv, w)
        dist = np.einsum("tcq,tcq,tq->", uv - vv, uv - vv, w)
        assert lhs >= alpha * dist - 1e-12
        gap = np.hypot(dn[:, 0], dn[:, 1])
        bound = alpha * np.hypot(*(uv - vv).transpose(1, 0, 2)) + beta * np.hypot(
            *(uv - vv).transpose(1, 0, 2)
        ) * (su + sv)
        assert (gap <= bound + 1e-12).all()


def smooth_velocity(pts):
    x, y = pts[:, 0], pts[:, 1]
    return np.column_stack([np.sin(np.pi * x) * np.cos(y), np.exp(x) * y * y])


def smooth_pressure(pts):
    return np.sin(pts[:, 0] + 2.0 * pts[:, 1])


def test_commuting_divergence():
    # The pairing only sees the interpolant of a smooth velocity field.
    mesh = perturbed_mesh(2, seed=5)
    u = build_space(mesh, VELOCITY, 1)
    p = build_space(mesh, PRESSURE, 1)
    DP = assemble_divergence(p, u)
    direct = apply_divergence(p, smooth_velocity)
    via = DP @ interpolate(u, smooth_velocity).values
    np.testing.assert_allclose(direct, via, atol=1e-10 * max(1.0, np.abs(direct).max()))


def test_commuting_divergence_adjoint():
    mesh = perturbed_mesh(2, seed=6)
    u = build_space(mesh, VELOCITY, 1)
    p = build_space(mesh, PRESSURE, 1)
    GU = assemble_divergence_adjoint(u, p)
    direct = apply_divergence_adjoint(u, smooth_pressure)
    via = GU @ interpolate(p, smooth_pressure).values
    np.testing.assert_allclose(direct, via, atol=1e-10 * max(1.0, np.abs(direct).max()))


def test_divergence_free_interpolant():
    # Interpolating an exactly divergence-free no-slip field produces a
    # discretely divergence-free coefficient vector.
    def velocity(pts):
        x, y = pts[:, 0], pts[:, 1]
        g = (x * (1 - x)) ** 2
        gp = 2 * x * (1 - x) * (1 - 2 * x)
        h = (y * (1 - y)) ** 2
        hp = 2 * y * (1 - y) * (1 - 2 * y)
        return np.column_stack([g * hp, -gp * h])

    mesh = staggered(3)
    u = build_space(mesh, VELOCITY, 1)
    p = build_space(mesh, PRESSURE, 1)
    DP = assemble_divergence(p, u)
    resid = DP @ interpolate(u, velocity).values
    np.testing.assert_allclose(resid, 0.0, atol=1e-10)


def test_load_constant_field():
    mesh = staggered(2)
    u = build_space(mesh, VELOCITY, 1)
    load = assemble_load(u, lambda p: np.tile([1.0, 0.0], (len(p), 1)))
    via_mass = assemble_mass(u) @ interpolate(
        u, lambda p: np.tile([1.0, 0.0], (len(p), 1))
    ).values
    np.testing.assert_allclose(load, via_mass, atol=1e-13)


def test_load_accepts_time():
    mesh = staggered(2)
    u = build_space(mesh, VELOCITY, 1)
    fn = lambda p, t: t * np.tile([1.0, 0.0], (len(p), 1))
    np.testing.assert_allclose(
        assemble_load(u, fn, t=0.5),
        0.5 * assemble_load(u, fn, t=1.0),
        atol=1e-14,
    )


def test_pressure_integral_vector():
    mesh = perturbed_mesh(2, seed=10)
    p = build_space(mesh, PRESSURE, 1)
    mp = pressure_integral(p)
    c1 = interpolate(p, lambda pts: np.ones(len(pts))).values
    assert mp @ c1 == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_allclose(
        mp, assemble_load(p, lambda pts: np.ones(len(pts))), atol=1e-13
    )


def test_space_kind_validation():
    mesh = staggered(2)
    u = build_space(mesh, VELOCITY, 1)
    p = build_space(mesh, PRESSURE, 1)
    with pytest.raises(ValueError):
        assemble_divergence(u, p)
    with pytest.raises(ValueError):
        assemble_mass(build_space(mesh, TRACE, 1))


def test_drop_small_against_row_and_column_maxima():
    # Dropped: -1e-12 at exactly 1e-12 times its row max, 3e-13 (its own
    # row's max) against its column max, 1.5e-12 against its row max 2.
    # Kept: 1e-9, nine orders of magnitude below its row max.
    dense = np.array(
        [
            [1.0, -1e-12, 1e-9, 0.0, 0.0],
            [0.0, 0.5, 0.0, 0.25, 0.0],
            [3e-13, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 4e-3, 2.0, 1.5e-12],
        ]
    )
    A = sp.csr_matrix(dense)
    got = drop_small(A)
    want = dense.copy()
    want[0, 1] = want[2, 0] = want[3, 4] = 0.0
    assert got.nnz == np.count_nonzero(want) == 6
    assert got.has_canonical_format
    np.testing.assert_array_equal(got.toarray(), want)
    np.testing.assert_array_equal(A.toarray(), dense)

"""Acceptance gate: reference convergence tables, parameter robustness,
structure properties and pressure robustness, each at its stated
tolerance.

Every test carries a ``criterion`` marker; conftest.py turns the results
into one PASS/FAIL line per criterion at the end of the run. Tests of
criteria 1-4 use the long convergence fixtures and are also marked
``slow``, so ``pytest -m "not slow"`` skips those fixtures entirely.
"""

import time

import numpy as np
import pytest

from _oracles import apply_divergence, apply_divergence_adjoint
from sdgflow.forms import (
    assemble_divergence,
    assemble_divergence_adjoint,
    assemble_mass,
)
from sdgflow.mesh import build_rectangle_mesh, build_staggered
from sdgflow.solver import (
    BDF2,
    ModelParams,
    build_operators,
    run_transient,
)
from sdgflow.spaces import GRADIENT, PRESSURE, TRACE, VELOCITY, build_space, interpolate
from sdgflow.verify import ManufacturedProblem, _grad_p0, observed_orders, run_manufactured
from test_forms import _pointwise_values, all_spaces, six_operators
from test_forms import smooth_pressure, smooth_velocity
from test_solver import forcing, forcing_l2
from test_spaces import perturbed_mesh

T_FINAL = 0.1

# Frozen reference errors (err_u, err_L, err_p) of the manufactured
# problem with the first-order scheme at eps = alpha = beta = 1, keyed by
# (1/h, N) with N = h^-2.
REFERENCE_FIRST_ORDER = {
    (2, 4): (2.45e-2, 1.35e-1, 6.63e-2),
    (4, 16): (6.13e-3, 5.65e-2, 2.37e-2),
    (8, 64): (1.54e-3, 1.51e-2, 5.83e-3),
    (16, 256): (3.85e-4, 3.90e-3, 1.35e-3),
}

# Velocity errors of the second-order scheme at eps = alpha = beta = 1
# with N = 1/h.
REFERENCE_SECOND_ORDER_U = {2: 2.51e-2, 4: 6.17e-3, 8: 1.54e-3, 16: 3.85e-4}

EPSILONS = (1.0, 1e-2, 1e-4, 1e-8)
BETAS = (1.0, 1e2, 1e3, 1e4)


def within_factor(got, want, factor=1.5):
    return want / factor <= got <= want * factor


@pytest.fixture(scope="module")
def ops_cache():
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = build_operators(build_staggered(build_rectangle_mesh(n, n)), 1)
        return cache[n]

    return get


@pytest.fixture(scope="module")
def first_order_table(ops_cache):
    """Four-row refinement study at eps = alpha = beta = 1, wall-timed."""
    params = ModelParams(1.0, 1.0, 1.0)
    start = time.perf_counter()
    rows = [
        run_manufactured(n, n * n, params, ops=ops_cache(n))[0] for n in (2, 4, 8, 16)
    ]
    return rows, time.perf_counter() - start


@pytest.fixture(scope="module")
def brinkman_sweep_errors(ops_cache, first_order_table):
    """Velocity error at (1/h, N) = (8, 64) for each Brinkman coefficient."""
    rows, _ = first_order_table
    errors = {1.0: rows[2].err_u}
    for eps in EPSILONS[1:]:
        row, _ = run_manufactured(8, 64, ModelParams(eps, 1.0, 1.0), ops=ops_cache(8))
        errors[eps] = row.err_u
    return errors


@pytest.fixture(scope="module")
def forchheimer_sweep_errors(ops_cache, first_order_table):
    """Velocity errors at (8, 64) and (16, 256) for each drag coefficient."""
    rows, _ = first_order_table
    errors = {1.0: (rows[2].err_u, rows[3].err_u)}
    for beta in BETAS[1:]:
        params = ModelParams(1.0, 1.0, beta)
        e8 = run_manufactured(8, 64, params, ops=ops_cache(8))[0].err_u
        e16 = run_manufactured(16, 256, params, ops=ops_cache(16))[0].err_u
        errors[beta] = (e8, e16)
    return errors


@pytest.fixture(scope="module")
def second_order_rows(ops_cache):
    params = ModelParams(1.0, 1.0, 1.0)
    return [
        run_manufactured(n, n, params, scheme=BDF2, ops=ops_cache(n))[0]
        for n in (2, 4, 8, 16)
    ]


@pytest.mark.slow
@pytest.mark.criterion(1)
def test_first_order_errors_on_reference_row(first_order_table):
    rows, _ = first_order_table
    row = rows[2]
    want_u, want_L, want_p = REFERENCE_FIRST_ORDER[(8, 64)]
    assert within_factor(row.err_u, want_u)
    assert within_factor(row.err_L, want_L)
    assert within_factor(row.err_p, want_p)


@pytest.mark.slow
@pytest.mark.criterion(1)
def test_first_order_orders_on_finest_row(first_order_table):
    rows, _ = first_order_table
    for field, want in (("err_u", 2.00), ("err_L", 1.96), ("err_p", 2.11)):
        orders = observed_orders([getattr(r, field) for r in rows])
        assert orders[-1] == pytest.approx(want, abs=0.2)


@pytest.mark.slow
@pytest.mark.criterion(1)
def test_first_order_table_runtime(first_order_table):
    _, elapsed = first_order_table
    assert elapsed < 300.0


@pytest.mark.slow
@pytest.mark.criterion(2)
def test_velocity_error_robust_in_brinkman_coefficient(brinkman_sweep_errors):
    values = np.array([brinkman_sweep_errors[eps] for eps in EPSILONS])
    assert values.max() <= 1.15 * values.min()


@pytest.mark.slow
@pytest.mark.criterion(3)
@pytest.mark.parametrize("beta", BETAS)
def test_velocity_error_robust_in_drag_coefficient(forchheimer_sweep_errors, beta):
    e8, e16 = forchheimer_sweep_errors[beta]
    assert within_factor(e16, 3.85e-4)
    assert np.log2(e8 / e16) == pytest.approx(2.0, abs=0.2)


@pytest.mark.slow
@pytest.mark.criterion(4)
def test_second_order_scheme_velocity_errors(second_order_rows):
    for row in second_order_rows:
        assert within_factor(row.err_u, REFERENCE_SECOND_ORDER_U[row.inv_h])


@pytest.mark.slow
@pytest.mark.criterion(4)
def test_second_order_scheme_final_order(second_order_rows):
    orders = observed_orders([r.err_u for r in second_order_rows])
    assert orders[-1] == pytest.approx(2.00, abs=0.2)


@pytest.mark.criterion(5)
def test_adjoint_identities_on_perturbed_mesh():
    ops = six_operators(all_spaces(perturbed_mesh(3, seed=11), 1))
    for a, b in (("BU", "BW"), ("DP", "GU"), ("TH", "TW")):
        A = ops[a].toarray()
        B = ops[b].toarray().T
        np.testing.assert_allclose(A, B, atol=1e-12 * np.abs(A).max())


@pytest.mark.criterion(5)
def test_divergence_and_trace_residuals_every_step():
    # Prefixes of a first-order run reproduce its intermediate states, so
    # ten runs of increasing length expose the fields after every step.
    ops = build_operators(build_staggered(build_rectangle_mesh(3, 3)), 1)
    params = ModelParams(1.0, 1.0, 1.0)
    prob = ManufacturedProblem(params, T_FINAL)
    dt = T_FINAL / 10
    for steps in range(1, 11):
        res = run_transient(ops, params, prob.forcing, dt=dt, n_steps=steps)
        assert np.abs(ops.DP @ res.u.values).max() <= 1e-10
        assert np.abs(ops.TH @ res.L.values).max() <= 1e-10


@pytest.mark.criterion(5)
def test_commuting_interpolants():
    mesh = perturbed_mesh(3, seed=12)
    u = build_space(mesh, VELOCITY, 1)
    p = build_space(mesh, PRESSURE, 1)

    direct = apply_divergence(p, smooth_velocity)
    via = assemble_divergence(p, u) @ interpolate(u, smooth_velocity).values
    np.testing.assert_allclose(direct, via, atol=1e-10 * max(1.0, np.abs(direct).max()))

    direct = apply_divergence_adjoint(u, smooth_pressure)
    via = assemble_divergence_adjoint(u, p) @ interpolate(p, smooth_pressure).values
    np.testing.assert_allclose(direct, via, atol=1e-10 * max(1.0, np.abs(direct).max()))


@pytest.mark.criterion(5)
def test_drag_monotone_on_random_pairs():
    space = build_space(build_staggered(build_rectangle_mesh(2, 2)), VELOCITY, 1)
    rng = np.random.default_rng(33)
    alpha, beta = 1.0, 1.0
    for _ in range(100):
        cu = rng.standard_normal(space.global_dim)
        cv = rng.standard_normal(space.global_dim)
        uv, w = _pointwise_values(space, cu)
        vv, _ = _pointwise_values(space, cv)
        su = np.hypot(uv[:, 0], uv[:, 1])[:, None, :]
        sv = np.hypot(vv[:, 0], vv[:, 1])[:, None, :]
        dn = alpha * (uv - vv) + beta * (su * uv - sv * vv)
        lhs = np.einsum("tcq,tcq,tq->", dn, uv - vv, w)
        dist = np.einsum("tcq,tcq,tq->", uv - vv, uv - vv, w)
        assert lhs >= alpha * dist - 1e-12 * max(1.0, dist)


@pytest.mark.criterion(5)
def test_zero_forcing_gives_zero_trajectory():
    ops = build_operators(build_staggered(build_rectangle_mesh(2, 2)), 1)
    res = run_transient(ops, ModelParams(1.0, 1.0, 1.0), None, dt=0.01, n_steps=10)
    assert np.abs(res.u.values).max() == 0.0
    assert np.abs(res.L.values).max() == 0.0
    assert np.abs(res.p.values).max() == 0.0
    assert all(r.u_l2 == 0.0 for r in res.reports)


@pytest.mark.criterion(5)
def test_energy_bounded_by_forcing_budget():
    ops = build_operators(build_staggered(build_rectangle_mesh(3, 3)), 1)
    alpha = 1.0
    dt, n = 0.0125, 8
    res = run_transient(ops, ModelParams(1.0, alpha, 1.0), forcing, dt=dt, n_steps=n)
    lhs = dt * sum(r.L_l2**2 + 0.5 * alpha * r.u_l2**2 for r in res.reports)
    lhs += 0.5 * res.reports[-1].u_l2 ** 2
    budget = dt * sum(forcing_l2(ops.mesh, r.t) ** 2 for r in res.reports)
    C = 2.0 * (1.0 / (2.0 * alpha) + 1.0)
    assert lhs <= C * budget


@pytest.mark.criterion(5)
def test_no_drag_needs_single_sweep():
    ops = build_operators(build_staggered(build_rectangle_mesh(2, 2)), 1)
    res = run_transient(ops, ModelParams(1.0, 1.0, 0.0), forcing, dt=0.02, n_steps=5)
    assert all(r.picard_iterations == 1 for r in res.reports)


@pytest.mark.criterion(6)
def test_global_dimensions_on_square_mesh():
    mesh = build_staggered(build_rectangle_mesh(2, 2))
    dims = [
        build_space(mesh, kind, 1).global_dim
        for kind in (VELOCITY, GRADIENT, PRESSURE, TRACE)
    ]
    assert dims == [64, 176, 40, 32]


def grad_phi(pts):
    """Gradient of phi = sin(x) cos(y)."""
    x, y = pts[:, 0], pts[:, 1]
    return np.column_stack([np.cos(x) * np.cos(y), -np.sin(x) * np.sin(y)])


@pytest.fixture(scope="module")
def gradient_source_ops():
    meshes = {"squares": lambda: build_staggered(build_rectangle_mesh(8, 8))}
    meshes["perturbed"] = lambda: perturbed_mesh(8)
    cache = {}

    def get(name, k):
        if (name, k) not in cache:
            cache[name, k] = build_operators(meshes[name](), k)
        return cache[name, k]

    return get


@pytest.mark.criterion(7)
@pytest.mark.parametrize("lam", [1.0, 1e3])
@pytest.mark.parametrize("beta", [0.0, 100.0])
@pytest.mark.parametrize("eps", [1.0, 1e-4, 0.0])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("mesh", ["squares", "perturbed"])
def test_gradient_source_leaves_velocity_at_rest(
    gradient_source_ops, mesh, k, eps, beta, lam
):
    # f = lam grad(phi) is balanced by the pressure lam phi alone, so the
    # exact velocity is zero; a pressure-robust scheme keeps the discrete
    # one at roundoff however large the pressure.
    ops = gradient_source_ops(mesh, k)
    res = run_transient(
        ops, ModelParams(eps, 1.0, beta), [(lambda t: lam, grad_phi)], dt=0.05, n_steps=2
    )
    u, p = res.u.values, res.p.values
    u_l2 = np.sqrt(u @ (ops.MU @ u))
    p_l2 = np.sqrt(p @ (assemble_mass(ops.pressure) @ p))
    assert u_l2 <= 1e-12 * p_l2


@pytest.fixture(scope="module")
def perturbed4_ops():
    return {k: build_operators(perturbed_mesh(4), k) for k in (1, 2)}


@pytest.mark.criterion(7)
@pytest.mark.parametrize("eps", [1.0, 1e-4, 0.0])
@pytest.mark.parametrize("k", [1, 2])
def test_scaled_pressure_leaves_velocity_unchanged(perturbed4_ops, k, eps):
    # Adding 999 cos(2 pi t) grad p0 to the manufactured forcing scales
    # the exact pressure by 1e3 and leaves the exact velocity as it is; a
    # pressure-robust scheme leaves the discrete velocity as it is too.
    # Without drag: with it, the normwise stop of the linear solves,
    # whose scale grows with the pressure, lets the velocity move at
    # k = 2 and beta = 1e4 by 2.7e-11 (eps = 1) to 1.3e-9 (eps = 1e-4, 0)
    # relative.
    ops = perturbed4_ops[k]
    params = ModelParams(eps, 1.0, 0.0)
    terms = ManufacturedProblem(params).forcing_terms()
    boost = [(lambda t: 999.0 * np.cos(2.0 * np.pi * t), _grad_p0)]
    kw = dict(dt=0.025, n_steps=4)
    base = run_transient(ops, params, terms, **kw)
    scaled = run_transient(ops, params, terms + boost, **kw)
    u, u_scaled = base.u.values, scaled.u.values
    assert np.abs(u_scaled - u).max() <= 1e-10 * np.abs(u).max()
    p, p_scaled = base.p.values, scaled.p.values
    assert np.linalg.norm(p_scaled) >= 500.0 * np.linalg.norm(p)

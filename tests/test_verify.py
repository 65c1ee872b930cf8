"""Manufactured solution, error norms and convergence bookkeeping."""

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from sdgflow.mesh import build_rectangle_mesh, build_staggered
from sdgflow.solver import BDF2, ModelParams, run_transient
from sdgflow.spaces import (
    GRADIENT,
    PRESSURE,
    VELOCITY,
    FieldCoefficients,
    build_space,
    interpolate,
)
from sdgflow.verify import (
    ManufacturedProblem,
    ZeroProblem,
    default_steps,
    error_l2,
    observed_orders,
    run_manufactured,
    with_orders,
)

PARAMS = ModelParams(epsilon=1.0, alpha=1.0, beta=1.0)
PROB = ManufacturedProblem(PARAMS)
T = PROB.final_time


def staggered(n):
    return build_staggered(build_rectangle_mesh(n, n))


def interior_points(rng, n, margin=0.05):
    return margin + (1.0 - 2.0 * margin) * rng.random((n, 2))


# ----- exact solution invariants ---------------------------------------------


def test_velocity_divergence_free():
    rng = np.random.default_rng(3)
    pts = rng.random((2000, 2))
    for t in (0.013, 0.05, T):
        g = PROB.velocity_gradient(pts, t)
        div = g[:, 0, 0] + g[:, 1, 1]
        np.testing.assert_allclose(div, 0.0, atol=1e-12)


def test_velocity_vanishes_on_boundary():
    rng = np.random.default_rng(4)
    s = rng.random(500)
    zeros, ones = np.zeros_like(s), np.ones_like(s)
    sides = [
        np.column_stack([s, zeros]),
        np.column_stack([s, ones]),
        np.column_stack([zeros, s]),
        np.column_stack([ones, s]),
    ]
    for pts in sides:
        np.testing.assert_allclose(PROB.velocity(pts, 0.07), 0.0, atol=1e-12)


def test_starts_from_rest():
    rng = np.random.default_rng(5)
    pts = rng.random((100, 2))
    assert np.all(PROB.velocity(pts, 0.0) == 0.0)
    assert np.all(PROB.scaled_gradient(pts, 0.0) == 0.0)


def test_pressure_mean_zero():
    # Independent tensor Gauss rule on the unit square.
    x, w = leggauss(40)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    X, Y = np.meshgrid(x, x)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    wts = np.outer(w, w).ravel()
    for t in (0.0, 0.04, T):
        assert abs(wts @ PROB.pressure(pts, t)) < 1e-12


# ----- finite-difference cross-checks of the hand-coded derivatives ----------


def test_velocity_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    pts = interior_points(rng, 200)
    t, h = 0.067, 1e-6
    grad = PROB.velocity_gradient(pts, t)
    for j, e in enumerate(np.eye(2)):
        fd = (PROB.velocity(pts + h * e, t) - PROB.velocity(pts - h * e, t)) / (2 * h)
        np.testing.assert_allclose(grad[:, :, j], fd, atol=1e-6)


@pytest.mark.parametrize(
    "params",
    [PARAMS, ModelParams(epsilon=1e-4, alpha=2.0, beta=50.0)],
)
def test_forcing_matches_finite_differences(params):
    prob = ManufacturedProblem(params)
    rng = np.random.default_rng(7)
    pts = interior_points(rng, 120)
    t, ht, hx = 0.043, 1e-6, 3e-5

    u = prob.velocity(pts, t)
    ut = (prob.velocity(pts, t + ht) - prob.velocity(pts, t - ht)) / (2 * ht)
    # Second differences need a larger step to balance roundoff.
    lap = -4.0 * u
    for e in np.eye(2):
        lap += prob.velocity(pts + hx * e, t) + prob.velocity(pts - hx * e, t)
    lap /= hx * hx
    gp = np.column_stack(
        [
            (prob.pressure(pts + ht * e, t) - prob.pressure(pts - ht * e, t)) / (2 * ht)
            for e in np.eye(2)
        ]
    )
    speed = np.hypot(u[:, 0], u[:, 1])
    drag = (params.alpha + params.beta * speed)[:, None] * u
    fd = ut - params.epsilon * lap + drag + gp
    np.testing.assert_allclose(prob.forcing(pts, t), fd, atol=1e-6)


def test_error_L_against_fd_gradient():
    # With epsilon = 1 the scaled gradient is plain grad u; measuring a
    # discrete field against a finite-difference version of it must give
    # the same error as against the hand-coded one.
    def fd_gradient(pts, t):
        h = 1e-6
        out = np.empty((len(pts), 2, 2))
        for j, e in enumerate(np.eye(2)):
            out[:, :, j] = (
                PROB.velocity(pts + h * e, t) - PROB.velocity(pts - h * e, t)
            ) / (2 * h)
        return out

    w = build_space(staggered(4), GRADIENT, 1)
    fc = interpolate(w, lambda pts: PROB.scaled_gradient(pts, T), t=T)
    e_hand = error_l2(fc, PROB.scaled_gradient, T)
    e_fd = error_l2(fc, fd_gradient, T)
    assert abs(e_hand - e_fd) < 1e-6


# ----- error_l2 --------------------------------------------------------------


def zero_velocity(pts, t):
    return np.zeros((len(pts), 2))


def test_error_l2_exact_values():
    mesh = staggered(2)
    u = build_space(mesh, VELOCITY, 1)
    p = build_space(mesh, PRESSURE, 1)
    zu = FieldCoefficients(u, np.zeros(u.global_dim))
    assert error_l2(zu, zero_velocity, 0.0) == 0.0
    # ||(3,4)||_L2 over the unit square.
    const = lambda pts, t: np.tile([3.0, 4.0], (len(pts), 1))
    assert error_l2(zu, const, 0.0) == pytest.approx(5.0, rel=1e-12)
    zp = FieldCoefficients(p, np.zeros(p.global_dim))
    assert error_l2(zp, lambda pts, t: np.full(len(pts), 2.0), 0.0) == pytest.approx(
        2.0, rel=1e-12
    )


def test_error_l2_is_a_norm():
    u = build_space(staggered(3), VELOCITY, 1)
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = rng.standard_normal(u.global_dim)
        b = rng.standard_normal(u.global_dim)
        na = error_l2(FieldCoefficients(u, a), zero_velocity, 0.0)
        nb = error_l2(FieldCoefficients(u, b), zero_velocity, 0.0)
        nab = error_l2(FieldCoefficients(u, a + b), zero_velocity, 0.0)
        assert nab <= na + nb + 1e-12
        nsc = error_l2(FieldCoefficients(u, 3.5 * a), zero_velocity, 0.0)
        assert nsc == pytest.approx(3.5 * na, rel=1e-12)


def test_interpolation_error_orders():
    errs_u, errs_p = [], []
    for n in (2, 4, 8):
        mesh = staggered(n)
        u = build_space(mesh, VELOCITY, 1)
        p = build_space(mesh, PRESSURE, 1)
        fu = interpolate(u, lambda pts: PROB.velocity(pts, T), t=T)
        fp = interpolate(p, lambda pts: PROB.pressure(pts, T), t=T)
        errs_u.append(error_l2(fu, PROB.velocity, T))
        errs_p.append(error_l2(fp, PROB.pressure, T))
    assert observed_orders(errs_u)[-1] > 1.8
    assert observed_orders(errs_p)[-1] > 1.8


# ----- observed_orders -------------------------------------------------------


def test_observed_orders_examples():
    orders = observed_orders([4e-2, 1e-2])
    assert np.isnan(orders[0])
    assert orders[1] == pytest.approx(2.0, abs=1e-12)
    assert observed_orders([3e-3, 3e-3])[1] == 0.0
    # Reference velocity errors at 1/h = 4 and 8 reproduce the published
    # order 1.99.
    assert observed_orders([6.13e-3, 1.54e-3])[1] == pytest.approx(1.99, abs=5e-3)


def test_observed_orders_general_ratio():
    orders = observed_orders([9e-2, 4e-2], hs=[1.0 / 2.0, 1.0 / 3.0])
    assert orders[1] == pytest.approx(2.0, rel=1e-12)


# ----- study drivers ---------------------------------------------------------


def test_default_steps():
    assert default_steps([2, 4, 8], "be") == [4, 16, 64]
    assert default_steps([2, 4, 8], BDF2) == [2, 4, 8]


def test_run_manufactured_row_consistency():
    row, res = run_manufactured(2, 4, PARAMS)
    assert row.inv_h == 2 and row.n_steps == 4
    assert res.u.t == pytest.approx(T)
    assert row.err_u == error_l2(res.u, PROB.velocity, T)
    assert row.err_L == error_l2(res.L, PROB.scaled_gradient, T)
    assert row.err_p == error_l2(res.p, PROB.pressure, T)


def test_zero_problem_is_exactly_zero():
    # Its separated and callable sources both leave the fields at rest.
    row, res = run_manufactured(2, 4, PARAMS, problem=ZeroProblem)
    assert (row.err_u, row.err_L, row.err_p) == (0.0, 0.0, 0.0)
    callable_res = run_transient(res.ops, PARAMS, ZeroProblem(PARAMS).forcing, 0.025, 4)
    assert not callable_res.u.values.any() and not callable_res.p.values.any()


def test_convergence_study_refines():
    rows = with_orders([run_manufactured(n, n * n, PARAMS)[0] for n in (2, 4)])
    assert rows[0].err_u > rows[1].err_u
    assert rows[0].err_L > rows[1].err_L
    assert rows[0].err_p > rows[1].err_p
    order = observed_orders([r.err_u for r in rows])[-1]
    assert 1.5 < order < 2.5


def test_convergence_study_bdf2_refines():
    rows = with_orders([run_manufactured(n, n, PARAMS, scheme=BDF2)[0] for n in (2, 4)])
    assert rows[0].err_u > rows[1].err_u

"""Time stepping: residuals, drag iteration, stability, temporal order."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu, spsolve

from sdgflow import solver, spaces
from sdgflow.mesh import build_rectangle_mesh, build_staggered
from sdgflow.solver import (
    BACKWARD_EULER,
    BDF2,
    ModelParams,
    build_operators,
    run_transient,
)
from sdgflow.spaces import FieldCoefficients, SMOOTH_DEGREE
from sdgflow.verify import ManufacturedProblem, run_manufactured

from _oracles import reference_transient
from test_spaces import perturbed_mesh


def operators(n, k=1):
    return build_operators(build_staggered(build_rectangle_mesh(n, n)), k)


def forcing(pts, t):
    x, y = pts[:, 0], pts[:, 1]
    amp = 1.0 + np.sin(2.0 * np.pi * t)
    return amp * np.column_stack(
        [np.sin(np.pi * x) * y * (1.0 - y), np.cos(np.pi * y) * x]
    )


def forcing_l2(mesh, t):
    ttab = spaces.tri_tables(mesh, 1, SMOOTH_DEGREE)
    vals = forcing(ttab.pts.reshape(-1, 2), t).reshape(*ttab.w.shape, 2)
    return float(np.sqrt(np.einsum("tqc,tq->", vals**2, ttab.w)))


def count_jacobians(monkeypatch) -> list:
    """Record the velocity coefficients of every drag Jacobian the solver
    assembles."""
    jacobians = []
    assembler = solver.DragMassAssembler

    def counting_assembler(space):
        drag = assembler(space)

        def call(coeffs):
            jacobians.append(np.array(coeffs))
            return drag(coeffs)

        return call

    monkeypatch.setattr(solver, "DragMassAssembler", counting_assembler)
    return jacobians


def test_zero_forcing_stays_zero(monkeypatch):
    ops = operators(2)
    res = run_transient(ops, ModelParams(1.0, 1.0, 1.0), None, dt=0.05, n_steps=4)
    assert res.u.values.max() == 0.0 and res.p.values.max() == 0.0
    assert all(r.picard_iterations == 1 for r in res.reports)
    # From rest with no source every step starts at the solution, so no
    # step assembles a Jacobian, factors or refines.
    jacobians = count_jacobians(monkeypatch)
    for beta in (0.0, 1e4):
        for scheme in (BACKWARD_EULER, BDF2):
            params = ModelParams(1.0, 1.0, beta)
            res = run_transient(ops, params, None, dt=0.05, n_steps=4, scheme=scheme)
            assert not res.u.values.any() and not res.p.values.any()
            assert all(r.factorizations == 0 for r in res.reports)
            assert all(r.refine_passes == 0 for r in res.reports)
    assert not jacobians


def test_beta_zero_is_single_solve():
    ops = operators(2)
    res = run_transient(ops, ModelParams(0.5, 1.0, 0.0), forcing, dt=0.05, n_steps=3)
    assert all(r.picard_iterations == 1 for r in res.reports)
    assert all(r.residual <= 1e-10 for r in res.reports)


def test_beta_zero_linearity():
    ops = operators(2)
    params = ModelParams(0.5, 1.0, 0.0)
    f2 = lambda pts, t: -2.0 * forcing(pts, t)
    both = lambda pts, t: forcing(pts, t) + f2(pts, t)
    u1 = run_transient(ops, params, forcing, dt=0.1, n_steps=2).u.values
    u2 = run_transient(ops, params, f2, dt=0.1, n_steps=2).u.values
    u12 = run_transient(ops, params, both, dt=0.1, n_steps=2).u.values
    np.testing.assert_allclose(u12, u1 + u2, atol=1e-10 * max(1, np.abs(u1).max()))


def test_step_satisfies_block_equations():
    ops = operators(2)
    params = ModelParams(0.3, 1.0, 1.0)
    dt = 0.05
    res = run_transient(ops, params, forcing, dt=dt, n_steps=1)
    se = np.sqrt(params.epsilon)
    L, u, uh, p = res.L.values, res.u.values, res.uhat.values, res.p.values
    scale = max(1.0, np.abs(u).max(), np.abs(L).max())

    r_w = ops.MW @ L - se * (ops.BW @ u) - se * (ops.TW @ uh)
    np.testing.assert_allclose(r_w, 0.0, atol=1e-10 * scale)
    np.testing.assert_allclose(ops.TH @ L, 0.0, atol=1e-10 * scale)
    np.testing.assert_allclose(ops.DP @ u, 0.0, atol=1e-10 * scale)
    assert abs(ops.mp @ p) <= 1e-10 * max(1.0, np.abs(p).max())

    from sdgflow.forms import assemble_load, assemble_mass

    Au = (1.0 / dt + params.alpha) * ops.MU + params.beta * assemble_mass(
        ops.velocity, weight=res.u
    )
    rhs = assemble_load(ops.velocity, forcing, t=dt)
    r_u = se * (ops.BU @ L) + Au @ u + ops.GU @ p - rhs
    np.testing.assert_allclose(r_u, 0.0, atol=1e-6 * max(1.0, np.abs(rhs).max()))


@pytest.mark.parametrize("eps", [1.0, 0.0])
def test_drag_free_step_matches_direct_bordered_solve(eps):
    # One step of the full bordered system [[A, c], [r^T, 0]], with the
    # pressure-mean multiplier mu and both borders carrying the pressure
    # integral, factored directly: the pinned solve with a mean shift must
    # give its fields, and its multiplier must vanish.
    from sdgflow.forms import assemble_load

    ops = operators(2)
    params = ModelParams(eps, 1.0, 0.0)
    dt = 0.05
    res = run_transient(ops, params, forcing, dt=dt, n_steps=1)
    se = np.sqrt(eps)
    Au = (1.0 / dt + params.alpha) * ops.MU
    c = sp.csr_matrix(ops.mp[:, None])
    if se > 0.0:
        names = ("L", "u", "uhat", "p")
        blocks = [
            [ops.MW, -se * ops.BW, -se * ops.TW, None, None],
            [se * ops.BU, Au, None, ops.GU, None],
            [None, -ops.DP, None, None, c],
            [ops.TH, None, None, None, None],
            [None, None, None, c.T, None],
        ]
    else:
        names = ("u", "p")
        blocks = [[Au, ops.GU, None], [-ops.DP, None, c], [None, c.T, None]]
    fields = [getattr(res, name).values for name in names]
    ends = np.cumsum([0] + [len(v) for v in fields])
    b = np.zeros(ends[-1] + 1)
    iu = names.index("u")
    b[ends[iu] : ends[iu + 1]] = assemble_load(ops.velocity, forcing, t=dt)
    x = spsolve(sp.bmat(blocks, format="csc"), b)
    for name, got, lo, hi in zip(names, fields, ends[:-1], ends[1:]):
        want = x[lo:hi]
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want), name
    assert abs(x[-1]) <= 1e-12


@pytest.mark.parametrize("beta", [50.0, 1e3])
def test_chord_step_matches_newton_at_moderate_drag(beta):
    # One long step from rest: the chord iteration, with a factor made at
    # the drag-free start, reaches the solution of the Newton loop.
    ops = operators(2)
    params = ModelParams(1.0, 1.0, beta)
    res = run_transient(ops, params, forcing, dt=0.1, n_steps=1)
    ref = reference_transient(ops, params, forcing, 0.1, 1, newton=True)
    for name in ("u", "L", "uhat", "p"):
        got, want = getattr(res, name).values, ref[name]
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), name


def test_exhausted_pass_budget_raises(monkeypatch):
    ops = operators(2)
    monkeypatch.setattr(solver, "MAX_PASSES", 1)
    with pytest.raises(
        solver.SolverError, match=r"step 1: no convergence in 1 passes \(relative residual 1"
    ):
        run_transient(ops, ModelParams(1.0, 1.0, 1e4), forcing, dt=0.05, n_steps=2)


@pytest.mark.parametrize("eps", [1.0, 0.0])
def test_strong_drag_converges_on_jittered_mesh(eps):
    # beta = 1e4 with dt = 1/160: the frozen-speed iteration stalls just
    # above the tolerance here (step 10 for eps = 1, step 7 for eps = 0).
    # The chord iteration settles every step and factors at most once a
    # step on average.
    ops = build_operators(perturbed_mesh(4, seed=0), 1)
    params = ModelParams(eps, 1.0, 1e4)
    _, res = run_manufactured(4, 16, params, BACKWARD_EULER, 1, 0.1, ops=ops)
    assert max(r.picard_iterations for r in res.reports) <= 16
    assert sum(r.factorizations for r in res.reports) <= len(res.reports)
    assert all(r.residual <= 1e-14 for r in res.reports)


def test_energy_stability_bound():
    # Step sums of the gradient and velocity norms stay below the
    # forcing budget with constant 2 (1/(2 alpha) + 1).
    ops = operators(3)
    alpha = 1.0
    params = ModelParams(1.0, alpha, 1.0)
    dt, n = 0.0125, 8
    res = run_transient(ops, params, forcing, dt=dt, n_steps=n)
    lhs = dt * sum(r.L_l2**2 + 0.5 * alpha * r.u_l2**2 for r in res.reports)
    lhs += 0.5 * res.reports[-1].u_l2 ** 2
    budget = dt * sum(forcing_l2(ops.mesh, r.t) ** 2 for r in res.reports)
    C = 2.0 * (1.0 / (2.0 * alpha) + 1.0)
    assert lhs <= C * budget


def _final_velocity(ops, scheme, n_steps, T=0.4):
    params = ModelParams(0.5, 1.0, 1.0)
    res = run_transient(ops, params, forcing, dt=T / n_steps, n_steps=n_steps, scheme=scheme)
    return res.u.values


def test_temporal_orders():
    # The opening step of the two-step scheme is first order, so its
    # footprint only clears at moderately fine step counts.
    ops = operators(3)
    MU = ops.MU
    ref = _final_velocity(ops, BDF2, 512)
    err = lambda u: np.sqrt((u - ref) @ (MU @ (u - ref)))

    e_be = [err(_final_velocity(ops, BACKWARD_EULER, n)) for n in (8, 16)]
    order_be = np.log2(e_be[0] / e_be[1])
    assert order_be == pytest.approx(1.0, abs=0.3)

    e_b2 = [err(_final_velocity(ops, BDF2, n)) for n in (32, 64)]
    order_b2 = np.log2(e_b2[0] / e_b2[1])
    assert order_b2 == pytest.approx(2.0, abs=0.3)


def test_darcy_limit_matches_tiny_epsilon():
    ops = operators(2)
    kw = dict(f=forcing, dt=0.05, n_steps=2)
    u0 = run_transient(ops, ModelParams(0.0, 1.0, 1.0), **kw)
    u1 = run_transient(ops, ModelParams(1e-14, 1.0, 1.0), **kw)
    np.testing.assert_allclose(u0.u.values, u1.u.values, atol=1e-6)
    assert u0.L.values.max() == 0.0 and u0.uhat.values.max() == 0.0
    np.testing.assert_allclose(ops.DP @ u0.u.values, 0.0, atol=1e-10)


def test_run_validation():
    ops = operators(2)
    good = ModelParams(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        run_transient(ops, good, forcing, dt=0.1, n_steps=2, scheme="rk4")
    with pytest.raises(ValueError):
        run_transient(ops, good, forcing, dt=-0.1, n_steps=2)
    with pytest.raises(ValueError):
        bad0 = FieldCoefficients(ops.pressure, np.zeros(ops.pressure.global_dim))
        run_transient(ops, good, forcing, dt=0.1, n_steps=1, u0=bad0)
    with pytest.raises(ValueError):
        ModelParams(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        ModelParams(-1.0, 1.0, 1.0)


def test_initial_velocity_from_another_mesh_rejected():
    # The 2x2 mesh of [0,2]x[0,1] has as many velocity coefficients as the
    # unit square's, so only the space tells its field apart.
    ops = operators(2)
    wide = build_operators(
        build_staggered(build_rectangle_mesh(2, 2, domain=(0.0, 0.0, 2.0, 1.0))), 1
    )
    assert wide.velocity.global_dim == ops.velocity.global_dim
    u0 = FieldCoefficients(wide.velocity, np.ones(wide.velocity.global_dim))
    with pytest.raises(ValueError, match="share one mesh"):
        run_transient(ops, ModelParams(1.0, 1.0, 1.0), forcing, dt=0.1, n_steps=1, u0=u0)



@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_nan_residual_raises(beta):
    # A NaN residual never meets the refinement stop: the run raises
    # instead of returning NaN fields with a residual of 0.0.
    ops = operators(2)
    source = lambda pts, t: np.full((len(pts), 2), np.nan)
    with pytest.raises(solver.SolverError, match="nan"):
        run_transient(ops, ModelParams(1.0, 1.0, beta), source, dt=0.05, n_steps=2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_model_params_reject_non_finite(bad):
    for args in ((bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)):
        with pytest.raises(ValueError, match="finite"):
            ModelParams(*args)


@pytest.mark.parametrize("dt", [np.nan, np.inf])
def test_run_rejects_non_finite_dt(dt):
    ops = operators(2)
    with pytest.raises(ValueError, match="finite"):
        run_transient(ops, ModelParams(1.0, 1.0, 1.0), forcing, dt=dt, n_steps=2)

@pytest.fixture(scope="module")
def perturbed_ops():
    return build_operators(perturbed_mesh(3, seed=2), 1)


@pytest.fixture(scope="module")
def perturbed_ops_k2():
    return build_operators(perturbed_mesh(3, seed=2), 2)


def _check_against_reference_step_loop(ops, eps, scheme, beta):
    # The in-place step matrix and the chord iteration on a held factor
    # must give the fields of a Newton loop that rebuilds every matrix,
    # integrates the Jacobian triangle by triangle and refines from zero,
    # with no more triangular solves.
    # The reference solves the full system, with the scaled gradient as
    # an unknown; the library eliminates it and recovers it.
    params = ModelParams(eps, 1.0, beta)
    # Checked after two steps and after six.
    dt = 0.02
    for n in (2, 6):
        res = run_transient(ops, params, forcing, dt=dt, n_steps=n, scheme=scheme)
        ref = reference_transient(ops, params, forcing, dt, n, scheme, newton=True)
        names = ("u", "L", "uhat", "p") if eps > 0.0 else ("u", "p")
        for name in names:
            got, want = getattr(res, name).values, ref[name]
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), name
        assert abs(ref["mu"]) <= 1e-10 * max(1.0, np.abs(ref["u"]).max())
        assert sum(r.refine_passes for r in res.reports) <= ref["solves"]
        assert res.reports[0].factorizations >= 1
        if scheme == BDF2:
            # The second step changes the time-derivative weight, so the step
            # matrix jumps and the first step's factor is dropped.
            assert res.reports[1].factorizations >= 1
        assert all(r.refine_passes >= 1 for r in res.reports)
        if beta != 0.0:
            # Newton and the frozen-speed Picard iteration solve the same
            # discrete step; a tightly converged Picard run fixes it
            # independently, up to the linear solves' backward error.
            picard = reference_transient(ops, params, forcing, dt, n, scheme, tol=1e-12)
            for name in names:
                got, want = getattr(res, name).values, picard[name]
                assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max(), name


@pytest.mark.parametrize("beta", [0.0, 1e4])
@pytest.mark.parametrize("scheme", [BACKWARD_EULER, BDF2])
@pytest.mark.parametrize("eps", [1.0, 1e-6, 0.0])
def test_matches_reference_step_loop(perturbed_ops, eps, scheme, beta):
    # eps = 1e-6 checks that the condensed trace rows stay well
    # conditioned as the diffusion shrinks.
    _check_against_reference_step_loop(perturbed_ops, eps, scheme, beta)


@pytest.mark.parametrize("scheme", [BACKWARD_EULER, BDF2])
@pytest.mark.parametrize("eps", [1.0, 1e-6, 0.0])
def test_matches_reference_step_loop_k2_drag_free(perturbed_ops_k2, eps, scheme):
    _check_against_reference_step_loop(perturbed_ops_k2, eps, scheme, 0.0)


@pytest.mark.parametrize("eps", [1.0, 1e-6, 0.0])
def test_step_system_leaves_out_the_scaled_gradient(monkeypatch, eps):
    # Every factored step matrix has the velocity, trace and pressure
    # unknowns (velocity and pressure in the Darcy limit), never the
    # scaled gradient.
    ops = operators(2)
    shapes = []

    def recording_splu(A, *args, **kwargs):
        shapes.append(A.shape)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(solver, "splu", recording_splu)
    run_transient(ops, ModelParams(eps, 1.0, 1.0), forcing, dt=0.05, n_steps=3)
    n = ops.velocity.global_dim + ops.pressure.global_dim
    if eps > 0.0:
        n += ops.trace.global_dim
    assert shapes and all(shape == (n, n) for shape in shapes)


@pytest.fixture(scope="module")
def perturbed_ops4():
    return build_operators(perturbed_mesh(4), 1)


@pytest.mark.parametrize("eps", [1.0, 0.0])
@pytest.mark.parametrize("scheme", [BACKWARD_EULER, BDF2])
@pytest.mark.parametrize("beta", [0.0, 1e4])
def test_separated_source_matches_callable(perturbed_ops4, beta, scheme, eps):
    # Loads assembled once per term and combined per step give the run of
    # the load assembled from the summed source on every step. Past t =
    # 0.5, sin(2 pi t) < 0 exercises the s|s| drag factor.
    params = ModelParams(eps, 1.0, beta)
    prob = ManufacturedProblem(params, final_time=0.8)
    kw = dict(dt=0.1, n_steps=8, scheme=scheme)
    sep = run_transient(perturbed_ops4, params, prob.forcing_terms(), **kw)
    ref = run_transient(perturbed_ops4, params, prob.forcing, **kw)
    for name in ("u", "L", "p"):
        got, want = getattr(sep, name).values, getattr(ref, name).values
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), name


def test_manufactured_run_assembles_each_load_once(monkeypatch):
    # One load per forcing term for the run, not one per step.
    calls = []
    assemble_load = solver.assemble_load

    def counting_load(*args, **kwargs):
        calls.append(kwargs.get("t"))
        return assemble_load(*args, **kwargs)

    monkeypatch.setattr(solver, "assemble_load", counting_load)
    run_manufactured(4, 16, ModelParams(1.0, 1.0, 1.0))
    assert len(calls) <= 3


@pytest.mark.parametrize("eps", [1.0, 0.0])
def test_jacobians_only_for_factorizations(monkeypatch, perturbed_ops4, eps):
    # The drag Jacobian is assembled for a factorization and for nothing
    # else, and a factor serves several triangular solves.
    jacobians = count_jacobians(monkeypatch)
    params = ModelParams(eps, 1.0, 1e4)
    prob = ManufacturedProblem(params, final_time=0.8)
    res = run_transient(perturbed_ops4, params, prob.forcing_terms(), dt=0.1, n_steps=8)
    assert len(jacobians) == sum(r.factorizations for r in res.reports)
    assert len(jacobians) < sum(r.refine_passes for r in res.reports)


@pytest.mark.parametrize("eps", [1.0, 0.0])
@pytest.mark.parametrize("beta", [0.0, 1e4])
def test_restart_from_initial_velocity_continues_the_run(perturbed_ops4, beta, eps):
    # Backward Euler carries only the velocity from step to step, so a run
    # restarted from the velocity it reached, with its source shifted by
    # the restart time, continues the uninterrupted run.
    params = ModelParams(eps, 1.0, beta)
    terms = ManufacturedProblem(params, final_time=0.8).forcing_terms()
    dt, t0 = 0.1, 0.4
    full = run_transient(perturbed_ops4, params, terms, dt=dt, n_steps=8)
    half = run_transient(perturbed_ops4, params, terms, dt=dt, n_steps=4)
    shifted = [(lambda t, a=a: a(t + t0), g) for a, g in terms]
    rest = run_transient(perturbed_ops4, params, shifted, dt=dt, n_steps=4, u0=half.u)
    for name in ("u", "p"):
        got, want = getattr(rest, name).values, getattr(full, name).values
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), name


def _polynomial_history(coeffs, h):
    """Step vectors x(n) = sum_j coeffs[j] (n h)^j."""
    return lambda n: sum(c * (n * h) ** j for j, c in enumerate(coeffs))


@pytest.mark.parametrize("degree", range(6))
def test_step_history_extrapolates_polynomials(degree):
    # Up to fifth order, once enough points are stored, the prediction is
    # the next value of a polynomial history.
    coeffs = np.random.default_rng(degree).uniform(-1.0, 1.0, (degree + 1, 7))
    x = _polynomial_history(coeffs, 0.05)
    history = solver._StepHistory(x(0), slice(0, 4))
    for n in range(1, 10):
        history.push(x(n))
        if n >= degree:
            np.testing.assert_allclose(history.predict(), x(n + 1), rtol=0, atol=1e-13)


def test_step_history_truncates_before_a_jump():
    # Zero up to step 2, then a quadratic: the fifth difference reaches
    # back across the jump and is left out.
    x = _polynomial_history(np.array([[1.0, -2.0], [0.5, 1.0], [-3.0, 2.0]]), 0.1)
    history = solver._StepHistory(np.zeros(2), slice(None))
    for n in range(1, 8):
        history.push(x(n) if n >= 3 else np.zeros(2))
    np.testing.assert_allclose(history.predict(), x(8), rtol=0, atol=1e-13)
    assert np.abs(sum(history.diffs) - x(8)).max() > 0.1


def test_step_history_from_one_and_two_points():
    x0, x1 = np.array([1.0, -2.0, 3.0]), np.array([1.5, -1.0, 2.0])
    history = solver._StepHistory(x0, slice(0, 2))
    assert np.array_equal(history.predict(), x0)
    history.push(x1)
    np.testing.assert_allclose(history.predict(), 2.0 * x1 - x0, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n_points", [1, 2, 3])
def test_step_history_backward_differences_are_the_bdf_coefficients(n_points):
    # Order q = min(order, points stored): weight 1 and history x_n for
    # q = 1, weight 3/2 and 2 x_n - x_{n-1} / 2 for q = 2.
    xs = np.random.default_rng(n_points).standard_normal((n_points, 9))
    history = solver._StepHistory(xs[0], slice(None))
    for x in xs[1:]:
        history.push(x)
    sigma, h = history.bdf(1)
    assert sigma == 1.0 and np.array_equal(h, xs[-1])
    sigma, h = history.bdf(2)
    if n_points == 1:
        assert sigma == 1.0 and np.array_equal(h, xs[-1])
    else:
        assert sigma == 1.5
        np.testing.assert_allclose(h, 2.0 * xs[-1] - 0.5 * xs[-2], rtol=0, atol=1e-14)


@pytest.mark.parametrize("start", ["rest", "u0"])
def test_one_step_bdf2_is_backward_euler(start):
    # BDF2 opens with a backward Euler step, bit for bit.
    ops = operators(2)
    params = ModelParams(1.0, 1.0, 1.0)
    u0 = None
    if start == "u0":
        u0 = run_transient(ops, params, forcing, dt=0.05, n_steps=2).u
    be, bdf2 = (
        run_transient(ops, params, forcing, dt=0.05, n_steps=1, scheme=s, u0=u0)
        for s in (BACKWARD_EULER, BDF2)
    )
    for name in ("u", "L", "uhat", "p"):
        assert np.array_equal(getattr(be, name).values, getattr(bdf2, name).values), name


def test_finest_first_order_row_takes_few_triangular_solves():
    # The 8x8 row of the first-order table: the predicted start leaves
    # most steps one triangular solve from the stop.
    _, res = run_manufactured(8, 64, ModelParams(1.0, 1.0, 1.0))
    assert sum(r.refine_passes for r in res.reports) <= 1.25 * 64


def test_strong_drag_converges_under_a_sign_flipping_source(perturbed_ops4):
    # A source whose sign flips every three steps gives the predictor a
    # history with kinks; the chord iteration still converges, matches the
    # reference step loop, and takes no more factorizations (32) and
    # triangular solves (256) than the Newton loop it replaced.
    params = ModelParams(1.0, 1.0, 1e4)
    dt, n = 0.05, 12
    flip = lambda pts, t: (1.0 if round(t / dt) % 6 < 3 else -1.0) * 100.0 * forcing(pts, 0.25)
    res = run_transient(perturbed_ops4, params, flip, dt=dt, n_steps=n)
    ref = reference_transient(perturbed_ops4, params, flip, dt, n, newton=True)
    assert sum(r.factorizations for r in res.reports) <= 32
    assert sum(r.refine_passes for r in res.reports) <= 256
    got, want = res.u.values, ref["u"]
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

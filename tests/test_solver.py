"""Time stepping: residuals, drag iteration, stability, temporal order."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from sdgflow import spaces
from sdgflow.mesh import PrimalMesh, build_rectangle_mesh, build_staggered
from sdgflow.solver import (
    BACKWARD_EULER,
    BDF2,
    ModelParams,
    PicardConfig,
    build_operators,
    run_transient,
)
from sdgflow.spaces import FieldCoefficients, SMOOTH_DEGREE
from sdgflow.verify import run_manufactured

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


def test_zero_forcing_stays_zero():
    ops = operators(2)
    res = run_transient(ops, ModelParams(1.0, 1.0, 1.0), None, dt=0.05, n_steps=4)
    assert res.u.values.max() == 0.0 and res.p.values.max() == 0.0
    assert all(r.picard_iterations == 1 for r in res.reports)


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
    np.testing.assert_allclose(
        -ops.DP @ u + ops.mp * res.mu, 0.0, atol=1e-10 * scale
    )
    assert abs(ops.mp @ p) <= 1e-10 * max(1.0, np.abs(p).max())
    assert abs(res.mu) <= 1e-9

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
    assert res.mu == 0.0


@pytest.mark.parametrize("beta, max_sweeps", [(50.0, 3), (1e3, 4)])
def test_newton_increments_converge_quadratically(beta, max_sweeps):
    # Newton on the drag Jacobian squares the increment every sweep; the
    # frozen-speed Picard iteration only shrinks it by a fixed factor.
    ops = operators(2)
    res = run_transient(
        ops,
        ModelParams(1.0, 1.0, beta),
        forcing,
        dt=0.1,
        n_steps=1,
        picard=PicardConfig(tol=1e-11),
    )
    inc = res.reports[0].increments
    assert len(inc) <= max_sweeps
    assert all(b <= 10.0 * a**2 for a, b in zip(inc, inc[1:]) if a > 1e-12)


def jittered_square_mesh(n, seed, amp=0.15):
    """n-by-n quads on the unit square, interior vertices moved by up to
    amp * h in each coordinate."""
    rng = np.random.default_rng(seed)
    xs = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="xy")
    verts = np.column_stack([xx.ravel(), yy.ravel()])
    ii, jj = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="xy")
    interior = ((ii > 0) & (ii < n) & (jj > 0) & (jj < n)).ravel()
    h = 1.0 / n
    verts[interior] += rng.uniform(-amp * h, amp * h, size=(int(interior.sum()), 2))
    vid = lambda i, j: j * (n + 1) + i
    quads = [
        [vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)]
        for j in range(n)
        for i in range(n)
    ]
    return build_staggered(PrimalMesh(verts, quads))


@pytest.mark.parametrize("eps", [1.0, 0.0])
def test_strong_drag_converges_on_jittered_mesh(eps):
    # beta = 1e4 with dt = 1/160: the frozen-speed iteration stalls just
    # above the tolerance here (step 10 for eps = 1, step 7 for eps = 0).
    ops = build_operators(jittered_square_mesh(4, 0), 1)
    params = ModelParams(eps, 1.0, 1e4)
    _, res = run_manufactured(4, 16, params, BACKWARD_EULER, 1, 0.1, ops=ops)
    assert max(r.picard_iterations for r in res.reports) <= 6
    assert all(r.increments[-1] <= 1e-9 for r in res.reports)


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
    np.testing.assert_allclose(
        -ops.DP @ u0.u.values + ops.mp * u0.mu, 0.0, atol=1e-10
    )


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


@pytest.fixture(scope="module")
def perturbed_ops():
    return build_operators(perturbed_mesh(3, seed=2), 1)


@pytest.mark.parametrize("beta", [0.0, 1e4])
@pytest.mark.parametrize("scheme", [BACKWARD_EULER, BDF2])
@pytest.mark.parametrize("eps", [1.0, 0.0])
def test_matches_reference_step_loop(perturbed_ops, eps, scheme, beta):
    # The in-place step matrix, the drag Jacobian and warm-started
    # refinement must give the fields and sweep counts of a Newton loop
    # that rebuilds every matrix, integrates the Jacobian triangle by
    # triangle and refines from zero, with no more triangular solves.
    ops = perturbed_ops
    params = ModelParams(eps, 1.0, beta)
    dt, n = 0.02, 6
    res = run_transient(ops, params, forcing, dt=dt, n_steps=n, scheme=scheme)
    ref = reference_transient(ops, params, forcing, dt, n, scheme, newton=True)
    names = ("u", "L", "uhat", "p") if eps > 0.0 else ("u", "p")
    for name in names:
        got, want = getattr(res, name).values, ref[name]
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), name
    assert abs(res.mu - ref["mu"]) <= 1e-10 * max(1.0, abs(ref["mu"]))
    assert [r.picard_iterations for r in res.reports] == ref["sweeps"]
    assert sum(r.refine_passes for r in res.reports) <= ref["solves"]
    assert res.reports[0].factorizations >= 1
    assert all(r.refine_passes >= 1 for r in res.reports)
    if beta != 0.0:
        # Newton and the frozen-speed Picard iteration solve the same
        # discrete step; a tightly converged Picard run fixes it
        # independently, up to the linear solves' backward error.
        picard = reference_transient(ops, params, forcing, dt, n, scheme, tol=1e-12)
        for name in names:
            got, want = getattr(res, name).values, picard[name]
            assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max(), name

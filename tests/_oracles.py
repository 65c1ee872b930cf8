"""Independent closed-form oracles shared by the test modules.

Monomial integrals over arbitrary triangles come from the barycentric
identity  integral of l1^a l2^b l3^c over T = 2|T| a! b! c! / (a+b+c+2)!
combined with the multinomial expansion of x^p y^q in barycentric form.
This route never touches the package quadrature code.
"""

from __future__ import annotations

from math import comb, factorial

import numpy as np


def tri_area(tri) -> float:
    (x1, y1), (x2, y2), (x3, y3) = np.asarray(tri, dtype=float)
    return 0.5 * abs((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1))


def _compositions3(n: int):
    """All (i, j, k) with i + j + k = n, i, j, k >= 0."""
    return [(i, j, n - i - j) for i in range(n + 1) for j in range(n - i + 1)]


def exact_monomial_integral(tri, p: int, q: int) -> float:
    """Exact integral of x^p y^q over the triangle, by barycentric expansion."""
    tri = np.asarray(tri, dtype=float)
    xs, ys = tri[:, 0], tri[:, 1]
    total = 0.0
    for ix, jx, kx in _compositions3(p):
        cx = (
            factorial(p) // (factorial(ix) * factorial(jx) * factorial(kx))
            * xs[0] ** ix * xs[1] ** jx * xs[2] ** kx
        )
        for iy, jy, ky in _compositions3(q):
            cy = (
                factorial(q) // (factorial(iy) * factorial(jy) * factorial(ky))
                * ys[0] ** iy * ys[1] ** jy * ys[2] ** ky
            )
            a, b, c = ix + iy, jx + jy, kx + ky
            bary = (
                factorial(a) * factorial(b) * factorial(c)
                / factorial(a + b + c + 2)
            )
            total += cx * cy * bary
    return 2.0 * tri_area(tri) * total


def exact_poly_integral(tri, coeffs, exps) -> float:
    """Exact integral of sum_i coeffs[i] x^exps[i,0] y^exps[i,1] over tri."""
    return sum(
        c * exact_monomial_integral(tri, int(p), int(q))
        for c, (p, q) in zip(coeffs, exps)
    )


def random_triangle(rng, scale: float = 1.0) -> np.ndarray:
    """Random non-degenerate triangle with area bounded away from zero."""
    while True:
        tri = rng.uniform(-scale, scale, size=(3, 2))
        if tri_area(tri) > 0.05 * scale * scale:
            return tri


def reference_transient(ops, params, f, dt, n_steps, scheme="be", tol=1e-9, max_iter=50):
    """Straightforward step loop for checking ``solver.run_transient``.

    Every drag sweep assembles the whole step matrix with ``sp.bmat``,
    takes the drag mass from ``assemble_mass`` and solves the bordered
    system by iterative refinement from zero with a pinned-pressure LU
    factor that is kept across sweeps and steps and rebuilt when a
    refinement pass fails to contract the residual eightfold.

    Returns a dict with the final ``u``, ``L``, ``uhat``, ``p``, ``mu``,
    the drag sweeps of every step and the number of triangular solves.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    from sdgflow.forms import assemble_load, assemble_mass
    from sdgflow.spaces import FieldCoefficients

    U = ops.velocity
    se = float(np.sqrt(params.epsilon))
    dw, du = ops.gradient.global_dim, U.global_dim
    dp, dt_ = ops.pressure.global_dim, ops.trace.global_dim
    if se == 0.0:
        ou, rows_p, cols_p, n = 0, du, du, du + dp
    else:
        ou, rows_p, cols_p = dw, dw + du, dw + du + dt_
        n = dw + du + dt_ + dp
    mp, c1 = ops.mp, ops.p_const
    omega = float(mp @ c1)
    pin = int(np.argmax(np.abs(c1)))
    rp, cp = rows_p + pin, cols_p + pin
    state = {"lu": None, "solves": 0}

    def core(Au):
        if se == 0.0:
            blocks = [[Au, ops.GU], [-ops.DP, None]]
        else:
            blocks = [
                [ops.MW, -se * ops.BW, -se * ops.TW, None],
                [se * ops.BU, Au, None, ops.GU],
                [None, -ops.DP, None, None],
                [ops.TH, None, None, None],
            ]
        return sp.bmat(blocks, format="csr")

    def refactor(A):
        pinned = A.copy()
        pinned.data[pinned.indptr[rp] : pinned.indptr[rp + 1]] = 0.0
        unit = sp.csr_matrix(([1.0], ([rp], [cp])), shape=(n, n))
        state["lu"] = splu((pinned + unit).tocsc())

    def apply(d, g):
        mu = float(c1 @ d[rows_p : rows_p + dp]) / omega
        dd = d.copy()
        dd[rows_p : rows_p + dp] -= mu * mp
        dd[rp] = 0.0
        y = state["lu"].solve(dd)
        state["solves"] += 1
        y[cols_p : cols_p + dp] += (g - float(mp @ y[cols_p : cols_p + dp])) / omega * c1
        return y, mu

    def bordered_solve(A, b):
        fresh = state["lu"] is None
        if fresh:
            refactor(A)
        anorm = float(abs(A).sum(axis=1).max()) + float(np.abs(mp).sum())
        bnorm = float(np.linalg.norm(b))
        x, mu = np.zeros(n), 0.0
        r, rg = b.copy(), 0.0
        rn_prev = np.inf
        for _ in range(12):
            dx, dmu = apply(r, rg)
            x += dx
            mu += dmu
            r = b - A @ x
            r[rows_p : rows_p + dp] -= mu * mp
            rg = -float(mp @ x[cols_p : cols_p + dp])
            scale = bnorm + anorm * np.linalg.norm(x) + 1e-300
            rn = float(np.hypot(np.linalg.norm(r), rg))
            if rn <= 1e-13 * scale:
                break
            if not fresh and rn > 0.125 * rn_prev:
                refactor(A)
                fresh, rn_prev = True, np.inf
                continue
            rn_prev = rn
        assert rn <= 1e-10 * scale
        return x, mu

    def energy(v):
        return np.sqrt(max(v @ (ops.MU @ v), 0.0))

    u_prev, u_prev2 = np.zeros(du), None
    x, mu, sweeps = np.zeros(n), 0.0, []
    for step in range(1, n_steps + 1):
        if scheme == "bdf2" and step >= 2:
            sigma, hist = 1.5, ops.MU @ ((4.0 * u_prev - u_prev2) / (2.0 * dt))
            if step == 2:
                state["lu"] = None
        else:
            sigma, hist = 1.0, ops.MU @ (u_prev / dt)
        b = np.zeros(n)
        b[ou : ou + du] = hist + assemble_load(U, f, t=step * dt)
        u_guess = u_prev.copy() if u_prev2 is None else 2.0 * u_prev - u_prev2
        for it in range(1, max_iter + 1):
            Au = (sigma / dt + params.alpha) * ops.MU
            if params.beta != 0.0:
                weight = FieldCoefficients(U, u_guess)
                Au = Au + params.beta * assemble_mass(U, weight=weight)
            x, mu = bordered_solve(core(Au), b)
            u_new = x[ou : ou + du]
            inc = energy(u_new - u_guess) / max(energy(u_new), 1e-300)
            u_guess = u_new
            if params.beta == 0.0 or inc <= tol:
                break
        else:
            raise AssertionError(f"reference drag iteration stalled at step {step}")
        sweeps.append(it)
        u_prev2, u_prev = u_prev, u_guess
    zero = np.zeros(0)
    return {
        "u": u_prev,
        "L": x[:dw] if se > 0.0 else zero,
        "uhat": x[dw + du : dw + du + dt_] if se > 0.0 else zero,
        "p": x[cols_p : cols_p + dp],
        "mu": mu,
        "sweeps": sweeps,
        "solves": state["solves"],
    }

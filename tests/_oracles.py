"""Independent closed-form oracles shared by the test modules.

Monomial integrals over arbitrary triangles come from the barycentric
identity  integral of l1^a l2^b l3^c over T = 2|T| a! b! c! / (a+b+c+2)!
combined with the multinomial expansion of x^p y^q in barycentric form.
This route never touches the package quadrature code.
"""

from __future__ import annotations

import weakref
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


def drag_jacobian(U, coeffs):
    """Jacobian of ``v -> D(v) v`` at ``coeffs``, triangle by triangle.

    ``D(v)`` is ``assemble_mass(U, weight=v)``; its derivative is the
    velocity mass with the pointwise 2x2 weight ``|u| I + u u^T / |u|``
    (second term zero where ``u`` vanishes), integrated on the enhanced
    tier that ``assemble_mass`` uses for weights and compressed through
    ``U.E``.
    """
    import scipy.sparse as sp

    from sdgflow.spaces import enhanced_degree, tri_tables

    ttab = tri_tables(U.mesh, U.k, enhanced_degree(U.k))
    broken = U.broken(coeffs)
    nk = U.nk
    blocks = []
    for t in range(U.mesh.n_triangles):
        phi = ttab.val[t]
        B = np.zeros((2 * nk, 2 * nk))
        for q in range(phi.shape[1]):
            u = broken[t] @ phi[:, q]
            speed = float(np.hypot(u[0], u[1]))
            W = speed * np.eye(2)
            if speed > 0.0:
                W += np.outer(u, u) / speed
            B += ttab.w[t, q] * np.kron(W, np.outer(phi[:, q], phi[:, q]))
        blocks.append(B)
    return (U.E.T @ sp.block_diag(blocks, format="csr") @ U.E).tocsr()


def reference_transient(
    ops, params, f, dt, n_steps, scheme="be", tol=1e-9, max_iter=50, newton=False
):
    """Straightforward step loop for checking ``solver.run_transient``.

    Every drag sweep assembles the whole step matrix with ``sp.bmat``,
    takes the drag mass from ``assemble_mass`` and solves the bordered
    system by iterative refinement from zero with a pinned-pressure LU
    factor that is kept across sweeps and steps and rebuilt when a
    refinement pass fails to contract the residual eightfold.

    The drag sweep is the frozen-speed Picard iteration ``(m MU + beta
    D(u_k)) u_{k+1} = rhs`` by default. With ``newton=True`` it is
    Newton's method, ``(m MU + beta J(u_k)) u_{k+1} = rhs + beta (J(u_k)
    - D(u_k)) u_k`` with ``J`` from :func:`drag_jacobian`.

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
            b_it = b
            if params.beta != 0.0:
                D = assemble_mass(U, weight=FieldCoefficients(U, u_guess))
                if newton:
                    J = drag_jacobian(U, u_guess)
                    Au = Au + params.beta * J
                    b_it = b.copy()
                    b_it[ou : ou + du] += params.beta * ((J - D) @ u_guess)
                else:
                    Au = Au + params.beta * D
            x, mu = bordered_solve(core(Au), b_it)
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


# ----- element-by-element reference of the set-up path ---------------------
#
# The table builders, the space construction (global numbering and local
# functional matrices), the six coupling operators and interpolation as
# they were written before assembly was batched: one Python iteration per
# triangle or edge, dense blocks accumulated as COO triplets. They read
# only their own tables and their own expansion matrices, so a comparison
# with the library checks every batched gather and scatter.


def loop_tri_tables(mesh, k, exactness):
    """Per-triangle quadrature and basis tables, one triangle at a time."""
    from sdgflow.polybasis import eval_basis, tri_dim, triangle_quadrature
    from sdgflow.spaces import TriTables

    nt = mesh.n_triangles
    nk = tri_dim(k)
    rule0 = triangle_quadrature(exactness, mesh.tri_coords(0))
    nq = len(rule0.weights)
    pts = np.empty((nt, nq, 2))
    w = np.empty((nt, nq))
    val = np.empty((nt, nk, nq))
    grad = np.empty((nt, nk, nq, 2))
    for t in range(nt):
        coords = mesh.tri_coords(t)
        rule = triangle_quadrature(exactness, coords)
        pts[t], w[t] = rule.points, rule.weights
        val[t], grad[t] = eval_basis(k, coords, rule.points)
    return TriTables(pts, w, val, grad)


def loop_edge_tables(mesh, k, exactness):
    """Per-edge quadrature, trace and Legendre tables, one edge at a time."""
    from sdgflow.polybasis import edge_quadrature, eval_basis, tri_dim
    from sdgflow.spaces import EdgeTables

    ne = mesh.n_edges
    nk = tri_dim(k)
    rule0 = edge_quadrature(exactness, mesh.edge_coords(0))
    nq = len(rule0.weights)
    pts = np.empty((ne, nq, 2))
    w = np.empty((ne, nq))
    trace = np.zeros((ne, 2, nk, nq))
    leg = np.empty((ne, k + 1, nq))
    for e in range(ne):
        coords = mesh.edge_coords(e)
        rule = edge_quadrature(exactness, coords)
        pts[e], w[e] = rule.points, rule.weights
        leg[e] = eval_basis(k, coords, rule.points)[0]
        for s in range(2):
            t = mesh.edge_tri[e, s]
            if t >= 0:
                trace[e, s] = eval_basis(k, mesh.tri_coords(t), rule.points)[0]
    return EdgeTables(pts, w, trace, leg)


_LOOP_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _loop_tables(kind, mesh, k, exactness):
    per_mesh = _LOOP_TABLES.setdefault(mesh, {})
    key = (kind, k, exactness)
    if key not in per_mesh:
        build = loop_tri_tables if kind == "tri" else loop_edge_tables
        per_mesh[key] = build(mesh, k, exactness)
    return per_mesh[key]


class LoopSpace:
    """Staggered space numbered and expanded triangle by triangle.

    Same attributes as ``sdgflow.spaces.DofSpace`` (``dof_map``,
    ``local_E``, ``E``, dimensions), built from :func:`loop_tri_tables`
    and :func:`loop_edge_tables`.
    """

    def __init__(self, mesh, kind, k):
        import scipy.sparse as sp

        from sdgflow.polybasis import tri_dim
        from sdgflow.spaces import TRACE

        self.mesh = mesh
        self.kind = kind
        self.k = k
        self.nk = tri_dim(k)
        self.nk1 = tri_dim(k - 1) if k >= 1 else 0
        if kind == TRACE:
            self.ncomp = 2
            self.loc_dim = 0
            self.global_dim = (k + 1) * len(mesh.dual_edges)
            self.broken_dim = self.global_dim
            self.dof_map = np.empty((0, 0), dtype=int)
            self.local_E = np.empty((0, 0, 0))
            self.E = sp.identity(self.global_dim, format="csr")
            self._dual_index = {int(e): i for i, e in enumerate(mesh.dual_edges)}
            return
        self.ncomp = {"velocity": 2, "gradient": 4, "pressure": 1}[kind]
        self.loc_dim = self.ncomp * self.nk
        self.broken_dim = self.loc_dim * mesh.n_triangles
        self._build()

    def _build(self):
        from sdgflow.spaces import PRESSURE, VELOCITY

        mesh, k, nk, nk1 = self.mesh, self.k, self.nk, self.nk1
        nt = mesh.n_triangles
        kp1 = k + 1
        if self.kind == VELOCITY:
            dual = mesh.dual_edges
            self._dual_index = {int(e): i for i, e in enumerate(dual)}
            edge_block = kp1 * len(dual)
            self.global_dim = edge_block + 2 * nk1 * nt
            n_loc = 2 * kp1 + 2 * nk1
        elif self.kind == PRESSURE:
            primal = mesh.primal_edges
            self._primal_index = {int(e): i for i, e in enumerate(primal)}
            edge_block = kp1 * len(primal)
            self.global_dim = edge_block + nk1 * nt
            n_loc = kp1 + nk1
        else:  # GRADIENT
            primal = mesh.primal_edges
            self._primal_index = {int(e): i for i, e in enumerate(primal)}
            edge_block = 2 * kp1 * len(primal)
            tang_block = 2 * kp1 * nt
            self.global_dim = edge_block + tang_block + 4 * nk1 * nt
            n_loc = 4 * kp1 + 4 * nk1
        self._edge_block = edge_block
        self.dof_map = np.empty((nt, n_loc), dtype=int)
        for t in range(nt):
            self.dof_map[t] = self._local_dofs(t)
        self._assemble_expansion()

    def _local_dofs(self, t):
        from sdgflow.spaces import PRESSURE, VELOCITY

        mesh, k, nk1 = self.mesh, self.k, self.nk1
        kp1 = k + 1
        ids = []
        if self.kind == VELOCITY:
            for de in mesh.tri_dual[t]:
                base = self._dual_index[int(de)] * kp1
                ids.extend(range(base, base + kp1))
            base = self._edge_block + t * 2 * nk1
            ids.extend(range(base, base + 2 * nk1))
        elif self.kind == PRESSURE:
            base = self._primal_index[int(mesh.tri_pedge[t])] * kp1
            ids.extend(range(base, base + kp1))
            base = self._edge_block + t * nk1
            ids.extend(range(base, base + nk1))
        else:
            base = self._primal_index[int(mesh.tri_pedge[t])] * 2 * kp1
            ids.extend(range(base, base + 2 * kp1))
            base = self._edge_block + t * 2 * kp1
            ids.extend(range(base, base + 2 * kp1))
            base = self._edge_block + 2 * kp1 * mesh.n_triangles + t * 4 * nk1
            ids.extend(range(base, base + 4 * nk1))
        return np.array(ids, dtype=int)

    def _edge_moments(self, etab, e, side):
        h = self.mesh.edge_length[e]
        return (etab.leg[e] * (etab.w[e] / h)) @ etab.trace[e, side].T

    def _interior_moments(self, ttab, t, area):
        return (ttab.val[t, : self.nk1] * (ttab.w[t] / area)) @ ttab.val[t].T

    def _functional_matrix(self, t, ttab, etab, areas):
        from sdgflow.spaces import PRESSURE, VELOCITY

        mesh, k, nk, nk1 = self.mesh, self.k, self.nk, self.nk1
        kp1 = k + 1
        V = np.zeros((self.loc_dim, self.loc_dim))
        if self.kind == VELOCITY:
            row = 0
            for de in mesh.tri_dual[t]:
                side = 0 if mesh.edge_tri[de, 0] == t else 1
                mom = self._edge_moments(etab, de, side)
                n_hat = mesh.edge_canon_normal[de]
                for c in range(2):
                    V[row : row + kp1, c * nk : (c + 1) * nk] += n_hat[c] * mom
                row += kp1
            imom = self._interior_moments(ttab, t, areas[t])
            for c in range(2):
                V[row : row + nk1, c * nk : (c + 1) * nk] = imom
                row += nk1
        elif self.kind == PRESSURE:
            pe = mesh.tri_pedge[t]
            side = 0 if mesh.edge_tri[pe, 0] == t else 1
            V[:kp1, :] = self._edge_moments(etab, pe, side)
            V[kp1:, :] = self._interior_moments(ttab, t, areas[t])
        else:
            pe = mesh.tri_pedge[t]
            side = 0 if mesh.edge_tri[pe, 0] == t else 1
            mom = self._edge_moments(etab, pe, side)
            n_hat = mesh.edge_canon_normal[pe]
            t_hat = mesh.edge_canon_tangent[pe]
            row = 0
            for direction in (n_hat, t_hat):
                for r in range(2):
                    for c in range(2):
                        comp = 2 * r + c
                        V[row : row + kp1, comp * nk : (comp + 1) * nk] += (
                            direction[c] * mom
                        )
                    row += kp1
            imom = self._interior_moments(ttab, t, areas[t])
            for comp in range(4):
                V[row : row + nk1, comp * nk : (comp + 1) * nk] = imom
                row += nk1
        return V

    def _assemble_expansion(self):
        import scipy.sparse as sp

        from sdgflow.spaces import std_degree

        mesh = self.mesh
        deg = std_degree(self.k)
        ttab = _loop_tables("tri", mesh, self.k, deg)
        etab = _loop_tables("edge", mesh, self.k, deg)
        areas = mesh.tri_areas()
        nt = mesh.n_triangles
        n_loc = self.dof_map.shape[1]
        rows = np.empty(nt * self.loc_dim * n_loc, dtype=int)
        cols = np.empty_like(rows)
        data = np.empty(rows.shape)
        blk = self.loc_dim * n_loc
        self.local_E = np.empty((nt, self.loc_dim, n_loc))
        for t in range(nt):
            V = self._functional_matrix(t, ttab, etab, areas)
            Vinv = np.linalg.inv(V)
            self.local_E[t] = Vinv
            r = np.repeat(np.arange(self.loc_dim) + t * self.loc_dim, n_loc)
            c = np.tile(self.dof_map[t], self.loc_dim)
            rows[t * blk : (t + 1) * blk] = r
            cols[t * blk : (t + 1) * blk] = c
            data[t * blk : (t + 1) * blk] = Vinv.ravel()
        self.E = sp.coo_matrix(
            (data, (rows, cols)), shape=(self.broken_dim, self.global_dim)
        ).tocsr()

    def trace_edge_dofs(self, e):
        base = self._dual_index[int(e)] * (self.k + 1)
        return np.arange(base, base + self.k + 1)


class _Coo:
    """Accumulates dense blocks into COO triplets in broken indexing."""

    def __init__(self):
        self.rows = []
        self.cols = []
        self.vals = []

    def put(self, rbase, cbase, block):
        nr, nc = block.shape
        self.rows.append(np.repeat(np.arange(rbase, rbase + nr), nc))
        self.cols.append(np.tile(np.arange(cbase, cbase + nc), nr))
        self.vals.append(block.ravel())

    def matrix(self, shape):
        import scipy.sparse as sp

        return sp.coo_matrix(
            (
                np.concatenate(self.vals),
                (np.concatenate(self.rows), np.concatenate(self.cols)),
            ),
            shape=shape,
        )


def _compressed(test, trial, buf):
    broken = buf.matrix((test.broken_dim, trial.broken_dim)).tocsr()
    return (test.E.T @ broken @ trial.E).tocsr()


def _grad_val(mesh, k):
    from sdgflow.spaces import std_degree

    ttab = _loop_tables("tri", mesh, k, std_degree(k))
    return np.einsum("tmqc,tq,tnq->tcmn", ttab.grad, ttab.w, ttab.val)


def _edge_sides(mesh, e):
    if mesh.edge_tri[e, 1] < 0:
        return (0,), (1.0, 0.0)
    return (0, 1), (0.5, 0.5)


def _std_edge_tables(mesh, k):
    from sdgflow.spaces import std_degree

    return _loop_tables("edge", mesh, k, std_degree(k))


def loop_mass(space):
    """Mass matrix of a volume space, one diagonal block per triangle."""
    import scipy.sparse as sp

    from sdgflow.spaces import std_degree

    ttab = _loop_tables("tri", space.mesh, space.k, std_degree(space.k))
    blocks = []
    for t in range(space.mesh.n_triangles):
        m = (ttab.val[t] * ttab.w[t]) @ ttab.val[t].T
        blocks.append(np.kron(np.eye(space.ncomp), m))
    broken = sp.block_diag(blocks, format="csr")
    return (space.E.T @ broken @ space.E).tocsr()


def loop_pressure_integral(p_space):
    """Integrals of the pressure basis, one triangle at a time."""
    from sdgflow.spaces import std_degree

    ttab = _loop_tables("tri", p_space.mesh, p_space.k, std_degree(p_space.k))
    broken = np.array([ttab.val[t] @ ttab.w[t] for t in range(p_space.mesh.n_triangles)])
    return p_space.E.T @ broken.ravel()


def loop_velocity_gradient(u_space, w_space):
    mesh, k = u_space.mesh, u_space.k
    nk, locU, locW = u_space.nk, u_space.loc_dim, w_space.loc_dim
    D = _grad_val(mesh, k)
    etab = _std_edge_tables(mesh, k)
    buf = _Coo()
    for t in range(mesh.n_triangles):
        for a in range(2):
            for c in range(2):
                buf.put(t * locU + a * nk, t * locW + (2 * a + c) * nk, D[t, c])
    for e in mesh.primal_edges:
        ts = mesh.edge_tri[e]
        sides, avg = _edge_sides(mesh, e)
        n = mesh.edge_normal[e]
        tw = etab.trace[e] * etab.w[e]
        for sv in sides:
            for sg in sides:
                S = tw[sv] @ etab.trace[e, sg].T
                f = -mesh.edge_sign[e, sv] * avg[sg]
                for a in range(2):
                    for c in range(2):
                        buf.put(
                            ts[sv] * locU + a * nk,
                            ts[sg] * locW + (2 * a + c) * nk,
                            (f * n[c]) * S,
                        )
    for e in mesh.dual_edges:
        ts = mesh.edge_tri[e]
        n, tv = mesh.edge_normal[e], mesh.edge_tangent[e]
        tw = etab.trace[e] * etab.w[e]
        for s in (0, 1):
            S = tw[s] @ etab.trace[e, s].T
            f = -mesh.edge_sign[e, s]
            for a in range(2):
                for r in range(2):
                    for c in range(2):
                        buf.put(
                            ts[s] * locU + a * nk,
                            ts[s] * locW + (2 * r + c) * nk,
                            (f * tv[a] * tv[r] * n[c]) * S,
                        )
    return _compressed(u_space, w_space, buf)


def loop_velocity_gradient_adjoint(w_space, u_space):
    mesh, k = w_space.mesh, w_space.k
    nk, locU, locW = u_space.nk, u_space.loc_dim, w_space.loc_dim
    D = _grad_val(mesh, k)
    etab = _std_edge_tables(mesh, k)
    buf = _Coo()
    for t in range(mesh.n_triangles):
        for a in range(2):
            for c in range(2):
                buf.put(t * locW + (2 * a + c) * nk, t * locU + a * nk, -D[t, c])
    for e in mesh.dual_edges:
        ts = mesh.edge_tri[e]
        n = mesh.edge_normal[e]
        tw = etab.trace[e] * etab.w[e]
        for sg in (0, 1):
            f = 0.5 * mesh.edge_sign[e, sg]
            for sv in (0, 1):
                S = tw[sg] @ etab.trace[e, sv].T
                for r in range(2):
                    for c in range(2):
                        for a in range(2):
                            buf.put(
                                ts[sg] * locW + (2 * r + c) * nk,
                                ts[sv] * locU + a * nk,
                                (f * n[r] * n[c] * n[a]) * S,
                            )
    return _compressed(w_space, u_space, buf)


def loop_divergence(p_space, u_space):
    mesh, k = p_space.mesh, p_space.k
    nk, locU = p_space.nk, u_space.loc_dim
    D = _grad_val(mesh, k)
    etab = _std_edge_tables(mesh, k)
    buf = _Coo()
    for t in range(mesh.n_triangles):
        for a in range(2):
            buf.put(t * nk, t * locU + a * nk, D[t, a])
    for e in mesh.dual_edges:
        ts = mesh.edge_tri[e]
        n = mesh.edge_normal[e]
        tw = etab.trace[e] * etab.w[e]
        for sq in (0, 1):
            f = -0.5 * mesh.edge_sign[e, sq]
            for sv in (0, 1):
                S = tw[sq] @ etab.trace[e, sv].T
                for a in range(2):
                    buf.put(ts[sq] * nk, ts[sv] * locU + a * nk, (f * n[a]) * S)
    return _compressed(p_space, u_space, buf)


def loop_divergence_adjoint(u_space, p_space):
    mesh, k = u_space.mesh, u_space.k
    nk, locU = p_space.nk, u_space.loc_dim
    D = _grad_val(mesh, k)
    etab = _std_edge_tables(mesh, k)
    buf = _Coo()
    for t in range(mesh.n_triangles):
        for a in range(2):
            buf.put(t * locU + a * nk, t * nk, -D[t, a])
    for e in mesh.primal_edges:
        ts = mesh.edge_tri[e]
        sides, avg = _edge_sides(mesh, e)
        n = mesh.edge_normal[e]
        tw = etab.trace[e] * etab.w[e]
        for sv in sides:
            for sq in sides:
                S = tw[sv] @ etab.trace[e, sq].T
                f = mesh.edge_sign[e, sv] * avg[sq]
                for a in range(2):
                    buf.put(ts[sv] * locU + a * nk, ts[sq] * nk, (f * n[a]) * S)
    return _compressed(u_space, p_space, buf)


def loop_trace_jump(t_space, w_space):
    mesh, k = t_space.mesh, t_space.k
    nk, locW = w_space.nk, w_space.loc_dim
    etab = _std_edge_tables(mesh, k)
    buf = _Coo()
    for e in mesh.dual_edges:
        ts = mesh.edge_tri[e]
        n = mesh.edge_normal[e]
        that = mesh.edge_canon_tangent[e]
        rbase = int(t_space.trace_edge_dofs(e)[0])
        lw = etab.leg[e] * etab.w[e]
        for s in (0, 1):
            B = lw @ etab.trace[e, s].T
            f = mesh.edge_sign[e, s]
            for r in range(2):
                for c in range(2):
                    buf.put(
                        rbase, ts[s] * locW + (2 * r + c) * nk, (f * that[r] * n[c]) * B
                    )
    return _compressed(t_space, w_space, buf)


def loop_trace_jump_adjoint(w_space, t_space):
    mesh, k = w_space.mesh, w_space.k
    nk, locW = w_space.nk, w_space.loc_dim
    etab = _std_edge_tables(mesh, k)
    buf = _Coo()
    for e in mesh.dual_edges:
        ts = mesh.edge_tri[e]
        n = mesh.edge_normal[e]
        that = mesh.edge_canon_tangent[e]
        cbase = int(t_space.trace_edge_dofs(e)[0])
        for s in (0, 1):
            B = (etab.trace[e, s] * etab.w[e]) @ etab.leg[e].T
            f = mesh.edge_sign[e, s]
            for r in range(2):
                for c in range(2):
                    buf.put(
                        ts[s] * locW + (2 * r + c) * nk, cbase, (f * that[r] * n[c]) * B
                    )
    return _compressed(w_space, t_space, buf)


def loop_interpolate(space, fieldfn):
    """Moment functionals of a smooth field, edge by edge and triangle by
    triangle; returns the global coefficient vector."""
    from sdgflow.spaces import PRESSURE, SMOOTH_DEGREE, TRACE, VELOCITY

    mesh, k = space.mesh, space.k
    kp1 = k + 1
    g = np.zeros(space.global_dim)
    etab = _loop_tables("edge", mesh, k, SMOOTH_DEGREE)

    def field(pts):
        return np.asarray(fieldfn(pts), dtype=float)

    if space.kind == TRACE:
        for i, e in enumerate(mesh.dual_edges):
            vals = field(etab.pts[e])
            tang = vals @ mesh.edge_canon_tangent[e]
            scale = (2 * np.arange(kp1) + 1) / mesh.edge_length[e]
            g[i * kp1 : (i + 1) * kp1] = scale * ((etab.leg[e] * etab.w[e]) @ tang)
        return g

    ttab = _loop_tables("tri", mesh, k, SMOOTH_DEGREE)
    areas = mesh.tri_areas()
    nk1 = space.nk1

    if space.kind == VELOCITY:
        for i, e in enumerate(mesh.dual_edges):
            vals = field(etab.pts[e])
            normal = vals @ mesh.edge_canon_normal[e]
            g[i * kp1 : (i + 1) * kp1] = (
                (etab.leg[e] * (etab.w[e] / mesh.edge_length[e])) @ normal
            )
        if nk1:
            for tri in range(mesh.n_triangles):
                vals = field(ttab.pts[tri])
                mom = (ttab.val[tri, :nk1] * (ttab.w[tri] / areas[tri])) @ vals
                base = space._edge_block + tri * 2 * nk1
                g[base : base + 2 * nk1] = mom.T.ravel()
    elif space.kind == PRESSURE:
        for i, e in enumerate(mesh.primal_edges):
            vals = field(etab.pts[e])
            g[i * kp1 : (i + 1) * kp1] = (
                (etab.leg[e] * (etab.w[e] / mesh.edge_length[e])) @ vals
            )
        if nk1:
            for tri in range(mesh.n_triangles):
                vals = field(ttab.pts[tri])
                base = space._edge_block + tri * nk1
                g[base : base + nk1] = (
                    ttab.val[tri, :nk1] * (ttab.w[tri] / areas[tri])
                ) @ vals
    else:  # GRADIENT
        for i, e in enumerate(mesh.primal_edges):
            vals = field(etab.pts[e])
            wob = etab.leg[e] * (etab.w[e] / mesh.edge_length[e])
            gn = vals @ mesh.edge_canon_normal[e]
            base = i * 2 * kp1
            for r in range(2):
                g[base + r * kp1 : base + (r + 1) * kp1] = wob @ gn[:, r]
        tang_base = space._edge_block
        for tri in range(mesh.n_triangles):
            pe = mesh.tri_pedge[tri]
            vals = field(etab.pts[pe])
            wob = etab.leg[pe] * (etab.w[pe] / mesh.edge_length[pe])
            gt = vals @ mesh.edge_canon_tangent[pe]
            base = tang_base + tri * 2 * kp1
            for r in range(2):
                g[base + r * kp1 : base + (r + 1) * kp1] = wob @ gt[:, r]
        if nk1:
            ibase = tang_base + 2 * kp1 * mesh.n_triangles
            for tri in range(mesh.n_triangles):
                vals = field(ttab.pts[tri])
                mom = np.einsum(
                    "mq,qrc->rcm",
                    ttab.val[tri, :nk1] * (ttab.w[tri] / areas[tri]),
                    vals,
                )
                base = ibase + tri * 4 * nk1
                g[base : base + 4 * nk1] = mom.ravel()
    return g

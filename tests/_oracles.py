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

from sdgflow.mesh import (
    DUAL,
    GEOM_TOL,
    PRIMAL_BOUNDARY,
    PRIMAL_INTERIOR,
    MeshError,
    MeshGeometryError,
    MeshQualityReport,
    MeshTopologyError,
    StaggeredMesh,
)


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


def predicted_velocity(velocities, max_order=5):
    """The next velocity extrapolated from ``velocities`` (oldest first).

    Sums the backward differences ``D^j = np.diff(last points, j)[-1]``,
    ``j = 0..max_order``, and stops before the first ``D^j`` with ``j >=
    2`` whose norm is not below that of ``D^{j-1}``.
    """
    pts = np.array(velocities[-(max_order + 1) :])
    guess, size = pts[-1].copy(), np.inf
    for j in range(1, len(pts)):
        d = np.diff(pts, n=j, axis=0)[-1]
        d_size = np.linalg.norm(d)
        if j >= 2 and not d_size < size:
            break
        guess += d
        size = d_size
    return guess


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

    A step's first sweep starts from the velocity extrapolated from the
    past steps' velocities as the solver does (see
    :func:`predicted_velocity`), and refinement stops at the solver's
    ``REFINE_TOL``.

    Returns a dict with the final ``u``, ``L``, ``uhat``, ``p``, ``mu``,
    the drag sweeps of every step and the number of triangular solves.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    from sdgflow.forms import assemble_load, assemble_mass
    from sdgflow.solver import REFINE_TOL
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
            if rn <= REFINE_TOL * scale:
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
    velocities = [u_prev]
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
        u_guess = predicted_velocity(velocities)
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
        velocities.append(u_prev)
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


# Mesh construction as it was built per polygon, side and edge, with dict
# bookkeeping; the array code in sdgflow.mesh must reproduce its arrays
# exactly and raise the same errors with the same messages.


def _polygon_signed_area(coords: np.ndarray) -> float:
    x, y = coords[:, 0], coords[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _polygon_centroid(coords: np.ndarray) -> np.ndarray:
    x, y = coords[:, 0], coords[:, 1]
    cross = x * np.roll(y, -1) - np.roll(x, -1) * y
    area = 0.5 * cross.sum()
    cx = np.sum((x + np.roll(x, -1)) * cross) / (6.0 * area)
    cy = np.sum((y + np.roll(y, -1)) * cross) / (6.0 * area)
    return np.array([cx, cy])


def _segments_properly_intersect(p1, p2, q1, q2, tol) -> bool:
    """True if open segments (p1,p2) and (q1,q2) cross at an interior point."""

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    return d1 * d2 < -tol and d3 * d4 < -tol


class LoopPrimalMesh:
    """Validated polygonal tiling.

    Parameters
    ----------
    vertices : ndarray
        Shape (nv, 2). Vertex coordinates.
    polygons : sequence of int sequences
        Counterclockwise vertex-index cycles, one per polygon.

    Raises
    ------
    MeshGeometryError
        Non-positive polygon area, clockwise cycle, or self-intersection.
    MeshTopologyError
        An edge shared by more than two polygons, by two polygons in the
        same direction, or a tiling whose polygon areas do not add up to
        the area enclosed by its boundary.
    """

    def __init__(self, vertices, polygons):
        self.vertices = np.array(vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        self.polygons = [np.asarray(p, dtype=int) for p in polygons]
        self._validate_polygons()
        self._build_edges()
        self._validate_partition()
        self.vertices.setflags(write=False)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_polygons(self) -> int:
        return len(self.polygons)

    def polygon_coords(self, p: int) -> np.ndarray:
        return self.vertices[self.polygons[p]]

    def polygon_area(self, p: int) -> float:
        return _polygon_signed_area(self.polygon_coords(p))

    def _validate_polygons(self):
        nv = self.n_vertices
        for ip, poly in enumerate(self.polygons):
            if len(poly) < 3:
                raise MeshError(f"polygon {ip} has fewer than 3 vertices")
            if (poly < 0).any() or (poly >= nv).any():
                raise MeshError(f"polygon {ip} references a missing vertex")
            if len(np.unique(poly)) != len(poly):
                raise MeshError(f"polygon {ip} repeats a vertex")
            coords = self.vertices[poly]
            diam = np.ptp(coords, axis=0).max()
            area = _polygon_signed_area(coords)
            if area <= GEOM_TOL * diam * diam:
                raise MeshGeometryError(
                    f"polygon {ip} is degenerate or clockwise (signed area {area:g})"
                )
            m = len(poly)
            tol = GEOM_TOL * diam * diam
            for i in range(m):
                for j in range(i + 1, m):
                    if j == i + 1 or (i == 0 and j == m - 1):
                        continue  # adjacent sides share a vertex
                    if _segments_properly_intersect(
                        coords[i], coords[(i + 1) % m], coords[j], coords[(j + 1) % m], tol
                    ):
                        raise MeshGeometryError(f"polygon {ip} is self-intersecting")

    def _build_edges(self):
        edge_ids: dict[tuple[int, int], int] = {}
        edge_vertices = []
        edge_polygons: list[list[int]] = []
        edge_directions: list[list[int]] = []
        for ip, poly in enumerate(self.polygons):
            m = len(poly)
            for i in range(m):
                a, b = int(poly[i]), int(poly[(i + 1) % m])
                key = (min(a, b), max(a, b))
                eid = edge_ids.get(key)
                if eid is None:
                    eid = len(edge_vertices)
                    edge_ids[key] = eid
                    edge_vertices.append(key)
                    edge_polygons.append([])
                    edge_directions.append([])
                if len(edge_polygons[eid]) == 2:
                    raise MeshTopologyError(
                        f"non-manifold edge {eid} {key}: shared by more than two polygons"
                    )
                edge_polygons[eid].append(ip)
                edge_directions[eid].append(1 if a == key[0] else -1)
        for eid, dirs in enumerate(edge_directions):
            if len(dirs) == 2 and dirs[0] == dirs[1]:
                raise MeshTopologyError(
                    f"edge {eid} {edge_vertices[eid]} traversed twice in the same "
                    "direction; polygons overlap or are inconsistently oriented"
                )
        self.edge_vertices = np.array(edge_vertices, dtype=int)
        self.edge_polygons = edge_polygons
        self._edge_directions = edge_directions
        self.edge_ids = edge_ids
        self.boundary_edge = np.array([len(ps) == 1 for ps in edge_polygons])

    def _validate_partition(self):
        total = sum(self.polygon_area(p) for p in range(self.n_polygons))
        boundary = 0.0
        for eid in np.flatnonzero(self.boundary_edge):
            a, b = self.edge_vertices[eid]
            if self._edge_directions[eid][0] < 0:
                a, b = b, a
            pa, pb = self.vertices[a], self.vertices[b]
            boundary += 0.5 * (pa[0] * pb[1] - pb[0] * pa[1])
        if abs(total - boundary) > 1e-12 * max(total, 1.0):
            raise MeshTopologyError(
                f"polygon areas sum to {total:g} but the boundary encloses "
                f"{boundary:g}; polygons overlap or leave gaps"
            )


def loop_build_staggered(primal: LoopPrimalMesh, interior_points=None) -> StaggeredMesh:
    """Construct the simplicial submesh and its full edge table.

    Parameters
    ----------
    primal : LoopPrimalMesh
    interior_points : ndarray, optional
        Shape (n_polygons, 2); one point strictly inside each polygon with
        the polygon star-shaped around it. Defaults to polygon centroids.

    Raises
    ------
    MeshGeometryError
        If an interior point produces an inverted or degenerate triangle;
        the message names the polygon.
    """
    npoly = primal.n_polygons
    if interior_points is None:
        interior_points = np.array(
            [_polygon_centroid(primal.polygon_coords(p)) for p in range(npoly)]
        )
    else:
        interior_points = np.asarray(interior_points, dtype=float)
        if interior_points.shape != (npoly, 2):
            raise MeshError("need one interior point per polygon")
    points = np.vstack([primal.vertices, interior_points])

    n_pe = len(primal.edge_vertices)
    tri, tri_poly, tri_pedge = [], [], []
    dual_ids: dict[tuple[int, int], int] = {}
    edge_points = [tuple(vw) for vw in primal.edge_vertices]
    edge_class = [
        PRIMAL_BOUNDARY if b else PRIMAL_INTERIOR for b in primal.boundary_edge
    ]
    edge_adj: list[list[int]] = [[] for _ in range(n_pe)]

    def dual_edge(v: int, nu: int) -> int:
        key = (v, nu)
        eid = dual_ids.get(key)
        if eid is None:
            eid = len(edge_points)
            dual_ids[key] = eid
            edge_points.append((min(v, nu), max(v, nu)))
            edge_class.append(DUAL)
            edge_adj.append([])
        return eid

    tri_dual = []
    for ip, poly in enumerate(primal.polygons):
        nu_id = primal.n_vertices + ip
        nu = points[nu_id]
        coords = primal.vertices[poly]
        diam = np.ptp(coords, axis=0).max()
        m = len(poly)
        for i in range(m):
            a, b = int(poly[i]), int(poly[(i + 1) % m])
            pa, pb = points[a], points[b]
            area2 = (pb[0] - pa[0]) * (nu[1] - pa[1]) - (pb[1] - pa[1]) * (nu[0] - pa[0])
            if area2 <= GEOM_TOL * diam * diam:
                raise MeshGeometryError(
                    f"interior point of polygon {ip} yields an inverted or "
                    f"degenerate triangle on edge ({a}, {b})"
                )
            t = len(tri)
            tri.append((a, b, nu_id))
            tri_poly.append(ip)
            pe = primal.edge_ids[(min(a, b), max(a, b))]
            tri_pedge.append(pe)
            edge_adj[pe].append(t)
            da, db = dual_edge(a, nu_id), dual_edge(b, nu_id)
            edge_adj[da].append(t)
            edge_adj[db].append(t)
            tri_dual.append((da, db))

    tri = np.array(tri, dtype=int)
    tri_poly = np.array(tri_poly, dtype=int)
    tri_pedge = np.array(tri_pedge, dtype=int)
    tri_dual = np.array(tri_dual, dtype=int)
    edge_points = np.array(edge_points, dtype=int)
    edge_class = np.array(edge_class, dtype=np.int8)
    ne = len(edge_points)

    edge_tri = np.full((ne, 2), -1, dtype=int)
    edge_sign = np.zeros((ne, 2))
    vec = points[edge_points[:, 1]] - points[edge_points[:, 0]]
    edge_length = np.hypot(vec[:, 0], vec[:, 1])
    edge_canon_tangent = vec / edge_length[:, None]
    edge_canon_normal = np.column_stack(
        [edge_canon_tangent[:, 1], -edge_canon_tangent[:, 0]]
    )
    edge_normal = np.empty((ne, 2))
    tri_centroids = points[tri].mean(axis=1)

    for e in range(ne):
        adj = sorted(edge_adj[e])
        if edge_class[e] == PRIMAL_BOUNDARY:
            if len(adj) != 1:
                raise MeshTopologyError(f"boundary edge {e} has {len(adj)} triangles")
        elif len(adj) != 2:
            raise MeshTopologyError(f"interior edge {e} has {len(adj)} triangles")
        edge_tri[e, : len(adj)] = adj
        mid = 0.5 * (points[edge_points[e, 0]] + points[edge_points[e, 1]])
        n = edge_canon_normal[e]
        # Point the stored normal out of the first (lowest-index) triangle.
        if n @ (tri_centroids[adj[0]] - mid) > 0:
            n = -n
        edge_normal[e] = n
        edge_sign[e, 0] = 1.0
        if len(adj) == 2:
            edge_sign[e, 1] = -1.0
            if n @ (tri_centroids[adj[1]] - mid) <= 0:
                raise MeshTopologyError(
                    f"edge {e}: adjacent triangles lie on the same side"
                )
    edge_tangent = np.column_stack([-edge_normal[:, 1], edge_normal[:, 0]])

    tri_xy = points[tri]
    sides = np.stack(
        [
            np.linalg.norm(tri_xy[:, 1] - tri_xy[:, 0], axis=1),
            np.linalg.norm(tri_xy[:, 2] - tri_xy[:, 1], axis=1),
            np.linalg.norm(tri_xy[:, 0] - tri_xy[:, 2], axis=1),
        ],
        axis=1,
    )
    h = float(sides.max())

    for arr in (
        points, tri, tri_poly, tri_pedge, tri_dual, edge_points, edge_class,
        edge_normal, edge_tangent, edge_canon_tangent, edge_canon_normal,
        edge_length, edge_tri, edge_sign,
    ):
        arr.setflags(write=False)
    return StaggeredMesh(
        primal=primal,
        points=points,
        tri=tri,
        tri_poly=tri_poly,
        tri_pedge=tri_pedge,
        tri_dual=tri_dual,
        edge_points=edge_points,
        edge_class=edge_class,
        edge_normal=edge_normal,
        edge_tangent=edge_tangent,
        edge_canon_tangent=edge_canon_tangent,
        edge_canon_normal=edge_canon_normal,
        edge_length=edge_length,
        edge_tri=edge_tri,
        edge_sign=edge_sign,
        h=h,
    )


def loop_mesh_quality(mesh: StaggeredMesh) -> MeshQualityReport:
    """Shape-regularity estimates; all ratios are positive for valid meshes."""
    primal = mesh.primal
    star = np.empty(primal.n_polygons)
    edge = np.empty(primal.n_polygons)
    for p in range(primal.n_polygons):
        coords = primal.polygon_coords(p)
        nu = mesh.points[primal.n_vertices + p]
        diam = max(
            np.linalg.norm(coords[i] - coords[j])
            for i in range(len(coords))
            for j in range(i + 1, len(coords))
        )
        dists, lengths = [], []
        m = len(coords)
        for i in range(m):
            a, b = coords[i], coords[(i + 1) % m]
            d = b - a
            L = np.linalg.norm(d)
            t = np.clip((nu - a) @ d / (L * L), 0.0, 1.0)
            dists.append(np.linalg.norm(nu - (a + t * d)))
            lengths.append(L)
        star[p] = min(dists) / diam
        edge[p] = min(lengths) / diam
    return MeshQualityReport(h=mesh.h, star_ratio=star, edge_ratio=edge)

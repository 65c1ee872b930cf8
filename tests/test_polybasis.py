"""Quadrature and basis tests against closed-form integral oracles."""

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from _oracles import exact_monomial_integral, exact_poly_integral, random_triangle
from sdgflow.polybasis import (
    QuadRule,
    edge_quadrature,
    eval_basis,
    monomial_exponents,
    tri_dim,
    triangle_quadrature,
)

REF_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def quad_apply(rule: QuadRule, f) -> float:
    return float(rule.weights @ f(rule.points))


def test_reference_triangle_area():
    rule = triangle_quadrature(0, REF_TRI)
    assert quad_apply(rule, lambda p: np.ones(len(p))) == pytest.approx(0.5)


def test_reference_x2y_is_1_over_60():
    # Frozen closed-form value of the iterated integral; the oracle agrees.
    assert exact_monomial_integral(REF_TRI, 2, 1) == pytest.approx(1.0 / 60.0)
    rule = triangle_quadrature(3, REF_TRI)
    val = quad_apply(rule, lambda p: p[:, 0] ** 2 * p[:, 1])
    assert val == pytest.approx(1.0 / 60.0, rel=1e-13)


def test_scaled_triangle_constant():
    rule = triangle_quadrature(0, 2.0 * REF_TRI)
    ref = quad_apply(triangle_quadrature(0, REF_TRI), lambda p: np.ones(len(p)))
    assert quad_apply(rule, lambda p: np.ones(len(p))) == pytest.approx(4.0 * ref)


def test_degenerate_triangle_rejected():
    bad = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        triangle_quadrature(2, bad)


@pytest.mark.parametrize("degree", range(9))
def test_triangle_exactness_random_polynomials(degree):
    rng = np.random.default_rng(41 + degree)
    exps = monomial_exponents(degree)
    for _ in range(5):
        tri = random_triangle(rng)
        coeffs = rng.uniform(-1, 1, size=len(exps))
        rule = triangle_quadrature(degree, tri)
        approx = float(
            rule.weights
            @ (
                np.vander(rule.points[:, 0], degree + 1, increasing=True)[:, exps[:, 0]]
                * np.vander(rule.points[:, 1], degree + 1, increasing=True)[:, exps[:, 1]]
                @ coeffs
            )
        )
        exact = exact_poly_integral(tri, coeffs, exps)
        assert approx == pytest.approx(exact, rel=1e-12, abs=1e-13)


def test_triangle_weights_positive_and_sum_to_area():
    rng = np.random.default_rng(7)
    for degree in (0, 2, 5, 11, 19):
        tri = random_triangle(rng)
        rule = triangle_quadrature(degree, tri)
        assert (rule.weights > 0).all()
        area = exact_monomial_integral(tri, 0, 0)
        assert rule.weights.sum() == pytest.approx(area, rel=1e-14)


def test_edge_unit_segment():
    seg = np.array([[0.0, 0.0], [1.0, 0.0]])
    rule = edge_quadrature(0, seg)
    assert rule.weights.sum() == pytest.approx(1.0)


def test_edge_cubic():
    seg = np.array([[0.0, 0.0], [1.0, 0.0]])
    rule = edge_quadrature(3, seg)
    assert quad_apply(rule, lambda p: p[:, 0] ** 3) == pytest.approx(0.25, rel=1e-14)


def test_edge_nodes_symmetric_about_midpoint():
    seg = np.array([[0.2, -1.0], [1.4, 0.6]])
    rule = edge_quadrature(6, seg)
    mid = seg.mean(axis=0)
    reflected = 2 * mid - rule.points
    # Gauss nodes come in mirror pairs; sort both sets along the segment.
    t = (rule.points - seg[0]) @ (seg[1] - seg[0])
    tr = (reflected - seg[0]) @ (seg[1] - seg[0])
    np.testing.assert_allclose(np.sort(t), np.sort(tr), atol=1e-12)


def test_edge_exactness_random_polynomials():
    rng = np.random.default_rng(11)
    for degree in range(9):
        seg = rng.uniform(-1, 1, size=(2, 2))
        length = np.linalg.norm(seg[1] - seg[0])
        coeffs = rng.uniform(-1, 1, size=degree + 1)
        rule = edge_quadrature(degree, seg)
        s = np.linalg.norm(rule.points - seg[0], axis=1)
        approx = float(rule.weights @ P.polyval(s, coeffs))
        # Exact antiderivative of the 1D polynomial in arclength.
        anti = np.concatenate([[0.0], coeffs / np.arange(1, degree + 2)])
        exact = float(P.polyval(length, anti))
        assert approx == pytest.approx(exact, rel=1e-12, abs=1e-14)


def test_basis_k0_constant():
    vals, grads = eval_basis(0, REF_TRI, np.array([[0.1, 0.3], [0.5, 0.2]]))
    np.testing.assert_allclose(vals, 1.0)
    np.testing.assert_allclose(grads, 0.0)


def test_basis_dimensions():
    for k in range(5):
        assert tri_dim(k) == (k + 1) * (k + 2) // 2
        pts = np.array([[0.2, 0.2]])
        vals, _ = eval_basis(k, REF_TRI, pts)
        assert vals.shape == (tri_dim(k), 1)
        evals, _ = eval_basis(k, np.array([[0.0, 0.0], [1.0, 1.0]]), pts)
        assert evals.shape == (k + 1, 1)


def test_basis_includes_constants_partition():
    pts = np.array([[0.3, 0.3], [0.1, 0.7], [0.25, 0.5]])
    vals, _ = eval_basis(1, REF_TRI, pts)
    np.testing.assert_allclose(vals[0], 1.0)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_triangle_gradient_matches_finite_differences(k):
    rng = np.random.default_rng(5 + k)
    tri = random_triangle(rng)
    h = 1e-6
    pts = tri.mean(axis=0) + 0.1 * rng.standard_normal((10, 2))
    vals, grads = eval_basis(k, tri, pts)
    for axis in range(2):
        dp = np.zeros(2)
        dp[axis] = h
        vplus, _ = eval_basis(k, tri, pts + dp)
        vminus, _ = eval_basis(k, tri, pts - dp)
        fd = (vplus - vminus) / (2 * h)
        np.testing.assert_allclose(grads[:, :, axis], fd, atol=1e-5)


def test_edge_gradient_matches_finite_differences():
    seg = np.array([[0.1, 0.2], [0.9, 1.1]])
    tang = (seg[1] - seg[0]) / np.linalg.norm(seg[1] - seg[0])
    s = np.linspace(0.1, 0.9, 7)[:, None]
    pts = seg[0] + s * (seg[1] - seg[0])
    h = 1e-6
    vals, grads = eval_basis(3, seg, pts)
    vplus, _ = eval_basis(3, seg, pts + h * tang)
    vminus, _ = eval_basis(3, seg, pts - h * tang)
    fd = (vplus - vminus) / (2 * h)
    np.testing.assert_allclose(grads, fd, atol=1e-5)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_gram_matrices_spd(k):
    rng = np.random.default_rng(23 + k)
    tri = random_triangle(rng)
    rule = triangle_quadrature(2 * k + 2, tri)
    vals, _ = eval_basis(k, tri, rule.points)
    gram = (vals * rule.weights) @ vals.T
    np.testing.assert_allclose(gram, gram.T, atol=1e-15)
    np.linalg.cholesky(gram)  # raises LinAlgError if not SPD


def test_gauss_rules_cached_and_read_only():
    from sdgflow.polybasis import _gauss01

    nodes, weights = _gauss01(5)
    assert _gauss01(5)[0] is nodes
    assert weights.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        nodes[0] = 0.0

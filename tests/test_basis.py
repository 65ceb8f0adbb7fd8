import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from anisodg.basis import (BasisSpec, dof_parallel, dof_perpendicular,
                           gauss_rule, legendre_basis_eval, tensor_basis_eval)


def test_spec_validation_and_dims():
    assert BasisSpec(3, 7).n_loc == 32
    assert dof_parallel(BasisSpec(7, 7), 8) == 64
    assert dof_perpendicular(BasisSpec(3, 7), 16) == 128
    with pytest.raises(ValueError):
        BasisSpec(-1, 2)


def test_legendre_low_orders():
    vals, ders = legendre_basis_eval(1, 0.0)
    assert np.allclose(vals, [1.0, 0.0])
    assert np.allclose(ders, [0.0, 1.0])
    vals, _ = legendre_basis_eval(2, 1.0)
    assert np.allclose(vals, [1.0, 1.0, 1.0])


def test_legendre_explicit_monomials():
    # P_2..P_4 written out as monomials
    t = 0.3
    vals, ders = legendre_basis_eval(4, t)
    assert vals[2] == pytest.approx((3 * t**2 - 1) / 2, abs=1e-15)
    assert vals[3] == pytest.approx((5 * t**3 - 3 * t) / 2, abs=1e-15)
    assert vals[4] == pytest.approx((35 * t**4 - 30 * t**2 + 3) / 8, abs=1e-15)
    assert ders[2] == pytest.approx(3 * t, abs=1e-15)
    assert ders[3] == pytest.approx((15 * t**2 - 3) / 2, abs=1e-15)
    assert ders[4] == pytest.approx((140 * t**3 - 60 * t) / 8, abs=1e-14)


def test_legendre_against_numpy():
    t = np.random.default_rng(1).uniform(-1.0, 1.0, size=11)
    vals, ders = legendre_basis_eval(9, t)
    assert np.max(np.abs(vals - npleg.legvander(t, 9).T)) < 1e-14
    for a in range(10):
        coeff = np.zeros(a + 1)
        coeff[a] = 1.0
        expect = npleg.legval(t, npleg.legder(coeff)) if a else np.zeros_like(t)
        assert np.max(np.abs(ders[a] - expect)) < 1e-12


def test_gauss_rule_classics():
    one = gauss_rule(1)
    assert np.allclose(one.nodes, [0.0]) and np.allclose(one.weights, [2.0])
    two = gauss_rule(2)
    assert np.allclose(np.sort(two.nodes), [-1 / np.sqrt(3), 1 / np.sqrt(3)],
                       atol=1e-15)
    assert np.allclose(two.weights, [1.0, 1.0], atol=1e-15)
    with pytest.raises(ValueError):
        gauss_rule(0)


@pytest.mark.parametrize("n", [1, 5])
def test_gauss_rule_is_shared_and_read_only(n):
    """Each rule is computed once; no caller can change what others read."""
    rule = gauss_rule(n)
    assert gauss_rule(n) is rule
    for table in (rule.nodes, rule.weights):
        with pytest.raises(ValueError):
            table[0] = 1.0


def test_gauss_rule_degree_8_monomial():
    rule = gauss_rule(5)
    assert abs(np.sum(rule.weights * rule.nodes**8) - 2.0 / 9.0) < 1e-14


@pytest.mark.parametrize("n", range(1, 13))
def test_gauss_rule_properties(n):
    rule = gauss_rule(n)
    assert abs(np.sum(rule.weights) - 2.0) < 1e-14
    ref_nodes, ref_weights = npleg.leggauss(n)
    assert np.max(np.abs(np.sort(rule.nodes) - ref_nodes)) < 1e-14
    assert np.max(np.abs(rule.weights - ref_weights)) < 1e-14


def test_quadrature_exactness_random_polynomials():
    rng = np.random.default_rng(5)
    for n in (3, 6, 9):
        rule = gauss_rule(n)
        coeffs = rng.standard_normal(2 * n)  # degree 2n-1
        integral = np.sum(rule.weights * np.polyval(coeffs, rule.nodes))
        exact = sum(c * (1.0 - (-1.0) ** (d + 1)) / (d + 1)
                    for d, c in enumerate(reversed(coeffs)))
        assert abs(integral - exact) < 1e-13 * max(1.0, abs(exact))


def test_tensor_basis_constant_mode():
    spec = BasisSpec(2, 3)
    vals, grads = tensor_basis_eval(spec, 0.37, -0.8)
    assert vals[0] == pytest.approx(1.0)
    assert np.allclose(grads[0], [0.0, 0.0])


def test_tensor_basis_corner_and_gradient():
    spec = BasisSpec(1, 1)
    vals, _ = tensor_basis_eval(spec, 1.0, 1.0)
    assert np.allclose(vals, [1.0, 1.0, 1.0, 1.0])

    # gradients against central differences
    rng = np.random.default_rng(2)
    spec = BasisSpec(3, 4)
    xi, eta = rng.uniform(-0.9, 0.9, size=2)
    _, grads = tensor_basis_eval(spec, xi, eta)
    h = 1e-6
    vp, _ = tensor_basis_eval(spec, xi + h, eta)
    vm, _ = tensor_basis_eval(spec, xi - h, eta)
    assert np.max(np.abs(grads[:, 0] - (vp - vm) / (2 * h))) < 1e-8
    vp, _ = tensor_basis_eval(spec, xi, eta + h)
    vm, _ = tensor_basis_eval(spec, xi, eta - h)
    assert np.max(np.abs(grads[:, 1] - (vp - vm) / (2 * h))) < 1e-8

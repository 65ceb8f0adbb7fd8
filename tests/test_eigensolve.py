import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from anisodg import eigensolve
from anisodg.assembly import assemble_operator_set, build_reduced
from anisodg.basis import BasisSpec
from anisodg.eigensolve import (BandRequest, CompletenessError,
                                _superlu_factor, band_eig,
                                dense_generalized_eig, ldl_inertia,
                                shifted_inertia)
from anisodg.fields import CoefficientField, MagneticField
from anisodg.geometry import Alignment, FieldDirection, MeshConfig, build_mesh

REF_B = FieldDirection(1.165939761, 1.0)


def random_spd_pair(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a = a + a.T
    m = rng.standard_normal((n, n))
    m = m @ m.T + n * np.eye(n)
    return a, m


def test_dense_diag_examples():
    sol = dense_generalized_eig(np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(sol.eigenvalues, [1.0, 2.0, 3.0])
    sol = dense_generalized_eig(np.diag([2.0, 8.0]), np.diag([1.0, 2.0]))
    assert np.allclose(sol.eigenvalues, [2.0, 4.0])


def test_dense_random_pair_self_validates():
    a, m = random_spd_pair(50, 123)
    sol = dense_generalized_eig(a, m)
    assert len(sol) == 50
    assert np.max(sol.residuals) <= 1e-10 * np.abs(a).max() * 50
    # M-orthonormality
    gram = sol.eigenvectors.T @ m @ sol.eigenvectors
    assert np.max(np.abs(gram - np.eye(50))) < 1e-10


def test_dense_cap():
    with pytest.raises(ValueError):
        dense_generalized_eig(np.eye(10), cap=5)


def test_ldl_inertia_examples():
    assert ldl_inertia(np.diag([-1.0, 0.0, 2.0])) == (1, 1, 1)
    assert ldl_inertia(np.eye(7)) == (0, 0, 7)


def test_ldl_inertia_random_matches_eigenvalue_signs():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((40, 40))
    a = a + a.T
    evals = np.linalg.eigvalsh(a)
    want = (int(np.sum(evals < 0)), 0, int(np.sum(evals > 0)))
    assert ldl_inertia(a) == want


def test_superlu_inertia_matches_dense():
    rng = np.random.default_rng(29)
    n = 400
    a = sp.random(n, n, density=0.01, random_state=3)
    a = (a + a.T).tocsc() + sp.diags(rng.standard_normal(n)).tocsc()
    dense = ldl_inertia(a.toarray())
    assert _superlu_factor(a, 1e-12)[0] == dense


def test_shifted_inertia_on_operator(monkeypatch):
    """Dense and SuperLU inertia of A - 0.2 M both count the generalized
    eigenvalues below 0.2, and the factor's solve inverts A - 0.2 M."""
    a, m = make_small_system(4, 4, 2)
    want = int(np.sum(dense_generalized_eig(a, m).eigenvalues <= 0.2))
    k = a.to_full() - 0.2 * m.to_sparse()
    rhs = np.random.default_rng(7).standard_normal(a.n)
    dense, dense_solve = shifted_inertia(a, m, 0.2)
    monkeypatch.setattr(eigensolve, "DENSE_CAP", 0)
    sparse, sparse_solve = shifted_inertia(a, m, 0.2)
    assert dense == sparse
    assert dense[0] == want
    for solve in (dense_solve, sparse_solve):
        assert np.max(np.abs(k @ solve(rhs) - rhs)) < 1e-10


def test_band_eig_diag_example():
    a = np.diag([1.0, 2.0, 3.0])
    sol = band_eig(a, None, BandRequest(lambda_max=2.5))
    assert np.allclose(sol.eigenvalues, [1.0, 2.0])
    assert sol.inertia_count == 2


def test_band_eig_empty_band():
    a = np.diag([5.0, 6.0, 7.0])
    sol = band_eig(a, None, BandRequest(lambda_max=1.0))
    assert len(sol) == 0
    assert sol.inertia_count == 0


def make_small_system(nx=2, ny=2, p=2):
    mesh = build_mesh(MeshConfig(nx, ny, Alignment.BOTTOM_TOP, REF_B))
    ops = assemble_operator_set(mesh, BasisSpec(p, p),
                                CoefficientField.constant(1.0),
                                MagneticField.uniform(REF_B), 6.0)
    return build_reduced(ops)


def test_band_eig_agrees_with_dense(monkeypatch):
    a, m = make_small_system(4, 4, 2)  # 144 dof
    req = BandRequest(lambda_max=0.4)
    monkeypatch.setattr(eigensolve, "DENSE_SWITCH", 0)  # force shift-invert
    sparse_sol = band_eig(a, m, req)
    dense_sol = dense_generalized_eig(a, m)
    keep = dense_sol.eigenvalues <= 0.4
    assert sparse_sol.method == "shift-invert"
    assert len(sparse_sol) == int(np.sum(keep))
    assert np.max(np.abs(sparse_sol.eigenvalues - dense_sol.eigenvalues[keep])) \
        <= 1e-9 * max(1.0, np.abs(dense_sol.eigenvalues[keep]).max())


def test_band_eig_invariants_on_operator(monkeypatch):
    a, m = make_small_system(4, 4, 2)
    req = BandRequest(lambda_max=0.4, tolerance=1e-10)
    monkeypatch.setattr(eigensolve, "DENSE_SWITCH", 0)
    sol = band_eig(a, m, req)
    # completeness: returned count equals the inertia count
    assert sol.inertia_count == len(sol)
    # residual bound and PSD floor
    assert np.max(sol.residuals) <= req.tolerance * sol.norm_a
    assert np.min(sol.eigenvalues) >= -1e-10 * sol.norm_a
    # M-orthonormality of the returned block
    gram = sol.eigenvectors.T @ m.to_dense() @ sol.eigenvectors
    assert np.max(np.abs(gram - np.eye(len(sol)))) < 1e-9


def test_band_eig_deterministic(monkeypatch):
    a, m = make_small_system(4, 4, 2)
    req = BandRequest(lambda_max=0.4)
    monkeypatch.setattr(eigensolve, "DENSE_SWITCH", 0)
    s1 = band_eig(a, m, req, seed=5)
    s2 = band_eig(a, m, req, seed=5)
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
    assert np.array_equal(s1.eigenvectors, s2.eigenvectors)


def test_band_eig_max_subspace_exhaustion(monkeypatch):
    a, m = make_small_system(4, 4, 2)
    monkeypatch.setattr(eigensolve, "DENSE_SWITCH", 0)
    with pytest.raises(CompletenessError):
        band_eig(a, m, BandRequest(lambda_max=0.4, max_subspace=3))


def test_band_eig_sparse_factor_path(monkeypatch):
    """The SuperLU factor serves both the inertia and shift-invert Lanczos."""
    a, m = make_small_system(4, 4, 2)
    monkeypatch.setattr(eigensolve, "DENSE_SWITCH", 0)
    monkeypatch.setattr(eigensolve, "DENSE_CAP", 0)
    sol = band_eig(a, m, BandRequest(lambda_max=0.4))
    dense = dense_generalized_eig(a, m).eigenvalues
    want = dense[dense <= 0.4]
    assert sol.method == "shift-invert"
    assert len(sol) == sol.inertia_count == len(want)
    assert np.max(np.abs(sol.eigenvalues - want)) <= 1e-9
    gram = sol.eigenvectors.T @ m.to_dense() @ sol.eigenvectors
    assert np.max(np.abs(gram - np.eye(len(sol)))) < 1e-9


def test_band_eig_lanczos_failure_is_incomplete(monkeypatch):
    """An ARPACK failure is reported as an uncertified band."""
    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.empty(0),
                                       np.empty((0, 0)))

    a, m = make_small_system(4, 4, 2)
    monkeypatch.setattr(eigensolve, "DENSE_SWITCH", 0)
    monkeypatch.setattr(spla, "eigsh", no_convergence)
    with pytest.raises(CompletenessError, match="Lanczos failed"):
        band_eig(a, m, BandRequest(lambda_max=0.4))


def test_band_request_validation():
    with pytest.raises(ValueError):
        BandRequest(lambda_max=0.0)
    with pytest.raises(ValueError):
        BandRequest(lambda_max=1.0, tolerance=0.0)


def test_band_eig_accepts_plain_arrays():
    rng = np.random.default_rng(31)
    q, _ = np.linalg.qr(rng.standard_normal((60, 60)))
    evals = np.concatenate([np.linspace(0.01, 0.9, 12), np.linspace(2, 50, 48)])
    a = (q * evals) @ q.T
    sol = band_eig(a, None, BandRequest(lambda_max=1.0))
    assert len(sol) == 12
    assert np.max(np.abs(np.sort(sol.eigenvalues) - evals[:12])) < 1e-9


def test_band_eig_returns_near_degenerate_pairs_completely(monkeypatch):
    """Both members of each +-(m,n) pair land in the band (even count)."""
    a, m = make_small_system(4, 4, 3)
    monkeypatch.setattr(eigensolve, "DENSE_SWITCH", 0)
    sol = band_eig(a, m, BandRequest(lambda_max=0.2))
    w = sol.eigenvalues
    nonzero = w[w > 1e-8 * w.max()]
    assert len(nonzero) % 2 == 0
    # pair members approximate the same exact eigenvalue; the split is at the
    # level of the discretization error (measured 1.7% for the (2,-2) pair)
    pairs = nonzero.reshape(-1, 2)
    split = np.abs(pairs[:, 1] - pairs[:, 0]) / pairs[:, 1]
    assert np.max(split) < 2e-2

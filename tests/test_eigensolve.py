import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anisodg import eigensolve
from anisodg.assembly import (SparseSymMatrix, SymStencil,
                              assemble_operator_set, build_reduced)
from anisodg.basis import BasisSpec
from anisodg.eigensolve import (BandRequest, CompletenessError,
                                _residuals, _superlu_factor, band_eig,
                                bloch_eig, shifted_inertia)
from anisodg.fields import CoefficientField, Harmonic, MagneticField
from anisodg.geometry import Alignment, FieldDirection, MeshConfig, build_mesh
from bruteforce import dense_generalized_eig, ldl_inertia

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
    k = a.to_full() - 0.2 * m.to_full()
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


def make_small_system(nx=2, ny=2, p=2, alpha=CoefficientField.constant(1.0)):
    mesh = build_mesh(MeshConfig(nx, ny, Alignment.BOTTOM_TOP, REF_B))
    ops = assemble_operator_set(mesh, BasisSpec(p, p), alpha,
                                MagneticField.uniform(REF_B), 6.0)
    return build_reduced(ops)


def test_band_eig_agrees_with_dense():
    a, m = make_small_system(4, 4, 2)  # 144 dof
    req = BandRequest(lambda_max=0.4)
    sparse_sol = band_eig(a, m, req)
    dense_sol = dense_generalized_eig(a, m)
    keep = dense_sol.eigenvalues <= 0.4
    assert sparse_sol.method == "shift-invert"
    assert len(sparse_sol) == int(np.sum(keep))
    assert np.max(np.abs(sparse_sol.eigenvalues - dense_sol.eigenvalues[keep])) \
        <= 1e-9 * max(1.0, np.abs(dense_sol.eigenvalues[keep]).max())


def test_band_eig_invariants_on_operator():
    a, m = make_small_system(4, 4, 2)
    req = BandRequest(lambda_max=0.4, tolerance=1e-10)
    sol = band_eig(a, m, req)
    # completeness: returned count equals the inertia count
    assert sol.inertia_count == len(sol)
    # residual bound and PSD floor
    assert np.max(sol.residuals) <= req.tolerance * sol.norm_a
    assert np.min(sol.eigenvalues) >= -1e-10 * sol.norm_a
    # M-orthonormality of the returned block
    gram = sol.eigenvectors.T @ m.to_dense() @ sol.eigenvectors
    assert np.max(np.abs(gram - np.eye(len(sol)))) < 1e-9


def test_band_eig_deterministic():
    a, m = make_small_system(4, 4, 2)
    req = BandRequest(lambda_max=0.4)
    s1 = band_eig(a, m, req, seed=5)
    s2 = band_eig(a, m, req, seed=5)
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
    assert np.array_equal(s1.eigenvectors, s2.eigenvectors)


@pytest.mark.parametrize("diag", [[0.5, 1.0, 1.5], [1.0]], ids=["3x3", "1x1"])
def test_band_eig_whole_spectrum_in_band(diag):
    """A band that holds every eigenvalue is solved on the dense path."""
    sol = band_eig(np.diag(diag), None, BandRequest(lambda_max=2.0))
    assert sol.method == "dense-band"
    assert sol.inertia_count == len(diag)
    assert np.allclose(sol.eigenvalues, diag)


def test_band_eig_sparse_factor_path(monkeypatch):
    """The SuperLU factor serves both the inertia and shift-invert Lanczos."""
    a, m = make_small_system(4, 4, 2)
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
    """A Lanczos iteration that never resolves the band is reported as an
    uncertified band: a solve that returns its right-hand side instead of
    applying K^{-1} makes the operator positive definite, so no Ritz value
    turns negative and the whole space runs out."""
    def identity_solve(a, m, shift):
        inertia, _ = shifted_inertia(a, m, shift)
        return inertia, lambda b: np.array(b)

    a, m = make_small_system(4, 4, 2)
    monkeypatch.setattr(eigensolve, "shifted_inertia", identity_solve)
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


def test_band_eig_returns_near_degenerate_pairs_completely():
    """Both members of each +-(m,n) pair land in the band (even count)."""
    a, m = make_small_system(4, 4, 3)
    sol = band_eig(a, m, BandRequest(lambda_max=0.2))
    w = sol.eigenvalues
    nonzero = w[w > 1e-8 * w.max()]
    assert len(nonzero) % 2 == 0
    # pair members approximate the same exact eigenvalue; the split is at the
    # level of the discretization error (measured 1.7% for the (2,-2) pair)
    pairs = nonzero.reshape(-1, 2)
    split = np.abs(pairs[:, 1] - pairs[:, 0]) / pairs[:, 1]
    assert np.max(split) < 2e-2


def _pencil_with_spectrum(evals, seed):
    """A dense pencil ``(A, M)``, ``M`` SPD and not diagonal, whose
    generalized eigenvalues are ``evals``."""
    rng = np.random.default_rng(seed)
    n = len(evals)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    b = rng.standard_normal((n, n)) / np.sqrt(n)
    m = np.eye(n) + 0.3 * (b @ b.T)
    low = np.linalg.cholesky(m)
    a = low @ (q * evals) @ q.T @ low.T
    return (a + a.T) / 2.0, m


@pytest.mark.parametrize("stall_steps", [eigensolve.STALL_STEPS, 1],
                         ids=["default", "early-random-block"])
def test_band_eig_multiplicity_above_block_width(monkeypatch, stall_steps):
    """A triple and a double eigenvalue in the band of a 300x300 pencil:
    the Lanczos block of width 2 returns every pair, M-orthonormal, with the
    inertia count, in far fewer solves than the dimension; also when a
    random block joins the basis at the first stall."""
    band = np.array([0.05, 0.2, 0.2, 0.2, 0.45, 0.45, 0.7, 0.9])
    a, m = _pencil_with_spectrum(np.concatenate([band, np.linspace(2.0, 60.0, 292)]), 41)
    monkeypatch.setattr(eigensolve, "STALL_STEPS", stall_steps)
    sol = band_eig(a, m, BandRequest(lambda_max=1.0))
    assert sol.method == "shift-invert"
    assert len(sol) == sol.inertia_count == shifted_inertia(a, m, 1.0)[0][0] == 8
    np.testing.assert_allclose(sol.eigenvalues, band, rtol=0.0, atol=1e-12)
    gram = sol.eigenvectors.T @ m @ sol.eigenvectors
    assert np.max(np.abs(gram - np.eye(8))) < 1e-12
    assert sol.solves <= 100


@pytest.mark.parametrize("n", [1, 40])
def test_band_eig_zero_operator(n):
    """``A = 0`` puts the whole spectrum at 0 and the residual tolerance at
    ``tolerance * tiny``; the band is the whole space, solved exactly.  One
    p = 0 cell (no neighbours, so no jumps) assembles exactly this."""
    if n == 1:
        mesh = build_mesh(MeshConfig(1, 1, Alignment.CARTESIAN, REF_B))
        alpha = CoefficientField(1.0, (Harmonic(1, 1, 0.2, 0.1),))
        a, m = build_reduced(assemble_operator_set(
            mesh, BasisSpec(0, 0), alpha, MagneticField(REF_B, alpha), 6.0))
        assert a.max_abs() == 0.0
    else:
        a, m = np.zeros((n, n)), random_spd_pair(n, 5)[1]
    sol = band_eig(a, m, BandRequest(lambda_max=0.5))
    assert len(sol) == sol.inertia_count == n
    assert np.all(sol.eigenvalues == 0.0)
    assert np.all(sol.residuals == 0.0)


def test_band_eig_band_near_the_dimension():
    """A band of all but 10 of the 36 eigenvalues of a small operator is
    solved by Lanczos on the whole space, and matches the dense spectrum."""
    a, m = make_small_system(2, 2, 2)
    w = dense_generalized_eig(a, m).eigenvalues
    keep = a.n - 10
    sol = band_eig(a, m, BandRequest(lambda_max=0.5 * (w[keep - 1] + w[keep])))
    assert sol.method == "shift-invert"
    assert len(sol) == sol.inertia_count == keep
    assert np.max(np.abs(sol.eigenvalues - w[:keep])) <= 1e-12 * w[-1]
    gram = sol.eigenvectors.T @ m.to_dense() @ sol.eigenvectors
    assert np.max(np.abs(gram - np.eye(keep))) < 1e-12
    assert sol.subspace <= a.n


def test_solve_counts_are_recorded():
    """``solves`` counts the right-hand sides applied and ``subspace`` the
    final basis size; the Bloch and empty solves apply none."""
    a, m = make_small_system(4, 4, 2)
    sol = band_eig(a, m, BandRequest(lambda_max=0.4))
    assert sol.method == "shift-invert"
    assert 0 < sol.solves <= sol.subspace + eigensolve.LANCZOS_BLOCK
    assert len(sol) < sol.subspace < a.n
    for other in (bloch_eig(a, m, BandRequest(lambda_max=0.4)),
                  band_eig(np.diag([5.0, 6.0]), None, BandRequest(lambda_max=1.0))):
        assert other.solves == other.subspace == 0


def test_shifted_inertia_sums_duplicate_mass_entries():
    """The dense K sums an M entry that the CSR stores in two pieces."""
    a, m = make_small_system(2, 2, 1)
    full = m.to_full()
    # entry (0, 0) stored as two halves
    first = full.indptr[0]
    split = sp.csr_matrix((np.insert(full.data, first, full[0, 0] / 2.0),
                           np.insert(full.indices, first, 0),
                           full.indptr + (np.arange(a.n + 1) > 0)), shape=full.shape)
    split.data[first + 1 + np.flatnonzero(full.indices[:full.indptr[1]] == 0)] /= 2.0
    assert split.nnz == full.nnz + 1
    np.testing.assert_allclose(split.toarray(), full.toarray(), rtol=0.0, atol=1e-17)
    inertia, solve = shifted_inertia(a, SparseSymMatrix(split), 0.4)
    assert inertia == shifted_inertia(a, m, 0.4)[0]
    rhs = np.random.default_rng(2).standard_normal(a.n)
    k = a.to_dense() - 0.4 * m.to_dense()
    assert np.max(np.abs(k @ solve(rhs) - rhs)) < 1e-10


HARMONICS = st.builds(Harmonic, st.integers(-2, 2), st.integers(-2, 2),
                      st.floats(-0.3, 0.3), st.floats(-0.3, 0.3))


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(alignment=st.sampled_from(list(Alignment)),
       nx=st.integers(1, 4), ny=st.integers(1, 4),
       p_xi=st.integers(0, 2), p_eta=st.integers(0, 2),
       b=st.sampled_from([REF_B, FieldDirection(1.0, 2.0), FieldDirection(-0.7, 1.3)]),
       alpha=HARMONICS, beta=HARMONICS, band=st.floats(0.05, 3.0))
def test_band_eig_variable_coefficients_against_dense(alignment, nx, ny, p_xi, p_eta,
                                                      b, alpha, beta, band):
    """Variable-coefficient operators on small random meshes: ``A`` is PSD
    and annihilates the global constant to round-off, and ``band_eig``
    returns as many eigenvalues as the dense spectrum holds in the band."""
    mesh = build_mesh(MeshConfig(nx, ny, alignment, b))
    spec = BasisSpec(p_xi, p_eta)
    ops = assemble_operator_set(mesh, spec, CoefficientField(1.0, (alpha,)),
                                MagneticField(b, CoefficientField(1.0, (beta,))), 6.0)
    a, m = build_reduced(ops)
    norm = a.norm_inf()
    ones = np.zeros(a.n)
    ones[::spec.n_loc] = 1.0
    assert np.max(np.abs(a.matvec(ones))) <= 1e-12 * norm
    assert np.linalg.eigvalsh(a.to_dense())[0] >= -1e-12 * norm
    want = dense_generalized_eig(a, m).eigenvalues
    sol = band_eig(a, m, BandRequest(lambda_max=band))
    assert len(sol) == sol.inertia_count == int(np.sum(want <= band))


# --- Bloch blocks of constant-coefficient pencils ---------------------------


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(alignment=st.sampled_from(list(Alignment)),
       nx=st.integers(1, 4), ny=st.integers(1, 4),
       p_xi=st.integers(0, 2), p_eta=st.integers(0, 2),
       b=st.sampled_from([REF_B, FieldDirection(1.0, 2.0),
                          FieldDirection(-0.7, 1.3)])
       | st.builds(FieldDirection, st.floats(0.3, 2.0), st.floats(-2.0, -0.3)),
       band=st.floats(0.05, 3.0))
# the derandomized draws split every aligned mesh; this one is conforming
@example(alignment=Alignment.BOTTOM_TOP, nx=2, ny=2, p_xi=1, p_eta=2,
         b=FieldDirection(1.0, 2.0), band=1.0)
@example(alignment=Alignment.BOTTOM_TOP, nx=4, ny=4, p_xi=2, p_eta=2,
         b=REF_B, band=0.5)
def test_bloch_blocks_match_global_oracles(alignment, nx, ny, p_xi, p_eta, b, band):
    """The lattice blocks against the global pencil, on every alignment,
    on split and conforming meshes, and on lattices with 1 or 2 cells along
    an axis, whose wavevectors include self-conjugate ones.

    The block spectra together are the dense spectrum, the band count is
    the global LDL^T inertia, the real vectors are M-orthonormal, and each
    reported residual bounds the one measured by sparse products.
    """
    mesh = build_mesh(MeshConfig(nx, ny, alignment, b))
    ops = assemble_operator_set(mesh, BasisSpec(p_xi, p_eta),
                                CoefficientField.constant(1.3),
                                MagneticField.uniform(b), 6.0)
    a, m = build_reduced(ops)
    full = bloch_eig(a, m)
    want = dense_generalized_eig(a, m).eigenvalues
    assert full.method == "dense" and len(full) == a.n
    assert np.max(np.abs(full.eigenvalues - want)) <= 1e-12 * np.max(np.abs(want))

    sol = bloch_eig(a, m, BandRequest(lambda_max=band))
    (n_neg, _, _), _ = shifted_inertia(a, m, band)
    assert sol.method == "bloch"
    assert len(sol) == sol.inertia_count == n_neg

    for s in (full, sol):
        x = s.eigenvectors
        gram = x.T @ m.to_full() @ x
        assert np.max(np.abs(gram - np.eye(len(s))), initial=0.0) <= 1e-12
        measured = _residuals(a, m, s.eigenvalues, x)
        assert np.all(s.residuals >= measured - 1e-15 * s.norm_a)
        assert np.all(s.residuals <= 1e-10 * s.norm_a)


def test_bloch_rejects_variable_coefficients():
    alpha = CoefficientField(1.0, (Harmonic(1, 0, 0.2, 0.0),))
    a, m = make_small_system(2, 2, 1, alpha=alpha)
    with pytest.raises(CompletenessError,
                       match=r"M is not invariant under translations of the "
                             r"2x2 cell lattice: its stencil varies from cell "
                             r"to cell"):
        bloch_eig(a, m, BandRequest(lambda_max=0.4))


def test_bloch_band_edge_on_a_block_eigenvalue_is_ambiguous():
    a, m = make_small_system(2, 2, 2)
    w = bloch_eig(a, m).eigenvalues
    edge = float(w[w > 1e-8][0])
    with pytest.raises(CompletenessError, match="ambiguous"):
        bloch_eig(a, m, BandRequest(lambda_max=edge))


def test_bloch_residuals_of_arbitrary_vectors():
    """With every wavevector computed the lattice residual is the sparse
    product's (Parseval); with one computed and the rest bounded through
    the symbols' norms it is an upper bound."""
    a, m = make_small_system(3, 2, 2)
    pencil = eigensolve._LatticePencil(a, m)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((a.n, 5))
    w = rng.uniform(0.0, 2.0, 5)
    measured = _residuals(a, m, w, x)
    assert np.allclose(pencil.residuals(x, w, range(6)), measured,
                       rtol=1e-12, atol=0.0)
    for k in range(6):
        assert np.all(pencil.residuals(x, w, {k}) >= measured)


def test_bloch_reads_duplicate_entries_as_their_sum():
    """A stencil that stores a block in two pieces, at offsets that alias
    modulo the lattice, is the operator of their sum: the symbols add the
    pieces with the same phase."""
    a, m = make_small_system(2, 2, 1)
    offsets = np.concatenate([a.offsets, a.offsets[:1] + (2, -4)])
    halves = np.concatenate([a.blocks, a.blocks[:, :1] / 4.0], axis=1)
    halves[:, 0] *= 0.75
    split = SymStencil(offsets, halves, a.lattice)
    np.testing.assert_allclose(split.blocks, a.blocks, rtol=0.0, atol=1e-15 * a.max_abs())
    want = bloch_eig(a, m).eigenvalues
    got = bloch_eig(split, m).eigenvalues
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * np.max(want))

import logging
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import anisodg
from anisodg import eigensolve
from anisodg.assembly import Stencil, SymStencil, assemble_operator_set, build_reduced
from anisodg.basis import BasisSpec
from anisodg.cli import EXIT_SOLVER, main
from anisodg.eigensolve import (BandRequest, CompletenessError, band_eig, bloch_eig,
                                shifted_inertia)
from anisodg.fields import CoefficientField, Harmonic, MagneticField, iota_profile
from anisodg.geometry import (Alignment, FieldDirection, MeshConfig, build_mesh,
                              choose_alignment)
from bruteforce import (DENSE_CAP, block_inertia, bloch_band_reference,
                        dense_generalized_eig, extended_residuals,
                        lattice_ldl_reference, ldl_inertia, shifted_stencil)
from pinning import pinned

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


def test_shifted_inertia_on_operator():
    """The lattice layout of a stencil pencil and the one-block layout of its
    expanded matrices have one inertia, which counts the generalized
    eigenvalues below 0.3, and both solves invert A - 0.3 M."""
    a, m = flux_surface_system(10, 6, 2)
    want = int(np.sum(dense_generalized_eig(a, m).eigenvalues <= 0.3))
    k = (a.expand() - 0.3 * m.expand()).toarray()
    rhs = np.random.default_rng(7).standard_normal(a.n)
    lattice, lattice_solve = shifted_inertia(a, m, 0.3)
    dense, dense_solve = shifted_inertia(a.expand(), m.expand(), 0.3)
    assert (lattice_solve.kind, dense_solve.kind) == ("lattice", "dense")
    assert lattice == dense
    assert lattice[0] == want
    for solve in (lattice_solve, dense_solve):
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


def test_band_eig_lanczos_failure_is_incomplete(monkeypatch):
    """A Lanczos iteration that never resolves the band is reported as an
    uncertified band: a solve that returns its right-hand side instead of
    applying K^{-1} makes the operator positive definite, so no Ritz value
    turns negative and the whole space runs out."""
    factor = eigensolve.shifted_inertia

    def identity_solve(*args):
        inertia, _ = factor(*args)
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


@pytest.mark.parametrize("call", [
    lambda a, m: band_eig(a, m, BandRequest(lambda_max=1.0)),
    lambda a, m: shifted_inertia(a, m, 1.0)], ids=["band_eig", "shifted_inertia"])
def test_caller_arrays_are_never_overwritten(call):
    """A stencil symmetrizes and drops its blocks in place, so a dense
    operand is copied first: a caller's C-contiguous float64 ``a`` and
    ``m``, neither exactly symmetric and both with an entry below
    ``DROP_TOL``, keep every byte."""
    rng = np.random.default_rng(37)
    q, _ = np.linalg.qr(rng.standard_normal((59, 59)))
    evals = np.concatenate([np.linspace(0.01, 0.9, 12), np.linspace(2, 50, 47)])
    a = np.zeros((60, 60))
    a[:59, :59] = (q * evals) @ q.T
    a[59, 59] = 50.0
    a += 1e-9 * rng.standard_normal((60, 60))
    m = np.eye(60) + 1e-9 * rng.standard_normal((60, 60))
    a[59, 0] = m[59, 0] = 1e-20
    for x in (a, m):
        assert x.flags.c_contiguous and x.dtype == np.float64
    before = a.tobytes(), m.tobytes()
    call(a, m)
    assert (a.tobytes(), m.tobytes()) == before


def test_lanczos_basis_holds_only_q_and_h():
    """The Lanczos basis stores Q and H, and the M image of the newest block
    alone: its traced memory is Q's, H's and a few columns, with no second
    ``n x cap`` array."""
    a, m = make_small_system(8, 8, 3)  # 1024 dof
    (n_neg, _, _), solve = shifted_inertia(a, m, 0.4)
    cap = 32
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        basis = eigensolve._Basis(m.n, cap, m, np.random.default_rng(0))
        basis.add_random(eigensolve.LANCZOS_BLOCK)
        done = 0
        while basis.k < cap - eigensolve.LANCZOS_BLOCK:
            assert basis.m_new.shape == (m.n, basis.k - done)
            block = slice(done, basis.k)
            basis.extend(solve(basis.m_new), block)
            done = block.stop
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert basis.q.shape == (m.n, cap)
    q = basis.q[:, :basis.k]
    assert np.allclose(q.T @ m.matvec(q), np.eye(basis.k), atol=1e-12)
    assert np.allclose(basis.m_new, m.matvec(basis.q[:, done:basis.k]), atol=1e-12)
    arrays = [x for x in vars(basis).values() if isinstance(x, np.ndarray)]
    assert [x.shape for x in arrays if x.size >= m.n * cap] == [(m.n, cap)]
    columns = m.n * 8  # bytes of one column
    assert held <= basis.q.nbytes + basis.h.nbytes + 4 * columns
    assert n_neg > 0


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
    full = m.expand()
    # entry (0, 0) stored as two halves
    first = full.indptr[0]
    split = sp.csr_matrix((np.insert(full.data, first, full[0, 0] / 2.0),
                           np.insert(full.indices, first, 0),
                           full.indptr + (np.arange(a.n + 1) > 0)), shape=full.shape)
    split.data[first + 1 + np.flatnonzero(full.indices[:full.indptr[1]] == 0)] /= 2.0
    assert split.nnz == full.nnz + 1
    np.testing.assert_allclose(split.toarray(), full.toarray(), rtol=0.0, atol=1e-17)
    inertia, solve = shifted_inertia(a.expand(), split, 0.4)
    assert inertia == shifted_inertia(a, m, 0.4)[0]
    rhs = np.random.default_rng(2).standard_normal(a.n)
    k = a.to_dense() - 0.4 * m.to_dense()
    assert np.max(np.abs(k @ solve(rhs) - rhs)) < 1e-10


HARMONICS = st.builds(Harmonic, st.integers(-2, 2), st.integers(-2, 2),
                      st.floats(-0.3, 0.3), st.floats(-0.3, 0.3))


#: Fixed coverage for the property test below (``pinning.py``): the cases
#: its derandomized draws reached before the Bloch solutions kept their
#: eigenpairs in block form.
VARIABLE_BAND_DRAWS = [
    (Alignment.CARTESIAN, 1, 1, 0, 0, FieldDirection(1.165939761, 1.0),
     Harmonic(0, 0, 0.0, 0.0), Harmonic(0, 0, 0.0, 0.0), 0.05),
    (Alignment.BOTTOM_TOP, 1, 1, 0, 0, FieldDirection(1.165939761, 1.0),
     Harmonic(0, 0, 0.0, 0.0), Harmonic(0, 0, 0.0, 0.0), 0.05),
    (Alignment.BOTTOM_TOP, 2, 4, 1, 0, FieldDirection(1.0, 2.0),
     Harmonic(0, -2, 0.287965876526509, 1.7939404778384376e-233),
     Harmonic(0, 1, -0.11269299493626259, 0.0010612521128133823), 2.1328112659924003),
    (Alignment.CARTESIAN, 4, 1, 0, 0, FieldDirection(1.165939761, 1.0),
     Harmonic(0, 0, 0.0, 0.0), Harmonic(0, 0, 0.0, 0.0), 0.05),
    (Alignment.CARTESIAN, 4, 2, 2, 0, FieldDirection(1.165939761, 1.0),
     Harmonic(2, -2, -0.0225894079649544, 0.22090473541456873),
     Harmonic(-1, -1, 2.9663123497171006e-263, -0.0), 2.9799657615989177),
    (Alignment.LEFT_RIGHT, 1, 4, 2, 0, FieldDirection(1.0, 2.0),
     Harmonic(-2, 2, -0.15053988196255527, -0.22072762253225264),
     Harmonic(1, 1, -1.0625634759650645e-29, 6.95724286835901e-58), 2.821653231994131),
    (Alignment.BOTTOM_TOP, 4, 2, 0, 0, FieldDirection(1.0, 2.0),
     Harmonic(0, 2, 0.19825232804082843, -1.1589477162744057e-151),
     Harmonic(-2, 0, -0.09852266732196241, -2.0456995133010021e-286), 1.1),
    (Alignment.CARTESIAN, 3, 2, 2, 0, FieldDirection(-0.7, 1.3),
     Harmonic(-1, -2, 3.8330010451905345e-218, 0.15175047074518805),
     Harmonic(-1, -1, -0.06656458214772065, 0.03140113490545088), 2.022184269706377),
    (Alignment.LEFT_RIGHT, 4, 2, 1, 0, FieldDirection(1.165939761, 1.0),
     Harmonic(-1, 0, 0.06607984231300423, 1.192092896e-07),
     Harmonic(0, 2, -0.29999999999999993, 2.2250738585e-313), 1.1649173324349795),
    (Alignment.LEFT_RIGHT, 2, 2, 0, 0, FieldDirection(-0.7, 1.3),
     Harmonic(1, -1, 1.175494351e-38, 0.0),
     Harmonic(0, -1, -0.19639939410573581, 9.475575247838974e-173), 2.1290797671368793),
    (Alignment.LEFT_RIGHT, 1, 3, 1, 1, FieldDirection(-0.7, 1.3),
     Harmonic(0, 1, -1.6990715748233712e-235, 1e-13),
     Harmonic(0, 2, 2.2250738585e-313, 0.21359004399020315), 2.137998472782344),
    (Alignment.LEFT_RIGHT, 1, 3, 1, 1, FieldDirection(-0.7, 1.3),
     Harmonic(0, 1, -1.6990715748233712e-235, 1e-13),
     Harmonic(0, 1, -1.6990715748233712e-235, 1e-13), 2.137998472782344),
    (Alignment.LEFT_RIGHT, 1, 1, 1, 1, FieldDirection(-0.7, 1.3),
     Harmonic(0, 1, -1.6990715748233712e-235, 1e-13),
     Harmonic(0, 1, -1.6990715748233712e-235, 1e-13), 2.137998472782344),
    (Alignment.LEFT_RIGHT, 1, 1, 0, 1, FieldDirection(-0.7, 1.3),
     Harmonic(0, 1, -1.6990715748233712e-235, 1e-13),
     Harmonic(0, 1, -1.6990715748233712e-235, 1e-13), 2.137998472782344),
    (Alignment.LEFT_RIGHT, 1, 1, 0, 1, FieldDirection(-0.7, 1.3),
     Harmonic(0, 1, -1.6990715748233712e-235, 1e-13),
     Harmonic(0, 0, -1.6990715748233712e-235, 1e-13), 2.137998472782344),
    (Alignment.LEFT_RIGHT, 1, 1, 0, 1, FieldDirection(-0.7, 1.3),
     Harmonic(0, 1, -1.6990715748233712e-235, 1e-13),
     Harmonic(1, 0, -1.6990715748233712e-235, 1e-13), 2.137998472782344),
    (Alignment.BOTTOM_TOP, 3, 2, 2, 2, FieldDirection(-0.7, 1.3),
     Harmonic(1, 2, -1.1894600216057462e-226, -0.21331010949375073),
     Harmonic(0, 0, 0.015457502179231586, -0.2673830487962842), 0.3177053524828613),
    (Alignment.BOTTOM_TOP, 3, 2, 2, 2, FieldDirection(-0.7, 1.3),
     Harmonic(1, 2, -1.1894600216057462e-226, -0.21331010949375073),
     Harmonic(0, 0, 0.015457502179231586, -0.21331010949375073), 0.3177053524828613),
    (Alignment.BOTTOM_TOP, 3, 2, 2, 2, FieldDirection(-0.7, 1.3),
     Harmonic(1, 2, -1.1894600216057462e-226, -0.21331010949375073),
     Harmonic(0, 0, 0.0, -0.21331010949375073), 0.3177053524828613),
    (Alignment.BOTTOM_TOP, 3, 2, 2, 2, FieldDirection(-0.7, 1.3),
     Harmonic(1, 2, -1.1894600216057462e-226, -0.21331010949375073),
     Harmonic(0, 0, -0.21331010949375073, -0.21331010949375073), 0.3177053524828613),
    (Alignment.BOTTOM_TOP, 3, 2, 2, 2, FieldDirection(-0.7, 1.3),
     Harmonic(1, 2, -1.1894600216057462e-226, -0.21331010949375073),
     Harmonic(0, 0, -0.21331010949375073, -1.1894600216057462e-226), 0.3177053524828613),
    (Alignment.BOTTOM_TOP, 3, 2, 2, 2, FieldDirection(-0.7, 1.3),
     Harmonic(0, 0, -0.21331010949375073, -1.1894600216057462e-226),
     Harmonic(0, 0, -0.21331010949375073, -1.1894600216057462e-226), 0.3177053524828613),
    (Alignment.BOTTOM_TOP, 3, 2, 2, 2, FieldDirection(-0.7, 1.3),
     Harmonic(0, 0, -0.21331010949375073, -1.1894600216057462e-226),
     Harmonic(0, 0, 0.0, -1.1894600216057462e-226), 0.3177053524828613),
    (Alignment.BOTTOM_TOP, 2, 1, 0, 2, FieldDirection(1.0, 2.0),
     Harmonic(2, -1, -0.22566812662149324, 0.09910557077535614),
     Harmonic(-2, 2, -0.14314249262049433, 1e-09), 0.5032477409371388),
    (Alignment.BOTTOM_TOP, 2, 1, 0, 2, FieldDirection(1.0, 2.0),
     Harmonic(-2, 2, -0.14314249262049433, 1e-09),
     Harmonic(-2, 2, -0.14314249262049433, 1e-09), 0.5032477409371388),
    (Alignment.BOTTOM_TOP, 2, 1, 0, 2, FieldDirection(1.0, 2.0),
     Harmonic(-2, 0, -0.14314249262049433, 1e-09),
     Harmonic(-2, 2, -0.14314249262049433, 1e-09), 0.5032477409371388),
    (Alignment.BOTTOM_TOP, 2, 1, 0, 2, FieldDirection(1.0, 2.0),
     Harmonic(-2, 0, -0.14314249262049433, -0.14314249262049433),
     Harmonic(-2, 2, -0.14314249262049433, 1e-09), 0.5032477409371388),
    (Alignment.BOTTOM_TOP, 2, 1, 0, 2, FieldDirection(1.0, 2.0),
     Harmonic(-2, 2, 1e-09, 1e-09), Harmonic(-2, 2, -0.14314249262049433, 1e-09),
     0.5032477409371388),
    (Alignment.BOTTOM_TOP, 2, 1, 0, 2, FieldDirection(1.0, 2.0),
     Harmonic(-2, 2, -0.14314249262049433, 1e-09),
     Harmonic(-2, 2, -0.14314249262049433, 0.0), 0.5032477409371388),
    (Alignment.BOTTOM_TOP, 2, 1, 0, 2, FieldDirection(1.0, 2.0),
     Harmonic(-2, 2, -0.14314249262049433, 0.0),
     Harmonic(-2, 2, -0.14314249262049433, 0.0), 0.5032477409371388),
]


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(alignment=st.sampled_from(list(Alignment)),
       nx=st.integers(1, 4), ny=st.integers(1, 4),
       p_xi=st.integers(0, 2), p_eta=st.integers(0, 2),
       b=st.sampled_from([REF_B, FieldDirection(1.0, 2.0), FieldDirection(-0.7, 1.3)]),
       alpha=HARMONICS, beta=HARMONICS, band=st.floats(0.05, 3.0))
@pinned("alignment, nx, ny, p_xi, p_eta, b, alpha, beta, band", VARIABLE_BAND_DRAWS)
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

#: Fixed coverage for the two Bloch property tests below (``pinning.py``):
#: the cases their derandomized draws reached before ``bloch_eig`` certified
#: each class first.
BLOCK_DRAWS = [
    (Alignment.CARTESIAN, 1, 1, 0, 0, FieldDirection(1.165939761, 1.0), 0.05),
    (Alignment.BOTTOM_TOP, 1, 1, 0, 0, FieldDirection(1.165939761, 1.0), 0.05),
    (Alignment.BOTTOM_TOP, 2, 3, 1, 0, FieldDirection(1.165939761, 1.0),
     1.266436324886049),
    (Alignment.CARTESIAN, 3, 1, 0, 0, FieldDirection(1.165939761, 1.0), 0.05),
    (Alignment.CARTESIAN, 3, 3, 2, 0, FieldDirection(1.5, -1.7925020721468274),
     2.3307092618569616),
    (Alignment.LEFT_RIGHT, 4, 3, 2, 0, FieldDirection(-0.7, 1.3), 1.05),
    (Alignment.CARTESIAN, 4, 2, 2, 2,
     FieldDirection(0.5095615971161517, -0.772095274879435), 0.41072789371078566),
    (Alignment.BOTTOM_TOP, 2, 2, 2, 2, FieldDirection(0.5822067535127284, -1.5),
     1.2577055935442174),
    (Alignment.LEFT_RIGHT, 2, 1, 0, 0,
     FieldDirection(1.886501888988656, -0.5974563224830662), 1.4217529796628738),
    (Alignment.CARTESIAN, 3, 3, 1, 0, FieldDirection(-0.7, 1.3), 2.0),
    (Alignment.LEFT_RIGHT, 4, 2, 2, 0, FieldDirection(1.9831878883779892, -1.0),
     2.863661161994266),
    (Alignment.LEFT_RIGHT, 4, 2, 0, 0, FieldDirection(1.9831878883779892, -1.0),
     2.863661161994266),
    (Alignment.LEFT_RIGHT, 4, 2, 0, 2, FieldDirection(1.9831878883779892, -1.0),
     2.863661161994266),
    (Alignment.LEFT_RIGHT, 2, 2, 0, 2, FieldDirection(1.9831878883779892, -1.0),
     2.863661161994266),
    (Alignment.LEFT_RIGHT, 2, 2, 0, 2, FieldDirection(1.9831878883779892, -1.0), 0.05),
    (Alignment.LEFT_RIGHT, 2, 1, 0, 2, FieldDirection(1.9831878883779892, -1.0), 0.05),
    (Alignment.LEFT_RIGHT, 1, 1, 0, 2, FieldDirection(1.9831878883779892, -1.0), 0.05),
    (Alignment.BOTTOM_TOP, 2, 1, 0, 0, FieldDirection(-0.7, 1.3), 1.165939761),
    (Alignment.BOTTOM_TOP, 2, 2, 0, 0, FieldDirection(-0.7, 1.3), 1.165939761),
    (Alignment.BOTTOM_TOP, 1, 1, 0, 0, FieldDirection(-0.7, 1.3), 1.165939761),
    (Alignment.BOTTOM_TOP, 1, 1, 1, 0, FieldDirection(-0.7, 1.3), 1.165939761),
    (Alignment.BOTTOM_TOP, 1, 1, 1, 1, FieldDirection(-0.7, 1.3), 1.165939761),
    (Alignment.BOTTOM_TOP, 4, 3, 2, 2, FieldDirection(-0.7, 1.3), 2.6119581067977995),
    (Alignment.BOTTOM_TOP, 4, 2, 2, 2, FieldDirection(-0.7, 1.3), 2.6119581067977995),
    (Alignment.BOTTOM_TOP, 4, 2, 0, 2, FieldDirection(-0.7, 1.3), 2.6119581067977995),
    (Alignment.BOTTOM_TOP, 4, 4, 2, 2, FieldDirection(-0.7, 1.3), 2.6119581067977995),
    (Alignment.BOTTOM_TOP, 4, 4, 2, 0, FieldDirection(-0.7, 1.3), 2.6119581067977995),
    (Alignment.BOTTOM_TOP, 1, 4, 2, 0, FieldDirection(-0.7, 1.3), 2.6119581067977995),
    (Alignment.BOTTOM_TOP, 2, 4, 2, 0, FieldDirection(-0.7, 1.3), 2.6119581067977995),
    (Alignment.CARTESIAN, 4, 3, 1, 1,
     FieldDirection(0.40337066275718764, -1.606013334612467), 0.9354733654905539),
    (Alignment.CARTESIAN, 4, 3, 0, 1,
     FieldDirection(0.40337066275718764, -1.606013334612467), 0.9354733654905539),
    (Alignment.CARTESIAN, 3, 3, 0, 1,
     FieldDirection(0.40337066275718764, -1.606013334612467), 0.9354733654905539),
    (Alignment.CARTESIAN, 3, 3, 0, 1, FieldDirection(0.3, -1.606013334612467),
     0.9354733654905539),
    (Alignment.CARTESIAN, 3, 3, 0, 1, FieldDirection(0.3, -2.0), 0.9354733654905539),
    (Alignment.CARTESIAN, 3, 3, 0, 0, FieldDirection(0.3, -2.0), 0.9354733654905539),
    (Alignment.CARTESIAN, 3, 1, 0, 0, FieldDirection(0.3, -2.0), 0.9354733654905539),
    (Alignment.LEFT_RIGHT, 2, 1, 2, 1, FieldDirection(-0.7, 1.3), 2.592560424094202),
    (Alignment.LEFT_RIGHT, 1, 1, 2, 1, FieldDirection(-0.7, 1.3), 2.592560424094202),
    (Alignment.LEFT_RIGHT, 1, 1, 2, 2, FieldDirection(-0.7, 1.3), 2.592560424094202),
    (Alignment.LEFT_RIGHT, 1, 2, 2, 2, FieldDirection(-0.7, 1.3), 2.592560424094202),
]

BOUND_DRAWS = [
    (Alignment.CARTESIAN, 1, 1, 0, 0, FieldDirection(1.165939761, 1.0), 0),
    (Alignment.LEFT_RIGHT, 1, 1, 0, 0, FieldDirection(1.165939761, 1.0), 0),
    (Alignment.LEFT_RIGHT, 4, 3, 1, 1, FieldDirection(1.0, 2.0), 17),
    (Alignment.CARTESIAN, 2, 1, 0, 0, FieldDirection(1.165939761, 1.0), 0),
    (Alignment.CARTESIAN, 2, 4, 0, 0, FieldDirection(-0.7, 1.3), 17974),
    (Alignment.LEFT_RIGHT, 1, 3, 2, 1, FieldDirection(-0.7, 1.3), 509),
    (Alignment.LEFT_RIGHT, 1, 4, 0, 2, FieldDirection(1.165939761, 1.0), 65536),
    (Alignment.BOTTOM_TOP, 3, 3, 2, 2, FieldDirection(1.0, 2.0), 600),
    (Alignment.LEFT_RIGHT, 4, 1, 2, 1, FieldDirection(1.0, 2.0), 527),
    (Alignment.BOTTOM_TOP, 2, 2, 0, 0, FieldDirection(1.0, 2.0), 182),
    (Alignment.CARTESIAN, 3, 3, 2, 2, FieldDirection(1.165939761, 1.0), 65536),
    (Alignment.CARTESIAN, 3, 3, 2, 2, FieldDirection(1.165939761, 1.0), 2),
    (Alignment.CARTESIAN, 2, 3, 2, 2, FieldDirection(1.165939761, 1.0), 2),
    (Alignment.CARTESIAN, 2, 3, 2, 2, FieldDirection(1.165939761, 1.0), 3),
    (Alignment.CARTESIAN, 2, 2, 2, 2, FieldDirection(1.165939761, 1.0), 2),
    (Alignment.CARTESIAN, 2, 1, 1, 1, FieldDirection(1.0, 2.0), 23194),
    (Alignment.CARTESIAN, 1, 1, 1, 1, FieldDirection(1.0, 2.0), 23194),
    (Alignment.CARTESIAN, 1, 1, 1, 1, FieldDirection(1.0, 2.0), 1),
    (Alignment.LEFT_RIGHT, 2, 4, 1, 0, FieldDirection(1.165939761, 1.0), 2756),
    (Alignment.LEFT_RIGHT, 2, 4, 1, 0, FieldDirection(1.165939761, 1.0), 2),
    (Alignment.LEFT_RIGHT, 2, 4, 1, 2, FieldDirection(1.165939761, 1.0), 2),
    (Alignment.LEFT_RIGHT, 1, 4, 1, 2, FieldDirection(1.165939761, 1.0), 2),
    (Alignment.LEFT_RIGHT, 2, 4, 1, 2, FieldDirection(1.165939761, 1.0), 4),
    (Alignment.LEFT_RIGHT, 2, 4, 1, 0, FieldDirection(1.165939761, 1.0), 4),
    (Alignment.LEFT_RIGHT, 2, 4, 1, 0, FieldDirection(1.165939761, 1.0), 1),
    (Alignment.LEFT_RIGHT, 2, 1, 0, 1, FieldDirection(1.165939761, 1.0), 53508),
    (Alignment.LEFT_RIGHT, 2, 1, 0, 1, FieldDirection(1.165939761, 1.0), 0),
    (Alignment.LEFT_RIGHT, 1, 1, 0, 1, FieldDirection(1.165939761, 1.0), 0),
    (Alignment.LEFT_RIGHT, 2, 3, 0, 1, FieldDirection(-0.7, 1.3), 19),
    (Alignment.LEFT_RIGHT, 1, 3, 0, 1, FieldDirection(-0.7, 1.3), 19),
]


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(alignment=st.sampled_from(list(Alignment)),
       nx=st.integers(1, 4), ny=st.integers(1, 4),
       p_xi=st.integers(0, 2), p_eta=st.integers(0, 2),
       b=st.sampled_from([REF_B, FieldDirection(1.0, 2.0),
                          FieldDirection(-0.7, 1.3)])
       | st.builds(FieldDirection, st.floats(0.3, 2.0), st.floats(-2.0, -0.3)),
       band=st.floats(0.05, 3.0))
@pinned("alignment, nx, ny, p_xi, p_eta, b, band", BLOCK_DRAWS)
# the derandomized draws split every aligned mesh; this one is conforming
@example(alignment=Alignment.BOTTOM_TOP, nx=2, ny=2, p_xi=1, p_eta=2,
         b=FieldDirection(1.0, 2.0), band=1.0)
@example(alignment=Alignment.BOTTOM_TOP, nx=4, ny=4, p_xi=2, p_eta=2,
         b=REF_B, band=0.5)
# one dof, whose penalty pieces cancel (test_cancelling_aliases_leave_no_rounding)
@example(alignment=Alignment.BOTTOM_TOP, nx=1, ny=1, p_xi=0, p_eta=0,
         b=FieldDirection(-0.7, 1.3), band=1.0)
def test_bloch_blocks_match_global_oracles(alignment, nx, ny, p_xi, p_eta, b, band):
    """The lattice blocks against the global pencil, on every alignment,
    on split and conforming meshes, and on lattices with 1 or 2 cells along
    an axis, whose wavevectors include self-conjugate ones.

    The block spectra together are the dense spectrum, the band count is
    the global LDL^T inertia, the real vectors are M-orthonormal, and each
    reported residual bounds the residual of the stored vector, measured in
    extended precision, within a hundredth of the residual tolerance.
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
        gram = x.T @ m.expand() @ x
        assert np.max(np.abs(gram - np.eye(len(s))), initial=0.0) <= 1e-12
        measured = extended_residuals(a, m, s.eigenvalues, x)
        assert np.all(s.residuals >= measured)
        assert np.all(s.residuals <= 1e-12 * s.norm_a)


def test_bloch_rejects_variable_coefficients():
    alpha = CoefficientField(1.0, (Harmonic(1, 0, 0.2, 0.0),))
    a, m = make_small_system(2, 2, 1, alpha=alpha)
    with pytest.raises(CompletenessError,
                       match=r"M is not invariant under translations of the "
                             r"2x2 cell lattice: its stencil varies from cell "
                             r"to cell"):
        bloch_eig(a, m, BandRequest(lambda_max=0.4))


def random_class_blocks(hermitian, count, n, zero_diagonal, seed):
    """A stack of ``count`` random real-symmetric or Hermitian ``n x n``
    blocks; with ``zero_diagonal`` each is shifted by its constant
    diagonal, which leaves it a zero diagonal."""
    rng = np.random.default_rng(seed)
    blocks = rng.standard_normal((count, n, n))
    if hermitian:
        blocks = blocks + 1j * rng.standard_normal((count, n, n))
    blocks = blocks + blocks.conj().swapaxes(1, 2)
    if zero_diagonal:
        blocks[:, np.arange(n), np.arange(n)] = rng.standard_normal((count, 1))
        blocks -= np.einsum("cii->ci", blocks)[:, :1, None] * np.eye(n)
    return blocks


def fortran_copy(blocks):
    """A copy of a stack whose matrices are Fortran-ordered, as
    ``_stack_inertia`` factors them in place."""
    out = np.empty(blocks.shape, dtype=blocks.dtype).swapaxes(1, 2)
    out[...] = blocks
    return out


#: Recorded draws of ``test_stack_inertia_is_the_per_class_ldl_count``.
STACK_INERTIA_DRAWS = [
    (False, 1, 1, False, 0),
    (True, 1, 1, False, 0),
    (True, 5, 6, False, 3427),
    (False, 5, 1, False, 0),
    (False, 5, 3, False, 305),
    (True, 4, 7, True, 4096),
    (False, 3, 2, True, 34),
    (True, 1, 8, False, 16),
    (False, 3, 8, True, 601),
    (True, 5, 1, True, 1957),
    (True, 3, 2, True, 1067),
    (True, 3, 1, True, 1067),
    (True, 3, 1, True, 1),
    (True, 3, 1, True, 3),
    (True, 5, 6, True, 9023),
    (True, 5, 6, True, 5),
    (True, 1, 6, True, 5),
    (True, 1, 6, True, 1),
    (True, 1, 1, True, 1),
    (True, 4, 4, True, 9978),
    (True, 4, 4, True, 4),
    (True, 4, 8, True, 22338),
    (True, 4, 4, True, 22338),
    (False, 5, 1, True, 4760),
    (False, 5, 1, True, 1),
    (True, 5, 1, True, 1),
    (True, 3, 6, False, 17206),
    (True, 3, 6, True, 17206),
    (True, 3, 3, True, 17206),
    (True, 3, 3, True, 3),
]


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(hermitian=st.booleans(), count=st.integers(1, 5), n=st.integers(1, 10),
       zero_diagonal=st.booleans(), seed=st.integers(0, 2**16))
@pinned("hermitian, count, n, zero_diagonal, seed", STACK_INERTIA_DRAWS)
def test_stack_inertia_is_the_per_class_ldl_count(hermitian, count, n,
                                                  zero_diagonal, seed):
    """The batched inertia of a stack of class blocks (``_stack_inertia``,
    which ``bloch_eig``'s ``_class_inertia`` runs per group) is, block by
    block, the count of each block's own ``_ldl_factor`` (``tests/
    bruteforce.py``), on random real-symmetric and Hermitian stacks.  A
    zero diagonal forces Bunch-Kaufman 2x2 pivots in every block wider
    than one."""
    blocks = random_class_blocks(hermitian, count, n, zero_diagonal, seed)
    neg, zero = eigensolve._stack_inertia(fortran_copy(blocks))
    want = [block_inertia(b) for b in blocks]
    assert neg.tolist() == [w[0] for w in want]
    assert zero.tolist() == [w[1] for w in want]
    if zero_diagonal and n > 1:
        _, trf, _, lwork = eigensolve._ldl_routines(blocks)
        for b in blocks:
            assert np.any(trf(np.array(b, order="F"), lower=1, lwork=lwork)[1] < 0)


@pytest.mark.parametrize("hermitian", [False, True], ids=["real", "hermitian"])
def test_stack_inertia_counts_a_pivot_within_tolerance_as_zero(hermitian):
    """A pivot within ``PIVOT_TOL max|K|`` (1e-12) of zero counts as zero,
    one just outside it by its sign, in the stack as in each block's own
    factor.  In ``_class_inertia`` a zero pivot makes the band edge
    ambiguous."""
    rng = np.random.default_rng(5)
    dtype = complex if hermitian else float
    blocks = np.array([np.diag(d) for d in ([3.0, -1.0, 2e-12, 0.5],
                                             [3.0, -1.0, -4e-12, 0.5],
                                             [3.0, 1.0, 4e-12, -0.5])], dtype=dtype)
    perm = rng.permutation(4)
    blocks = blocks[:, perm][:, :, perm]
    neg, zero = eigensolve._stack_inertia(fortran_copy(blocks))
    assert (neg.tolist(), zero.tolist()) == ([1, 2, 1], [1, 0, 0])
    assert [block_inertia(b)[:2] for b in blocks] == [(1, 1), (2, 0), (1, 0)]

    a = eigensolve._as_sym(np.diag([4.0, 0.0, 1.0 + 1e-13]))
    pencil = eigensolve._LatticePencil(a, eigensolve._as_pencil(a, None)[1])
    with pytest.raises(CompletenessError, match="1 pivot.*ambiguous"):
        eigensolve._class_inertia(pencil, 1.0)
    _, m = make_small_system(3, 2, 1)
    with pytest.raises(CompletenessError, match="ambiguous"):
        eigensolve._class_inertia(eigensolve._LatticePencil(m, m), 1.0)


@pytest.mark.parametrize("hermitian", [False, True], ids=["real", "hermitian"])
def test_stack_inertia_of_a_nan_entry_is_not_finite(hermitian):
    """A NaN entry in the lower triangle of one block of a stack makes its
    pivots NaN: the stack, like that block's own factor, refuses it."""
    blocks = random_class_blocks(hermitian, 3, 5, False, 11)
    blocks[1, 3, 1] = blocks[1, 1, 3] = np.nan
    with pytest.raises(CompletenessError, match="not finite"):
        eigensolve._stack_inertia(fortran_copy(blocks))
    with pytest.raises(CompletenessError, match="not finite"):
        block_inertia(blocks[1])


def test_bloch_band_edge_on_a_block_eigenvalue_is_ambiguous():
    a, m = make_small_system(2, 2, 2)
    w = bloch_eig(a, m).eigenvalues
    edge = float(w[w > 1e-8][0])
    with pytest.raises(CompletenessError, match="ambiguous"):
        bloch_eig(a, m, BandRequest(lambda_max=edge))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["entry", "block"])
def test_band_of_a_non_finite_pencil_is_incomplete(bad, where):
    """A NaN or inf in a one-cell pencil makes its LDL^T pivots non-finite:
    ``bloch_eig`` and ``band_eig`` refuse the band instead of certifying
    it empty."""
    a, m = make_small_system(1, 1, 2)
    dense = a.to_dense()
    if where == "entry":
        dense[1, 2] = dense[2, 1] = bad
    else:
        dense[:] = bad
    a = eigensolve._as_sym(dense)
    req = BandRequest(lambda_max=0.4)
    for solve in (bloch_eig, band_eig):
        with pytest.raises(CompletenessError, match="not finite"):
            solve(a, m, req)


def constant_pencil(alignment, nx, ny, p):
    mesh = build_mesh(MeshConfig(nx, ny, alignment, REF_B))
    return build_reduced(assemble_operator_set(
        mesh, BasisSpec(p, p), CoefficientField.constant(1.0),
        MagneticField.uniform(REF_B), 6.0))


def test_bloch_full_spectrum_of_any_size_stays_in_block_form(monkeypatch):
    """A full spectrum past the dense oracle's cap (16x64 p3, n = 16384)
    returns its n pairs and their coefficients.  Its n x n eigenvectors
    (2 GiB) are refused when read with ``FACTOR_BUDGET`` below ``n^2``; a
    refused read leaves them unformed, and a later read within the budget
    forms them."""
    a, m = constant_pencil(Alignment.BOTTOM_TOP, 16, 64, 3)
    assert a.n == 16384 > DENSE_CAP
    sol = bloch_eig(a, m)
    assert sol.method == "dense" and len(sol) == a.n
    assert sol.coefficients.shape == (a.n, a.n_loc)
    assert np.all(np.diff(sol.eigenvalues) >= 0.0)
    monkeypatch.setattr(eigensolve, "FACTOR_BUDGET", a.n**2 - 1)
    message = f"the {a.n}x{a.n} eigenvector array would store {a.n**2} entries"
    with pytest.raises(ValueError, match=message):
        sol.eigenvectors
    small_a, small_m = make_small_system(2, 2, 1)
    small = bloch_eig(small_a, small_m)
    monkeypatch.setattr(eigensolve, "FACTOR_BUDGET", small_a.n**2 - 1)
    with pytest.raises(ValueError, match="eigenvector array"):
        small.eigenvectors
    monkeypatch.setattr(eigensolve, "FACTOR_BUDGET", small_a.n**2)
    assert np.array_equal(small.eigenvectors,
                          bloch_band_reference(small_a, small_m, None).eigenvectors)


def test_dense_band_is_refused_past_the_entry_budget(monkeypatch):
    """A band that fills the whole space is solved on the dense ``n x n``
    pencil, which past ``FACTOR_BUDGET`` entries is refused, though the
    lattice factor that counts the band fits (4x16 p1: 8 blocks, 21504
    entries, against ``n^2 = 65536``)."""
    a, m = constant_pencil(Alignment.BOTTOM_TOP, 4, 16, 1)
    req = BandRequest(lambda_max=2.0 * dense_generalized_eig(a, m).eigenvalues[-1])
    monkeypatch.setattr(eigensolve, "FACTOR_BUDGET", a.n**2)
    sol = band_eig(a, m, req)
    assert (sol.method, sol.factor, len(sol)) == ("dense-band", "lattice", a.n)
    assert sol.factor_entries < a.n**2
    monkeypatch.setattr(eigensolve, "FACTOR_BUDGET", a.n**2 - 1)
    with pytest.raises(CompletenessError, match=f"the dense {a.n}x{a.n} pencil"):
        band_eig(a, m, req)


#: ``(alignment, nx, ny, p, lambda_max, kinds)``: ``kinds`` are the kinds of
#: wavevector class that hold band pairs.  The 1x1, 1x2 and 2x2 lattices have only
#: self-conjugate classes; the last is the benchmark's ``ref_band`` solve.
BAND_CASES = [(alignment, nx, ny, 2, 1.0, {"real"})
              for alignment in Alignment for nx, ny in ((1, 1), (1, 2), (2, 2))]
BAND_CASES += [(Alignment.LEFT_RIGHT, 1, 4, 2, 1.0, {"real", "pair"}),
               (Alignment.CARTESIAN, 3, 2, 3, 1.0, {"real", "pair"}),
               (Alignment.BOTTOM_TOP, 8, 8, 4, 0.2, {"real", "pair"})]


def assert_bloch_band_matches_the_reference(a, m, band):
    req = BandRequest(lambda_max=band)
    sol, ref = bloch_eig(a, m, req), bloch_band_reference(a, m, req)
    for name in ("eigenvalues", "eigenvectors", "residuals", "wavevectors"):
        assert np.array_equal(getattr(sol, name), getattr(ref, name)), name
    assert (sol.inertia_count, sol.method) == (ref.inertia_count, ref.method)
    return sol


@pytest.mark.parametrize("alignment, nx, ny, p, band, kinds", BAND_CASES,
                         ids=[f"{c[0].value}-{c[1]}x{c[2]}-p{c[3]}" for c in BAND_CASES])
def test_bloch_band_matches_the_all_classes_reference(alignment, nx, ny, p, band,
                                                      kinds):
    """Certifying first and solving only the classes with band pairs gives,
    bit for bit, what solving every class and cutting the band did."""
    a, m = constant_pencil(alignment, nx, ny, p)
    sol = assert_bloch_band_matches_the_reference(a, m, band)
    conj = eigensolve._LatticePencil(a, m).conj
    held = np.unique(sol.wavevectors)
    assert {"real" if conj[k] == k else "pair" for k in held} == kinds


def per_class_band(a, m, band):
    """``(wavevectors, eigenvalues)`` of the band by a full generalized
    ``scipy.linalg.eigh`` of every class block, cut at ``band``: a pair
    class's eigenvalues twice, each class's ascending, classes in turn."""
    pencil = eigensolve._LatticePencil(a, m)
    ks, ws = [], []
    for k in np.flatnonzero(pencil.conj >= np.arange(len(pencil.conj))):
        a_k, m_k = pencil.symbols(k)
        mult = 1 if pencil.conj[k] == k else 2
        if mult == 1:
            a_k, m_k = a_k.real, m_k.real
        w = sla.eigh(a_k, m_k, eigvals_only=True)
        ws.append(np.repeat(w[w <= band], mult))
        ks.append(np.full(len(ws[-1]), k))
    return np.concatenate(ks), np.concatenate(ws)


PER_CLASS_CASES = [case[:5] for case in BAND_CASES]
PER_CLASS_CASES += [("varying", nx, ny, 6, 0.8) for nx, ny in ((4, 2), (3, 5))]


@pytest.mark.parametrize("alignment, nx, ny, p, band", PER_CLASS_CASES,
                         ids=[f"{getattr(c[0], 'value', c[0])}-{c[1]}x{c[2]}-p{c[3]}"
                              for c in PER_CLASS_CASES])
def test_bloch_band_matches_the_per_class_full_eigh(alignment, nx, ny, p, band):
    """The by-value class solves against every eigenpair of each class
    block: the same count in each class, and eigenvalues within ``1e-10
    max(|lambda|, lambda_max)``; the pencils with a ``k``-dependent,
    non-diagonal mass symbol included."""
    if alignment == "varying":
        a, m = varying_mass_pencil(nx, ny, p, seed=nx * ny)
        band *= float(np.median(bloch_eig(a, m).eigenvalues))
    else:
        a, m = constant_pencil(alignment, nx, ny, p)
    sol = bloch_eig(a, m, BandRequest(lambda_max=band))
    ks, want = per_class_band(a, m, band)
    assert sol.inertia_count == len(sol) == len(want) > 0
    order = np.lexsort((sol.eigenvalues, sol.wavevectors))
    assert np.array_equal(sol.wavevectors[order], ks)
    got = sol.eigenvalues[order]
    assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(np.abs(want), band))


def test_bloch_band_of_no_class_or_of_every_class_matches_the_reference():
    """Every eigenvalue of the pencil ``(M, M)`` is 1: below the edge no
    class holds a band pair and the band is empty; above it every class
    does."""
    _, m = make_small_system(2, 3, 1)
    for band, count in ((0.5, 0), (2.0, m.n)):
        sol = assert_bloch_band_matches_the_reference(m, m, band)
        assert len(sol) == sol.inertia_count == count


def spy_symbols(monkeypatch):
    """Record ``(stencil, len(ks))`` of each ``Stencil.symbols`` call."""
    calls, symbols = [], Stencil.symbols

    def spy(self, ks=None):
        calls.append((self, len(ks)))
        return symbols(self, ks)

    monkeypatch.setattr(Stencil, "symbols", spy)
    return calls


def test_bloch_band_solves_only_the_classes_that_hold_band_pairs(monkeypatch):
    """``ref_band``'s pencil (8x8 p4, band edge 0.2) has 34 wavevector
    classes.  The band solve factors each class's shifted block once (34
    Bunch-Kaufman factorizations), hands ``_pencil_band`` the 7 whose block
    holds an eigenvalue below the edge, and forms the cell-local mass
    symbol once; the full spectrum hands ``_pencil_eigh`` all 34."""
    a, m = constant_pencil(Alignment.BOTTOM_TOP, 8, 8, 4)
    pencil = eigensolve._LatticePencil(a, m)
    reps = np.flatnonzero(pencil.conj >= np.arange(len(pencil.conj)))
    holding = [k for k in reps if sla.eigh(
        *pencil.symbols(k), eigvals_only=True)[0] <= 0.2]
    rows, factors = [], []
    pencil_band, pencil_eigh = eigensolve._pencil_band, eigensolve._pencil_eigh
    ldl_routines = eigensolve._ldl_routines

    def band_spy(a_k, m_k, lambda_max):
        rows.append(1)
        return pencil_band(a_k, m_k, lambda_max)

    def full_spy(a_k, m_k):
        rows.append(len(a_k))
        return pencil_eigh(a_k, m_k)

    def routines_spy(k):
        kind, trf, trs, lwork = ldl_routines(k)

        def trf_spy(*args, **kwargs):
            factors.append(kind)
            return trf(*args, **kwargs)
        return kind, trf_spy, trs, lwork

    monkeypatch.setattr(eigensolve, "_pencil_band", band_spy)
    monkeypatch.setattr(eigensolve, "_pencil_eigh", full_spy)
    monkeypatch.setattr(eigensolve, "_ldl_routines", routines_spy)
    symbols = spy_symbols(monkeypatch)
    sol = bloch_eig(a, m, BandRequest(lambda_max=0.2))
    assert (len(reps), len(holding)) == (34, 7)
    assert sum(rows) == len(holding) == len(np.unique(sol.wavevectors))
    assert len(factors) == len(reps)
    assert factors.count("sy") == len(pencil.real)
    assert [n for s, n in symbols if s is m] == [1]
    assert [n for s, n in symbols if s is a] == [34]
    rows.clear()
    full = bloch_eig(a, m)
    assert sum(rows) == len(reps) == len(np.unique(full.wavevectors))


def test_bloch_band_short_of_a_block_inertia_is_incomplete(monkeypatch):
    """A block solve that loses an eigenpair leaves its class short of its
    inertia count, which raises."""
    a, m = make_small_system(2, 2, 2)
    pencil = eigensolve._LatticePencil(a, m)
    neg = int(np.sum(sla.eigh(*(s.real for s in pencil.symbols(0)),
                              eigvals_only=True) <= 0.4))
    pencil_band = eigensolve._pencil_band

    def drop_lowest(a_k, m_k, lambda_max):
        w, v = pencil_band(a_k, m_k, lambda_max)
        return w[1:], v[:, 1:]

    monkeypatch.setattr(eigensolve, "_pencil_band", drop_lowest)
    message = (f"found {neg - 1} eigenvalues <= 0.4 in the block of wavevector "
               f"(0, 0) but its inertia count demands {neg}")
    with pytest.raises(CompletenessError, match=re.escape(message)):
        bloch_eig(a, m, BandRequest(lambda_max=0.4))


@pytest.mark.parametrize("extra", [-1, 1], ids=["one-fewer", "one-more"])
def test_bloch_band_class_solve_off_by_one_pair_is_incomplete(monkeypatch, extra):
    """A class solve that returns one pair fewer (its top band pair lost) or
    one pair more (the first pair above the edge) than its block's inertia
    count raises."""
    a, m = make_small_system(2, 2, 2)
    pencil = eigensolve._LatticePencil(a, m)
    neg = int(np.sum(sla.eigh(*(s.real for s in pencil.symbols(0)),
                              eigvals_only=True) <= 0.4))

    def off_by_one(a_k, m_k, lambda_max):
        w, v = sla.eigh(a_k, m_k)
        count = int(np.sum(w <= lambda_max)) + extra
        return w[:count], v[:, :count]

    monkeypatch.setattr(eigensolve, "_pencil_band", off_by_one)
    message = (f"found {neg + extra} eigenvalues <= 0.4 in the block of wavevector "
               f"(0, 0) but its inertia count demands {neg}")
    with pytest.raises(CompletenessError, match=re.escape(message)):
        bloch_eig(a, m, BandRequest(lambda_max=0.4))


#: ``(alignment, nx, ny, p, lambda_max, kinds)``: the 1x1 and 2x2 lattices
#: hold only self-conjugate classes, the cartesian 3x2 both kinds, and the
#: last is the benchmark's ``ref_band`` solve.
COEFFICIENT_CASES = [(alignment, n, n, 2, 1.0, {"real"})
                     for alignment in Alignment for n in (1, 2)]
COEFFICIENT_CASES += [(Alignment.CARTESIAN, 3, 2, 3, 1.0, {"real", "pair"}),
                      (Alignment.BOTTOM_TOP, 8, 8, 4, 0.2, {"real", "pair"})]


def lattice_dft(x, wavevectors, nx, ny, n_loc):
    """Row ``j``: ``sum_c exp(2 pi i (p c_x / nx + q c_y / ny)) x[c, j]``, the
    DFT of column ``j`` over the cells ``c`` at its wavevector ``(p, q)``."""
    p, q = np.divmod(wavevectors, ny)
    phase = np.exp(2j * np.pi * (np.multiply.outer(p, np.arange(nx))[:, :, None] / nx
                                 + np.multiply.outer(q, np.arange(ny))[:, None, :] / ny))
    return np.einsum("cij,cijk->ck", phase, x.T.reshape(-1, nx, ny, n_loc))


@pytest.mark.parametrize("band", [True, False], ids=["band", "full"])
@pytest.mark.parametrize("alignment, nx, ny, p, edge, kinds", COEFFICIENT_CASES,
                         ids=[f"{c[0].value}-{c[1]}x{c[2]}-p{c[3]}"
                              for c in COEFFICIENT_CASES])
def test_bloch_coefficients_are_the_lattice_dft_of_the_columns(alignment, nx, ny, p,
                                                               edge, kinds, band):
    """The coefficients that ``bloch_eig`` reads off the block vectors are the
    lattice DFTs of the formed columns at their own wavevectors, to round-off."""
    a, m = constant_pencil(alignment, nx, ny, p)
    sol = bloch_eig(a, m, BandRequest(lambda_max=edge) if band else None)
    conj = eigensolve._Lattice(nx, ny).conj
    assert {"real" if conj[k] == k else "pair" for k in sol.wavevectors} == kinds
    want = lattice_dft(sol.eigenvectors, sol.wavevectors, nx, ny, a.n_loc)
    assert sol.coefficients.shape == want.shape == (len(sol), a.n_loc)
    error = np.linalg.norm(sol.coefficients - want, axis=1)
    assert np.all(error <= 1e-14 * np.linalg.norm(want, axis=1))


def test_band_eig_solutions_carry_no_coefficients():
    """A ``band_eig`` solution, a band or an empty one, holds its eigenvectors
    as an array from the start and no wavevectors or coefficients."""
    a, m = make_small_system(2, 2, 2, alpha=CoefficientField(1.0, (Harmonic(1, 0, 0.2, 0.0),)))
    band = band_eig(a, m, BandRequest(lambda_max=0.4))
    empty = band_eig(np.diag([5.0, 6.0, 7.0]), None, BandRequest(lambda_max=1.0))
    assert (band.method, empty.method) == ("shift-invert", "empty")
    for sol, n in ((band, a.n), (empty, 3)):
        assert sol.wavevectors is None and sol.coefficients is None
        assert isinstance(vars(sol)["eigenvectors"], np.ndarray)
        assert sol.eigenvectors.shape == (n, len(sol))


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(alignment=st.sampled_from(list(Alignment)),
       nx=st.integers(1, 4), ny=st.integers(1, 4),
       p_xi=st.integers(0, 2), p_eta=st.integers(0, 2),
       b=st.sampled_from([REF_B, FieldDirection(1.0, 2.0), FieldDirection(-0.7, 1.3)]),
       seed=st.integers(0, 2**16))
@pinned("alignment, nx, ny, p_xi, p_eta, b, seed", BOUND_DRAWS)
def test_bloch_bounds_enclose_the_extended_residuals(alignment, nx, ny, p_xi, p_eta,
                                                     b, seed):
    """Per wavevector class, for the block's eigenpairs and for random block
    vectors with random ``w``: the bound of each stored real wave is at
    least its residual in extended precision, and the symbol residual (the
    bound less its rounding term) at most that residual plus the rounding
    term.  Lattices 1 or 2 cells wide carry self-conjugate classes."""
    mesh = build_mesh(MeshConfig(nx, ny, alignment, b))
    a, m = build_reduced(assemble_operator_set(
        mesh, BasisSpec(p_xi, p_eta), CoefficientField.constant(1.3),
        MagneticField.uniform(b), 6.0))
    pencil = eigensolve._LatticePencil(a, m)
    rng = np.random.default_rng(seed)
    top = float(np.max(bloch_eig(a, m).eigenvalues))
    for k in np.flatnonzero(pencil.conj >= np.arange(len(pencil.conj))):
        real = pencil.conj[k] == k
        a_k, m_k = pencil.symbols(k)
        if real:
            a_k, m_k = a_k.real, m_k.real
        w, v = eigensolve._pencil_eigh(a_k[None], m_k[None])
        w, v = w[0], v[0]
        v_rand = rng.standard_normal((a.n_loc, 3))
        if not real:
            v_rand = v_rand + 1j * rng.standard_normal((a.n_loc, 3))
        w = np.concatenate([w, rng.uniform(-0.5, 1.5, 3) * top])
        v = np.concatenate([v, v_rand], axis=1)
        mult = 1 if real else 2
        bound = np.repeat(pencil.bounds(int(k), w, v), mult)
        size = np.abs(v)
        rounding = np.repeat(pencil.gamma * np.linalg.norm(
            pencil.a_abs @ size + np.abs(w) * (pencil.m_abs @ size), axis=0), mult)
        measured = extended_residuals(a, m, np.repeat(w, mult),
                                      pencil.real_waves(int(k), v))
        assert np.all(bound >= measured)
        assert np.all(bound - rounding <= measured + rounding)


def varying_mass_pencil(nx, ny, n_loc, seed):
    """A one-cell stencil pencil whose mass symbol ``M(k)`` varies with
    ``k`` and is not diagonal: a dominant SPD block at the cell and small
    couplings to two neighbours, in A and M."""
    rng = np.random.default_rng(seed)
    offsets = np.array([(0, 0), (1, 0), (0, 1)])

    def stencil(diagonal):
        blocks = 0.1 * rng.standard_normal((1, 3, n_loc, n_loc))
        g = rng.standard_normal((n_loc, n_loc))
        blocks[0, 0] = g @ g.T + diagonal * np.eye(n_loc)
        return SymStencil(offsets, blocks, (nx, ny))

    return stencil(5.0), stencil(2.0 * n_loc)


@pytest.mark.parametrize("nx, ny", [(4, 2), (3, 5)])
def test_pencil_eigh_matches_per_class_generalized_eigh(nx, ny):
    """The batched reduction of ``_pencil_eigh`` (one inverse Cholesky
    factor per pencil, applied by products) against LAPACK's generalized
    ``eigh`` class by class, on the real and the pair classes of a pencil
    whose mass symbol depends on ``k`` and is not diagonal: eigenvalues to
    1e-12 relative, eigenvectors M-orthonormal and eigenvectors."""
    a, m = varying_mass_pencil(nx, ny, 6, seed=nx * ny)
    pencil = eigensolve._LatticePencil(a, m)
    assert len(pencil.real) and len(pencil.pair)
    spread = np.ptp(pencil.symbols(pencil.pair)[1], axis=0)
    assert np.max(np.abs(spread)) > 0.1
    for ks, real in ((pencil.real, True), (pencil.pair, False)):
        a_k, m_k = pencil.symbols(ks)
        if real:
            a_k, m_k = a_k.real, m_k.real
        off = m_k - np.einsum("cii->ci", m_k)[:, :, None] * np.eye(m.n_loc)
        assert np.min(np.max(np.abs(off), axis=(1, 2))) > 1e-3
        w, v = eigensolve._pencil_eigh(a_k, m_k)
        for c in range(len(ks)):
            want = sla.eigh(a_k[c], m_k[c], eigvals_only=True)
            assert np.max(np.abs(w[c] - want) / np.abs(want)) <= 1e-12
            gram = v[c].conj().T @ m_k[c] @ v[c]
            assert np.max(np.abs(gram - np.eye(m.n_loc))) <= 1e-12
            resid = a_k[c] @ v[c] - (m_k[c] @ v[c]) * w[c]
            assert np.max(np.abs(resid)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("alignment, nx, ny, p", [
    (Alignment.BOTTOM_TOP, 8, 8, 4), (Alignment.CARTESIAN, 3, 2, 3),
    (Alignment.LEFT_RIGHT, 2, 2, 0)], ids=["8x8-p4", "3x2-p3", "2x2-p0"])
def test_pencil_eigh_of_one_mass_block_is_that_of_its_stack(alignment, nx, ny, p):
    """A cell-local mass symbol is one block for every class: ``_pencil_eigh``
    factors and inverts it once, and its eigenpairs are, bit for bit, those
    of the stack that repeats the block per class."""
    a, m = constant_pencil(alignment, nx, ny, p)
    pencil = eigensolve._LatticePencil(a, m)
    for ks, real in ((pencil.real, True), (pencil.pair, False)):
        a_k, m_k = pencil.symbols(ks)
        if real:
            a_k, m_k = a_k.real, m_k.real
        assert m_k.shape == (a.n_loc, a.n_loc)
        once = eigensolve._pencil_eigh(a_k, m_k)
        stacked = eigensolve._pencil_eigh(a_k, np.repeat(m_k[None], len(ks), axis=0))
        for got, want in zip(once, stacked):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("alignment, nx, ny, p", [
    (Alignment.BOTTOM_TOP, 8, 8, 4), (Alignment.CARTESIAN, 3, 2, 3),
    (Alignment.BOTTOM_TOP, 4, 16, 3)], ids=["8x8-p4", "3x2-p3", "4x16-p3"])
def test_batched_bounds_are_the_per_class_bounds(alignment, nx, ny, p):
    """``bloch_eig`` bounds each group of classes (real, pair) in one batch;
    each class's bounds are, bit for bit, those of its own call."""
    a, m = constant_pencil(alignment, nx, ny, p)
    pencil = eigensolve._LatticePencil(a, m)
    for ks, real in ((pencil.real, True), (pencil.pair, False)):
        a_k, m_k = pencil.symbols(ks)
        if real:
            a_k, m_k = a_k.real, m_k.real
        w, v = eigensolve._pencil_eigh(a_k, m_k)
        batched = pencil.bounds(ks, w, v)
        assert batched.shape == w.shape
        for c, k in enumerate(ks.tolist()):
            assert np.array_equal(batched[c], pencil.bounds(k, w[c], v[c]))


def test_lattice_symbols_are_formed_at_the_class_representatives(monkeypatch):
    """``ref_band``'s 8x8 lattice has 64 wavevectors in 34 classes ``{k,
    -k}``: the symbols of A are formed at the 34 representatives only, equal
    to the all-wavevector symbols there to rounding.  Its M is cell-local,
    so its symbol is formed once, as one block, and that block is, bit for
    bit, ``Stencil.symbols`` at every wavevector.  A mass that couples
    neighbouring cells has its symbols formed at the representatives."""
    a, m = constant_pencil(Alignment.BOTTOM_TOP, 8, 8, 4)
    assert not np.any(m.offsets)
    full_a, full_m = a.symbols(), m.symbols()
    coupled = varying_mass_pencil(3, 5, 6, seed=15)
    full_coupled = [s.symbols() for s in coupled]
    calls = spy_symbols(monkeypatch)
    pencil = eigensolve._LatticePencil(a, m)
    reps = np.concatenate([pencil.real, pencil.pair])
    assert [n for _, n in calls] == [34, 1] and len(reps) == 34
    assert np.array_equal(pencil.reps, reps)
    assert np.array_equal(pencil.row[reps], np.arange(34))
    got_a, got_m = pencil.symbols(reps)
    assert np.max(np.abs(got_a - full_a[reps])) <= 1e-14 * np.max(np.abs(full_a))
    assert got_m.shape == (a.n_loc, a.n_loc)
    for k in range(64):
        assert full_m[k].tobytes() == got_m.tobytes()

    calls.clear()
    pencil = eigensolve._LatticePencil(*coupled)
    assert [n for _, n in calls] == [8, 8]
    for got, want in zip(pencil.symbols(pencil.reps), full_coupled):
        assert np.max(np.abs(got - want[pencil.reps])) <= 1e-14 * np.max(np.abs(want))


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


# --- the lattice LDL^T of stencil pencils -----------------------------------

#: Criterion 8's coefficients: 1 + 0.2 cos(x) cos(y) and 1 + 0.1 cos(y).
STELLARATOR_ALPHA = CoefficientField(1.0, (Harmonic(1, 1, 0.1, 0.0),
                                           Harmonic(1, -1, 0.1, 0.0)))
STELLARATOR_BETA = CoefficientField(1.0, (Harmonic(0, 1, 0.1, 0.0),))


def flux_surface_system(nx, ny, p, s=0.5, alignment=Alignment.BOTTOM_TOP):
    b = iota_profile(s)
    mesh = build_mesh(MeshConfig(nx, ny, alignment, b))
    return build_reduced(assemble_operator_set(
        mesh, BasisSpec(p, p), STELLARATOR_ALPHA,
        MagneticField(b, STELLARATOR_BETA), 6.0))


def cheapest_blocking(a, m, shift):
    k = eigensolve._Shifted(a, m, shift)
    return min(eigensolve._blockings(k), key=lambda blocks: blocks.flops)


def backward_error(k, z, r):
    """``||r - K z|| / (||K|| ||z|| + ||r||)`` in the infinity norms."""
    norm_k = np.max(np.abs(k).sum(axis=1))
    return np.max(np.abs(r - k @ z)) / (norm_k * np.max(np.abs(z)) + np.max(np.abs(r)))


def assert_same_pivots(ldl, pivots, inertia):
    """``ldl``'s pivots equal ``pivots`` bit for bit, block by block, and its
    inertia ``inertia``."""
    assert len(ldl.factors) == len(pivots)
    for factor, want in zip(ldl.factors, pivots):
        assert np.array_equal(factor.pivots, want)
    assert ldl.inertia == inertia


def reachable_arrays(root) -> list[np.ndarray]:
    """The arrays reachable from ``root`` through the attributes of the
    library's objects, lists and tuples, each followed to the array that owns
    its memory."""
    seen, owners, todo = set(), {}, [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            owners[id(obj)] = obj
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif sp.issparse(obj):
            todo.extend((obj.data, obj.indices, obj.indptr))
        elif type(obj).__module__.startswith("anisodg"):
            todo.extend(vars(obj).values())
    return list(owners.values())


def stored_bytes(ldl) -> int:
    """The bytes of the lattice factor's packed triangles, each of which must
    own its memory."""
    matrices = [f.packed for f in ldl.factors]
    assert all(x.base is None for x in matrices)
    return sum(x.nbytes for x in matrices)


def couplings(ldl) -> list[tuple[int, int, sp.csr_matrix]]:
    """The lattice factor's CSR couplings as ``(row block, column block,
    matrix)``: ``E_j = K[j, j+1]`` along the chain, then the border's.  The
    transpose kept beside each is a view of its arrays."""
    border = len(ldl.factors) - 1
    for coupling, transpose in ldl.chain + [edge[1:] for edge in ldl.edges]:
        assert all(np.shares_memory(getattr(transpose, x), getattr(coupling, x))
                   for x in ("data", "indices", "indptr"))
    return ([(j, j + 1, e) for j, (e, _) in enumerate(ldl.chain)]
            + [(j, border, g) for j, g, _ in ldl.edges])


def block_of_cells(blocking) -> np.ndarray:
    """The block of ``blocking`` that holds each lattice cell."""
    pos = np.empty(len(blocking.order), dtype=int)
    pos[blocking.order] = np.arange(len(blocking.order))
    return np.minimum(pos // blocking.sizes[0], len(blocking.sizes) - 1)


def assert_couplings_within_k(ldl, stencil, blocking):
    """Each coupling holds at most the nonzeros of K's stencil blocks on the
    offsets that cross its block boundary: those of the cells of its row
    block whose column cells lie in its column block."""
    block = block_of_cells(blocking)
    cols = stencil.column_cells
    nonzeros = np.broadcast_to(np.count_nonzero(stencil.blocks, axis=(2, 3)), cols.shape)
    for row, col, coupling in couplings(ldl):
        crossing = (block[:, None] == row) & (block[cols] == col)
        assert coupling.nnz <= int(np.sum(nonzeros[crossing]))


def assert_couplings_are_k(ldl, dense, blocking):
    """Each coupling is K's original block, before any Schur update: the
    rows of its row block and the columns of its column block of the dense
    ``K``, in the blocking's order."""
    n_loc = len(dense) // len(blocking.order)
    dofs = (blocking.order[:, None] * n_loc + np.arange(n_loc)).ravel()
    ends = np.cumsum((0,) + blocking.sizes) * n_loc
    ordered = dense[np.ix_(dofs, dofs)]
    for row, col, coupling in couplings(ldl):
        want = ordered[ends[row]:ends[row + 1], ends[col]:ends[col + 1]]
        assert np.array_equal(coupling.toarray(), want)


def test_lattice_layouts_of_the_benchmark_meshes():
    """58x16 p2 (``variable_sparse``) takes rows of constant i, two to a
    block of 288 unknowns; criterion 8's coarse 8x32 p4 rows sheared by 4,
    two to a block; the 4x8 p3 flux surfaces of ``flux_sweep`` one block.
    The lattice layouts' entries are their packed pivot blocks only."""
    a, m = flux_surface_system(58, 16, 2)
    blocking = cheapest_blocking(a, m, 0.27)
    assert np.array_equal(blocking.order, np.arange(58 * 16))
    assert blocking.sizes == (32,) * 29
    assert blocking.sizes[0] * a.n_loc == 288
    assert blocking.entries == 29 * (288 * 289 // 2) == 1_206_864

    a, m = flux_surface_system(8, 32, 4)
    blocking = cheapest_blocking(a, m, 0.27)
    assert blocking.sizes == (16,) * 16
    assert blocking.entries == 16 * (400 * 401 // 2) == 1_283_200
    i, j = np.divmod(blocking.order.reshape(32, 8), 32)
    label = (j - 4 * i) % 32  # one row of 8 cells per label, in label order
    assert np.all(label == np.arange(32)[:, None])
    assert np.all(i == np.arange(8))

    for s in (0.05, 0.5, 0.95):
        a, m = flux_surface_system(4, 8, 3, s, choose_alignment(iota_profile(s)))
        assert cheapest_blocking(a, m, 0.27).sizes == (32,)


def test_one_block_factors_the_dense_k_of_the_csr():
    """The one-block layout factors the same K, bit for bit, that the dense
    path forms from the CSR matrices: ``A`` densified, ``shift * M``
    subtracted at M's stored entries."""
    a, m = flux_surface_system(4, 8, 3, 0.3, choose_alignment(iota_profile(0.3)))
    k = a.expand().toarray()
    mass = m.expand().tocoo()
    np.subtract.at(k, (mass.row, mass.col), 0.27 * mass.data)
    blocking = cheapest_blocking(a, m, 0.27)
    assert blocking.sizes == (a.n_cells,)
    assert np.array_equal(eigensolve._Shifted(a, m, 0.27).block_row(blocking, 0)[0], k)
    assert np.array_equal(shifted_stencil(a, m, 0.27).to_dense(), k)
    inertia, factor = shifted_inertia(a, m, 0.27)
    assert factor.kind == "dense" and factor.entries == a.n**2
    assert inertia == ldl_inertia(k)


#: Fixed coverage for the property test below (``pinning.py``): the cases
#: its derandomized draws reached before the Bloch solutions kept their
#: eigenpairs in block form.
LATTICE_LDL_DRAWS = [
    (Alignment.CARTESIAN, 1, 1, 0, FieldDirection(1.165939761, 1.0),
     Harmonic(0, 0, 0.0, 0.0), Harmonic(0, 0, 0.0, 0.0), 0.05, 0, 0, 0),
    (Alignment.LEFT_RIGHT, 1, 1, 0, FieldDirection(1.165939761, 1.0),
     Harmonic(0, 0, 0.0, 0.0), Harmonic(0, 0, 0.0, 0.0), 0.05, 0, 0, 0),
    (Alignment.LEFT_RIGHT, 1, 2, 1, FieldDirection(1.0, 2.0),
     Harmonic(2, -2, 0.0, 0.019680720962716614),
     Harmonic(-2, -2, 0.23595890830863658, 0.1252812432056728), 0.5416939605222694, 0, 7,
     1),
    (Alignment.CARTESIAN, 9, 1, 0, FieldDirection(1.165939761, 1.0),
     Harmonic(0, 0, 0.0, 0.0), Harmonic(0, 0, 0.0, 0.0), 0.05, 0, 0, 0),
    (Alignment.CARTESIAN, 9, 4, 0, FieldDirection(1.0, 2.0),
     Harmonic(1, 2, -0.19351569120996026, 0.14364203528234304),
     Harmonic(1, 2, -4.656285812690325e-263, -4.978873144916054e-242), 2.0, 1, 8, 0),
    (Alignment.CARTESIAN, 6, 1, 0, FieldDirection(1.165939761, 1.0),
     Harmonic(0, 0, 0.0, 0.0), Harmonic(0, 0, 0.0, 0.0), 0.05, 0, 0, 0),
    (Alignment.CARTESIAN, 6, 1, 1, FieldDirection(1.0, 2.0),
     Harmonic(-1, 1, 0.04106728935609438, -0.16826024704288103),
     Harmonic(-1, 0, -0.03698623799184064, 2.2250738585072014e-308), 1.4998117171463181,
     0, 7, 1),
    (Alignment.CARTESIAN, 9, 2, 0, FieldDirection(1.165939761, 1.0),
     Harmonic(1, 2, -0.12484902850214225, -0.013162977431782796),
     Harmonic(1, 1, 1e-14, 8.341645474609465e-247), 0.3695618049409397, 0, 5, 1),
    (Alignment.CARTESIAN, 4, 3, 0, FieldDirection(1.165939761, 1.0),
     Harmonic(0, -1, 2.0476447467173835e-221, 0.2908558485644092),
     Harmonic(0, 0, 0.21446148280795602, 5.0708084198796855e-236), 2.808125859344809, 0,
     7, 1),
    (Alignment.LEFT_RIGHT, 4, 9, 1, FieldDirection(1.0, 2.0),
     Harmonic(-2, 2, 0.03488471640316115, -0.1500298738510081),
     Harmonic(-2, 2, 0.2343638752215818, 0.24629611418410685), 0.32742947316244003, 1, 2,
     0),
    (Alignment.CARTESIAN, 1, 3, 0, FieldDirection(-0.7, 1.3),
     Harmonic(-2, 0, -1.1754943508222875e-38, -1.1276371419663987e-38),
     Harmonic(0, -1, 0.2, -0.20230774921580513), 0.648416617177742, 1, 7, 0),
    (Alignment.CARTESIAN, 1, 3, 0, FieldDirection(-0.7, 1.3),
     Harmonic(-2, 0, -1.1754943508222875e-38, -1.1276371419663987e-38),
     Harmonic(0, -1, 0.2, -1.1276371419663987e-38), 0.648416617177742, 1, 7, 0),
    (Alignment.CARTESIAN, 1, 3, 0, FieldDirection(-0.7, 1.3),
     Harmonic(-2, 0, -1.1754943508222875e-38, 0.0),
     Harmonic(0, -1, 0.2, -1.1276371419663987e-38), 0.648416617177742, 1, 7, 0),
    (Alignment.CARTESIAN, 1, 3, 0, FieldDirection(-0.7, 1.3),
     Harmonic(0, 0, -1.1754943508222875e-38, 0.0),
     Harmonic(0, -1, 0.2, -1.1276371419663987e-38), 0.648416617177742, 1, 7, 0),
    (Alignment.CARTESIAN, 1, 3, 0, FieldDirection(-0.7, 1.3),
     Harmonic(0, -1, 0.2, -1.1276371419663987e-38),
     Harmonic(0, -1, 0.2, -1.1276371419663987e-38), 0.648416617177742, 1, 7, 0),
    (Alignment.CARTESIAN, 1, 3, 0, FieldDirection(-0.7, 1.3),
     Harmonic(0, -1, 0.2, -1.1276371419663987e-38),
     Harmonic(0, -1, 0.2, -1.1276371419663987e-38), 0.2, 1, 7, 0),
    (Alignment.CARTESIAN, 1, 3, 0, FieldDirection(-0.7, 1.3),
     Harmonic(0, -1, -1.1276371419663987e-38, -1.1276371419663987e-38),
     Harmonic(0, -1, 0.2, -1.1276371419663987e-38), 0.2, 1, 7, 0),
    (Alignment.BOTTOM_TOP, 3, 4, 0, FieldDirection(1.0, 2.0),
     Harmonic(-1, 2, 0.024086682779869972, -0.12101519959666432),
     Harmonic(2, -2, 0.1478705330995354, -0.2788760983031719), 0.28471106839052335, 1, 4,
     0),
    (Alignment.BOTTOM_TOP, 3, 4, 0, FieldDirection(1.0, 2.0),
     Harmonic(-1, 2, 0.024086682779869972, -0.12101519959666432),
     Harmonic(2, -2, 0.1478705330995354, 0.28471106839052335), 0.28471106839052335, 1, 4,
     0),
    (Alignment.BOTTOM_TOP, 3, 2, 0, FieldDirection(1.0, 2.0),
     Harmonic(-1, 2, 0.024086682779869972, -0.12101519959666432),
     Harmonic(2, -2, 0.1478705330995354, 0.28471106839052335), 0.28471106839052335, 1, 4,
     0),
    (Alignment.BOTTOM_TOP, 3, 2, 0, FieldDirection(1.0, 2.0),
     Harmonic(-1, 2, 0.024086682779869972, -0.12101519959666432),
     Harmonic(-1, 2, 0.024086682779869972, -0.12101519959666432), 0.28471106839052335, 1,
     4, 0),
    (Alignment.BOTTOM_TOP, 3, 2, 0, FieldDirection(1.0, 2.0),
     Harmonic(-1, 2, 0.024086682779869972, -0.12101519959666432),
     Harmonic(-1, 2, 0.024086682779869972, -0.12101519959666432), 0.28471106839052335, 0,
     4, 0),
    (Alignment.BOTTOM_TOP, 3, 2, 0, FieldDirection(1.0, 2.0),
     Harmonic(-1, 2, 0.024086682779869972, -0.12101519959666432),
     Harmonic(-1, 2, 0.024086682779869972, 0.024086682779869972), 0.28471106839052335, 0,
     4, 0),
    (Alignment.BOTTOM_TOP, 3, 1, 0, FieldDirection(1.0, 2.0),
     Harmonic(-1, 2, 0.024086682779869972, -0.12101519959666432),
     Harmonic(-1, 2, 0.024086682779869972, 0.024086682779869972), 0.28471106839052335, 0,
     4, 0),
    (Alignment.CARTESIAN, 3, 1, 0, FieldDirection(1.165939761, 1.0),
     Harmonic(0, -1, -0.0185441877123938, 0.028264435345118244),
     Harmonic(0, 2, 0.08656832693502592, -9.365846302533835e-207), 1.4820050095594168, 0,
     0, 1),
    (Alignment.CARTESIAN, 3, 1, 0, FieldDirection(1.165939761, 1.0),
     Harmonic(0, -1, -0.0185441877123938, 0.028264435345118244),
     Harmonic(0, -1, -0.0185441877123938, 0.028264435345118244), 1.4820050095594168, 0, 0,
     1),
    (Alignment.CARTESIAN, 3, 1, 0, FieldDirection(1.165939761, 1.0),
     Harmonic(0, -1, -0.0185441877123938, 0.028264435345118244),
     Harmonic(0, -1, 0.0, 0.028264435345118244), 1.4820050095594168, 0, 0, 1),
    (Alignment.CARTESIAN, 3, 1, 0, FieldDirection(1.165939761, 1.0),
     Harmonic(0, -1, 0.0, 0.028264435345118244),
     Harmonic(0, -1, 0.0, 0.028264435345118244), 1.4820050095594168, 0, 0, 1),
    (Alignment.CARTESIAN, 3, 1, 0, FieldDirection(1.165939761, 1.0),
     Harmonic(0, -1, 0.0, 0.028264435345118244),
     Harmonic(0, 0, 0.0, 0.028264435345118244), 1.4820050095594168, 0, 0, 1),
    (Alignment.CARTESIAN, 3, 1, 0, FieldDirection(1.165939761, 1.0),
     Harmonic(0, 0, 0.0, 0.028264435345118244), Harmonic(0, 0, 0.0, 0.028264435345118244),
     1.4820050095594168, 0, 0, 1),
    (Alignment.BOTTOM_TOP, 6, 7, 1, FieldDirection(1.165939761, 1.0),
     Harmonic(-2, 2, -0.18517690400697573, 0.17247219513668455),
     Harmonic(-1, -2, 0.2599404757602148, 5.960464477539063e-08), 1.3490723307566648, 0,
     1, 0),
    (Alignment.BOTTOM_TOP, 6, 7, 1, FieldDirection(1.165939761, 1.0),
     Harmonic(-2, 2, -0.18517690400697573, 0.17247219513668455),
     Harmonic(-1, -2, 0.2599404757602148, 0.0), 1.3490723307566648, 0, 1, 0),
    (Alignment.BOTTOM_TOP, 6, 7, 1, FieldDirection(1.165939761, 1.0),
     Harmonic(-1, -2, 0.2599404757602148, 0.0), Harmonic(-1, -2, 0.2599404757602148, 0.0),
     1.3490723307566648, 0, 1, 0),
    (Alignment.BOTTOM_TOP, 6, 1, 1, FieldDirection(1.165939761, 1.0),
     Harmonic(-1, -2, 0.2599404757602148, 0.0), Harmonic(-1, -2, 0.2599404757602148, 0.0),
     1.3490723307566648, 0, 1, 0),
    (Alignment.BOTTOM_TOP, 1, 1, 1, FieldDirection(1.165939761, 1.0),
     Harmonic(-1, -2, 0.2599404757602148, 0.0), Harmonic(-1, -2, 0.2599404757602148, 0.0),
     1.3490723307566648, 0, 1, 0),
    (Alignment.BOTTOM_TOP, 1, 1, 1, FieldDirection(1.165939761, 1.0),
     Harmonic(-1, -2, 0.0, 0.0), Harmonic(-1, -2, 0.2599404757602148, 0.0),
     1.3490723307566648, 0, 1, 0),
    (Alignment.BOTTOM_TOP, 1, 1, 1, FieldDirection(1.165939761, 1.0),
     Harmonic(-1, -2, 0.0, 0.0), Harmonic(-1, -2, 0.2599404757602148, 0.0), 0.05, 0, 1,
     0),
    (Alignment.BOTTOM_TOP, 7, 7, 1, FieldDirection(-0.7, 1.3),
     Harmonic(0, -1, -2.9565594715312377e-120, -3.472452768114048e-216),
     Harmonic(-2, 1, -0.2416207243751215, 0.013051392340316659), 0.4503311491951535, 1, 6,
     1),
    (Alignment.BOTTOM_TOP, 7, 7, 1, FieldDirection(-0.7, 1.3),
     Harmonic(-2, 1, -0.2416207243751215, 0.013051392340316659),
     Harmonic(-2, 1, -0.2416207243751215, 0.013051392340316659), 0.4503311491951535, 1, 6,
     1),
    (Alignment.BOTTOM_TOP, 7, 7, 1, FieldDirection(-0.7, 1.3),
     Harmonic(-2, 1, -0.2416207243751215, 0.013051392340316659),
     Harmonic(-2, 1, -0.2416207243751215, 0.013051392340316659), 0.4503311491951535, 1, 6,
     0),
    (Alignment.BOTTOM_TOP, 7, 7, 0, FieldDirection(-0.7, 1.3),
     Harmonic(-2, 1, -0.2416207243751215, 0.013051392340316659),
     Harmonic(-2, 1, -0.2416207243751215, 0.013051392340316659), 0.4503311491951535, 1, 6,
     0),
    (Alignment.BOTTOM_TOP, 7, 7, 0, FieldDirection(-0.7, 1.3),
     Harmonic(-2, 1, 0.013051392340316659, 0.013051392340316659),
     Harmonic(-2, 1, -0.2416207243751215, 0.013051392340316659), 0.4503311491951535, 1, 6,
     0),
    (Alignment.BOTTOM_TOP, 7, 7, 0, FieldDirection(-0.7, 1.3),
     Harmonic(-2, 1, 0.013051392340316659, 0.013051392340316659),
     Harmonic(-2, 1, 0.013051392340316659, 0.013051392340316659), 0.4503311491951535, 1,
     6, 0),
    (Alignment.BOTTOM_TOP, 7, 7, 0, FieldDirection(-0.7, 1.3),
     Harmonic(-2, 1, 0.013051392340316659, 0.013051392340316659),
     Harmonic(-2, 1, 0.013051392340316659, 0.013051392340316659), 0.05, 1, 6, 0),
    (Alignment.LEFT_RIGHT, 5, 6, 1, FieldDirection(1.0, 2.0),
     Harmonic(0, 2, -1.6229435392496687e-165, -0.29999999999999993),
     Harmonic(-2, 0, 1e-09, -0.25646048786840897), 1.9, 0, 2, 0),
    (Alignment.LEFT_RIGHT, 5, 6, 1, FieldDirection(1.0, 2.0),
     Harmonic(0, 2, -1.6229435392496687e-165, -0.29999999999999993),
     Harmonic(-2, 0, 1e-09, -0.25646048786840897), 1.9, 0, 6, 0),
    (Alignment.LEFT_RIGHT, 5, 6, 1, FieldDirection(1.0, 2.0),
     Harmonic(0, 2, -1.6229435392496687e-165, -0.29999999999999993),
     Harmonic(0, 0, 1e-09, -0.25646048786840897), 1.9, 0, 6, 0),
    (Alignment.LEFT_RIGHT, 5, 6, 1, FieldDirection(1.0, 2.0),
     Harmonic(0, 2, -1.6229435392496687e-165, -0.29999999999999993),
     Harmonic(0, 0, 1e-09, -0.25646048786840897), 1.9, 0, 6, 1),
    (Alignment.LEFT_RIGHT, 5, 6, 1, FieldDirection(1.0, 2.0),
     Harmonic(0, 2, -1.6229435392496687e-165, -0.29999999999999993),
     Harmonic(0, 1, 1e-09, -0.25646048786840897), 1.9, 0, 6, 1),
    (Alignment.LEFT_RIGHT, 5, 6, 1, FieldDirection(1.0, 2.0),
     Harmonic(0, 2, -1.6229435392496687e-165, 0.0),
     Harmonic(0, 0, 1e-09, -0.25646048786840897), 1.9, 0, 6, 1),
    (Alignment.LEFT_RIGHT, 5, 6, 1, FieldDirection(1.0, 2.0),
     Harmonic(0, 2, -1.6229435392496687e-165, 0.0),
     Harmonic(0, 0, 1e-09, -0.25646048786840897), 1.9, 0, 1, 1),
    (Alignment.BOTTOM_TOP, 3, 3, 0, FieldDirection(1.165939761, 1.0),
     Harmonic(2, 2, -9.602460273503815e-273, 0.09814917430830417),
     Harmonic(-1, -1, 0.14016746953723058, -0.2722687604691145), 1.4053122240343312, 1, 3,
     1),
    (Alignment.BOTTOM_TOP, 3, 3, 0, FieldDirection(1.165939761, 1.0),
     Harmonic(2, 2, -9.602460273503815e-273, 0.09814917430830417),
     Harmonic(-1, -1, 0.14016746953723058, 0.0), 1.4053122240343312, 1, 3, 1),
    (Alignment.BOTTOM_TOP, 3, 3, 0, FieldDirection(1.165939761, 1.0),
     Harmonic(2, 2, -9.602460273503815e-273, 0.09814917430830417),
     Harmonic(2, 2, -9.602460273503815e-273, 0.09814917430830417), 1.4053122240343312, 1,
     3, 1),
    (Alignment.BOTTOM_TOP, 3, 3, 0, FieldDirection(1.165939761, 1.0),
     Harmonic(2, 2, -9.602460273503815e-273, -9.602460273503815e-273),
     Harmonic(2, 2, -9.602460273503815e-273, 0.09814917430830417), 1.4053122240343312, 1,
     3, 1),
    (Alignment.BOTTOM_TOP, 3, 3, 0, FieldDirection(1.165939761, 1.0),
     Harmonic(2, 2, -9.602460273503815e-273, -9.602460273503815e-273),
     Harmonic(2, 2, -9.602460273503815e-273, 0.09814917430830417), 0.05, 1, 3, 1),
    (Alignment.BOTTOM_TOP, 3, 3, 0, FieldDirection(1.165939761, 1.0),
     Harmonic(2, 2, -9.602460273503815e-273, -9.602460273503815e-273),
     Harmonic(2, 2, 0.09814917430830417, 0.09814917430830417), 0.05, 1, 3, 1),
    (Alignment.BOTTOM_TOP, 3, 3, 0, FieldDirection(1.165939761, 1.0),
     Harmonic(2, 2, -9.602460273503815e-273, -9.602460273503815e-273),
     Harmonic(2, 2, 0.09814917430830417, 0.05), 0.05, 1, 3, 1),
    (Alignment.CARTESIAN, 3, 6, 0, FieldDirection(-0.7, 1.3),
     Harmonic(2, -2, -0.10790440109139593, 0.20674218128628824),
     Harmonic(1, 0, -0.14484895069231013, 4.8271320294195355e-60), 0.93972, 1, 0, 1),
    (Alignment.CARTESIAN, 3, 6, 0, FieldDirection(-0.7, 1.3),
     Harmonic(1, 0, -0.14484895069231013, 4.8271320294195355e-60),
     Harmonic(1, 0, -0.14484895069231013, 4.8271320294195355e-60), 0.93972, 1, 0, 1),
]


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(alignment=st.sampled_from(list(Alignment)),
       nx=st.integers(1, 9), ny=st.integers(1, 9), p=st.integers(0, 1),
       b=st.sampled_from([REF_B, FieldDirection(1.0, 2.0), FieldDirection(-0.7, 1.3)]),
       alpha=HARMONICS, beta=HARMONICS, shift=st.floats(0.05, 3.0),
       axis=st.integers(0, 1), shear=st.integers(0, 8), extra=st.integers(0, 1))
@pinned("alignment, nx, ny, p, b, alpha, beta, shift, axis, shear, extra", LATTICE_LDL_DRAWS)
# three blocks, the last with a remainder row; two blocks; one block
@example(alignment=Alignment.BOTTOM_TOP, nx=7, ny=2, p=1, b=REF_B,
         alpha=Harmonic(1, 1, 0.2, 0.1), beta=Harmonic(0, 1, 0.1, 0.0),
         shift=0.7, axis=0, shear=0, extra=0)
@example(alignment=Alignment.LEFT_RIGHT, nx=2, ny=6, p=1, b=FieldDirection(1.0, 2.0),
         alpha=Harmonic(1, -1, 0.2, 0.0), beta=Harmonic(1, 0, 0.0, 0.1),
         shift=1.3, axis=1, shear=0, extra=1)
@example(alignment=Alignment.CARTESIAN, nx=3, ny=3, p=2, b=REF_B,
         alpha=Harmonic(0, 1, 0.1, 0.2), beta=Harmonic(1, 1, 0.1, 0.0),
         shift=0.4, axis=0, shear=0, extra=4)
@example(alignment=Alignment.LEFT_RIGHT, nx=2, ny=7, p=1, b=FieldDirection(1.0, 2.0),
         alpha=Harmonic(1, 1, 0.2, 0.1), beta=Harmonic(0, 1, 0.1, 0.0),
         shift=0.9, axis=1, shear=0, extra=0)
# rows sheared by 2 on a 2x4 lattice: (j - 2 i) mod 4
@example(alignment=Alignment.BOTTOM_TOP, nx=2, ny=4, p=2, b=REF_B,
         alpha=Harmonic(1, 1, 0.2, 0.1), beta=Harmonic(0, 1, 0.1, 0.0),
         shift=0.5, axis=1, shear=1, extra=0)
def test_lattice_ldl_against_dense_inertia(alignment, nx, ny, p, b, alpha, beta,
                                           shift, axis, shear, extra):
    """Every row layout, on both axes and every admissible shear, with
    ``extra`` more rows to a block than the stencil's reach: the lattice
    LDL^T has the Bunch-Kaufman inertia of the expanded K, and the pivots,
    bit for bit, of the elimination on every block scattered at once from
    a formed K stencil (``lattice_ldl_reference``); its packed triangles
    take its ``entries`` (of more than one block), its couplings are K's
    own blocks, and its solve inverts K to a backward error of 1e-10."""
    mesh = build_mesh(MeshConfig(nx, ny, alignment, b))
    ops = assemble_operator_set(mesh, BasisSpec(p, p), CoefficientField(1.0, (alpha,)),
                                MagneticField(b, CoefficientField(1.0, (beta,))), 6.0)
    a, m = build_reduced(ops)
    k = eigensolve._Shifted(a, m, shift)
    n_u, n_v = k.lattice[axis], k.lattice[1 - axis]
    shears = [s for s in range(n_u) if s * n_v % n_u == 0]
    shear = shears[shear % len(shears)]
    du, dv = k.offsets[:, axis], k.offsets[:, 1 - axis]
    crossed = eigensolve._centered(du - shear * dv, n_u)
    rows = min(max(int(np.max(np.abs(crossed))), 1) + extra, n_u)
    blocking = eigensolve._row_blocking(k, axis, shear, rows)
    assert sorted(blocking.order) == list(range(k.n_cells))
    assert sum(blocking.sizes) == k.n_cells

    stencil = shifted_stencil(a, m, shift)
    dense = stencil.expand().toarray()
    ldl = eigensolve._LatticeLDL(k, blocking)
    assert ldl.inertia == ldl_inertia(dense)
    assert_same_pivots(ldl, *lattice_ldl_reference(stencil, blocking))
    if len(blocking.sizes) > 1:  # one block is factored dense in production
        assert stored_bytes(ldl) == 8 * blocking.entries
    assert_couplings_within_k(ldl, stencil, blocking)
    assert_couplings_are_k(ldl, dense, blocking)
    # a wide block, a narrow one and a vector
    r = np.random.default_rng(3).standard_normal((a.n, 16))
    for rhs in (r, r[:, :2], r[:, 0]):
        assert backward_error(dense, ldl(rhs), rhs) <= 1e-10


@pytest.mark.parametrize("rows, chain", [(12, 0), (6, 1), (5, 1), (4, 2), (3, 3)],
                         ids=["border-only", "one", "one-wide-border", "two", "three"])
def test_lattice_ldl_edge_chains(rows, chain):
    """Chains of one, two and three blocks before the border (with one, its
    first block is also its last), and the border alone: the solve agrees
    with ``np.linalg.solve`` of the dense K, and the border couplings are
    K's original blocks, the last block's taken before the Schur update
    of its border columns."""
    a, m = flux_surface_system(12, 4, 1)
    k = eigensolve._Shifted(a, m, 0.3)
    blocking = eigensolve._row_blocking(k, 0, 0, rows)
    assert len(blocking.sizes) == chain + 1
    dense = shifted_stencil(a, m, 0.3).to_dense()
    ldl = eigensolve._LatticeLDL(k, blocking)
    assert ldl.inertia == ldl_inertia(dense)
    assert len(ldl.chain) == max(chain - 1, 0)
    assert [j for j, *_ in ldl.edges] == {0: [], 1: [0]}.get(chain, [0, chain - 1])
    assert_couplings_are_k(ldl, dense, blocking)
    r = np.random.default_rng(5).standard_normal((a.n, 3))
    want = np.linalg.solve(dense, r)
    for rhs, x in ((r, want), (r[:, 0], want[:, 0])):
        assert np.max(np.abs(ldl(rhs) - x)) <= 1e-10 * np.max(np.abs(x))


def variable_sparse_pencil():
    """The pencil of the benchmark's ``variable_sparse`` workload at seed 0
    (58x16 p2, its seeded alpha and beta) and its band edge."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        from workloads import variable_fields
    finally:
        sys.path.pop(0)
    alpha, beta = variable_fields(0)
    b = iota_profile(0.5)
    mesh = build_mesh(MeshConfig(58, 16, Alignment.BOTTOM_TOP, b))
    return build_reduced(assemble_operator_set(
        mesh, BasisSpec(2, 2), alpha, MagneticField(b, beta), 6.0)), 0.27


def test_lattice_ldl_of_the_benchmark_pencil():
    """On ``variable_sparse``'s pencil the lattice LDL^T, its blocks built
    one step ahead of the elimination, has the pivots bit for bit of the
    elimination on a formed K stencil scattered whole, and its count.
    After construction its arrays are its packed triangles, ``8 * entries``
    bytes, the CSR arrays of its couplings, each within K's nonzeros across
    its block boundary, and vectors no longer than the lattice or a block:
    no dense block, Schur update or K stencil stays reachable from the
    factor."""
    (a, m), shift = variable_sparse_pencil()
    blocking = cheapest_blocking(a, m, shift)
    inertia, factor = shifted_inertia(a, m, shift)
    ldl = factor.solve
    stencil = shifted_stencil(a, m, shift)
    assert factor.kind == "lattice" and factor.entries == blocking.entries
    assert_same_pivots(ldl, *lattice_ldl_reference(stencil, blocking))
    assert ldl.inertia == inertia and inertia[0] == 9
    assert stored_bytes(ldl) == 8 * blocking.entries
    assert_couplings_within_k(ldl, stencil, blocking)
    assert len(ldl.chain) == len(blocking.sizes) - 2 and len(ldl.edges) == 2
    widest = max(blocking.sizes) * a.n_loc
    # the couplings' arrays own no more memory than they show
    coupled = reachable_arrays([c for _, _, c in couplings(ldl)])
    assert sum(x.nbytes for x in coupled) == sum(
        c.data.nbytes + c.indices.nbytes + c.indptr.nbytes for _, _, c in couplings(ldl))
    matrices = {id(f.packed) for f in ldl.factors} | {id(x) for x in coupled}
    others = [x for x in reachable_arrays(factor) if id(x) not in matrices]
    assert len(reachable_arrays(factor)) == len(others) + len(matrices)
    assert max(x.size for x in others) <= max(a.n_cells, widest) < widest**2 // 2
    # a solve of 16, 2 and 1 columns, against products with the stencils
    r = np.random.default_rng(3).standard_normal((a.n, 16))
    norm_k = a.norm_inf() + shift * m.norm_inf()
    for rhs in (r, r[:, :2], r[:, :1]):
        z = ldl(rhs)
        residual = rhs - (a.matvec(z) - shift * m.matvec(z))
        assert np.max(np.abs(residual)) <= 1e-10 * (
            norm_k * np.max(np.abs(z)) + np.max(np.abs(rhs)))


def test_lattice_factor_builds_no_stencil(monkeypatch):
    """The lattice factorization reads A's and M's blocks and forms no
    stencil, so no ``K = A - shift M`` stencil either."""
    a, m = flux_surface_system(10, 6, 2)

    def no_stencil(self, *args, **kwargs):
        raise AssertionError("a stencil was formed")

    monkeypatch.setattr(Stencil, "__init__", no_stencil)
    inertia, factor = shifted_inertia(a, m, 0.3)
    assert factor.kind == "lattice" and inertia[0] > 0


def test_lattice_factor_serves_band_eig():
    """A variable-coefficient band solve on the lattice factor: the kind and
    size of the factor are recorded, the count is the dense spectrum's."""
    a, m = flux_surface_system(10, 6, 2)
    blocking = cheapest_blocking(a, m, 0.3)
    assert len(blocking.sizes) > 2
    sol = band_eig(a, m, BandRequest(lambda_max=0.3))
    want = dense_generalized_eig(a, m).eigenvalues
    assert sol.factor == "lattice" and sol.factor_entries == blocking.entries
    assert len(sol) == sol.inertia_count == int(np.sum(want <= 0.3))
    assert np.max(np.abs(sol.eigenvalues - want[want <= 0.3])) <= 1e-10


def test_variable_band_solve_expands_no_csr(monkeypatch):
    """Stencil pencils are factored, multiplied and densified from their
    blocks: on the lattice and the one-block path no CSR is formed.  Nor is
    one for a matrix pencil, a dense array or a scipy CSR matrix, which is
    wrapped as a one-cell stencil."""
    def no_csr(self):
        raise AssertionError("a stencil was expanded to CSR")

    systems = [flux_surface_system(10, 6, 2), flux_surface_system(4, 4, 2)]
    band = np.array([0.05, 0.2, 0.2, 0.2, 0.45, 0.45, 0.7, 0.9])
    a, m = _pencil_with_spectrum(np.concatenate([band, np.linspace(2.0, 60.0, 292)]), 41)
    monkeypatch.setattr(Stencil, "expand", no_csr)
    for (a_s, m_s), kind in zip(systems, ("lattice", "dense")):
        sol = band_eig(a_s, m_s, BandRequest(lambda_max=0.3))
        assert sol.factor == kind and len(sol) == sol.inertia_count > 0
    sol = band_eig(a, None, BandRequest(lambda_max=1.0))
    assert sol.factor == "dense" and len(sol) == sol.inertia_count > 0
    inertia, solve = shifted_inertia(sp.csr_matrix(a), sp.csr_matrix(m), 1.0)
    assert inertia == (8, 0, 292) and solve.kind == "dense"


def test_factor_kinds_are_recorded(monkeypatch, tmp_path, caplog):
    """One block is recorded as dense with ``n^2`` entries, and non-band
    solves record no factor.  A layout over the entry budget is refused,
    naming its entries, a sparse matrix before it is densified, and the CLI
    reports that as a solver failure."""
    a, m = make_small_system(4, 4, 2)
    req = BandRequest(lambda_max=0.4)
    dense = band_eig(a, m, req)
    assert dense.factor == "dense" and dense.factor_entries == a.n**2
    assert bloch_eig(a, m, req).factor is None
    monkeypatch.setattr(eigensolve, "FACTOR_BUDGET", a.n**2)
    assert band_eig(a, m, req).factor_entries == a.n**2
    monkeypatch.setattr(eigensolve, "FACTOR_BUDGET", a.n**2 - 1)
    message = f"would store {a.n**2} entries ({8 * a.n**2} bytes)"
    with pytest.raises(CompletenessError, match=re.escape(message)):
        band_eig(a, m, req)

    def no_toarray(self, *args, **kwargs):
        raise AssertionError("an over-budget matrix was densified")

    monkeypatch.setattr(sp.csr_matrix, "toarray", no_toarray)
    csr = sp.csr_matrix(sp.identity(a.n))
    with pytest.raises(CompletenessError, match=re.escape(message)):
        shifted_inertia(csr, csr, 0.5)
    fld = tmp_path / "alpha.fld"
    fld.write_text("mean 1.0\n1 1 0.2 0.0\n")
    monkeypatch.setattr(eigensolve, "FACTOR_BUDGET", 0)
    with caplog.at_level(logging.ERROR, logger="anisodg"):
        code = main(["solve", "--nx", "2", "--ny", "2", "--p_xi", "1", "--p_eta", "1",
                     "--alpha_file", str(fld), "--output_dir", str(tmp_path)])
    assert code == EXIT_SOLVER
    assert any("solver failure" in rec.message and "entries" in rec.message
               for rec in caplog.records)


def test_lattice_pivot_on_the_shift_is_a_breakdown():
    """A shift at an eigenvalue of the first block's own pencil makes its
    Schur block singular: the elimination must raise, never count."""
    a, m = flux_surface_system(10, 6, 2)
    blocking = cheapest_blocking(a, m, 0.3)
    first = blocking.order[:blocking.sizes[0]]
    dofs = (first[:, None] * a.n_loc + np.arange(a.n_loc)).ravel()
    block = np.ix_(dofs, dofs)
    shift = sla.eigh(a.to_dense()[block], m.to_dense()[block],
                     eigvals_only=True)[3]
    assert cheapest_blocking(a, m, shift).sizes == blocking.sizes
    with pytest.raises(CompletenessError, match="broke down.*inertia unavailable"):
        shifted_inertia(a, m, shift)


def test_backward_error_guard_rejects_a_growing_static_pivot():
    """A static (diagonal) pivot order would take the tiny diagonal of a
    leaf before its hub, and the hub's pivot would lose its O(1) part to the
    1e11 element growth.  Bunch-Kaufman pivots it away: the one-block factor
    passes the backward-error check with the exact inertia."""
    k = np.diag([1e-11, 3.0, 3.0, 3.0, 3.0, 3.0])
    k[0, 1] = k[1, 0] = 1.0
    k[1, 2:] = k[2:, 1] = 1.0
    inertia, solve = shifted_inertia(k, None, 0.0)
    assert inertia == ldl_inertia(k) == (1, 0, 5)
    assert solve.kind == "dense"


@pytest.mark.parametrize("system, kind", [((10, 6, 2), "lattice"), ((4, 4, 2), "dense")],
                         ids=["lattice", "one-block"])
def test_backward_error_guard_rejects_an_inaccurate_solve(monkeypatch, system, kind):
    """A factor whose solve is off by a relative 1e-6, entry by entry, fails
    the backward-error check, on the lattice layout and on the one-block
    one: its inertia is unavailable."""
    a, m = flux_surface_system(*system)
    ldl_factor, lattice_solve = eigensolve._ldl_factor, eigensolve._LatticeLDL.__call__
    noise = 1e-6 * np.random.default_rng(1).standard_normal(a.n)
    kinds = []

    # the guard solves for one vector; only a solve of the layout's factor
    # is reached
    def inaccurate_dense(*args):
        inertia, solve = ldl_factor(*args)
        kinds.append("dense")
        return inertia, lambda b: solve(b) * (1.0 + noise)

    def inaccurate_lattice(self, b):
        kinds.append("lattice")
        return lattice_solve(self, b) * (1.0 + noise)

    monkeypatch.setattr(eigensolve, "_ldl_factor", inaccurate_dense)
    monkeypatch.setattr(eigensolve._LatticeLDL, "__call__", inaccurate_lattice)
    with pytest.raises(CompletenessError, match="backward error.*inertia unavailable"):
        shifted_inertia(a, m, 0.3)
    assert kinds == [kind]


def test_pencils_are_symmetric_stencils_on_one_lattice():
    """A and M on different lattices, or a stencil beside a matrix, are no
    pencil; a plain ``Stencil`` is not known to be symmetric."""
    a, m = make_small_system(2, 2, 1)
    other = make_small_system(2, 3, 1)[1]
    for mass in (other, m.expand()):
        with pytest.raises(ValueError, match="are not one pencil"):
            shifted_inertia(a, mass, 0.4)
    with pytest.raises(ValueError, match="are not one pencil"):
        band_eig(a.expand(), m, BandRequest(lambda_max=0.4))
    plain = Stencil(a.offsets, a.blocks, a.lattice)
    with pytest.raises(TypeError, match="not known to be symmetric"):
        shifted_inertia(plain, m, 0.4)


def test_importing_the_package_loads_no_sparse_linalg():
    """No solve uses ``scipy.sparse.linalg`` (SuperLU, ARPACK), and importing
    the package does not load it."""
    src = Path(anisodg.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    code = "import sys, anisodg; print('scipy.sparse.linalg' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"

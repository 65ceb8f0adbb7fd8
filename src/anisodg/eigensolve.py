"""Generalized symmetric band eigensolver with an inertia completeness check.

``band_eig`` returns *all* eigenpairs of ``A x = lambda M x`` with
``lambda <= lambda_max``.  One factorization of the pencil shift
``A - lambda_max M`` does two jobs.  By Sylvester's law the number of its
negative pivots is the number of band eigenvalues, which certifies the
solve: the returned count must equal it.  Its solve is also the
shift-invert operator of the Lanczos iteration, so no standard-form
reduction and no second factorization is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .assembly import BlockDiagMatrix, SparseSymMatrix

#: Problems at most this large may be handled by dense LAPACK paths.
DENSE_CAP = 8192

#: Below this size band_eig solves densely instead of running Lanczos.
DENSE_SWITCH = 1200


class CompletenessError(RuntimeError):
    """The band content could not be certified (or solved) completely."""


@dataclass(frozen=True)
class BandRequest:
    lambda_max: float
    tolerance: float = 1e-10
    max_subspace: int | None = None

    def __post_init__(self):
        if not np.isfinite(self.lambda_max) or self.lambda_max <= 0.0:
            raise ValueError("lambda_max must be finite and > 0")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be > 0")


@dataclass
class EigenSolution:
    """Eigenpairs sorted ascending; eigenvectors are M-orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    method: str
    inertia_count: int | None = None
    norm_a: float = field(default=0.0)

    def __len__(self) -> int:
        return len(self.eigenvalues)


def _as_sym(a) -> SparseSymMatrix:
    if isinstance(a, SparseSymMatrix):
        return a
    if sp.issparse(a):
        return SparseSymMatrix.from_product(a)
    return SparseSymMatrix.from_dense(np.asarray(a, dtype=float))


def _as_blockdiag(m, n: int) -> BlockDiagMatrix | None:
    if m is None or isinstance(m, BlockDiagMatrix):
        return m
    m = np.asarray(m, dtype=float)
    if m.ndim == 1:
        return BlockDiagMatrix(m.reshape(n, 1, 1))
    return BlockDiagMatrix(m.reshape(1, n, n))


def dense_generalized_eig(a, m=None, cap: int = DENSE_CAP) -> EigenSolution:
    """Full spectrum of the symmetric pencil (A, M) via LAPACK.

    The generalized problem is reduced with a Cholesky factorization of M
    inside the LAPACK driver; eigenvectors come back M-orthonormal.
    """
    a_sym = _as_sym(a)
    n = a_sym.n
    if n > cap:
        raise ValueError(f"dense solve of dimension {n} exceeds cap {cap}")
    a_d = a_sym.to_dense()
    m_bd = _as_blockdiag(m, n)
    if m_bd is None:
        w, v = sla.eigh(a_d)
        resid = _residuals(a_sym, None, w, v)
    else:
        w, v = sla.eigh(a_d, m_bd.to_dense())
        resid = _residuals(a_sym, m_bd, w, v)
    return EigenSolution(eigenvalues=w, eigenvectors=v, residuals=resid,
                         method="dense", norm_a=a_sym.norm_inf())


def _residuals(a: SparseSymMatrix, m: BlockDiagMatrix | None,
               w: np.ndarray, v: np.ndarray) -> np.ndarray:
    if v.size == 0:
        return np.empty(0)
    r = a.to_full() @ v
    mv = v if m is None else m.matmat(v)
    return np.linalg.norm(r - mv * w[None, :], axis=0)


def ldl_inertia(s, zero_tol: float = 1e-12) -> tuple[int, int, int]:
    """Inertia (n_neg, n_zero, n_pos) of a symmetric matrix.

    Uses the dense Bunch-Kaufman LDL^T factorization; pivot-block
    eigenvalues within ``zero_tol * max|S|`` of zero count as zero.
    """
    if sp.issparse(s):
        s = s.toarray()
    elif isinstance(s, SparseSymMatrix):
        s = s.to_dense()
    return _ldl_factor(np.array(s, dtype=float, order="F"), zero_tol)[0]


def _count_signs(pivots: np.ndarray, tol: float) -> tuple[int, int, int]:
    n_zero = int(np.sum(np.abs(pivots) <= tol))
    n_neg = int(np.sum(pivots < -tol))
    return n_neg, n_zero, len(pivots) - n_neg - n_zero


def _ldl_factor(k: np.ndarray, zero_tol: float):
    """Inertia of a dense symmetric matrix and a solve with it, from one
    Bunch-Kaufman LDL^T factorization that overwrites ``k``.

    D has 1x1 and 2x2 pivot blocks; in LAPACK's lower storage the negative
    ``ipiv`` entries come in pairs, one pair per 2x2 block.  D is then a
    tridiagonal matrix that splits at its zero off-diagonals, and its
    eigenvalues within ``zero_tol * max|K|`` of zero count as zero.
    """
    n = k.shape[0]
    scale = max(float(np.max(k)), -float(np.min(k)), np.finfo(float).tiny)
    lwork = int(lapack.dsytrf_lwork(n, lower=1)[0])
    lu, piv, info = lapack.dsytrf(k, lower=1, lwork=lwork, overwrite_a=1)
    if info < 0:
        raise ValueError(f"dsytrf: illegal value in argument {-info}")
    starts = np.flatnonzero(piv < 0)[::2]
    off = np.zeros(max(n - 1, 0))
    off[starts] = lu[starts + 1, starts]
    pivots = sla.eigvalsh_tridiagonal(np.diag(lu).copy(), off)
    return (_count_signs(pivots, zero_tol * scale),
            lambda b: lapack.dsytrs(lu, piv, b, lower=1)[0])


def _superlu_factor(k: sp.csc_matrix, zero_tol: float):
    """Inertia of a sparse symmetric matrix and a solve with it, from one
    static-pivot (diagonal) SuperLU factorization.

    With symmetric mode and a zero diagonal-pivot threshold the row and
    column permutations coincide, the factorization is a congruence, and
    the signs of diag(U) give the inertia.  Raises if SuperLU had to pivot
    off the diagonal.
    """
    lu = spla.splu(k, permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise CompletenessError(
            "static-pivot factorization failed (row pivoting occurred); "
            "inertia count unavailable at this size")
    d = lu.U.diagonal()
    if not np.all(np.isfinite(d)):
        raise CompletenessError("static-pivot factorization broke down")
    scale = max(float(np.max(np.abs(k.data), initial=0.0)), np.finfo(float).tiny)
    return _count_signs(d, zero_tol * scale), lu.solve


def shifted_inertia(a, m, shift: float, zero_tol: float = 1e-12):
    """Inertia of ``K = A - shift * M`` and a solve with K, from one
    factorization.

    By Sylvester's law ``(n_neg, n_zero, n_pos)`` counts the eigenvalues of
    the pencil (A, M) below, at and above ``shift``.  K is factored by dense
    Bunch-Kaufman LDL^T up to ``DENSE_CAP`` unknowns and by static-pivot
    SuperLU above.
    """
    a_sym = _as_sym(a)
    m_bd = _as_blockdiag(m, a_sym.n)
    m_sp = sp.identity(a_sym.n) if m_bd is None else m_bd.to_sparse()
    k = (a_sym.to_full() - shift * m_sp).tocsc()
    if a_sym.n <= DENSE_CAP:
        return _ldl_factor(k.toarray(order="F"), zero_tol)
    return _superlu_factor(k, zero_tol)


def band_eig(a, m, req: BandRequest, *, seed: int = 0) -> EigenSolution:
    """All eigenpairs of ``A x = lambda M x`` with ``lambda <= lambda_max``.

    One factorization of ``K = A - lambda_max M`` serves the certificate
    and the solve.  Its inertia is the band count.  Up to ``DENSE_SWITCH``
    unknowns LAPACK solves the pencil for ``lambda <= lambda_max``.  Above
    it, shift-invert Lanczos at ``sigma = lambda_max`` applies K's solve:
    every band eigenvalue maps to a negative ``1/(lambda - lambda_max)``
    and every other one to a positive value, so the inertia count of
    smallest algebraic values is exactly the band.  The result is accepted
    only when the returned count matches the inertia and every residual is
    within tolerance.
    """
    a_sym = _as_sym(a)
    n = a_sym.n
    m_bd = _as_blockdiag(m, n)
    (n_neg, n_zero, _), solve = shifted_inertia(a_sym, m_bd, req.lambda_max)
    if n_zero:
        raise CompletenessError(
            f"{n_zero} pivot(s) within tolerance of lambda_max="
            f"{req.lambda_max:.6g}; band boundary is ambiguous")
    norm_a = a_sym.norm_inf()
    if n_neg == 0:
        return EigenSolution(eigenvalues=np.empty(0), eigenvectors=np.empty((n, 0)),
                             residuals=np.empty(0), method="empty",
                             inertia_count=0, norm_a=norm_a)

    max_subspace = req.max_subspace or min(n - 1, max(4 * n_neg + 50, 100))
    if n_neg > max_subspace:
        raise CompletenessError(
            f"band holds {n_neg} eigenvalues, more than the subspace cap "
            f"{max_subspace}")
    m_mat = None if m_bd is None else m_bd.to_sparse()
    if n <= DENSE_SWITCH or n_neg + 8 >= n - 1:
        if n > DENSE_CAP:
            raise CompletenessError(
                f"band of {n_neg} eigenvalues needs a subspace near the full "
                f"dimension {n}, which exceeds the dense cap")
        w, x = sla.eigh(a_sym.to_dense(), None if m_mat is None else m_mat.toarray(),
                        subset_by_value=(-np.inf, req.lambda_max))
        method = "dense-band"
    else:
        op_inv = spla.LinearOperator((n, n), matvec=solve, dtype=float)
        v0 = np.random.default_rng(seed).standard_normal(n)
        try:
            w, x = spla.eigsh(a_sym.to_full(), k=n_neg, M=m_mat,
                              sigma=req.lambda_max, which="SA", OPinv=op_inv,
                              v0=v0, ncv=min(n - 1, max(4 * n_neg, 40)))
        except spla.ArpackError as exc:
            raise CompletenessError(f"shift-invert Lanczos failed: {exc}") from exc
        method = "shift-invert"

    found = int(np.sum(w <= req.lambda_max))
    if found != n_neg:
        raise CompletenessError(
            f"found {found} eigenvalues <= {req.lambda_max:.6g} but the "
            f"inertia count demands {n_neg}")

    order = np.argsort(w)
    w, x = w[order], x[:, order]
    resid = _residuals(a_sym, m_bd, w, x)
    limit = req.tolerance * max(norm_a, np.finfo(float).tiny)
    if np.any(resid > limit):
        raise CompletenessError(
            f"residual {resid.max():.3e} exceeds tolerance {limit:.3e}")
    if np.any(w < -req.tolerance * norm_a):
        raise CompletenessError(
            f"negative eigenvalue {w.min():.3e} below the PSD tolerance")
    return EigenSolution(eigenvalues=w, eigenvectors=x, residuals=resid,
                         method=method, inertia_count=n_neg, norm_a=norm_a)

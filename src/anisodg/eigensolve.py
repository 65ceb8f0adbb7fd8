"""Generalized symmetric eigensolvers with an inertia completeness check.

Two certified solvers serve ``A x = lambda M x``:

* ``bloch_eig`` solves a pencil that commutes with cell translations (the
  constant-coefficient operators, one-cell stencils).  Its Bloch symbols
  ``A(k) = sum_s A[s] exp(i k . o_s)``, read from the stencils, split it
  exactly into one small Hermitian pencil per lattice wavevector, each
  solved by LAPACK; the band ``lambda <= lambda_max`` is certified by the
  summed LDL^T inertia of the blocks.  No global matrix is formed.
* ``band_eig`` returns the band of any pencil (variable coefficients, their
  stencils expanded to CSR once).  One factorization of ``A - lambda_max M``
  does two jobs: by Sylvester's law its negative pivots count the band,
  which the returned count must equal, and its solve drives a block
  shift-invert Lanczos iteration (``LANCZOS_BLOCK`` right-hand sides per
  solve, full reorthogonalization in the M inner product) that stops once
  that many Ritz pairs have converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .assembly import SparseSymMatrix, Stencil, SymStencil

#: Problems at most this large may be handled by dense LAPACK paths, and
#: have their full spectrum (``n x n`` eigenvectors) computed.
DENSE_CAP = 8192

#: Width of band_eig's Lanczos block: the band eigenvalues of the
#: variable-coefficient operators come in near-degenerate ``+-(m, n)`` pairs.
LANCZOS_BLOCK = 2

#: A Lanczos direction whose M-norm falls below this fraction of its block's
#: before orthogonalization counts as lost (the block lost rank).
RANK_FLOOR = 1e-8

#: Lanczos steps without a new negative Ritz value, after which a fresh
#: random block joins the basis if every negative Ritz pair has converged.
STALL_STEPS = 16


class CompletenessError(RuntimeError):
    """The band content could not be certified (or solved) completely."""


@dataclass(frozen=True)
class BandRequest:
    lambda_max: float
    tolerance: float = 1e-10

    def __post_init__(self):
        if not np.isfinite(self.lambda_max) or self.lambda_max <= 0.0:
            raise ValueError("lambda_max must be finite and > 0")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be > 0")


@dataclass
class EigenSolution:
    """Eigenpairs sorted ascending; eigenvectors are M-orthonormal columns.

    ``method`` says which solve produced them:

    * ``"dense"``: every eigenpair of the pencil (the full spectrum, from
      ``bloch_eig`` without a band request); ``inertia_count`` is None.
      Readers that want the band cut these at the band edge themselves.
    * ``"bloch"``: the band of a translation-invariant pencil, from the
      lattice blocks.
    * ``"shift-invert"``: the band from ``band_eig``'s block shift-invert
      Lanczos iteration.
    * ``"dense-band"``: the band from ``band_eig`` by dense LAPACK, used
      only when the band fills (nearly) the whole space.
    * ``"empty"``: ``band_eig`` of an empty band.

    Band solves set ``inertia_count`` to the LDL^T count they were
    certified against.  ``residuals`` bound ``||A x - lambda M x||`` per
    pair.  ``solves`` is the number of right-hand sides the Lanczos
    iteration applied ``K^{-1}`` to and ``subspace`` its final basis size;
    the dense-band solve reports ``subspace = n`` and the other methods 0.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    method: str
    inertia_count: int | None = None
    norm_a: float = field(default=0.0)
    solves: int = 0
    subspace: int = 0

    def __len__(self) -> int:
        return len(self.eigenvalues)


def _as_sym(a) -> SparseSymMatrix:
    if isinstance(a, Stencil):  # the solve's own expansion, not kept on ``a``
        return SparseSymMatrix(a.expand())
    if isinstance(a, SparseSymMatrix):
        return a
    return SparseSymMatrix.from_product(sp.csr_matrix(a, dtype=float))


def _as_pencil(a, m) -> tuple[SparseSymMatrix, SparseSymMatrix]:
    """``(A, M)`` as symmetric sparse matrices; ``M = None`` is the identity."""
    a = _as_sym(a)
    return a, _as_sym(sp.identity(a.n, format="csr") if m is None else m)


def _dense_pencil(a: SparseSymMatrix, m: SparseSymMatrix
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Dense Fortran-ordered ``(A, M)``, which LAPACK may overwrite in place
    instead of copying: the transposes of the (symmetric) C-ordered arrays."""
    return a.to_full().toarray().T, m.to_full().toarray().T


def _residuals(a: SparseSymMatrix, m: SparseSymMatrix,
               w: np.ndarray, v: np.ndarray) -> np.ndarray:
    if v.size == 0:
        return np.empty(0)
    return np.linalg.norm(a.matvec(v) - m.matvec(v) * w[None, :], axis=0)


def _count_signs(pivots: np.ndarray, tol: float) -> tuple[int, int, int]:
    n_zero = int(np.sum(np.abs(pivots) <= tol))
    n_neg = int(np.sum(pivots < -tol))
    return n_neg, n_zero, len(pivots) - n_neg - n_zero


def _ldl_factor(k: np.ndarray, zero_tol: float):
    """Inertia of a dense symmetric (real) or Hermitian (complex) matrix and
    a solve with it, from one Bunch-Kaufman LDL^T factorization that
    overwrites ``k``.

    D has 1x1 and 2x2 pivot blocks; in LAPACK's lower storage the negative
    ``ipiv`` entries come in pairs, one pair per 2x2 block.  D is then a
    Hermitian tridiagonal matrix that splits at its zero off-diagonals; it
    has the eigenvalues of the real one with the off-diagonal moduli, and
    those within ``zero_tol * max|K|`` of zero count as zero.
    """
    n = k.shape[0]
    if np.iscomplexobj(k):
        kind, scale = "he", float(np.max(np.abs(k)))
    else:
        kind, scale = "sy", max(float(np.max(k)), -float(np.min(k)))
    trf, trs, trf_lwork = lapack.get_lapack_funcs(
        (f"{kind}trf", f"{kind}trs", f"{kind}trf_lwork"), (k,))
    lwork = int(trf_lwork(n, lower=1)[0].real)
    lu, piv, info = trf(k, lower=1, lwork=lwork, overwrite_a=1)
    if info < 0:
        raise ValueError(f"{kind}trf: illegal value in argument {-info}")
    starts = np.flatnonzero(piv < 0)[::2]
    off = np.zeros(max(n - 1, 0))
    off[starts] = np.abs(lu[starts + 1, starts])
    pivots = sla.eigvalsh_tridiagonal(np.diag(lu).real.copy(), off)
    return (_count_signs(pivots, zero_tol * max(scale, np.finfo(float).tiny)),
            lambda b: trs(lu, piv, b, lower=1)[0])


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
    Bunch-Kaufman LDL^T up to ``DENSE_CAP`` unknowns (``A`` densified once,
    ``shift * M`` subtracted in place) and by static-pivot SuperLU above.
    The solve takes a vector or a block of right-hand sides.
    """
    a, m = _as_pencil(a, m)
    if a.n <= DENSE_CAP:
        # K is symmetric, so its C-ordered array transposed is K in the
        # Fortran order LAPACK factors in place
        k = a.to_full().toarray()
        mass = m.to_full().tocoo()
        np.subtract.at(k, (mass.row, mass.col), shift * mass.data)
        return _ldl_factor(k.T, zero_tol)
    return _superlu_factor((a.to_full() - shift * m.to_full()).tocsc(), zero_tol)


def band_eig(a, m, req: BandRequest, *, seed: int = 0) -> EigenSolution:
    """All eigenpairs of ``A x = lambda M x`` with ``lambda <= lambda_max``.

    One factorization of ``K = A - lambda_max M`` serves the certificate
    and the solve.  Its inertia ``n_neg`` is the band count, and its solve
    drives a block shift-invert Lanczos iteration (``_lanczos``): every
    band eigenvalue maps to a negative ``mu = 1/(lambda - lambda_max)`` of
    ``K^{-1} M`` and every other one to a positive value, so the band is
    exactly the ``n_neg`` negative eigenvalues.  Only a band that fills
    (nearly) the whole space is solved by dense LAPACK instead.  The result
    is accepted only when the returned count matches the inertia and every
    residual is within tolerance.
    """
    a, m = _as_pencil(a, m)
    n = a.n
    (n_neg, n_zero, _), solve = shifted_inertia(a, m, req.lambda_max)
    if n_zero:
        raise CompletenessError(
            f"{n_zero} pivot(s) within tolerance of lambda_max="
            f"{req.lambda_max:.6g}; band boundary is ambiguous")
    norm_a = a.norm_inf()
    if n_neg == 0:
        return EigenSolution(eigenvalues=np.empty(0), eigenvectors=np.empty((n, 0)),
                             residuals=np.empty(0), method="empty",
                             inertia_count=0, norm_a=norm_a)

    limit = req.tolerance * max(norm_a, np.finfo(float).tiny)
    if n_neg + 8 >= n - 1:
        if n > DENSE_CAP:
            raise CompletenessError(
                f"band of {n_neg} eigenvalues needs a subspace near the full "
                f"dimension {n}, which exceeds the dense cap")
        w, x = sla.eigh(*_dense_pencil(a, m), overwrite_a=True,
                        overwrite_b=True, subset_by_value=(-np.inf, req.lambda_max))
        method, solves, subspace = "dense-band", 0, n
    else:
        norm_k = norm_a + req.lambda_max * m.norm_inf()
        w, x, solves, subspace = _lanczos(m, solve, req.lambda_max, n_neg,
                                          limit / norm_k, seed)
        method = "shift-invert"

    found = int(np.sum(w <= req.lambda_max))
    if found != n_neg:
        raise CompletenessError(
            f"found {found} eigenvalues <= {req.lambda_max:.6g} but the "
            f"inertia count demands {n_neg}")

    order = np.argsort(w)
    w, x = w[order], x[:, order]
    resid = _residuals(a, m, w, x)
    if np.any(resid > limit):
        raise CompletenessError(
            f"residual {resid.max():.3e} exceeds tolerance {limit:.3e}")
    if np.any(w < -req.tolerance * norm_a):
        raise CompletenessError(
            f"negative eigenvalue {w.min():.3e} below the PSD tolerance")
    return EigenSolution(eigenvalues=w, eigenvectors=x, residuals=resid,
                         method=method, inertia_count=n_neg, norm_a=norm_a,
                         solves=solves, subspace=subspace)


def _lanczos(m: SparseSymMatrix, solve, shift: float, n_neg: int,
             limit: float, seed: int):
    """The ``n_neg`` negative eigenpairs of ``T = K^{-1} M``, ``K = A - shift
    M`` (``solve`` applies ``K^{-1}``), by block Lanczos with full
    reorthogonalization in the M inner product; returns the pencil
    eigenpairs ``(lambda, x)``, the number of right-hand sides solved and
    the final basis size.

    T is self-adjoint in the M inner product.  Each step applies ``solve``
    to the whole newest block of the M-orthonormal basis Q and takes the
    image into the basis (``_Basis.extend``), which fills ``H = Q^T M T Q``.
    A Ritz pair ``(mu, x = Q y)`` of the applied columns has ``T x - mu x =
    Q_new R y_last``, ``Q_new`` being the block not yet applied.  With
    ``lambda = shift + 1/mu`` its pencil residual ``||A x - lambda M x|| =
    ||K (T x - mu x)|| / |mu|`` is at most ``||K|| ||Q_new R y_last|| /
    |mu|``; ``limit`` is the residual tolerance over ``||K||``.

    By interlacing at most ``n_neg`` Ritz values are negative (the LDL^T
    inertia of H counts them).  The iteration stops when exactly ``n_neg``
    are and all of them meet ``limit``.  When the count has stalled below
    ``n_neg`` for ``STALL_STEPS`` steps and every negative Ritz pair meets
    ``limit``, a fresh random block joins the basis beside the Krylov block,
    so multiplicities above the block width stay reachable.  The basis
    doubles from ``max(4 n_neg, 32)`` columns up to ``n``; a band still
    incomplete then raises ``CompletenessError``.
    """
    n = m.n
    basis = _Basis(n, min(n, max(4 * n_neg, 32)), m, np.random.default_rng(seed))
    basis.add_random(LANCZOS_BLOCK)
    done = solves = stall = best = 0
    while done < basis.k:
        block = slice(done, basis.k)
        image = solve(basis.mq[:, block])
        solves += image.shape[1]
        basis.extend(image, block)
        done = block.stop
        count = _negative_count(basis.h[:done, :done])
        if count > n_neg:
            raise CompletenessError(
                f"shift-invert Lanczos failed: {count} negative Ritz values "
                f"exceed the inertia count {n_neg}")
        stall = 0 if count > best else stall + 1
        best = max(best, count)
        if count < n_neg and stall < STALL_STEPS:
            continue
        mu, y = np.linalg.eigh(basis.h[:done, :done])
        mu, y = mu[:count], y[:, :count]
        # T x - mu x of each Ritz pair lies in the block not yet applied
        gap = basis.q[:, done:basis.k] @ (basis.h[done:basis.k, block] @ y[block])
        if np.any(np.linalg.norm(gap, axis=0) > limit * np.abs(mu)):
            continue
        if count == n_neg:
            return shift + 1.0 / mu, basis.q[:, :done] @ y, solves, basis.k
        basis.add_random(LANCZOS_BLOCK)
        stall = 0
    raise CompletenessError(
        f"shift-invert Lanczos failed: the band of {n_neg} eigenpairs is not "
        f"resolved in the whole {n}-dimensional space")


def _negative_count(h: np.ndarray) -> int:
    """Number of negative eigenvalues of the symmetric ``h``, from its
    Bunch-Kaufman LDL^T: negative 1x1 pivots plus one per 2x2 pivot block,
    which Bunch-Kaufman pivoting makes indefinite."""
    ldu, piv, _ = lapack.dsytrf(h, lower=1)
    return int(np.sum((piv > 0) & (np.diag(ldu) < 0.0)) + np.sum(piv < 0) // 2)


class _Basis:
    """The M-orthonormal Lanczos basis ``q[:, :k]``, its M image ``mq`` and
    ``h = Q^T M T Q``, growing in place."""

    def __init__(self, n: int, cap: int, m: SparseSymMatrix, rng):
        self.n, self.m, self.rng = n, m, rng
        self.q = np.empty((n, cap), order="F")
        self.mq = np.empty((n, cap), order="F")
        self.h = np.zeros((cap, cap))
        self.k = 0

    def _reserve(self, cols: int) -> None:
        """Room for ``cols`` more columns; the storage doubles, up to ``n``."""
        cap = self.q.shape[1]
        if self.k + cols <= cap:
            return
        cap = min(self.n, max(2 * cap, self.k + cols))
        for name in ("q", "mq"):
            grown = np.empty((self.n, cap), order="F")
            grown[:, :self.k] = getattr(self, name)[:, :self.k]
            setattr(self, name, grown)
        h = np.zeros((cap, cap))
        h[:self.k, :self.k] = self.h[:self.k, :self.k]
        self.h = h

    def _append(self, w: np.ndarray) -> np.ndarray:
        """Append the part of the block ``w`` (overwritten) that is
        M-orthogonal to the basis, M-orthonormalized by pivoted Cholesky-QR;
        return the coefficients ``c`` of ``w = Q c`` for the enlarged basis.
        A direction whose M-norm falls below ``RANK_FLOOR`` of the block's
        is dropped (the block lost rank)."""
        k, cols = self.k, w.shape[1]
        q, mq = self.q[:, :k], self.mq[:, :k]
        coef = np.zeros((k + cols, cols))
        for _ in range(2):  # classical Gram-Schmidt, twice
            c = mq.T @ w
            w -= q @ c
            coef[:k] += c
        mw = self.m.matvec(w)
        gram = w.T @ mw
        # ||w||_M^2 before orthogonalization: Q is M-orthonormal
        scale = float(np.max(np.sum(coef[:k] ** 2, axis=0) + np.diag(gram)))
        r, perm, rank, _ = lapack.dpstrf(gram, tol=RANK_FLOOR**2 * scale)
        rank = min(rank, self.n - k)
        if rank:
            perm -= 1  # w[:, perm] = q_new triu(r[:rank])
            inv = np.triu(lapack.dtrtri(r[:rank, :rank])[0])
            self.q[:, k:k + rank] = w[:, perm[:rank]] @ inv
            self.mq[:, k:k + rank] = mw[:, perm[:rank]] @ inv
            coef[k:k + rank, perm] = np.triu(r[:rank])
            self.k = k + rank
        return coef[:self.k]

    def add_random(self, cols: int) -> None:
        """Append ``cols`` random directions (as many as fit in the space)."""
        cols = min(cols, self.n - self.k)
        if cols > 0:
            self._reserve(cols)
            self._append(self.rng.standard_normal((self.n, cols)))

    def extend(self, image: np.ndarray, block: slice) -> None:
        """Take ``image = T q[:, block]`` into the basis and its coefficients
        into ``h``; random directions replace those the image loses."""
        cols = min(image.shape[1], self.n - self.k)
        self._reserve(cols)
        k = self.k
        coef = self._append(image)
        self.h[:len(coef), block] = coef
        self.add_random(cols - (self.k - k))


# ---------------------------------------------------------------------------
# translation-invariant pencils: one Hermitian block per lattice wavevector


def _pencil_eigh(a: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a stack of Hermitian pencils ``(a[c], m[c])``, by the
    Cholesky reduction of LAPACK's generalized driver, batched; eigenvectors
    are ``m[c]``-orthonormal."""
    try:
        low = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise CompletenessError("a mass symbol is not positive definite") from exc
    reduced = np.linalg.solve(low, np.linalg.solve(low, a).conj().swapaxes(1, 2))
    w, y = np.linalg.eigh(reduced)
    return w, np.linalg.solve(low.conj().swapaxes(1, 2), y)


def _lattice_phase(k: int, n: int) -> np.ndarray:
    """``exp(2 pi i k j / n)`` for the cells ``j < n`` of one lattice axis."""
    return np.exp(2j * np.pi * (k * np.arange(n) % n) / n)


class _LatticePencil:
    """A translation-invariant pencil as its symbols on an ``nx x ny`` lattice.

    Wavevector ``k = (p, q)`` has flat index ``p*ny + q``.  Raises
    ``CompletenessError`` if the stencil of A or M varies from cell to cell.
    """

    def __init__(self, a: SymStencil, m: SymStencil):
        self.nx, self.ny = nx, ny = a.lattice
        for name, s in (("A", a), ("M", m)):
            if s.blocks.shape[0] != 1:
                raise CompletenessError(
                    f"{name} is not invariant under translations of the {nx}x{ny} "
                    f"cell lattice: its stencil varies from cell to cell")
        self.a_hat, self.m_hat = a.symbols(), m.symbols()
        self.fro_a = np.linalg.norm(self.a_hat, axis=(1, 2))
        self.fro_m = np.linalg.norm(self.m_hat, axis=(1, 2))
        p, q = np.divmod(np.arange(nx * ny), ny)
        self.conj = ((-p) % nx) * ny + (-q) % ny

    def real_waves(self, k: int, v: np.ndarray) -> np.ndarray:
        """Real M-orthonormal global vectors of the block eigenvectors ``v``
        of wavevector ``k``: the Bloch waves themselves for a self-conjugate
        ``k``, else ``sqrt(2)`` times their real and imaginary parts, in
        adjacent columns."""
        p, q = divmod(k, self.ny)
        phase = np.outer(_lattice_phase(p, self.nx), _lattice_phase(q, self.ny))
        wave = (phase / math.sqrt(self.nx * self.ny))[:, :, None, None] * v
        wave = wave.reshape(-1, v.shape[1])
        if self.conj[k] == k:
            return wave.real
        out = np.empty((wave.shape[0], 2 * v.shape[1]))
        out[:, 0::2] = math.sqrt(2.0) * wave.real
        out[:, 1::2] = math.sqrt(2.0) * wave.imag
        return out

    def residuals(self, x: np.ndarray, w: np.ndarray, ks) -> np.ndarray:
        """Upper bounds on ``||A x_c - w_c M x_c||`` for the columns of ``x``,
        tight for columns that are (up to round-off) combinations of the
        wavevectors ``ks``.

        The unitary lattice DFT of a column has coefficients ``c(k)``, and
        by Parseval its residual against the block-circulant pencil is
        ``sqrt(sum_k ||(A(k) - w M(k)) c(k)||^2)``.  The terms of ``ks`` are
        computed; the others are bounded through the symbols' Frobenius
        norms.
        """
        nx, ny, n_loc = self.nx, self.ny, self.a_hat.shape[-1]
        cols = x.shape[1]
        coeff = np.fft.fft2(x.T.reshape(cols, nx, ny, n_loc), axes=(1, 2),
                            norm="ortho").reshape(cols, nx * ny, n_loc)
        ks = sorted(ks)
        inside = np.zeros(cols)
        for k in ks:
            c = coeff[:, k]
            r = c @ self.a_hat[k].T - w[:, None] * (c @ self.m_hat[k].T)
            inside += np.sum(np.abs(r)**2, axis=1)
        energy = np.sum(np.abs(coeff)**2, axis=2)
        energy[:, ks] = 0.0
        scale = self.fro_a + np.abs(w)[:, None] * self.fro_m
        outside = np.sum(scale**2 * energy, axis=1)
        return np.sqrt(inside + outside)


def bloch_eig(a: SymStencil, m: SymStencil,
              req: BandRequest | None = None) -> EigenSolution:
    """Eigenpairs of a pencil that commutes with translations of a cell lattice.

    ``a`` and ``m`` are one-cell stencils on the lattice ``(nx, ny)`` (a
    stencil that varies by cell raises ``CompletenessError``).  On the Bloch
    waves ``v exp(2 pi i (p i / nx + q j / ny)) / sqrt(nx ny)`` of cell ``(i,
    j)`` and wavevector ``k = (p, q)`` the pencil acts as its symbols ``(A(k),
    M(k))``, and LAPACK solves one block per class ``{k, -k}``: a pair gives
    ``sqrt(2)`` times the real and imaginary parts of each Bloch wave, a
    self-conjugate class (``2k = 0``) a real block and its own vectors.

    Without ``req`` every eigenpair is returned (method ``"dense"``).  With
    it the band ``lambda <= lambda_max`` is returned (method ``"bloch"``),
    certified like ``band_eig``'s: the count must equal the summed inertia
    of the blocks ``A(k) - lambda_max M(k)`` (which by Sylvester's law under
    the unitary lattice DFT is the inertia of ``A - lambda_max M``), no
    pivot may sit on the edge, and the residuals and the PSD floor must hold.
    Residuals bound ``||A x - lambda M x||`` of the returned vectors: their
    lattice DFT meets each wavevector's symbols, those outside the vector's
    class through the symbols' Frobenius norms.
    """
    if req is None and a.n > DENSE_CAP:
        raise ValueError(f"full spectrum of dimension {a.n} exceeds cap {DENSE_CAP}")
    pencil = _LatticePencil(a, m)
    # class representatives k <= -k; the self-conjugate ones are real
    ks = np.arange(len(pencil.conj))
    real = np.flatnonzero(pencil.conj == ks)
    pair = np.flatnonzero(pencil.conj > ks)
    w_real, v_real = _pencil_eigh(pencil.a_hat[real].real, pencil.m_hat[real].real)
    w_pair, v_pair = _pencil_eigh(pencil.a_hat[pair], pencil.m_hat[pair])
    classes = [(int(k), w, v, 1) for k, w, v in zip(real, w_real, v_real)]
    classes += [(int(k), w, v, 2) for k, w, v in zip(pair, w_pair, v_pair)]
    norm_a = a.norm_inf()

    inertia = None
    if req is not None:
        inertia = _block_inertia(pencil, classes, req.lambda_max)
        classes = [(k, w[w <= req.lambda_max], v[:, w <= req.lambda_max], mult)
                   for k, w, v, mult in classes]

    # global ascending order, the two vectors of a pair next to each other
    col_w = np.concatenate([np.repeat(w, mult) for _, w, _, mult in classes])
    order = np.argsort(col_w, kind="stable")
    dest = np.empty_like(order)
    dest[order] = np.arange(len(order))
    x = np.empty((a.n, len(order)), order="F")
    resid = np.empty(len(order))
    start = 0
    for k, w, v, mult in classes:
        cols = dest[start:start + mult * len(w)]
        start += len(cols)
        if len(cols):
            x[:, cols] = block = pencil.real_waves(k, v)
            resid[cols] = pencil.residuals(block, np.repeat(w, mult),
                                           {k, int(pencil.conj[k])})

    w = col_w[order]
    if req is None:
        return EigenSolution(eigenvalues=w, eigenvectors=x, residuals=resid,
                             method="dense", norm_a=norm_a)
    limit = req.tolerance * max(norm_a, np.finfo(float).tiny)
    if np.any(resid > limit):
        raise CompletenessError(
            f"residual {resid.max():.3e} exceeds tolerance {limit:.3e}")
    if np.any(w < -req.tolerance * norm_a):
        raise CompletenessError(
            f"negative eigenvalue {w.min():.3e} below the PSD tolerance")
    return EigenSolution(eigenvalues=w, eigenvectors=x, residuals=resid,
                         method="bloch", inertia_count=inertia, norm_a=norm_a)


def _block_inertia(pencil: _LatticePencil, classes, shift: float) -> int:
    """Number of eigenvalues below ``shift``: the summed Bunch-Kaufman
    inertia of ``A(k) - shift M(k)`` over all wavevectors (a class pair
    twice, its two blocks being complex conjugates).  Each block's count of
    ``classes`` eigenvalues must match its own inertia, and no pivot may sit
    on the shift."""
    total = n_zero = 0
    for k, w, _, mult in classes:
        shifted = pencil.a_hat[k] - shift * pencil.m_hat[k]
        if mult == 1:
            shifted = shifted.real
        (neg, zero, _), _ = _ldl_factor(np.array(shifted, order="F"), 1e-12)
        found = int(np.sum(w <= shift))
        if found != neg and not zero:
            raise CompletenessError(
                f"found {found} eigenvalues <= {shift:.6g} in the block of "
                f"wavevector {divmod(k, pencil.ny)} but its inertia count "
                f"demands {neg}")
        total += mult * neg
        n_zero += mult * zero
    if n_zero:
        raise CompletenessError(
            f"{n_zero} pivot(s) within tolerance of lambda_max={shift:.6g}; "
            f"band boundary is ambiguous")
    return total

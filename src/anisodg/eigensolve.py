"""Generalized symmetric eigensolvers with an inertia completeness check.

Two certified solvers serve ``A x = lambda M x``:

* ``bloch_eig`` solves a pencil that commutes with cell translations (the
  constant-coefficient operators).  A 2D DFT over the cell lattice splits it
  exactly into one small Hermitian pencil per wavevector, each solved by
  LAPACK; it returns the whole spectrum or the band ``lambda <= lambda_max``,
  whose count is certified by the summed LDL^T inertia of the blocks.
* ``band_eig`` returns the band of any pencil (variable coefficients).  One
  factorization of the pencil shift ``A - lambda_max M`` does two jobs.  By
  Sylvester's law the number of its negative pivots is the number of band
  eigenvalues, which certifies the solve: the returned count must equal it.
  Its solve is also the shift-invert operator of the Lanczos iteration, so
  no standard-form reduction and no second factorization is needed.

``dense_generalized_eig`` (a global LAPACK ``eigh``) is kept as the test
oracle of both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .assembly import SparseSymMatrix

#: Problems at most this large may be handled by dense LAPACK paths, and
#: have their full spectrum (``n x n`` eigenvectors) computed.
DENSE_CAP = 8192

#: Below this size band_eig solves densely instead of running Lanczos.
DENSE_SWITCH = 1200

#: ``bloch_eig`` accepts a pencil only if no stored entry differs from its
#: translate in the cell-(0, 0) block row by more than this times the
#: matrix's largest entry.
TRANSLATION_TOL = 1e-12


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
      ``bloch_eig`` without a band request or the ``dense_generalized_eig``
      oracle); ``inertia_count`` is None.  Readers that want the band cut
      these at the band edge themselves.
    * ``"bloch"``: the band of a translation-invariant pencil, from the
      lattice blocks.
    * ``"dense-band"``, ``"shift-invert"``, ``"empty"``: the band from
      ``band_eig`` by dense LAPACK, by shift-invert Lanczos, or empty.

    Band solves set ``inertia_count`` to the LDL^T count they were
    certified against.  ``residuals`` bound ``||A x - lambda M x||`` per
    pair.
    """

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


def _as_pencil(a, m) -> tuple[SparseSymMatrix, SparseSymMatrix]:
    """``(A, M)`` as symmetric sparse matrices; ``M = None`` is the identity."""
    a = _as_sym(a)
    return a, _as_sym(sp.identity(a.n, format="csr") if m is None else m)


def dense_generalized_eig(a, m=None, cap: int = DENSE_CAP) -> EigenSolution:
    """Full spectrum of the symmetric pencil (A, M) via one global LAPACK
    ``eigh``; the tests' oracle for ``bloch_eig`` and ``band_eig``.

    The generalized problem is reduced with a Cholesky factorization of M
    inside the LAPACK driver; eigenvectors come back M-orthonormal.
    """
    a, m = _as_pencil(a, m)
    if a.n > cap:
        raise ValueError(f"dense solve of dimension {a.n} exceeds cap {cap}")
    w, v = sla.eigh(*_dense_pencil(a, m), overwrite_a=True, overwrite_b=True)
    return EigenSolution(eigenvalues=w, eigenvectors=v,
                         residuals=_residuals(a, m, w, v), method="dense",
                         norm_a=a.norm_inf())


def _dense_pencil(a: SparseSymMatrix, m: SparseSymMatrix
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Dense Fortran-ordered ``(A, M)``, which LAPACK may overwrite in place
    instead of copying."""
    return a.to_full().toarray(order="F"), m.to_full().toarray(order="F")


def _residuals(a: SparseSymMatrix, m: SparseSymMatrix,
               w: np.ndarray, v: np.ndarray) -> np.ndarray:
    if v.size == 0:
        return np.empty(0)
    return np.linalg.norm(a.matvec(v) - m.matvec(v) * w[None, :], axis=0)


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
    Bunch-Kaufman LDL^T up to ``DENSE_CAP`` unknowns and by static-pivot
    SuperLU above.
    """
    a, m = _as_pencil(a, m)
    k = (a.to_full() - shift * m.to_full()).tocsc()
    if a.n <= DENSE_CAP:
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

    if n <= DENSE_SWITCH or n_neg + 8 >= n - 1:
        if n > DENSE_CAP:
            raise CompletenessError(
                f"band of {n_neg} eigenvalues needs a subspace near the full "
                f"dimension {n}, which exceeds the dense cap")
        w, x = sla.eigh(*_dense_pencil(a, m), overwrite_a=True,
                        overwrite_b=True, subset_by_value=(-np.inf, req.lambda_max))
        method = "dense-band"
    else:
        op_inv = spla.LinearOperator((n, n), matvec=solve, dtype=float)
        v0 = np.random.default_rng(seed).standard_normal(n)
        try:
            w, x = spla.eigsh(a.to_full(), k=n_neg, M=m.to_full(),
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
    resid = _residuals(a, m, w, x)
    limit = req.tolerance * max(norm_a, np.finfo(float).tiny)
    if np.any(resid > limit):
        raise CompletenessError(
            f"residual {resid.max():.3e} exceeds tolerance {limit:.3e}")
    if np.any(w < -req.tolerance * norm_a):
        raise CompletenessError(
            f"negative eigenvalue {w.min():.3e} below the PSD tolerance")
    return EigenSolution(eigenvalues=w, eigenvectors=x, residuals=resid,
                         method=method, inertia_count=n_neg, norm_a=norm_a)


# ---------------------------------------------------------------------------
# translation-invariant pencils: one Hermitian block per lattice wavevector


def _lattice_symbols(s: SparseSymMatrix, name: str, nx: int, ny: int,
                     n_loc: int) -> tuple[np.ndarray, float]:
    """Lattice symbols of the matrix ``s`` (called ``name`` in errors), and
    how far ``s`` is from the block-circulant matrix ``C`` they define.

    Dofs are cell-contiguous and cell ``(i, j)`` has id ``i*ny + j``.  The
    cell-(0, 0) block row holds the coupling blocks ``B[d]`` to the cells
    ``d = (di, dj)``; the symbols are ``S[p, q] = sum_d B[d] exp(2 pi i
    (p di / nx + q dj / ny))``.  ``s`` is read by its cell blocks (BSR, one
    cell key per stored block).  Every stored entry is compared with its
    translate in that block row, and every entry of the block row that a
    cell does not store counts in full.  Raises ``CompletenessError`` if
    some entry differs by more than ``TRANSLATION_TOL * max|s|``.  Returns
    the symbols ``(nx*ny, n_loc, n_loc)`` and the Frobenius norm of the
    defect, which bounds ``||s - C||_2``.
    """
    blocks = s.to_full().tobsr((n_loc, n_loc))  # sums duplicate entries
    row_cell = np.repeat(np.arange(nx * ny), np.diff(blocks.indptr))
    ri, rj = np.divmod(row_cell, ny)
    ci, cj = np.divmod(blocks.indices, ny)
    key = ((ci - ri) % nx) * ny + (cj - rj) % ny
    row0 = slice(0, blocks.indptr[1])
    row = np.zeros((nx * ny, n_loc, n_loc))
    row[key[row0]] = blocks.data[row0]
    # an entry a cell's stored block lacks is a zero there, so it counts in full
    diff = np.abs(blocks.data - row[key]).ravel()
    # a block of the row that ``count`` cells store is missing from the others
    missing = nx * ny - np.bincount(key, minlength=nx * ny)
    worst = max(float(np.max(diff, initial=0.0)),
                float(np.max(np.abs(row[missing > 0]), initial=0.0)))
    rel = worst / max(s.max_abs(), np.finfo(float).tiny)
    if rel > TRANSLATION_TOL:
        raise CompletenessError(
            f"{name} is not invariant under translations of the {nx}x{ny} "
            f"cell lattice: an entry differs from its translate by {rel:.3e} "
            f"of max|{name}| (tolerance {TRANSLATION_TOL:.0e})")
    symbols = np.fft.ifft2(row.reshape(nx, ny, n_loc, n_loc), axes=(0, 1),
                           norm="forward")
    return (symbols.reshape(nx * ny, n_loc, n_loc),
            math.sqrt(diff @ diff + missing @ np.sum(row**2, axis=(1, 2))))


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

    Wavevector ``k = (p, q)`` has flat index ``p*ny + q``.  Keeps the
    Frobenius norms of the defects of A and M from the block-circulant
    pencil of the symbols (see ``_lattice_symbols``).
    """

    def __init__(self, a: SparseSymMatrix, m: SparseSymMatrix,
                 lattice: tuple[int, int]):
        self.nx, self.ny = nx, ny = lattice
        self.n_loc, rest = divmod(a.n, nx * ny)
        if rest or m.n != a.n:
            raise ValueError(f"{a.n} dofs do not split into {nx}x{ny} cells")
        self.a_hat, self.defect_a = _lattice_symbols(a, "A", nx, ny, self.n_loc)
        self.m_hat, self.defect_m = _lattice_symbols(m, "M", nx, ny, self.n_loc)
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
        norms.  The defects of A and M add ``(e_A + |w| e_M) ||x_c||``.
        """
        nx, ny, n_loc = self.nx, self.ny, self.n_loc
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
        return (np.sqrt(inside + outside) + (self.defect_a + np.abs(w) * self.defect_m)
                * np.linalg.norm(x, axis=0))


def bloch_eig(a, m, lattice: tuple[int, int],
              req: BandRequest | None = None) -> EigenSolution:
    """Eigenpairs of a pencil that commutes with translations of a cell lattice.

    ``lattice = (nx, ny)``; dofs are cell-contiguous and cell ``(i, j)`` has
    index ``i*ny + j``.  Each wavevector ``k = (p, q)`` has the Bloch waves
    ``v exp(2 pi i (p i / nx + q j / ny)) / sqrt(nx ny)``, on which the pencil
    acts as its ``n_loc x n_loc`` Hermitian symbols ``(A(k), M(k))``; LAPACK
    solves one block per class ``{k, -k}``.  A class pair gives two real
    M-orthonormal eigenvectors per block eigenpair, ``sqrt(2)`` times the
    real and imaginary part of its Bloch wave; a self-conjugate class
    (``2k = 0``) has a real block and gives its own vectors.

    Without ``req`` every eigenpair is returned (method ``"dense"``).  With
    it the band ``lambda <= lambda_max`` is returned (method ``"bloch"``),
    certified like ``band_eig``'s: the count must equal the summed inertia
    of the blocks ``A(k) - lambda_max M(k)`` (which by Sylvester's law under
    the unitary lattice DFT is the inertia of ``A - lambda_max M``), no
    pivot may sit on the edge, and the residuals and the PSD floor must hold.

    The symbols are read from the assembled matrices' cell-(0, 0) block
    row; a ``CompletenessError`` names the defect if some entry differs from
    its translate by more than ``TRANSLATION_TOL``.  Residuals are upper
    bounds (to round-off) on ``||A x - lambda M x||`` of the returned global
    vectors: their lattice DFT is applied to each wavevector's symbols, the
    wavevectors outside the vector's class through the symbols' Frobenius
    norms, and the measured defect from the assembled A and M is added.
    """
    a, m = _as_pencil(a, m)
    if req is None and a.n > DENSE_CAP:
        raise ValueError(f"full spectrum of dimension {a.n} exceeds cap {DENSE_CAP}")
    pencil = _LatticePencil(a, m, lattice)
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

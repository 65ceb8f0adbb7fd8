"""Generalized symmetric eigensolvers with an inertia completeness check.

Two certified solvers serve ``A x = lambda M x``:

* ``bloch_eig`` solves a pencil that commutes with cell translations (the
  constant-coefficient operators, one-cell stencils).  Its Bloch symbols
  ``A(k) = sum_s A[s] exp(i k . o_s)``, read from the stencils, split it
  exactly into one small Hermitian pencil per lattice wavevector, each
  solved by LAPACK; the band ``lambda <= lambda_max`` is certified by the
  summed LDL^T inertia of the blocks, taken first, and only the blocks that
  hold band eigenvalues are solved, for those eigenvalues alone.  No global
  matrix is formed, and the global eigenvectors only when they are read.
* ``band_eig`` returns the band of any pencil (variable coefficients).  One
  factorization of ``K = A - lambda_max M`` (``shifted_inertia``) does two
  jobs: by Sylvester's law its negative pivots count the band, which the
  returned count must equal, and its solve drives a block shift-invert
  Lanczos iteration (``LANCZOS_BLOCK`` right-hand sides per solve, full
  reorthogonalization in the M inner product) that stops once that many
  Ritz pairs have converged.  K is factored straight from the stencil
  blocks of A and M, and never formed: ordered in lattice rows, ``R`` rows
  to a block, K is periodic block-tridiagonal, and a block LDL^T
  (``_LatticeLDL``) sums the Bunch-Kaufman inertias of its Schur blocks
  (Haynsworth).  It builds each block of K one step before the elimination
  reaches it and keeps only its pivot blocks, each unit triangle in
  rectangular full packed form, beside CSR copies of K's own couplings;
  its solve eliminates the border by its Schur complement.  A layout of
  one block is dense Bunch-Kaufman.  Products with a stencil run on its
  blocks too, so no CSR matrix is formed.  Every factor must pass a
  backward-error check of its solve before its inertia is used
  (``BACKWARD_TOL``).  ``shifted_inertia`` is the one way into the factor.

Both solvers certify alike: no pivot on the band edge (``_check_edge``),
then every residual within tolerance and none below the PSD floor
(``_check_pairs``).

Every pencil is a pair of ``SymStencil`` on one lattice: a dense array or a
scipy sparse matrix is taken as the one-cell stencil of the 1x1 lattice
(``_as_sym``), which the factorization takes as one block.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg import blas, lapack

from .assembly import _ORIGIN, Stencil, SymStencil, _reached_cells, _residues

#: The most matrix entries a factor of ``K = A - shift M`` (its pivot
#: blocks as it stores them, packed triangles at half their square:
#: ``_Blocking.entries``), a dense pencil or an eigenvector array may store
#: (``2**28`` float64 entries are 2 GiB); a larger one is refused before it
#: is formed.
FACTOR_BUDGET = 2**28

#: Width of band_eig's Lanczos block: the band eigenvalues of the
#: variable-coefficient operators come in near-degenerate ``+-(m, n)`` pairs.
LANCZOS_BLOCK = 2

#: A Lanczos direction whose M-norm falls below this fraction of its block's
#: before orthogonalization counts as lost (the block lost rank).
RANK_FLOOR = 1e-8

#: Lanczos steps without a new negative Ritz value, after which a fresh
#: random block joins the basis if every negative Ritz pair has converged.
STALL_STEPS = 16

#: A pivot within this fraction of ``max |K|`` of zero counts as zero.
PIVOT_TOL = 1e-12

#: Largest normwise backward error ``||r - K z|| / (||K|| ||z|| + ||r||)``
#: of a factor's solve of ``K z = r`` for which its inertia is trusted.
BACKWARD_TOL = 1e-10


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
    certified against.  ``residuals`` hold ``||A x - lambda M x||_2`` per
    pair: ``band_eig`` measures it by products with A and M in floating
    point; ``bloch_eig`` bounds it for the stored vectors from each block,
    rounding included (``_LatticePencil.bounds``), so no exact residual
    exceeds it.  ``solves`` is the number of right-hand sides the Lanczos
    iteration applied ``K^{-1}`` to and ``subspace`` its final basis size;
    the dense-band solve reports ``subspace = n`` and the other methods 0.
    ``factor`` is the kind of the ``Factor`` of ``K = A - lambda_max M``
    that ``shifted_inertia`` gave ``band_eig`` (``"lattice"`` or, for a
    layout of one block, ``"dense"``) and ``factor_entries`` the matrix
    entries of its pivot blocks (``_Blocking.entries``: the lattice
    factor's packed triangles, at half their square; the CSR copies of K's
    couplings it keeps beside them are not counted); the Bloch and full
    dense solves leave them None and 0.
    ``wavevectors`` and ``coefficients`` are set by ``bloch_eig`` alone and
    are None for every other solve.  ``wavevectors`` holds, for each column,
    the flat index ``p*ny + q`` of the representative of the lattice
    wavevector class ``{k, -k}`` whose Bloch waves the column is built from,
    so its lattice DFT vanishes outside ``k`` and ``-k``.  ``coefficients``
    is the ``(columns, n_loc)`` complex array of those DFTs at ``k``: row
    ``j`` is ``sum_c exp(2 pi i (p c_x / nx + q c_y / ny)) x_j[c]`` over the
    cells ``c`` of column ``x_j``, read off its block eigenvector rather
    than summed (its DFT at ``-k`` is the conjugate, the column being real).
    They are what a Bloch solution's Fourier labels are read from
    (``spectrum.associate_modes``).

    ``bloch_eig`` passes ``eigenvectors`` as a callable that forms them: the
    ``n x len`` array is built on the first read of ``eigenvectors`` and
    kept, so a solve whose vectors only get labelled (by ``coefficients``)
    never forms it.  An array of more than ``FACTOR_BUDGET`` entries is
    refused on that read (``ValueError``), and the rest of the solution
    stays readable.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    method: str
    inertia_count: int | None = None
    norm_a: float = field(default=0.0)
    solves: int = 0
    subspace: int = 0
    factor: str | None = None
    factor_entries: int = 0
    wavevectors: np.ndarray | None = None
    coefficients: np.ndarray | None = None

    def __post_init__(self):
        if callable(self.eigenvectors):
            self._form = vars(self).pop("eigenvectors")

    def __getattr__(self, name):
        # reached only while the deferred eigenvectors are unformed
        if name == "eigenvectors" and "_form" in vars(self):
            self.eigenvectors = vars(self)["_form"]()
            del self._form
            return self.eigenvectors
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def __len__(self) -> int:
        return len(self.eigenvalues)


def _as_sym(a) -> SymStencil:
    """``a`` as a symmetric stencil: a dense array or a scipy sparse matrix
    (its duplicate entries summed) as the one-cell stencil of the 1x1
    lattice, symmetrized and dropped like every ``SymStencil``.  A plain
    ``Stencil`` is not known to be symmetric, and raises ``TypeError``.  The
    one block of an ``n x n`` matrix stores ``n^2`` entries: past
    ``FACTOR_BUDGET`` it is refused (``CompletenessError``) before it is
    formed."""
    if isinstance(a, SymStencil):
        return a
    if isinstance(a, Stencil):
        raise TypeError("a Stencil is not known to be symmetric; pass a SymStencil")
    n = np.shape(a)[0]
    entries = n * n
    if entries > FACTOR_BUDGET:
        raise CompletenessError(
            f"the one block of a {n}x{n} matrix would store "
            f"{entries} entries ({8 * entries} bytes), over the budget of "
            f"{FACTOR_BUDGET}; inertia unavailable")
    k = np.asarray(a.toarray() if sp.issparse(a) else a, dtype=float)
    return SymStencil(_ORIGIN, k[None, None], (1, 1))


def _as_pencil(a, m) -> tuple[SymStencil, SymStencil]:
    """``(A, M)`` as symmetric stencils on one lattice; ``M = None`` is the
    identity block at offset ``(0, 0)`` of A's lattice.  Stencils on
    different lattices, or of different cell sizes, raise ``ValueError``."""
    a = _as_sym(a)
    if m is None:
        return a, SymStencil(_ORIGIN, np.eye(a.n_loc)[None, None], a.lattice)
    m = _as_sym(m)
    if (a.lattice, a.n_loc) != (m.lattice, m.n_loc):
        raise ValueError(
            f"A ({a.lattice[0]}x{a.lattice[1]} lattice, {a.n_loc} dofs a cell) "
            f"and M ({m.lattice[0]}x{m.lattice[1]}, {m.n_loc}) are not one pencil")
    return a, m


def _dense_pencil(a: SymStencil, m: SymStencil) -> tuple[np.ndarray, np.ndarray]:
    """Dense Fortran-ordered ``(A, M)``, which LAPACK may overwrite in place
    instead of copying: the transposes of the (symmetric) C-ordered arrays."""
    return a.to_dense().T, m.to_dense().T


def _residuals(a: SymStencil, m: SymStencil,
               w: np.ndarray, v: np.ndarray) -> np.ndarray:
    if v.size == 0:
        return np.empty(0)
    return np.linalg.norm(a.matvec(v) - m.matvec(v) * w[None, :], axis=0)


def _sign_counts(pivots: np.ndarray, tol) -> tuple[np.ndarray, np.ndarray]:
    """The negative pivots and those within ``tol`` of zero along the last
    axis of ``pivots`` (``tol`` broadcast against it); a pivot that is not
    finite raises ``CompletenessError``."""
    if not np.isfinite(pivots).all():
        raise CompletenessError("an LDL^T pivot is not finite; inertia unavailable")
    return np.sum(pivots < -tol, axis=-1), np.sum(np.abs(pivots) <= tol, axis=-1)


def _count_signs(pivots: np.ndarray, tol: float) -> tuple[int, int, int]:
    n_neg, n_zero = map(int, _sign_counts(pivots, tol))
    return n_neg, n_zero, len(pivots) - n_neg - n_zero


@dataclass(frozen=True)
class Factor:
    """A factorization of ``K``: its kind (``"lattice"``, the periodic block
    LDL^T, or ``"dense"``, Bunch-Kaufman of one block) and the matrix
    entries it stores; calling it solves ``K x = b`` for a vector or a block
    of right-hand sides."""

    kind: str
    entries: int
    solve: Callable[[np.ndarray], np.ndarray]

    def __call__(self, b: np.ndarray) -> np.ndarray:
        return self.solve(b)


def _d_eigenvalues(d: np.ndarray, off: np.ndarray) -> np.ndarray:
    """The eigenvalues of a Bunch-Kaufman factor's D, the real symmetric
    tridiagonal matrix of diagonal ``d`` and off-diagonal ``off``.  scipy
    refuses a D with a non-finite entry (the factor of a matrix with NaN or
    inf entries); its eigenvalues are then NaN, which ``_count_signs``
    refuses."""
    try:
        return sla.eigvalsh_tridiagonal(d, off)
    except ValueError:
        return np.full(len(d), np.nan)


def _ldl_routines(k: np.ndarray):
    """The kind (``"sy"`` real, ``"he"`` complex), LAPACK's Bunch-Kaufman
    factorization and solve, and the factorization's workspace size for
    matrices of the dtype and size of ``k`` (the last axis of a stack)."""
    kind = "he" if np.iscomplexobj(k) else "sy"
    trf, trs, trf_lwork = lapack.get_lapack_funcs(
        (f"{kind}trf", f"{kind}trs", f"{kind}trf_lwork"), (k,))
    return kind, trf, trs, int(trf_lwork(k.shape[-1], lower=1)[0].real)


def _ldl_factor(k: np.ndarray):
    """Inertia of a dense symmetric (real) or Hermitian (complex) matrix and
    a solve with it, from one Bunch-Kaufman LDL^T factorization that
    overwrites ``k``.

    D has 1x1 and 2x2 pivot blocks; in LAPACK's lower storage the negative
    ``ipiv`` entries come in pairs, one pair per 2x2 block.  D is then a
    Hermitian tridiagonal matrix that splits at its zero off-diagonals; it
    has the eigenvalues of the real one with the off-diagonal moduli (its
    diagonal when every pivot is 1x1), and those within ``PIVOT_TOL *
    max|K|`` of zero count as zero.
    """
    kind, trf, trs, lwork = _ldl_routines(k)
    scale = float(_pivot_scale(k))
    lu, piv, info = trf(k, lower=1, lwork=lwork, overwrite_a=1)
    if info < 0:
        raise ValueError(f"{kind}trf: illegal value in argument {-info}")
    return (_count_signs(_d_pivots(lu, piv), PIVOT_TOL * max(scale, np.finfo(float).tiny)),
            lambda b: trs(lu, piv, b, lower=1)[0])


def _pivot_scale(k: np.ndarray, axis=None):
    """``max |k|`` over ``axis``, the scale of a pivot tolerance; of a real
    ``k`` read as ``max(max k, -min k)``, exactly (negation is), with no
    ``|k|`` temporary."""
    if np.iscomplexobj(k):
        return np.max(np.abs(k), axis=axis)
    return np.maximum(np.max(k, axis=axis), -np.min(k, axis=axis))


def _d_pivots(lu: np.ndarray, piv: np.ndarray) -> np.ndarray:
    """The eigenvalues of D of one Bunch-Kaufman factor ``(lu, piv)`` in
    LAPACK's lower storage (``_ldl_factor``): its diagonal when every pivot
    is 1x1."""
    pivots = np.diag(lu).real
    starts = np.flatnonzero(piv < 0)[::2]
    if len(starts):
        off = np.zeros(len(pivots) - 1)
        off[starts] = np.abs(lu[starts + 1, starts])
        pivots = _d_eigenvalues(pivots.copy(), off)
    return pivots


def _stack_inertia(lu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(n_neg, n_zero)`` of each matrix of a stack ``lu`` of symmetric
    (real) or Hermitian (complex) matrices, each Fortran-ordered, as
    ``_ldl_factor`` counts them one by one: one bare ``?sytrf``/``?hetrf``
    per matrix, which overwrites it in place, then every pivot read and
    counted in one pass.  Only a factor with a 2x2 pivot block has its D
    split by ``_d_eigenvalues``; the others' pivots are their diagonals."""
    if not lu.swapaxes(1, 2).flags.c_contiguous:
        raise ValueError("the matrices of the stack are not Fortran-ordered")
    kind, trf, _, lwork = _ldl_routines(lu)
    scale = _pivot_scale(lu, axis=(1, 2))
    piv = np.empty(lu.shape[:2], dtype=np.int32)
    for c in range(len(lu)):
        _, piv[c], info = trf(lu[c], lower=1, lwork=lwork, overwrite_a=1)
        if info < 0:
            raise ValueError(f"{kind}trf: illegal value in argument {-info}")
    pivots = np.diagonal(lu, axis1=1, axis2=2).real.copy()
    for c in np.flatnonzero(np.any(piv < 0, axis=1)).tolist():
        pivots[c] = _d_pivots(lu[c], piv[c])
    return _sign_counts(pivots, PIVOT_TOL * np.maximum(scale, np.finfo(float).tiny)[:, None])


# ---------------------------------------------------------------------------
# stencil pencils: a periodic block LDL^T over lattice rows


class _Shifted:
    """``K = A - shift M``, never formed: the union of A's and M's offsets,
    and K's blocks on it built on demand, entry by entry ``(0 + A) + (-shift)
    M`` as a stencil summed from A and M would hold them."""

    def __init__(self, a: SymStencil, m: SymStencil, shift: float):
        self.a, self.m, self.shift = a, m, shift
        self.lattice, self.n_cells, self.n_loc = a.lattice, a.n_cells, a.n_loc
        self.offsets, slot = _residues(np.concatenate([a.offsets, m.offsets]), a.lattice)
        self.reached = _reached_cells(self.offsets, self.lattice)
        # per offset of K, its offset in A and in M (-1 where they have none)
        self._of = []
        for part in np.split(slot, [len(a.offsets)]):
            of = np.full(len(self.offsets), -1)
            of[part] = np.arange(len(part))
            self._of.append(of)

    def values(self, cells: np.ndarray, s: int) -> np.ndarray:
        """``(len(cells), n_loc, n_loc)``: K's blocks of the row cells
        ``cells`` at its offset ``s``."""
        out = np.zeros((len(cells), self.n_loc, self.n_loc))
        for stencil, of, scale in zip((self.a, self.m), self._of, (1.0, -self.shift)):
            if of[s] >= 0:
                out += scale * stencil.blocks[cells if len(stencil.blocks) > 1 else 0, of[s]]
        return out

    def max_abs(self) -> float:
        """``max |K|``, one offset at a time."""
        cells = np.arange(max(len(self.a.blocks), len(self.m.blocks)))
        return max(float(_pivot_scale(self.values(cells, s)))
                   for s in range(len(self.offsets)))

    def block_row(self, blocking: _Blocking, j: int):
        """The dense C-ordered blocks of K's block row ``j`` in ``blocking``:
        its diagonal block and, but for the border (``j`` the last), its
        coupling ``K[j, next + border]`` above the diagonal (columns of the
        next block first; the block before the border couples to the border
        only), else None.  They are filled one offset at a time, so no
        temporary is as large as K's stencil."""
        steps, size, nl = len(blocking.sizes) - 1, blocking.sizes[0], self.n_loc
        pos = np.empty(self.n_cells, dtype=int)
        pos[blocking.order] = np.arange(self.n_cells)
        block = np.minimum(pos // size, steps)
        cells = blocking.order[j * size:j * size + blocking.sizes[j]]
        reached = self.reached[cells]
        col, col_at = block[reached], (pos - block * size)[reached]

        def fill(width, at, cols):
            out = np.zeros((len(cells), nl, width, nl))
            for s in range(len(self.offsets)):
                rows = np.flatnonzero(at[:, s])
                out[rows, :, cols[rows, s], :] = self.values(cells[rows], s)
            return out.reshape(len(cells) * nl, -1)

        diag = fill(len(cells), col == j, col_at)
        if j == steps:
            return diag, None
        nxt = size if j < steps - 1 else 0  # the border's columns after the next's
        return diag, fill(nxt + blocking.sizes[-1], col > j, col_at + nxt * (col == steps))


def _centered(d: np.ndarray, n: int) -> np.ndarray:
    """The residues of ``d`` modulo ``n`` in ``(-n/2, n/2]``."""
    d = d % n
    return np.where(d > n // 2, d - n, d)


@dataclass(frozen=True)
class _Blocking:
    """The lattice cells in the order ``order``, cut into consecutive blocks
    of ``sizes`` cells; the last block is the border, the others its chain."""

    order: np.ndarray
    sizes: tuple[int, ...]
    n_loc: int

    def _widths(self) -> tuple[int, int]:
        return self.sizes[0] * self.n_loc, self.sizes[-1] * self.n_loc

    @property
    def flops(self) -> float:
        """Flops of the block elimination (of one block: Bunch-Kaufman), the
        triangular solves counted twice: OpenBLAS runs them at less than
        half the rate of the products (17 against 47 GFlop/s at 288 x 576,
        one thread of a Xeon)."""
        b, c = self._widths()
        if len(self.sizes) == 1:
            return c**3 / 3
        # Bunch-Kaufman, the triangular solve for the border coupling and
        # the border update; with a next block also the solve for its
        # coupling, its update and its border coupling's
        last = b**3 / 3 + 2 * b * b * c + 2 * b * c * c
        inner = last + 4 * b**3 + 2 * b * b * c
        return (len(self.sizes) - 2) * inner + last + c**3 / 3

    @property
    def entries(self) -> int:
        """Stored entries: the unit triangles of the factored Schur blocks
        and border, packed (``w (w + 1) / 2`` for a block ``w`` wide); of one
        block, its dense Bunch-Kaufman factor.  The couplings the lattice
        factor keeps beside them are K's own sparse blocks, not counted."""
        b, c = self._widths()
        steps = len(self.sizes) - 1
        if not steps:
            return c * c
        return steps * b * (b + 1) // 2 + c * (c + 1) // 2


def _row_blocking(k: _Shifted, axis: int, shear: int, rows: int) -> _Blocking:
    """The lattice rows along ``axis`` with ``shear``, ``rows`` to a block
    and the remainder in the last.

    Such a row holds the cells ``(u, v)`` (``u`` the coordinate on ``axis``)
    of one ``(u - shear v) mod n_u``, ordered by ``v``; ``shear n_v = 0 (mod
    n_u)`` makes it a translation invariant, so an offset ``(du, dv)``
    crosses ``du - shear dv`` rows (modulo ``n_u``).
    """
    n_u, n_v = k.lattice[axis], k.lattice[1 - axis]
    row, v = np.divmod(np.arange(k.n_cells), n_v)
    u = (row + shear * v) % n_u
    cells = u * k.lattice[1] + v if axis == 0 else v * k.lattice[1] + u
    count = max(n_u // rows, 1)
    sizes = (rows * n_v,) * (count - 1) + ((n_u - (count - 1) * rows) * n_v,)
    return _Blocking(cells, sizes, k.n_loc)


def _blockings(k: _Shifted):
    """The candidate layouts of ``k``: one block, then per axis and
    admissible shear the lattice rows in blocks of ``R`` rows, ``R`` the
    stencil's reach across rows.  A block then couples only to its two
    neighbours, and the blocks form a periodic block-tridiagonal matrix."""
    yield _Blocking(np.arange(k.n_cells), (k.n_cells,), k.n_loc)
    for axis in (0, 1):
        n_u, n_v = k.lattice[axis], k.lattice[1 - axis]
        du, dv = k.offsets[:, axis], k.offsets[:, 1 - axis]
        for shear in range(n_u):
            if shear * n_v % n_u == 0:
                reach = max(int(np.max(np.abs(_centered(du - shear * dv, n_u)))), 1)
                if n_u // reach > 1:
                    yield _row_blocking(k, axis, shear, reach)


class _BunchKaufman:
    """``S = P L D L^T P^T`` of a dense symmetric block, by LAPACK ``dsytrf``
    (overwriting ``s``) converted by ``dsyconv``, so that a solve is two
    Level-3 triangular solves around ``D^{-1}``, as in LAPACK's ``dsytrs2``:
    ``back(scale(forward(g)))``.  ``pivots`` are the eigenvalues of D.

    The unit triangle ``L`` is held whole, and solved with by ``dtrsm``,
    until ``pack`` keeps it in LAPACK's rectangular full packed form
    (``dtrttf``), half its entries, solved with by ``dtfsm``."""

    def __init__(self, s: np.ndarray):
        n = len(s)
        lwork = int(lapack.dsytrf_lwork(n, lower=1)[0])
        ldu, ipiv, info = lapack.dsytrf(s.T, lower=1, lwork=lwork, overwrite_a=1)
        if info < 0:
            raise ValueError(f"dsytrf: illegal value in argument {-info}")
        self.low, off, _ = lapack.dsyconv(ldu, ipiv, lower=1, overwrite_a=1)
        self.packed = None
        d, off = np.diag(self.low).copy(), off[:-1]
        self.pivots = _d_eigenvalues(d, off)
        # D^{-1}: 1 / d on the 1x1 pivots, [[p0, q], [q, p1]] on the 2x2
        # ones, inverted scaled by their off-diagonal as in dsytrs2
        one, two = np.flatnonzero(ipiv > 0), np.flatnonzero(ipiv < 0)[::2]
        dk1, dk = d[two] / off[two], d[two + 1] / off[two]
        scale = off[two] * (dk1 * dk - 1.0)
        inv = np.empty(n)
        inv[one] = 1.0 / d[one]
        inv[two], inv[two + 1] = dk / scale, dk1 / scale
        self.inv, self.two, self.q = inv[:, None], two, -1.0 / scale[:, None]
        # P^T b: LAPACK's row interchanges, in order
        perm, piv, j = list(range(n)), ipiv.tolist(), 0
        while j < n:
            step = 1 if piv[j] > 0 else 2
            other = abs(piv[j + step - 1]) - 1
            perm[j + step - 1], perm[other] = perm[other], perm[j + step - 1]
            j += step
        self.perm = np.array(perm)

    def pack(self) -> None:
        """Keep ``L`` packed only, and release the dense block."""
        self.packed = lapack.dtrttf(self.low, uplo="L")[0]
        self.low = None

    def _triangular(self, y: np.ndarray, trans: str) -> np.ndarray:
        """``op(L)^{-1} y``, overwriting ``y``.  The whole ``L`` solves the
        elimination's wide C-ordered ``y`` from the right, on its transpose
        (``dtrsm``); the packed one solves from the left on Fortran-ordered
        columns (``dtfsm``; ``y`` copied if it is not), 1.5-1.8x faster than
        from the right for two columns (288 to 800 rows, one thread of a
        Xeon)."""
        if self.low is not None:
            return blas.dtrsm(1.0, self.low, y.T, side=1, lower=1,
                              trans_a=int(trans == "N"), diag=1, overwrite_b=1).T
        return lapack.dtfsm(1.0, self.packed, np.asfortranarray(y), uplo="L",
                            trans=trans, diag="U", overwrite_b=1)

    def forward(self, g: np.ndarray) -> np.ndarray:
        """``L^{-1} P^T g`` for a block of columns ``g``."""
        return self._triangular(np.take(g, self.perm, axis=0), "N")

    def scale(self, y: np.ndarray) -> np.ndarray:
        """``D^{-1} y`` for a block of columns ``y``."""
        z, two = self.inv * y, self.two
        z[two] += self.q * y[two + 1]
        z[two + 1] += self.q * y[two]
        return z

    def back(self, z: np.ndarray) -> np.ndarray:
        """``P L^{-T} z``, overwriting ``z``."""
        z = self._triangular(z, "T")
        out = np.empty(z.shape)
        out[self.perm] = z
        return out

    def solve(self, g: np.ndarray) -> np.ndarray:
        """``S^{-1} g`` for a block of columns ``g``."""
        return self.back(self.scale(self.forward(g)))


def _coupling(k: np.ndarray) -> tuple[sp.csr_matrix, sp.csc_matrix]:
    """A block of K as CSR, and its transpose: a CSC view of the same
    arrays."""
    csr = sp.csr_matrix(k)
    return csr, csr.T


class _LatticeLDL:
    """The LDL^T of ``K`` (a ``_Shifted`` pencil) that ``blocking`` makes
    periodic block-tridiagonal, and its solve.

    Ordered chain first, border last, ``K = [[T, G], [G^T, B]]``: ``T`` is
    the block-tridiagonal chain of the blocks but the border, coupled by
    ``E_j = K[j, j+1]``, and ``G = K[T, B]`` is nonzero only in the chain's
    first and last block rows.  Block ``j`` of the chain is eliminated in
    turn: Bunch-Kaufman ``S_j = P L D L^T P^T`` of its Schur block, then
    ``W = L^{-1} P^T K[j, i]`` for the next block and the border ``i`` (one
    triangular solve, on the whole ``L``) updates the next block, the next
    block's border coupling and the border by ``- W^T D^{-1} W``.  The
    border then holds its Schur complement ``B~ = B - G^T T^{-1} G``,
    factored last.  Only the pivot blocks are kept, each ``L`` packed
    (``_BunchKaufman.pack``), with CSR copies of K's couplings and their
    transposes (``_coupling``): ``E_j`` in ``chain``, and ``G_0`` and
    ``G_{s-1}`` with their block in ``edges``, taken before any update
    reaches them.  ``W`` and ``D^{-1} W`` are per-step temporaries.
    K's blocks are built from A's and M's when the elimination is one step
    from them (``_Shifted.block_row``), so besides the border only the
    block being eliminated and the next one are ever dense.  By
    Haynsworth's inertia additivity the inertias of the ``S_j`` and of
    ``B~`` sum to K's.  A pivot within ``PIVOT_TOL * max|K|`` of zero in any
    block but the border means the elimination broke down, and raises.
    """

    def __init__(self, k: _Shifted, blocking: _Blocking):
        self.order, self.n_loc = blocking.order, k.n_loc
        tol = PIVOT_TOL * max(k.max_abs(), np.finfo(float).tiny)
        steps = len(blocking.sizes) - 1
        border, _ = k.block_row(blocking, steps)
        width = len(border)
        diag, up = k.block_row(blocking, 0)
        self.factors, self.chain, self.edges = [], [], []
        if steps:
            self.edges.append((0, *_coupling(up[:, -width:])))
        for j in range(steps):
            nxt = up.shape[1] - width
            if nxt:
                self.chain.append(_coupling(up[:, :nxt]))
            factor = _BunchKaufman(diag)
            if np.any(np.abs(factor.pivots) <= tol):
                raise CompletenessError(
                    f"lattice LDL^T broke down: a pivot of block {j} of "
                    f"{steps + 1} is within tolerance of zero; inertia "
                    f"unavailable")
            w = factor.forward(up)
            v = factor.scale(w)
            factor.pack()
            del diag, up  # released before the next block row is built
            if nxt:
                diag, up = k.block_row(blocking, j + 1)
                if j + 1 == steps - 1:  # the last block's border coupling
                    self.edges.append((j + 1, *_coupling(up)))
                update = w[:, :nxt].T @ v
                diag -= update[:, :nxt]
                up[:, -width:] -= update[:, nxt:]
            border -= w[:, nxt:].T @ v[:, nxt:]
            self.factors.append(factor)
        factor = _BunchKaufman(border)
        factor.pack()
        self.factors.append(factor)
        self.inertia = tuple(map(sum, zip(*(_count_signs(p.pivots, tol)
                                            for p in self.factors))))
        self.ends = np.cumsum(np.multiply(blocking.sizes, k.n_loc))[:-1]

    def _chain_solve(self, parts: list) -> list:
        """``T^{-1}`` of the chain's blocks of columns ``parts`` (replaced in
        the list): the forward sweep ``u_j = S_j^{-1} (b_j - E_{j-1}^T
        u_{j-1})``, then the back sweep ``x_j = u_j - S_j^{-1} E_j
        x_{j+1}``."""
        for j, factor in enumerate(self.factors[:-1]):
            if j:
                parts[j] = parts[j] - self.chain[j - 1][1] @ parts[j - 1]
            parts[j] = factor.solve(parts[j])
        for j in reversed(range(len(self.chain))):
            parts[j] = parts[j] - self.factors[j].solve(self.chain[j][0] @ parts[j + 1])
        return parts

    def __call__(self, b: np.ndarray) -> np.ndarray:
        """``K^{-1} b`` by the Schur complement on the border: ``y = T^{-1}
        b_T``, ``x_B = B~^{-1} (b_B - G^T y)``, ``x_T = T^{-1} (b_T - G
        x_B)``."""
        cols = b.reshape(len(self.order), self.n_loc, -1)
        parts = np.split(cols[self.order].reshape(-1, cols.shape[-1]), self.ends)
        chain, rhs = parts[:-1], parts[-1]
        y = self._chain_solve(list(chain))
        for j, g, g_t in self.edges:
            rhs = rhs - g_t @ y[j]
        x = self.factors[-1].solve(rhs)
        for j, g, _ in self.edges:
            chain[j] = chain[j] - g @ x
        out = np.empty(cols.shape)
        out[self.order] = np.concatenate(self._chain_solve(chain) + [x]).reshape(cols.shape)
        return out.reshape(b.shape)


def shifted_inertia(a, m, shift: float):
    """Inertia of ``K = A - shift * M`` and a solve with K (a ``Factor``),
    from one factorization.

    By Sylvester's law ``(n_neg, n_zero, n_pos)`` counts the eigenvalues of
    the pencil (A, M) below, at and above ``shift``.  A and M are symmetric
    stencils on one lattice, or matrices (``_as_pencil``).  K is never
    formed (``_Shifted``): it is factored straight from the stencil blocks,
    in the layout over lattice rows of fewest flops (``_Blocking.flops``).
    A layout whose pivot blocks would store more than ``FACTOR_BUDGET``
    entries (``_Blocking.entries``) is refused (``CompletenessError``).  The
    layout of one block, which a matrix always takes, is factored by dense
    Bunch-Kaufman (``_ldl_factor``), any other by a periodic block LDL^T
    (``_LatticeLDL``).  A factor without
    pivots on the shift must solve ``K z = r`` for a fixed random ``r`` to a
    normwise backward error ``||r - K z|| / (||K|| ||z|| + ||r||)`` of at
    most ``BACKWARD_TOL`` (infinity norms, ``||A|| + |shift| ||M||``
    bounding ``||K||``), else the inertia is unavailable
    (``CompletenessError``).  The solve takes a vector or a block of
    right-hand sides.
    """
    a, m = _as_pencil(a, m)
    k = _Shifted(a, m, shift)
    blocking = min(_blockings(k), key=lambda blocks: blocks.flops)
    if blocking.entries > FACTOR_BUDGET:
        raise CompletenessError(
            f"the factor of A - {shift:.6g} M would store {blocking.entries} "
            f"entries ({8 * blocking.entries} bytes) in its pivot blocks, over "
            f"the budget of {FACTOR_BUDGET}; inertia unavailable")
    if len(blocking.sizes) == 1:
        # the transpose of the symmetric C-ordered K is K in the Fortran
        # order LAPACK factors in place
        inertia, solve = _ldl_factor(k.block_row(blocking, 0)[0].T)
        factor = Factor("dense", blocking.entries, solve)
    else:
        ldl = _LatticeLDL(k, blocking)
        inertia, factor = ldl.inertia, Factor("lattice", blocking.entries, ldl)
    if inertia[1] == 0:
        r = np.random.default_rng(0).standard_normal(a.n)
        z = factor(r)
        residual = r - (a.matvec(z) - shift * m.matvec(z))
        norm_k = a.norm_inf() + abs(shift) * m.norm_inf()
        scale = norm_k * np.max(np.abs(z), initial=0.0) + np.max(np.abs(r), initial=0.0)
        error = np.max(np.abs(residual), initial=0.0) / max(scale, np.finfo(float).tiny)
        if not error <= BACKWARD_TOL:
            raise CompletenessError(
                f"the factorization of A - {shift:.6g} M solves with backward "
                f"error {error:.2e} > {BACKWARD_TOL:.0e}; inertia unavailable")
    return inertia, factor


def _check_edge(n_zero: int, lambda_max: float) -> None:
    """Raise unless no pivot of the certificate sits on the band edge."""
    if n_zero:
        raise CompletenessError(
            f"{n_zero} pivot(s) within tolerance of lambda_max="
            f"{lambda_max:.6g}; band boundary is ambiguous")


def _check_pairs(w: np.ndarray, resid: np.ndarray, req: BandRequest,
                 norm_a: float) -> None:
    """Raise unless every residual is within ``req.tolerance ||A||`` and no
    eigenvalue lies below the PSD floor ``-req.tolerance ||A||``."""
    limit = req.tolerance * max(norm_a, np.finfo(float).tiny)
    if np.any(resid > limit):
        raise CompletenessError(
            f"residual {resid.max():.3e} exceeds tolerance {limit:.3e}")
    if np.any(w < -req.tolerance * norm_a):
        raise CompletenessError(
            f"negative eigenvalue {w.min():.3e} below the PSD tolerance")


def band_eig(a, m, req: BandRequest, *, seed: int = 0) -> EigenSolution:
    """All eigenpairs of ``A x = lambda M x`` with ``lambda <= lambda_max``.

    A and M are symmetric stencils on one lattice, or matrices.  One
    factorization of ``K = A - lambda_max M`` (``shifted_inertia``: the
    lattice LDL^T, or dense Bunch-Kaufman for a layout of one block; its
    kind and size are recorded in the solution) serves the certificate and
    the solve.  Its inertia ``n_neg`` is the band count, and its solve
    drives a block shift-invert Lanczos iteration (``_lanczos``): every
    band eigenvalue maps to a negative ``mu = 1/(lambda - lambda_max)`` of
    ``K^{-1} M`` and every other one to a positive value, so the band is
    exactly the ``n_neg`` negative eigenvalues.  Only a band that fills
    (nearly) the whole space is solved by dense LAPACK instead, refused
    (``CompletenessError``) when the ``n x n`` pencil would store more than
    ``FACTOR_BUDGET`` entries.  The result
    is accepted only when the returned count matches the inertia and every
    residual is within tolerance.
    """
    a, m = _as_pencil(a, m)
    n = a.n
    norm_a = a.norm_inf()
    (n_neg, n_zero, _), solve = shifted_inertia(a, m, req.lambda_max)
    _check_edge(n_zero, req.lambda_max)
    if n_neg == 0:
        return EigenSolution(eigenvalues=np.empty(0), eigenvectors=np.empty((n, 0)),
                             residuals=np.empty(0), method="empty",
                             inertia_count=0, norm_a=norm_a, factor=solve.kind,
                             factor_entries=solve.entries)

    if n_neg + 8 >= n - 1:
        if n * n > FACTOR_BUDGET:
            raise CompletenessError(
                f"band of {n_neg} eigenvalues needs the dense {n}x{n} pencil, "
                f"which would store {n * n} entries, over the budget of "
                f"{FACTOR_BUDGET}")
        w, x = sla.eigh(*_dense_pencil(a, m), overwrite_a=True,
                        overwrite_b=True, subset_by_value=(-np.inf, req.lambda_max))
        method, solves, subspace = "dense-band", 0, n
    else:
        # the residual limit over ||K|| <= ||A|| + lambda_max ||M||
        limit = req.tolerance * max(norm_a, np.finfo(float).tiny)
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
    _check_pairs(w, resid, req, norm_a)
    return EigenSolution(eigenvalues=w, eigenvectors=x, residuals=resid,
                         method=method, inertia_count=n_neg, norm_a=norm_a,
                         solves=solves, subspace=subspace, factor=solve.kind,
                         factor_entries=solve.entries)


def _lanczos(m: SymStencil, solve, shift: float, n_neg: int,
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

    def __init__(self, n: int, cap: int, m: SymStencil, rng):
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
    Cholesky reduction of LAPACK's generalized driver, batched: with ``m[c]
    = L L^H``, the eigenpairs ``(w, y)`` of ``L^{-1} a[c] L^{-H}`` give the
    eigenvectors ``L^{-H} y``, ``m[c]``-orthonormal.  ``L^{-1}`` is formed
    once per pencil and applied by products; an ``m`` of one matrix is
    every pencil's, factored and inverted once."""
    try:
        low = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise CompletenessError("a mass symbol is not positive definite") from exc
    inv = np.linalg.inv(low)
    inv_h = inv.conj().swapaxes(-1, -2)
    w, y = np.linalg.eigh(inv @ a @ inv_h)
    return w, inv_h @ y


def _pencil_band(a: np.ndarray, m: np.ndarray,
                 lambda_max: float) -> tuple[np.ndarray, np.ndarray]:
    """The eigenpairs ``lambda <= lambda_max`` of one Hermitian pencil ``(a,
    m)``, real symmetric if ``a`` is real, by LAPACK's subset solver
    (``?sygvx``/``?hegvx``, ``range="V"`` over ``(-inf, lambda_max]``): the
    Cholesky reduction and the tridiagonal form as for the full spectrum,
    then bisection and inverse iteration for the eigenvalues in range alone.
    ``abstol = 2 * tiny`` is LAPACK's setting for the most accurate
    eigenvalues.  The vectors are ``m``-orthonormal columns."""
    kind = "he" if np.iscomplexobj(a) else "sy"
    gvx, = lapack.get_lapack_funcs((f"{kind}gvx",), (a, m))
    w, z, found, _, info = gvx(a, m, range="V", vl=-np.inf, vu=lambda_max,
                               abstol=2 * np.finfo(float).tiny)
    if info > len(a):
        raise CompletenessError("a mass symbol is not positive definite")
    if info:
        raise CompletenessError(f"{kind}gvx: {info} eigenvectors failed to converge")
    return w[:found], z[:, :found]


def _lattice_phase(k: int, n: int) -> np.ndarray:
    """``exp(2 pi i k j / n)`` for the cells ``j < n`` of one lattice axis."""
    return np.exp(2j * np.pi * (k * np.arange(n) % n) / n)


class _Lattice:
    """The wavevectors of an ``nx x ny`` cell lattice: ``k = (p, q)`` has
    flat index ``p*ny + q``, and ``conj[k]`` is the index of ``-k``."""

    def __init__(self, nx: int, ny: int):
        self.nx, self.ny = nx, ny
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


class _LatticePencil(_Lattice):
    """A translation-invariant pencil as its symbols on an ``nx x ny`` lattice.

    Raises ``CompletenessError`` if the stencil of A or M varies from cell
    to cell.  ``real`` and ``pair`` are the representatives ``k <= -k`` of
    the wavevector classes ``{k, -k}``, self-conjugate (``2k = 0``) and not,
    and ``reps`` the two in turn.  ``a_hat`` holds the symbols ``A(k)`` at
    ``reps``, the representative ``k`` in row ``row[k]``; the other
    wavevectors' symbols, the conjugates ``A(-k) = conj(A(k))``, are not
    formed.  ``m_hat`` holds M's symbols likewise, except for a cell-local
    M (its one offset is the cell itself): its symbol is the same block at
    every wavevector, formed once and kept as that one ``(n_loc, n_loc)``
    block, which broadcasts against a stack of A's.  ``symbols`` reads
    both at any representatives.  ``a_abs`` and ``m_abs`` are the
    stencils' blocks summed in modulus over the offsets, ``|A|`` and
    ``|M|`` folded onto one cell; ``gamma`` is the rounding constant of
    ``bounds``.
    """

    def __init__(self, a: SymStencil, m: SymStencil):
        super().__init__(*a.lattice)
        for name, s in (("A", a), ("M", m)):
            if s.blocks.shape[0] != 1:
                raise CompletenessError(
                    f"{name} is not invariant under translations of the "
                    f"{self.nx}x{self.ny} cell lattice: its stencil varies from "
                    f"cell to cell")
        ks = np.arange(len(self.conj))
        self.real = np.flatnonzero(self.conj == ks)
        self.pair = np.flatnonzero(self.conj > ks)
        self.reps = np.concatenate([self.real, self.pair])
        self.row = np.zeros(len(ks), dtype=int)
        self.row[self.reps] = np.arange(len(self.reps))
        self.a_hat = a.symbols(self.reps)
        if np.any(m.offsets):
            self.m_hat = m.symbols(self.reps)
        else:
            self.m_hat = m.symbols(self.reps[:1])[0]
        self.a_abs, self.m_abs = (np.abs(s.blocks[0]).sum(axis=0) for s in (a, m))
        offsets = max(len(a.offsets), len(m.offsets))
        self.gamma = (133 + offsets + 1.5 * a.n_loc) * (np.finfo(float).eps / 2)

    def symbols(self, k) -> tuple[np.ndarray, np.ndarray]:
        """``(A(k), M(k))`` at the representative ``k`` or the array of
        representatives ``k`` (a stack); a cell-local M's is its one block."""
        return self._rows(self.row[k])

    def group(self, real: bool) -> tuple[np.ndarray, np.ndarray]:
        """``symbols`` of every class of a group, the self-conjugate ones
        (``real``) or the pairs, as views of the symbol stacks."""
        split = len(self.real)
        return self._rows(slice(0, split) if real else slice(split, None))

    def _rows(self, rows) -> tuple[np.ndarray, np.ndarray]:
        return self.a_hat[rows], self.m_hat if self.m_hat.ndim == 2 else self.m_hat[rows]

    def bounds(self, k, w: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Upper bounds on ``||A x - w_j M x||_2`` for the stored columns
        ``x`` that ``real_waves(k, v)`` makes of each block eigenpair ``(w_j,
        v_j)`` (the two columns of a pair share one), read on the block
        alone: the symbol residual ``||A(k) v_j - w_j M(k) v_j||`` plus the
        rounding term ``gamma G_j``, ``G_j = ||(|A| + |w_j| |M|) |v_j|||``
        with ``|A|`` and ``|M|`` folded onto a cell (``a_abs``, ``m_abs``).
        ``k`` is one class (``w`` of shape ``(c,)``, ``v`` of ``(n_loc,
        c)``) or an array of classes all self-conjugate or all not, bounded
        in one batch (``w`` of ``(len(k), c)``, ``v`` of ``(len(k), n_loc,
        c)``); each class's bounds are those of its own call.

        *Symbol residual.*  Let ``x`` be the exact real wave of ``v``: exact
        phases ``phi_c = exp(i k . c)`` over the ``N = nx ny`` cells ``c``,
        exact arithmetic.  On the Bloch wave ``phi_c v / sqrt(N)`` the
        pencil acts as ``(A(k), M(k))``, so its residual is ``phi_c r /
        sqrt(N)``, ``r = A(k) v - w M(k) v``, of norm ``||r||``.  A
        self-conjugate ``k`` has ``phi_c = +-1`` and ``x`` is that wave.
        Otherwise ``x`` is ``sqrt(2)`` times its real or imaginary part, and
        so is the residual of ``x``; as ``sum_c phi_c^2 = 0`` for ``2k !=
        0``, ``sum_c |sqrt(2) Re(phi_c z)|^2 / N = |z|^2 + Re(z^2 sum_c
        phi_c^2) / N = |z|^2`` (likewise ``Im``): the residual of either
        column is exactly ``||r||``, and ``||x|| = ||v||``.

        *Rounding term.*  The residual of the stored column ``x^`` is at
        most ``||r|| + ||(A - w M)(x^ - x)||``, and ``||r||`` at most the
        computed symbol residual plus its errors.  With ``u`` the unit
        roundoff, ``n = n_loc`` and ``S`` the larger offset count of A and
        M, each error below is bounded entrywise by a multiple of ``(|A| + |w| |M|) |v|`` (in every cell,
        over ``sqrt(N)``, for the global vectors), hence in norm by that
        multiple of ``G``; constants are first order, rounded up (Higham,
        *Accuracy and Stability of Numerical Algorithms*, SIAM 2002, Lemma
        3.5 and (3.4) for complex products and sums):

        * the symbols (``Stencil.symbols``): the turns ``(p o_x mod nx) / nx
          + (q o_y mod ny) / ny < 2`` within ``2u`` relative, times ``2
          fl(pi)`` (``0.36u``) in one rounding, so angles within ``3.36u * 4
          pi < 42.3u``; cosine and sine within an ulp: phases within
          ``44u``; the complex sum over the offsets ``(S + 2)u``;
        * the block products with ``v`` (complex sums of ``n`` terms)
          ``(n + 2)u``, the scaling by ``w`` and the difference ``2u``;
        * the norm of ``r``: ``(n + 3)u / 2`` of ``||r||``, which is at most
          ``G``;
        * the real waves (``real_waves``): the phase of each lattice axis,
          ``2 pi m / n`` with ``m < n`` by two products and numpy's rounded
          reciprocal of ``n``, within ``3.36u * 2 pi + sqrt(2)u < 22.6u``;
          their product ``2 * 22.6u + 2 sqrt(2)u``, the scaling by ``1 /
          sqrt(N)`` ``3u``, the product with ``v`` ``2 sqrt(2)u`` and with
          ``sqrt(2)`` ``2u``: each entry of ``x^ - x`` within ``56u sqrt(2)
          |v| / sqrt(N)`` (a real or imaginary part is at most the modulus),
          so ``||(A - w M)(x^ - x)|| <= 79.2u G``;
        * the sum of the bound ``1u``, and ``1u`` for the second-order terms.

        In all ``gamma = (133 + S + 1.5 n) u``.  The same terms bound
        ``||r||`` from above by the residual of ``x^`` plus ``gamma G``, so
        the bound exceeds it by at most ``2 gamma G``.  As ``|A|`` is
        symmetric, ``G <= (||A||_inf + |w| ||M||_inf) ||v||``.
        """
        a, m = self.symbols(k)
        if np.all(self.conj[k] == k):
            a, m = a.real, m.real
        w = w[..., None, :]
        size = np.abs(v)
        scale = self.a_abs @ size + np.abs(w) * (self.m_abs @ size)
        return (np.linalg.norm(a @ v - (m @ v) * w, axis=-2)
                + self.gamma * np.linalg.norm(scale, axis=-2))


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
    certified like ``band_eig``'s, and the certificate comes first: the LDL^T
    inertia of each class's block ``A(k) - lambda_max M(k)``
    (``_class_inertia``: per group of classes one stack, one bare LAPACK
    factorization per class and one vectorized count) counts its band
    eigenvalues, and the counts sum to the inertia of ``A - lambda_max M``
    (Sylvester's law under the unitary lattice DFT).  No pivot may sit on
    the edge.  Only the classes with a positive count are then solved, each
    for its band pairs alone, by value (``_pencil_band``, LAPACK's subset
    solver over ``(-inf, lambda_max]``), and each must return exactly its
    count; the others hold no band pair.  The full spectrum solves every
    class in full, in one batch per group of classes (``_pencil_eigh``).
    A cell-local M's symbol is one block, formed once and shared by every
    class (``_LatticePencil``).  The residuals and the PSD floor must hold
    too.  Residuals bound ``||A x - lambda M x||`` of the stored vectors,
    rounding included, from each block alone (``_LatticePencil.bounds``,
    batched over the classes of a group, or of a group and a band count),
    and only for the returned columns: the symbol residual of the block
    eigenpair, which is exactly that of the exact real wave, plus an
    a-priori rounding term.

    The solution keeps its pairs in block form, ``n x n_loc`` coefficients
    for a full spectrum of any size.  Each column's lattice DFT
    at its own wavevector (``EigenSolution.coefficients``) is read off its
    block eigenvector ``v``: ``sqrt(N) v`` for a self-conjugate class, and
    ``sqrt(N/2) conj(v)`` and ``i sqrt(N/2) conj(v)`` for the real-part and
    imaginary-part columns of a pair (``N = nx ny``).  The ``n``-long
    global columns are formed from the block vectors only when
    ``eigenvectors`` is first read (``_BlochWaves``), and refused there past
    ``FACTOR_BUDGET`` entries.
    """
    pencil = _LatticePencil(a, m)
    real, pair = pencil.real, pencil.pair
    inertia = None
    if req is not None:
        neg_real, neg_pair = _class_inertia(pencil, req.lambda_max)
        inertia = int(np.sum(neg_real) + 2 * np.sum(neg_pair))
        real, pair = real[neg_real > 0], pair[neg_pair > 0]
        counts = (neg_real[neg_real > 0], neg_pair[neg_pair > 0])
    # per group of classes, self-conjugate then pairs: the kept block
    # eigenpairs (class, eigenvalue, bound, vector) and their columns
    cells = pencil.nx * pencil.ny
    col_k, col_w, col_r, coeff, kept = [], [], [], [], []
    for g, (ks, mult) in enumerate(((real, 1), (pair, 2))):
        a_k, m_k = pencil.group(mult == 1) if req is None else pencil.symbols(ks)
        if mult == 1:
            a_k, m_k = a_k.real, m_k.real
        if req is None:
            w, v = _pencil_eigh(a_k, m_k)
            bound = pencil.bounds(ks, w, v)
            k, w, bound = np.repeat(ks, w.shape[1]), w.ravel(), bound.ravel()
            v = v.swapaxes(1, 2).reshape(-1, a.n_loc)
        else:
            k, w, bound, v = _held_pairs(pencil, ks, a_k, m_k, counts[g],
                                         req.lambda_max)
        col_k.append(np.repeat(k, mult))
        col_w.append(np.repeat(w, mult))
        col_r.append(np.repeat(bound, mult))
        # the DFT at k of the columns that real_waves(k, v) makes
        if mult == 1:
            coeff.append(math.sqrt(cells) * v)
        else:
            half = math.sqrt(cells / 2) * v.conj()
            coeff.append(np.stack([half, 1j * half], axis=1).reshape(-1, a.n_loc))
        kept.append((k, v, mult))
    norm_a = a.norm_inf()

    # global ascending order, the two vectors of a pair next to each other
    col_w = np.concatenate(col_w)
    order = np.argsort(col_w, kind="stable")
    dest = np.empty_like(order)
    dest[order] = np.arange(len(order))
    w = col_w[order]
    wavevectors = np.concatenate(col_k)[order]
    resid = np.concatenate(col_r)[order]
    coeff = np.concatenate(coeff)[order]
    start, placed = 0, []
    for k, v, mult in kept:
        cols = dest[start:start + mult * len(k)].reshape(-1, mult)
        start += cols.size
        placed.append((k, v, cols))
    x = _BlochWaves((pencil.nx, pencil.ny), a.n, placed)

    if req is None:
        return EigenSolution(eigenvalues=w, eigenvectors=x, residuals=resid,
                             method="dense", norm_a=norm_a,
                             wavevectors=wavevectors, coefficients=coeff)
    _check_pairs(w, resid, req, norm_a)
    return EigenSolution(eigenvalues=w, eigenvectors=x, residuals=resid,
                         method="bloch", inertia_count=inertia, norm_a=norm_a,
                         wavevectors=wavevectors, coefficients=coeff)


def _held_pairs(pencil: _LatticePencil, ks: np.ndarray, a_k: np.ndarray,
                m_k: np.ndarray, counts: np.ndarray, lambda_max: float):
    """The band eigenpairs of the classes ``ks`` of one group, whose blocks
    are ``(a_k, m_k)`` (``m_k`` one matrix when M is cell-local) and whose
    inertia counts are ``counts``: per class ``_pencil_band``, which must
    find exactly its count, then the bounds of the returned columns, the
    classes of one count in one batch.  Returns the class, eigenvalue and
    bound of each block eigenpair and its vector as a row, the classes in
    turn.

    A batch holds the classes of one count alone because the column count
    picks BLAS's kernel (a matrix-vector product for one column) and
    numpy's summation order in the norms: so batched, each class's bounds
    are, bit for bit, those of its own ``bounds`` call."""
    pairs = []
    for c, (k, count) in enumerate(zip(ks.tolist(), counts.tolist())):
        w, v = _pencil_band(a_k[c], m_k if m_k.ndim == 2 else m_k[c], lambda_max)
        if len(w) != count:
            raise CompletenessError(
                f"found {len(w)} eigenvalues <= {lambda_max:.6g} in the block "
                f"of wavevector {divmod(k, pencil.ny)} but its inertia count "
                f"demands {count}")
        pairs.append((w, v.T))
    bounds = [np.empty(0)] * len(pairs)
    for count in np.unique(counts).tolist():
        at = np.flatnonzero(counts == count)
        w = np.stack([pairs[c][0] for c in at.tolist()])
        # each class's vectors as the Fortran-ordered block LAPACK returned
        v = np.stack([pairs[c][1] for c in at.tolist()]).swapaxes(1, 2)
        for c, bound in zip(at.tolist(), pencil.bounds(ks[at], w, v)):
            bounds[c] = bound
    return (np.repeat(ks, counts),
            np.concatenate([np.empty(0)] + [w for w, _ in pairs]),
            np.concatenate([np.empty(0)] + bounds),
            np.concatenate([np.empty((0, a_k.shape[-1]))] + [v for _, v in pairs]))


@dataclass(frozen=True)
class _BlochWaves:
    """The eigenvectors of a ``bloch_eig`` solution, formed when called: per
    group of classes, the class ``k[j]`` and block vector ``v[j]`` of each
    kept block eigenpair and its ``mult`` columns ``cols[j]`` of the
    ``n``-row array; per class, ``_Lattice.real_waves`` of its vectors, on
    the lattice of ``shape``.  An array of more than ``FACTOR_BUDGET``
    entries raises ``ValueError`` before it is allocated."""

    shape: tuple[int, int]
    n: int
    groups: list[tuple[np.ndarray, np.ndarray, np.ndarray]]

    def __call__(self) -> np.ndarray:
        columns = sum(cols.size for _, _, cols in self.groups)
        if self.n * columns > FACTOR_BUDGET:
            raise ValueError(
                f"the {self.n}x{columns} eigenvector array would store "
                f"{self.n * columns} entries, over the budget of {FACTOR_BUDGET}")
        lattice = _Lattice(*self.shape)
        x = np.empty((self.n, columns), order="F")
        for ks, v, cols in self.groups:
            for k in np.unique(ks).tolist():
                at = ks == k
                x[:, cols[at].ravel()] = lattice.real_waves(k, v[at].T)
        return x


def _class_inertia(pencil: _LatticePencil,
                   shift: float) -> tuple[np.ndarray, np.ndarray]:
    """The number of eigenvalues below ``shift`` in each class of
    ``pencil.real`` and of ``pencil.pair`` (representatives of
    self-conjugate classes and of class pairs): the negative Bunch-Kaufman
    inertia of the block ``A(k) - shift M(k)``, real for a self-conjugate
    ``k``.  A pair's two blocks are complex conjugates, so the inertia of
    ``A - shift M`` is the sum of the counts, a pair's twice.  ``bloch_eig``
    takes the counts before it solves any block, and solves only the
    classes whose count is positive.  No pivot may sit on the shift.  The
    blocks are formed in one batch, and each group's are factored and
    counted as one stack (``_stack_inertia``): one LAPACK call per class
    and no other Python work per class."""
    counts = []
    for real in (True, False):
        a_k, m_k = pencil.group(real)
        # A(k) - shift M(k), written straight into the matrices LAPACK
        # factors in place; a self-conjugate block is its real part
        blocks = np.empty(a_k.shape, dtype=float if real else complex).swapaxes(1, 2)
        shift_m = shift * m_k
        if real:
            np.subtract(a_k.real, shift_m.real, out=blocks)
        else:
            np.subtract(a_k, shift_m, out=blocks)
        counts.append(_stack_inertia(blocks))
    (neg_real, zero_real), (neg_pair, zero_pair) = counts
    _check_edge(int(np.sum(zero_real) + 2 * np.sum(zero_pair)), shift)
    return neg_real, neg_pair

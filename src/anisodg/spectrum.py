"""Analytic reference spectrum, Fourier-mode association, and study drivers.

For constant coefficients the eigenfunctions are the Fourier modes
``exp(i(mx + ny))`` with eigenvalues ``(b1 m + b2 n)^2``; the pairs
``(m, n)`` and ``(-m, -n)`` are degenerate, so a canonical representative
(``m > 0``, or ``m == 0 and n >= 0``) stands for both and real computed
eigenvectors are matched against it by projection magnitude.

Errors are relative to the exact eigenvalue, absolute where the exact
eigenvalue is zero (the constant mode).
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np
from scipy.special import spherical_jn

from .assembly import SymStencil, assemble_operator_set, build_reduced
from .basis import BasisSpec, dof_parallel, dof_perpendicular
from .eigensolve import BandRequest, EigenSolution, band_eig, bloch_eig
from .fields import CoefficientField, MagneticField
from .geometry import FieldDirection, Mesh, MeshConfig, build_mesh

log = logging.getLogger(__name__)

DEFAULT_MODE_BOUND = 20


def canonical_mode(m: int, n: int) -> tuple[int, int]:
    """The representative of the degenerate pair {(m, n), (-m, -n)}."""
    if m > 0 or (m == 0 and n >= 0):
        return m, n
    return -m, -n


def canonical_modes(m_max: int, n_max: int) -> list[tuple[int, int]]:
    out = [(0, n) for n in range(0, n_max + 1)]
    out += [(m, n) for m in range(1, m_max + 1) for n in range(-n_max, n_max + 1)]
    return out


@dataclass(frozen=True)
class ExactSpectrum:
    """omega^2 = (b1 m + b2 n)^2 over the canonical modes of a search box.

    ``entries`` is read-only (a copy of the mapping passed in): the
    spectrum of ``exact_spectrum`` is memoized and shared between solves.
    """

    b: FieldDirection
    m_max: int
    n_max: int
    entries: Mapping[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))

    def omega2(self, m: int, n: int) -> float:
        return self.entries[canonical_mode(m, n)]

    def box_omega2(self, m_max: int, n_max: int) -> np.ndarray:
        """``omega2`` of each mode of the box ``|m| <= m_max``, ``|n| <=
        n_max`` in ``FourierProjector.modes`` order, NaN where ``entries``
        has no value: read-only, and memoized per box on this spectrum."""
        table = self._box_tables.get((m_max, n_max))
        if table is None:
            table = np.array([self.entries.get(mode, math.nan)
                              for mode in _box_modes(m_max, n_max)[0]])
            table.flags.writeable = False
            self._box_tables[m_max, n_max] = table
        return table

    @cached_property
    def _box_tables(self) -> dict[tuple[int, int], np.ndarray]:
        return {}

    def band_modes(self, omega_max_sq: float) -> list[tuple[int, int]]:
        """Canonical modes with exact eigenvalue inside the band, sorted."""
        modes = [mode for mode, w2 in self.entries.items() if w2 <= omega_max_sq]
        return sorted(modes, key=lambda mn: (self.entries[mn], mn))

    def count_with_multiplicity(self, omega_max_sq: float) -> int:
        """Band count counting (m,n)/(-m,-n) twice and the zero mode once."""
        return sum(1 if mode == (0, 0) else 2
                   for mode in self.band_modes(omega_max_sq))


def exact_spectrum(b: FieldDirection, m_max: int = DEFAULT_MODE_BOUND,
                   n_max: int = DEFAULT_MODE_BOUND) -> ExactSpectrum:
    """The exact spectrum of the box ``|m| <= m_max``, ``|n| <= n_max``; one
    read-only table per direction and box is computed and shared."""
    if m_max < 0 or n_max < 0:
        raise ValueError("mode search bounds must be >= 0")
    return _exact_spectrum(b, m_max, n_max)


@lru_cache(maxsize=16)
def _exact_spectrum(b: FieldDirection, m_max: int, n_max: int) -> ExactSpectrum:
    """The spectrum of ``exact_spectrum``, memoized per direction and box,
    which every solve of a study or comparison shares."""
    entries = {(m, n): (b.b1 * m + b.b2 * n) ** 2
               for (m, n) in canonical_modes(m_max, n_max)}
    return ExactSpectrum(b=b, m_max=m_max, n_max=n_max, entries=entries)


#: Columns projected per batch: the DFT buffer holds ``16 * n`` bytes per
#: column, and the per-class products are ``n_loc x PROJECT_BLOCK`` GEMMs.
PROJECT_BLOCK = 64


def _tie_order(mode: tuple[int, int]) -> tuple[int, int, int]:
    """Exact amplitude ties go to the smaller ``|m|+|n|``, then ``m``, then ``n``."""
    return abs(mode[0]) + abs(mode[1]), mode[0], mode[1]


@lru_cache(maxsize=16)
def _box_modes(m_max: int, n_max: int):
    """The canonical modes of the search box in ``_tie_order``, as a tuple
    and as a read-only ``(modes, 2)`` array; memoized per box, which every
    projector of a study or sweep shares."""
    modes = tuple(sorted(canonical_modes(m_max, n_max), key=_tie_order))
    mn = np.array(modes)
    mn.flags.writeable = False
    return modes, mn


@lru_cache(maxsize=16)
def _residue_classes(m_max: int, n_max: int, nx: int, ny: int):
    """``(p, q, rows)`` per residue class ``(m mod nx, n mod ny) = (p, q)``
    of the box's modes, ``rows`` (read-only) indexing ``_box_modes``;
    memoized per box and lattice."""
    mn = _box_modes(m_max, n_max)[1]
    residue = (mn[:, 0] % nx) * ny + mn[:, 1] % ny
    classes = tuple((int(r) // ny, int(r) % ny, np.flatnonzero(residue == r))
                    for r in np.unique(residue))
    for _, _, rows in classes:
        rows.flags.writeable = False
    return classes


@lru_cache(maxsize=16)
def _class_rows(m_max: int, n_max: int, nx: int, ny: int):
    """Per wavevector ``k`` (flat ``p*ny + q``) of the lattice, the modes of
    its class ``{k, -k}``: ``(rows, conj, size, single)``.  ``rows[k]``
    holds the rows (indexing ``_box_modes``) of the residue classes of
    ``k`` and ``-k`` in ascending order, padded with row 0 to the largest
    class; ``conj[k]`` marks the rows of ``-k`` when ``-k != k``; ``size[k]``
    counts the rows held.  ``single[k]`` is, for ``k`` and then ``-k``, the
    position in ``rows[k]`` of the mode of a residue class that holds one
    mode alone, else -1.  All read-only; memoized per box and lattice."""
    residue_rows = {p * ny + q: rows
                    for p, q, rows in _residue_classes(m_max, n_max, nx, ny)}
    empty = np.empty(0, dtype=int)
    p, q = np.divmod(np.arange(nx * ny), ny)
    minus = ((-p) % nx * ny + (-q) % ny).tolist()
    parts = [(residue_rows.get(k, empty), residue_rows.get(c, empty) if c != k else empty)
             for k, c in enumerate(minus)]
    size = np.array([len(own) + len(other) for own, other in parts])
    rows = np.zeros((len(parts), size.max(initial=0)), dtype=int)
    conj = np.zeros(rows.shape, dtype=bool)
    single = np.full((len(parts), 2), -1)
    for k, (own, other) in enumerate(parts):
        both = np.concatenate([own, other])
        order = np.argsort(both)
        rows[k, :len(both)] = both[order]
        conj[k, :len(both)] = order >= len(own)
        where = np.argsort(order)  # the position of each of own, other
        for j, (start, part) in enumerate(((0, own), (len(own), other))):
            if len(part) == 1:
                single[k, j] = where[start]
    for table in (rows, conj, size, single):
        table.flags.writeable = False
    return rows, conj, size, single


class FourierProjector:
    """Projections of DG coefficient vectors onto Fourier modes.

    The moment of basis function ``P_a(xi) P_b(eta)`` against
    ``exp(i(mx+ny))`` factorizes over an affine cell into 1D integrals
    ``int P_a(t) exp(ict) dt = 2 i^a j_a(c)`` with spherical Bessel
    functions, so the moments of ``mesh.cell0`` are known in closed form.

    A ``Mesh`` is a lattice: cell ``i*ny + j`` is ``cell0`` translated by
    ``(i dx, j dy)``.  The moment of mode ``(m, n)`` against dof ``k`` of
    cell ``(i, j)`` therefore factors as

        phase0[mode] * local[mode, k] * exp(2 pi i (m i / nx + n j / ny)),

    where ``local`` holds the moments of ``cell0`` about its centre and
    ``phase0`` is the unit-modulus phase of that centre, which no amplitude
    depends on and which is therefore dropped.  ``local`` is built one
    residue class ``(m mod nx, n mod ny)`` at a time, on the first
    projection that reads it (``_moments``): a Bloch solution's projection
    reads only the classes of its wavevectors and their conjugates, the FFT
    path and a full spectrum read all.  Each row is computed elementwise,
    so a row is the same whichever others are built with it.  A block of vectors is
    projected by a 2D DFT over the two cell axes, then one product of
    ``local`` with the transformed block per residue class
    ``(m mod nx, n mod ny)``; no ``modes x n`` matrix is formed.  ``modes``
    is stored in the tie order of ``argmax_modes``, so the first maximum is
    the documented winner.

    A Bloch eigenvector of wavevector class ``{k, -k}``
    (``EigenSolution.wavevectors``) has a lattice DFT that vanishes outside
    ``k`` and ``-k``.  Only the modes of those two residue classes then get
    an amplitude, from its DFT coefficient at ``k`` and the conjugate at
    ``-k`` (the column is real).  Those coefficients have one source, the
    Bloch solution's own ``EigenSolution.coefficients``, read off its block
    eigenvectors (``associate_modes``); ``amplitudes`` and ``argmax_modes``
    project vectors onto every mode.  The classes are projected in a few
    batches, not one by one (``_argmax_classes``): the classes that hold
    one number of columns take one padded product of their modes' moments,
    listed per class in a table memoized per box and lattice
    (``_class_rows``), with their columns' coefficients.
    """

    def __init__(self, mesh: Mesh, spec: BasisSpec,
                 m_max: int = DEFAULT_MODE_BOUND, n_max: int = DEFAULT_MODE_BOUND):
        self.mesh = mesh
        self.spec = spec
        self.m_max = m_max
        self.n_max = n_max
        self.modes, self._mn = _box_modes(m_max, n_max)
        nx, ny = mesh.config.nx, mesh.config.ny
        self._classes = _residue_classes(m_max, n_max, nx, ny)
        self._residue_rows = {p * ny + q: rows for p, q, rows in self._classes}
        self._local = np.empty((len(self.modes), spec.n_loc), dtype=complex)
        self._built: set[int] = set()

    def _moments(self, residues: Iterable[int] | None = None) -> np.ndarray:
        """``local``, the ``(modes, n_loc)`` moments of ``cell0``, with the
        rows of the residue classes ``residues`` (flat ``p*ny + q``; default
        every class) built.  Each class's block of rows is built on its first
        request and kept; rows never requested are never built, so they hold
        garbage and must not be read."""
        keys = self._residue_rows.keys() if residues is None else residues
        todo = sorted(set(keys).intersection(self._residue_rows) - self._built)
        if todo:
            rows = np.concatenate([self._residue_rows[r] for r in todo])
            self._local[rows] = self._build_local(rows)
            self._built.update(todo)
        return self._local

    def _build_local(self, rows: np.ndarray) -> np.ndarray:
        """The moments of the modes ``modes[rows]``, ``(len(rows), n_loc)``:
        every step is elementwise in the mode, so a row does not depend on
        which others are built with it."""
        mesh, spec = self.mesh, self.spec
        mm, nn = self._mn[rows].T.astype(float)
        n_modes = len(rows)
        p_xi, p_eta = spec.p_xi, spec.p_eta

        cell0 = mesh.cell0
        hx, he = np.array(cell0.half_xi), np.array(cell0.half_eta)
        det = cell0.jacobian_det
        c_xi = mm * hx[0] + nn * hx[1]
        c_eta = mm * he[0] + nn * he[1]

        # (p_xi+1 + p_eta+1, n_modes): 2 * i^a * j_a(c) of both axes, the
        # degrees a of xi and then of eta, by one elementwise Bessel call
        a = np.concatenate([np.arange(p_xi + 1), np.arange(p_eta + 1)])[:, None]
        c = np.concatenate([np.broadcast_to(c_xi, (p_xi + 1, n_modes)),
                            np.broadcast_to(c_eta, (p_eta + 1, n_modes))])
        powers = np.array([1j ** k for k in a[:, 0].tolist()])[:, None]
        out = 2.0 * powers * spherical_jn(a, np.abs(c))
        # j_a is odd/even with the parity of a
        out = np.where((a % 2 == 1) & (c < 0), -out, out)
        f_xi, f_eta = out[:p_xi + 1], out[p_xi + 1:]
        return det * np.einsum("am,bm->mab", f_xi, f_eta).reshape(
            n_modes, spec.n_loc)

    def _columns(self, vecs: np.ndarray) -> np.ndarray:
        n = self.mesh.n_cells * self.spec.n_loc
        if vecs.shape[0] != n:
            raise ValueError(
                f"vector dimension {vecs.shape[0]} does not match the "
                f"{n} degrees of freedom")
        return vecs[:, None] if vecs.ndim == 1 else vecs

    def _project(self, block: np.ndarray) -> np.ndarray:
        """``(modes, b)`` amplitudes of the ``b`` columns of ``block``."""
        nx, ny = self.mesh.config.nx, self.mesh.config.ny
        cells = block.T.reshape(-1, nx, ny, self.spec.n_loc)
        # what[c, p, q, k] = sum_ij exp(2 pi i (p i / nx + q j / ny)) cells[c, i, j, k]
        what = np.fft.ifft2(cells, axes=(1, 2), norm="forward")
        out = np.empty((len(self.modes), block.shape[1]))
        local = self._moments()
        for p, q, rows in self._classes:
            out[rows] = np.abs(local[rows] @ what[:, p, q, :].T)
        return out

    def amplitudes(self, vecs: np.ndarray) -> np.ndarray:
        """|projection| onto each mode: ``(modes,)`` for a coefficient vector,
        ``(modes, k)`` for the ``k`` columns of a block."""
        vecs = np.asarray(vecs)
        block = self._columns(vecs)
        out = np.zeros((len(self.modes), block.shape[1]))
        for s in range(0, block.shape[1], PROJECT_BLOCK):
            out[:, s:s + PROJECT_BLOCK] = self._project(block[:, s:s + PROJECT_BLOCK])
        return out.reshape((len(self.modes),) + vecs.shape[1:])

    def argmax_modes(self, vecs: np.ndarray) -> tuple[list[tuple[int, int]], np.ndarray]:
        """Best mode and its amplitude for each column of ``vecs``; ties
        prefer small |m|+|n|, then small m.  A column with no projection
        onto any mode of the box has amplitude 0."""
        best, amps = self._argmax(vecs)
        return [self.modes[i] for i in best], amps

    def _argmax(self, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``argmax_modes`` with the modes as indices into ``modes``."""
        block = self._columns(np.asarray(vecs))
        best = np.zeros(block.shape[1], dtype=int)
        amps = np.zeros(block.shape[1])
        for s in range(0, block.shape[1], PROJECT_BLOCK):
            a = self._project(block[:, s:s + PROJECT_BLOCK])
            best[s:s + PROJECT_BLOCK] = a.argmax(axis=0)
            amps[s:s + PROJECT_BLOCK] = a.max(axis=0)
        return best, amps

    def _argmax_classes(self, coeff: np.ndarray, wavevectors: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
        """``_argmax`` of the columns whose DFT at their own wavevector is
        ``coeff``, projected onto the modes of their wavevector classes
        ``{k, -k}`` alone; a class that holds no mode of the box gives
        amplitude 0.

        The classes that hold one number of columns are projected in one
        batch: one product of their modes' moments (``_class_rows``,
        padded with zero moments) with their columns' coefficients, a mode
        of ``-k`` by its conjugate moments, ``|conj(local) x| = |local
        conj(x)|``.  The number of columns picks BLAS's kernel, hence a
        batch per number, and the mode of a residue class that holds one
        mode alone is projected by a vector product of its own: each
        amplitude is then, bit for bit, that of one product of the class's
        columns with the moments of each of its two residue classes."""
        nx, ny = self.mesh.config.nx, self.mesh.config.ny
        table, conj, size, single = _class_rows(self.m_max, self.n_max, nx, ny)
        classes, inverse, counts = np.unique(wavevectors, return_inverse=True,
                                             return_counts=True)
        p, q = np.divmod(classes, ny)
        local = self._moments(classes.tolist() + ((-p) % nx * ny + (-q) % ny).tolist())
        by_class = np.argsort(inverse, kind="stable")
        starts = np.cumsum(counts) - counts
        best = np.zeros(len(coeff), dtype=int)
        amps = np.zeros(len(coeff))
        for width in np.unique(counts).tolist():
            at = np.flatnonzero(counts == width)
            ks = classes[at]
            rows = table[ks, :size[ks].max()]
            if not rows.size:
                continue
            moments = local[rows]
            moments[np.arange(rows.shape[1]) >= size[ks][:, None]] = 0.0
            flip = conj[ks, :rows.shape[1]]
            moments[flip] = moments[flip].conj()
            cols = by_class[starts[at][:, None] + np.arange(width)]
            block = coeff[cols].swapaxes(1, 2)
            a = np.abs(moments @ block)
            for pos in single[ks].T:
                c = np.flatnonzero(pos >= 0)
                if len(c):
                    a[c, pos[c]] = np.abs(moments[c, pos[c], None] @ block[c])[:, 0]
            best[cols] = np.take_along_axis(rows, a.argmax(axis=1), axis=1)
            amps[cols] = a.max(axis=1)
        return best, amps


@dataclass(frozen=True)
class Association:
    index: int
    omega2_computed: float
    mode: tuple[int, int]
    amplitude: float
    omega2_exact: float | None
    error: float | None
    error_kind: str  # "relative", "absolute" or "none"


@dataclass(frozen=True, eq=False)
class Associations:
    """The rows of ``associate_modes``, kept as columns: per associated
    eigenpair its ``index``, ``omega2_computed``, mode (``best``, an index
    into ``modes``), ``amplitude``, ``omega2_exact``, ``error`` and
    ``error_kind`` (the exact and error columns are None without an exact
    spectrum).

    It reads as the list of its ``Association`` rows: ``len``, iteration,
    indexing, and ``==`` with a list or another ``Associations``.  The rows
    are formed on the first such read and kept; ``mode_error_table`` and
    ``max_band_mode_error`` reduce the columns, so a study forms none.
    """

    index: np.ndarray
    omega2_computed: np.ndarray
    best: np.ndarray
    modes: tuple[tuple[int, int], ...]
    amplitude: np.ndarray
    omega2_exact: np.ndarray | None
    error: np.ndarray | None
    error_kind: np.ndarray

    @cached_property
    def _rows(self) -> list[Association]:
        n = len(self.index)
        exact = [None] * n if self.omega2_exact is None else self.omega2_exact.tolist()
        error = [None] * n if self.error is None else self.error.tolist()
        return [Association(*row) for row in zip(
            self.index.tolist(), self.omega2_computed.tolist(),
            [self.modes[i] for i in self.best.tolist()], self.amplitude.tolist(),
            exact, error, self.error_kind.tolist())]

    def __len__(self) -> int:
        return len(self.index)

    def __iter__(self):
        return iter(self._rows)

    def __getitem__(self, i):
        return self._rows[i]

    def __eq__(self, other):
        if isinstance(other, (Associations, list)):
            return self._rows == list(other)
        return NotImplemented


def associate_modes(solution: EigenSolution, projector: FourierProjector,
                    exact: ExactSpectrum | None = None) -> Associations:
    """Associate each eigenpair with its dominant Fourier mode.

    An eigenvector with no projection onto any mode of the box gets no row.
    A Bloch solution (``solution.coefficients`` set, by ``bloch_eig``) is
    projected from its coefficients onto the modes of each column's own
    wavevector class ``{k, -k}`` alone, being orthogonal to every other
    mode, so its global eigenvectors are never formed; on a lattice wider
    than the box a class can hold no box mode, and its vectors get no row.
    Any other solution's eigenvectors are projected onto every mode by the
    FFT.  The rows are returned as columns (``Associations``).
    """
    if solution.coefficients is not None:
        best, amps = projector._argmax_classes(solution.coefficients,
                                               solution.wavevectors)
    else:
        best, amps = projector._argmax(solution.eigenvectors)
    index = np.flatnonzero(amps > 0.0)
    w2, best = solution.eigenvalues[index], best[index]
    columns = (index, w2, best, projector.modes, amps[index])
    if exact is None:
        return Associations(*columns, None, None, np.full(len(index), "none"))
    # the errors by the scalar IEEE ops
    w2_exact = exact.box_omega2(projector.m_max, projector.n_max)[best]
    if np.isnan(w2_exact).any():
        raise KeyError(projector.modes[best[np.argmax(np.isnan(w2_exact))]])
    zero = w2_exact == 0.0
    error = np.where(zero, np.abs(w2),
                     np.abs(w2 - w2_exact) / np.where(zero, 1.0, w2_exact))
    return Associations(*columns, w2_exact, error,
                        np.where(zero, "absolute", "relative"))


def max_band_mode_error(result: "BandResult") -> tuple[float, int]:
    """Max over band modes of each mode's best-association error.

    Every eigenpair is associated to one mode; per mode the association
    that ``mode_error_table`` picks represents it.  Unassociated
    band modes floor the error at 1 and are counted.  This is the one max
    band error: convergence studies trace it and the ``solve`` log reports
    it.  It is reduced on the columns of ``result.assoc``, forming no row.
    """
    if result.exact is None:
        raise ValueError("band mode errors need constant coefficients")
    assoc, omega_max_sq = result.assoc, result.setup.omega_max_sq
    rows = _mode_winners(assoc.best, assoc.amplitude, assoc.index)[1]
    in_band = assoc.omega2_exact[rows] <= omega_max_sq
    missing = len(result.exact.band_modes(omega_max_sq)) - int(np.count_nonzero(in_band))
    worst = float(np.max(assoc.error[rows][in_band], initial=0.0))
    return (max(worst, 1.0) if missing else worst), missing


#: Amplitudes within this relative distance of a mode's largest one count
#: as tied with it: the two members of a degenerate pair have amplitudes
#: that are equal in exact arithmetic and differ by round-off.
AMPLITUDE_TIE_RTOL = 1e-12


def _mode_winners(key: np.ndarray, amplitude: np.ndarray, index: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``key``s (sorted) and, for each, the position of the row
    that represents it: the largest amplitude wins, and among amplitudes
    tied with it (``AMPLITUDE_TIE_RTOL``) the smallest index, whatever the
    order of the rows."""
    keys, at = np.unique(key, return_inverse=True)
    largest = np.zeros(len(keys))
    np.maximum.at(largest, at, amplitude)
    tied = np.flatnonzero(amplitude >= (1.0 - AMPLITUDE_TIE_RTOL) * largest[at])
    tied = tied[np.lexsort((index[tied], at[tied]))]
    first = np.flatnonzero(np.diff(at[tied], prepend=-1))
    return keys, tied[first]


def mode_error_table(assoc: Associations) -> dict[tuple[int, int], Association]:
    """Best association per mode: the largest projection amplitude wins,
    and among amplitudes tied with it (``AMPLITUDE_TIE_RTOL``) the
    smallest index.  The columns are reduced, and only the winning rows
    are formed."""
    keys, rows = _mode_winners(assoc.best, assoc.amplitude, assoc.index)
    return {assoc.modes[k]: assoc[p] for k, p in zip(keys.tolist(), rows.tolist())}


# ---------------------------------------------------------------------------
# pipeline drivers


@dataclass(frozen=True)
class SolveSetup:
    """Everything needed for one band solve of the discretized problem."""

    mesh_config: MeshConfig
    spec: BasisSpec
    alpha: CoefficientField
    beta: CoefficientField
    eta_s: float = 6.0
    omega_max_sq: float = 0.2
    m_max: int = DEFAULT_MODE_BOUND
    n_max: int = DEFAULT_MODE_BOUND
    tolerance: float = 1e-10
    seed: int = 0
    n_quad: int | None = None
    band_margin: float = 1.0
    full_spectrum: bool = False

    @property
    def constant_coefficients(self) -> bool:
        return self.alpha.is_constant and self.beta.is_constant

    def dof(self) -> int:
        return dof_parallel(self.spec, self.mesh_config.nx) * \
            dof_perpendicular(self.spec, self.mesh_config.ny)


@dataclass
class BandResult:
    setup: SolveSetup
    mesh: Mesh
    solution: EigenSolution
    assoc: Associations
    exact: ExactSpectrum | None
    #: The stencil of A; its scalar CSR is expanded (once) only when read.
    a_matrix: SymStencil
    nnz_percent: float


def run_band_solve(setup: SolveSetup) -> BandResult:
    """geometry -> assembly -> band eigensolve -> Fourier association.

    Constant coefficients make the pencil commute with cell translations, so
    it is solved block by block over the lattice wavevectors (``bloch_eig``);
    variable coefficients go to the certified ``band_eig``.  The band is
    ``omega^2 <= omega_max_sq * max(band_margin, 1)``.

    With ``full_spectrum`` set the whole spectrum is computed and associated
    instead of just the band; studies use this to track band modes whose
    discrete eigenvalues sit far outside the band on coarse meshes.  It
    needs constant coefficients (a ``ValueError`` otherwise); its pairs stay
    in block form (``bloch_eig``) at any size.
    """
    if setup.full_spectrum and not setup.constant_coefficients:
        raise ValueError("the full spectrum is solved only for constant "
                         "coefficients")
    mesh = build_mesh(setup.mesh_config)
    b_field = MagneticField(b=setup.mesh_config.b, beta=setup.beta)
    ops = assemble_operator_set(mesh, setup.spec, setup.alpha, b_field,
                                setup.eta_s, setup.n_quad)
    a, m = build_reduced(ops)
    del ops  # only M, the pencil's, outlives the reduction
    req = None if setup.full_spectrum else BandRequest(
        lambda_max=setup.omega_max_sq * max(setup.band_margin, 1.0),
        tolerance=setup.tolerance)
    if setup.constant_coefficients:
        solution = bloch_eig(a, m, req)
    else:
        solution = band_eig(a, m, req, seed=setup.seed)
    projector = FourierProjector(mesh, setup.spec, setup.m_max, setup.n_max)
    exact = exact_spectrum(setup.mesh_config.b, setup.m_max, setup.n_max) \
        if setup.constant_coefficients else None
    assoc = associate_modes(solution, projector, exact)
    nnz = a.nnz_percent()
    log.info("solved %s %dx%d p=(%d,%d): DoF=%d nnzA=%.3f%% band count=%d",
             setup.mesh_config.alignment.value, setup.mesh_config.nx,
             setup.mesh_config.ny, setup.spec.p_xi, setup.spec.p_eta,
             setup.dof(), nnz, len(solution))
    return BandResult(setup=setup, mesh=mesh, solution=solution, assoc=assoc,
                      exact=exact, a_matrix=a, nnz_percent=nnz)


# ---------------------------------------------------------------------------
# studies


@dataclass
class ConvergenceRow:
    level: int
    nx: int
    ny: int
    dof: int
    max_band_error: float
    slope: float
    missing: int


def _loglog_slope(dof0, err0, dof1, err1) -> float:
    if dof1 == dof0 or err0 <= 0.0 or err1 <= 0.0:
        return 0.0
    return -(math.log(err1) - math.log(err0)) / (math.log(dof1) - math.log(dof0))


def convergence_study(setup: SolveSetup, levels: list[tuple[int, int]],
                      band_margin: float = 4.0,
                      _runner=None) -> list[ConvergenceRow]:
    """Max band error over a refinement sequence, with observed slopes.

    Each level rebuilds the setup with its (Nx, Ny); the eigensolve band is
    widened by ``band_margin`` so that poorly resolved band modes are still
    captured and their (large) errors reported.  A negative slope means the
    error grew under refinement and is flagged in the log.
    """
    if len(levels) < 2:
        raise ValueError("need at least two refinement levels")
    runner = _runner or _run_level
    rows: list[ConvergenceRow] = []
    for lvl, (nx, ny) in enumerate(levels):
        max_err, dof, missing = runner(setup, nx, ny, band_margin)
        slope = 0.0
        if rows:
            slope = _loglog_slope(rows[-1].dof, rows[-1].max_band_error,
                                  dof, max_err)
            if slope < 0.0:
                log.warning("error grew under refinement at level %d "
                            "(slope %.3g)", lvl, slope)
        rows.append(ConvergenceRow(level=lvl, nx=nx, ny=ny, dof=dof,
                                   max_band_error=max_err, slope=slope,
                                   missing=missing))
    return rows


#: Levels up to this size are solved for their full spectrum, so even badly
#: shifted band modes can be associated and their errors tracked; larger
#: ones solve the widened band.  The cap fixes the studies' results: with it
#: lifted, the default ``convergence`` (8x8, 16x16, 32x32 p7) reports other
#: errors at levels 1 and 2 (0.21666665 -> 0.21666662, 2.0277e-5 ->
#: 2.0639e-5), in 3.4x the time and 2.4x the peak memory.
FULL_SPECTRUM_CAP = 4096


def _run_level(setup: SolveSetup, nx: int, ny: int, band_margin: float):
    level_setup = replace(
        setup, mesh_config=replace(setup.mesh_config, nx=nx, ny=ny),
        band_margin=band_margin,
        full_spectrum=nx * ny * setup.spec.n_loc <= FULL_SPECTRUM_CAP)
    result = run_band_solve(level_setup)
    max_err, missing = max_band_mode_error(result)
    if missing:
        log.warning("level %dx%d: %d band modes not associated", nx, ny, missing)
    return max_err, level_setup.dof(), missing


def least_squares_slope(rows: list[ConvergenceRow]) -> float:
    """Least-squares fit of log(max band error) against log(DoF)."""
    x = np.log([r.dof for r in rows])
    y = np.log([max(r.max_band_error, np.finfo(float).tiny) for r in rows])
    coeff = np.polyfit(x, y, 1)
    return float(-coeff[0])


@dataclass
class CompareRow:
    mode: tuple[int, int]
    omega2_exact: float
    error_a: float
    error_b: float

    @property
    def improvement_decades(self) -> float:
        if self.error_a <= 0.0 or self.error_b <= 0.0:
            return 0.0
        return math.log10(self.error_b / self.error_a)


def compare_band_errors(result_a: BandResult, result_b: BandResult
                        ) -> list[CompareRow]:
    """Per-mode error pairs of two runs over the shared exact band.

    Row ``improvement_decades`` is ``log10(error_b / error_a)``: positive
    when run A is the more accurate one.
    """
    if result_a.exact is None or result_b.exact is None:
        raise ValueError("comparison needs constant-coefficient runs")
    table_a = mode_error_table(result_a.assoc)
    table_b = mode_error_table(result_b.assoc)
    omega_max_sq = result_a.setup.omega_max_sq
    rows = []
    for mode in result_a.exact.band_modes(omega_max_sq):
        ra, rb = table_a.get(mode), table_b.get(mode)
        if ra is None or rb is None or ra.error is None or rb.error is None:
            log.warning("mode %s missing from one side of the comparison", mode)
            continue
        rows.append(CompareRow(mode=mode, omega2_exact=result_a.exact.omega2(*mode),
                               error_a=ra.error, error_b=rb.error))
    return rows

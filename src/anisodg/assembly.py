"""Assembly of the mixed-form LDG operators as lattice stencils, and the
reduced system.

The weak form couples the parallel gradient u with phi through the u mass
``M_UV`` (exactly diagonal: Legendre basis, affine cells), the volume term
``A_UPsi`` of ``u * B . grad(psi)``, the interface term ``B_UPsi`` of ``{u}
* B . [psi]`` (their transposes couple back), the penalty ``B_PhiPsi`` of
``(eta_S / h_F) (B . [phi]) (B . [psi])`` and the alpha-weighted mass
``M_PhiPsi``.  Eliminating u gives the symmetric positive semidefinite

    A = C M_UV^{-1} C^T + B_PhiPsi,    C = A_UPsi - B_UPsi,

and ``A Phi = omega^2 M_PhiPsi Phi``.  Each interface sub-segment has its
own Gauss rule, mapped into both adjacent reference edges, so conforming and
split interfaces are alike; field-tangent edges are skipped (exactly zero).

The mesh is a lattice of one cell and each operator couples a cell to a few
fixed cell offsets, so each is a ``Stencil``: ``blocks[c, s]`` couples row
cell ``c`` to cell ``c + offsets[s]``.  With a constant coefficient all cells
carry the same blocks (``cells = 1``), integrated on ``mesh.cell0`` and one
face per template (``Mesh.templates``); else on every cell and face, in one
batched pass.  The interface and penalty terms pair the jump trace ``[+own,
-nbr]`` with the average ``[own, nbr] / 2`` or with itself; both are built
inside ``assemble_operator_set``, from its one pass over the crossing faces
(``_face_terms``, ``_penalty``).  Symmetric
operators (``SymStencil``) are symmetrized in place over offsets ``d, -d``
and dropped below ``DROP_TOL`` on their blocks, which each builder forms for
it alone.  ``build_reduced`` forms ``A`` by one
batched product per pair of offsets of ``C``.  Solves read the blocks:
their products, dense forms and (constant coefficients) symbols.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp

from .basis import BasisSpec, gauss_rule, tensor_basis_eval
from .fields import CoefficientField, MagneticField
from .geometry import ALIGNMENT_TOL, Faces, Mesh, _sides_apart

#: Assembled entries below this times the matrix max (for a ``SymStencil``,
#: the largest block entry before aliasing offsets are summed) are dropped.
DROP_TOL = 1e-15

#: Edge of the square tiles in which ``SymStencil`` symmetrizes and drops a
#: block: a tile and its transposed partner stay in cache.
_TILE = 64

#: The offset of a cell to itself, the only one of the volume terms.
_ORIGIN = np.zeros((1, 2), dtype=int)


class AssemblyError(RuntimeError):
    pass


def default_quad_points(spec: BasisSpec) -> int:
    """Default Gauss points per direction (and per interface sub-segment)."""
    return max(spec.p_xi, spec.p_eta) + 3


# ---------------------------------------------------------------------------
# lattice stencils


def _keys(offsets: np.ndarray, lattice: tuple[int, int]) -> np.ndarray:
    """``(o_x mod nx) * ny + (o_y mod ny)``: equal for offsets that alias."""
    return offsets[:, 0] % lattice[0] * lattice[1] + offsets[:, 1] % lattice[1]


def _residues(offsets: np.ndarray, lattice: tuple[int, int], closed: bool = False):
    """The sorted residues ``(K, 2)`` of ``offsets`` (and with ``closed`` of
    their negations) modulo the lattice, and the slot of each offset."""
    key = _keys(offsets, lattice)
    keys = np.unique(np.concatenate([key, _keys(-offsets, lattice)]) if closed else key)
    return np.stack(np.divmod(keys, lattice[1]), axis=1), np.searchsorted(keys, key)


def _reached_cells(offsets: np.ndarray, lattice: tuple[int, int]) -> np.ndarray:
    """``(nx*ny, S)``, read-only: the cell that each cell reaches by each of
    ``offsets`` on the lattice."""
    nx, ny = lattice
    i, j = np.divmod(np.arange(nx * ny), ny)
    cells = (i[:, None] + offsets[:, 0]) % nx * ny + (j[:, None] + offsets[:, 1]) % ny
    cells.flags.writeable = False
    return cells


class Stencil:
    """An operator on the ``nx x ny`` cell lattice as cell blocks at fixed offsets.

    Cell ``(i, j)`` has id ``i*ny + j`` and contiguous dofs.  ``blocks[c, s]``
    couples row cell ``c`` to cell ``c + offsets[s]`` (modulo the lattice).
    ``blocks`` has one row cell if all cells carry the same blocks (the
    operator commutes with lattice translations), else ``nx*ny``.  Offsets
    are stored as sorted residues; the blocks of aliasing offsets are summed.
    """

    def __init__(self, offsets: np.ndarray, blocks: np.ndarray,
                 lattice: tuple[int, int], closed: bool = False):
        self.lattice = lattice = tuple(lattice)
        self.n_cells, self.n_loc = lattice[0] * lattice[1], blocks.shape[-1]
        self.n = self.n_cells * self.n_loc
        self.offsets, slot = _residues(np.asarray(offsets), lattice, closed)
        if np.array_equal(slot, np.arange(len(self.offsets))):
            self.blocks = blocks
        else:
            shape = (len(blocks), len(self.offsets)) + blocks.shape[2:]
            self.blocks = np.zeros(shape)
            for s, k in enumerate(slot):
                self.blocks[:, k] += blocks[:, s]

    @cached_property
    def column_cells(self) -> np.ndarray:
        """``(n_cells, S)``: the cell that each row cell reaches by each
        offset, built on first use (the offsets and the lattice never change
        after construction).  Read-only, as it is shared."""
        return _reached_cells(self.offsets, self.lattice)

    def expand(self) -> sp.csr_matrix:
        """The scalar CSR matrix, built anew."""
        cols = self.column_cells
        order = np.argsort(cols, axis=1)  # sorted block columns: a sorted CSR
        blocks = np.broadcast_to(self.blocks, (self.n_cells,) + self.blocks.shape[1:])
        blocks = blocks[np.arange(self.n_cells)[:, None], order]
        full = sp.bsr_matrix((blocks.reshape(-1, self.n_loc, self.n_loc),
                              np.take_along_axis(cols, order, axis=1).ravel(),
                              np.arange(self.n_cells + 1) * len(self.offsets)),
                             shape=(self.n, self.n)).tocsr()
        full.eliminate_zeros()
        return full

    def to_dense(self) -> np.ndarray:
        """The dense matrix, scattered from the blocks."""
        dense = np.zeros((self.n_cells, self.n_loc, self.n_cells, self.n_loc))
        rows = np.arange(self.n_cells)[:, None]
        dense[rows, :, self.column_cells, :] = self.blocks
        return dense.reshape(self.n, self.n)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """The product with a vector or a block of columns: per offset one
        batched product of the blocks with ``x`` at the cells it reaches."""
        cols = x.reshape(self.n_cells, self.n_loc, -1)
        y = np.zeros(cols.shape)
        for s, cells in enumerate(self.column_cells.T):
            y += np.matmul(self.blocks[:, s], np.take(cols, cells, axis=0))
        return y.reshape(x.shape)

    def symbols(self, ks: np.ndarray | None = None) -> np.ndarray:
        """``(len(ks), n_loc, n_loc)``: at each wavevector ``(p, q)`` of the
        flat indices ``ks = p*ny + q`` (default all ``nx*ny``), ``sum_s
        blocks[0, s] exp(2 pi i (p o_x / nx + q o_y / ny))``."""
        if self.blocks.shape[0] != 1:
            raise ValueError("a stencil that varies from cell to cell has no symbols")
        (nx, ny), (ox, oy) = self.lattice, self.offsets.T
        p, q = np.divmod(np.arange(nx * ny) if ks is None else ks, ny)
        turns = np.outer(p, ox) % nx / nx + np.outer(q, oy) % ny / ny
        phase = np.exp(2j * np.pi * turns)
        return (phase @ self.blocks[0].reshape(len(self.offsets), -1)).reshape(
            -1, self.n_loc, self.n_loc)


def _max_abs(x: np.ndarray) -> float:
    """``max |x|`` (0 if empty), without forming ``|x|``."""
    return max(float(np.max(x, initial=0.0)), -float(np.min(x, initial=0.0)))


def _lower_percent(nnz: int, nnz_diagonal: int, n: int) -> float:
    return 100.0 * (nnz + nnz_diagonal) / 2.0 / (n * (n + 1) / 2.0)


class SymStencil(Stencil):
    """A symmetric stencil: ``(B[c, d] + B[c + d, -d]^T) / 2``, with entries
    below ``DROP_TOL`` of the largest dropped; its metadata are read from
    the blocks.

    It takes ``blocks`` as its own and symmetrizes them in place: a
    C-contiguous float64 ``blocks`` whose offsets need no merging is
    overwritten, any other is copied (once) first.  The blocks are fixed
    from then on."""

    def __init__(self, offsets: np.ndarray, blocks: np.ndarray,
                 lattice: tuple[int, int]):
        blocks = np.ascontiguousarray(blocks, dtype=float)
        super().__init__(offsets, blocks, lattice, closed=True)
        neg = _residues(-self.offsets, self.lattice)[1]  # the offsets are closed
        rows = (self.column_cells if self.blocks.shape[0] > 1
                else np.zeros((1, len(neg)), dtype=int))
        tiles = list(enumerate(slice(i, i + _TILE) for i in range(0, self.n_loc, _TILE)))
        for s, t in enumerate(neg):
            if t < s:
                continue
            # each pair (d, -d) once, tile pair by tile pair, so a large
            # block is not transposed in one strided sweep: the new blocks
            # of -d at the cells that d reaches are the transposes of d's
            for a, i in tiles:
                for b, j in tiles:
                    if s == t and b < a:
                        continue
                    partner = self.blocks[rows[:, s], t, j, i]
                    np.add(partner, self.blocks[:, s, i, j].swapaxes(-1, -2), out=partner)
                    np.multiply(partner, 0.5, out=partner)
                    self.blocks[rows[:, s], t, j, i] = partner
                    if s != t or a != b:
                        self.blocks[:, s, i, j] = partner.swapaxes(-1, -2)
                    del partner  # one partner block alive at a time
        scale = _max_abs(self.blocks)
        if self.blocks is not blocks:
            # offsets were merged: their blocks before the sum set the scale,
            # which a sum that cancels to rounding would lower
            scale = max(scale, _max_abs(blocks))
        flat = self.blocks.reshape(-1, copy=False)  # the stored blocks, not a copy
        for i in range(0, flat.size, _TILE * _TILE):
            part = flat[i:i + _TILE * _TILE]
            part[np.abs(part) < DROP_TOL * scale] = 0.0
        self._norm_inf = None

    @property
    def lower(self) -> sp.csr_matrix:
        return sp.tril(self.expand(), format="csr")

    def max_abs(self) -> float:
        return _max_abs(self.blocks)

    def norm_inf(self) -> float:
        """``max_i sum_j |a_ij|``, read once: the row sums accumulate one
        offset at a time, so no ``|blocks|`` is formed."""
        if self._norm_inf is None:
            rows = np.zeros((len(self.blocks), self.n_loc))
            for s in range(len(self.offsets)):
                rows += np.abs(self.blocks[:, s]).sum(axis=-1)
            self._norm_inf = float(np.max(rows))
        return self._norm_inf

    def nnz_percent(self) -> float:
        copies = self.n_cells // self.blocks.shape[0]
        own = np.diagonal(self.blocks[:, ~self.offsets.any(axis=1)], axis1=2, axis2=3)
        return _lower_percent(copies * np.count_nonzero(self.blocks),
                              copies * np.count_nonzero(own), self.n)

    def dump_coordinate(self, stream) -> None:
        """Write 'row col value' (1-based, lower triangle) to a text stream."""
        coo = self.lower.tocoo()
        order = np.lexsort((coo.col, coo.row))
        for r, c, v in zip(coo.row[order], coo.col[order], coo.data[order]):
            stream.write(f"{r + 1} {c + 1} {v:.17g}\n")


@dataclass
class OperatorSet:
    """The assembled stencils; ``c`` is ``A_UPsi - B_UPsi`` (its transpose
    the ``A_PhiV - B_PhiV`` coupling)."""

    m_uv: SymStencil
    c: Stencil
    b_phipsi: SymStencil
    m_phipsi: SymStencil


def _lattice(mesh: Mesh) -> tuple[int, int]:
    return mesh.config.nx, mesh.config.ny


# ---------------------------------------------------------------------------
# volume terms


@lru_cache(maxsize=32)
def _volume_tables(spec: BasisSpec, n_quad: int | None):
    """Quadrature nodes and basis tables shared by all (congruent) cells.

    They depend on neither the mesh nor the coefficients, so they are
    memoized per ``(spec, n_quad)`` and shared by every assembly: the arrays
    are read-only."""
    rule = gauss_rule(n_quad or default_quad_points(spec))
    xi, eta = np.meshgrid(rule.nodes, rule.nodes, indexing="ij")
    xi, eta = xi.ravel(), eta.ravel()
    wq = np.outer(rule.weights, rule.weights).ravel()
    vals, grads = tensor_basis_eval(spec, xi, eta)
    tables = xi, eta, wq, vals, grads
    for table in tables:
        table.flags.writeable = False
    return tables


def _volume_weights(mesh: Mesh, coeff: CoefficientField, xi, eta, wq):
    """Quadrature weights ``(cells, q)`` including ``det J`` and a coefficient:
    of ``cell0`` alone for a constant coefficient, else of every cell."""
    cells = np.arange(1 if coeff.is_constant else mesh.n_cells)
    x, y = mesh.map_points(cells, xi, eta)
    return wq * mesh.cell0.jacobian_det * coeff.eval(x, y)


def assemble_mass_u(mesh: Mesh, spec: BasisSpec) -> SymStencil:
    """The unweighted mass matrix, which is exactly diagonal."""
    return assemble_mass_phi(mesh, spec, CoefficientField.constant(1.0))


def assemble_mass_phi(mesh: Mesh, spec: BasisSpec, alpha: CoefficientField,
                      n_quad: int | None = None) -> SymStencil:
    """Mass matrix weighted by the coefficient alpha(x); block diagonal, and
    for a constant alpha ``alpha * det J * 2/(2a+1) * 2/(2b+1)`` on the
    diagonal for the Legendre mode ``(a, b)``."""
    if alpha.is_constant:
        norms_xi = 2.0 / (2 * np.arange(spec.p_xi + 1) + 1)
        norms_eta = 2.0 / (2 * np.arange(spec.p_eta + 1) + 1)
        blocks = np.diag(alpha.mean * (mesh.cell0.jacobian_det
                                       * np.outer(norms_xi, norms_eta).ravel()))[None]
    else:
        xi, eta, wq, vals, _ = _volume_tables(spec, n_quad)
        w = _volume_weights(mesh, alpha, xi, eta, wq)
        blocks = np.einsum("cq,qi,qj->cij", w, vals, vals)
    return SymStencil(_ORIGIN, blocks[:, None], _lattice(mesh))


def assemble_gradient(mesh: Mesh, spec: BasisSpec, B: MagneticField,
                      n_quad: int | None = None) -> Stencil:
    """Volume blocks G[i, j] = integral of phi_j * (B . grad phi_i); the row
    carries the derivative, and the transpose serves the transposed coupling."""
    xi, eta, wq, vals, grads = _volume_tables(spec, n_quad)
    # b expressed in reference-gradient components: (J^{-1} b) . grad_ref
    c = np.linalg.solve(mesh.cell0.jacobian, B.b.as_array())
    b_dot_grad = grads @ c  # (q, n_loc)
    w = _volume_weights(mesh, B.beta, xi, eta, wq)
    blocks = np.einsum("cq,qi,qj->cij", w, b_dot_grad, vals)
    return Stencil(_ORIGIN, blocks[:, None], _lattice(mesh))


# ---------------------------------------------------------------------------
# interface terms


def face_quadrature(mesh: Mesh, spec: BasisSpec, faces: Faces, n_quad: int):
    """Traces and weights on the faces ``faces`` (rows of ``mesh.faces``).

    Returns ``(w, x, y, vals_own, vals_nbr)``: weights (with the measure
    ``h_F/2``) and owner-side points ``(F, q)``, and the traces ``(F, q,
    n_loc)`` at matching points of both reference edges, evaluated once per
    template.  Raises, naming the first offending face, if the two sides of
    a face do not map onto the same physical segment.
    """
    rule = gauss_rule(n_quad)
    s = (rule.nodes + 1.0) / 2.0
    xi, eta, x, y = mesh.face_points(faces, s)
    bad = _sides_apart(x, y)
    if np.any(bad):
        itf = mesh.interfaces_of(faces.take([int(np.argmax(bad))]))[0]
        raise AssemblyError(f"owner/neighbor segment mapping mismatch on {itf}")
    # the faces of one template share their reference points
    _, first, template = np.unique(faces.template, return_index=True,
                                   return_inverse=True)
    vals = tensor_basis_eval(spec, xi[first], eta[first])[0][template]
    w = rule.weights * (faces.h_F[:, None] / 2.0)
    return w, x[:, 0], y[:, 0], vals[:, 0], vals[:, 1]


def _crossing_traces(mesh: Mesh, spec: BasisSpec, B: MagneticField,
                     n_quad: int | None):
    """One batched trace pass over the faces the field crosses (``|b . n| >
    ALIGNMENT_TOL |b|``): of cell ``(0, 0)`` for a constant beta, else of all.

    Returns ``(offsets, w, bn_beta, h_F, jump, avg)``: the neighbour offsets
    ``(T, 2)`` of the crossing templates, then for the faces (cell-major) the
    weights and ``(b . n) beta`` ``(F, q)``, the lengths ``(F,)``, the jump
    ``[+own, -nbr]`` and the average ``[own, nbr] / 2``, ``(F, q, 2, n_loc)``.
    """
    normal = np.array([t.normal for t in mesh.templates])
    bn = B.b.b1 * normal[:, 0] + B.b.b2 * normal[:, 1]
    crossing = np.flatnonzero(np.abs(bn) > ALIGNMENT_TOL * B.b.norm)
    cells = 1 if B.beta.is_constant else mesh.n_cells
    rows = np.arange(cells)[:, None] * len(mesh.templates) + crossing
    faces = mesh.faces.take(rows.ravel())
    w, x, y, vo, vn = face_quadrature(mesh, spec, faces,
                                      n_quad or default_quad_points(spec))
    bn_beta = np.tile(bn[crossing], cells)[:, None] * B.beta.eval(x, y)
    jump = np.stack([vo, -vn], axis=2)
    avg = np.stack([vo, vn], axis=2) / 2.0
    offsets = np.array([t.neighbor for t in mesh.templates])[crossing]
    return offsets, w, bn_beta, faces.h_F, jump, avg


def _face_stencil(mesh: Mesh, offsets: np.ndarray, w: np.ndarray,
                  left: np.ndarray, right: np.ndarray):
    """``(offsets, blocks)`` of ``sum_q w[f, q] left[f, q, a, i] right[f, q,
    b, j]`` over the faces of ``_crossing_traces``.

    Element block ``(a, b)`` couples side ``a`` (0 the owner ``c``, 1 the
    neighbour ``c + d``) to side ``b``: (0, 0) and (0, 1) go to offsets 0
    and ``d`` of ``c``, (1, 0) and (1, 1) to ``-d`` and 0 of ``c + d``, by
    rolling the lattice; a one-cell stencil, on which a roll is the
    identity, is not rolled.
    """
    weighted = (w[:, :, None, None] * left).transpose(0, 2, 3, 1)
    e = np.matmul(weighted[:, :, None], right.transpose(0, 2, 1, 3)[:, None])
    n_loc = e.shape[-1]
    grid = _lattice(mesh) if len(e) > len(offsets) else (1, 1)
    e = e.reshape(grid + (len(offsets), 2, 2, n_loc, n_loc))
    blocks = [np.zeros(grid + (n_loc, n_loc))]
    for t, d in enumerate(offsets):
        nbr = e[:, :, t, 1]
        if grid != (1, 1):
            nbr = np.roll(nbr, tuple(d), axis=(0, 1))
        blocks[0] += e[:, :, t, 0, 0] + nbr[:, :, 1]
        blocks += [e[:, :, t, 0, 1], nbr[:, :, 0]]
    stencil = np.concatenate([_ORIGIN] + [np.stack([d, -d]) for d in offsets])
    return stencil, np.stack(blocks, axis=2).reshape(-1, len(blocks), n_loc, n_loc)


def _face_terms(mesh: Mesh, traces) -> Stencil:
    """Interface blocks ``F[i, j] = sum over faces of {phi_j} (B . [phi_i])``
    from the ``_crossing_traces`` of the faces."""
    offsets, w, bn_beta, _, jump, avg = traces
    return Stencil(*_face_stencil(mesh, offsets, w * bn_beta, jump, avg),
                   _lattice(mesh))


def _penalty(mesh: Mesh, traces, eta_s: float) -> SymStencil:
    """The penalty ``(eta_S / h_F) (B . [phi]) (B . [psi])``, symmetric PSD,
    from the ``_crossing_traces`` of the faces."""
    if eta_s < 0.0:
        raise ValueError("penalty parameter must be >= 0")
    offsets, w, bn_beta, h_f, jump, _ = traces
    w_pen = w * (eta_s / h_f[:, None]) * bn_beta**2
    return SymStencil(*_face_stencil(mesh, offsets, w_pen, jump, jump), _lattice(mesh))


# ---------------------------------------------------------------------------
# assembled system


def assemble_operator_set(mesh: Mesh, spec: BasisSpec, alpha: CoefficientField,
                          B: MagneticField, eta_s: float,
                          n_quad: int | None = None) -> OperatorSet:
    """The four stencils of the weak form; the interface and penalty terms
    share one ``_crossing_traces`` pass."""
    grad = assemble_gradient(mesh, spec, B, n_quad)
    traces = _crossing_traces(mesh, spec, B, n_quad)
    face = _face_terms(mesh, traces)
    c = Stencil(np.concatenate([grad.offsets, face.offsets]),
                np.concatenate([grad.blocks, -face.blocks], axis=1), grad.lattice)
    return OperatorSet(
        m_uv=assemble_mass_u(mesh, spec), c=c,
        b_phipsi=_penalty(mesh, traces, eta_s),
        m_phipsi=assemble_mass_phi(mesh, spec, alpha, n_quad))


def build_reduced(ops: OperatorSet) -> tuple[SymStencil, SymStencil]:
    """Form A = C M_UV^{-1} C^T + B_PhiPsi and M = M_PhiPsi as stencils.

    Cell ``c`` reaches u cell ``c + o_s`` by C's offset ``s``, as does
    ``c + o_s - o_t`` by ``t``; so each pair ``(s, t)`` adds ``C[c, s]
    M_UV^{-1} C[c + o_s - o_t, t]^T`` at offset ``o_s - o_t`` of A, one
    batched product (C rolled over the lattice if it varies by cell; a
    one-cell C is read as it is), summed cell-major into the array that A's
    ``SymStencil`` then symmetrizes in place.
    """
    m_uv = np.diagonal(ops.m_uv.blocks[0, 0])
    if np.any(m_uv <= 0.0):
        raise AssemblyError("u mass matrix has a non-positive diagonal entry")
    c, pen = ops.c, ops.b_phipsi
    cells, s_count, n_loc, _ = c.blocks.shape
    grid = (c.lattice if cells > 1 else (1, 1)) + c.blocks.shape[1:]
    right = np.ascontiguousarray(c.blocks.swapaxes(-1, -2)).reshape(grid)
    left = c.blocks * (1.0 / m_uv)
    shifts = (c.offsets[:, None] - c.offsets[None, :]).reshape(-1, 2)
    offsets, slot = _residues(np.concatenate([shifts, pen.offsets]), c.lattice,
                              closed=True)
    blocks = np.zeros((max(cells, len(pen.blocks)), len(offsets), n_loc, n_loc))
    for k, d in enumerate(shifts):
        shifted = right[:, :, k % s_count]
        if cells > 1:
            shifted = np.roll(shifted, tuple(-d), axis=(0, 1))
        blocks[:, slot[k]] += np.matmul(left[:, k // s_count],
                                        shifted.reshape(cells, n_loc, n_loc))
    for k, at in enumerate(slot[len(shifts):]):
        blocks[:, at] += pen.blocks[:, k]
    return SymStencil(offsets, blocks, c.lattice), ops.m_phipsi

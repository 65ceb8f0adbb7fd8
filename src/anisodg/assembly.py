"""Assembly of the mixed-form LDG operator matrices and the reduced system.

The weak form couples a scalar parallel-gradient variable u with the
primal variable phi through seven matrices:

* ``M_UV``   mass of u/v, exactly diagonal for the Legendre basis on
  affine cells and stored as its diagonal,
* ``A_UPsi`` volume blocks of ``u * B . grad(psi)`` (its transpose is the
  ``A_PhiV`` coupling; shared storage),
* ``B_UPsi`` interface blocks of ``{u} * B . [psi]`` (transpose serves
  ``B_PhiV``),
* ``B_PhiPsi`` penalty ``(eta_S / h_F) * (B . [phi]) (B . [psi])``,
* ``M_PhiPsi`` weighted mass blocks with coefficient alpha (diagonal for
  a constant alpha).

Eliminating u yields the reduced symmetric positive semidefinite operator

    A = (A_UPsi - B_UPsi) M_UV^{-1} (A_UPsi - B_UPsi)^T + B_PhiPsi

and the generalized eigenproblem ``A Phi = omega^2 M_PhiPsi Phi``.

Conforming and non-conforming interfaces are treated identically: each
sub-segment integrates with its own Gauss rule, mapped into both adjacent
reference edge coordinates.  Contributions on field-tangent edges
(``|b . n| <= 1e-14 |b|``) are skipped, so they are exactly zero.

Every term is assembled in one batched pass, without a Python loop that
evaluates bases or coefficients per cell or per interface.  The mesh is a
lattice: all cells are translates of ``mesh.cell0``, so the volume terms
share one set of basis tables and map their quadrature points with
``Mesh.map_points``.  The interface and penalty terms share one trace pass
over the arrays of the field-crossing faces (``Mesh.faces``), with the
basis traces evaluated once per face template: it yields the jump trace
``[+own, -nbr]`` and the average trace ``[own, nbr] / 2``, the interface
term pairs the jump with the average and the penalty pairs the jump with
itself.

Every matrix is a pattern of ``n_loc x n_loc`` cell blocks.  The element
blocks are summed by their ``(row cell, column cell)`` key straight into a
block sparse row (BSR) matrix, and the reduction to ``A`` is one BSR
product; a symmetric matrix is converted to CSR once, when it is stored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis import BasisSpec, gauss_rule, tensor_basis_eval
from .fields import CoefficientField, MagneticField
from .geometry import ALIGNMENT_TOL, Faces, Mesh, _sides_apart

#: Assembled entries below this times the matrix max are dropped.
DROP_TOL = 1e-15


class AssemblyError(RuntimeError):
    pass


def default_quad_points(spec: BasisSpec) -> int:
    """Default Gauss points per direction (and per interface sub-segment)."""
    return max(spec.p_xi, spec.p_eta) + 3


class SparseSymMatrix:
    """Sparse symmetric matrix stored as its full CSR."""

    def __init__(self, full: sp.spmatrix):
        self._csr = full.tocsr()

    @classmethod
    def from_product(cls, full: sp.spmatrix) -> "SparseSymMatrix":
        """Symmetrize a (numerically almost symmetric) product and drop
        entries below ``DROP_TOL`` times its largest entry.  A BSR product
        is symmetrized block by block and converted to CSR once.  The stored
        pattern is exactly symmetric."""
        sym = (full + full.T) * 0.5
        sym.data[np.abs(sym.data) < DROP_TOL * np.max(np.abs(sym.data), initial=0.0)] = 0.0
        sym = sym.tocsr()
        sym.eliminate_zeros()
        return cls(sym)

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "SparseSymMatrix":
        return cls.from_product(sp.csr_matrix(a))

    @property
    def n(self) -> int:
        return self._csr.shape[0]

    @property
    def lower(self) -> sp.csr_matrix:
        return sp.tril(self._csr, format="csr")

    def to_full(self) -> sp.csr_matrix:
        return self._csr

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self._csr @ x

    def max_abs(self) -> float:
        return float(np.max(np.abs(self._csr.data), initial=0.0))

    def norm_inf(self) -> float:
        return float(np.max(np.abs(self._csr).sum(axis=1)))

    def nnz_percent(self) -> float:
        """Stored nonzeros as a percentage of the full lower triangle.  The
        pattern is symmetric (see ``from_product``), so the lower triangle
        holds every nonzero diagonal entry and half of the others."""
        lower = (self._csr.nnz + np.count_nonzero(self._csr.diagonal())) / 2.0
        return 100.0 * lower / (self.n * (self.n + 1) / 2.0)

    def dump_coordinate(self, stream) -> None:
        """Write 'row col value' (1-based, lower triangle) to a text stream."""
        coo = self.lower.tocoo()
        order = np.lexsort((coo.col, coo.row))
        for r, c, v in zip(coo.row[order], coo.col[order], coo.data[order]):
            stream.write(f"{r + 1} {c + 1} {v:.17g}\n")


@dataclass
class OperatorSet:
    """The assembled matrices of the mixed LDG system.

    ``m_uv`` is the diagonal of the (exactly diagonal) u mass matrix.  The
    ``A_PhiV`` and ``B_PhiV`` couplings are the exact transposes of
    ``a_upsi`` and ``b_upsi`` and are not stored.
    """

    m_uv: np.ndarray
    a_upsi: sp.bsr_matrix
    b_upsi: sp.bsr_matrix
    b_phipsi: SparseSymMatrix
    m_phipsi: SparseSymMatrix


# ---------------------------------------------------------------------------
# shared tables


def _scatter(cells: np.ndarray, blocks: np.ndarray, n_cells: int) -> sp.bsr_matrix:
    """Sum the element blocks into an ``n_cells x n_cells`` pattern of cell
    blocks: ``blocks[e, a, b]`` (``n_loc x n_loc``) couples the row cell
    ``cells[e, a]`` to the column cell ``cells[e, b]``.

    Blocks with the same ``(row cell, column cell)`` key are summed by one
    sparse indicator product, and the keys, sorted, are the BSR pattern.
    """
    n_loc = blocks.shape[-1]
    key = (cells[:, :, None] * n_cells + cells[:, None, :]).ravel()
    keys, slot = np.unique(key, return_inverse=True)
    indicator = sp.csr_matrix((np.ones(key.size), (slot, np.arange(key.size))),
                              shape=(keys.size, key.size))
    data = indicator @ blocks.reshape(key.size, n_loc * n_loc)
    rows, cols = np.divmod(keys, n_cells)
    indptr = np.searchsorted(rows, np.arange(n_cells + 1))
    return sp.bsr_matrix((data.reshape(-1, n_loc, n_loc), cols, indptr),
                         shape=(n_cells * n_loc, n_cells * n_loc))


def _cell_blocks(mesh: Mesh, blocks: np.ndarray) -> sp.bsr_matrix:
    """The block-diagonal matrix of one ``n_loc x n_loc`` block per cell."""
    cells = np.arange(mesh.n_cells)[:, None]
    return _scatter(cells, blocks[:, None, None], mesh.n_cells)


# ---------------------------------------------------------------------------
# volume terms


def _volume_tables(spec: BasisSpec, n_quad: int):
    """Quadrature nodes and basis tables shared by all (congruent) cells."""
    rule = gauss_rule(n_quad)
    xi, eta = np.meshgrid(rule.nodes, rule.nodes, indexing="ij")
    xi, eta = xi.ravel(), eta.ravel()
    wq = np.outer(rule.weights, rule.weights).ravel()
    vals, grads = tensor_basis_eval(spec, xi, eta)
    return xi, eta, wq, vals, grads


def _volume_weights(mesh: Mesh, coeff: CoefficientField, xi, eta, wq):
    """Quadrature weights ``(n_cells, q)`` including ``det J`` and a coefficient."""
    x, y = mesh.map_points(np.arange(mesh.n_cells), xi, eta)
    return wq * mesh.cell0.jacobian_det * coeff.eval(x, y)


def assemble_mass_u(mesh: Mesh, spec: BasisSpec) -> np.ndarray:
    """The unweighted mass matrix, which is exactly diagonal, as its ``(n,)``
    diagonal: ``det J * 2/(2a+1) * 2/(2b+1)`` for the Legendre mode ``(a, b)``."""
    norms_xi = 2.0 / (2 * np.arange(spec.p_xi + 1) + 1)
    norms_eta = 2.0 / (2 * np.arange(spec.p_eta + 1) + 1)
    local = mesh.cell0.jacobian_det * np.outer(norms_xi, norms_eta).ravel()
    return np.tile(local, mesh.n_cells)


def assemble_mass_phi(mesh: Mesh, spec: BasisSpec, alpha: CoefficientField,
                      n_quad: int | None = None) -> SparseSymMatrix:
    """Mass matrix weighted by the coefficient alpha(x); block diagonal."""
    if alpha.is_constant:
        return SparseSymMatrix(sp.diags(alpha.mean * assemble_mass_u(mesh, spec)))
    n_quad = n_quad or default_quad_points(spec)
    xi, eta, wq, vals, _ = _volume_tables(spec, n_quad)
    w = _volume_weights(mesh, alpha, xi, eta, wq)
    blocks = np.einsum("cq,qi,qj->cij", w, vals, vals)
    return SparseSymMatrix.from_product(_cell_blocks(mesh, blocks))


def assemble_gradient(mesh: Mesh, spec: BasisSpec, B: MagneticField,
                      n_quad: int | None = None) -> sp.bsr_matrix:
    """Volume blocks G[i, j] = integral of phi_j * (B . grad phi_i).

    Row index carries the derivative; the same storage serves the
    transposed coupling.
    """
    n_quad = n_quad or default_quad_points(spec)
    xi, eta, wq, vals, grads = _volume_tables(spec, n_quad)
    # b expressed in reference-gradient components: (J^{-1} b) . grad_ref
    c = np.linalg.solve(mesh.cell0.jacobian, B.b.as_array())
    b_dot_grad = grads @ c  # (q, n_loc)
    w = _volume_weights(mesh, B.beta, xi, eta, wq)
    blocks = np.einsum("cq,qi,qj->cij", w, b_dot_grad, vals)
    return _cell_blocks(mesh, blocks)


# ---------------------------------------------------------------------------
# interface terms


def face_quadrature(mesh: Mesh, spec: BasisSpec, faces: Faces, n_quad: int):
    """Traces and weights on the faces ``faces`` (rows of ``mesh.faces``).

    Returns ``(w, x, y, vals_own, vals_nbr)``: weights and owner-side
    physical points of shape ``(F, q)`` and traces of shape
    ``(F, q, n_loc)``.  ``w`` includes the physical surface measure
    ``h_F/2``, and the traces are evaluated at matching points of both
    reference edges, once per template.  Raises, naming the first offending
    face, if the two sides of a face do not map onto the same physical
    segment.
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


def _crossing_traces(mesh: Mesh, spec: BasisSpec, B: MagneticField, n_quad: int):
    """One batched trace pass over the faces that the field crosses.

    Faces with ``|b . n| <= ALIGNMENT_TOL |b|`` are field-tangent and
    skipped, so they contribute exactly zero.  Returns ``(cells, w,
    bn_beta, h_F, jump, avg)``: the cells ``[owner, neighbour]`` ``(F, 2)``,
    the weights and ``(b . n) beta`` ``(F, q)``, the segment lengths
    ``(F,)``, the jump trace ``[+own, -nbr]`` and the average trace
    ``[own, nbr] / 2``, both ``(F, q, 2, n_loc)``.
    """
    faces = mesh.faces
    bn = B.b.b1 * faces.normal[:, 0] + B.b.b2 * faces.normal[:, 1]
    crossing = np.abs(bn) > ALIGNMENT_TOL * B.b.norm
    faces = faces.take(crossing)
    w, x, y, vo, vn = face_quadrature(mesh, spec, faces, n_quad)
    bn_beta = bn[crossing][:, None] * B.beta.eval(x, y)
    jump = np.stack([vo, -vn], axis=2)
    avg = np.stack([vo, vn], axis=2) / 2.0
    return faces.cells, w, bn_beta, faces.h_F, jump, avg


def _face_blocks(w: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``sum_q w[f, q] left[f, q, a, i] right[f, q, b, j]`` as the element
    blocks ``(F, 2, 2, n_loc, n_loc)`` of ``_scatter``, by one batched
    matrix product."""
    weighted = (w[:, :, None, None] * left).transpose(0, 2, 3, 1)
    return np.matmul(weighted[:, :, None], right.transpose(0, 2, 1, 3)[:, None])


def assemble_face_terms(mesh: Mesh, spec: BasisSpec, B: MagneticField,
                        n_quad: int | None = None) -> sp.bsr_matrix:
    """Interface blocks F[i, j] = sum over faces of {phi_j} * (B . [phi_i])."""
    n_quad = n_quad or default_quad_points(spec)
    cells, w, bn_beta, _, jump, avg = _crossing_traces(mesh, spec, B, n_quad)
    return _scatter(cells, _face_blocks(w * bn_beta, jump, avg), mesh.n_cells)


def assemble_penalty(mesh: Mesh, spec: BasisSpec, B: MagneticField,
                     eta_s: float, n_quad: int | None = None) -> SparseSymMatrix:
    """Penalty (eta_S / h_F) * (B . [phi]) (B . [psi]), symmetric PSD."""
    if eta_s < 0.0:
        raise ValueError("penalty parameter must be >= 0")
    n_quad = n_quad or default_quad_points(spec)
    cells, w, bn_beta, h_f, jump, _ = _crossing_traces(mesh, spec, B, n_quad)
    w_pen = w * (eta_s / h_f[:, None]) * bn_beta**2
    return SparseSymMatrix.from_product(
        _scatter(cells, _face_blocks(w_pen, jump, jump), mesh.n_cells))


# ---------------------------------------------------------------------------
# assembled system


def assemble_operator_set(mesh: Mesh, spec: BasisSpec, alpha: CoefficientField,
                          B: MagneticField, eta_s: float,
                          n_quad: int | None = None) -> OperatorSet:
    return OperatorSet(
        m_uv=assemble_mass_u(mesh, spec),
        a_upsi=assemble_gradient(mesh, spec, B, n_quad),
        b_upsi=assemble_face_terms(mesh, spec, B, n_quad),
        b_phipsi=assemble_penalty(mesh, spec, B, eta_s, n_quad),
        m_phipsi=assemble_mass_phi(mesh, spec, alpha, n_quad))


def build_reduced(ops: OperatorSet) -> tuple[SparseSymMatrix, SparseSymMatrix]:
    """Form A = (A_UPsi - B_UPsi) M_UV^{-1} (..)^T + B_PhiPsi and M = M_PhiPsi.

    ``C = A_UPsi - B_UPsi`` is kept in cell blocks (the BSR blocks of the
    assembled couplings): its block columns are scaled by ``1 / M_UV`` in
    place, after ``C^T`` is taken, so ``A`` is one BSR product.
    """
    if np.any(ops.m_uv <= 0.0):
        raise AssemblyError("u mass matrix has a non-positive diagonal entry")
    c = (ops.a_upsi - ops.b_upsi).tobsr()
    c_t = c.T
    width = c.blocksize[1]
    c.data *= (1.0 / ops.m_uv)[c.indices[:, None] * width + np.arange(width)][:, None, :]
    a_full = c @ c_t + ops.b_phipsi.to_full()
    del c, c_t
    return SparseSymMatrix.from_product(a_full), ops.m_phipsi

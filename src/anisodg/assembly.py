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
evaluates bases or coefficients per cell or per interface.  All cells are
translates of ``cells[0]``, so the volume terms share one set of basis
tables and map their quadrature points from ``cells[0]`` by the cell
anchors.  The interface and penalty terms share one trace pass over all
field-crossing segments: it yields the jump trace ``[+own, -nbr]`` and
the average trace ``[own, nbr] / 2``, the interface term pairs the jump
with the average and the penalty pairs the jump with itself, and each is
scattered into the global matrix by a single COO-to-CSR conversion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis import BasisSpec, gauss_rule, tensor_basis_eval
from .fields import CoefficientField, MagneticField
from .geometry import ALIGNMENT_TOL, Mesh, _periodic_close, edge_point

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
        entries below ``DROP_TOL`` times its largest entry."""
        full = full.tocsr()
        sym = (full + full.T) * 0.5
        sym.data[np.abs(sym.data) < DROP_TOL * np.max(np.abs(sym.data), initial=0.0)] = 0.0
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
        """Stored nonzeros as a percentage of the full lower triangle."""
        return 100.0 * self.lower.nnz / (self.n * (self.n + 1) / 2.0)

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
    a_upsi: sp.csr_matrix
    b_upsi: sp.csr_matrix
    b_phipsi: SparseSymMatrix
    m_phipsi: SparseSymMatrix


# ---------------------------------------------------------------------------
# shared tables


def _map_points(mesh: Mesh, cell_ids: np.ndarray, xi, eta):
    """Physical (x, y) of reference points in the cells ``cell_ids``.

    All cells are translates of ``cells[0]``: they share its Jacobian and
    differ only in their anchors.  Row ``k`` of ``xi``/``eta`` (shape
    ``(len(cell_ids), q)``, or ``(q,)`` for the same points in every cell)
    is mapped through cell ``cell_ids[k]``, with the arithmetic of
    ``Cell.map_point``.
    """
    cell0 = mesh.cells[0]
    anchors = np.array([c.anchor for c in mesh.cells]).reshape(-1, 2)[cell_ids]
    x = anchors[:, :1] + cell0.half_xi[0] * (xi + 1.0) + cell0.half_eta[0] * (eta + 1.0)
    y = anchors[:, 1:] + cell0.half_xi[1] * (xi + 1.0) + cell0.half_eta[1] * (eta + 1.0)
    return x, y


def _scatter(dofs: np.ndarray, blocks: np.ndarray, n: int) -> sp.csr_matrix:
    """Sum ``blocks[k]`` into the rows and columns ``dofs[k]`` of an n x n matrix."""
    rows = np.broadcast_to(dofs[:, :, None], blocks.shape)
    cols = np.broadcast_to(dofs[:, None, :], blocks.shape)
    return sp.coo_matrix((blocks.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(n, n)).tocsr()


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
    x, y = _map_points(mesh, np.arange(mesh.n_cells), xi, eta)
    return wq * mesh.cells[0].jacobian_det * coeff.eval(x, y)


def assemble_mass_u(mesh: Mesh, spec: BasisSpec) -> np.ndarray:
    """The unweighted mass matrix, which is exactly diagonal, as its ``(n,)``
    diagonal: ``det J * 2/(2a+1) * 2/(2b+1)`` for the Legendre mode ``(a, b)``."""
    norms_xi = 2.0 / (2 * np.arange(spec.p_xi + 1) + 1)
    norms_eta = 2.0 / (2 * np.arange(spec.p_eta + 1) + 1)
    local = mesh.cells[0].jacobian_det * np.outer(norms_xi, norms_eta).ravel()
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
    dofs = np.arange(mesh.n_cells * spec.n_loc).reshape(mesh.n_cells, spec.n_loc)
    return SparseSymMatrix.from_product(_scatter(dofs, blocks, dofs.size))


def assemble_gradient(mesh: Mesh, spec: BasisSpec, B: MagneticField,
                      n_quad: int | None = None) -> sp.csr_matrix:
    """Volume blocks G[i, j] = integral of phi_j * (B . grad phi_i).

    Row index carries the derivative; the same storage serves the
    transposed coupling.
    """
    n_quad = n_quad or default_quad_points(spec)
    xi, eta, wq, vals, grads = _volume_tables(spec, n_quad)
    # b expressed in reference-gradient components: (J^{-1} b) . grad_ref
    c = np.linalg.solve(mesh.cells[0].jacobian, B.b.as_array())
    b_dot_grad = grads @ c  # (q, n_loc)
    w = _volume_weights(mesh, B.beta, xi, eta, wq)
    blocks = np.einsum("cq,qi,qj->cij", w, b_dot_grad, vals)
    dofs = np.arange(mesh.n_cells * spec.n_loc).reshape(mesh.n_cells, spec.n_loc)
    return _scatter(dofs, blocks, dofs.size)


# ---------------------------------------------------------------------------
# interface terms


def _side_points(mesh: Mesh, interfaces, side: str, s: np.ndarray):
    """Reference and physical points of the segment nodes on one side.

    ``side`` is ``"owner"`` or ``"neighbor"``; ``s`` are the nodes as
    fractions of each segment.  Returns ``(xi, eta, x, y)``, each ``(F, q)``.
    """
    cells = np.array([mesh.cell_id(getattr(itf, side)) for itf in interfaces], dtype=int)
    edges = np.array([getattr(itf, f"{side}_edge") for itf in interfaces])
    ranges = np.array([getattr(itf, f"{side}_range") for itf in interfaces]).reshape(-1, 2)
    t = ranges[:, :1] + (ranges[:, 1:] - ranges[:, :1]) * s
    xi, eta = np.empty_like(t), np.empty_like(t)
    for name in set(edges.tolist()):
        rows = edges == name
        xi[rows], eta[rows] = edge_point(name, t[rows])
    return (xi, eta) + _map_points(mesh, cells, xi, eta)


def face_quadrature(mesh: Mesh, spec: BasisSpec, interfaces, n_quad: int):
    """Traces and weights on a sequence of F interface segments.

    Returns ``(w, x, y, vals_own, vals_nbr)``: weights and owner-side
    physical points of shape ``(F, q)`` and traces of shape
    ``(F, q, n_loc)``.  ``w`` includes the physical surface measure
    ``h_F/2``, and the traces are evaluated at matching points of both
    reference edges.  Raises, naming the first offending interface, if the
    two sides of an interface do not map onto the same physical segment.
    """
    rule = gauss_rule(n_quad)
    s = (rule.nodes + 1.0) / 2.0
    xi_o, eta_o, xo, yo = _side_points(mesh, interfaces, "owner", s)
    xi_n, eta_n, xn, yn = _side_points(mesh, interfaces, "neighbor", s)
    bad = ~np.all(_periodic_close(xo, xn) & _periodic_close(yo, yn), axis=1)
    if np.any(bad):
        itf = interfaces[int(np.argmax(bad))]
        raise AssemblyError(f"owner/neighbor segment mapping mismatch on {itf}")
    vals_own, _ = tensor_basis_eval(spec, xi_o, eta_o)
    vals_nbr, _ = tensor_basis_eval(spec, xi_n, eta_n)
    h_f = np.array([itf.h_F for itf in interfaces])
    w = rule.weights * (h_f[:, None] / 2.0)
    return w, xo, yo, vals_own, vals_nbr


def _crossing_traces(mesh: Mesh, spec: BasisSpec, B: MagneticField, n_quad: int):
    """One batched trace pass over the interfaces that the field crosses.

    Edges with ``|b . n| <= ALIGNMENT_TOL |b|`` are field-tangent and
    skipped, so they contribute exactly zero.  Returns ``(dofs, w, bn_beta,
    h_F, jump, avg)``: the dofs ``[owner | neighbour]`` ``(F, 2 n_loc)``,
    the weights and ``(b . n) beta`` ``(F, q)``, the segment lengths
    ``(F,)``, the jump trace ``[+own, -nbr]`` and the average trace
    ``[own, nbr] / 2``, both ``(F, q, 2 n_loc)``.
    """
    normals = np.array([itf.normal for itf in mesh.interfaces]).reshape(-1, 2)
    bn = B.b.b1 * normals[:, 0] + B.b.b2 * normals[:, 1]
    crossing = np.abs(bn) > ALIGNMENT_TOL * B.b.norm
    faces = [itf for itf, keep in zip(mesh.interfaces, crossing) if keep]
    w, x, y, vo, vn = face_quadrature(mesh, spec, faces, n_quad)
    bn_beta = bn[crossing][:, None] * B.beta.eval(x, y)
    cells = np.array([[mesh.cell_id(itf.owner), mesh.cell_id(itf.neighbor)]
                      for itf in faces], dtype=int).reshape(-1, 2, 1)
    dofs = (cells * spec.n_loc + np.arange(spec.n_loc)).reshape(len(faces), -1)
    h_f = np.array([itf.h_F for itf in faces])
    jump = np.concatenate([vo, -vn], axis=-1)
    avg = np.concatenate([vo, vn], axis=-1) / 2.0
    return dofs, w, bn_beta, h_f, jump, avg


def assemble_face_terms(mesh: Mesh, spec: BasisSpec, B: MagneticField,
                        n_quad: int | None = None) -> sp.csr_matrix:
    """Interface blocks F[i, j] = sum over faces of {phi_j} * (B . [phi_i])."""
    n_quad = n_quad or default_quad_points(spec)
    dofs, w, bn_beta, _, jump, avg = _crossing_traces(mesh, spec, B, n_quad)
    blocks = np.einsum("fq,fqi,fqj->fij", w * bn_beta, jump, avg, optimize=True)
    return _scatter(dofs, blocks, mesh.n_cells * spec.n_loc)


def assemble_penalty(mesh: Mesh, spec: BasisSpec, B: MagneticField,
                     eta_s: float, n_quad: int | None = None) -> SparseSymMatrix:
    """Penalty (eta_S / h_F) * (B . [phi]) (B . [psi]), symmetric PSD."""
    if eta_s < 0.0:
        raise ValueError("penalty parameter must be >= 0")
    n_quad = n_quad or default_quad_points(spec)
    dofs, w, bn_beta, h_f, jump, _ = _crossing_traces(mesh, spec, B, n_quad)
    w_pen = w * (eta_s / h_f[:, None]) * bn_beta**2
    blocks = np.einsum("fq,fqi,fqj->fij", w_pen, jump, jump, optimize=True)
    return SparseSymMatrix.from_product(_scatter(dofs, blocks, mesh.n_cells * spec.n_loc))


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
    """Form A = (A_UPsi - B_UPsi) M_UV^{-1} (..)^T + B_PhiPsi and M = M_PhiPsi."""
    if np.any(ops.m_uv <= 0.0):
        raise AssemblyError("u mass matrix has a non-positive diagonal entry")
    c = (ops.a_upsi - ops.b_upsi).tocsr()
    a_full = (c @ sp.diags(1.0 / ops.m_uv)) @ c.T + ops.b_phipsi.to_full()
    return SparseSymMatrix.from_product(a_full), ops.m_phipsi

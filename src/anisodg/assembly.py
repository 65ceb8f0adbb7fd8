"""Assembly of the mixed-form LDG operator matrices and the reduced system.

The weak form couples a scalar parallel-gradient variable u with the
primal variable phi through seven matrices:

* ``M_UV``   cell mass blocks of u/v (block diagonal),
* ``A_UPsi`` volume blocks of ``u * B . grad(psi)`` (its transpose is the
  ``A_PhiV`` coupling; shared storage),
* ``B_UPsi`` interface blocks of ``{u} * B . [psi]`` (transpose serves
  ``B_PhiV``),
* ``B_PhiPsi`` penalty ``(eta_S / h_F) * (B . [phi]) (B . [psi])``,
* ``M_PhiPsi`` weighted mass blocks with coefficient alpha.

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
import scipy.linalg as sla
import scipy.sparse as sp

from .basis import BasisSpec, gauss_rule, tensor_basis_eval
from .fields import CoefficientField, MagneticField
from .geometry import ALIGNMENT_TOL, TWO_PI, Mesh, edge_point

#: Assembled entries below this times the matrix max are dropped.
DROP_TOL = 1e-15


class AssemblyError(RuntimeError):
    pass


def default_quad_points(spec: BasisSpec) -> int:
    """Default Gauss points per direction (and per interface sub-segment)."""
    return max(spec.p_xi, spec.p_eta) + 3


class BlockDiagMatrix:
    """Symmetric block diagonal matrix stored as (n_cells, n_loc, n_loc)."""

    def __init__(self, blocks: np.ndarray):
        blocks = np.asarray(blocks, dtype=float)
        if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2]:
            raise ValueError("blocks must have shape (n_cells, n_loc, n_loc)")
        self.blocks = blocks

    @property
    def n(self) -> int:
        return self.blocks.shape[0] * self.blocks.shape[1]

    @property
    def n_loc(self) -> int:
        return self.blocks.shape[1]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        xb = x.reshape(self.blocks.shape[0], self.n_loc)
        return np.einsum("cij,cj->ci", self.blocks, xb).reshape(x.shape)

    def matmat(self, x: np.ndarray) -> np.ndarray:
        """Apply to the columns of a (n, k) matrix."""
        k = x.shape[1]
        xb = x.reshape(self.blocks.shape[0], self.n_loc, k)
        return np.einsum("cij,cjk->cik", self.blocks, xb).reshape(x.shape)

    def to_sparse(self) -> sp.csr_matrix:
        return sp.block_diag([b for b in self.blocks], format="csr")

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        m = self.n_loc
        for c, blk in enumerate(self.blocks):
            out[c * m:(c + 1) * m, c * m:(c + 1) * m] = blk
        return out

    def map_blocks(self, fn) -> "BlockDiagMatrix":
        return BlockDiagMatrix(np.stack([fn(b) for b in self.blocks]))

    def inverse(self) -> "BlockDiagMatrix":
        try:
            return self.map_blocks(lambda b: _spd_inverse(b))
        except sla.LinAlgError as exc:
            raise AssemblyError(f"singular/indefinite diagonal block: {exc}") from exc


def _spd_inverse(block: np.ndarray) -> np.ndarray:
    c, low = sla.cho_factor(block)
    inv = sla.cho_solve((c, low), np.eye(block.shape[0]))
    return (inv + inv.T) / 2.0


class SparseSymMatrix:
    """Sparse symmetric matrix storing only the lower triangle."""

    def __init__(self, lower: sp.csr_matrix):
        self.lower = lower.tocsr()
        self._full = None

    @classmethod
    def from_product(cls, full: sp.spmatrix, drop_tol: float = DROP_TOL
                     ) -> "SparseSymMatrix":
        """Symmetrize a (numerically almost symmetric) product and keep tril."""
        full = full.tocsr()
        sym = (full + full.T) * 0.5
        sym.data[np.abs(sym.data) < drop_tol * np.max(np.abs(sym.data), initial=0.0)] = 0.0
        sym.eliminate_zeros()
        return cls(sp.tril(sym, format="csr"))

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "SparseSymMatrix":
        return cls.from_product(sp.csr_matrix(a))

    @property
    def n(self) -> int:
        return self.lower.shape[0]

    def to_full(self) -> sp.csr_matrix:
        if self._full is None:
            diag = sp.diags(self.lower.diagonal())
            self._full = (self.lower + self.lower.T - diag).tocsr()
        return self._full

    def to_dense(self) -> np.ndarray:
        return self.to_full().toarray()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.to_full() @ x

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.lower.data), initial=0.0))

    def norm_inf(self) -> float:
        return float(np.max(np.abs(self.to_full()).sum(axis=1)))

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

    The ``A_PhiV`` and ``B_PhiV`` couplings are the exact transposes of
    ``a_upsi`` and ``b_upsi`` and are not stored.
    """

    m_uv: BlockDiagMatrix
    a_upsi: sp.csr_matrix
    b_upsi: sp.csr_matrix
    b_phipsi: SparseSymMatrix
    m_phipsi: BlockDiagMatrix
    eta_s: float


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


def assemble_mass_u(mesh: Mesh, spec: BasisSpec, n_quad: int | None = None
                    ) -> BlockDiagMatrix:
    """Unweighted cell mass blocks (diagonal for the Legendre basis)."""
    n_quad = n_quad or default_quad_points(spec)
    _, _, wq, vals, _ = _volume_tables(spec, n_quad)
    det = mesh.cells[0].jacobian_det
    block = np.einsum("q,qi,qj->ij", wq * det, vals, vals)
    block = (block + block.T) / 2.0
    return BlockDiagMatrix(np.broadcast_to(block, (mesh.n_cells,) + block.shape).copy())


def assemble_mass_phi(mesh: Mesh, spec: BasisSpec, alpha: CoefficientField,
                      n_quad: int | None = None) -> BlockDiagMatrix:
    """Cell mass blocks weighted by the coefficient alpha(x)."""
    if alpha.is_constant:
        base = assemble_mass_u(mesh, spec, n_quad)
        return BlockDiagMatrix(base.blocks * alpha.mean)
    n_quad = n_quad or default_quad_points(spec)
    xi, eta, wq, vals, _ = _volume_tables(spec, n_quad)
    w = _volume_weights(mesh, alpha, xi, eta, wq)
    blocks = np.einsum("cq,qi,qj->cij", w, vals, vals)
    return BlockDiagMatrix((blocks + blocks.transpose(0, 2, 1)) / 2.0)


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
    dxw = np.remainder(xo - xn, TWO_PI)
    dyw = np.remainder(yo - yn, TWO_PI)
    bad = np.any((np.minimum(dxw, TWO_PI - dxw) > 1e-9)
                 | (np.minimum(dyw, TWO_PI - dyw) > 1e-9), axis=1)
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
        m_uv=assemble_mass_u(mesh, spec, n_quad),
        a_upsi=assemble_gradient(mesh, spec, B, n_quad),
        b_upsi=assemble_face_terms(mesh, spec, B, n_quad),
        b_phipsi=assemble_penalty(mesh, spec, B, eta_s, n_quad),
        m_phipsi=assemble_mass_phi(mesh, spec, alpha, n_quad),
        eta_s=eta_s)


def build_reduced(ops: OperatorSet) -> tuple[SparseSymMatrix, BlockDiagMatrix]:
    """Form A = (A_UPsi - B_UPsi) M_UV^{-1} (..)^T + B_PhiPsi and M = M_PhiPsi."""
    c = (ops.a_upsi - ops.b_upsi).tocsr()
    m_inv = ops.m_uv.inverse().to_sparse()
    a_full = (c @ m_inv) @ c.T + ops.b_phipsi.to_full()
    return SparseSymMatrix.from_product(a_full), ops.m_phipsi

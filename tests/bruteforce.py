"""Independent brute-force assembler used as an oracle by the tests.

Deliberately different from the production path: basis functions and Gauss
rules come from numpy.polynomial.legendre, Jacobians are inverted with
numpy.linalg, everything is dense, and the interface/volume integrals are
accumulated one raw quadrature point at a time with no sum factorization
and no transpose reuse.  It also keeps the global scalar forms of what the
library does on lattice stencils (the reduction to ``A`` by scalar CSR
products), and the global dense solvers that serve as the tests' oracles
(``dense_generalized_eig`` and ``ldl_inertia``), the former all-classes
loop of ``bloch_eig`` (``bloch_band_reference``), the former
per-class loop of the Bloch association (``class_projection``), the
former lattice LDL^T on a formed ``K`` stencil scattered whole
(``lattice_ldl_reference``), and pencil residuals in extended precision
(``extended_residuals``).  ``face_and_penalty`` builds the library's
interface and penalty stencils alone, as ``assemble_operator_set`` does.
"""

import math

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from numpy.polynomial import legendre as npleg
from scipy.special import spherical_jn

from anisodg.assembly import (Stencil, _crossing_traces, _face_terms, _penalty,
                              _residues)
from anisodg.eigensolve import (PIVOT_TOL, CompletenessError, EigenSolution,
                                _BunchKaufman, _as_pencil, _as_sym, _count_signs,
                                _dense_pencil, _LatticePencil, _ldl_factor,
                                _pencil_band, _pencil_eigh, _residuals)
from anisodg.geometry import (MERGE_TOL, TWO_PI, Alignment, Cell, Interface,
                              edge_point, outward_normal)

ORACLE_QUAD = 20

#: The largest pencil the dense oracle solves: it forms ``n x n`` matrices
#: and eigenvectors.
DENSE_CAP = 8192


def oracle_cells(config):
    """Every cell of the mesh, built one at a time with its own anchor."""
    nx, ny = config.nx, config.ny
    dx, dy = TWO_PI / nx, TWO_PI / ny
    b1, b2 = config.b.b1, config.b.b2
    if config.alignment == Alignment.LEFT_RIGHT:
        half_xi = ((b1 / b2) * dy / 2.0, dy / 2.0)
        half_eta = (-dx / 2.0, 0.0)

        def anchor(i, j):
            return ((i + 1) * dx, j * dy)
    else:
        rise = 0.0 if config.alignment == Alignment.CARTESIAN else (b2 / b1) * dx
        half_xi = (dx / 2.0, rise / 2.0)
        half_eta = (0.0, dy / 2.0)

        def anchor(i, j):
            return (i * dx, j * dy)

    return [Cell(index=(i, j), anchor=anchor(i, j), half_xi=half_xi,
                 half_eta=half_eta)
            for i in range(nx) for j in range(ny)]


def oracle_interfaces(config):
    """Every interface of the mesh, resolved one owner edge at a time.

    The aligned (top/bottom) edges are conforming.  On each cross-field
    line the owner edges cover ``[k + offset, k + offset + 1)`` and the
    neighbour edges ``[k, k + 1)`` in units of the edge width, on a circle
    of circumference n; a non-integer offset splits every edge into two
    sub-segments with fractions ``g`` and ``1 - g``.
    """
    nx, ny = config.nx, config.ny
    b1, b2 = config.b.b1, config.b.b2
    cell_of = {c.index: c for c in oracle_cells(config)}
    out = []
    for i in range(nx):
        for j in range(ny):
            if config.alignment == Alignment.LEFT_RIGHT:
                # reference-top edge = physical left edge; the cell beyond it
                # is the previous column
                neighbor = ((i - 1) % nx, j)
            else:
                neighbor = (i, (j + 1) % ny)
            cell = cell_of[(i, j)]
            out.append(Interface(
                owner=(i, j), neighbor=neighbor,
                owner_edge="top", neighbor_edge="bottom",
                owner_range=(-1.0, 1.0), neighbor_range=(-1.0, 1.0),
                normal=tuple(outward_normal(cell, "top")),
                h_F=2.0 * math.hypot(*cell.half_xi)))

    if config.alignment == Alignment.LEFT_RIGHT:
        n_lines, n_edges, width = ny, nx, TWO_PI / nx
        offset = -(b1 / b2) * (nx / ny)
    else:
        n_lines, n_edges, width = nx, ny, TWO_PI / ny
        offset = 0.0 if config.alignment == Alignment.CARTESIAN else (b2 / b1) * (ny / nx)
    merge = MERGE_TOL / width
    g = offset % 1.0
    conforming = g <= merge or 1.0 - g <= merge
    shift = round(offset) if conforming else math.floor(offset)

    for line in range(n_lines):
        for k in range(n_edges):
            nbr_line = (line + 1) % n_lines
            if config.alignment == Alignment.LEFT_RIGHT:
                own = ((n_edges - 1 - k) % n_edges, line)

                def nbr_of(slot):
                    return ((n_edges - 1 - slot % n_edges) % n_edges, nbr_line)
            else:
                own = (line, k)

                def nbr_of(slot):
                    return (nbr_line, slot % n_edges)

            normal = tuple(outward_normal(cell_of[own], "right"))
            if conforming:
                out.append(Interface(
                    owner=own, neighbor=nbr_of(k + shift),
                    owner_edge="right", neighbor_edge="left",
                    owner_range=(-1.0, 1.0), neighbor_range=(-1.0, 1.0),
                    normal=normal, h_F=width))
                continue
            lo = k + shift  # owner edge spans [lo + g, lo + g + 1)
            out.append(Interface(
                owner=own, neighbor=nbr_of(lo),
                owner_edge="right", neighbor_edge="left",
                owner_range=(-1.0, 1.0 - 2.0 * g),
                neighbor_range=(-1.0 + 2.0 * g, 1.0),
                normal=normal, h_F=width * (1.0 - g)))
            out.append(Interface(
                owner=own, neighbor=nbr_of(lo + 1),
                owner_edge="right", neighbor_edge="left",
                owner_range=(1.0 - 2.0 * g, 1.0),
                neighbor_range=(-1.0, -1.0 + 2.0 * g),
                normal=normal, h_F=width * g))
    return out


def basis_values(spec, xi, eta):
    """(n_loc,) values of the tensor Legendre basis at one reference point."""
    vx = npleg.legvander(np.atleast_1d(xi), spec.p_xi)[0]
    ve = npleg.legvander(np.atleast_1d(eta), spec.p_eta)[0]
    return np.outer(vx, ve).ravel()


def basis_ref_gradients(spec, xi, eta):
    """(n_loc, 2) reference gradients at one point, via legder coefficients."""
    out = np.zeros((spec.n_loc, 2))
    for a in range(spec.p_xi + 1):
        ca = np.zeros(a + 1)
        ca[a] = 1.0
        pa = npleg.legval(xi, ca)
        dpa = npleg.legval(xi, npleg.legder(ca)) if a > 0 else 0.0
        for b in range(spec.p_eta + 1):
            cb = np.zeros(b + 1)
            cb[b] = 1.0
            pb = npleg.legval(eta, cb)
            dpb = npleg.legval(eta, npleg.legder(cb)) if b > 0 else 0.0
            k = a * (spec.p_eta + 1) + b
            out[k, 0] = dpa * pb
            out[k, 1] = pa * dpb
    return out


def oracle_mass(mesh, spec, weight=None, nq=ORACLE_QUAD):
    """Dense mass matrix with optional scalar weight(x, y)."""
    n_loc = spec.n_loc
    n = mesh.n_cells * n_loc
    nodes, weights = npleg.leggauss(nq)
    out = np.zeros((n, n))
    for cid, cell in enumerate(mesh.cells):
        jac = np.array(cell.jacobian)
        det = abs(np.linalg.det(jac))
        base = cid * n_loc
        for qx, wx in zip(nodes, weights):
            for qy, wy in zip(nodes, weights):
                phi = basis_values(spec, qx, qy)
                x, y = cell.map_point(qx, qy)
                w = wx * wy * det
                if weight is not None:
                    w *= weight(float(x), float(y))
                out[base:base + n_loc, base:base + n_loc] += w * np.outer(phi, phi)
    return out


def oracle_gradient(mesh, spec, b_field, nq=ORACLE_QUAD):
    """Dense G[i, j] = integral of phi_j * (B . grad phi_i)."""
    n_loc = spec.n_loc
    n = mesh.n_cells * n_loc
    nodes, weights = npleg.leggauss(nq)
    b = np.array([b_field.b.b1, b_field.b.b2])
    out = np.zeros((n, n))
    for cid, cell in enumerate(mesh.cells):
        jac = np.array(cell.jacobian)
        det = abs(np.linalg.det(jac))
        inv_jac_t = np.linalg.inv(jac).T
        base = cid * n_loc
        for qx, wx in zip(nodes, weights):
            for qy, wy in zip(nodes, weights):
                phi = basis_values(spec, qx, qy)
                grad_phys = basis_ref_gradients(spec, qx, qy) @ inv_jac_t.T
                x, y = cell.map_point(qx, qy)
                beta = float(b_field.beta.eval(x, y))
                bdg = grad_phys @ (beta * b)
                out[base:base + n_loc, base:base + n_loc] += \
                    wx * wy * det * np.outer(bdg, phi)
    return out


def _face_points(mesh, spec, itf, nq):
    nodes, weights = npleg.leggauss(nq)
    own = mesh.cell(itf.owner)
    nbr = mesh.cell(itf.neighbor)
    a, b = itf.owner_range
    c, d = itf.neighbor_range
    for t, w in zip(nodes, weights):
        t_own = a + (b - a) * (t + 1.0) / 2.0
        t_nbr = c + (d - c) * (t + 1.0) / 2.0
        xi_o, eta_o = edge_point(itf.owner_edge, t_own)
        xi_n, eta_n = edge_point(itf.neighbor_edge, t_nbr)
        phi_o = basis_values(spec, float(xi_o), float(eta_o))
        phi_n = basis_values(spec, float(xi_n), float(eta_n))
        x, y = own.map_point(float(xi_o), float(eta_o))
        yield w * itf.h_F / 2.0, float(x), float(y), phi_o, phi_n


def oracle_face_terms(mesh, spec, b_field, nq=ORACLE_QUAD, tangent_tol=1e-14):
    """Dense F[i, j] = sum_F integral of {phi_j} * B . [phi_i]."""
    n_loc = spec.n_loc
    n = mesh.n_cells * n_loc
    out = np.zeros((n, n))
    b = np.array([b_field.b.b1, b_field.b.b2])
    for itf in mesh.interfaces:
        bn = b @ np.array(itf.normal)
        if abs(bn) <= tangent_tol * np.linalg.norm(b):
            continue
        o = mesh.cell_id(itf.owner) * n_loc
        m = mesh.cell_id(itf.neighbor) * n_loc
        for w, x, y, phi_o, phi_n in _face_points(mesh, spec, itf, nq):
            beta = float(b_field.beta.eval(x, y))
            jump = np.zeros(n)
            avg = np.zeros(n)
            jump[o:o + n_loc] = bn * beta * phi_o
            jump[m:m + n_loc] -= bn * beta * phi_n
            avg[o:o + n_loc] = 0.5 * phi_o
            avg[m:m + n_loc] += 0.5 * phi_n
            out += w * np.outer(jump, avg)
    return out


def oracle_penalty(mesh, spec, b_field, eta_s, nq=ORACLE_QUAD, tangent_tol=1e-14):
    """Dense penalty matrix (eta_s / h_F) (B.[phi])(B.[psi])."""
    n_loc = spec.n_loc
    n = mesh.n_cells * n_loc
    out = np.zeros((n, n))
    b = np.array([b_field.b.b1, b_field.b.b2])
    for itf in mesh.interfaces:
        bn = b @ np.array(itf.normal)
        if abs(bn) <= tangent_tol * np.linalg.norm(b):
            continue
        o = mesh.cell_id(itf.owner) * n_loc
        m = mesh.cell_id(itf.neighbor) * n_loc
        for w, x, y, phi_o, phi_n in _face_points(mesh, spec, itf, nq):
            beta = float(b_field.beta.eval(x, y))
            jump = np.zeros(n)
            jump[o:o + n_loc] = bn * beta * phi_o
            jump[m:m + n_loc] -= bn * beta * phi_n
            out += w * (eta_s / itf.h_F) * np.outer(jump, jump)
    return out


def face_and_penalty(mesh, spec, b_field, eta_s=6.0, n_quad=None):
    """The library's interface stencil ``F`` and penalty stencil, from one
    ``_crossing_traces`` pass, as ``assemble_operator_set`` builds them."""
    traces = _crossing_traces(mesh, spec, b_field, n_quad)
    return _face_terms(mesh, traces), _penalty(mesh, traces, eta_s)


def oracle_reduced(mesh, spec, alpha, b_field, eta_s, nq=ORACLE_QUAD):
    """Dense reduced operator and mass matrix by direct composition."""
    mass_u = oracle_mass(mesh, spec, None, nq)
    grad = oracle_gradient(mesh, spec, b_field, nq)
    face = oracle_face_terms(mesh, spec, b_field, nq)
    pen = oracle_penalty(mesh, spec, b_field, eta_s, nq)
    mass_phi = oracle_mass(mesh, spec, lambda x, y: float(alpha.eval(x, y)), nq)
    c = grad - face
    a = c @ np.linalg.inv(mass_u) @ c.T + pen
    return (a + a.T) / 2.0, mass_phi


def scalar_reduced(ops):
    """The reduced operator of an assembled ``OperatorSet`` as one global
    scalar product of the expanded stencils, ``C diag(1/M_u) C^T + P``,
    taken as the one-cell stencil of the 1x1 lattice, which symmetrizes and
    drops it like the library's."""
    c = ops.c.expand()
    return _as_sym((c @ sp.diags(1.0 / ops.m_uv.expand().diagonal())) @ c.T
                   + ops.b_phipsi.expand())


def dense_generalized_eig(a, m=None, cap: int = DENSE_CAP) -> EigenSolution:
    """Full spectrum of the symmetric pencil (A, M) via one global LAPACK
    ``eigh``; the oracle for ``bloch_eig`` and ``band_eig``.

    The generalized problem is reduced with a Cholesky factorization of M
    inside LAPACK's generalized solver; eigenvectors come back M-orthonormal.
    """
    a, m = _as_pencil(a, m)
    if a.n > cap:
        raise ValueError(f"dense solve of dimension {a.n} exceeds cap {cap}")
    w, v = sla.eigh(*_dense_pencil(a, m), overwrite_a=True, overwrite_b=True)
    return EigenSolution(eigenvalues=w, eigenvectors=v,
                         residuals=_residuals(a, m, w, v), method="dense",
                         norm_a=a.norm_inf())


def bloch_band_reference(a, m, req) -> EigenSolution:
    """The solve of ``bloch_eig`` by its former all-classes loop.  With
    ``req``, every wavevector class is solved by the same by-value call as
    ``bloch_eig``'s (``_pencil_band``), and only then is each class's count
    checked against the LDL^T inertia of its block ``A(k) - lambda_max
    M(k)``; ``bloch_eig`` takes the inertia first and solves only the classes
    with band pairs.  Without ``req`` every class is solved in full, in one
    ``_pencil_eigh`` batch per group of classes as ``bloch_eig`` does.  The
    two must agree bit for bit.  Each class is bounded over the columns it
    returns."""
    pencil = _LatticePencil(a, m)
    ks = np.arange(len(pencil.conj))
    real = np.flatnonzero(pencil.conj == ks)
    pair = np.flatnonzero(pencil.conj > ks)
    def block(k, mult):
        a_k, m_k = pencil.symbols(k)
        return (a_k.real, m_k.real) if mult == 1 else (a_k, m_k)

    if req is None:
        w_real, v_real = _pencil_eigh(*block(real, 1))
        w_pair, v_pair = _pencil_eigh(*block(pair, 2))
        classes = [(int(k), w, v, 1) for k, w, v in zip(real, w_real, v_real)]
        classes += [(int(k), w, v, 2) for k, w, v in zip(pair, w_pair, v_pair)]
    else:
        classes = [(int(k), *_pencil_band(*block(k, mult), req.lambda_max), mult)
                   for ks, mult in ((real, 1), (pair, 2)) for k in ks]
    norm_a = a.norm_inf()

    inertia = None
    if req is not None:
        shift, inertia, n_zero = req.lambda_max, 0, 0
        for k, w, _, mult in classes:
            a_k, m_k = pencil.symbols(k)
            shifted = a_k - shift * m_k
            neg, zero, _ = block_inertia(shifted.real if mult == 1 else shifted)
            if len(w) != neg and not zero:
                raise CompletenessError(
                    f"found {len(w)} eigenvalues <= {shift:.6g} in the block of "
                    f"wavevector {divmod(k, pencil.ny)} but its inertia count "
                    f"demands {neg}")
            inertia += mult * neg
            n_zero += mult * zero
        if n_zero:
            raise CompletenessError(
                f"{n_zero} pivot(s) within tolerance of lambda_max={shift:.6g}; "
                f"band boundary is ambiguous")
    classes = [(k, w, v, pencil.bounds(k, w, v), mult) for k, w, v, mult in classes]

    col_w = np.concatenate([np.repeat(w, mult) for _, w, _, _, mult in classes])
    order = np.argsort(col_w, kind="stable")
    dest = np.empty_like(order)
    dest[order] = np.arange(len(order))
    x = np.empty((a.n, len(order)), order="F")
    resid = np.empty(len(order))
    start = 0
    for k, w, v, bound, mult in classes:
        cols = dest[start:start + mult * len(w)]
        start += len(cols)
        if len(cols):
            x[:, cols] = pencil.real_waves(k, v)
            resid[cols] = np.repeat(bound, mult)
    col_k = np.concatenate([np.full(mult * len(w), k) for k, w, _, _, mult in classes])
    return EigenSolution(eigenvalues=col_w[order], eigenvectors=x, residuals=resid,
                         method="dense" if req is None else "bloch",
                         inertia_count=inertia,
                         norm_a=norm_a, wavevectors=col_k[order])


def block_inertia(block) -> tuple[int, int, int]:
    """Inertia of one real-symmetric or Hermitian class block, from its own
    ``_ldl_factor`` (of a Fortran-ordered copy): the per-class count that
    ``bloch_eig``'s batched ``_class_inertia`` must reproduce."""
    return _ldl_factor(np.array(block, order="F"))[0]


def ldl_inertia(s) -> tuple[int, int, int]:
    """Inertia (n_neg, n_zero, n_pos) of a symmetric matrix.

    Uses the dense Bunch-Kaufman LDL^T factorization; pivot-block
    eigenvalues within ``PIVOT_TOL * max|S|`` of zero count as zero.
    """
    if sp.issparse(s):
        s = s.toarray()
    return _ldl_factor(np.array(s, dtype=float, order="F"))[0]


def shifted_stencil(a, m, shift: float) -> Stencil:
    """``K = A - shift M`` as one stencil on the union of their offsets,
    summed block by block into one array."""
    offsets, slot = _residues(np.concatenate([a.offsets, m.offsets]), a.lattice)
    cells = max(len(a.blocks), len(m.blocks))
    blocks = np.zeros((cells, len(offsets)) + a.blocks.shape[2:])
    for s, k in enumerate(slot[:len(a.offsets)]):
        blocks[:, k] += a.blocks[:, s]
    for s, k in enumerate(slot[len(a.offsets):]):
        blocks[:, k] += -shift * m.blocks[:, s]
    return Stencil(offsets, blocks, a.lattice)


def _scatter(k, blocking):
    """The dense blocks of the stencil ``K`` in ``blocking``, all at once:
    the diagonal blocks, and per block ``j`` but the border its coupling
    ``K[j, next + border]`` above the diagonal (columns of the next block
    first; the block before the border couples to the border only)."""
    steps, nl = len(blocking.sizes) - 1, k.n_loc
    size, border_size = blocking.sizes[0], blocking.sizes[-1]
    pos = np.empty(k.n_cells, dtype=int)
    pos[blocking.order] = np.arange(k.n_cells)
    block = np.minimum(pos // size, steps)
    local = pos - block * size
    cols = k.column_cells
    row, row_at = (np.broadcast_to(x[:, None], cols.shape) for x in (block, local))
    col, col_at = block[cols], local[cols]
    values = np.broadcast_to(k.blocks, cols.shape + (nl, nl))

    diag = np.zeros((steps, size, nl, size, nl))
    border = np.zeros((border_size, nl, border_size, nl))
    inner = np.zeros((max(steps - 1, 0), size, nl, size + border_size, nl))
    last = np.zeros((size, nl, border_size, nl))
    at = (row == col) & (row < steps)
    diag[row[at], row_at[at], :, col_at[at], :] = values[at]
    at = (row == col) & (row == steps)
    border[row_at[at], :, col_at[at], :] = values[at]
    at = (row < col) & (row == steps - 1)
    last[row_at[at], :, col_at[at], :] = values[at]
    at = (row < col) & (row < steps - 1)  # the border's columns after the next's
    inner[row[at], row_at[at], :, col_at[at] + size * (col[at] == steps), :] = values[at]

    b, c = size * nl, border_size * nl
    upper = [x.reshape(b, b + c) for x in inner]
    if steps:
        upper.append(last.reshape(b, c))
    return [d.reshape(b, b) for d in diag] + [border.reshape(c, c)], upper


def lattice_ldl_reference(k, blocking):
    """The pivots of each block and the inertia of the periodic block LDL^T
    of the stencil ``K`` (``shifted_stencil``) in ``blocking``, eliminated
    as ``_LatticeLDL`` does, on every block scattered at once from ``K``
    before the elimination starts."""
    diag, upper = _scatter(k, blocking)
    tol = PIVOT_TOL * max(float(np.max(np.abs(k.blocks))), np.finfo(float).tiny)
    border, width = diag[-1], len(diag[-1])
    pivots = []
    for j, up in enumerate(upper):
        factor = _BunchKaufman(diag[j])
        w = factor.forward(up)
        up[:] = factor.scale(w)
        nxt = up.shape[1] - width
        if nxt:
            update = w[:, :nxt].T @ up
            diag[j + 1] -= update[:, :nxt]
            upper[j + 1][:, -width:] -= update[:, nxt:]
        border -= w[:, nxt:].T @ up[:, nxt:]
        pivots.append(factor.pivots)
    pivots.append(_BunchKaufman(border).pivots)
    return pivots, tuple(map(sum, zip(*(_count_signs(p, tol) for p in pivots))))


def extended_residuals(a, m, w, x) -> np.ndarray:
    """``||A x_j - w_j M x_j||_2`` of the columns of ``x`` for a pencil of
    stencils, in ``np.longdouble``: each cell block's products summed one
    offset at a time, so the stored ``x`` and ``w`` are taken exactly and
    the result carries the extended precision's rounding alone."""
    cols = np.asarray(x, dtype=np.longdouble).reshape(a.n_cells, a.n_loc, -1)

    def product(s):
        out = np.zeros(cols.shape, dtype=np.longdouble)
        for blocks, cells in zip(s.blocks.astype(np.longdouble).swapaxes(0, 1),
                                 s.column_cells.T):
            out += np.matmul(blocks, cols[cells])
        return out

    r = product(a) - product(m) * np.asarray(w, dtype=np.longdouble)
    return np.sqrt(np.sum(r.reshape(a.n, -1) ** 2, axis=0))


def oracle_moments(mesh, spec, modes):
    """Dense ``(modes, n)`` Fourier moments: row ``(m, n)`` times a coefficient
    vector is its projection onto ``exp(i(mx+ny))``.

    Each cell uses its own anchor and Jacobian, with no lattice structure:
    ``m x + n y = m ax + n ay + c_xi (xi+1) + c_eta (eta+1)`` on the cell, so
    its moment is the phase ``exp(i(m ax + n ay + c_xi + c_eta))`` times
    ``det J`` times the 1D integrals ``int P_a(t) exp(ict) dt = 2 i^a j_a(c)``.
    """
    def segment(p, c):
        sign = -1.0 if c < 0 else 1.0
        return np.array([2.0 * 1j ** a * sign ** a * spherical_jn(a, abs(c))
                         for a in range(p + 1)])

    n_loc = spec.n_loc
    out = np.zeros((len(modes), mesh.n_cells * n_loc), dtype=complex)
    for row, (m, n) in enumerate(modes):
        for cid, cell in enumerate(mesh.cells):
            c_xi = m * cell.half_xi[0] + n * cell.half_xi[1]
            c_eta = m * cell.half_eta[0] + n * cell.half_eta[1]
            phase = np.exp(1j * (m * cell.anchor[0] + n * cell.anchor[1]
                                 + c_xi + c_eta))
            local = np.outer(segment(spec.p_xi, c_xi), segment(spec.p_eta, c_eta))
            out[row, cid * n_loc:(cid + 1) * n_loc] = \
                cell.jacobian_det * phase * local.ravel()
    return out


def class_projection(proj, coeff, wavevectors):
    """The former per-class loop of ``FourierProjector._argmax_classes``:
    per wavevector class ``k`` of the columns whose DFT at their own
    wavevector is ``coeff``, the modes of the residue classes of ``k`` and
    ``-k`` projected onto by two products, ``|local x|`` and ``|local
    conj(x)|``, and the class's columns labelled by the first largest
    amplitude in mode order.  Returns the labels and amplitudes of
    ``_argmax_classes`` and the ``(modes, columns)`` table of amplitudes,
    0 outside each column's class."""
    nx, ny = proj.mesh.config.nx, proj.mesh.config.ny
    classes, inverse = np.unique(np.asarray(wavevectors), return_inverse=True)
    p, q = np.divmod(classes, ny)
    conj = ((-p) % nx * ny + (-q) % ny).tolist()
    local = proj._moments(classes.tolist() + conj)
    residue_rows = {p * ny + q: rows for p, q, rows in proj._classes}
    empty = np.empty(0, dtype=int)
    best = np.zeros(len(coeff), dtype=int)
    amps = np.zeros(len(coeff))
    table = np.zeros((len(proj.modes), len(coeff)))
    for c, k in enumerate(classes.tolist()):
        cols = np.flatnonzero(inverse == c)
        at_k = coeff[cols].T
        rows = residue_rows.get(k, empty)
        a = np.abs(local[rows] @ at_k)
        if conj[c] != k:
            rows_c = residue_rows.get(conj[c], empty)
            both = np.concatenate([rows, rows_c])
            order = np.argsort(both)
            rows = both[order]
            a = np.vstack([a, np.abs(local[rows_c] @ at_k.conj())])[order]
        if len(rows):
            best[cols] = rows[a.argmax(axis=0)]
            amps[cols] = a.max(axis=0)
            table[np.ix_(rows, cols)] = a
    return best, amps, table

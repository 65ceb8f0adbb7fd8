import io
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bruteforce as bf
from anisodg import assembly
from anisodg.assembly import (AssemblyError, Stencil, assemble_gradient,
                              assemble_mass_phi, assemble_mass_u,
                              assemble_operator_set, build_reduced,
                              default_quad_points, face_quadrature)
from anisodg.basis import BasisSpec
from anisodg.eigensolve import BandRequest, _as_sym, bloch_eig
from anisodg.fields import CoefficientField, Harmonic, MagneticField
from anisodg.geometry import Alignment, FieldDirection, MeshConfig, build_mesh
from pinning import pinned

REF_B = FieldDirection(1.165939761, 1.0)
CONST = CoefficientField.constant(1.0)


def constant_vector(mesh, spec):
    v = np.zeros(mesh.n_cells * spec.n_loc)
    v[::spec.n_loc] = 1.0
    return v


def test_mass_single_cell_p0_is_area():
    mesh = build_mesh(MeshConfig(1, 1, Alignment.CARTESIAN, REF_B))
    m = assemble_mass_u(mesh, BasisSpec(0, 0)).to_dense()
    assert m[0, 0] == pytest.approx(4 * math.pi**2, rel=1e-14)


def test_mass_legendre_diagonal_formula():
    spec = BasisSpec(2, 3)
    mesh = build_mesh(MeshConfig(4, 2, Alignment.BOTTOM_TOP, REF_B))
    m = assemble_mass_u(mesh, spec).to_dense()
    assert np.count_nonzero(m - np.diag(np.diag(m))) == 0
    m = np.diag(m)
    det = mesh.cells[0].jacobian_det
    expect = np.zeros(spec.n_loc)
    for a in range(spec.p_xi + 1):
        for b in range(spec.p_eta + 1):
            k = a * (spec.p_eta + 1) + b
            expect[k] = det * (2.0 / (2 * a + 1)) * (2.0 / (2 * b + 1))
    assert m.shape == (mesh.n_cells * spec.n_loc,)
    assert np.max(np.abs(m.reshape(mesh.n_cells, spec.n_loc) - expect)) < 1e-13 * det


def test_mass_phi_scaling():
    mesh = build_mesh(MeshConfig(2, 2, Alignment.CARTESIAN, REF_B))
    spec = BasisSpec(1, 1)
    base = assemble_mass_u(mesh, spec).to_dense()
    same = assemble_mass_phi(mesh, spec, CONST)
    twice = assemble_mass_phi(mesh, spec, CoefficientField.constant(2.0))
    assert np.array_equal(same.to_dense(), base)
    assert np.allclose(twice.to_dense(), 2.0 * base, rtol=1e-15)


def test_gradient_constant_trial_cancels_with_faces():
    """sum_K int B.grad(psi) dV equals the face jump sum on the periodic box."""
    mesh = build_mesh(MeshConfig(2, 2, Alignment.BOTTOM_TOP, REF_B))
    spec = BasisSpec(2, 2)
    field = MagneticField(REF_B, CoefficientField(1.0, (Harmonic(1, 0, 0.2, 0.1),)))
    g = assemble_gradient(mesh, spec, field).expand().toarray()
    f = bf.face_and_penalty(mesh, spec, field)[0].expand().toarray()
    ones = constant_vector(mesh, spec)
    resid = (g - f).T @ ones  # rows: every psi against the constant trial
    assert np.max(np.abs(resid)) < 1e-12 * max(np.abs(g).max(), 1.0)


def test_gradient_xi_constant_rows_vanish_when_aligned():
    mesh = build_mesh(MeshConfig(4, 4, Alignment.BOTTOM_TOP, FieldDirection(1.0, 2.0)))
    spec = BasisSpec(2, 2)
    g = assemble_gradient(mesh, spec, MagneticField.uniform(FieldDirection(1.0, 2.0)))
    g = g.expand().toarray()
    scale = np.abs(g).max()
    for cid in range(mesh.n_cells):
        for b in range(spec.p_eta + 1):
            row = cid * spec.n_loc + b  # the dof P_0(xi) P_b(eta)
            assert np.max(np.abs(g[row])) < 1e-12 * scale


def test_face_terms_cartesian_p0_hand_value():
    """p0 couplings reduce to +-(b.n) * |F| / 2 between cell constants."""
    b = FieldDirection(0.8, -0.3)
    mesh = build_mesh(MeshConfig(2, 2, Alignment.CARTESIAN, b))
    spec = BasisSpec(0, 0)
    f = bf.face_and_penalty(mesh, spec, MagneticField.uniform(b))[0].expand().toarray()
    for itf in mesh.interfaces:
        bn = b.b1 * itf.normal[0] + b.b2 * itf.normal[1]
        o = mesh.cell_id(itf.owner)
        n = mesh.cell_id(itf.neighbor)
        block = np.zeros((4, 4))
        block[o, o] += bn * itf.h_F / 2.0
        block[o, n] += bn * itf.h_F / 2.0
        block[n, o] -= bn * itf.h_F / 2.0
        block[n, n] -= bn * itf.h_F / 2.0
        # subtract this interface's contribution; what remains is the others'
        f -= block
    assert np.max(np.abs(f)) < 1e-13


def test_aligned_interfaces_contribute_nothing():
    """With tangent edges skipped, face matrices equal the vertical-only oracle."""
    b = FieldDirection(1.0, 1.0)
    mesh = build_mesh(MeshConfig(2, 2, Alignment.BOTTOM_TOP, b))
    spec = BasisSpec(1, 1)
    beta = CoefficientField(1.0, (Harmonic(1, 1, 0.5, 0.0),))
    field = MagneticField(b, beta)
    got = bf.face_and_penalty(mesh, spec, field, n_quad=20)[0].expand().toarray()

    class VerticalOnly:
        config = mesh.config
        cells = mesh.cells
        interfaces = [i for i in mesh.interfaces if i.owner_edge == "right"]
        cell_id = mesh.cell_id
        cell = mesh.cell
        n_cells = mesh.n_cells

    want = bf.oracle_face_terms(VerticalOnly(), spec, field, nq=20)
    assert np.max(np.abs(got - want)) < 1e-12 * max(np.abs(want).max(), 1.0)


def test_matched_traces_have_zero_jump():
    mesh = build_mesh(MeshConfig(2, 1, Alignment.CARTESIAN, REF_B))
    spec = BasisSpec(1, 1)
    k = next(k for k, i in enumerate(mesh.interfaces) if i.owner_edge == "right")
    _, _, _, vals_own, vals_nbr = face_quadrature(mesh, spec, mesh.faces.take([k]), 5)
    # the eta-linear function has identical traces from both sides
    coeff = np.array([1.0, 0.5, 0.0, 0.0])  # 1 + 0.5*P_1(eta)
    assert np.max(np.abs(vals_own @ coeff - vals_nbr @ coeff)) < 1e-14


def test_penalty_zero_for_bassi_rebay_limit():
    mesh = build_mesh(MeshConfig(2, 2, Alignment.BOTTOM_TOP, REF_B))
    _, p = bf.face_and_penalty(mesh, BasisSpec(1, 1), MagneticField.uniform(REF_B), 0.0)
    assert p.lower.nnz == 0
    with pytest.raises(ValueError):
        bf.face_and_penalty(mesh, BasisSpec(1, 1), MagneticField.uniform(REF_B), -1.0)


def test_penalty_positive_semidefinite_quadratic_form():
    mesh = build_mesh(MeshConfig(2, 2, Alignment.BOTTOM_TOP, REF_B))
    spec = BasisSpec(2, 1)
    _, p = bf.face_and_penalty(mesh, spec, MagneticField.uniform(REF_B), 6.0)
    full = p.to_dense()
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.standard_normal(full.shape[0])
        assert x @ full @ x >= -1e-12 * np.abs(full).max() * (x @ x)


MESH_CASES = [
    ("cartesian", MeshConfig(2, 2, Alignment.CARTESIAN, FieldDirection(1.0, 2.0))),
    ("aligned-conforming", MeshConfig(2, 2, Alignment.BOTTOM_TOP, FieldDirection(1.0, 2.0))),
    ("aligned-split", MeshConfig(2, 2, Alignment.BOTTOM_TOP, REF_B)),
    ("leftright-split", MeshConfig(2, 2, Alignment.LEFT_RIGHT, FieldDirection(2.0, 7.0))),
]
COEFF_CASES = [
    ("constant", CONST, CONST),
    ("one-harmonic", CoefficientField(1.0, (Harmonic(1, 1, 0.3, 0.0),)),
     CoefficientField(1.0, (Harmonic(0, 1, 0.0, 0.2),))),
]


@pytest.mark.parametrize("mesh_name,cfg", MESH_CASES, ids=[c[0] for c in MESH_CASES])
@pytest.mark.parametrize("coeff_name,alpha,beta", COEFF_CASES,
                         ids=[c[0] for c in COEFF_CASES])
@pytest.mark.parametrize("spec", [BasisSpec(2, 2), BasisSpec(1, 2)],
                         ids=["p22", "p12"])
def test_oracle_equivalence(mesh_name, cfg, coeff_name, alpha, beta, spec):
    """Every assembled matrix matches the independent dense assembler.

    Variable-coefficient cases run both paths at the same 20-point rule so
    the comparison checks the assembly machinery, not quadrature aliasing.
    """
    mesh = build_mesh(cfg)
    field = MagneticField(cfg.b, beta)
    nq = 20 if coeff_name != "constant" else None
    face, penalty = bf.face_and_penalty(mesh, spec, field, 6.0, nq)
    pairs = [
        (assemble_mass_u(mesh, spec).to_dense(),
         bf.oracle_mass(mesh, spec, None)),
        (assemble_mass_phi(mesh, spec, alpha, nq).to_dense(),
         bf.oracle_mass(mesh, spec, lambda x, y: float(alpha.eval(x, y)))),
        (assemble_gradient(mesh, spec, field, nq).expand().toarray(),
         bf.oracle_gradient(mesh, spec, field)),
        (face.expand().toarray(), bf.oracle_face_terms(mesh, spec, field)),
        (penalty.to_dense(), bf.oracle_penalty(mesh, spec, field, 6.0)),
    ]
    for got, want in pairs:
        scale = max(np.abs(want).max(), 1e-300)
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
    a, m = build_reduced(assemble_operator_set(mesh, spec, alpha, field, 6.0, nq))
    a_want, m_want = bf.oracle_reduced(mesh, spec, alpha, field, 6.0)
    assert np.max(np.abs(a.to_dense() - a_want)) <= 1e-11 * np.abs(a_want).max()
    assert np.max(np.abs(m.to_dense() - m_want)) <= 1e-12 * np.abs(m_want).max()


#: Fixed coverage for the property test below (``pinning.py``): the cases
#: its derandomized draws reached before the Bloch solutions kept their
#: eigenpairs in block form.
INTERFACE_DRAWS = [
    (Alignment.CARTESIAN, 1, 1, 0, 0, 0.3, 0.3, False, Harmonic(0, 0, 0.0, 0.0)),
    (Alignment.BOTTOM_TOP, 1, 1, 0, 0, 0.3, 0.3, False, Harmonic(0, 0, 0.0, 0.0)),
    (Alignment.BOTTOM_TOP, 1, 3, 1, 0, 1.3, 1.9318476064992254, True,
     Harmonic(1, 0, -0.2097094351578937, 0.22880919545446693)),
    (Alignment.BOTTOM_TOP, 3, 1, 0, 1, 0.6324396517334501, 1.1183265053925129, True,
     Harmonic(0, -2, -0.02823607050559801, -0.20755924233513345)),
    (Alignment.BOTTOM_TOP, 2, 2, 0, 0, 1.3316331407007784, 0.8131667231859869, False,
     Harmonic(-2, 1, 0.096540068433842, -2.544097900148366e-264)),
    (Alignment.CARTESIAN, 2, 1, 2, 1, 1.5742025446681385, 1.2596027822224698, False,
     Harmonic(0, 2, 1.096425303402081e-14, -3.4494540326963217e-93)),
    (Alignment.LEFT_RIGHT, 2, 1, 2, 2, 1.623049807978308, 0.33638812541351903, False,
     Harmonic(0, 1, -3.000236404529555e-128, 1e-10)),
    (Alignment.CARTESIAN, 3, 3, 0, 0, 1.1635550823256755, 0.5661890268668748, True,
     Harmonic(-1, 0, 0.10505712676688095, 0.26035982779338834)),
    (Alignment.CARTESIAN, 3, 2, 1, 0, 1.4402902468250147, 0.6936133783931062, True,
     Harmonic(-2, 2, 0.25760727470117356, 0.020665074201612954)),
    (Alignment.CARTESIAN, 2, 2, 1, 1, 0.39820211767332436, 1.030607692584355, False,
     Harmonic(-1, -1, -0.09203690005337709, 0.18189643310490627)),
    (Alignment.BOTTOM_TOP, 3, 2, 0, 2, 1.9, 1.1, True,
     Harmonic(-2, -1, 0.09564239686955384, 6.103515625e-05)),
    (Alignment.BOTTOM_TOP, 1, 2, 0, 2, 1.9, 1.1, True,
     Harmonic(-2, -1, 0.09564239686955384, 6.103515625e-05)),
    (Alignment.BOTTOM_TOP, 1, 1, 0, 2, 1.9, 1.1, True,
     Harmonic(-2, -1, 0.09564239686955384, 6.103515625e-05)),
    (Alignment.BOTTOM_TOP, 1, 1, 0, 2, 0.3, 1.1, True,
     Harmonic(-2, -1, 0.09564239686955384, 6.103515625e-05)),
    (Alignment.BOTTOM_TOP, 1, 1, 0, 2, 0.3, 1.1, True,
     Harmonic(-2, 1, 0.09564239686955384, 6.103515625e-05)),
    (Alignment.BOTTOM_TOP, 1, 1, 0, 2, 0.3, 1.1, True,
     Harmonic(-2, 1, 0.0, 6.103515625e-05)),
    (Alignment.BOTTOM_TOP, 1, 1, 0, 2, 0.3, 0.3, True,
     Harmonic(-2, 1, 0.0, 6.103515625e-05)),
    (Alignment.LEFT_RIGHT, 3, 2, 0, 1, 0.4023038004937318, 1.1653474579670549, False,
     Harmonic(0, 1, 5.4963682195588214e-92, -1.946126940864236e-52)),
    (Alignment.LEFT_RIGHT, 3, 2, 0, 1, 0.4023038004937318, 0.4023038004937318, False,
     Harmonic(0, 1, 5.4963682195588214e-92, -1.946126940864236e-52)),
    (Alignment.LEFT_RIGHT, 3, 2, 0, 1, 0.4023038004937318, 0.4023038004937318, False,
     Harmonic(0, 0, 5.4963682195588214e-92, -1.946126940864236e-52)),
    (Alignment.LEFT_RIGHT, 3, 2, 0, 1, 0.3, 0.4023038004937318, False,
     Harmonic(0, 0, 5.4963682195588214e-92, -1.946126940864236e-52)),
    (Alignment.LEFT_RIGHT, 3, 1, 0, 1, 0.3, 0.4023038004937318, False,
     Harmonic(0, 0, 5.4963682195588214e-92, -1.946126940864236e-52)),
    (Alignment.LEFT_RIGHT, 3, 1, 0, 1, 0.3, 0.3, False,
     Harmonic(0, 0, 5.4963682195588214e-92, -1.946126940864236e-52)),
    (Alignment.LEFT_RIGHT, 1, 1, 0, 1, 0.3, 0.3, False,
     Harmonic(0, 0, 5.4963682195588214e-92, -1.946126940864236e-52)),
    (Alignment.LEFT_RIGHT, 3, 3, 2, 1, 1.0104036362100592, 0.5, True,
     Harmonic(2, 0, 0.005151825837242163, 0.29999999999999993)),
]


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(alignment=st.sampled_from(list(Alignment)),
       nx=st.integers(1, 3), ny=st.integers(1, 3),
       p_xi=st.integers(0, 2), p_eta=st.integers(0, 2),
       b1=st.floats(0.3, 2.0), b2=st.floats(0.3, 2.0), b2_negative=st.booleans(),
       harmonic=st.builds(Harmonic, st.integers(-2, 2), st.integers(-2, 2),
                          st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)))
@pinned("alignment, nx, ny, p_xi, p_eta, b1, b2, b2_negative, harmonic", INTERFACE_DRAWS)
# p_eta = 2 with p_xi != p_eta, which the derandomized draws do not reach;
# the two aligned meshes are split (non-integer edge offsets 0.75 and 0.81)
@example(alignment=Alignment.BOTTOM_TOP, nx=2, ny=3, p_xi=1, p_eta=2,
         b1=1.0, b2=0.5, b2_negative=False, harmonic=Harmonic(1, -1, 0.2, 0.1))
@example(alignment=Alignment.LEFT_RIGHT, nx=3, ny=2, p_xi=0, p_eta=2,
         b1=0.7, b2=1.3, b2_negative=True, harmonic=Harmonic(0, 2, -0.25, 0.15))
@example(alignment=Alignment.CARTESIAN, nx=1, ny=3, p_xi=1, p_eta=2,
         b1=1.3, b2=0.6, b2_negative=False, harmonic=Harmonic(2, 1, 0.1, -0.2))
# the face matrix vanishes analytically here: the oracle holds round-off and
# the batched assembly exact zeros, so it must not set the scale alone
@example(alignment=Alignment.CARTESIAN, nx=1, ny=2, p_xi=0, p_eta=0,
         b1=1.0, b2=0.5, b2_negative=False, harmonic=Harmonic(1, 0, 0.2, 0.1))
# all three matrices vanish analytically here (the only crossing edge joins
# the cell to itself, and p_xi = 0 traces match), so the scale needs a floor
@example(alignment=Alignment.BOTTOM_TOP, nx=1, ny=1, p_xi=0, p_eta=1,
         b1=1.5, b2=1.5, b2_negative=False, harmonic=Harmonic(0, 0, 0.0, 0.0))
def test_interface_and_gradient_match_oracle(alignment, nx, ny, p_xi, p_eta, b1, b2,
                                             b2_negative, harmonic):
    """Random small meshes, degrees (p = 0 too), directions and beta fields.

    Covers what the fixed oracle cases do not: 1xN meshes whose cells are
    their own neighbours, p = 0 and negative b2.  All three matrices are
    scaled by the largest entry of the face and penalty oracles, and by at
    least 1: with p_xi = 0 on an aligned mesh the gradient is pure
    round-off, which its own maximum would magnify to O(1), on a cartesian
    1x2 mesh at p = 0 so is the face matrix, and on a 1x1 aligned mesh at
    p_xi = 0 all three are.
    """
    b = FieldDirection(b1, -b2 if b2_negative else b2)
    mesh = build_mesh(MeshConfig(nx, ny, alignment, b))
    spec = BasisSpec(p_xi, p_eta)
    field = MagneticField(b, CoefficientField(1.0, (harmonic,)))
    face_want = bf.oracle_face_terms(mesh, spec, field)
    penalty_want = bf.oracle_penalty(mesh, spec, field, 6.0)
    face, penalty = bf.face_and_penalty(mesh, spec, field, 6.0, 20)
    pairs = [
        (assemble_gradient(mesh, spec, field, 20).expand().toarray(),
         bf.oracle_gradient(mesh, spec, field)),
        (face.expand().toarray(), face_want),
        (penalty.to_dense(), penalty_want),
    ]
    scale = max(np.abs(face_want).max(), np.abs(penalty_want).max(), 1.0)
    for got, want in pairs:
        assert np.max(np.abs(got - want)) <= 1e-12 * scale


def test_reduced_operator_properties():
    mesh = build_mesh(MeshConfig(2, 2, Alignment.BOTTOM_TOP, REF_B))
    spec = BasisSpec(1, 1)
    alpha = CoefficientField(1.0, (Harmonic(1, 1, 0.2, 0.0),))
    beta = CoefficientField(1.0, (Harmonic(0, 1, 0.1, 0.0),))
    ops = assemble_operator_set(mesh, spec, alpha, MagneticField(REF_B, beta), 6.0)
    a, m = build_reduced(ops)

    # exact symmetry of the stored operator
    full = a.expand()
    asym = full - full.T
    assert asym.nnz == 0 or np.max(np.abs(asym.data)) == 0.0

    # nullspace: the global constant
    ones = constant_vector(mesh, spec)
    assert np.max(np.abs(a.matvec(ones))) < 1e-10 * a.max_abs()

    # PSD within roundoff
    evals = sla.eigvalsh(a.to_dense())
    assert evals[0] >= -1e-10 * a.max_abs()


@pytest.mark.parametrize("alignment, b", [
    (Alignment.CARTESIAN, FieldDirection(1.0, 2.0)),
    (Alignment.BOTTOM_TOP, FieldDirection(-0.7, 1.3)),
    (Alignment.LEFT_RIGHT, REF_B)])
def test_cancelling_aliases_leave_no_rounding(alignment, b):
    """On a 1x1 lattice every offset aliases the cell itself, so the p = 0
    penalty is a sum of jump pieces that cancel.  Their rounding is dropped
    against the pieces, not against the sum: the one-dof A is exactly 0 (the
    constant mode), and its band solve certifies it."""
    mesh = build_mesh(MeshConfig(1, 1, alignment, b))
    ops = assemble_operator_set(mesh, BasisSpec(0, 0), CoefficientField.constant(1.3),
                                MagneticField.uniform(b), 6.0)
    a, m = build_reduced(ops)
    assert not np.any(ops.b_phipsi.blocks) and not np.any(a.blocks)
    sol = bloch_eig(a, m, BandRequest(lambda_max=1.0))
    assert list(sol.eigenvalues) == [0.0] and sol.inertia_count == 1


def test_build_reduced_rejects_singular_mass():
    mesh = build_mesh(MeshConfig(1, 1, Alignment.CARTESIAN, REF_B))
    spec = BasisSpec(0, 0)
    ops = assemble_operator_set(mesh, spec, CONST, MagneticField.uniform(REF_B), 6.0)
    ops.m_uv.blocks[0, 0, 0, 0] = 0.0
    with pytest.raises(AssemblyError):
        build_reduced(ops)


def test_face_quadrature_detects_broken_interface():
    mesh = build_mesh(MeshConfig(2, 2, Alignment.CARTESIAN, REF_B))
    right = [i.owner_edge == "right" for i in mesh.interfaces]
    faces = mesh.faces.take(np.array(right))
    faces.ranges[1, 1] = (-1.0, 0.0)
    faces.ranges[3, 1] = (0.0, 1.0)
    # the error names the first offending face, not the first face
    with pytest.raises(AssemblyError,
                       match=r"mapping mismatch on .*neighbor_range=\(-1\.0, 0\.0\)"):
        face_quadrature(mesh, BasisSpec(1, 1), faces, 4)


def one_sweep_symmetrization(offsets, blocks, lattice):
    """The blocks of ``SymStencil(offsets, blocks, lattice)`` by one sweep
    over whole arrays: ``(B[c, d] + B[c + d, -d]^T) * 0.5``, entries below
    ``DROP_TOL`` of the scale dropped."""
    s = Stencil(offsets, blocks, lattice, closed=True)
    neg = assembly._residues(-s.offsets, s.lattice)[1]
    rows = 0 if s.blocks.shape[0] == 1 else s.column_cells
    sym = (s.blocks + s.blocks[rows, neg].swapaxes(-1, -2)) * 0.5
    size = np.abs(sym)
    scale = np.max(size, initial=0.0)
    if s.blocks is not blocks:
        scale = max(scale, np.max(np.abs(blocks), initial=0.0))
    sym[size < assembly.DROP_TOL * scale] = 0.0
    return sym


@pytest.mark.parametrize("lattice, cells, offsets, n", [
    ((1, 1), 1, [(0, 0)], 150),
    ((3, 4), 1, [(0, 0), (1, 0), (-1, 2), (2, 5)], 70),
    ((3, 2), 6, [(0, 0), (1, 1), (-1, 0), (0, 1)], 70),
    ((2, 3), 6, [(0, 0), (2, 0), (1, -1)], 5)],
    ids=["one-block", "constant", "variable", "small-blocks"])
def test_symmetrization_by_tiles_is_the_one_sweep_formula(lattice, cells, offsets, n):
    """``SymStencil`` symmetrizes and drops tile by tile, in place; its blocks
    are bit for bit (signs of zeros included) the one-sweep formula's, on
    blocks wider than a tile, with aliasing offsets merged, on one cell's
    blocks and on every cell's.  The formula reads a copy of the blocks,
    which the stencil may overwrite."""
    rng = np.random.default_rng(n)
    blocks = rng.standard_normal((cells, len(offsets), n, n))
    blocks[rng.random(blocks.shape) < 0.2] = 1e-17
    blocks[rng.random(blocks.shape) < 0.1] = -0.0
    assert n < assembly._TILE or n % assembly._TILE
    want = one_sweep_symmetrization(np.array(offsets), blocks.copy(), lattice)
    got = assembly.SymStencil(np.array(offsets), blocks, lattice).blocks
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("lattice, cells, offsets, n", [
    ((4, 4), 16, [(0, 0), (2, 0), (0, 2), (2, 2), (1, 0), (-1, 0)], 130),
    ((5, 3), 1, [(0, 0), (1, 1), (-1, -1), (2, 0), (-2, 0)], 9)],
    ids=["self-paired-tiles", "constant-distinct"])
def test_symmetrization_in_place_is_the_one_sweep_formula(lattice, cells, offsets, n):
    """Blocks that need no merging are overwritten: the pairs ``(d, -d)``
    are done once each, and an offset that is its own negation (here
    ``(2, 0)``, ``(0, 2)`` and ``(2, 2)`` on the 4x4 lattice) tile pair by
    tile pair, yet the blocks are bit for bit the one-sweep formula's."""
    offsets = assembly._residues(np.array(offsets), lattice, closed=True)[0]
    rng = np.random.default_rng(n)
    blocks = rng.standard_normal((cells, len(offsets), n, n))
    blocks[rng.random(blocks.shape) < 0.2] = 1e-17
    blocks[rng.random(blocks.shape) < 0.1] = -0.0
    want = one_sweep_symmetrization(offsets, blocks.copy(), lattice)
    got = assembly.SymStencil(offsets, blocks, lattice).blocks
    assert got is blocks
    assert got.tobytes() == want.tobytes()


def test_symmetrization_of_a_non_contiguous_view():
    """A strided view is copied once and the copy symmetrized; its entries
    below ``DROP_TOL`` still drop, and the viewed array keeps its bytes."""
    lattice, offsets = (3, 2), np.array([(0, 0), (1, 1), (-1, -1), (0, 1), (0, -1)])
    offsets = assembly._residues(offsets, lattice, closed=True)[0]
    rng = np.random.default_rng(3)
    base = rng.standard_normal((len(offsets), 6, 7, 7))
    base[rng.random(base.shape) < 0.2] = 1e-17
    before = base.tobytes()
    view = base.swapaxes(0, 1)
    assert not view.flags.c_contiguous
    want = one_sweep_symmetrization(offsets, view, lattice)
    got = assembly.SymStencil(offsets, view, lattice).blocks
    assert got.tobytes() == want.tobytes()
    assert np.count_nonzero(got == 0.0) > 0  # base has no zero entry
    tiny = (got != 0.0) & (np.abs(got) < assembly.DROP_TOL * np.abs(got).max())
    assert not tiny.any()
    assert base.tobytes() == before


#: Offsets of ``K``'s stencil in ``variable_sparse``'s 58x16 p2 pencil, and
#: its cell blocks: the sizes of the memory pins
PINNED_LATTICE = (58, 16)
PINNED_OFFSETS = [(0, 0), (1, 0), (0, 1), (1, 4), (1, 5), (2, 8), (2, 9)]


def pinned_blocks():
    offsets = assembly._residues(np.array(PINNED_OFFSETS), PINNED_LATTICE,
                                 closed=True)[0]
    blocks = np.random.default_rng(0).standard_normal((928, len(offsets), 9, 9))
    assert blocks.shape == (928, 13, 9, 9)
    return offsets, blocks


def traced_peak(call):
    """``call()`` and the peak of the memory numpy and Python allocated
    during it, over what was allocated before it (``tracemalloc``)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        value = call()
        return value, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_symmetrization_allocates_at_most_two_offsets():
    """A ``SymStencil`` built on the benchmark pencil's blocks keeps them
    and allocates at most two offsets' blocks beyond them (one partner
    block, and the column cells and drop masks)."""
    offsets, blocks = pinned_blocks()
    stencil, peak = traced_peak(lambda: assembly.SymStencil(offsets, blocks,
                                                            PINNED_LATTICE))
    assert stencil.blocks is blocks
    assert peak <= 2 * blocks[:, 0].nbytes


def test_norm_inf_allocates_at_most_one_offset():
    """The row sums of ``|A|`` accumulate one offset at a time: the peak is
    one offset's ``|blocks|``, its row sums and their total (and a few
    Python objects), bit for bit the sum over whole arrays."""
    offsets, blocks = pinned_blocks()
    stencil = assembly.SymStencil(offsets, blocks, PINNED_LATTICE)
    norm, peak = traced_peak(stencil.norm_inf)
    assert norm == np.abs(stencil.blocks).sum(axis=(1, 3)).max()
    assert peak <= blocks[:, 0].nbytes + 2 * blocks[:, 0, :, 0].nbytes + 4096


@pytest.mark.parametrize("cells", [1, 6], ids=["one-cell", "per-cell"])
def test_norm_inf_is_the_dense_row_sum_read_once(cells):
    """``norm_inf`` is ``max_i sum_j |a_ij|`` of the dense matrix, computed on
    the first call only: the blocks are fixed after construction."""
    lattice, offsets = (3, 2), np.array([(0, 0), (1, 1), (-1, -1), (0, 1), (0, -1)])
    offsets = assembly._residues(offsets, lattice, closed=True)[0]
    blocks = np.random.default_rng(cells).standard_normal((cells, len(offsets), 4, 4))
    stencil = assembly.SymStencil(offsets, blocks, lattice)
    want = np.abs(stencil.to_dense()).sum(axis=1).max()
    assert stencil.norm_inf() == pytest.approx(want, rel=1e-14)
    stencil.blocks = 2.0 * stencil.blocks
    assert stencil.norm_inf() == pytest.approx(want, rel=1e-14)


def test_matrix_dump_coordinate_format():
    a = _as_sym(sp.csr_matrix([[2.0, 0.5], [0.5, 1.0]]))
    buf = io.StringIO()
    a.dump_coordinate(buf)
    assert buf.getvalue() == "1 1 2\n2 1 0.5\n2 2 1\n"


def test_nnz_percent_of_lower_triangle():
    a = _as_sym(sp.identity(4))
    assert a.nnz_percent() == pytest.approx(100.0 * 4 / 10)


@pytest.mark.parametrize("variable", [False, True], ids=["constant", "variable"])
@pytest.mark.parametrize("alignment", list(Alignment), ids=lambda a: a.value)
def test_nnz_percent_counts_the_lower_triangle(alignment, variable):
    """The symmetric-pattern count equals the explicit lower triangle for
    the reduced operator, the penalty and the mass matrix."""
    coeff = CoefficientField(1.0, (Harmonic(1, 1, 0.2, 0.1),)) if variable else CONST
    mesh = build_mesh(MeshConfig(3, 4, alignment, REF_B))
    ops = assemble_operator_set(mesh, BasisSpec(2, 1), coeff,
                                MagneticField(REF_B, coeff), 6.0)
    a, m = build_reduced(ops)
    for s in (a, ops.b_phipsi, m):
        assert s.nnz_percent() == 100.0 * s.lower.nnz / (s.n * (s.n + 1) / 2.0)


VAR_ALPHA = CoefficientField(1.0, (Harmonic(1, -1, 0.2, 0.1),))
VAR_BETA = CoefficientField(1.0, (Harmonic(0, 1, -0.1, 0.2),))


@pytest.mark.parametrize("b,c_offsets,a_offsets", [(REF_B, 5, 13),
                                                     (FieldDirection(1.0, 0.5), 3, 5)],
                         ids=["split", "conforming"])
def test_stencil_offsets_and_cells(b, c_offsets, a_offsets):
    """On an aligned 8x16 mesh C couples each cell to 5 cell offsets and A to
    13 when the cross-field edges split, 3 and 5 when they conform.  Constant
    coefficients store one cell's blocks, variable ones every cell's."""
    mesh = build_mesh(MeshConfig(8, 16, Alignment.BOTTOM_TOP, b))
    for coeff, cells in ((CONST, 1), (VAR_BETA, mesh.n_cells)):
        ops = assemble_operator_set(mesh, BasisSpec(2, 1), coeff,
                                    MagneticField(b, coeff), 6.0)
        a, m = build_reduced(ops)
        assert len(ops.c.offsets) == c_offsets and len(a.offsets) == a_offsets
        assert ops.c.blocks.shape[:2] == (cells, c_offsets)
        assert a.blocks.shape[:2] == (cells, a_offsets)
        assert m.blocks.shape[:2] == (cells, 1)


def test_column_cells_are_built_once_per_stencil():
    """``column_cells`` is kept on the stencil, read-only, and equals the
    cell ``c + offsets[s]`` reached from each row cell ``c``."""
    nx, ny = 3, 4
    mesh = build_mesh(MeshConfig(nx, ny, Alignment.BOTTOM_TOP, REF_B))
    ops = assemble_operator_set(mesh, BasisSpec(1, 1), CONST,
                                MagneticField(REF_B, VAR_BETA), 6.0)
    a, _ = build_reduced(ops)
    for stencil in (a, ops.c):
        cells = stencil.column_cells
        assert stencil.column_cells is cells
        with pytest.raises(ValueError):
            cells[0, 0] = 1
        want = [[(i + ox) % nx * ny + (j + oy) % ny for ox, oy in stencil.offsets]
                for i in range(nx) for j in range(ny)]
        np.testing.assert_array_equal(cells, want)


def test_volume_tables_are_shared_and_read_only():
    spec = BasisSpec(2, 1)
    tables = assembly._volume_tables(spec, None)
    assert assembly._volume_tables(spec, None) is tables
    for table in tables:
        with pytest.raises(ValueError):
            table[0] = 1.0


@pytest.mark.parametrize("alignment", list(Alignment), ids=lambda a: a.value)
@pytest.mark.parametrize("beta", [CONST, VAR_BETA], ids=["constant", "variable"])
def test_operator_set_shares_one_trace_pass(alignment, beta, monkeypatch):
    """``assemble_operator_set`` builds its interface and penalty terms from
    a single crossing-trace pass, to the very bits of the interface and
    penalty stencils built alone (``bf.face_and_penalty``)."""
    mesh = build_mesh(MeshConfig(3, 4, alignment, REF_B))
    spec, field = BasisSpec(2, 1), MagneticField(REF_B, beta)
    calls = []
    quadrature = assembly.face_quadrature

    def counted(*args):
        calls.append(args)
        return quadrature(*args)

    monkeypatch.setattr(assembly, "face_quadrature", counted)
    ops = assemble_operator_set(mesh, spec, VAR_ALPHA, field, 6.0)
    assert len(calls) == 1
    grad = assemble_gradient(mesh, spec, field)
    face, penalty = bf.face_and_penalty(mesh, spec, field, 6.0)
    c = Stencil(np.concatenate([grad.offsets, face.offsets]),
                np.concatenate([grad.blocks, -face.blocks], axis=1), grad.lattice)
    for got, want in ((ops.c, c), (ops.b_phipsi, penalty)):
        np.testing.assert_array_equal(got.offsets, want.offsets)
        np.testing.assert_array_equal(got.blocks, want.blocks)


@pytest.mark.parametrize("nx,ny", [(1, 1), (1, 3), (2, 2), (2, 5), (3, 4), (4, 8)])
@pytest.mark.parametrize("alignment", list(Alignment))
@pytest.mark.parametrize("coeff", [CONST, VAR_BETA], ids=["constant", "variable"])
def test_stencil_matvec_and_dense_match_the_expansion(nx, ny, alignment, coeff):
    """``matvec`` (one batched product per offset, gathered over the lattice)
    and ``to_dense`` (scattered from the blocks) against the CSR expansion,
    on every operator, for a vector and a block; 1- and 2-cell-wide
    lattices store aliasing offsets summed."""
    mesh = build_mesh(MeshConfig(nx, ny, alignment, REF_B))
    ops = assemble_operator_set(mesh, BasisSpec(2, 1), coeff,
                                MagneticField(REF_B, coeff), 6.0)
    a, m = build_reduced(ops)
    x = np.random.default_rng(nx * ny).standard_normal((a.n, 3))
    for stencil in (a, m, ops.c, ops.b_phipsi, ops.m_uv):
        full = stencil.expand()
        np.testing.assert_array_equal(stencil.to_dense(), full.toarray())
        scale = np.max(np.abs(full).sum(axis=1)) * np.max(np.abs(x))
        for v in (x, x[:, 0]):
            assert stencil.matvec(v).shape == v.shape
            assert np.max(np.abs(stencil.matvec(v) - full @ v)) <= 1e-14 * scale


def _same_pattern_and_values(got, want, scale):
    got, want = got.sorted_indices(), want.sorted_indices()
    assert got.nnz == want.nnz
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    assert np.max(np.abs(got.data - want.data), initial=0.0) <= 1e-14 * scale


#: Fixed coverage for the property test below (``pinning.py``): the cases
#: its derandomized draws reached before the Bloch solutions kept their
#: eigenpairs in block form.
REDUCTION_DRAWS = [
    (Alignment.CARTESIAN, 1, 1, 0, 0, False, False, CONST, CONST),
    (Alignment.LEFT_RIGHT, 1, 1, 0, 0, False, False, CONST, CONST),
    (Alignment.LEFT_RIGHT, 2, 1, 0, 3, False, False, CONST, CONST),
    (Alignment.CARTESIAN, 2, 1, 0, 0, False, False, CONST, CONST),
    (Alignment.CARTESIAN, 2, 2, 3, 3, False, False, CONST, VAR_BETA),
    (Alignment.LEFT_RIGHT, 4, 5, 3, 1, False, True, CONST, CONST),
    (Alignment.BOTTOM_TOP, 2, 2, 2, 1, True, True, CONST, CONST),
    (Alignment.BOTTOM_TOP, 1, 3, 0, 0, False, True, CONST, VAR_BETA),
    (Alignment.BOTTOM_TOP, 5, 2, 3, 1, True, False, CONST, VAR_BETA),
    (Alignment.BOTTOM_TOP, 4, 2, 0, 2, False, False, CONST, VAR_BETA),
    (Alignment.BOTTOM_TOP, 1, 2, 2, 2, False, True, CONST, VAR_BETA),
    (Alignment.BOTTOM_TOP, 1, 2, 2, 2, False, False, CONST, VAR_BETA),
    (Alignment.BOTTOM_TOP, 1, 2, 1, 2, False, False, CONST, VAR_BETA),
    (Alignment.BOTTOM_TOP, 1, 1, 1, 2, False, False, CONST, VAR_BETA),
    (Alignment.BOTTOM_TOP, 1, 1, 1, 1, False, False, CONST, VAR_BETA),
    (Alignment.LEFT_RIGHT, 5, 5, 3, 2, False, False, CONST, VAR_BETA),
    (Alignment.LEFT_RIGHT, 5, 5, 3, 3, False, False, CONST, VAR_BETA),
    (Alignment.CARTESIAN, 1, 3, 2, 2, False, True, VAR_ALPHA, CONST),
    (Alignment.CARTESIAN, 1, 3, 3, 2, False, True, VAR_ALPHA, CONST),
    (Alignment.CARTESIAN, 1, 3, 3, 2, True, True, VAR_ALPHA, CONST),
    (Alignment.CARTESIAN, 1, 3, 1, 2, True, True, VAR_ALPHA, CONST),
    (Alignment.CARTESIAN, 1, 2, 1, 2, True, True, VAR_ALPHA, CONST),
    (Alignment.CARTESIAN, 1, 2, 2, 2, True, True, VAR_ALPHA, CONST),
    (Alignment.CARTESIAN, 1, 2, 1, 1, True, True, VAR_ALPHA, CONST),
    (Alignment.BOTTOM_TOP, 1, 2, 0, 1, True, True, CONST, CONST),
    (Alignment.BOTTOM_TOP, 2, 2, 0, 1, True, True, CONST, CONST),
    (Alignment.BOTTOM_TOP, 1, 1, 0, 1, True, True, CONST, CONST),
    (Alignment.BOTTOM_TOP, 3, 4, 0, 2, True, True, VAR_ALPHA, VAR_BETA),
    (Alignment.BOTTOM_TOP, 3, 4, 0, 0, True, True, VAR_ALPHA, VAR_BETA),
    (Alignment.BOTTOM_TOP, 3, 1, 0, 0, True, True, VAR_ALPHA, VAR_BETA),
    (Alignment.BOTTOM_TOP, 3, 3, 0, 0, True, True, VAR_ALPHA, VAR_BETA),
    (Alignment.BOTTOM_TOP, 1, 3, 0, 0, True, True, VAR_ALPHA, VAR_BETA),
    (Alignment.BOTTOM_TOP, 1, 1, 0, 0, True, True, VAR_ALPHA, VAR_BETA),
    (Alignment.BOTTOM_TOP, 1, 1, 1, 0, True, True, VAR_ALPHA, VAR_BETA),
    (Alignment.BOTTOM_TOP, 3, 2, 3, 1, True, False, VAR_ALPHA, VAR_BETA),
    (Alignment.BOTTOM_TOP, 3, 2, 3, 1, True, True, VAR_ALPHA, VAR_BETA),
    (Alignment.BOTTOM_TOP, 3, 3, 3, 1, True, True, VAR_ALPHA, VAR_BETA),
    (Alignment.CARTESIAN, 5, 4, 3, 1, True, True, VAR_ALPHA, CONST),
    (Alignment.CARTESIAN, 1, 4, 3, 1, True, True, VAR_ALPHA, CONST),
    (Alignment.CARTESIAN, 1, 4, 1, 1, True, True, VAR_ALPHA, CONST),
]


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(alignment=st.sampled_from(list(Alignment)),
       nx=st.integers(1, 5), ny=st.integers(1, 5),
       p_xi=st.integers(0, 3), p_eta=st.integers(0, 3),
       conforming=st.booleans(), b2_negative=st.booleans(),
       alpha=st.sampled_from([CONST, VAR_ALPHA]), beta=st.sampled_from([CONST, VAR_BETA]))
@pinned("alignment, nx, ny, p_xi, p_eta, conforming, b2_negative, alpha, beta", REDUCTION_DRAWS)
# lattices two cells wide, where an offset +o and its negation -o alias, on
# every alignment, with constant and variable coefficients
@example(alignment=Alignment.BOTTOM_TOP, nx=2, ny=2, p_xi=2, p_eta=1, conforming=False,
         b2_negative=False, alpha=CONST, beta=CONST)
@example(alignment=Alignment.LEFT_RIGHT, nx=2, ny=3, p_xi=1, p_eta=2, conforming=False,
         b2_negative=True, alpha=CONST, beta=CONST)
@example(alignment=Alignment.CARTESIAN, nx=2, ny=2, p_xi=1, p_eta=1, conforming=True,
         b2_negative=False, alpha=CONST, beta=CONST)
@example(alignment=Alignment.BOTTOM_TOP, nx=3, ny=2, p_xi=1, p_eta=2, conforming=True,
         b2_negative=True, alpha=CONST, beta=VAR_BETA)
@example(alignment=Alignment.LEFT_RIGHT, nx=2, ny=2, p_xi=2, p_eta=2, conforming=False,
         b2_negative=False, alpha=VAR_ALPHA, beta=VAR_BETA)
def test_reduction_matches_scalar_product(alignment, nx, ny, p_xi, p_eta,
                                          conforming, b2_negative, alpha, beta):
    """The stencils of ``A`` and ``M`` against global scalar oracles: the
    CSR expansion of ``A`` against ``C diag(1/M_u) C^T + P`` formed by
    scalar CSR products of the expanded ``C`` and ``P``, and that of ``M``
    against the brute-force mass matrix at the same quadrature rule, with
    the same stored pattern and the same values to round-off.  For constant
    coefficients the Bloch spectrum of the stencils is the dense spectrum
    of the global pencil.

    ``b = (ny, nx)`` shifts each cross-field edge by exactly one edge width
    on both aligned meshes (conforming); the reference direction splits it.
    """
    b = FieldDirection(ny, nx) if conforming else REF_B
    if b2_negative:
        b = FieldDirection(b.b1, -b.b2)
    mesh = build_mesh(MeshConfig(nx, ny, alignment, b))
    spec = BasisSpec(p_xi, p_eta)
    nq = default_quad_points(spec)
    ops = assemble_operator_set(mesh, spec, alpha, MagneticField(b, beta), 6.0)
    a, m = build_reduced(ops)
    a_want = bf.scalar_reduced(ops)
    m_want = _as_sym(bf.oracle_mass(mesh, spec, lambda x, y: float(alpha.eval(x, y)), nq))
    _same_pattern_and_values(a.expand(), a_want.expand(), a_want.max_abs())
    _same_pattern_and_values(m.expand(), m_want.expand(), m_want.max_abs())
    assert a.norm_inf() == pytest.approx(a_want.norm_inf(), rel=1e-14)
    assert a.nnz_percent() == a_want.nnz_percent()
    if alpha.is_constant and beta.is_constant:
        got = bloch_eig(a, m).eigenvalues
        want = bf.dense_generalized_eig(a_want, m_want).eigenvalues
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def rolled_face_stencil(offsets, w, left, right):
    """``assembly._face_stencil`` of a one-cell lattice with its neighbour
    blocks rolled over the ``1 x 1`` grid."""
    weighted = (w[:, :, None, None] * left).transpose(0, 2, 3, 1)
    e = np.matmul(weighted[:, :, None], right.transpose(0, 2, 1, 3)[:, None])
    n_loc = e.shape[-1]
    e = e.reshape((1, 1, len(offsets), 2, 2, n_loc, n_loc))
    blocks = [np.zeros((1, 1, n_loc, n_loc))]
    for t, d in enumerate(offsets):
        nbr = np.roll(e[:, :, t, 1], tuple(d), axis=(0, 1))
        blocks[0] += e[:, :, t, 0, 0] + nbr[:, :, 1]
        blocks += [e[:, :, t, 0, 1], nbr[:, :, 0]]
    stencil = np.concatenate([assembly._ORIGIN] + [np.stack([d, -d]) for d in offsets])
    return stencil, np.stack(blocks, axis=2).reshape(-1, len(blocks), n_loc, n_loc)


def rolled_reduced_blocks(ops):
    """The blocks of ``build_reduced(ops)[0]`` before symmetrization, for a
    one-cell ``C``, each product of C with ``C^T`` rolled over the ``1 x 1``
    grid."""
    m_uv = np.diagonal(ops.m_uv.blocks[0, 0])
    c, pen = ops.c, ops.b_phipsi
    _, s_count, n_loc, _ = c.blocks.shape
    right = np.ascontiguousarray(c.blocks.swapaxes(-1, -2)).reshape(
        (1, 1) + c.blocks.shape[1:])
    left = c.blocks * (1.0 / m_uv)
    shifts = (c.offsets[:, None] - c.offsets[None, :]).reshape(-1, 2)
    offsets, slot = assembly._residues(np.concatenate([shifts, pen.offsets]),
                                       c.lattice, closed=True)
    blocks = np.zeros((len(offsets), 1, n_loc, n_loc))
    for k, d in enumerate(shifts):
        shifted = np.roll(right[:, :, k % s_count], tuple(-d), axis=(0, 1))
        blocks[slot[k]] += np.matmul(left[:, k // s_count],
                                     shifted.reshape(1, n_loc, n_loc))
    for k, at in enumerate(slot[len(shifts):]):
        blocks[at] += pen.blocks[:, k]
    return offsets, blocks.swapaxes(0, 1)


def test_one_cell_stencils_are_not_rolled(monkeypatch):
    """``ref_band``'s one-cell pencil (8x8 p4 constant coefficients) is
    assembled and reduced without ``np.roll``, the identity on its ``1 x 1``
    grid of stored cells, and its blocks are bit for bit those of the
    rolled computation."""
    mesh, spec = build_mesh(MeshConfig(8, 8, Alignment.BOTTOM_TOP, REF_B)), BasisSpec(4, 4)
    B = MagneticField.uniform(REF_B)
    offsets, w, bn_beta, _, jump, avg = assembly._crossing_traces(mesh, spec, B, None)
    ops = assemble_operator_set(mesh, spec, CONST, B, 6.0)
    want_face = rolled_face_stencil(offsets, w * bn_beta, jump, avg)
    want_a = assembly.SymStencil(*rolled_reduced_blocks(ops), ops.c.lattice)

    def no_roll(*args, **kwargs):
        raise AssertionError("np.roll called on a one-cell stencil")

    monkeypatch.setattr(np, "roll", no_roll)
    face = assembly._face_stencil(mesh, offsets, w * bn_beta, jump, avg)
    a, _ = build_reduced(assemble_operator_set(mesh, spec, CONST, B, 6.0))
    assert all(np.array_equal(got, want) for got, want in zip(face, want_face))
    assert face[1].shape[0] == a.blocks.shape[0] == 1
    assert np.array_equal(a.offsets, want_a.offsets)
    assert np.array_equal(a.blocks, want_a.blocks)

import io
import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bruteforce as bf
from anisodg.assembly import (AssemblyError, SparseSymMatrix,
                              assemble_face_terms,
                              assemble_gradient, assemble_mass_phi,
                              assemble_mass_u, assemble_operator_set,
                              assemble_penalty, build_reduced, face_quadrature)
from anisodg.basis import BasisSpec
from anisodg.fields import CoefficientField, Harmonic, MagneticField
from anisodg.geometry import (Alignment, FieldDirection, Interface, MeshConfig,
                              build_mesh)

REF_B = FieldDirection(1.165939761, 1.0)
CONST = CoefficientField.constant(1.0)


def constant_vector(mesh, spec):
    v = np.zeros(mesh.n_cells * spec.n_loc)
    v[::spec.n_loc] = 1.0
    return v


def test_mass_single_cell_p0_is_area():
    mesh = build_mesh(MeshConfig(1, 1, Alignment.CARTESIAN, REF_B))
    m = assemble_mass_u(mesh, BasisSpec(0, 0))
    assert m.blocks[0, 0, 0] == pytest.approx(4 * math.pi**2, rel=1e-14)


def test_mass_legendre_diagonal_formula():
    spec = BasisSpec(2, 3)
    mesh = build_mesh(MeshConfig(4, 2, Alignment.BOTTOM_TOP, REF_B))
    m = assemble_mass_u(mesh, spec)
    det = mesh.cells[0].jacobian_det
    expect = np.zeros((spec.n_loc, spec.n_loc))
    for a in range(spec.p_xi + 1):
        for b in range(spec.p_eta + 1):
            k = spec.flat_index(a, b)
            expect[k, k] = det * (2.0 / (2 * a + 1)) * (2.0 / (2 * b + 1))
    assert np.max(np.abs(m.blocks[0] - expect)) < 1e-13 * det


def test_mass_phi_scaling():
    mesh = build_mesh(MeshConfig(2, 2, Alignment.CARTESIAN, REF_B))
    spec = BasisSpec(1, 1)
    base = assemble_mass_u(mesh, spec)
    same = assemble_mass_phi(mesh, spec, CONST)
    twice = assemble_mass_phi(mesh, spec, CoefficientField.constant(2.0))
    assert np.allclose(same.blocks, base.blocks, rtol=0, atol=0)
    assert np.allclose(twice.blocks, 2.0 * base.blocks, rtol=1e-15)


def test_gradient_constant_trial_cancels_with_faces():
    """sum_K int B.grad(psi) dV equals the face jump sum on the periodic box."""
    mesh = build_mesh(MeshConfig(2, 2, Alignment.BOTTOM_TOP, REF_B))
    spec = BasisSpec(2, 2)
    field = MagneticField(REF_B, CoefficientField(1.0, (Harmonic(1, 0, 0.2, 0.1),)))
    g = assemble_gradient(mesh, spec, field).toarray()
    f = assemble_face_terms(mesh, spec, field).toarray()
    ones = constant_vector(mesh, spec)
    resid = (g - f).T @ ones  # rows: every psi against the constant trial
    assert np.max(np.abs(resid)) < 1e-12 * max(np.abs(g).max(), 1.0)


def test_gradient_xi_constant_rows_vanish_when_aligned():
    mesh = build_mesh(MeshConfig(4, 4, Alignment.BOTTOM_TOP, FieldDirection(1.0, 2.0)))
    spec = BasisSpec(2, 2)
    g = assemble_gradient(mesh, spec, MagneticField.uniform(FieldDirection(1.0, 2.0)))
    g = g.toarray()
    scale = np.abs(g).max()
    for cid in range(mesh.n_cells):
        for b in range(spec.p_eta + 1):
            row = cid * spec.n_loc + spec.flat_index(0, b)
            assert np.max(np.abs(g[row])) < 1e-12 * scale


def test_face_terms_cartesian_p0_hand_value():
    """p0 couplings reduce to +-(b.n) * |F| / 2 between cell constants."""
    b = FieldDirection(0.8, -0.3)
    mesh = build_mesh(MeshConfig(2, 2, Alignment.CARTESIAN, b))
    spec = BasisSpec(0, 0)
    f = assemble_face_terms(mesh, spec, MagneticField.uniform(b)).toarray()
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
    got = assemble_face_terms(mesh, spec, field, n_quad=20).toarray()

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
    itf = next(i for i in mesh.interfaces if i.owner_edge == "right")
    _, _, _, vals_own, vals_nbr = face_quadrature(mesh, spec, [itf], 5)
    # the eta-linear function has identical traces from both sides
    coeff = np.array([1.0, 0.5, 0.0, 0.0])  # 1 + 0.5*P_1(eta)
    assert np.max(np.abs(vals_own @ coeff - vals_nbr @ coeff)) < 1e-14


def test_penalty_zero_for_bassi_rebay_limit():
    mesh = build_mesh(MeshConfig(2, 2, Alignment.BOTTOM_TOP, REF_B))
    p = assemble_penalty(mesh, BasisSpec(1, 1), MagneticField.uniform(REF_B), 0.0)
    assert p.lower.nnz == 0
    with pytest.raises(ValueError):
        assemble_penalty(mesh, BasisSpec(1, 1), MagneticField.uniform(REF_B), -1.0)


def test_penalty_positive_semidefinite_quadratic_form():
    mesh = build_mesh(MeshConfig(2, 2, Alignment.BOTTOM_TOP, REF_B))
    spec = BasisSpec(2, 1)
    p = assemble_penalty(mesh, spec, MagneticField.uniform(REF_B), 6.0)
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
    pairs = [
        (assemble_mass_u(mesh, spec, nq).to_dense(),
         bf.oracle_mass(mesh, spec, None)),
        (assemble_mass_phi(mesh, spec, alpha, nq).to_dense(),
         bf.oracle_mass(mesh, spec, lambda x, y: float(alpha.eval(x, y)))),
        (assemble_gradient(mesh, spec, field, nq).toarray(),
         bf.oracle_gradient(mesh, spec, field)),
        (assemble_face_terms(mesh, spec, field, nq).toarray(),
         bf.oracle_face_terms(mesh, spec, field)),
        (assemble_penalty(mesh, spec, field, 6.0, nq).to_dense(),
         bf.oracle_penalty(mesh, spec, field, 6.0)),
    ]
    for got, want in pairs:
        scale = max(np.abs(want).max(), 1e-300)
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
    a, m = build_reduced(assemble_operator_set(mesh, spec, alpha, field, 6.0, nq))
    a_want, m_want = bf.oracle_reduced(mesh, spec, alpha, field, 6.0)
    assert np.max(np.abs(a.to_dense() - a_want)) <= 1e-11 * np.abs(a_want).max()
    assert np.max(np.abs(m.to_dense() - m_want)) <= 1e-12 * np.abs(m_want).max()


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(alignment=st.sampled_from(list(Alignment)),
       nx=st.integers(1, 3), ny=st.integers(1, 3),
       p_xi=st.integers(0, 2), p_eta=st.integers(0, 2),
       b1=st.floats(0.3, 2.0), b2=st.floats(0.3, 2.0), b2_negative=st.booleans(),
       harmonic=st.builds(Harmonic, st.integers(-2, 2), st.integers(-2, 2),
                          st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)))
# p_eta = 2 with p_xi != p_eta, which the derandomized draws do not reach;
# the two aligned meshes are split (non-integer edge offsets 0.75 and 0.81)
@example(alignment=Alignment.BOTTOM_TOP, nx=2, ny=3, p_xi=1, p_eta=2,
         b1=1.0, b2=0.5, b2_negative=False, harmonic=Harmonic(1, -1, 0.2, 0.1))
@example(alignment=Alignment.LEFT_RIGHT, nx=3, ny=2, p_xi=0, p_eta=2,
         b1=0.7, b2=1.3, b2_negative=True, harmonic=Harmonic(0, 2, -0.25, 0.15))
@example(alignment=Alignment.CARTESIAN, nx=1, ny=3, p_xi=1, p_eta=2,
         b1=1.3, b2=0.6, b2_negative=False, harmonic=Harmonic(2, 1, 0.1, -0.2))
def test_interface_and_gradient_match_oracle(alignment, nx, ny, p_xi, p_eta, b1, b2,
                                             b2_negative, harmonic):
    """Random small meshes, degrees (p = 0 too), directions and beta fields.

    Covers what the fixed oracle cases do not: 1xN meshes whose cells are
    their own neighbours, p = 0 and negative b2.  All three matrices are
    scaled by the face matrix: with p_xi = 0 on an aligned mesh the
    gradient is pure round-off, which its own maximum would magnify to O(1).
    """
    b = FieldDirection(b1, -b2 if b2_negative else b2)
    mesh = build_mesh(MeshConfig(nx, ny, alignment, b))
    spec = BasisSpec(p_xi, p_eta)
    field = MagneticField(b, CoefficientField(1.0, (harmonic,)))
    face_want = bf.oracle_face_terms(mesh, spec, field)
    pairs = [
        (assemble_gradient(mesh, spec, field, 20).toarray(),
         bf.oracle_gradient(mesh, spec, field)),
        (assemble_face_terms(mesh, spec, field, 20).toarray(), face_want),
        (assemble_penalty(mesh, spec, field, 6.0, 20).to_dense(),
         bf.oracle_penalty(mesh, spec, field, 6.0)),
    ]
    scale = np.abs(face_want).max()
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
    asym = a.to_full() - a.to_full().T
    assert asym.nnz == 0 or np.max(np.abs(asym.data)) == 0.0

    # nullspace: the global constant
    ones = constant_vector(mesh, spec)
    assert np.max(np.abs(a.matvec(ones))) < 1e-10 * a.max_abs()

    # PSD within roundoff
    evals = sla.eigvalsh(a.to_dense())
    assert evals[0] >= -1e-10 * a.max_abs()


def test_build_reduced_rejects_singular_mass():
    mesh = build_mesh(MeshConfig(1, 1, Alignment.CARTESIAN, REF_B))
    spec = BasisSpec(0, 0)
    ops = assemble_operator_set(mesh, spec, CONST, MagneticField.uniform(REF_B), 6.0)
    ops.m_uv.blocks[0, 0, 0] = 0.0
    with pytest.raises(AssemblyError):
        build_reduced(ops)


def test_face_quadrature_detects_broken_interface():
    mesh = build_mesh(MeshConfig(2, 2, Alignment.CARTESIAN, REF_B))
    good = next(i for i in mesh.interfaces if i.owner_edge == "right")
    bad = Interface(owner=good.owner, neighbor=good.neighbor,
                    owner_edge=good.owner_edge, neighbor_edge=good.neighbor_edge,
                    owner_range=good.owner_range, neighbor_range=(-1.0, 0.0),
                    normal=good.normal, h_F=good.h_F)
    # the error names the offending interface, not the first one
    with pytest.raises(AssemblyError,
                       match=r"mapping mismatch on .*neighbor_range=\(-1\.0, 0\.0\)"):
        face_quadrature(mesh, BasisSpec(1, 1), [good, bad], 4)


def test_matrix_dump_coordinate_format():
    a = SparseSymMatrix.from_dense(np.array([[2.0, 0.5], [0.5, 1.0]]))
    buf = io.StringIO()
    a.dump_coordinate(buf)
    assert buf.getvalue() == "1 1 2\n2 1 0.5\n2 2 1\n"


def test_nnz_percent_of_lower_triangle():
    a = SparseSymMatrix.from_dense(np.eye(4))
    assert a.nnz_percent() == pytest.approx(100.0 * 4 / 10)

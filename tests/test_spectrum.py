import inspect
import math
import sys
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import spherical_jn

import bruteforce as bf
from anisodg import assembly, basis, cli, eigensolve, spectrum
from anisodg.assembly import assemble_operator_set, build_reduced
from anisodg.basis import BasisSpec
from anisodg.eigensolve import BandRequest, EigenSolution
from anisodg.fields import CoefficientField, Harmonic, MagneticField
from anisodg.geometry import Alignment, FieldDirection, MeshConfig, build_mesh
from anisodg.spectrum import (AMPLITUDE_TIE_RTOL, PROJECT_BLOCK, Association,
                              Associations, ConvergenceRow, ExactSpectrum,
                              FourierProjector, SolveSetup, associate_modes,
                              canonical_mode, canonical_modes,
                              compare_band_errors,
                              convergence_study, exact_spectrum,
                              least_squares_slope, max_band_mode_error,
                              mode_error_table, run_band_solve)
from pinning import pinned
from test_eigensolve import (BAND_CASES, STELLARATOR_ALPHA, STELLARATOR_BETA,
                             constant_pencil, lattice_dft)

REF_B = FieldDirection(1.165939761, 1.0)
CONST = CoefficientField.constant(1.0)


def test_canonical_mode():
    assert canonical_mode(3, -2) == (3, -2)
    assert canonical_mode(-3, 2) == (3, -2)
    assert canonical_mode(0, -4) == (0, 4)
    assert canonical_mode(0, 0) == (0, 0)


def test_exact_spectrum_reference_value():
    spec = exact_spectrum(REF_B, 20, 20)
    # the published reference eigenvalue, to eight significant digits
    assert spec.omega2(4, -5) == pytest.approx(0.11305798, rel=1e-8)
    assert spec.omega2(0, 0) == 0.0
    assert spec.omega2(-4, 5) == spec.omega2(4, -5)


def test_exact_spectrum_resonance():
    spec = exact_spectrum(FieldDirection(1.0, 2.0), 4, 4)
    assert spec.omega2(2, -1) == 0.0


def test_exact_spectrum_is_memoized_and_read_only():
    """One table per direction and box is computed and shared by every
    solve, so it cannot be written; a table built from a dict copies it."""
    spec = exact_spectrum(REF_B, 20, 20)
    assert exact_spectrum(REF_B, 20, 20) is spec
    assert exact_spectrum(REF_B, 6, 6) is not spec
    with pytest.raises(TypeError):
        spec.entries[(0, 0)] = 1.0
    with pytest.raises(TypeError):
        del spec.entries[(4, -5)]
    entries = {(0, 0): 0.0, (1, 0): 1.0}
    own = ExactSpectrum(REF_B, 1, 0, entries)
    entries[(1, 0)] = 2.0
    assert own.omega2(1, 0) == 1.0
    with pytest.raises(ValueError):
        exact_spectrum(REF_B, -1, 2)


def test_band_counting_with_multiplicity():
    spec = exact_spectrum(REF_B, 20, 20)
    modes = spec.band_modes(0.2)
    assert (0, 0) in modes
    assert (4, -5) in modes and (17, -20) in modes
    assert len(modes) == 15
    assert spec.count_with_multiplicity(0.2) == 29


def test_parallel_gradient_bound():
    """Quadrature check of |b.grad phi|^2 integrating to 4 pi^2 omega^2."""
    from numpy.polynomial.legendre import leggauss
    b = REF_B
    nodes, weights = leggauss(40)
    x = (nodes + 1) * math.pi  # map to [0, 2*pi]
    w = weights * math.pi
    spec = exact_spectrum(b, 6, 6)
    for (m, n) in [(1, -1), (4, -5), (2, 3), (0, 2)]:
        # |b . grad exp(i(mx+ny))|^2 = (b1 m + b2 n)^2 pointwise
        vals = np.array([[(b.b1 * m + b.b2 * n) ** 2 for _ in x] for _ in x])
        integral = np.einsum("i,j,ij->", w, w, vals)
        bound = 4 * math.pi**2 * spec.omega2(m, n)
        assert integral <= bound * (1 + 1e-12) + 1e-13


def build_projector(nx=4, ny=4, p=3, m_max=6, n_max=6, b=REF_B):
    mesh = build_mesh(MeshConfig(nx, ny, Alignment.BOTTOM_TOP, b))
    spec = BasisSpec(p, p)
    return mesh, spec, FourierProjector(mesh, spec, m_max, n_max)


def amplitude_table(proj, vec):
    """Each mode's amplitude of the vector ``vec``."""
    return dict(zip(proj.modes, proj.amplitudes(vec).tolist()))


def class_amplitudes(proj, coeff, wavevectors):
    """``(modes, columns)`` amplitudes of the columns whose lattice DFT at
    their own wavevector is ``coeff``: projected onto the modes of each
    column's class, 0 elsewhere, by the per-class reference loop."""
    return bf.class_projection(proj, coeff, wavevectors)[2]


def test_projector_constant_vector():
    mesh, spec, proj = build_projector()
    vec = np.zeros(mesh.n_cells * spec.n_loc)
    vec[::spec.n_loc] = 1.0
    table = amplitude_table(proj, vec)
    peak = table[(0, 0)]
    assert peak == pytest.approx(4 * math.pi**2, rel=1e-12)
    others = max(v for k, v in table.items() if k != (0, 0))
    assert others <= 1e-10 * peak


def local_moments_per_degree(mesh, spec, modes):
    """``FourierProjector._moments()`` with one Bessel call per degree: the
    reference for its one broadcast call per axis."""
    mm, nn = np.array(modes, dtype=float).T
    cell0 = mesh.cell0
    hx, he = np.array(cell0.half_xi), np.array(cell0.half_eta)

    def factors(p, c):
        out = np.empty((p + 1, len(c)), dtype=complex)
        for a in range(p + 1):
            out[a] = 2.0 * (1j ** a) * spherical_jn(a, np.abs(c))
            if a % 2 == 1:
                out[a] = np.where(c < 0, -out[a], out[a])
        return out

    f_xi = factors(spec.p_xi, mm * hx[0] + nn * hx[1])
    f_eta = factors(spec.p_eta, mm * he[0] + nn * he[1])
    return cell0.jacobian_det * np.einsum("am,bm->mab", f_xi, f_eta).reshape(
        len(modes), spec.n_loc)


@pytest.mark.parametrize("p_xi,p_eta", [(0, 2), (3, 3)])
def test_local_moments_match_the_per_degree_loop(p_xi, p_eta):
    mesh = build_mesh(MeshConfig(4, 8, Alignment.BOTTOM_TOP, REF_B))
    spec = BasisSpec(p_xi, p_eta)
    proj = FourierProjector(mesh, spec)
    np.testing.assert_array_equal(proj._moments(),
                                  local_moments_per_degree(mesh, spec, proj.modes))


#: The derandomized draws of ``test_moments_built_in_any_order_are_the_eager_table``
#: when it was recorded, replayed by ``pinned``.
MOMENT_DRAWS = [
    (Alignment.CARTESIAN, 1, 1, 0, 0, 0),
    (Alignment.LEFT_RIGHT, 1, 1, 0, 0, 0),
    (Alignment.LEFT_RIGHT, 3, 1, 3, 1, 0),
    (Alignment.BOTTOM_TOP, 4, 2, 0, 2, 127),
    (Alignment.CARTESIAN, 2, 2, 0, 0, 17795),
    (Alignment.LEFT_RIGHT, 6, 2, 1, 2, 732),
    (Alignment.BOTTOM_TOP, 5, 1, 1, 2, 15151),
    (Alignment.CARTESIAN, 6, 6, 0, 3, 1746),
    (Alignment.LEFT_RIGHT, 5, 3, 1, 1, 436),
    (Alignment.LEFT_RIGHT, 2, 6, 3, 0, 292),
    (Alignment.LEFT_RIGHT, 5, 4, 1, 3, 288),
    (Alignment.LEFT_RIGHT, 4, 4, 1, 3, 288),
    (Alignment.LEFT_RIGHT, 4, 4, 1, 3, 1),
    (Alignment.LEFT_RIGHT, 4, 4, 1, 1, 1),
    (Alignment.LEFT_RIGHT, 4, 1, 1, 1, 1),
    (Alignment.LEFT_RIGHT, 4, 1, 1, 1, 4),
    (Alignment.LEFT_RIGHT, 4, 4, 1, 1, 4),
    (Alignment.BOTTOM_TOP, 3, 2, 0, 1, 8192),
    (Alignment.BOTTOM_TOP, 3, 3, 0, 1, 8192),
    (Alignment.BOTTOM_TOP, 1, 3, 0, 1, 8192),
    (Alignment.BOTTOM_TOP, 1, 3, 3, 1, 8192),
    (Alignment.BOTTOM_TOP, 1, 3, 3, 3, 8192),
    (Alignment.BOTTOM_TOP, 3, 3, 3, 1, 8192),
    (Alignment.BOTTOM_TOP, 3, 3, 3, 3, 8192),
    (Alignment.CARTESIAN, 1, 3, 0, 2, 420),
]


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(alignment=st.sampled_from(list(Alignment)), nx=st.integers(1, 6),
       ny=st.integers(1, 6), p_xi=st.integers(0, 3), p_eta=st.integers(0, 3),
       seed=st.integers(0, 2**16))
@pinned("alignment, nx, ny, p_xi, p_eta, seed", MOMENT_DRAWS)
def test_moments_built_in_any_order_are_the_eager_table(alignment, nx, ny, p_xi,
                                                          p_eta, seed):
    """The residue classes requested in a random order and in random
    groups, some twice, build each row of the moment table once, bit for
    bit the row of the table built in one call."""
    mesh = build_mesh(MeshConfig(nx, ny, alignment, REF_B))
    spec = BasisSpec(p_xi, p_eta)
    proj = FourierProjector(mesh, spec, 6, 6)
    eager = proj._build_local(np.arange(len(proj.modes)))
    rng = np.random.default_rng(seed)
    residues = rng.permutation(nx * ny).tolist()
    cuts = np.sort(rng.integers(0, len(residues) + 1, 3)).tolist()
    for part in np.split(residues, cuts):
        local = proj._moments(part.tolist() + residues[:1])
        rows = np.concatenate([proj._residue_rows.get(r, np.empty(0, dtype=int))
                               for r in part.tolist() + residues[:1]])
        assert np.array_equal(local[rows], eager[rows])
    assert np.array_equal(proj._moments(), eager)


@pytest.fixture
def built_rows(monkeypatch):
    """The rows of every ``FourierProjector._build_local`` call."""
    calls, build = [], FourierProjector._build_local

    def spy(self, rows):
        calls.append(rows)
        return build(self, rows)

    monkeypatch.setattr(FourierProjector, "_build_local", spy)
    return calls


def test_moments_are_built_for_the_residues_a_projection_reads(built_rows):
    """``ref_band``'s association (8x8 p4, band edge 0.2, 7 classes) builds
    the moment rows of the 13 residues of its classes and their conjugates,
    each once; a full spectrum (34 classes) and a ``band_eig`` association
    (the FFT path) build all 841 box modes."""
    config, spec = MeshConfig(8, 8, Alignment.BOTTOM_TOP, REF_B), BasisSpec(4, 4)
    setup = SolveSetup(mesh_config=config, spec=spec, alpha=CONST, beta=CONST)
    sol = run_band_solve(setup).solution
    rows = np.concatenate(built_rows)
    mn = np.array(FourierProjector(build_mesh(config), spec).modes)[rows]
    residues = set(((mn[:, 0] % 8) * 8 + mn[:, 1] % 8).tolist())
    p, q = np.divmod(np.unique(sol.wavevectors), 8)
    held = set((p * 8 + q).tolist()) | set(((-p) % 8 * 8 + (-q) % 8).tolist())
    assert residues == held and len(residues) == 13
    assert len(rows) == len(np.unique(rows)) == 168
    for full in (run_band_solve(SolveSetup(mesh_config=config, spec=spec, alpha=CONST,
                                           beta=CONST, full_spectrum=True)),
                 run_band_solve(SolveSetup(
                     mesh_config=MeshConfig(2, 4, Alignment.BOTTOM_TOP, REF_B),
                     spec=BasisSpec(1, 1), alpha=CONST,
                     beta=CoefficientField(1.0, (Harmonic(0, 1, 0.1, 0.0),))))):
        built_rows.clear()
        associate_modes(full.solution, FourierProjector(full.mesh, full.setup.spec))
        assert np.array_equal(np.sort(np.concatenate(built_rows)), np.arange(841))
    assert full.solution.wavevectors is None


@pytest.mark.parametrize("alignment, nx, ny, p, band", [c[:5] for c in BAND_CASES],
                         ids=[f"{c[0].value}-{c[1]}x{c[2]}-p{c[3]}" for c in BAND_CASES])
def test_band_amplitudes_from_the_built_residues_are_the_eager_ones(alignment, nx, ny,
                                                                     p, band):
    """The amplitudes and the association of a Bloch band, projected with
    only its residues' moments built, are bit for bit those projected with
    the whole table built first."""
    a, m = constant_pencil(alignment, nx, ny, p)
    sol = eigensolve.bloch_eig(a, m, BandRequest(lambda_max=band))
    mesh, spec = build_mesh(MeshConfig(nx, ny, alignment, REF_B)), BasisSpec(p, p)
    lazy, eager = FourierProjector(mesh, spec), FourierProjector(mesh, spec)
    eager._moments()
    amps, assoc = zip(*[(class_amplitudes(proj, sol.coefficients, sol.wavevectors),
                         associate_modes(sol, proj, exact_spectrum(REF_B)))
                        for proj in (lazy, eager)])
    assert np.array_equal(amps[0], amps[1])
    assert assoc[0] == assoc[1]


def test_projector_moments_match_quadrature_oracle():
    """Closed-form Bessel moments equal raw-quadrature Fourier integrals."""
    mesh, spec, proj = build_projector(nx=2, ny=2, p=2, m_max=3, n_max=3)
    rng = np.random.default_rng(23)
    vec = rng.standard_normal(mesh.n_cells * spec.n_loc)
    from numpy.polynomial.legendre import leggauss
    nodes, weights = leggauss(30)
    for mode in [(1, 0), (2, -3), (3, 3), (0, 1)]:
        m, n = mode
        total = 0.0 + 0.0j
        for cid, cell in enumerate(mesh.cells):
            for qx, wx in zip(nodes, weights):
                for qy, wy in zip(nodes, weights):
                    x, y = cell.map_point(qx, qy)
                    phi = bf.basis_values(spec, qx, qy)
                    local = vec[cid * spec.n_loc:(cid + 1) * spec.n_loc]
                    total += wx * wy * cell.jacobian_det * \
                        (phi @ local) * np.exp(1j * (m * x + n * y))
        assert abs(amplitude_table(proj, vec)[mode] - abs(total)) < 1e-10


def test_projection_round_trip_argmax():
    """The L2 interpolant of cos(4x - 5y) projects back onto (4, -5)."""
    mesh, spec, proj = build_projector(nx=6, ny=6, p=4, m_max=6, n_max=6)
    mass = bf.oracle_mass(mesh, spec, None, nq=12)
    rhs = np.zeros(mesh.n_cells * spec.n_loc)
    from numpy.polynomial.legendre import leggauss
    nodes, weights = leggauss(12)
    for cid, cell in enumerate(mesh.cells):
        for qx, wx in zip(nodes, weights):
            for qy, wy in zip(nodes, weights):
                x, y = cell.map_point(qx, qy)
                phi = bf.basis_values(spec, qx, qy)
                rhs[cid * spec.n_loc:(cid + 1) * spec.n_loc] += \
                    wx * wy * cell.jacobian_det * math.cos(4 * x - 5 * y) * phi
    vec = np.linalg.solve(mass, rhs)
    (mode,), (amp,) = proj.argmax_modes(vec[:, None])
    assert mode == (4, -5)
    assert amp > 0.5 * 2 * math.pi**2  # half the exact projection magnitude


def test_projector_zero_and_wrong_size_vectors():
    """A zero vector projects onto no mode (amplitude 0, so no association
    row); a vector of the wrong size is refused."""
    mesh, spec, proj = build_projector()
    assert proj.argmax_modes(np.zeros((mesh.n_cells * spec.n_loc, 1)))[1].tolist() == [0.0]
    with pytest.raises(ValueError, match="dimension"):
        proj.amplitudes(np.zeros(3))


PROJECTOR_MESHES = {
    "bottom-top-4x4": (MeshConfig(4, 4, Alignment.BOTTOM_TOP, REF_B), BasisSpec(3, 3)),
    "left-right-3x5": (MeshConfig(3, 5, Alignment.LEFT_RIGHT, FieldDirection(0.6, 1.3)),
                       BasisSpec(2, 3)),
    "cartesian-3x2": (MeshConfig(3, 2, Alignment.CARTESIAN, REF_B), BasisSpec(2, 1)),
    "bottom-top-1x4": (MeshConfig(1, 4, Alignment.BOTTOM_TOP, REF_B), BasisSpec(2, 2)),
    "left-right-4x1": (MeshConfig(4, 1, Alignment.LEFT_RIGHT, FieldDirection(1.0, 1.7)),
                       BasisSpec(3, 1)),
}


@pytest.mark.parametrize("name", sorted(PROJECTOR_MESHES))
def test_factored_projector_matches_explicit_moments(name):
    """The DFT-plus-residue-class projection equals the explicit
    ``modes x n`` moment matrix; the 7x5 box is wider than every mesh, so
    several modes share each residue class."""
    config, spec = PROJECTOR_MESHES[name]
    mesh = build_mesh(config)
    proj = FourierProjector(mesh, spec, 7, 5)
    block = np.random.default_rng(5).standard_normal((mesh.n_cells * spec.n_loc, 7))
    want = np.abs(bf.oracle_moments(mesh, spec, proj.modes) @ block)
    got = proj.amplitudes(block)
    assert got.shape == want.shape == (len(proj.modes), 7)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)
    assert np.allclose(proj.amplitudes(block[:, 3]), got[:, 3], rtol=0,
                       atol=1e-12 * np.max(want))


def test_batched_association_matches_per_column_argmax():
    """More columns than one projection block: every association equals
    the single-vector argmax."""
    result = reference_solve(nx=2, ny=8, p=2, full_spectrum=True)
    vecs = result.solution.eigenvectors
    assert vecs.shape[1] > PROJECT_BLOCK
    proj = FourierProjector(result.mesh, result.setup.spec, 20, 20)
    for row in result.assoc:
        (mode,), (amp,) = proj.argmax_modes(vecs[:, [row.index]])
        assert row.mode == mode
        assert row.amplitude == pytest.approx(amp, rel=1e-12)


def per_row_associations(solution, proj, exact):
    """The association rows built one eigenvector at a time: the reference
    for ``associate_modes``, which looks each mode up once and forms the
    errors as arrays.  The labels and amplitudes come from the source that
    ``associate_modes`` reads, the Bloch solution's coefficients."""
    best, amps = proj._argmax_classes(solution.coefficients, solution.wavevectors)
    modes = [proj.modes[i] for i in best]
    out = []
    for idx, (mode, amp) in enumerate(zip(modes, amps.tolist())):
        if amp <= 0.0:
            continue
        w2 = float(solution.eigenvalues[idx])
        if exact is None:
            out.append(Association(idx, w2, mode, amp, None, None, "none"))
            continue
        w2_exact = exact.omega2(*mode)
        if w2_exact == 0.0:
            out.append(Association(idx, w2, mode, amp, w2_exact, abs(w2), "absolute"))
        else:
            out.append(Association(idx, w2, mode, amp, w2_exact,
                                   abs(w2 - w2_exact) / w2_exact, "relative"))
    return out


@pytest.mark.parametrize("with_exact", [True, False])
def test_association_rows_match_the_per_row_reference(with_exact):
    """A full spectrum (the zero mode's absolute error, relative errors, and
    a class that holds no box mode) associates to the very rows, bit for
    bit, of the per-eigenvector reference."""
    result = reference_solve(nx=4, ny=16, p=1, full_spectrum=True, m_max=6, n_max=6)
    proj = FourierProjector(result.mesh, result.setup.spec, 6, 6)
    exact = exact_spectrum(REF_B, 6, 6) if with_exact else None
    got = associate_modes(result.solution, proj, exact)
    want = per_row_associations(result.solution, proj, exact)
    assert got == want
    assert len(got) < len(result.solution)
    if with_exact:
        assert {row.error_kind for row in got} == {"absolute", "relative"}


def test_exact_tie_prefers_small_order_then_small_m():
    """On the 1x1 cartesian p=1 mesh, P_1(xi) + P_1(eta) projects onto
    (1, 0) and (0, 1) with bit-identical amplitudes; (0, 1) must win."""
    mesh = build_mesh(MeshConfig(1, 1, Alignment.CARTESIAN, REF_B))
    spec = BasisSpec(1, 1)
    proj = FourierProjector(mesh, spec, 3, 3)
    vec = np.array([0.0, 1.0, 1.0, 0.0])  # dofs (a, b) = (0,0), (0,1), (1,0), (1,1)
    table = amplitude_table(proj, vec)
    best = max(table.values())
    assert table[(1, 0)] == table[(0, 1)] == best
    assert {mode for mode, a in table.items() if a == best} == {(0, 1), (1, 0)}
    assert proj.argmax_modes(vec[:, None]) == ([(0, 1)], [best])


def test_tie_rule_on_crafted_amplitudes(monkeypatch):
    """Ties between modes of different order, and of equal order and m,
    resolve by (|m|+|n|, m, n), whatever the canonical enumeration order."""
    mesh, spec, proj = build_projector(m_max=3, n_max=3)
    ties = [[(0, 3), (2, 0), (1, -1)], [(2, -1), (1, 2), (0, 3)], [(1, 2), (1, -2)]]
    amps = np.full((len(proj.modes), len(ties)), 0.5)
    for col, modes in enumerate(ties):
        for mode in modes:
            amps[proj.modes.index(mode), col] = 2.0
    monkeypatch.setattr(proj, "_project", lambda block: amps[:, :block.shape[1]])
    vecs = np.zeros((mesh.n_cells * spec.n_loc, len(ties)))
    modes, best = proj.argmax_modes(vecs)
    assert modes == [(1, -1), (0, 3), (1, -2)]
    assert list(best) == [2.0, 2.0, 2.0]


def test_empty_solution_associates_to_nothing():
    mesh, spec, proj = build_projector()
    n = mesh.n_cells * spec.n_loc
    empty = EigenSolution(eigenvalues=np.empty(0), eigenvectors=np.empty((n, 0)),
                          residuals=np.empty(0), method="empty")
    assert associate_modes(empty, proj, exact_spectrum(REF_B, 6, 6)) == []


def lattice_classes(vecs, nx, ny, n_loc):
    """Each column's wavevector class ``{k, -k}`` (flat indices ``p*ny + q``)
    read from its lattice DFT, and the DFT energy outside that class
    relative to the column's total."""
    coeff = np.fft.fft2(vecs.T.reshape(-1, nx, ny, n_loc), axes=(1, 2))
    energy = np.sum(np.abs(coeff) ** 2, axis=3).reshape(-1, nx * ny)
    k = energy.argmax(axis=1)
    p, q = np.divmod(k, ny)
    conj = (-p) % nx * ny + (-q) % ny
    inside = energy[np.arange(len(k)), k] + np.where(
        conj != k, energy[np.arange(len(k)), conj], 0.0)
    classes = [{int(a), int(b)} for a, b in zip(k, conj)]
    return classes, 1.0 - inside / energy.sum(axis=1)


def mode_residues(modes, nx, ny):
    return np.array([(m % nx) * ny + n % ny for m, n in modes])


def test_bloch_labels_stay_in_their_wavevector_class():
    """A Bloch eigenvector's label lies in its own class ``{k, -k}``.  On the
    48x2 lattice the classes ``p = 21..27`` hold no mode of the ``|m|, |n| <=
    20`` box, so their 56 vectors get no row; the FFT over all modes would
    label 48 of them from round-off amplitudes (at most 8.3e-16)."""
    nx, ny = 48, 2
    result = run_band_solve(SolveSetup(
        mesh_config=MeshConfig(nx, ny, Alignment.CARTESIAN, REF_B),
        spec=BasisSpec(1, 1), alpha=CONST, beta=CONST, full_spectrum=True))
    vecs = result.solution.eigenvectors
    classes, outside = lattice_classes(vecs, nx, ny, 4)
    assert outside.max() < 1e-24
    box = set(mode_residues(canonical_modes(20, 20), nx, ny).tolist())
    boxless = {i for i, cls in enumerate(classes) if not cls & box}
    assert len(boxless) == 56
    assert {r.index for r in result.assoc} == set(range(vecs.shape[1])) - boxless
    for row in result.assoc:
        assert (row.mode[0] % nx) * ny + row.mode[1] % ny in classes[row.index]


CLASS_SOLVES = {
    "bottom-top-4x4-band": (MeshConfig(4, 4, Alignment.BOTTOM_TOP, REF_B),
                            BasisSpec(3, 3), False),
    "bottom-top-4x4-full": (MeshConfig(4, 4, Alignment.BOTTOM_TOP, REF_B),
                            BasisSpec(2, 2), True),
    "left-right-3x5-band": (MeshConfig(3, 5, Alignment.LEFT_RIGHT,
                                       FieldDirection(0.6, 1.3)), BasisSpec(2, 3), False),
    "left-right-3x5-full": (MeshConfig(3, 5, Alignment.LEFT_RIGHT,
                                       FieldDirection(0.6, 1.3)), BasisSpec(2, 3), True),
    "cartesian-6x4-band": (MeshConfig(6, 4, Alignment.CARTESIAN, REF_B),
                           BasisSpec(2, 2), False),
    "cartesian-3x2-full": (MeshConfig(3, 2, Alignment.CARTESIAN, REF_B),
                           BasisSpec(2, 1), True),
    "bottom-top-1x4-full": (MeshConfig(1, 4, Alignment.BOTTOM_TOP, REF_B),
                            BasisSpec(2, 2), True),
    "left-right-4x1-band": (MeshConfig(4, 1, Alignment.LEFT_RIGHT,
                                       FieldDirection(1.0, 1.7)), BasisSpec(3, 1), False),
    "cartesian-1x1-full": (MeshConfig(1, 1, Alignment.CARTESIAN, REF_B),
                           BasisSpec(3, 3), True),
}


@pytest.mark.parametrize("name", sorted(CLASS_SOLVES))
def test_class_restricted_projection_matches_the_fft(name):
    """Projecting a Bloch solution's own coefficients onto its wavevector
    classes only gives the FFT amplitudes of its eigenvectors at the
    in-class modes, exactly 0 elsewhere, and the same labels wherever the
    FFT winner is not round-off; its association rows are read from them
    bit for bit.  The 7x5 box is
    wider than every lattice, so several modes share each residue class;
    on the 1-wide lattices ``k = -k`` along that axis."""
    config, spec, full = CLASS_SOLVES[name]
    result = run_band_solve(SolveSetup(
        mesh_config=config, spec=spec, alpha=CONST, beta=CONST,
        full_spectrum=full, m_max=7, n_max=5))
    sol = result.solution
    assert sol.method == ("dense" if full else "bloch")
    assert sol.wavevectors.shape == (len(sol),)
    nx, ny = config.nx, config.ny
    classes, outside = lattice_classes(sol.eigenvectors, nx, ny, spec.n_loc)
    assert outside.max() < 1e-24
    assert all(int(k) in cls for k, cls in zip(sol.wavevectors, classes))

    proj = FourierProjector(result.mesh, spec, 7, 5)
    residues = mode_residues(proj.modes, nx, ny)
    in_class = np.array([[r in cls for cls in classes] for r in residues])
    fft = proj.amplitudes(sol.eigenvectors)
    got = class_amplitudes(proj, sol.coefficients, sol.wavevectors)
    assert np.all(got[~in_class] == 0.0)
    assert np.max(np.abs(got - fft)[in_class]) <= 1e-12 * np.max(fft)

    fft_modes, fft_amps = proj.argmax_modes(sol.eigenvectors)
    best, amps = proj._argmax_classes(sol.coefficients, sol.wavevectors)
    modes = [proj.modes[i] for i in best]
    assert np.array_equal(amps, got.max(axis=0))
    resolved = fft_amps > 1e-12
    assert resolved.any()
    assert [m for m, ok in zip(modes, resolved) if ok] == \
        [m for m, ok in zip(fft_modes, resolved) if ok]
    assert [(r.index, r.mode, r.amplitude) for r in result.assoc] == \
        [(i, m, a) for i, (m, a) in enumerate(zip(modes, amps.tolist())) if a > 0.0]


#: ``(mesh config, spec, full spectrum, box, band edge)`` of the batched
#: class projection cases: the ``CLASS_SOLVES`` and the ``BAND_CASES``
#: meshes, a 3x3 box on the 4x4 p3 full spectrum (residue classes of one
#: mode), and lattices wider than the box, some of whose classes hold no
#: box mode.
BATCH_SOLVES = {
    "bottom-top-4x4-p3-full-box3": (MeshConfig(4, 4, Alignment.BOTTOM_TOP, REF_B),
                                    BasisSpec(3, 3), True, 3, 0.2),
    "cartesian-48x2-p1-full": (MeshConfig(48, 2, Alignment.CARTESIAN, REF_B),
                               BasisSpec(1, 1), True, 20, 0.2),
    "left-right-16x2-p2-band-box6": (MeshConfig(16, 2, Alignment.LEFT_RIGHT, REF_B),
                                     BasisSpec(2, 2), False, 6, 0.2),
}
BATCH_SOLVES.update({name: (config, spec, full, (7, 5), 0.2)
                     for name, (config, spec, full) in CLASS_SOLVES.items()})
BATCH_SOLVES.update({f"band-{c[0].value}-{c[1]}x{c[2]}-p{c[3]}": (
    MeshConfig(c[1], c[2], c[0], REF_B), BasisSpec(c[3], c[3]), False, 20, c[4])
    for c in BAND_CASES})


@pytest.mark.parametrize("name", sorted(BATCH_SOLVES))
def test_batched_class_projection_is_the_per_class_loop(name):
    """``_argmax_classes`` projects each batch of classes by one product
    and the residue classes of one mode by their own vector products: its
    labels and amplitudes are, bit for bit, those of the former per-class
    loop (``bruteforce.class_projection``)."""
    config, spec, full, box, band = BATCH_SOLVES[name]
    m_max, n_max = box if isinstance(box, tuple) else (box, box)
    result = run_band_solve(SolveSetup(
        mesh_config=config, spec=spec, alpha=CONST, beta=CONST, omega_max_sq=band,
        full_spectrum=full, m_max=m_max, n_max=n_max))
    sol = result.solution
    proj = FourierProjector(result.mesh, spec, m_max, n_max)
    best, amps = proj._argmax_classes(sol.coefficients, sol.wavevectors)
    want_best, want_amps, _ = bf.class_projection(proj, sol.coefficients,
                                                  sol.wavevectors)
    assert np.array_equal(best, want_best)
    assert amps.tobytes() == want_amps.tobytes()
    _, _, size, single = spectrum._class_rows(m_max, n_max, config.nx, config.ny)
    held = np.unique(sol.wavevectors)
    if name.endswith("box3"):
        assert np.any(single[held] >= 0)
    if "48x2" in name or "16x2" in name:
        assert np.any(size[held] == 0) and np.any(amps == 0.0)


def test_class_tie_across_conjugate_residues_follows_mode_order(monkeypatch):
    """On the 3x1 lattice the class {1, 2} holds the modes m = 1 (residue k)
    and m = 2 (residue -k).  With the moments of (2, 0) set to the conjugates
    of those of (1, 2), a Bloch wave projects onto both with bit-identical
    amplitudes, and (2, 0), first in tie order, wins."""
    mesh = build_mesh(MeshConfig(3, 1, Alignment.CARTESIAN, REF_B))
    spec = BasisSpec(1, 1)
    proj = FourierProjector(mesh, spec, 3, 3)
    a, b = proj.modes.index((1, 2)), proj.modes.index((2, 0))
    assert b < a
    local = np.zeros_like(proj._moments())
    local[a] = proj._local[a]
    local[b] = proj._local[a].conj()
    monkeypatch.setattr(proj, "_local", local)
    v = np.array([1.0, 1j]) @ np.random.default_rng(3).standard_normal((2, spec.n_loc))
    vec = np.real(np.exp(2j * np.pi * np.arange(3) / 3)[:, None] * v).ravel()
    k = np.array([1])
    coeff = lattice_dft(vec[:, None], k, 3, 1, spec.n_loc)
    amps = class_amplitudes(proj, coeff, k)[:, 0]
    assert amps[a] == amps[b] == amps.max() > 0.0
    best, top = proj._argmax_classes(coeff, k)
    assert (proj.modes[best[0]], top.tolist()) == ((2, 0), [amps[b]])


def test_variable_coefficient_association_projects_onto_every_mode():
    """``band_eig`` vectors have no wavevector: they keep the FFT path."""
    from anisodg.fields import Harmonic
    result = run_band_solve(SolveSetup(
        mesh_config=MeshConfig(2, 4, Alignment.BOTTOM_TOP, REF_B),
        spec=BasisSpec(2, 2), alpha=CONST, m_max=7, n_max=5,
        beta=CoefficientField(1.0, (Harmonic(0, 1, 0.1, 0.0),))))
    sol = result.solution
    assert sol.method not in ("bloch", "dense") and len(sol) > 1
    assert sol.wavevectors is None
    proj = FourierProjector(result.mesh, result.setup.spec, 7, 5)
    fft = proj.amplitudes(sol.eigenvectors)
    assert [(r.index, r.mode, r.amplitude) for r in result.assoc] == \
        [(i, proj.modes[j], fft[j, i]) for i, j in enumerate(fft.argmax(axis=0))]


def reference_solve(nx=4, ny=4, p=3, **kwargs):
    setup = SolveSetup(
        mesh_config=MeshConfig(nx, ny, Alignment.BOTTOM_TOP, REF_B),
        spec=BasisSpec(p, p), alpha=CONST, beta=CONST, **kwargs)
    return run_band_solve(setup)


def test_associations_of_band_solve():
    result = reference_solve()
    zero_rows = [r for r in result.assoc if r.mode == (0, 0)]
    assert len(zero_rows) == 1
    assert zero_rows[0].error_kind == "absolute"
    assert zero_rows[0].error == pytest.approx(abs(zero_rows[0].omega2_computed))
    for r in result.assoc:
        assert r.error >= 0.0
        assert r.amplitude > 0.0


def test_degenerate_pair_members_share_canonical_mode():
    result = reference_solve()
    w = result.solution.eigenvalues
    for i in range(1, len(w) - 1, 2):
        if abs(w[i + 1] - w[i]) < 1e-6 * max(abs(w[i]), 1e-30):
            assert result.assoc[i].mode == result.assoc[i + 1].mode


def test_variable_coefficient_runs_have_no_exact_data():
    from anisodg.fields import Harmonic
    setup = SolveSetup(
        mesh_config=MeshConfig(2, 4, Alignment.BOTTOM_TOP, REF_B),
        spec=BasisSpec(1, 1), alpha=CONST,
        beta=CoefficientField(1.0, (Harmonic(0, 1, 0.1, 0.0),)))
    result = run_band_solve(setup)
    assert result.exact is None
    assert all(r.error_kind == "none" for r in result.assoc)
    with pytest.raises(ValueError, match="constant coefficients"):
        max_band_mode_error(result)


def test_memoized_tables_keep_every_solve_bit_identical():
    """From cold caches, a solve, one of another spec and mode box, and the
    first again: the memoized Gauss rules, volume tables, box modes, residue
    classes, class rows and exact spectra change no bit of the eigenpairs,
    residuals or association rows, and the tables are read-only."""
    for cache in (basis._gauss_rule, assembly._volume_tables, spectrum._box_modes,
                  spectrum._residue_classes, spectrum._class_rows,
                  spectrum._exact_spectrum):
        cache.cache_clear()
    field = CoefficientField(1.0, (Harmonic(1, 1, 0.1, 0.0),))

    def solve(p, box):
        return run_band_solve(SolveSetup(
            mesh_config=MeshConfig(2, 8, Alignment.BOTTOM_TOP, REF_B),
            spec=BasisSpec(p, p), alpha=field, beta=field, m_max=box, n_max=box))

    first = solve(2, 20)
    solve(1, 6)
    again = solve(2, 20)
    assert first.solution.method == "shift-invert" and len(first.solution)
    for name in ("eigenvalues", "eigenvectors", "residuals"):
        np.testing.assert_array_equal(getattr(again.solution, name),
                                      getattr(first.solution, name))
    assert again.assoc == first.assoc
    with pytest.raises(ValueError):
        spectrum._box_modes(20, 20)[1][0, 0] = 1
    with pytest.raises(ValueError):
        spectrum._residue_classes(20, 20, 2, 8)[0][2][0] = 1
    for table in spectrum._class_rows(20, 20, 2, 8):
        with pytest.raises(ValueError):
            table[0] = 1


def test_full_spectrum_needs_constant_coefficients():
    """The full spectrum is solved only by the lattice blocks."""
    from anisodg.fields import Harmonic
    setup = SolveSetup(
        mesh_config=MeshConfig(2, 4, Alignment.BOTTOM_TOP, REF_B),
        spec=BasisSpec(1, 1), alpha=CoefficientField(1.0, (Harmonic(1, 0, 0.2, 0.0),)),
        beta=CONST, full_spectrum=True)
    with pytest.raises(ValueError, match="constant coefficients"):
        run_band_solve(setup)


def test_constant_coefficient_solves_use_the_lattice_blocks():
    """The band solve finds each class's band pairs by value, the full
    spectrum every pair at once: the two LAPACK solvers agree to
    ``1e-10 * max(|lambda|, lambda_max)``."""
    band = reference_solve(nx=2, ny=4, p=1)
    full = reference_solve(nx=2, ny=4, p=1, full_spectrum=True)
    assert band.solution.method == "bloch"
    assert band.solution.inertia_count == len(band.solution)
    assert full.solution.method == "dense"
    assert len(full.solution) == band.setup.dof()
    w = band.solution.eigenvalues
    assert np.all(np.abs(w - full.solution.eigenvalues[:len(w)])
                  <= 1e-10 * np.maximum(np.abs(w), band.setup.omega_max_sq))
    np.testing.assert_array_equal(
        band.solution.wavevectors,
        full.solution.wavevectors[:len(band.solution)])


@pytest.fixture
def formed_waves(monkeypatch):
    """The wavevectors of every ``real_waves`` call, the step that forms a
    Bloch solution's global eigenvectors."""
    calls, real_waves = [], eigensolve._Lattice.real_waves

    def spy(self, k, v):
        calls.append(k)
        return real_waves(self, k, v)

    monkeypatch.setattr(eigensolve._Lattice, "real_waves", spy)
    return calls


@pytest.mark.parametrize("full", [False, True], ids=["band", "full"])
def test_bloch_eigenvectors_are_formed_on_the_first_read(formed_waves, full):
    """``ref_band``'s solve (8x8 p4) is solved and associated without forming
    a global eigenvector.  The first read of ``eigenvectors`` forms them,
    bit for bit those of the all-classes reference, and keeps them."""
    config, spec = MeshConfig(8, 8, Alignment.BOTTOM_TOP, REF_B), BasisSpec(4, 4)
    result = run_band_solve(SolveSetup(mesh_config=config, spec=spec, alpha=CONST,
                                       beta=CONST, full_spectrum=full))
    sol = result.solution
    assert result.assoc and formed_waves == []
    vecs = sol.eigenvectors
    assert sorted(formed_waves) == np.unique(sol.wavevectors).tolist()
    assert sol.eigenvectors is vecs
    a, m = build_reduced(assemble_operator_set(
        build_mesh(config), spec, CONST, MagneticField.uniform(REF_B), 6.0))
    ref = bf.bloch_band_reference(a, m, None if full else BandRequest(lambda_max=0.2))
    assert np.array_equal(vecs, ref.eigenvectors)
    assert np.array_equal(sol.eigenvalues, ref.eigenvalues)


@pytest.fixture
def formed_rows(monkeypatch):
    """The number of ``Association`` rows constructed."""
    count, init = [0], Association.__init__

    def spy(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Association, "__init__", spy)
    return count


def test_convergence_study_forms_no_association_row(formed_rows):
    """A convergence study reduces the association columns of each level
    (``max_band_mode_error``) and constructs no ``Association`` row; reading
    a result's rows forms them, once."""
    setup = SolveSetup(mesh_config=MeshConfig(2, 8, Alignment.BOTTOM_TOP, REF_B),
                       spec=BasisSpec(2, 2), alpha=CONST, beta=CONST)
    rows = convergence_study(setup, [(2, 8), (4, 16)])
    assert len(rows) == 2 and rows[1].max_band_error > 0.0
    assert formed_rows[0] == 0
    result = reference_solve(nx=2, ny=4, p=1)
    assert formed_rows[0] == 0
    first = result.assoc[0]
    assert formed_rows[0] == len(result.assoc) > 0
    assert list(result.assoc)[0] is first and formed_rows[0] == len(result.assoc)


def test_associations_read_as_their_rows():
    """The column form reads as the list of its rows: length, iteration,
    indexing and slicing, and equality with the list either way round."""
    result = reference_solve(nx=2, ny=4, p=2, full_spectrum=True)
    assoc = result.assoc
    assert isinstance(assoc, Associations)
    rows = list(assoc)
    assert len(assoc) == len(rows) == len(assoc.index) > 4
    assert all(isinstance(r, Association) for r in rows)
    assert assoc[0] == rows[0] and assoc[-1] == rows[-1] and assoc[1:4] == rows[1:4]
    assert assoc == rows and rows == assoc and assoc == result.assoc
    assert assoc != rows[:-1] and assoc != rows[::-1] and assoc != tuple(rows)
    for r, i, best, amp in zip(rows, assoc.index, assoc.best, assoc.amplitude):
        assert (r.index, r.mode, r.amplitude) == (i, assoc.modes[best], amp)


def test_convergence_study_forms_no_eigenvector(formed_waves, tmp_path):
    """A CLI convergence study solves its levels for their full spectrum and
    labels every pair from the block coefficients alone."""
    code = cli.main(["convergence", "--nx", "2", "--ny", "8", "--p_xi", "3",
                     "--p_eta", "3", "--levels", "2x8,4x16",
                     "--output_dir", str(tmp_path)])
    assert code == cli.EXIT_OK
    assert (tmp_path / "convergence.csv").read_text().count("\n") == 3
    assert formed_waves == []


def test_compare_equal_setups_gives_zero_improvement():
    a = reference_solve(full_spectrum=True)
    rows = compare_band_errors(a, a)
    assert rows
    assert all(r.improvement_decades == 0.0 for r in rows)


def test_convergence_slope_zero_for_identical_levels():
    setup = SolveSetup(
        mesh_config=MeshConfig(2, 2, Alignment.BOTTOM_TOP, REF_B),
        spec=BasisSpec(1, 1), alpha=CONST, beta=CONST)

    def fake_runner(s, nx, ny, margin):
        return 1e-3, 64, 0

    rows = convergence_study(setup, [(2, 2), (2, 2)], _runner=fake_runner)
    assert rows[1].slope == 0.0


def test_convergence_negative_slope_flagged(caplog):
    setup = SolveSetup(
        mesh_config=MeshConfig(2, 2, Alignment.BOTTOM_TOP, REF_B),
        spec=BasisSpec(1, 1), alpha=CONST, beta=CONST)
    errors = {(2, 2): 1e-4, (4, 4): 1e-3}

    def fake_runner(s, nx, ny, margin):
        return errors[(nx, ny)], 16 * nx * ny, 0

    import logging
    with caplog.at_level(logging.WARNING, logger="anisodg.spectrum"):
        rows = convergence_study(setup, [(2, 2), (4, 4)], _runner=fake_runner)
    assert rows[1].slope < 0.0
    assert any("grew under refinement" in rec.message for rec in caplog.records)


def test_convergence_needs_two_levels():
    setup = SolveSetup(
        mesh_config=MeshConfig(2, 2, Alignment.BOTTOM_TOP, REF_B),
        spec=BasisSpec(1, 1), alpha=CONST, beta=CONST)
    with pytest.raises(ValueError):
        convergence_study(setup, [(2, 2)])


def test_least_squares_slope():
    rows = [ConvergenceRow(0, 2, 2, 100, 1e-2, 0.0, 0),
            ConvergenceRow(1, 4, 4, 400, 1e-4, 0.0, 0),
            ConvergenceRow(2, 8, 8, 1600, 1e-6, 0.0, 0)]
    assert least_squares_slope(rows) == pytest.approx(math.log(100) / math.log(4))


class _Stop(Exception):
    """Raised by a spy to end a study at its first solve."""


@pytest.mark.parametrize("nx, ny, p, n, full", [(16, 16, 3, 4096, True),
                                                (16, 32, 3, 8192, False),
                                                (8, 32, 4, 6400, False)])
def test_study_levels_up_to_the_cap_get_their_full_spectrum(monkeypatch, nx, ny, p,
                                                            n, full):
    """``FULL_SPECTRUM_CAP`` picks each level's solve: a level of at most
    4096 unknowns is solved for its full spectrum, a larger one for the band
    widened by the study's ``band_margin``.  The spy records the level's
    setup and stops the study there, so no solve runs."""
    seen = []

    def spy(setup):
        seen.append(setup)
        raise _Stop

    monkeypatch.setattr(spectrum, "run_band_solve", spy)
    setup = SolveSetup(mesh_config=MeshConfig(2, 2, Alignment.BOTTOM_TOP, REF_B),
                       spec=BasisSpec(p, p), alpha=CONST, beta=CONST)
    with pytest.raises(_Stop):
        convergence_study(setup, [(nx, ny), (2 * nx, 2 * ny)], band_margin=3.5)
    (level,) = seen
    assert (level.mesh_config.nx, level.mesh_config.ny, level.dof()) == (nx, ny, n)
    assert (level.full_spectrum, level.band_margin) == (full, 3.5)


def test_real_convergence_small():
    """Two real levels of the p=(1,1) discretization: error must drop."""
    setup = SolveSetup(
        mesh_config=MeshConfig(2, 4, Alignment.BOTTOM_TOP, REF_B),
        spec=BasisSpec(1, 1), alpha=CONST, beta=CONST, m_max=2, n_max=2)
    rows = convergence_study(setup, [(2, 4), (4, 8)], band_margin=4.0)
    assert rows[1].max_band_error < rows[0].max_band_error
    assert rows[1].slope > 0.0


def test_mode_error_table_picks_max_amplitude():
    modes = [(1, -1), (2, 0)]
    rows = [Association(0, 0.1, (1, -1), 2.0, 0.09, 0.1, "relative"),
            Association(1, 0.2, (1, -1), 5.0, 0.09, 1.0, "relative")]
    table = mode_error_table(columns_of(rows, modes))
    assert table[(1, -1)].index == 1
    # amplitudes one ulp apart are tied, in either order: the smaller index wins
    up = math.nextafter(2.0, math.inf)
    pair = [Association(2, 0.1, (2, 0), 2.0, 0.09, 0.1, "relative"),
            Association(3, 0.1, (2, 0), up, 0.09, 0.2, "relative")]
    for rows in (pair, pair[::-1]):
        assert mode_error_table(columns_of(rows, modes))[(2, 0)].index == 2


def rowwise_mode_table(rows):
    """``mode_error_table`` by a loop over the rows: the largest amplitude per
    mode, then the rows by descending index, so that the smallest index tied
    with the largest amplitude is written last."""
    largest = {}
    for row in rows:
        largest[row.mode] = max(largest.get(row.mode, 0.0), row.amplitude)
    table = {}
    for row in sorted(rows, key=lambda r: r.index, reverse=True):
        if row.amplitude >= (1.0 - AMPLITUDE_TIE_RTOL) * largest[row.mode]:
            table[row.mode] = row
    return table


def columns_of(rows, modes):
    """The ``Associations`` of ``rows`` (with exact data), modes indexed in
    ``modes``."""
    return Associations(
        index=np.array([r.index for r in rows]),
        omega2_computed=np.array([r.omega2_computed for r in rows]),
        best=np.array([modes.index(r.mode) for r in rows]), modes=tuple(modes),
        amplitude=np.array([r.amplitude for r in rows]),
        omega2_exact=np.array([r.omega2_exact for r in rows]),
        error=np.array([r.error for r in rows]),
        error_kind=np.array([r.error_kind for r in rows]))


#: Rows ``(index, mode, amplitude, error)`` of tie cases in the ``|m| <= 1,
#: |n| <= 2`` box of ``REF_B``: (0, 1) ties one ulp apart, the larger index
#: holding the larger amplitude; (1, -1) ties three ways within
#: ``AMPLITUDE_TIE_RTOL``; on (1, 0) the larger amplitude is just outside
#: it, so the larger index wins; (0, 0) and (1, 1) stand alone.  The band
#: edges 0.05, 1.2 and 5 hold 2, 4 and 7 modes of the box, of which 0, 1
#: (``(1, -2)``) and 2 (and ``(0, 2)``) have no row.
UP = math.nextafter(2.0, math.inf)
TIE_ROWS = [(7, (0, 1), UP, 0.5), (3, (0, 1), 2.0, 0.25),
            (9, (1, -1), 1.0, 0.125), (4, (1, -1), 1.0 - 0.25e-12, 0.75),
            (6, (1, -1), 1.0 + 0.5e-12, 0.0625),
            (2, (1, 0), 3.0, 0.375), (5, (1, 0), 3.0 * (1.0 + 3e-12), 0.03125),
            (0, (0, 0), 1.5, 1e-3), (1, (1, 1), 4.0, 9.0)]


@pytest.mark.parametrize("order", ["given", "reversed", "shuffled"])
@pytest.mark.parametrize("edge", [1e-4, 0.05, 1.2, 5.0])
def test_column_mode_errors_equal_the_row_table(order, edge):
    """On pinned tie cases, in any row order: ``mode_error_table`` of the
    columns picks the rows of the per-row loop, and the
    column-form ``max_band_mode_error`` equals the maximum over the band
    modes of that table's errors, 1 for each missing band mode.  A band
    below the first nonzero eigenvalue holds ``(0, 0)`` alone."""
    exact = exact_spectrum(REF_B, 1, 2)
    rows = [Association(i, exact.omega2(*mode), mode, amp, exact.omega2(*mode),
                        err, "relative") for i, mode, amp, err in TIE_ROWS]
    if order == "reversed":
        rows = rows[::-1]
    elif order == "shuffled":
        rows = [rows[i] for i in np.random.default_rng(1).permutation(len(rows))]
    want = rowwise_mode_table(rows)
    assert {mode: r.index for mode, r in want.items()} == {
        (0, 1): 3, (1, -1): 4, (1, 0): 5, (0, 0): 0, (1, 1): 1}
    assoc = columns_of(rows, list(exact.entries))
    assert mode_error_table(assoc) == want
    band = exact.band_modes(edge)
    assert (len(band), sum(mode not in want for mode in band)) == {
        1e-4: (1, 0), 0.05: (2, 0), 1.2: (4, 1), 5.0: (7, 2)}[edge]
    if edge == 1e-4:
        assert list(band) == [(0, 0)]
    errors = [want[mode].error if mode in want else 1.0 for mode in band]
    missing = sum(mode not in want for mode in band)
    result = SimpleNamespace(exact=exact, assoc=assoc,
                             setup=SimpleNamespace(omega_max_sq=edge))
    assert max_band_mode_error(result) == (max(errors, default=0.0), missing)


def test_every_public_assembly_and_eigensolve_function_is_on_the_solve_path(
        monkeypatch):
    """``run_band_solve`` of a constant and of a variable 2x4 p1 setup reaches
    every public function of ``anisodg.assembly`` and ``anisodg.eigensolve``:
    no public name of the two layers serves tests alone.  Each is spied on in
    every ``anisodg`` namespace that binds it, as the benchmark's tracer
    wraps it."""
    spaces = [module for name, module in sorted(sys.modules.items())
              if name == "anisodg" or name.startswith("anisodg.")]
    public = [(f"{module.__name__}.{name}", fn)
              for module in (assembly, eigensolve)
              for name, fn in list(vars(module).items())
              if inspect.isfunction(fn) and fn.__module__ == module.__name__
              and not name.startswith("_")]
    reached = set()

    def spying(name, fn):
        def spy(*args, **kwargs):
            reached.add(name)
            return fn(*args, **kwargs)
        return spy

    for name, fn in public:
        spy = spying(name, fn)
        for space in spaces:
            for key, value in list(vars(space).items()):
                if value is fn:
                    monkeypatch.setattr(space, key, spy)
    for alpha, beta in ((CONST, CONST), (STELLARATOR_ALPHA, STELLARATOR_BETA)):
        run_band_solve(SolveSetup(
            mesh_config=MeshConfig(2, 4, Alignment.BOTTOM_TOP, REF_B),
            spec=BasisSpec(1, 1), alpha=alpha, beta=beta))
    assert "anisodg.eigensolve.shifted_inertia" in dict(public)
    assert sorted(set(dict(public)) - reached) == []


def test_band_solve_releases_the_operator_set(monkeypatch):
    """``run_band_solve`` drops the operator set once ``A`` and ``M`` are
    built: the set, its C, u-mass and penalty stencils are gone before the
    lattice factorization starts (M stays, as the pencil's)."""
    assemble, factor = spectrum.assemble_operator_set, eigensolve.shifted_inertia
    refs, alive = [], []

    def recording(*args, **kwargs):
        ops = assemble(*args, **kwargs)
        refs.extend(weakref.ref(x) for x in (ops, ops.c, ops.m_uv, ops.b_phipsi))
        return ops

    def checking(*args):
        alive.append([ref() is not None for ref in refs])
        return factor(*args)

    monkeypatch.setattr(spectrum, "assemble_operator_set", recording)
    monkeypatch.setattr(eigensolve, "shifted_inertia", checking)
    result = run_band_solve(SolveSetup(
        mesh_config=MeshConfig(10, 6, Alignment.BOTTOM_TOP, REF_B), spec=BasisSpec(2, 2),
        alpha=STELLARATOR_ALPHA, beta=STELLARATOR_BETA, omega_max_sq=0.3))
    assert result.solution.factor == "lattice" and len(result.solution) > 0
    assert alive == [[False] * 4]

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from anisodg.geometry import (MERGE_TOL, Alignment, FieldDirection, MeshConfig,
                              aspect_ratios, build_mesh, choose_alignment,
                              outward_normal)
from pinning import pinned

TWO_PI = 2.0 * math.pi
REF_B = FieldDirection(1.165939761, 1.0)


def is_conforming(mesh):
    """Every interface covers the whole edge of its owner."""
    return all(t.owner_range == (-1.0, 1.0) for t in mesh.templates)


def test_field_direction_rejects_zero():
    with pytest.raises(ValueError):
        FieldDirection(0.0, 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        MeshConfig(0, 2, Alignment.CARTESIAN, REF_B)
    with pytest.raises(ValueError):
        MeshConfig(2, 0, Alignment.CARTESIAN, REF_B)
    with pytest.raises(ValueError):
        MeshConfig(2, 2, Alignment.BOTTOM_TOP, FieldDirection(0.0, 1.0))
    with pytest.raises(ValueError):
        MeshConfig(2, 2, Alignment.LEFT_RIGHT, FieldDirection(1.0, 0.0))


def test_cartesian_2x2_tiling():
    mesh = build_mesh(MeshConfig(2, 2, Alignment.CARTESIAN, FieldDirection(1.0, 3.0)))
    assert mesh.n_cells == 4
    assert len(mesh.interfaces) == 8
    assert all(abs(i.h_F - math.pi) < 1e-14 for i in mesh.interfaces)
    assert is_conforming(mesh)
    assert abs(mesh.n_cells * 4.0 * mesh.cell0.jacobian_det - 4 * math.pi**2) < 1e-12


def test_aligned_integer_offset_is_conforming():
    # (b2/b1)*(Ny/Nx) = 2: each right edge meets exactly one left edge,
    # shifted by two rows
    mesh = build_mesh(MeshConfig(4, 4, Alignment.BOTTOM_TOP, FieldDirection(1.0, 2.0)))
    assert is_conforming(mesh)
    vertical = [i for i in mesh.interfaces if i.owner_edge == "right"]
    assert len(vertical) == 16
    for itf in vertical:
        assert itf.neighbor[0] == (itf.owner[0] + 1) % 4
        assert itf.neighbor[1] == (itf.owner[1] + 2) % 4


def test_reference_case_split_fractions():
    mesh = build_mesh(MeshConfig(8, 8, Alignment.BOTTOM_TOP, REF_B))
    assert not is_conforming(mesh)
    g = (REF_B.b2 / REF_B.b1) % 1.0
    assert abs(g - 0.857678) < 1e-6
    dy = TWO_PI / 8
    fractions = sorted({round(i.h_F / dy, 9) for i in mesh.interfaces
                        if i.owner_edge == "right"})
    assert len(fractions) == 2
    assert abs(fractions[0] - (1.0 - g)) < 1e-9
    assert abs(fractions[1] - g) < 1e-9
    # every vertical interface is one of exactly two sub-segments per edge
    vertical = [i for i in mesh.interfaces if i.owner_edge == "right"]
    assert len(vertical) == 2 * 64


def test_reference_map_examples():
    mesh = build_mesh(MeshConfig(2, 2, Alignment.BOTTOM_TOP, FieldDirection(3.0, 1.0)))
    cell = mesh.cell((0, 0))
    x, y = cell.map_point(-1.0, -1.0)
    assert (x, y) == cell.anchor
    # xi tangent parallel to b
    t = np.array(cell.half_xi)
    b = np.array([3.0, 1.0])
    assert abs(t[0] * b[1] - t[1] * b[0]) < 1e-14

    # direct evaluation of the affine formula on a handmade cell
    from anisodg.geometry import Cell
    cell = Cell(index=(0, 0), anchor=(0.0, 0.0),
                half_xi=(math.pi / 2, math.pi / 6), half_eta=(0.0, math.pi / 2))
    x, y = cell.map_point(1.0, 0.0)
    assert abs(x - math.pi) < 1e-15
    assert abs(y - (math.pi / 3 + math.pi / 2)) < 1e-15


def test_jacobian_positive_and_constant():
    for cfg in [MeshConfig(3, 2, Alignment.CARTESIAN, REF_B),
                MeshConfig(3, 2, Alignment.BOTTOM_TOP, REF_B),
                MeshConfig(3, 2, Alignment.LEFT_RIGHT, FieldDirection(2.0, 7.0))]:
        mesh = build_mesh(cfg)
        expect = (TWO_PI / cfg.nx) * (TWO_PI / cfg.ny) / 4.0
        for cell in mesh.cells:
            assert abs(cell.jacobian_det - expect) < 1e-14


def test_aspect_ratios():
    ar = aspect_ratios(FieldDirection(1.0, 1.0))
    assert ar == pytest.approx((math.sqrt(2), math.sqrt(2)))
    ar = aspect_ratios(FieldDirection(2.0, 7.0))
    assert ar[0] == pytest.approx(3.6401, abs=1e-4)
    assert ar[1] == pytest.approx(1.0400, abs=1e-4)
    ar = aspect_ratios(FieldDirection(1.0, 0.0))
    assert ar[0] == 1.0 and math.isinf(ar[1])


def test_choose_alignment():
    assert choose_alignment(REF_B) == Alignment.BOTTOM_TOP
    assert choose_alignment(FieldDirection(2.0, 7.0)) == Alignment.LEFT_RIGHT
    assert choose_alignment(FieldDirection(1.0, 1.0)) == Alignment.BOTTOM_TOP


@pytest.mark.parametrize("cfg", [
    MeshConfig(3, 2, Alignment.CARTESIAN, REF_B),
    MeshConfig(4, 4, Alignment.BOTTOM_TOP, REF_B),
    MeshConfig(4, 4, Alignment.BOTTOM_TOP, FieldDirection(1.0, 2.0)),
    MeshConfig(3, 5, Alignment.LEFT_RIGHT, FieldDirection(2.0, 7.0)),
    MeshConfig(2, 5, Alignment.LEFT_RIGHT, FieldDirection(-1.0, 3.0)),
    MeshConfig(5, 3, Alignment.BOTTOM_TOP, FieldDirection(1.0, -0.7)),
    MeshConfig(1, 3, Alignment.BOTTOM_TOP, REF_B),
])
def test_partition_property(cfg):
    """Interfaces cover every edge once; total length matches geometry."""
    mesh = build_mesh(cfg)  # build_mesh runs validate() (coverage + matching)
    b1, b2 = cfg.b.b1, cfg.b.b2
    if cfg.alignment == Alignment.CARTESIAN:
        expect = TWO_PI * (cfg.nx + cfg.ny)
    elif cfg.alignment == Alignment.BOTTOM_TOP:
        expect = TWO_PI * (cfg.nx + cfg.ny * math.hypot(1.0, b2 / b1))
    else:
        expect = TWO_PI * (cfg.ny + cfg.nx * math.hypot(1.0, b1 / b2))
    assert mesh.faces.h_F.sum() == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("ratio,conforming", [
    (1.0, True), (2.0, True), (0.5, False), (1.0 / 3.0, False),
    (math.sqrt(2), False), (1.0 + 1e-15, True), (3.0, True),
])
def test_conformity_iff_integer_offset(ratio, conforming):
    cfg = MeshConfig(4, 4, Alignment.BOTTOM_TOP, FieldDirection(1.0, ratio))
    mesh = build_mesh(cfg)
    offset = ratio * cfg.ny / cfg.nx
    assert (abs(offset - round(offset)) < 1e-12) == conforming
    assert is_conforming(mesh) == conforming


@pytest.mark.parametrize("cfg", [
    MeshConfig(4, 4, Alignment.BOTTOM_TOP, REF_B),
    MeshConfig(4, 4, Alignment.BOTTOM_TOP, FieldDirection(1.0, -2.3)),
    MeshConfig(3, 4, Alignment.LEFT_RIGHT, FieldDirection(2.0, 7.0)),
])
def test_aligned_edges_tangent_to_field(cfg):
    mesh = build_mesh(cfg)
    b = np.array([cfg.b.b1, cfg.b.b2])
    for itf in mesh.interfaces:
        if itf.owner_edge == "top":
            assert abs(b @ np.array(itf.normal)) <= 1e-14 * cfg.b.norm


def test_periodic_consistency():
    """Shifting the shear by a full period leaves the topology unchanged."""
    nx = 4
    base = build_mesh(MeshConfig(nx, 4, Alignment.BOTTOM_TOP, FieldDirection(1.0, 0.3)))
    shifted = build_mesh(MeshConfig(nx, 4, Alignment.BOTTOM_TOP,
                                    FieldDirection(1.0, 0.3 + nx)))
    assert len(base.interfaces) == len(shifted.interfaces)
    for a, b in zip(base.interfaces, shifted.interfaces):
        assert a.owner == b.owner and a.neighbor == b.neighbor
        assert a.owner_edge == b.owner_edge
        assert np.allclose(a.owner_range, b.owner_range, atol=1e-9)
        assert np.allclose(a.neighbor_range, b.neighbor_range, atol=1e-9)


def test_normals_opposite_between_sides():
    mesh = build_mesh(MeshConfig(4, 4, Alignment.BOTTOM_TOP, REF_B))
    for itf in mesh.interfaces:
        n_own = np.array(itf.normal)
        n_nbr = outward_normal(mesh.cell(itf.neighbor), itf.neighbor_edge)
        assert np.allclose(n_own, -n_nbr, atol=1e-14)
        assert abs(np.hypot(*n_own) - 1.0) < 1e-14


def test_summary_export():
    mesh = build_mesh(MeshConfig(2, 2, Alignment.CARTESIAN, FieldDirection(1.0, 2.0)))
    text = mesh.summary()
    lines = text.strip().splitlines()
    assert lines[0] == "mesh 2x2 cartesian b=(1,2)"
    assert sum(1 for ln in lines if ln.startswith("cell ")) == 4
    assert sum(1 for ln in lines if ln.startswith("iface ")) == 8
    assert "cell (0,0) anchor=(0,0)" in lines
    assert ("iface (0,0):top[-1,1] -> (0,1):bottom[-1,1] hF=3.14159265359 "
            "n=(0,1)") in lines


def _corrupt(mesh, k, **rows):
    """Overwrite row ``k`` of the named face arrays of ``mesh.faces``;
    returns face ``k`` as an ``Interface``."""
    for name, value in rows.items():
        getattr(mesh.faces, name)[k] = value
    return mesh.interfaces_of(mesh.faces.take([k]))[0]


@pytest.mark.parametrize("alignment,b", [
    (Alignment.BOTTOM_TOP, REF_B),
    (Alignment.LEFT_RIGHT, FieldDirection(1.0, 1.7)),
])
def test_validate_names_first_mismatched_segment(alignment, b):
    mesh = build_mesh(MeshConfig(3, 4, alignment, b))
    # a cross-field (split) interface, and after it the last one
    k = [k for k, itf in enumerate(mesh.interfaces) if itf.owner_edge == "right"][-2]
    own, (lo, hi) = mesh.faces.ranges[k]
    bad = _corrupt(mesh, k, ranges=[own, (lo + 0.25 * (hi - lo), hi)])
    later = _corrupt(mesh, k + 1, normal=(0.0, 0.0))
    with pytest.raises(RuntimeError, match="segment mismatch") as err:
        mesh.validate()
    assert str(bad) in str(err.value) and str(later) not in str(err.value)


def test_validate_names_interface_with_wrong_normal():
    mesh = build_mesh(MeshConfig(3, 4, Alignment.BOTTOM_TOP, REF_B))
    nx, ny = mesh.faces.normal[7]
    bad = _corrupt(mesh, 7, normal=(ny, nx))
    with pytest.raises(RuntimeError, match="normals not opposite") as err:
        mesh.validate()
    assert str(bad) in str(err.value)


def test_validate_names_undercovered_edge():
    """Shrinking both ranges of one cartesian right/left interface keeps
    its two sides matched but leaves a quarter of each edge uncovered; the
    owner's edge is met first in interface order."""
    mesh = build_mesh(MeshConfig(3, 4, Alignment.CARTESIAN, REF_B))
    k = [k for k, itf in enumerate(mesh.interfaces) if itf.owner_edge == "right"][5]
    itf = mesh.interfaces[k]
    _corrupt(mesh, k, ranges=[(-1.0, 0.5), (-1.0, 0.5)])
    with pytest.raises(RuntimeError,
                       match=rf"edge right of cell \({itf.owner[0]}, "
                             rf"{itf.owner[1]}\) covered 0.75 times"):
        mesh.validate()


def test_cell_lookup_rejects_indices_off_the_lattice():
    mesh = build_mesh(MeshConfig(3, 4, Alignment.BOTTOM_TOP, REF_B))
    assert mesh.cell_id((2, 3)) == 11 and mesh.cell((1, 2)).index == (1, 2)
    for index in [(0, 4), (3, 0), (-1, 0), (0, -1)]:
        with pytest.raises(KeyError):
            mesh.cell_id(index)
        with pytest.raises(KeyError):
            mesh.cell(index)


def _bits(cells):
    return [(c.index, [float.hex(v) for v in c.anchor + c.half_xi + c.half_eta])
            for c in cells]


@st.composite
def mesh_configs(draw):
    """Meshes of every alignment whose offset ``(b2/b1)(Ny/Nx)`` (or
    ``-(b1/b2)(Nx/Ny)``) is an integer, near one on either side of the
    merge threshold, or any fraction."""
    alignment = draw(st.sampled_from(list(Alignment)))
    nx, ny = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    lead = draw(st.sampled_from([-1.7, -1.0, 0.4, 1.0, 2.3]))
    # the merge threshold in units of the cross-field edge width
    merge = MERGE_TOL * (nx if alignment == Alignment.LEFT_RIGHT else ny) / TWO_PI
    frac = draw(st.sampled_from([0.0, 0.5 * merge, -0.5 * merge, 2.0 * merge,
                                 -2.0 * merge]) | st.floats(0.0, 1.0))
    offset = draw(st.integers(-3, 3)) + frac
    if alignment == Alignment.LEFT_RIGHT:
        b = FieldDirection(-lead * offset * ny / nx, lead)
    else:
        b = FieldDirection(lead, lead * offset * nx / ny)
    return MeshConfig(nx, ny, alignment, b)


#: Fixed coverage for the property test below (``pinning.py``): the cases
#: its derandomized draws reached before the Bloch solutions kept their
#: eigenpairs in block form.
MESH_DRAWS = [
    (MeshConfig(1, 1, Alignment.CARTESIAN, FieldDirection(-1.7, -0.0)),),
    (MeshConfig(1, 1, Alignment.LEFT_RIGHT, FieldDirection(0.0, -1.7)),),
    (MeshConfig(6, 3, Alignment.LEFT_RIGHT, FieldDirection(-0.25453575030920617, 0.4)),),
    (MeshConfig(1, 1, Alignment.BOTTOM_TOP, FieldDirection(-1.7, -0.0)),),
    (MeshConfig(2, 1, Alignment.BOTTOM_TOP, FieldDirection(0.4, 2.400048828125)),),
    (MeshConfig(6, 6, Alignment.LEFT_RIGHT, FieldDirection(0.0, -1.7)),),
    (MeshConfig(6, 6, Alignment.LEFT_RIGHT, FieldDirection(1.7000000000051, -1.7)),),
    (MeshConfig(5, 1, Alignment.CARTESIAN, FieldDirection(-1.7, -0.0)),),
    (MeshConfig(5, 2, Alignment.CARTESIAN, FieldDirection(-1.7, 8.5)),),
    (MeshConfig(3, 1, Alignment.BOTTOM_TOP, FieldDirection(-1.7, -0.0)),),
    (MeshConfig(3, 6, Alignment.BOTTOM_TOP, FieldDirection(2.3, -2.3000000000138)),),
    (MeshConfig(3, 1, Alignment.BOTTOM_TOP, FieldDirection(2.3, -13.800000000013801)),),
    (MeshConfig(1, 1, Alignment.BOTTOM_TOP, FieldDirection(2.3, -4.6000000000046)),),
    (MeshConfig(1, 1, Alignment.BOTTOM_TOP, FieldDirection(2.3, 2.2999999999954)),),
    (MeshConfig(1, 3, Alignment.CARTESIAN, FieldDirection(-1.7, -0.0)),),
    (MeshConfig(1, 3, Alignment.CARTESIAN, FieldDirection(0.4, 0.13333333333413336)),),
    (MeshConfig(1, 1, Alignment.CARTESIAN, FieldDirection(0.4, 0.4000000000008)),),
    (MeshConfig(3, 6, Alignment.CARTESIAN, FieldDirection(-1.0, -0.0)),),
    (MeshConfig(3, 1, Alignment.CARTESIAN, FieldDirection(-1.0, -0.0)),),
    (MeshConfig(3, 1, Alignment.CARTESIAN, FieldDirection(-1.0, -3.0)),),
    (MeshConfig(1, 1, Alignment.CARTESIAN, FieldDirection(-1.0, -1.0)),),
    (MeshConfig(6, 6, Alignment.BOTTOM_TOP, FieldDirection(-1.7, -5.618424384864508)),),
    (MeshConfig(6, 6, Alignment.BOTTOM_TOP, FieldDirection(-1.7, -0.5184243848645093)),),
    (MeshConfig(1, 6, Alignment.BOTTOM_TOP, FieldDirection(-1.7, -0.08640406414408487)),),
    (MeshConfig(1, 1, Alignment.BOTTOM_TOP, FieldDirection(-1.7, -0.5184243848645093)),),
    (MeshConfig(2, 3, Alignment.BOTTOM_TOP, FieldDirection(1.0, 0.6666666666626667)),),
    (MeshConfig(2, 2, Alignment.BOTTOM_TOP, FieldDirection(1.0, 0.999999999996)),),
    (MeshConfig(2, 2, Alignment.BOTTOM_TOP, FieldDirection(1.0, 1.999999999996)),),
    (MeshConfig(2, 3, Alignment.CARTESIAN, FieldDirection(-1.7, 2.2666666666598663)),),
    (MeshConfig(2, 2, Alignment.CARTESIAN, FieldDirection(-1.7, 3.3999999999932)),),
    (MeshConfig(2, 1, Alignment.CARTESIAN, FieldDirection(-1.7, 6.7999999999932)),),
    (MeshConfig(2, 1, Alignment.CARTESIAN, FieldDirection(-1.7, -3.4000000000068)),),
    (MeshConfig(1, 1, Alignment.CARTESIAN, FieldDirection(-1.7, -1.7000000000034)),),
    (MeshConfig(5, 5, Alignment.BOTTOM_TOP, FieldDirection(2.3, 6.9)),),
    (MeshConfig(5, 5, Alignment.BOTTOM_TOP, FieldDirection(2.3, 0.0)),),
    (MeshConfig(5, 1, Alignment.BOTTOM_TOP, FieldDirection(2.3, 0.0)),),
    (MeshConfig(1, 1, Alignment.BOTTOM_TOP, FieldDirection(2.3, 0.0)),),
    (MeshConfig(1, 1, Alignment.BOTTOM_TOP, FieldDirection(2.3, 2.3)),),
    (MeshConfig(3, 1, Alignment.CARTESIAN, FieldDirection(2.3, -13.800000000013801)),),
    (MeshConfig(3, 1, Alignment.CARTESIAN, FieldDirection(2.3, 6.8999999999862)),),
    (MeshConfig(3, 3, Alignment.CARTESIAN, FieldDirection(2.3, 2.2999999999861998)),),
    (MeshConfig(1, 1, Alignment.CARTESIAN, FieldDirection(2.3, 2.2999999999954)),),
    (MeshConfig(3, 3, Alignment.BOTTOM_TOP, FieldDirection(-1.0, 3.0)),),
    (MeshConfig(3, 3, Alignment.BOTTOM_TOP, FieldDirection(-1.0, -3.0)),),
    (MeshConfig(6, 3, Alignment.LEFT_RIGHT, FieldDirection(-1.4459792424430438, 1.0)),),
    (MeshConfig(6, 3, Alignment.LEFT_RIGHT, FieldDirection(-1.9459792424430438, 1.0)),),
    (MeshConfig(3, 3, Alignment.LEFT_RIGHT, FieldDirection(-3.8919584848860875, 1.0)),),
    (MeshConfig(1, 5, Alignment.LEFT_RIGHT, FieldDirection(9.99999999999, -1.0)),),
    (MeshConfig(1, 1, Alignment.LEFT_RIGHT, FieldDirection(1.999999999998, -1.0)),),
    (MeshConfig(2, 1, Alignment.LEFT_RIGHT, FieldDirection(0.999999999998, -1.0)),),
    (MeshConfig(2, 2, Alignment.LEFT_RIGHT, FieldDirection(1.999999999996, -1.0)),),
    (MeshConfig(1, 1, Alignment.LEFT_RIGHT, FieldDirection(-2.0, 1.0)),),
    (MeshConfig(1, 2, Alignment.LEFT_RIGHT, FieldDirection(-4.0, 1.0)),),
    (MeshConfig(2, 2, Alignment.LEFT_RIGHT, FieldDirection(-2.0, 1.0)),),
    (MeshConfig(2, 5, Alignment.CARTESIAN, FieldDirection(-1.0, 0.8833457910027672)),),
    (MeshConfig(1, 5, Alignment.CARTESIAN, FieldDirection(-1.0, 0.4416728955013836)),),
    (MeshConfig(1, 5, Alignment.CARTESIAN, FieldDirection(-1.0, -0.3583271044986164)),),
    (MeshConfig(1, 5, Alignment.CARTESIAN, FieldDirection(-1.0, -0.1583271044986164)),),
    (MeshConfig(1, 1, Alignment.CARTESIAN, FieldDirection(-1.0, -1.791635522493082)),),
    (MeshConfig(1, 2, Alignment.BOTTOM_TOP, FieldDirection(-1.7, 2.063672805066458)),),
    (MeshConfig(1, 1, Alignment.BOTTOM_TOP, FieldDirection(-1.7, 4.127345610132916)),),
    (MeshConfig(1, 1, Alignment.BOTTOM_TOP, FieldDirection(-1.7, -2.672654389867084)),),
    (MeshConfig(6, 1, Alignment.CARTESIAN, FieldDirection(0.4, 8.316799979591142)),),
    (MeshConfig(3, 1, Alignment.CARTESIAN, FieldDirection(0.4, 4.158399989795571)),),
    (MeshConfig(3, 3, Alignment.CARTESIAN, FieldDirection(0.4, 1.386133329931857)),),
    (MeshConfig(3, 5, Alignment.LEFT_RIGHT, FieldDirection(1.6666666833333332, -1.0)),),
    (MeshConfig(3, 5, Alignment.LEFT_RIGHT, FieldDirection(1.6666666666666667e-08, -1.0)),),
    (MeshConfig(1, 5, Alignment.LEFT_RIGHT, FieldDirection(5e-08, -1.0)),),
    (MeshConfig(1, 5, Alignment.LEFT_RIGHT, FieldDirection(5.00000005, -1.0)),),
    (MeshConfig(1, 1, Alignment.LEFT_RIGHT, FieldDirection(1.00000001, -1.0)),),
    (MeshConfig(6, 5, Alignment.CARTESIAN, FieldDirection(-1.0, 1.200000000003)),),
    (MeshConfig(5, 5, Alignment.CARTESIAN, FieldDirection(-1.0, 1.0000000000025)),),
    (MeshConfig(5, 1, Alignment.CARTESIAN, FieldDirection(-1.0, 5.0000000000025)),),
    (MeshConfig(5, 1, Alignment.CARTESIAN, FieldDirection(-1.0, -4.9999999999975)),),
    (MeshConfig(5, 1, Alignment.CARTESIAN, FieldDirection(-1.0, 2.5e-12)),),
    (MeshConfig(5, 5, Alignment.CARTESIAN, FieldDirection(-1.0, 2.5e-12)),),
    (MeshConfig(1, 1, Alignment.CARTESIAN, FieldDirection(-1.0, 5e-13)),),
    (MeshConfig(1, 1, Alignment.BOTTOM_TOP, FieldDirection(1.0, -1.999999999998)),),
    (MeshConfig(1, 1, Alignment.BOTTOM_TOP, FieldDirection(1.0, 1.000000000002)),),
    (MeshConfig(3, 3, Alignment.LEFT_RIGHT, FieldDirection(-0.5361104394957205, -1.0)),),
    (MeshConfig(3, 1, Alignment.LEFT_RIGHT, FieldDirection(-0.17870347983190682, -1.0)),),
    (MeshConfig(1, 1, Alignment.LEFT_RIGHT, FieldDirection(-0.5361104394957205, -1.0)),),
    (MeshConfig(1, 1, Alignment.LEFT_RIGHT, FieldDirection(1.4638895605042794, -1.0)),),
    (MeshConfig(2, 6, Alignment.CARTESIAN, FieldDirection(-1.0, 0.7907621463453228)),),
    (MeshConfig(2, 2, Alignment.CARTESIAN, FieldDirection(-1.0, 2.3722864390359684)),),
    (MeshConfig(2, 2, Alignment.CARTESIAN, FieldDirection(-1.0, -2.6277135609640316)),),
    (MeshConfig(5, 4, Alignment.BOTTOM_TOP, FieldDirection(-1.0, -1.25000000001)),),
    (MeshConfig(1, 4, Alignment.BOTTOM_TOP, FieldDirection(-1.0, -0.250000000002)),),
    (MeshConfig(4, 4, Alignment.BOTTOM_TOP, FieldDirection(-1.0, -1.000000000008)),),
    (MeshConfig(1, 1, Alignment.BOTTOM_TOP, FieldDirection(-1.0, -1.000000000002)),),
    (MeshConfig(4, 6, Alignment.BOTTOM_TOP, FieldDirection(-1.7, 3.4000000000136)),),
    (MeshConfig(6, 6, Alignment.BOTTOM_TOP, FieldDirection(-1.7, 5.1000000000204)),),
    (MeshConfig(6, 1, Alignment.BOTTOM_TOP, FieldDirection(-1.7, 30.6000000000204)),),
    (MeshConfig(1, 1, Alignment.BOTTOM_TOP, FieldDirection(-1.7, 5.1000000000034005)),),
    (MeshConfig(1, 1, Alignment.BOTTOM_TOP, FieldDirection(-1.7, -1.6999999999966)),),
    (MeshConfig(1, 4, Alignment.LEFT_RIGHT, FieldDirection(27.184074878113947, -1.7)),),
    (MeshConfig(3, 4, Alignment.LEFT_RIGHT, FieldDirection(9.061358292704648, -1.7)),),
    (MeshConfig(4, 4, Alignment.LEFT_RIGHT, FieldDirection(6.796018719528487, -1.7)),),
    (MeshConfig(4, 4, Alignment.LEFT_RIGHT, FieldDirection(1.6960187195284864, -1.7)),),
    (MeshConfig(1, 4, Alignment.LEFT_RIGHT, FieldDirection(6.7840748781139455, -1.7)),),
    (MeshConfig(1, 1, Alignment.LEFT_RIGHT, FieldDirection(1.6960187195284864, -1.7)),),
    (MeshConfig(1, 1, Alignment.LEFT_RIGHT, FieldDirection(3.3960187195284863, -1.7)),),
    (MeshConfig(1, 5, Alignment.LEFT_RIGHT, FieldDirection(23.000000000023, 2.3)),),
    (MeshConfig(1, 5, Alignment.LEFT_RIGHT, FieldDirection(2.2999999999999998e-11, 2.3)),),
    (MeshConfig(5, 5, Alignment.LEFT_RIGHT, FieldDirection(2.2999999999999998e-11, 2.3)),),
    (MeshConfig(1, 1, Alignment.LEFT_RIGHT, FieldDirection(4.6e-12, 2.3)),),
    (MeshConfig(1, 1, Alignment.LEFT_RIGHT, FieldDirection(-2.2999999999954, 2.3)),),
    (MeshConfig(3, 2, Alignment.BOTTOM_TOP, FieldDirection(-1.0, -1.3308351800765452)),),
    (MeshConfig(1, 2, Alignment.BOTTOM_TOP, FieldDirection(-1.0, -0.44361172669218174)),),
    (MeshConfig(1, 2, Alignment.BOTTOM_TOP, FieldDirection(-1.0, -0.9436117266921817)),),
    (MeshConfig(1, 1, Alignment.BOTTOM_TOP, FieldDirection(-1.0, -1.8872234533843635)),),
    (MeshConfig(5, 1, Alignment.BOTTOM_TOP, FieldDirection(-1.0, -5.000000000000061)),),
    (MeshConfig(5, 1, Alignment.BOTTOM_TOP, FieldDirection(-1.0, -6.148998137525603e-14)),),
    (MeshConfig(1, 1, Alignment.BOTTOM_TOP, FieldDirection(-1.0, -1.2297996275051207e-14)),),
    (MeshConfig(1, 1, Alignment.BOTTOM_TOP, FieldDirection(-1.0, -1.0000000000000122)),),
    (MeshConfig(2, 6, Alignment.CARTESIAN, FieldDirection(2.3, -1.533333333335633)),),
    (MeshConfig(6, 6, Alignment.CARTESIAN, FieldDirection(2.3, -4.600000000006899)),),
    (MeshConfig(6, 1, Alignment.CARTESIAN, FieldDirection(2.3, -27.6000000000069)),),
    (MeshConfig(6, 1, Alignment.CARTESIAN, FieldDirection(2.3, 13.799999999993098)),),
    (MeshConfig(1, 1, Alignment.CARTESIAN, FieldDirection(2.3, 2.2999999999988496)),),
    (MeshConfig(5, 4, Alignment.LEFT_RIGHT, FieldDirection(2.4, -1.0)),),
    (MeshConfig(5, 5, Alignment.LEFT_RIGHT, FieldDirection(3.0, -1.0)),),
    (MeshConfig(5, 5, Alignment.LEFT_RIGHT, FieldDirection(0.0, -1.0)),),
    (MeshConfig(5, 1, Alignment.LEFT_RIGHT, FieldDirection(0.0, -1.0)),),
    (MeshConfig(1, 5, Alignment.LEFT_RIGHT, FieldDirection(0.0, -1.0)),),
    (MeshConfig(1, 5, Alignment.LEFT_RIGHT, FieldDirection(5.0, -1.0)),),
    (MeshConfig(1, 1, Alignment.LEFT_RIGHT, FieldDirection(1.0, -1.0)),),
    (MeshConfig(1, 2, Alignment.CARTESIAN, FieldDirection(2.3, 3.355925035574801)),),
    (MeshConfig(2, 2, Alignment.CARTESIAN, FieldDirection(2.3, 6.711850071149602)),),
    (MeshConfig(6, 6, Alignment.LEFT_RIGHT, FieldDirection(0.4000000000000001, 0.4)),),
    (MeshConfig(6, 6, Alignment.LEFT_RIGHT, FieldDirection(-2.306920648491056e-254, 0.4)),),
    (MeshConfig(3, 5, Alignment.LEFT_RIGHT, FieldDirection(2.2999999999999998e-11, 2.3)),),
    (MeshConfig(3, 1, Alignment.LEFT_RIGHT, FieldDirection(4.6e-12, 2.3)),),
    (MeshConfig(3, 3, Alignment.LEFT_RIGHT, FieldDirection(1.38e-11, 2.3)),),
    (MeshConfig(3, 3, Alignment.LEFT_RIGHT, FieldDirection(-6.899999999986199, 2.3)),),
    (MeshConfig(5, 2, Alignment.LEFT_RIGHT, FieldDirection(-1.3600000000068, -1.7)),),
    (MeshConfig(5, 1, Alignment.LEFT_RIGHT, FieldDirection(-0.6800000000034, -1.7)),),
    (MeshConfig(5, 1, Alignment.LEFT_RIGHT, FieldDirection(0.3399999999966, -1.7)),),
    (MeshConfig(1, 1, Alignment.LEFT_RIGHT, FieldDirection(1.6999999999966, -1.7)),),
    (MeshConfig(2, 6, Alignment.LEFT_RIGHT, FieldDirection(6.145366765101049e-77, -1.7)),),
    (MeshConfig(6, 6, Alignment.LEFT_RIGHT, FieldDirection(2.0484555883670162e-77, -1.7)),),
    (MeshConfig(1, 6, Alignment.LEFT_RIGHT, FieldDirection(1.2290733530202097e-76, -1.7)),),
    (MeshConfig(1, 1, Alignment.LEFT_RIGHT, FieldDirection(2.0484555883670162e-77, -1.7)),),
    (MeshConfig(1, 1, Alignment.LEFT_RIGHT, FieldDirection(1.7, -1.7)),),
    (MeshConfig(4, 6, Alignment.CARTESIAN, FieldDirection(-1.0, -1.1660577789128823)),),
    (MeshConfig(4, 6, Alignment.CARTESIAN, FieldDirection(-1.0, -0.4993911122462158)),),
    (MeshConfig(6, 6, Alignment.CARTESIAN, FieldDirection(-1.0, -0.7490866683693237)),),
    (MeshConfig(1, 6, Alignment.CARTESIAN, FieldDirection(-1.0, -0.12484777806155395)),),
    (MeshConfig(1, 1, Alignment.CARTESIAN, FieldDirection(-1.0, -0.7490866683693237)),),
    (MeshConfig(1, 1, Alignment.CARTESIAN, FieldDirection(-1.0, -1.7490866683693236)),),
]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(mesh_configs())
@pinned("cfg", MESH_DRAWS)
def test_mesh_matches_per_interface_oracle(cfg):
    """The lattice mesh expands to exactly the interfaces (as a multiset) and
    the cells (bit for bit) of the one-edge-at-a-time construction."""
    mesh = build_mesh(cfg)
    assert Counter(mesh.interfaces) == Counter(bf.oracle_interfaces(cfg))
    assert _bits(mesh.cells) == _bits(bf.oracle_cells(cfg))

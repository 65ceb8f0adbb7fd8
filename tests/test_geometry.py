import math

import numpy as np
import pytest

from anisodg.geometry import (Alignment, FieldDirection, MeshConfig,
                              aspect_ratios, build_mesh, choose_alignment,
                              outward_normal)

TWO_PI = 2.0 * math.pi
REF_B = FieldDirection(1.165939761, 1.0)


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
    assert mesh.is_conforming()
    assert abs(mesh.total_cell_area() - 4 * math.pi**2) < 1e-12


def test_aligned_integer_offset_is_conforming():
    # (b2/b1)*(Ny/Nx) = 2: each right edge meets exactly one left edge,
    # shifted by two rows
    mesh = build_mesh(MeshConfig(4, 4, Alignment.BOTTOM_TOP, FieldDirection(1.0, 2.0)))
    assert mesh.is_conforming()
    vertical = [i for i in mesh.interfaces if i.owner_edge == "right"]
    assert len(vertical) == 16
    for itf in vertical:
        assert itf.neighbor[0] == (itf.owner[0] + 1) % 4
        assert itf.neighbor[1] == (itf.owner[1] + 2) % 4


def test_reference_case_split_fractions():
    mesh = build_mesh(MeshConfig(8, 8, Alignment.BOTTOM_TOP, REF_B))
    assert not mesh.is_conforming()
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
    assert mesh.total_interface_length() == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("ratio,conforming", [
    (1.0, True), (2.0, True), (0.5, False), (1.0 / 3.0, False),
    (math.sqrt(2), False), (1.0 + 1e-15, True), (3.0, True),
])
def test_conformity_iff_integer_offset(ratio, conforming):
    cfg = MeshConfig(4, 4, Alignment.BOTTOM_TOP, FieldDirection(1.0, ratio))
    mesh = build_mesh(cfg)
    offset = ratio * cfg.ny / cfg.nx
    assert (abs(offset - round(offset)) < 1e-12) == conforming
    assert mesh.is_conforming() == conforming


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

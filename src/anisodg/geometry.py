"""Periodic meshes of parallelogram cells on the square [0, 2*pi)^2.

Meshes are structured Nx-by-Ny tilings.  Cells can be axis-parallel
(``cartesian``) or locally aligned with a constant direction field
``b = (b1, b2)``:

* ``aligned_bottom_top``: the bottom/top edges of every cell follow ``b``,
  so each cell is sheared upward by ``delta = (b2/b1)*dx`` across its width.
  Vertical (left/right) edges then meet edges of the neighbouring column
  with an offset, which splits them into sub-interfaces whenever
  ``(b2/b1)*(Ny/Nx)`` is not an integer.
* ``aligned_left_right``: the mirrored construction with the roles of x/y
  and (b1, b2) swapped.

A ``Mesh`` is stored as its lattice: one cell ``cell0``, whose translates
are all cells, and at most three face templates (the interfaces of cell
``(0, 0)``: the aligned one and one or two cross-field sub-segments), which
every cell owns translated by its lattice index.

Every cell carries an affine map from the reference square
``(xi, eta) in [-1, 1]^2``.  The xi direction is always the field-aligned
one, and the map is oriented so its Jacobian determinant is ``dx*dy/4 > 0``.
Interface edge names (``left``/``right``/``bottom``/``top``) refer to the
reference square: ``bottom``/``top`` are the aligned edges traced by xi,
``left``/``right`` are the cross-field edges traced by eta (the ones that
may split).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi

#: Breakpoints closer than this (in physical length) are merged, so meshes
#: that are conforming up to roundoff do not produce sliver interfaces.
MERGE_TOL = 1e-12 * TWO_PI

#: |b . n| below this times |b| counts as tangent (aligned edge).
ALIGNMENT_TOL = 1e-14


class Alignment(str, Enum):
    CARTESIAN = "cartesian"
    BOTTOM_TOP = "aligned_bottom_top"
    LEFT_RIGHT = "aligned_left_right"


@dataclass(frozen=True)
class FieldDirection:
    """Constant direction of the anisotropy, b = (b1, b2) != 0."""

    b1: float
    b2: float

    def __post_init__(self):
        if self.b1 == 0.0 and self.b2 == 0.0:
            raise ValueError("field direction must be nonzero")

    @property
    def norm(self) -> float:
        return math.hypot(self.b1, self.b2)

    def as_array(self) -> np.ndarray:
        return np.array([self.b1, self.b2])


@dataclass(frozen=True)
class MeshConfig:
    nx: int
    ny: int
    alignment: Alignment
    b: FieldDirection

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"cell counts must be >= 1, got {self.nx}x{self.ny}")
        if self.alignment == Alignment.BOTTOM_TOP and self.b.b1 == 0.0:
            raise ValueError("aligned_bottom_top needs b1 != 0 (edge slope b2/b1)")
        if self.alignment == Alignment.LEFT_RIGHT and self.b.b2 == 0.0:
            raise ValueError("aligned_left_right needs b2 != 0 (edge slope b1/b2)")


def aspect_ratios(b: FieldDirection) -> tuple[float, float]:
    """Cell aspect ratios of the two aligned constructions for direction b.

    Returns ``(sqrt(1+(b2/b1)^2), sqrt(1+(b1/b2)^2))`` for bottom/top and
    left/right alignment; a degenerate division yields ``math.inf`` (the
    "unbounded" sentinel).
    """
    ar_bt = math.inf if b.b1 == 0.0 else math.hypot(1.0, b.b2 / b.b1)
    ar_lr = math.inf if b.b2 == 0.0 else math.hypot(1.0, b.b1 / b.b2)
    return ar_bt, ar_lr


def choose_alignment(b: FieldDirection) -> Alignment:
    """Alignment with the smaller cell aspect ratio; ties go to bottom/top."""
    ar_bt, ar_lr = aspect_ratios(b)
    return Alignment.BOTTOM_TOP if ar_bt <= ar_lr else Alignment.LEFT_RIGHT


@dataclass(frozen=True)
class Cell:
    """Parallelogram cell with an affine reference map.

    The map is ``x(xi, eta) = anchor + half_xi*(xi+1) + half_eta*(eta+1)``
    with constant Jacobian ``[half_xi | half_eta]`` of determinant
    ``dx*dy/4 > 0`` for cells of width dx and height dy.
    """

    index: tuple[int, int]
    anchor: tuple[float, float]
    half_xi: tuple[float, float]
    half_eta: tuple[float, float]

    @property
    def jacobian(self) -> np.ndarray:
        return np.array([[self.half_xi[0], self.half_eta[0]],
                         [self.half_xi[1], self.half_eta[1]]])

    @property
    def jacobian_det(self) -> float:
        return (self.half_xi[0] * self.half_eta[1]
                - self.half_eta[0] * self.half_xi[1])

    def map_point(self, xi, eta) -> tuple[np.ndarray, np.ndarray]:
        """Physical (x, y) of reference (xi, eta); not wrapped into the period."""
        xi = np.asarray(xi, dtype=float)
        eta = np.asarray(eta, dtype=float)
        x = self.anchor[0] + self.half_xi[0] * (xi + 1.0) + self.half_eta[0] * (eta + 1.0)
        y = self.anchor[1] + self.half_xi[1] * (xi + 1.0) + self.half_eta[1] * (eta + 1.0)
        return x, y


EDGES = ("left", "right", "bottom", "top")

_EDGE_ID = {edge: k for k, edge in enumerate(EDGES)}

# (fixed coordinate name, fixed value) per reference edge; the other
# coordinate is the edge parameter, increasing over [-1, 1].
_EDGE_FIXED = {"left": ("xi", -1.0), "right": ("xi", 1.0),
               "bottom": ("eta", -1.0), "top": ("eta", 1.0)}


def edge_point(edge: str, t):
    """Reference (xi, eta) of parameter t on a named reference edge."""
    t = np.asarray(t, dtype=float)
    coord, value = _EDGE_FIXED[edge]
    fixed = np.full_like(t, value)
    return (fixed, t) if coord == "xi" else (t, fixed)


def edge_tangent(cell: Cell, edge: str) -> np.ndarray:
    """Physical tangent of a reference edge in the direction of its parameter."""
    coord, _ = _EDGE_FIXED[edge]
    half = cell.half_eta if coord == "xi" else cell.half_xi
    return np.array(half)


def outward_normal(cell: Cell, edge: str) -> np.ndarray:
    """Unit outward normal of ``cell`` on a reference edge.

    Valid because the reference map is positively oriented.
    """
    t = edge_tangent(cell, edge)
    if edge in ("right", "bottom"):
        n = np.array([t[1], -t[0]])
    else:
        n = np.array([-t[1], t[0]])
    return n / np.hypot(n[0], n[1]) + 0.0  # normalize -0.0 to 0.0


@dataclass(frozen=True)
class Interface:
    """One matched segment shared by an owner edge and a neighbour edge.

    ``owner_range``/``neighbor_range`` are the sub-intervals of the two
    reference edge parameters that map onto the same physical segment, both
    traversed in the same physical direction.  ``h_F`` is the physical length
    of the segment itself (single-valued also for split edges).
    """

    owner: tuple[int, int]
    neighbor: tuple[int, int]
    owner_edge: str
    neighbor_edge: str
    owner_range: tuple[float, float]
    neighbor_range: tuple[float, float]
    normal: tuple[float, float]
    h_F: float


class Faces(NamedTuple):
    """Interfaces as arrays, one row per face.

    On ``Mesh.faces`` row ``c * T + t`` is template ``t`` of the ``T``
    owned by cell ``c``.  Pairs are ``(owner, neighbour)``; edges are
    indices into ``EDGES``.
    """

    template: np.ndarray  # (F,) index into Mesh.templates
    cells: np.ndarray     # (F, 2) cell ids
    edges: np.ndarray     # (F, 2)
    ranges: np.ndarray    # (F, 2, 2) edge parameter ranges
    normal: np.ndarray    # (F, 2) owner's outward normal
    h_F: np.ndarray       # (F,)

    def take(self, rows) -> Faces:
        """The faces ``rows`` (an index or mask array), as copies."""
        return Faces(*(a[rows] for a in self))


def _anchors(config: MeshConfig, i, j):
    """Anchor of cell ``(i, j)``: its bottom-left vertex, or for left/right
    alignment its bottom-right one, which keeps the map positively oriented
    with xi along b."""
    if config.alignment == Alignment.LEFT_RIGHT:
        i = i + 1
    return i * (TWO_PI / config.nx), j * (TWO_PI / config.ny)


@dataclass(frozen=True)
class Mesh:
    """The lattice of one cell and at most three interface templates.

    Cell ``(i, j)``, with id ``i*ny + j``, is ``cell0`` translated to its
    anchor.  The templates are the interfaces that cell ``(0, 0)`` owns;
    cell ``(i, j)`` owns their translates by ``(i, j)`` (modulo
    ``(nx, ny)``).  ``anchors`` and ``faces`` (arrays) and ``cells`` and
    ``interfaces`` (records) are derived on first use.
    """

    config: MeshConfig
    cell0: Cell
    templates: tuple[Interface, ...]

    @property
    def n_cells(self) -> int:
        return self.config.nx * self.config.ny

    @cached_property
    def anchors(self) -> np.ndarray:
        """``(n_cells, 2)`` cell anchors."""
        i, j = np.divmod(np.arange(self.n_cells), self.config.ny)
        return np.stack(_anchors(self.config, i, j), axis=1)

    @cached_property
    def cells(self) -> tuple[Cell, ...]:
        ny = self.config.ny
        return tuple(Cell(index=divmod(k, ny), anchor=tuple(a),
                          half_xi=self.cell0.half_xi, half_eta=self.cell0.half_eta)
                     for k, a in enumerate(self.anchors.tolist()))

    @cached_property
    def faces(self) -> Faces:
        nx, ny = self.config.nx, self.config.ny
        i, j = np.divmod(np.arange(self.n_cells), ny)
        tpl = self.templates
        template = np.tile(np.arange(len(tpl)), self.n_cells)
        neighbor = np.stack([(i + t.neighbor[0]) % nx * ny + (j + t.neighbor[1]) % ny
                             for t in tpl], axis=1).ravel()
        owner = np.repeat(np.arange(self.n_cells), len(tpl))
        edges = [(_EDGE_ID[t.owner_edge], _EDGE_ID[t.neighbor_edge]) for t in tpl]
        return Faces(template=template,
                     cells=np.stack([owner, neighbor], axis=1),
                     edges=np.array(edges)[template],
                     ranges=np.array([(t.owner_range, t.neighbor_range) for t in tpl])[template],
                     normal=np.array([t.normal for t in tpl])[template],
                     h_F=np.array([t.h_F for t in tpl])[template])

    @cached_property
    def interfaces(self) -> tuple[Interface, ...]:
        return tuple(self.interfaces_of(self.faces))

    def interfaces_of(self, faces: Faces) -> list[Interface]:
        """The rows of ``faces`` as ``Interface`` records."""
        ny = self.config.ny
        return [Interface(owner=divmod(own, ny), neighbor=divmod(nbr, ny),
                          owner_edge=EDGES[e_own], neighbor_edge=EDGES[e_nbr],
                          owner_range=tuple(r_own), neighbor_range=tuple(r_nbr),
                          normal=tuple(normal), h_F=h_f)
                for (own, nbr), (e_own, e_nbr), (r_own, r_nbr), normal, h_f
                in zip(faces.cells.tolist(), faces.edges.tolist(),
                       faces.ranges.tolist(), faces.normal.tolist(),
                       faces.h_F.tolist())]

    def cell_id(self, index: tuple[int, int]) -> int:
        i, j = index
        if not (0 <= i < self.config.nx and 0 <= j < self.config.ny):
            raise KeyError(index)
        return i * self.config.ny + j

    def cell(self, index: tuple[int, int]) -> Cell:
        return self.cells[self.cell_id(index)]

    def map_points(self, cell_ids: np.ndarray, xi, eta):
        """Physical (x, y) of reference points in the cells ``cell_ids``.

        ``xi`` and ``eta`` broadcast against ``cell_ids[..., None]``: their
        last axis runs over the points of each cell.  The arithmetic is that
        of ``Cell.map_point``; points are not wrapped into the period.
        """
        anchors = self.anchors[cell_ids]
        hx, he = self.cell0.half_xi, self.cell0.half_eta
        x = anchors[..., :1] + hx[0] * (xi + 1.0) + he[0] * (eta + 1.0)
        y = anchors[..., 1:] + hx[1] * (xi + 1.0) + he[1] * (eta + 1.0)
        return x, y

    def face_points(self, faces: Faces, s: np.ndarray):
        """Points at the fractions ``s`` of each face, on both of its sides.

        Returns ``(xi, eta, x, y)``, each ``(F, 2, len(s))`` with the owner
        side first.
        """
        lo, hi = faces.ranges[..., :1], faces.ranges[..., 1:]
        t = lo + (hi - lo) * s
        xi, eta = np.empty_like(t), np.empty_like(t)
        for k, name in enumerate(EDGES):
            rows = faces.edges == k
            xi[rows], eta[rows] = edge_point(name, t[rows])
        return (xi, eta) + self.map_points(faces.cells, xi, eta)

    def summary(self) -> str:
        """Plain-text dump of cells and interfaces, for debugging and golden tests."""
        lines = [f"mesh {self.config.nx}x{self.config.ny} "
                 f"{self.config.alignment.value} "
                 f"b=({self.config.b.b1:.12g},{self.config.b.b2:.12g})"]
        for c in self.cells:
            lines.append(f"cell ({c.index[0]},{c.index[1]}) "
                         f"anchor=({c.anchor[0]:.12g},{c.anchor[1]:.12g})")
        for itf in self.interfaces:
            lines.append(
                f"iface ({itf.owner[0]},{itf.owner[1]}):{itf.owner_edge}"
                f"[{itf.owner_range[0]:.12g},{itf.owner_range[1]:.12g}]"
                f" -> ({itf.neighbor[0]},{itf.neighbor[1]}):{itf.neighbor_edge}"
                f"[{itf.neighbor_range[0]:.12g},{itf.neighbor_range[1]:.12g}]"
                f" hF={itf.h_F:.12g}"
                f" n=({itf.normal[0]:.12g},{itf.normal[1]:.12g})")
        return "\n".join(lines) + "\n"

    def validate(self) -> None:
        """Geometric self-checks of ``faces``; raises on an inconsistent one.

        Every face is checked in one batched pass: both sides of each
        segment map to the same physical points modulo 2 pi, the stored
        normal is opposite the neighbour's outward normal, and the ranges
        on every edge that a face touches cover it exactly once.  An error
        names the first offending face, or for coverage the first offending
        ``(cell, edge)`` in face order.
        """
        faces = self.faces
        _, _, x, y = self.face_points(faces, np.array([0.0, 0.315, 0.79, 1.0]))
        seg_bad = _sides_apart(x, y)
        # all cells share cell0's outward normals
        normals = np.array([outward_normal(self.cell0, e) for e in EDGES])
        normal_bad = ~np.all(np.isclose(faces.normal, -normals[faces.edges[:, 1]],
                                        atol=1e-13), axis=1)
        bad = seg_bad | normal_bad
        if bad.any():
            k = int(np.argmax(bad))
            what = "segment mismatch" if seg_bad[k] else "normals not opposite"
            raise RuntimeError(
                f"interface {what}: {self.interfaces_of(faces.take([k]))[0]}")

        # coverage per (cell, edge), summed in face order
        keys = (faces.cells * len(EDGES) + faces.edges).ravel()
        total = np.zeros(self.n_cells * len(EDGES))
        np.add.at(total, keys, np.diff(faces.ranges, axis=-1).ravel())
        off = np.abs(total[keys] - 2.0) > 1e-12
        if off.any():
            key = int(keys[np.argmax(off)])
            cell, edge = divmod(key, len(EDGES))
            raise RuntimeError(
                f"edge {EDGES[edge]} of cell {divmod(cell, self.config.ny)} "
                f"covered {total[key]/2.0:.17g} times")


def _periodic_close(u: np.ndarray, v: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Elementwise: ``u`` and ``v`` agree modulo 2 pi to within ``tol``."""
    d = np.remainder(u - v, TWO_PI)
    return np.minimum(d, TWO_PI - d) <= tol


def _sides_apart(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``(F,)`` mask of the faces whose two sides' points ``(F, 2, q)`` (as
    from ``Mesh.face_points``) differ modulo 2 pi."""
    return ~np.all(_periodic_close(x[:, 0], x[:, 1])
                   & _periodic_close(y[:, 0], y[:, 1]), axis=1)


def build_mesh(config: MeshConfig) -> Mesh:
    """Build the periodic mesh and resolve all (possibly split) interfaces."""
    dx, dy = TWO_PI / config.nx, TWO_PI / config.ny
    b1, b2 = config.b.b1, config.b.b2
    if config.alignment == Alignment.LEFT_RIGHT:
        half_xi = ((b1 / b2) * dy / 2.0, dy / 2.0)
        half_eta = (-dx / 2.0, 0.0)
    else:
        rise = 0.0 if config.alignment == Alignment.CARTESIAN else (b2 / b1) * dx
        half_xi = (dx / 2.0, rise / 2.0)
        half_eta = (0.0, dy / 2.0)
    cell0 = Cell(index=(0, 0), anchor=_anchors(config, 0, 0), half_xi=half_xi,
                 half_eta=half_eta)
    mesh = Mesh(config=config, cell0=cell0, templates=_face_templates(config, cell0))
    mesh.validate()
    return mesh


def _face_templates(config: MeshConfig, cell0: Cell) -> tuple[Interface, ...]:
    """The interfaces of cell ``(0, 0)``: the aligned one, then the
    cross-field one or two.

    The aligned (top/bottom) edges are conforming.  On each cross-field line
    the owner (right) edges cover ``[k + offset, k + offset + 1)`` and the
    neighbour (left) edges of the next line ``[k, k + 1)``, in units of the
    edge width.  A non-integer offset splits every right edge into two
    sub-segments with fractions ``1 - g`` and ``g``, against the left edges
    ``floor(offset)`` and ``floor(offset) + 1`` slots along.
    """
    nx, ny = config.nx, config.ny
    b1, b2 = config.b.b1, config.b.b2
    left_right = config.alignment == Alignment.LEFT_RIGHT
    if left_right:
        width, offset = TWO_PI / nx, -(b1 / b2) * (nx / ny)
    else:
        width = TWO_PI / ny
        offset = 0.0 if config.alignment == Alignment.CARTESIAN else (b2 / b1) * (ny / nx)

    def face(owner_edge, neighbor_edge, owner_range, neighbor_range, h_f, line, slot):
        # left/right: lines are rows and slots run down the columns, so the
        # reference-top (physical left) neighbour is the previous column
        di, dj = (-slot, line) if left_right else (line, slot)
        return Interface(owner=(0, 0), neighbor=(di % nx, dj % ny),
                         owner_edge=owner_edge, neighbor_edge=neighbor_edge,
                         owner_range=owner_range, neighbor_range=neighbor_range,
                         normal=tuple(outward_normal(cell0, owner_edge)), h_F=h_f)

    full = (-1.0, 1.0)
    out = [face("top", "bottom", full, full, 2.0 * math.hypot(*cell0.half_xi), 0, 1)]
    merge = MERGE_TOL / width
    g = offset % 1.0
    if g <= merge or 1.0 - g <= merge:
        out.append(face("right", "left", full, full, width, 1, round(offset)))
    else:
        lo = math.floor(offset)
        out += [face("right", "left", (-1.0, 1.0 - 2.0 * g), (-1.0 + 2.0 * g, 1.0),
                     width * (1.0 - g), 1, lo),
                face("right", "left", (1.0 - 2.0 * g, 1.0), (-1.0, -1.0 + 2.0 * g),
                     width * g, 1, lo + 1)]
    return tuple(out)

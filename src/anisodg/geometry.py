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
from dataclasses import dataclass, field
from enum import Enum

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


@dataclass
class Mesh:
    config: MeshConfig
    cells: list[Cell]
    interfaces: list[Interface]
    _cell_of: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._cell_of = {c.index: k for k, c in enumerate(self.cells)}

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def cell_id(self, index: tuple[int, int]) -> int:
        return self._cell_of[index]

    def cell(self, index: tuple[int, int]) -> Cell:
        return self.cells[self._cell_of[index]]

    def is_conforming(self) -> bool:
        return all(itf.owner_range == (-1.0, 1.0) for itf in self.interfaces)

    def total_interface_length(self) -> float:
        return sum(itf.h_F for itf in self.interfaces)

    def total_cell_area(self) -> float:
        return sum(4.0 * c.jacobian_det for c in self.cells)

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
        """Geometric self-checks; raises on an inconsistent construction.

        All interfaces are checked in one batched pass: both sides of each
        segment map to the same physical points modulo 2 pi, the stored
        normal is opposite the neighbour's outward normal, and the ranges
        on every edge that an interface touches cover it exactly once.  An
        error names the first offending interface, or for coverage the
        first offending ``(cell, edge)`` in interface order.
        """
        if not self.interfaces:
            return
        anchor = np.array([c.anchor for c in self.cells])
        half_xi = np.array([c.half_xi for c in self.cells])
        half_eta = np.array([c.half_eta for c in self.cells])
        cells = np.array([(self._cell_of[itf.owner], self._cell_of[itf.neighbor])
                          for itf in self.interfaces])
        edges = np.array([(_EDGE_ID[itf.owner_edge], _EDGE_ID[itf.neighbor_edge])
                          for itf in self.interfaces])
        ranges = np.array([(itf.owner_range, itf.neighbor_range)
                           for itf in self.interfaces])          # (F, side, 2)
        normals = np.array([itf.normal for itf in self.interfaces])

        # segment matching at a few parameters, with Cell.map_point's arithmetic
        ts = np.array([-1.0, -0.37, 0.58, 1.0])
        lo, hi = ranges[..., :1], ranges[..., 1:]
        t = lo + (hi - lo) * (ts + 1.0) / 2.0                   # (F, side, 4)
        xi, eta = np.empty_like(t), np.empty_like(t)
        for k, name in enumerate(EDGES):
            rows = edges == k
            xi[rows], eta[rows] = edge_point(name, t[rows])
        x, y = (anchor[cells, d, None] + half_xi[cells, d, None] * (xi + 1.0)
                + half_eta[cells, d, None] * (eta + 1.0) for d in (0, 1))
        seg_bad = ~np.all(_periodic_close(x[:, 0], x[:, 1])
                          & _periodic_close(y[:, 0], y[:, 1]), axis=1)

        # the neighbour's outward normal, once per distinct cell shape and edge
        shapes, shape_of = np.unique(np.hstack([half_xi, half_eta]), axis=0,
                                     return_inverse=True)
        shape_of = shape_of.ravel()
        first = [int(np.argmax(shape_of == s)) for s in range(len(shapes))]
        templates = np.array([[outward_normal(self.cells[c], e) for e in EDGES]
                              for c in first])
        n_nbr = templates[shape_of[cells[:, 1]], edges[:, 1]]
        normal_bad = ~np.all(np.isclose(normals, -n_nbr, atol=1e-13), axis=1)

        bad = seg_bad | normal_bad
        if bad.any():
            k = int(np.argmax(bad))
            what = "segment mismatch" if seg_bad[k] else "normals not opposite"
            raise RuntimeError(f"interface {what}: {self.interfaces[k]}")

        # coverage per (cell, edge), summed in interface order
        keys = (cells * len(EDGES) + edges).ravel()
        total = np.zeros(self.n_cells * len(EDGES))
        np.add.at(total, keys, (hi - lo).ravel())
        off = np.abs(total[keys] - 2.0) > 1e-12
        if off.any():
            key = int(keys[np.argmax(off)])
            cell, edge = divmod(key, len(EDGES))
            raise RuntimeError(
                f"edge {EDGES[edge]} of cell {self.cells[cell].index} "
                f"covered {total[key]/2.0:.17g} times")


def _periodic_close(u: np.ndarray, v: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Elementwise: ``u`` and ``v`` agree modulo 2 pi to within ``tol``."""
    d = np.remainder(u - v, TWO_PI)
    return np.minimum(d, TWO_PI - d) <= tol


def build_mesh(config: MeshConfig) -> Mesh:
    """Build the periodic mesh and resolve all (possibly split) interfaces."""
    nx, ny = config.nx, config.ny
    dx, dy = TWO_PI / nx, TWO_PI / ny
    b1, b2 = config.b.b1, config.b.b2

    if config.alignment == Alignment.LEFT_RIGHT:
        half_xi = ((b1 / b2) * dy / 2.0, dy / 2.0)
        half_eta = (-dx / 2.0, 0.0)

        # anchor at the bottom-right vertex keeps the map positively oriented
        # with xi along b
        def anchor(i, j):
            return ((i + 1) * dx, j * dy)
    else:
        rise = 0.0 if config.alignment == Alignment.CARTESIAN else (b2 / b1) * dx
        half_xi = (dx / 2.0, rise / 2.0)
        half_eta = (0.0, dy / 2.0)

        def anchor(i, j):
            return (i * dx, j * dy)

    cells = [Cell(index=(i, j), anchor=anchor(i, j), half_xi=half_xi,
                  half_eta=half_eta)
             for i in range(nx) for j in range(ny)]

    mesh = Mesh(config=config, cells=cells, interfaces=[])
    mesh.interfaces.extend(_aligned_family(mesh))
    mesh.interfaces.extend(_cross_family(mesh))
    mesh.validate()
    return mesh


def _aligned_family(mesh: Mesh) -> list[Interface]:
    """Conforming top/bottom interfaces (the aligned edges, or horizontal for
    cartesian)."""
    cfg = mesh.config
    nx, ny = cfg.nx, cfg.ny
    out = []
    for i in range(nx):
        for j in range(ny):
            owner = (i, j)
            if cfg.alignment == Alignment.LEFT_RIGHT:
                # reference-top edge = physical left edge; the cell beyond it
                # is the previous column
                neighbor = ((i - 1) % nx, j)
            else:
                neighbor = (i, (j + 1) % ny)
            cell = mesh.cell(owner)
            h_f = 2.0 * math.hypot(*cell.half_xi)
            out.append(Interface(
                owner=owner, neighbor=neighbor,
                owner_edge="top", neighbor_edge="bottom",
                owner_range=(-1.0, 1.0), neighbor_range=(-1.0, 1.0),
                normal=tuple(outward_normal(cell, "top")),
                h_F=h_f))
    return out


def _cross_family(mesh: Mesh) -> list[Interface]:
    """Right/left interfaces along the cross-field lines, split as needed.

    On each line the owner edges cover ``[k + offset, k + offset + 1)`` and
    the neighbour edges ``[k, k + 1)`` in units of the edge width, on a
    circle of circumference n.  A non-integer offset splits every edge into
    two sub-segments with fractions ``g`` and ``1 - g``.
    """
    cfg = mesh.config
    nx, ny = cfg.nx, cfg.ny
    b1, b2 = cfg.b.b1, cfg.b.b2

    if cfg.alignment == Alignment.LEFT_RIGHT:
        n_lines, n_edges, width = ny, nx, TWO_PI / nx
        offset = -(b1 / b2) * (nx / ny)
    else:
        n_lines, n_edges, width = nx, ny, TWO_PI / ny
        offset = 0.0 if cfg.alignment == Alignment.CARTESIAN else (b2 / b1) * (ny / nx)

    merge = MERGE_TOL / width
    g = offset % 1.0
    conforming = g <= merge or 1.0 - g <= merge
    shift = round(offset) if conforming else math.floor(offset)

    out = []
    for line in range(n_lines):
        for k in range(n_edges):
            if cfg.alignment == Alignment.LEFT_RIGHT:
                own = ((n_edges - 1 - k) % n_edges, line)
                nbr_line = (line + 1) % n_lines

                def nbr_of(slot):
                    return ((n_edges - 1 - slot % n_edges) % n_edges, nbr_line)
            else:
                own = (line, k)
                nbr_line = (line + 1) % n_lines

                def nbr_of(slot):
                    return (nbr_line, slot % n_edges)

            cell = mesh.cell(own)
            normal = tuple(outward_normal(cell, "right"))
            if conforming:
                slot = k + shift
                out.append(Interface(
                    owner=own, neighbor=nbr_of(slot),
                    owner_edge="right", neighbor_edge="left",
                    owner_range=(-1.0, 1.0), neighbor_range=(-1.0, 1.0),
                    normal=normal, h_F=width))
            else:
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

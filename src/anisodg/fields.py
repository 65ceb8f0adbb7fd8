"""Periodic scalar coefficient fields and the anisotropy vector field.

A coefficient field is a truncated Fourier series

    f(x, y) = mean + sum_k  c_cos_k * cos(m_k x + n_k y) + c_sin_k * sin(m_k x + n_k y)

which is 2*pi-periodic in both directions by construction.  The vector
field is ``B(x) = beta(x) * (b1, b2)`` with a constant direction, so B is
tangent to aligned mesh edges wherever b is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import FieldDirection

#: Default sampling grid (per direction) for the positivity check at load time.
POSITIVITY_SAMPLES = 64

IOTA_AXIS = 0.85931
IOTA_EDGE = 0.93972


class FieldFileError(ValueError):
    """Raised for unreadable or non-positive coefficient field files."""


@dataclass(frozen=True)
class Harmonic:
    m: int
    n: int
    c_cos: float
    c_sin: float


@dataclass(frozen=True)
class CoefficientField:
    mean: float
    harmonics: tuple[Harmonic, ...] = ()

    @classmethod
    def constant(cls, value: float) -> "CoefficientField":
        return cls(mean=float(value))

    @property
    def is_constant(self) -> bool:
        return all(h.c_cos == 0.0 and h.c_sin == 0.0 for h in self.harmonics)

    def eval(self, x, y) -> np.ndarray:
        """Evaluate at (x, y); periodicity makes wrapping the arguments moot."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.full(np.broadcast(x, y).shape, self.mean)
        if self.is_constant:
            return out
        for h in self.harmonics:
            phase = h.m * x + h.n * y
            if h.c_cos != 0.0:
                out = out + h.c_cos * np.cos(phase)
            if h.c_sin != 0.0:
                out = out + h.c_sin * np.sin(phase)
        return out

    __call__ = eval


def check_positive(f: CoefficientField, samples: int = POSITIVITY_SAMPLES) -> float:
    """Sample f on a samples x samples grid; raise if the minimum is not > 0
    (a NaN sample included).

    Returns the minimal sampled value.  This is a sampling check, not a
    proof of positivity.
    """
    t = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    xx, yy = np.meshgrid(t, t, indexing="ij")
    vals = f.eval(xx, yy)
    k = int(np.argmin(vals))
    vmin = float(vals.flat[k])
    if not vmin > 0.0:
        i, j = np.unravel_index(k, vals.shape)
        raise FieldFileError(
            f"field is not positive: min sampled value {vmin:.6g} "
            f"at (x, y) = ({t[i]:.6g}, {t[j]:.6g})")
    return vmin


def parse_field(text: str, name: str = "<field>") -> CoefficientField:
    """Parse the plain-text field format.

    Line 1 (after comments): ``mean <real>``; every further non-comment line
    is ``<m:int> <n:int> <c_cos:real> <c_sin:real>``.  ``#`` starts a comment.
    Every real must be finite.
    """
    mean = None
    harmonics = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            if mean is None:
                if tokens[0] != "mean" or len(tokens) != 2:
                    raise ValueError("expected 'mean <real>'")
                mean = float(tokens[1])
                values = [mean]
            else:
                if len(tokens) != 4:
                    raise ValueError("expected '<m> <n> <c_cos> <c_sin>'")
                values = [float(tokens[2]), float(tokens[3])]
                harmonics.append(Harmonic(int(tokens[0]), int(tokens[1]), *values))
            if not all(map(math.isfinite, values)):
                raise ValueError("numbers must be finite")
        except ValueError as exc:
            raise FieldFileError(f"{name}:{lineno}: cannot parse {line!r}: {exc}") from exc
    if mean is None:
        raise FieldFileError(f"{name}: no 'mean' line found")
    return CoefficientField(mean=mean, harmonics=tuple(harmonics))


def load_field(path: str | Path) -> CoefficientField:
    """Parse a field file and run the positivity sample check."""
    path = Path(path)
    field = parse_field(path.read_text(), name=str(path))
    check_positive(field)
    return field


def iota_profile(s: float) -> FieldDirection:
    """Linear rotational-transform profile of the flux-surface label s.

    iota(s) = IOTA_AXIS * (1 - s) + IOTA_EDGE * s, giving b = (iota, 1).
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"flux label s must lie in [0, 1], got {s}")
    return FieldDirection(b1=IOTA_AXIS * (1.0 - s) + IOTA_EDGE * s, b2=1.0)


@dataclass(frozen=True)
class MagneticField:
    """B(x) = beta(x) * b with constant direction b and positive scalar beta."""

    b: FieldDirection
    beta: CoefficientField

    @classmethod
    def uniform(cls, b: FieldDirection) -> "MagneticField":
        return cls(b=b, beta=CoefficientField.constant(1.0))

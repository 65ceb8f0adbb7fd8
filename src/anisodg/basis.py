"""Modal Legendre tensor-product basis and Gauss quadrature on [-1, 1].

The local space on the reference square is spanned by
``P_a(xi) * P_b(eta)`` for ``a <= p_xi``, ``b <= p_eta`` with the
lexicographic flat index ``k = a * (p_eta + 1) + b``.  xi is the
field-aligned direction, so ``p_xi`` controls the parallel resolution and
``p_eta`` the perpendicular one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class BasisSpec:
    p_xi: int
    p_eta: int

    def __post_init__(self):
        if self.p_xi < 0 or self.p_eta < 0:
            raise ValueError("polynomial degrees must be >= 0")

    @property
    def n_loc(self) -> int:
        return (self.p_xi + 1) * (self.p_eta + 1)


def dof_parallel(spec: BasisSpec, nx: int) -> int:
    return (spec.p_xi + 1) * nx


def dof_perpendicular(spec: BasisSpec, ny: int) -> int:
    return (spec.p_eta + 1) * ny


def legendre_basis_eval(p: int, t) -> tuple[np.ndarray, np.ndarray]:
    """Values and derivatives of P_0..P_p at t (scalar or array) in [-1, 1].

    Three-term recurrence; returned arrays have shape ``(p+1,) + t.shape``.
    """
    t = np.asarray(t, dtype=float)
    vals = np.zeros((p + 1,) + t.shape)
    ders = np.zeros_like(vals)
    vals[0] = 1.0
    if p >= 1:
        vals[1] = t
        ders[1] = 1.0
    for k in range(1, p):
        vals[k + 1] = ((2 * k + 1) * t * vals[k] - k * vals[k - 1]) / (k + 1)
        ders[k + 1] = ((2 * k + 1) * (vals[k] + t * ders[k]) - k * ders[k - 1]) / (k + 1)
    return vals, ders


@dataclass(frozen=True)
class QuadratureRule:
    nodes: np.ndarray   # (n,)
    weights: np.ndarray

    def __post_init__(self):
        if np.any(self.weights <= 0.0):
            raise ValueError("quadrature weights must be positive")


def gauss_rule(n: int) -> QuadratureRule:
    """Gauss-Legendre rule with n points on [-1, 1] (exact to degree 2n-1).

    The rule of each ``n`` is computed once and shared: its arrays are
    read-only.
    """
    if n < 1:
        raise ValueError("need at least one quadrature point")
    return _gauss_rule(n)


@lru_cache(maxsize=32)
def _gauss_rule(n: int) -> QuadratureRule:
    """The rule of ``gauss_rule``, memoized per ``n``.

    Newton iteration on the roots of P_n, started from the Chebyshev-based
    guess; converges to ~1e-15 in a handful of steps.
    """
    if n == 1:
        return _read_only(QuadratureRule(nodes=np.zeros(1), weights=np.full(1, 2.0)))
    k = np.arange(n)
    x = -np.cos(np.pi * (k + 0.75) / (n + 0.5))
    for _ in range(100):
        vals, ders = legendre_basis_eval(n, x)
        dx = vals[n] / ders[n]
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    else:
        raise RuntimeError("Gauss-Legendre root finding did not converge")
    x = (x - x[::-1]) / 2.0  # enforce exact symmetry about 0
    _, ders = legendre_basis_eval(n, x)
    w = 2.0 / ((1.0 - x**2) * ders[n] ** 2)
    w = (w + w[::-1]) / 2.0
    return _read_only(QuadratureRule(nodes=x, weights=w))


def _read_only(rule: QuadratureRule) -> QuadratureRule:
    rule.nodes.flags.writeable = False
    rule.weights.flags.writeable = False
    return rule


def tensor_basis_eval(spec: BasisSpec, xi, eta) -> tuple[np.ndarray, np.ndarray]:
    """All local basis values and reference gradients at points (xi, eta).

    Returns ``(values, grads)`` with shapes ``t.shape + (n_loc,)`` and
    ``t.shape + (n_loc, 2)``; physical gradients follow by applying the
    owning cell's constant inverse-transpose Jacobian.
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    vx, dvx = legendre_basis_eval(spec.p_xi, xi)
    ve, dve = legendre_basis_eval(spec.p_eta, eta)
    # move the polynomial-degree axis last
    vx, dvx = np.moveaxis(vx, 0, -1), np.moveaxis(dvx, 0, -1)
    ve, dve = np.moveaxis(ve, 0, -1), np.moveaxis(dve, 0, -1)
    vals = vx[..., :, None] * ve[..., None, :]
    grads = np.stack([dvx[..., :, None] * ve[..., None, :],
                      vx[..., :, None] * dve[..., None, :]], axis=-1)
    n_loc = spec.n_loc
    return vals.reshape(vals.shape[:-2] + (n_loc,)), \
        grads.reshape(grads.shape[:-3] + (n_loc, 2))

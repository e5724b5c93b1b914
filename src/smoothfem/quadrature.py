"""Quadrature rules on reference simplices.

All rules are stored in barycentric form: ``points`` has one row per
quadrature node with d+1 barycentric coordinates, and ``weights`` sums to 1.
The integral of ``f`` over a physical simplex ``T`` is then

    integral = m(T) * sum_q w_q * f(x_q),   x_q = points[q] @ vertices.

Low degrees use classical symmetric rules; arbitrary degrees fall back to a
collapsed-coordinate Gauss-Jacobi product rule, which is polynomially exact
and works in any dimension.  Facet integrals use the rule of the
(d-1)-simplex: segments in 2D, triangles in 3D.
"""

from dataclasses import dataclass
from math import factorial

import numpy as np
from numpy.polynomial.legendre import leggauss


@dataclass(frozen=True)
class QuadratureRule:
    """Reference-simplex rule: barycentric nodes, weights summing to 1."""

    points: np.ndarray     # (Q, d+1) barycentric coordinates
    weights: np.ndarray    # (Q,), sum = 1
    degree: int            # declared polynomial exactness


def _gauss01(n):
    """Gauss-Legendre nodes/weights on [0, 1] (weights sum to 1)."""
    x, w = leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def _jacobi01(n, alpha):
    """Gauss-Jacobi nodes/weights on [0, 1] for the weight (1-u)^alpha.

    Returned weights satisfy sum_i w_i g(u_i) = integral_0^1 (1-u)^alpha g(u) du
    for polynomials g of degree <= 2n-1.
    """
    from scipy.special import roots_jacobi

    x, w = roots_jacobi(n, alpha, 0.0)
    return (x + 1.0) / 2.0, w / 2.0 ** (alpha + 1)


def _collapsed_rule(dim, degree):
    """Gauss-Jacobi product rule on the unit simplex, exact to ``degree``."""
    n = degree // 2 + 1
    if dim == 1:
        u, w = _gauss01(n)
        pts = np.column_stack([1.0 - u, u])
        return pts, w / w.sum()
    if dim == 2:
        # x = s, y = t (1 - s); jacobian (1 - s)
        s, ws = _jacobi01(n, 1.0)
        t, wt = _gauss01(n)
        S, T = np.meshgrid(s, t, indexing="ij")
        x = S.ravel()
        y = (T * (1.0 - S)).ravel()
        w = np.outer(ws, wt).ravel()
        pts = np.column_stack([1.0 - x - y, x, y])
        return pts, w / w.sum()
    if dim == 3:
        # x = s, y = t (1-s), z = r (1-s)(1-t); jacobian (1-s)^2 (1-t)
        s, ws = _jacobi01(n, 2.0)
        t, wt = _jacobi01(n, 1.0)
        r, wr = _gauss01(n)
        S, T, R = np.meshgrid(s, t, r, indexing="ij")
        x = S.ravel()
        y = (T * (1.0 - S)).ravel()
        z = (R * (1.0 - S) * (1.0 - T)).ravel()
        w = np.einsum("i,j,k->ijk", ws, wt, wr).ravel()
        pts = np.column_stack([1.0 - x - y - z, x, y, z])
        return pts, w / w.sum()
    raise ValueError(f"unsupported dimension {dim}")


# classical symmetric triangle rules (barycentric, weights sum to 1)
_TRI_DEG2 = (
    np.array([[2 / 3, 1 / 6, 1 / 6], [1 / 6, 2 / 3, 1 / 6], [1 / 6, 1 / 6, 2 / 3]]),
    np.array([1 / 3, 1 / 3, 1 / 3]),
)

_TRI6_A1, _TRI6_B1, _TRI6_W1 = 0.108103018168070, 0.445948490915965, 0.223381589678011
_TRI6_A2, _TRI6_B2, _TRI6_W2 = 0.816847572980459, 0.091576213509771, 0.109951743655322
_TRI_DEG4 = (
    np.array(
        [
            [_TRI6_A1, _TRI6_B1, _TRI6_B1],
            [_TRI6_B1, _TRI6_A1, _TRI6_B1],
            [_TRI6_B1, _TRI6_B1, _TRI6_A1],
            [_TRI6_A2, _TRI6_B2, _TRI6_B2],
            [_TRI6_B2, _TRI6_A2, _TRI6_B2],
            [_TRI6_B2, _TRI6_B2, _TRI6_A2],
        ]
    ),
    np.array([_TRI6_W1] * 3 + [_TRI6_W2] * 3),
)

_TET_A = 0.5854101966249685  # (5 + 3 sqrt 5) / 20
_TET_B = 0.1381966011250105  # (5 - sqrt 5) / 20
_TET_DEG2 = (
    np.array(
        [
            [_TET_A, _TET_B, _TET_B, _TET_B],
            [_TET_B, _TET_A, _TET_B, _TET_B],
            [_TET_B, _TET_B, _TET_A, _TET_B],
            [_TET_B, _TET_B, _TET_B, _TET_A],
        ]
    ),
    np.array([0.25, 0.25, 0.25, 0.25]),
)


def simplex_quadrature(dim, degree):
    """Volume rule on the reference d-simplex, exact to ``degree``."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    degree = max(degree, 1)
    if dim == 1:
        pts, w = _collapsed_rule(1, degree)
    elif dim == 2:
        if degree <= 2:
            pts, w = _TRI_DEG2
        elif degree <= 4:
            pts, w = _TRI_DEG4
        else:
            pts, w = _collapsed_rule(2, degree)
    elif dim == 3:
        if degree <= 2:
            pts, w = _TET_DEG2
        else:
            pts, w = _collapsed_rule(3, degree)
    else:
        raise ValueError(f"unsupported dimension {dim}")
    return QuadratureRule(np.asarray(pts, float), np.asarray(w, float), degree)


def barycentric_monomial_integral(dim, exponents):
    """Mean of prod_i lambda_i^a_i over a d-simplex (classical closed form).

    integral_T prod lambda^a dT = m(T) * d! * prod(a_i!) / (d + sum a_i)!;
    this returns the measure-normalized value (divide-by-m(T) convention used
    throughout this package).
    """
    exponents = tuple(int(a) for a in exponents)
    if len(exponents) != dim + 1 or any(a < 0 for a in exponents):
        raise ValueError("need d+1 nonnegative exponents")
    num = factorial(dim)
    for a in exponents:
        num *= factorial(a)
    return num / factorial(dim + sum(exponents))

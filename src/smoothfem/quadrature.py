"""Quadrature rules on reference simplices.

All rules are stored in barycentric form: ``points`` has one row per
quadrature node with d+1 barycentric coordinates, and ``weights`` sums to 1.
The integral of ``f`` over a physical simplex ``T`` is then

    integral = m(T) * sum_q w_q * f(x_q),   x_q = points[q] @ vertices.

Triangle rules up to degree 4 use the classical symmetric 6-point rule;
every other request takes one collapsed-coordinate Gauss-Jacobi product
rule (Karniadakis & Sherwin, *Spectral/hp Element Methods*, 2nd ed.), which
is polynomially exact in every dimension.  Facet integrals use the rule of
the (d-1)-simplex: segments in 2D, triangles in 3D.
"""

from dataclasses import dataclass
from functools import reduce
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
    """Gauss-Jacobi product rule on the unit simplex, exact to ``degree``.

    Coordinate k is u_k (1 - u_0) ... (1 - u_(k-1)), so the Jacobian is
    prod_k (1 - u_k)^(dim-1-k): axis k takes the Gauss-Jacobi rule of that
    weight, and the last axis plain Gauss-Legendre.
    """
    n = degree // 2 + 1
    nodes, weights = zip(*[_jacobi01(n, dim - 1 - k) for k in range(dim - 1)],
                         _gauss01(n))
    grids = np.meshgrid(*nodes, indexing="ij")
    coords = []
    for k, u in enumerate(grids):
        for v in grids[:k]:
            u = u * (1.0 - v)
        coords.append(u.ravel())
    first = reduce(np.subtract, coords, 1.0)
    w = reduce(np.multiply.outer, weights).ravel()
    return np.column_stack([first, *coords]), w / w.sum()


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


def simplex_quadrature(dim, degree):
    """Volume rule on the reference d-simplex, exact to ``degree``."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if dim not in (1, 2, 3):
        raise ValueError(f"unsupported dimension {dim}")
    degree = max(degree, 1)
    if dim == 2 and degree <= 4:
        pts, w = _TRI_DEG4
    else:
        pts, w = _collapsed_rule(dim, degree)
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

"""Interior bubble functions on simplices.

The displacement space on each d-simplex is spanned by the d+1 vertex hat
functions plus one interior bubble that vanishes on the whole element
boundary.  Two bubble variants are supported:

``power``
    The polynomial bubble ``prod_i (d+1) lambda_i`` (cubic in 2D,
    quartic in 3D), scaled to equal 1 at the centroid.

``hat``
    The piecewise-linear pyramid ``(d+1) min_i lambda_i``: the hat function
    of the centroid on the sub-simplices obtained by coning each boundary
    facet to the centroid.  Also 1 at the centroid; gradients are
    constant on each sub-simplex and undefined on the internal interfaces.

Barycentric coordinates are used everywhere; geometry enters only through
the constant hat gradients of the element, ``PrimalMesh.grads``.
"""

import numpy as np

BUBBLE_KINDS = ("power", "hat")


def check_bubble_kind(kind):
    if kind not in BUBBLE_KINDS:
        raise ValueError(f"unknown bubble kind {kind!r}; expected one of {BUBBLE_KINDS}")


def bubble_value(kind, bary):
    """Bubble values at barycentric points ``bary`` of shape (..., d+1)."""
    check_bubble_kind(kind)
    bary = np.asarray(bary, float)
    dim = bary.shape[-1] - 1
    if kind == "power":
        return (dim + 1) ** (dim + 1) * np.prod(bary, axis=-1)
    return (dim + 1) * np.min(bary, axis=-1)


def bubble_gradient(kind, lam, lam_grads):
    """Bubble gradients at batched barycentric points.

    Parameters
    ----------
    kind : 'power' or 'hat'
    lam : (C, Q, d+1) barycentric points, one batch row per element
    lam_grads : (C, d+1, d) constant hat gradients of each row's element

    Returns
    -------
    (C, Q, d) gradient vectors.  For the ``hat`` bubble the gradient on each
    centroid-cone sub-simplex is ``(d+1) grad lambda_i`` with i the smallest
    coordinate; on interface points the smallest index is taken, which is
    irrelevant under integration.
    """
    check_bubble_kind(kind)
    dim = lam.shape[-1] - 1
    if kind == "power":
        scale = (dim + 1) ** (dim + 1)
        out = np.zeros(lam.shape[:-1] + (dim,))
        for i in range(dim + 1):
            others = np.delete(lam, i, axis=-1).prod(axis=-1)   # (C, Q)
            out += others[..., None] * lam_grads[:, None, i, :]
        return scale * out
    imin = np.argmin(lam, axis=-1)                              # (C, Q)
    C = lam.shape[0]
    return (dim + 1) * lam_grads[np.arange(C)[:, None], imin, :]

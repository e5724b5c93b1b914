"""Linear (hat) shape functions and interior bubble functions on simplices.

The displacement space on each d-simplex is spanned by the d+1 vertex hat
functions plus one interior bubble that vanishes on the whole element
boundary.  Two bubble variants are supported:

``power``
    The polynomial bubble ``prod_i (d+1) lambda_i`` (quadratic in 2D,
    cubic in 3D), scaled to equal 1 at the centroid.

``hat``
    The piecewise-linear pyramid ``(d+1) min_i lambda_i``: the hat function
    of the centroid on the sub-simplices obtained by coning each boundary
    facet to the centroid.  Also 1 at the centroid; gradients are
    constant on each sub-simplex and undefined on the internal interfaces.

Barycentric coordinates are used everywhere; geometry enters only through
the constant hat gradients of the element.
"""

import numpy as np

BUBBLE_KINDS = ("power", "hat")


def check_bubble_kind(kind):
    if kind not in BUBBLE_KINDS:
        raise ValueError(f"unknown bubble kind {kind!r}; expected one of {BUBBLE_KINDS}")


def affine_maps(nodes, elements):
    """Per-element affine geometry: hat gradients and measures.

    Parameters
    ----------
    nodes : (N, d) float array
    elements : (E, d+1) int array

    Returns
    -------
    grads : (E, d+1, d) array
        Constant gradient of each vertex hat function.
    measures : (E,) array
        Signed measures (positive for correctly oriented elements).
    """
    nodes = np.asarray(nodes, float)
    elements = np.asarray(elements)
    dim = nodes.shape[1]
    verts = nodes[elements]                       # (E, d+1, d)
    edges = verts[:, 1:, :] - verts[:, :1, :]      # (E, d, d) rows: v_i - v_0
    det = np.linalg.det(edges)
    measures = det / _factorial(dim)
    inv = np.linalg.inv(edges)                    # columns are grad lambda_i, i>=1
    grads = np.empty((len(elements), dim + 1, dim))
    grads[:, 1:, :] = np.swapaxes(inv, 1, 2)
    grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
    return grads, measures


def _factorial(d):
    out = 1
    for k in range(2, d + 1):
        out *= k
    return out


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

"""Smoothed gradient operators over micro-cell domains.

The smoothed gradient of a displacement field on a domain is its average
gradient, computed as a boundary integral over the domain's facets:

    Hbar_rc = (1/m) * integral_{boundary} u_r n_c dGamma.

This module builds, for each coordinate c, a sparse matrix ``G_c`` with one
row per domain and one column per scalar shape function (mesh vertices,
then one interior bubble per element when enrichment is on), such that

    Hbar[k][r, c] = (G_c @ U)[k, r],    U : (n_scalar, d) dof values.

All strain, divergence, and deformation-gradient smoothing in the package
is derived from these matrices.  ``volume_average_gradient`` computes the
same averages on the discretization's micro-cell rule, sharing no code with
the boundary form; the ``lemma-checks`` battery and the tests compare them.
"""

import numpy as np
from scipy.sparse import coo_matrix

from .basis import bubble_gradient, bubble_value
from .mesh import ordered_matmul
from .quadrature import simplex_quadrature


def facet_normals(pts):
    """Unit normals and measures of flat facets, oriented by vertex order.

    pts is (F, d, dim): segment endpoints (2D) or triangle vertices (3D);
    the micro-cell facet patterns order them outward from the owning cell.
    """
    if pts.shape[2] == 2:
        t = pts[:, 1, :] - pts[:, 0, :]
        area = np.linalg.norm(t, axis=1)
        normal = np.column_stack([t[:, 1], -t[:, 0]]) / area[:, None]
        return normal, area
    n = 0.5 * np.cross(pts[:, 1, :] - pts[:, 0, :], pts[:, 2, :] - pts[:, 0, :])
    area = np.linalg.norm(n, axis=1)
    return n / area[:, None], area


def build_smoothed_gradient(mesh, micro, domains, bubble=None):
    """Sparse averaged-gradient operators [G_x, G_y(, G_z)] for a domain set.

    Parameters
    ----------
    mesh : PrimalMesh
    micro : MicroCellDecomposition
    domains : SmoothingDomainSet
    bubble : None, 'power', or 'hat'
        With a bubble kind, scalar columns are the N mesh vertices followed
        by one bubble per element; otherwise vertices only.

    Returns
    -------
    list of d csr_matrix, each (n_domains, N [+ E]).

    Facet means come from ``simplex_quadrature(d - 1, d + 1)``, the
    reference rule of the (d-1)-simplex: degree d+1 is the degree of the
    power bubble's trace, and the hat bubble is linear on every facet
    because micro-cells never straddle its interfaces.
    """
    dim = mesh.dim
    N, E = mesh.n_nodes, mesh.n_elements
    n_scalar = N + (E if bubble else 0)

    fpts = micro.points[domains.facet_pts]          # (F, d, dim)
    normals, areas = facet_normals(fpts)
    felem = micro.cell_elem[domains.facet_cell]     # (F,)
    fdom = domains.dom_of_cell[domains.facet_cell]

    rule = simplex_quadrature(dim - 1, dim + 1)
    X = ordered_matmul(rule.points, fpts)               # (F, Q, dim)
    lam = mesh.barycentric(felem, X)                    # (F, Q, d+1)

    # facet-mean shape values (normals are constant on flat facets)
    hat_mean = np.einsum("q,fqi->fi", rule.weights, lam)
    scale = areas / domains.measures[fdom]

    F = len(fpts)
    ent_facet = [np.repeat(np.arange(F), dim + 1)]
    rows = [fdom[ent_facet[0]]]
    cols = [mesh.elements[felem].ravel()]
    base = [(hat_mean * scale[:, None]).ravel()]
    if bubble:
        bub_mean = np.einsum("q,fq->f", rule.weights, bubble_value(bubble, lam))
        ent_facet.append(np.arange(F))
        rows.append(fdom)
        cols.append(N + felem)
        base.append(bub_mean * scale)
    ent_facet = np.concatenate(ent_facet)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    base = np.concatenate(base)

    return [
        coo_matrix((base * normals[ent_facet, c], (rows, cols)),
                   shape=(domains.n_domains, n_scalar)).tocsr()
        for c in range(dim)
    ]


def volume_average_gradient(disc, domains, k, coeffs, bubble=None):
    """Average gradient over domain k by volume quadrature (oracle path).

    ``domains`` is a domain set of ``disc`` and ``coeffs`` is (n_scalar, d)
    vertex (and bubble) dof values.  Integrates the actual field gradient
    over the member micro-cells with ``disc.quadrature()``, the degree-4
    micro-cell rule, exact for both bubble kinds because micro-cells never
    straddle the piecewise-linear bubble's interior interfaces, then divides
    by the domain measure.  Returns (d, d) with entry (r, c) = avg du_r/dx_c.
    """
    mesh, micro = disc.mesh, disc.micro
    coeffs = np.asarray(coeffs, float)

    cells = np.flatnonzero(domains.dom_of_cell == k)
    celem = micro.cell_elem[cells]
    cmeas = micro.measures[cells]

    # vertex part: hat gradients are constant per element
    U_loc = coeffs[mesh.elements[celem]]            # (C, d+1, d)
    gl = mesh.grads[celem]                          # (C, d+1, d)
    H = np.einsum("k,kir,kic->rc", cmeas, U_loc, gl)

    if bubble:
        rule, _, _, lam = disc.quadrature()
        gb = bubble_gradient(bubble, lam[cells], gl)    # (C, Q, d)
        Ub = coeffs[mesh.n_nodes + celem]               # (C, d)
        H += np.einsum("k,q,kqc,kr->rc", cmeas, rule.weights, gb, Ub)
    return H / domains.measures[k]

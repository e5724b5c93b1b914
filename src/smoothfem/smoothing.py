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
same averages by volume quadrature over the member micro-cells, sharing no
code with the boundary form, and exists to cross-check it.
"""

import numpy as np
from scipy.sparse import coo_matrix

from .basis import affine_maps, bubble_gradient, bubble_value
from .quadrature import boundary_quadrature, simplex_quadrature


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


class ElementFrames:
    """Cached per-element affine data shared by the smoothing builders."""

    def __init__(self, mesh):
        self.grads, self.measures = affine_maps(mesh.nodes, mesh.elements)
        self.origin = mesh.nodes[mesh.elements[:, 0]]
        # the vertex-1.. hat gradients are the inverse edge matrix transposed;
        # a C-ordered copy keeps barycentric's einsum summation order
        self.inv = np.ascontiguousarray(
            np.swapaxes(self.grads[:, 1:, :], 1, 2))

    def barycentric(self, elem_ids, X):
        """Barycentric coordinates of X (..., Q, d) in the given elements."""
        rel = X - self.origin[elem_ids][..., None, :]
        lam_rest = np.einsum("fqc,fcd->fqd", rel, self.inv[elem_ids])
        lam0 = 1.0 - lam_rest.sum(axis=-1, keepdims=True)
        return np.concatenate([lam0, lam_rest], axis=-1)


def build_smoothed_gradient(mesh, micro, domains, bubble=None, frames=None):
    """Sparse averaged-gradient operators [G_x, G_y(, G_z)] for a domain set.

    Parameters
    ----------
    mesh : PrimalMesh
    micro : MicroCellDecomposition
    domains : SmoothingDomainSet
    bubble : None, 'power', or 'hat'
        With a bubble kind, scalar columns are the N mesh vertices followed
        by one bubble per element; otherwise vertices only.
    frames : ElementFrames, optional precomputed affine cache.

    Returns
    -------
    list of d csr_matrix, each (n_domains, N [+ E]).
    """
    dim = mesh.dim
    N, E = mesh.n_nodes, mesh.n_elements
    n_scalar = N + (E if bubble else 0)
    frames = frames or ElementFrames(mesh)

    fpts = micro.points[domains.facet_pts]          # (F, d, dim)
    normals, areas = facet_normals(fpts)
    felem = micro.cell_elem[domains.facet_cell]     # (F,)
    fdom = np.repeat(np.arange(domains.n_domains), np.diff(domains.facet_ptr))

    rule = boundary_quadrature("segment" if dim == 2 else "triangle",
                               3 if dim == 2 else 4)
    X = np.einsum("qi,fid->fqd", rule.points, fpts)     # (F, Q, dim)
    lam = frames.barycentric(felem, X)                  # (F, Q, d+1)

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


def volume_average_gradient(mesh, micro, domains, k, coeffs, bubble=None,
                            frames=None):
    """Average gradient over domain k by volume quadrature (oracle path).

    ``coeffs`` is (n_scalar, d) vertex (and bubble) dof values.  Integrates
    the actual field gradient over the member micro-cells with a degree-4
    rule, which is exact for both bubble kinds because micro-cells never
    straddle the piecewise-linear bubble's interior interfaces, then divides
    by the domain measure.  Returns (d, d) with entry (r, c) = avg du_r/dx_c.
    """
    dim = mesh.dim
    N = mesh.n_nodes
    frames = frames or ElementFrames(mesh)
    coeffs = np.asarray(coeffs, float)

    cells = domains.cells_of(k)
    cpts = micro.points[micro.cells[cells]]         # (C, d+1, dim)
    celem = micro.cell_elem[cells]
    cmeas = micro.measures[cells]

    # vertex part: hat gradients are constant per element
    U_loc = coeffs[mesh.elements[celem]]            # (C, d+1, d)
    gl = frames.grads[celem]                        # (C, d+1, d)
    H = np.einsum("k,kir,kic->rc", cmeas, U_loc, gl)

    if bubble:
        rule = simplex_quadrature(dim, 4)
        X = np.einsum("qi,kid->kqd", rule.points, cpts)
        lam = frames.barycentric(celem, X)          # (C, Q, d+1)
        gb = bubble_gradient(bubble, lam, gl)       # (C, Q, d)
        Ub = coeffs[N + celem]                      # (C, d)
        H += np.einsum("k,q,kqc,kr->rc", cmeas, rule.weights, gb, Ub)
    return H / domains.measures[k]

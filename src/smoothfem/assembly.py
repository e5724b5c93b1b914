"""Operator assembly: smoothed stiffness, pressure coupling, baselines.

The mixed methods solve, with u the (bubble-enriched) displacement and p a
piecewise-constant pressure on the node-centered cells,

    [ A   B^T ] [u]   [f]
    [ B  -C/l ] [p] = [0],        l = Lame lambda,

where A is the smoothed shear stiffness 2 mu int eps:eps, B couples the
smoothed divergence to the pressure cells through exact intersection
measures, and C is the diagonal pressure-cell mass.  Eliminating p gives
the condensed operator A + l B^T C^{-1} B.

Displacement-only baselines (plain FEM and edge/face/node smoothing) use
the full constitutive matrix on their domains instead.  The classical MINI
element is assembled element-wise with continuous nodal pressure.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .basis import bubble_gradient, check_bubble_kind
from .dualmesh import (
    build_micro_decomposition,
    build_pressure_cells,
    build_smoothing_domains,
)
from .mesh import build_topology, ordered_matmul
from .quadrature import simplex_quadrature
from .smoothing import build_smoothed_gradient, facet_normals

# per method: the dimension it is restricted to (None: 2D and 3D) and the
# stiffness-domain kind of a displacement baseline (None: a mixed method)
_METHOD_TABLE = {
    "bes-fem": (2, None), "bfs-fem": (3, None), "es-fem": (2, "edge"),
    "fs-fem": (3, "face"), "ns-fem": (None, "node"),
    "fem-t3": (None, "element"), "mini": (None, None),
}
METHODS = tuple(_METHOD_TABLE)

_ALIASES = {
    "bes": "bes-fem", "bfs": "bfs-fem", "es": "es-fem", "fs": "fs-fem",
    "ns": "ns-fem", "fem": "fem-t3", "t3": "fem-t3", "fem-t4": "fem-t3",
    "mini": "mini",
}


def canonical_method(name):
    """Normalize a method name or alias; raises on unknown names."""
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in METHODS:
        raise ValueError(f"unknown method {name!r}; expected one of {METHODS}")
    return key


@dataclass(frozen=True)
class MaterialParams:
    """Isotropic linear-elastic constants (plane strain in 2D)."""

    E: float
    nu: float

    def __post_init__(self):
        if self.E <= 0.0:
            raise ValueError("Young's modulus must be positive")
        if not np.isfinite(self.E):
            raise ValueError("Young's modulus must be finite")
        if not 0.0 <= self.nu < 0.5:
            raise ValueError("Poisson ratio must lie in [0, 0.5)")

    @property
    def mu(self):
        return self.E / (2.0 * (1.0 + self.nu))

    @property
    def lam(self):
        return self.E * self.nu / ((1.0 + self.nu) * (1.0 - 2.0 * self.nu))


def full_elastic_matrix(lam, mu, dim):
    """Constitutive matrix in engineering Voigt order (plane strain in 2D)."""
    nv = 3 if dim == 2 else 6
    C = np.zeros((nv, nv))
    C[:dim, :dim] = lam
    C[np.arange(dim), np.arange(dim)] += 2.0 * mu
    C[np.arange(dim, nv), np.arange(dim, nv)] = mu
    return C


def shear_weight_vector(dim):
    """Voigt weights of 2 mu eps:eps: 1 on normal rows, 1/2 on shear rows."""
    nv = 3 if dim == 2 else 6
    w = np.ones(nv)
    w[dim:] = 0.5
    return w


@dataclass(frozen=True)
class DofMap:
    """Displacement dof layout: interleaved components, bubbles after nodes.

    Scalar function j is mesh vertex j for j < n_nodes and the interior
    bubble of element j - n_nodes otherwise; displacement dof (j, c) sits at
    index j * dim + c.  ``bubble`` is the bubble kind ('power' or 'hat'),
    or None for the plain P1 space.  Bubble dofs are never constrained.
    """

    n_nodes: int
    n_elements: int
    dim: int
    bubble: str

    def __post_init__(self):
        if self.bubble is not None:
            check_bubble_kind(self.bubble)

    @property
    def n_scalar(self):
        return self.n_nodes + (self.n_elements if self.bubble else 0)

    @property
    def n_disp(self):
        return self.n_scalar * self.dim

    def vertex_dof(self, node, comp):
        return node * self.dim + comp

    def reshape(self, u):
        """View a flat displacement vector as (n_scalar, dim) dof values."""
        return np.asarray(u).reshape(self.n_scalar, self.dim)


class Discretization:
    """Geometric products of one mesh: topology, micro-cells and pressure
    cells, then domains, gradients, overlaps, smoothed couplings, the
    micro-cell quadrature and the element gradient table, each built on
    first request and kept.

    Everything downstream (operators, error norms, benchmarks) pulls from
    here so the expensive pieces are built once per mesh.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        self.topo = build_topology(mesh)
        self.micro = build_micro_decomposition(mesh, self.topo)
        self.pressure_cells = build_pressure_cells(self.micro)
        self._kept = {}

    @property
    def dim(self):
        return self.mesh.dim

    def smoothing_kind(self):
        """The bubble methods' domain kind in this dimension."""
        return "edge" if self.dim == 2 else "face"

    def kept(self, key, build):
        """``build()``, called once per hashable ``key`` and kept while this
        lives: the one store of this mesh's products.  Each builder below is
        looked up when it runs, so a wrapped builder sees every build."""
        if key not in self._kept:
            self._kept[key] = build()
        return self._kept[key]

    def domains(self, kind):
        return self.kept(("domains", kind),
                         lambda: build_smoothing_domains(self.micro, kind))

    def gradient_ops(self, kind, bubble=None):
        return self.kept(("gradients", kind, bubble),
                         lambda: build_smoothed_gradient(
                             self.mesh, self.micro, self.domains(kind),
                             bubble=bubble))

    def overlap(self, kind):
        return self.kept(("overlap", kind),
                         lambda: self.pressure_cells.overlap_with_domains(
                             self.micro, self.domains(kind)))

    def coupling(self, kind, bubble):
        """The smoothed pressure coupling ``assemble_B_bar``, kept."""
        return self.kept(("B_bar", kind, bubble),
                         lambda: assemble_B_bar(self, kind, bubble))

    def quadrature(self):
        """Degree-4 volume rule over every micro-cell, built once.

        Returns (rule, X, w, lam): the reference rule, then read-only
        physical points (M, Q, d), weights (M, Q) that already include the
        micro-cell measures, and barycentric coordinates (M, Q, d+1) in
        each micro-cell's element ``micro.cell_elem``.
        """
        def build():
            micro = self.micro
            rule = simplex_quadrature(self.dim, 4)
            X = ordered_matmul(rule.points, micro.points[micro.cells])
            w = micro.measures[:, None] * rule.weights[None, :]
            lam = self.mesh.barycentric(micro.cell_elem, X)
            for a in (X, w, lam):
                a.flags.writeable = False
            return rule, X, w, lam
        return self.kept(("quadrature",), build)

    def at_quadrature(self, field):
        """``field``, a pure function of points, at the micro-cell points
        (M, Q, d), evaluated once per callable and kept while this lives."""
        return self.kept(field, lambda: field(self.quadrature()[1]))

    def element_gradients(self):
        """(rule, table): the degree-2d element rule and the read-only
        (E, Q, d+2, d) gradients of each element's d+1 hats, then its power
        bubble, at the rule's points, built once.  The rule integrates every
        product of two table entries exactly, so MINI's stiffness, its
        energy norm and the H1 Gram share it.
        """
        def build():
            mesh, dim = self.mesh, self.dim
            rule = simplex_quadrature(dim, 2 * dim)
            lam = np.broadcast_to(rule.points,
                                  (mesh.n_elements,) + rule.points.shape)
            gb = bubble_gradient("power", lam, mesh.grads)      # (E, Q, d)
            table = np.concatenate(
                [np.broadcast_to(mesh.grads[:, None],
                                 gb.shape[:2] + (dim + 1, dim)),
                 gb[:, :, None]], axis=2)
            table.flags.writeable = False
            return rule, table
        return self.kept(("element-gradients",), build)

    def dofmap(self, bubble=None):
        return DofMap(self.mesh.n_nodes, self.mesh.n_elements, self.dim,
                      bubble)


# Voigt order of the engineering strain: row v holds (i, j), the normal
# strain when i == j and the shear strain du_i/dx_j + du_j/dx_i otherwise
VOIGT_PAIRS = {2: ((0, 0), (1, 1), (0, 1)),
               3: ((0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (2, 0))}


def dof_indices(scalar, dim):
    """Interleaved displacement dofs (..., n * dim) of scalar functions
    (..., n): function j, component c sits at j * dim + c."""
    scalar = np.asarray(scalar)
    return (scalar[..., None] * dim
            + np.arange(dim)).reshape(scalar.shape[:-1] + (-1,))


def scatter_blocks(blocks, shape):
    """Sparse sum of dense local blocks.

    ``blocks`` holds (local, rows, cols) triples: local (T, r, c) values
    added at the global rows (T, r) and columns (T, c).  All triples go
    into one coordinate list, so duplicates are summed in a single pass.
    """
    data, ii, jj = [], [], []
    for local, rows, cols in blocks:
        ii.append(np.repeat(rows, cols.shape[1], axis=1).ravel())
        jj.append(np.tile(cols, (1, rows.shape[1])).ravel())
        data.append(local.ravel())
    return sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(ii), np.concatenate(jj))),
        shape=shape).tocsr()


def strain_matrix(grad):
    """Dense Voigt small-strain rows of local scalar functions.

    ``grad`` is (..., n, d), the gradients of n functions; the result is
    (..., nv, n * d) with column a * d + k the dof of component k of
    function a.
    """
    d = grad.shape[-1]
    pairs = VOIGT_PAIRS[d]
    B = np.zeros(grad.shape[:-2] + (len(pairs),) + grad.shape[-2:])
    for v, (i, j) in enumerate(pairs):
        B[..., v, :, i] = grad[..., j]
        B[..., v, :, j] = grad[..., i]
    return B.reshape(grad.shape[:-2] + (len(pairs), -1))


def _component_columns(G, dim, c):
    """G with scalar column j moved to displacement column j * dim + c."""
    return sparse.csr_matrix((G.data, G.indices * dim + c, G.indptr),
                             shape=(G.shape[0], G.shape[1] * dim))


def strain_rows(G_list):
    """Voigt strain operators, one (K x n_disp) matrix per engineering row."""
    dim = len(G_list)
    rows = []
    for i, j in VOIGT_PAIRS[dim]:
        row = _component_columns(G_list[j], dim, i)
        if i != j:
            row = row + _component_columns(G_list[i], dim, j)
        rows.append(row)
    return rows


def divergence_operator(G_list):
    """Sparse (K x n_disp) smoothed divergence."""
    dim = len(G_list)
    out = _component_columns(G_list[0], dim, 0)
    for c in range(1, dim):
        out = out + _component_columns(G_list[c], dim, c)
    return out.tocsr()


def assemble_A_bar(disc, kind, bubble, mu):
    """Smoothed shear stiffness 2 mu sum_k m_k eps_k : eps_k over the
    ``kind`` domains of ``disc``, on the space enriched by ``bubble``."""
    rows = strain_rows(disc.gradient_ops(kind, bubble))
    weights = shear_weight_vector(disc.dim)
    m = disc.domains(kind).measures
    A = None
    for Bv, w in zip(rows, weights):
        scaled = sparse.diags(2.0 * mu * w * m) @ Bv
        term = Bv.T @ scaled
        A = term if A is None else A + term
    return A.tocsr()


def assemble_lambda_stiffness(disc, kind, bubble, lam):
    """Volumetric part lam sum_k m_k div_k div_k (displacement baselines)."""
    Div = divergence_operator(disc.gradient_ops(kind, bubble))
    measures = disc.domains(kind).measures
    return (Div.T @ (sparse.diags(lam * measures) @ Div)).tocsr()


def assemble_B_bar(disc, kind, bubble=None):
    """Pressure coupling: rows are pressure cells, columns displacement dofs.

    B[i, :] = sum_k m(V_i ^ Omega_k) * (smoothed divergence row of k).
    """
    Div = divergence_operator(disc.gradient_ops(kind, bubble))
    return (disc.overlap(kind) @ Div).tocsr()


def assemble_condensed(A, B, C_diag, lam):
    """Eliminate the piecewise-constant pressure: A + lam B^T C^{-1} B."""
    W = sparse.diags(lam / C_diag)
    return (A + B.T @ (W @ B)).tocsr()


def assemble_plain_B(disc, dofmap):
    """Element-wise divergence coupling, the volume-integral counterpart of
    the smoothed B: B[i, (j,c)] = int_{V_i} d phi_j / d x_c.

    Vertex gradients are constant per element, so those entries are exact
    intersection measures times gradients; bubble entries use the degree-4
    micro-cell rule of ``disc.quadrature()``.
    """
    mesh, micro = disc.mesh, disc.micro
    dim, N = mesh.dim, mesh.n_nodes
    grads = mesh.grads
    rows, cols, vals = [], [], []

    # vertex columns: m(V_i ^ T) * grad, accumulated per micro-cell
    t = micro.cell_elem
    i = micro.cell_node
    for l in range(dim + 1):
        for c in range(dim):
            rows.append(i)
            cols.append(mesh.elements[t, l] * dim + c)
            vals.append(micro.measures * grads[t, l, c])

    if dofmap.bubble:
        rule, _, _, lam_pts = disc.quadrature()
        gb = bubble_gradient(dofmap.bubble, lam_pts, grads[t])  # (M, Q, d)
        mean = np.einsum("q,kqc->kc", rule.weights, gb)
        for c in range(dim):
            rows.append(i)
            cols.append((N + t) * dim + c)
            vals.append(micro.measures * mean[:, c])

    B = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(N, dofmap.n_disp),
    )
    return B.tocsr()


def assemble_h1_gram(disc, dofmap):
    """H1-seminorm Gram matrix of the displacement space.

    Vertex-vertex entries are the P1 stiffness; bubble-bubble entries are
    int |grad b|^2 per element; vertex-bubble couplings vanish identically
    because the bubble's gradient integrates to zero over its element.
    """
    mesh = disc.mesh
    dim, N, E = mesh.dim, mesh.n_nodes, mesh.n_elements
    grads, meas = mesh.grads, mesh.element_measures()
    local = np.einsum("t,tid,tjd->tij", meas, grads, grads)
    blocks = [(local, mesh.elements, mesh.elements)]
    if dofmap.bubble:
        if dofmap.bubble == "hat":
            diag = (dim + 1) * meas * np.einsum("tid,tid->t", grads, grads)
        else:
            rule, table = disc.element_gradients()
            diag = meas * np.einsum("q,tqd,tqd->t", rule.weights,
                                    table[:, :, -1], table[:, :, -1])
        bub = (N + np.arange(E))[:, None]
        blocks.append((diag[:, None, None], bub, bub))
    # the same scalar blocks on every displacement component
    return scatter_blocks([(vals, rows * dim + c, cols * dim + c)
                           for vals, rows, cols in blocks for c in range(dim)],
                          (dofmap.n_disp, dofmap.n_disp))


# ----------------------------------------------------------------------
# loads and constraints
# ----------------------------------------------------------------------

def assemble_loads(mesh, topo, dofmap, tractions):
    """External load vector from facet tractions.

    ``tractions`` maps boundary labels to either a constant traction vector
    of d numbers or ``("pressure", p)`` for a load of magnitude p along the
    inward facet normal (a positive p pushes into the domain); any other
    value raises ValueError.  Facet integrals are exact for the linear
    vertex functions; bubbles carry no boundary load.
    """
    f = np.zeros(dofmap.n_disp)
    dim = mesh.dim
    for label, value in tractions.items():
        facets = mesh.boundary.get(label)
        if facets is None or len(facets) == 0:
            raise ValueError(f"mesh has no boundary facets labeled {label!r}")
        try:
            ids = topo.facet_index(facets)
        except KeyError:
            raise ValueError(f"boundary facets labeled {label!r} are not all "
                             "facets of the mesh") from None
        if not np.all(topo.boundary_facet_mask[ids]):
            raise ValueError(f"traction facets labeled {label!r} must lie "
                             "on the mesh boundary")
        pts = mesh.nodes[facets]
        normal, meas = facet_normals(pts)
        # orient each normal away from the centroid of its one element
        elem_centers = mesh.nodes[mesh.elements[topo.facet_elem[ids]]]
        away = pts.mean(axis=1) - elem_centers.mean(axis=1)
        normal[np.einsum("fd,fd->f", normal, away) < 0.0] *= -1.0
        pressure = isinstance(value, tuple) and value[:1] == ("pressure",)
        try:
            vals = np.asarray(value[1:] if pressure else value, float)
        except (TypeError, ValueError):
            vals = np.empty(0)      # a shape no traction has
        if vals.shape != ((1,) if pressure else (dim,)):
            raise ValueError(f"traction labeled {label!r} must be ('pressure',"
                             f" p) or {dim} numbers, not {value!r}")
        t = (-vals[0] * normal if pressure
             else np.broadcast_to(vals, (len(facets), dim)))
        if not np.isfinite(t).all():
            raise ValueError(f"traction labeled {label!r} must be finite")
        w = meas / dim                     # int of each hat over its facet
        for l in range(dim):
            for c in range(dim):
                np.add.at(f, facets[:, l] * dim + c, w * t[:, c])
    return f


def dirichlet_dofs(mesh, dofmap):
    """Constrained displacement dofs from the boundary labels (all zero)."""
    fixed = [np.zeros(0, np.int64)]
    comp_map = {"clamped": tuple(range(mesh.dim)), "roller-x": (0,),
                "roller-y": (1,)}
    for label, comps in comp_map.items():
        facets = mesh.boundary.get(label)
        if facets is not None:
            nodes = np.unique(facets)
            fixed += [dofmap.vertex_dof(nodes, c) for c in comps]
    return np.unique(np.concatenate(fixed)).astype(np.int64)


def free_dofs(n, fixed):
    """Ascending indices of the dofs of an n-vector not listed in ``fixed``."""
    mask = np.ones(n, bool)
    mask[fixed] = False
    return np.flatnonzero(mask)


# ----------------------------------------------------------------------
# method bundles
# ----------------------------------------------------------------------

@dataclass
class OperatorBundle:
    """Assembled operators of one method on one mesh.

    For mixed methods (bes-fem, bfs-fem, mini) the saddle blocks are A, B
    and the pressure mass C (diagonal vector for the smoothed pair, sparse
    for MINI).  Displacement baselines store the full stiffness in A and
    keep node-domain recovery operators in B, C so a pressure field can be
    reported the same way for every method.  ``kind`` is the domain kind
    of the stiffness and ``dofmap.bubble`` the enrichment; error norms and
    post-processing read them here.
    """

    method: str
    dofmap: DofMap
    mat: MaterialParams
    A: sparse.csr_matrix
    B: sparse.csr_matrix
    C: object
    kind: str

    @property
    def mixed(self):
        """True for a saddle method: one with no baseline stiffness kind."""
        return _METHOD_TABLE[self.method][1] is None

    @property
    def nodal_pressure(self):
        """True for MINI's continuous P1 pressure; otherwise the pressure
        holds one constant per node-centered cell."""
        return self.method == "mini"


def assemble_method(disc, method, mat, bubble="power"):
    """Build the OperatorBundle of any supported method on a Discretization.

    ``bubble`` enriches bes-fem and bfs-fem; MINI always uses the power
    bubble and the displacement baselines none.
    """
    method = canonical_method(method)
    dim = disc.dim
    only_dim, kind = _METHOD_TABLE[method]
    if only_dim not in (None, dim):
        raise ValueError(f"{method} is defined in {only_dim}D only, "
                         f"not on this {dim}D mesh")
    if method == "mini":
        return _assemble_mini(disc, mat)

    C = disc.pressure_cells.measures.copy()
    if kind is None:
        check_bubble_kind(bubble)
        kind = disc.smoothing_kind()
        A = assemble_A_bar(disc, kind, bubble, mat.mu)
        B = disc.coupling(kind, bubble)
        return OperatorBundle(method, disc.dofmap(bubble), mat, A, B, C, kind)

    A = assemble_A_bar(disc, kind, None, mat.mu) \
        + assemble_lambda_stiffness(disc, kind, None, mat.lam)
    # node-domain recovery operators give every baseline a reportable pressure
    B = disc.coupling("node", None)
    return OperatorBundle(method, disc.dofmap(), mat, A.tocsr(), B, C, kind)


def _assemble_mini(disc, mat):
    """Classical MINI: P1 + power bubble velocity, continuous P1 pressure."""
    mesh = disc.mesh
    dim, N, E = mesh.dim, mesh.n_nodes, mesh.n_elements
    dofmap = disc.dofmap("power")
    meas = mesh.element_measures()
    rule, gradtab = disc.element_gradients()
    lam = np.broadcast_to(rule.points, gradtab.shape[:2] + (dim + 1,))
    Bq = strain_matrix(gradtab)
    Dw = 2.0 * mat.mu * shear_weight_vector(dim)
    # these einsums keep their own summation order: no faster form that
    # sums in the same order is known, and the reference outputs pin it
    A_loc = np.einsum("tqvp,v,tqvr,q,t->tpr", Bq, Dw, Bq, rule.weights, meas)
    loc_dofs = dof_indices(
        np.column_stack([mesh.elements, N + np.arange(E)]), dim)
    A = scatter_blocks([(A_loc, loc_dofs, loc_dofs)],
                       (dofmap.n_disp, dofmap.n_disp))

    # pressure coupling int q div u, pressure mass int p q
    B_loc = np.einsum("tqi,tqjc,q,t->tijc", lam, gradtab, rule.weights, meas)
    B = scatter_blocks([(B_loc.reshape(E, dim + 1, -1), mesh.elements,
                         loc_dofs)], (N, dofmap.n_disp))
    M_loc = np.einsum("tqi,tqj,q,t->tij", lam, lam, rule.weights, meas)
    C = scatter_blocks([(M_loc, mesh.elements, mesh.elements)], (N, N))
    return OperatorBundle("mini", dofmap, mat, A, B, C, "element")

"""Micro-cell decomposition, smoothing domains, and pressure cells.

Every element is split into equal-measure micro-simplices keyed by the
entities they touch: the chains (vertex, edge midpoint, [face centroid,]
centroid), one per (facet, edge of the facet, endpoint), 6 per triangle
and 24 per tetrahedron.  One table of the reference element's chains,
derived from ``mesh.LOCAL_EDGES`` and ``mesh.LOCAL_FACETS``, gives them
for every element in 2D and 3D.
All the domain systems used by the solvers are unions of these micro-cells:

* edge-based smoothing domains (2D): micro-cells sharing a mesh edge,
* face-based smoothing domains (3D): micro-cells sharing a mesh face,
* node-based smoothing domains: micro-cells sharing a mesh vertex,
* element "domains": the element itself (plain FEM viewed in the same frame),
* pressure cells: micro-cells sharing a vertex (the node-centered third mesh).

Because the micro-cells have exactly equal measure within an element, the
intersection measures between any two of these systems reduce to counting
micro-cells, which is what makes the pairing between smoothing domains and
pressure cells exact.

Micro-cell vertices are identified by symbolic point ids (mesh vertices,
then edge midpoints, then face centroids, then element centroids), so
shared internal facets cancel by integer comparison rather than any
floating-point matching: each micro-facet is an integer row (domain,
sorted point ids), and one lexsort of those rows (``mesh.unique_rows``)
finds the rows that occur twice.
"""

from dataclasses import dataclass

import numpy as np

from .mesh import LOCAL_EDGES, LOCAL_FACETS, simplex_measures, unique_rows

DOMAIN_KINDS = ("edge", "face", "node", "element")


@dataclass
class MicroCellDecomposition:
    """Equal-measure micro-simplices of all elements with entity keys.

    Attributes
    ----------
    points : (P, d) coordinates of all symbolic points; the first
        ``n_mesh_nodes`` rows are the mesh vertices themselves.
    cells : (M, d+1) point ids, positively oriented.
    cell_elem, cell_node, cell_facet : (M,) element, mesh-vertex and
        mesh-facet (edge in 2D, face in 3D) keys of each micro-cell.
    measures : (M,) micro-cell measures (m(T)/6 in 2D, m(T)/24 in 3D).
    """

    dim: int
    n_mesh_nodes: int
    points: np.ndarray
    cells: np.ndarray
    cell_elem: np.ndarray
    cell_node: np.ndarray
    cell_facet: np.ndarray
    measures: np.ndarray

    @property
    def n_cells(self):
        return len(self.cells)


@dataclass
class SmoothingDomainSet:
    """Micro-cell domains of one kind with their boundary facets.

    Domain k is the set of micro-cells whose ``dom_of_cell`` is k.  The
    boundary facets are stored globally in domain order (a facet's domain
    is ``dom_of_cell[facet_cell]``); each keeps the outward orientation of
    ``facet_cell``, its owning micro-cell.
    """

    n_domains: int
    dom_of_cell: np.ndarray     # (M,) domain id of each micro-cell
    measures: np.ndarray        # (K,) domain measures
    facet_pts: np.ndarray       # (F, d) point ids, outward oriented
    facet_cell: np.ndarray      # (F,) owning micro-cell


@dataclass
class PressureCellSet:
    """Node-centered pressure cells (the third mesh): one cell per vertex."""

    n_cells: int
    measures: np.ndarray        # (N,) cell measures

    def overlap_with_domains(self, micro, domains):
        """Sparse (N, K) matrix of intersection measures m(V_i ^ Omega_k)."""
        from scipy.sparse import coo_matrix

        mat = coo_matrix(
            (micro.measures, (micro.cell_node, domains.dom_of_cell)),
            shape=(self.n_cells, domains.n_domains),
        )
        return mat.tocsr()


def _chain_points(nodes, entities, elements):
    """The vertices, the centroid of every row of each entity table, then
    the element centroids: the points that micro-cell chains join."""
    return np.vstack([nodes, *(nodes[rows].mean(axis=1) for rows in entities),
                      nodes[elements].mean(axis=1)])


def _micro_slots(dim):
    """The reference element's micro-cells: (S, d+1) local point ids, in
    the order of ``_chain_points``, and the (S,) local facet of each.

    Chains run per local facet, per edge of the facet (in 2D the facet
    itself, in 3D its edges in cyclic order) and per endpoint.  The
    endpoint whose chain is positively oriented comes first; the other
    swaps its 2nd and 3rd points.
    """
    edges, facets = LOCAL_EDGES[dim], LOCAL_FACETS[dim]
    corners = np.vstack([np.zeros(dim), np.eye(dim)])
    # the entities strictly between vertex and element: edges, [facets]
    ref = _chain_points(corners, (edges, facets)[:dim - 1],
                        np.arange(dim + 1)[None])
    mid = {frozenset(e): dim + 1 + i for i, e in enumerate(edges.tolist())}
    slots, slot_facet = [], []
    for f, verts in enumerate(facets.tolist()):
        pairs = [verts] if dim == 2 else zip(verts, verts[1:] + verts[:1])
        centre = [] if dim == 2 else [dim + 1 + len(edges) + f]
        for a, b in pairs:
            chains = [[v, mid[frozenset((a, b))], *centre, len(ref) - 1]
                      for v in (a, b)]
            if np.linalg.det(ref[chains[0][1:]] - ref[chains[0][0]]) < 0.0:
                chains.reverse()
            chains[1][1], chains[1][2] = chains[1][2], chains[1][1]
            slots += chains
            slot_facet += [f, f]
    return np.array(slots), np.array(slot_facet)


def build_micro_decomposition(mesh, topo):
    """Split every element into 6 (2D) or 24 (3D) keyed micro-simplices.

    One fancy index of each element's local point ids takes every
    ``_micro_slots`` cell.  Cells are slot-major (every element's first
    slot, then every element's second, ...), which fixes the order of
    every sum over micro-cells.
    """
    N, E, dim = mesh.n_nodes, mesh.n_elements, mesh.dim
    entities = (topo.edges, topo.facets)[:dim - 1]
    points = _chain_points(mesh.nodes, entities, mesh.elements)
    # each block of points starts after the rows of the blocks before it
    start = np.cumsum([N] + [len(rows) for rows in entities])
    ids = (topo.elem_edges, topo.elem_facets)[:dim - 1]
    local = np.column_stack([mesh.elements, *map(np.add, start, ids),
                             start[-1] + np.arange(E)])
    slots, slot_facet = _micro_slots(dim)
    cells = local[:, slots].swapaxes(0, 1).reshape(-1, dim + 1)
    measures = simplex_measures(points, cells)
    if np.any(measures <= 0.0):
        bad = int(np.flatnonzero(measures <= 0.0)[0])
        raise RuntimeError(f"micro-cell {bad} has non-positive measure")
    return MicroCellDecomposition(
        dim=dim, n_mesh_nodes=N, points=points, cells=cells,
        cell_elem=np.tile(np.arange(E, dtype=np.int64), len(slots)),
        cell_node=np.ascontiguousarray(cells[:, 0]),
        cell_facet=topo.elem_facets[:, slot_facet].T.ravel(),
        measures=measures,
    )


def build_smoothing_domains(micro, kind):
    """Group micro-cells into domains of one kind and trace their boundaries.

    ``kind`` is 'edge' (2D), 'face' (3D), 'node', or 'element'.  Internal
    micro-facets shared by two member cells cancel symbolically; what
    remains is the domain boundary with outward orientation.
    """
    if kind not in DOMAIN_KINDS:
        raise ValueError(f"unknown domain kind {kind!r}; expected {DOMAIN_KINDS}")
    used_in = {"edge": 2, "face": 3}.get(kind, micro.dim)
    if used_in != micro.dim:
        raise ValueError(f"{kind}-based domains are used in {used_in}D")
    dom = {"node": micro.cell_node,
           "element": micro.cell_elem}.get(kind, micro.cell_facet)
    n_domains = int(dom.max()) + 1
    measures = np.bincount(dom, weights=micro.measures, minlength=n_domains)

    # all micro-cell facets with outward orientation
    M, d = micro.n_cells, micro.dim
    faces = micro.cells[:, LOCAL_FACETS[d]].reshape(M * (d + 1), d)
    owner = np.repeat(np.arange(M), d + 1)
    key = np.column_stack([dom[owner], np.sort(faces, axis=1)])
    _, inverse, counts = unique_rows(key)
    keep = counts[inverse] == 1
    faces, owner = faces[keep], owner[keep]
    order = np.argsort(dom[owner], kind="stable")
    return SmoothingDomainSet(
        n_domains=n_domains, dom_of_cell=dom, measures=measures,
        facet_pts=np.ascontiguousarray(faces[order]), facet_cell=owner[order],
    )


def build_pressure_cells(micro):
    """Node-centered pressure cells assembled from the same micro-cells."""
    n = micro.n_mesh_nodes
    measures = np.bincount(micro.cell_node, weights=micro.measures, minlength=n)
    return PressureCellSet(n_cells=n, measures=measures)


def domain_diameters(micro, dom):
    """Half of the largest vertex distance within each domain.

    ``dom`` holds each micro-cell's domain (``dom_of_cell``; the node
    domains need not be built: theirs is ``micro.cell_node``).  The
    distinct (domain, vertex) pairs come from one sort of int64 keys and a
    mask of adjacent differences; domains with equal vertex counts are then
    measured together over their vertex pairs, in chunks that bound the
    difference array.  Each squared distance is summed as in a per-domain
    loop, so the values are exact repeats of it.
    """
    n_domains = int(dom.max()) + 1
    n_pts = np.int64(len(micro.points))
    keys = np.sort((dom[:, None] * n_pts + micro.cells).ravel())
    keys = keys[np.diff(keys, prepend=-1) != 0]
    dom_of, vert = np.divmod(keys, n_pts)
    ptr = np.searchsorted(dom_of, np.arange(n_domains + 1))
    sizes = np.diff(ptr)
    out = np.empty(n_domains)
    for n in np.unique(sizes):
        rows = np.flatnonzero(sizes == n)
        i, j = np.triu_indices(n, 1)
        step = max(1, 2 ** 18 // len(i))   # about 6 MB of 3D differences
        for part in np.split(rows, np.arange(step, len(rows), step)):
            pts = micro.points[vert[ptr[part][:, None] + np.arange(n)]]
            diff = pts[:, i] - pts[:, j]
            out[part] = 0.5 * np.sqrt((diff ** 2).sum(-1).max(axis=1))
    return out


def mesh_size(micro, domain_keys):
    """Characteristic h: the largest cell radius over domain systems given
    by their micro-cell domain keys (see ``domain_diameters``)."""
    return max(float(domain_diameters(micro, dom).max())
               for dom in domain_keys)

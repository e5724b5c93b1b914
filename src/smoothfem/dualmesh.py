"""Micro-cell decomposition, smoothing domains, and pressure cells.

Every element is split into equal-measure micro-simplices keyed by the
entities they touch.  In 2D each triangle yields 6 micro-triangles
(vertex, edge midpoint, centroid), one per (edge, endpoint) pair; in 3D
each tetrahedron yields 24 micro-tetrahedra (vertex, edge midpoint, face
centroid, element centroid), one per (face, edge-of-face, endpoint) triple.
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

from .basis import affine_maps
from .mesh import csr_groups, element_facets, unique_rows

_TRI_DIRECTED = ((1, 2), (2, 0), (0, 1))
_TET_EDGE_INDEX = {(0, 1): 0, (0, 2): 1, (0, 3): 2, (1, 2): 3, (1, 3): 4, (2, 3): 5}
_TET_FACES = ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1))

DOMAIN_KINDS = ("edge", "face", "node", "element")


@dataclass
class MicroCellDecomposition:
    """Equal-measure micro-simplices of all elements with entity keys.

    Attributes
    ----------
    points : (P, d) coordinates of all symbolic points; the first
        ``n_mesh_nodes`` rows are the mesh vertices themselves.
    cells : (M, d+1) point ids, positively oriented.
    cell_elem, cell_node, cell_edge : (M,) entity keys of each micro-cell.
    cell_face : (M,) face keys (3D) or None.
    measures : (M,) micro-cell measures (m(T)/6 in 2D, m(T)/24 in 3D).
    """

    dim: int
    n_mesh_nodes: int
    points: np.ndarray
    cells: np.ndarray
    cell_elem: np.ndarray
    cell_node: np.ndarray
    cell_edge: np.ndarray
    cell_face: np.ndarray
    measures: np.ndarray

    @property
    def n_cells(self):
        return len(self.cells)


@dataclass
class SmoothingDomainSet:
    """Micro-cell domains of one kind with their boundary facets.

    Facets are stored globally, grouped by domain: domain k owns
    ``facet_pts[facet_ptr[k]:facet_ptr[k+1]]``.  Each facet keeps the
    outward orientation inherited from its owning micro-cell, and
    ``facet_cell`` records that owner (for element lookups).
    """

    kind: str
    n_domains: int
    dom_of_cell: np.ndarray     # (M,) domain id of each micro-cell
    measures: np.ndarray        # (K,) domain measures
    cell_ptr: np.ndarray        # CSR over domains into cell_ids
    cell_ids: np.ndarray
    facet_pts: np.ndarray       # (F, d) point ids, outward oriented
    facet_cell: np.ndarray      # (F,) owning micro-cell
    facet_ptr: np.ndarray       # CSR over domains into facet rows

    def cells_of(self, k):
        return self.cell_ids[self.cell_ptr[k]:self.cell_ptr[k + 1]]


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


def build_micro_decomposition(mesh, topo):
    """Split every element into 6 (2D) or 24 (3D) keyed micro-simplices."""
    if mesh.dim == 2:
        return _micro_2d(mesh, topo)
    return _micro_3d(mesh, topo)


def _micro_2d(mesh, topo):
    N, E, NE = mesh.n_nodes, mesh.n_elements, topo.n_edges
    nodes, elems = mesh.nodes, mesh.elements
    points = np.vstack([
        nodes,
        0.5 * (nodes[topo.edges[:, 0]] + nodes[topo.edges[:, 1]]),
        nodes[elems].mean(axis=1),
    ])
    mid_id = N + topo.elem_edges              # (E, 3) midpoint ids per local edge
    cen_id = N + NE + np.arange(E)

    cells, c_elem, c_node, c_edge = [], [], [], []
    for l, (a, b) in enumerate(_TRI_DIRECTED):
        va, vb, m = elems[:, a], elems[:, b], mid_id[:, l]
        # tail endpoint: (v_a, m, c) is CCW; head endpoint: (v_b, c, m)
        cells.append(np.column_stack([va, m, cen_id]))
        c_node.append(va)
        cells.append(np.column_stack([vb, cen_id, m]))
        c_node.append(vb)
        for _ in range(2):
            c_elem.append(np.arange(E))
            c_edge.append(topo.elem_edges[:, l])
    return _finalize_micro(mesh, points, cells, c_elem, c_node, c_edge, None, N)


def _micro_3d(mesh, topo):
    N, E = mesh.n_nodes, mesh.n_elements
    NE, NF = topo.n_edges, topo.n_facets
    nodes, elems = mesh.nodes, mesh.elements
    points = np.vstack([
        nodes,
        0.5 * (nodes[topo.edges[:, 0]] + nodes[topo.edges[:, 1]]),
        nodes[topo.facets].mean(axis=1),
        nodes[elems].mean(axis=1),
    ])
    mid_id = N + topo.elem_edges               # (E, 6)
    fc_id = N + NE + topo.elem_facets          # (E, 4)
    cen_id = N + NE + NF + np.arange(E)

    cells, c_elem, c_node, c_edge, c_face = [], [], [], [], []
    for fi, face in enumerate(_TET_FACES):
        g = fc_id[:, fi]
        face_edges = ((face[0], face[1]), (face[1], face[2]), (face[2], face[0]))
        for a, b in face_edges:
            le = _TET_EDGE_INDEX[(min(a, b), max(a, b))]
            va, vb, m = elems[:, a], elems[:, b], mid_id[:, le]
            # head endpoint of the outward-directed face edge: (v_b, m, g, c)
            # is positive; tail endpoint needs one swap: (v_a, g, m, c)
            cells.append(np.column_stack([vb, m, g, cen_id]))
            c_node.append(vb)
            cells.append(np.column_stack([va, g, m, cen_id]))
            c_node.append(va)
            for _ in range(2):
                c_elem.append(np.arange(E))
                c_edge.append(topo.elem_edges[:, le])
                c_face.append(topo.elem_facets[:, fi])
    return _finalize_micro(mesh, points, cells, c_elem, c_node, c_edge, c_face, N)


def _finalize_micro(mesh, points, cells, c_elem, c_node, c_edge, c_face, N):
    cells = np.ascontiguousarray(np.vstack(cells), dtype=np.int64)
    cell_elem = np.concatenate([np.asarray(a, np.int64) for a in c_elem])
    cell_node = np.concatenate([np.asarray(a, np.int64) for a in c_node])
    cell_edge = np.concatenate([np.asarray(a, np.int64) for a in c_edge])
    cell_face = (np.concatenate([np.asarray(a, np.int64) for a in c_face])
                 if c_face is not None else None)
    _, measures = affine_maps(points, cells)
    if np.any(measures <= 0.0):
        bad = int(np.flatnonzero(measures <= 0.0)[0])
        raise RuntimeError(f"micro-cell {bad} has non-positive measure")
    return MicroCellDecomposition(
        dim=mesh.dim, n_mesh_nodes=N, points=points, cells=cells,
        cell_elem=cell_elem, cell_node=cell_node, cell_edge=cell_edge,
        cell_face=cell_face, measures=measures,
    )


def build_smoothing_domains(micro, kind):
    """Group micro-cells into domains of one kind and trace their boundaries.

    ``kind`` is 'edge' (2D), 'face' (3D), 'node', or 'element'.  Internal
    micro-facets shared by two member cells cancel symbolically; what
    remains is the domain boundary with outward orientation.
    """
    if kind not in DOMAIN_KINDS:
        raise ValueError(f"unknown domain kind {kind!r}; expected {DOMAIN_KINDS}")
    if kind == "edge":
        if micro.dim != 2:
            raise ValueError("edge-based domains are used in 2D")
        dom = micro.cell_edge
    elif kind == "face":
        if micro.dim != 3:
            raise ValueError("face-based domains are used in 3D")
        dom = micro.cell_face
    elif kind == "node":
        dom = micro.cell_node
    else:
        dom = micro.cell_elem
    n_domains = int(dom.max()) + 1
    measures = np.bincount(dom, weights=micro.measures, minlength=n_domains)

    cell_ptr, cell_ids = csr_groups(dom, n_domains)

    # all micro-cell facets with outward orientation
    pattern = element_facets(micro.dim)
    M, d = micro.n_cells, micro.dim
    faces = micro.cells[:, pattern].reshape(M * (d + 1), d)
    owner = np.repeat(np.arange(M), d + 1)
    key = np.column_stack([dom[owner], np.sort(faces, axis=1)])
    _, inverse, counts = unique_rows(key)
    keep = counts[inverse] == 1
    faces, owner = faces[keep], owner[keep]
    fdom = dom[owner]
    facet_ptr, order = csr_groups(fdom, n_domains)
    return SmoothingDomainSet(
        kind=kind, n_domains=n_domains, dom_of_cell=dom, measures=measures,
        cell_ptr=cell_ptr, cell_ids=cell_ids,
        facet_pts=np.ascontiguousarray(faces[order]),
        facet_cell=owner[order], facet_ptr=facet_ptr,
    )


def build_pressure_cells(micro):
    """Node-centered pressure cells assembled from the same micro-cells."""
    n = micro.n_mesh_nodes
    measures = np.bincount(micro.cell_node, weights=micro.measures, minlength=n)
    return PressureCellSet(n_cells=n, measures=measures)


def domain_diameters(micro, domains):
    """Half of the largest vertex distance within each domain.

    The distinct (domain, vertex) pairs come from one sort of int64 keys
    and a mask of adjacent differences; domains with equal vertex counts
    are then measured together over their vertex pairs, in chunks that
    bound the difference array.  Each squared distance is summed as in a
    per-domain loop, so the values are exact repeats of it.
    """
    n_pts = np.int64(len(micro.points))
    dom = np.repeat(np.arange(domains.n_domains, dtype=np.int64),
                    np.diff(domains.cell_ptr))
    verts = micro.cells[domains.cell_ids]
    keys = np.sort((dom[:, None] * n_pts + verts).ravel())
    keys = keys[np.diff(keys, prepend=-1) != 0]
    dom_of, vert = np.divmod(keys, n_pts)
    ptr = np.searchsorted(dom_of, np.arange(domains.n_domains + 1))
    sizes = np.diff(ptr)
    out = np.empty(domains.n_domains)
    for n in np.unique(sizes):
        rows = np.flatnonzero(sizes == n)
        i, j = np.triu_indices(n, 1)
        step = max(1, 2 ** 18 // len(i))   # about 6 MB of 3D differences
        for part in np.split(rows, np.arange(step, len(rows), step)):
            pts = micro.points[vert[ptr[part][:, None] + np.arange(n)]]
            diff = pts[:, i] - pts[:, j]
            out[part] = 0.5 * np.sqrt((diff ** 2).sum(-1).max(axis=1))
    return out


def mesh_size(micro, domain_sets):
    """Characteristic h: the largest cell radius over the given domain sets."""
    h = 0.0
    for ds in domain_sets:
        h = max(h, float(domain_diameters(micro, ds).max()))
    return h

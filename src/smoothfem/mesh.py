"""Simplicial meshes: benchmark generators, topology, distortion.

A mesh is triangles (2D) or tetrahedra (3D) with consistently positive
orientation and a set of labeled boundary facet groups.  The label
vocabulary is fixed:

``clamped``
    All displacement components are fixed to zero.
``roller-x`` / ``roller-y``
    The named component is fixed to zero (symmetry planes).
``traction``
    A prescribed surface load is applied here.
``free``
    Natural boundary, listed for completeness.

Generators produce the structured benchmark geometries (Cook's membrane,
a quarter pipe annulus, a quarter 3D block) with these labels attached, so
downstream code never re-derives boundary semantics from coordinates.
"""

import numbers
from dataclasses import dataclass, field
from math import factorial

import numpy as np

BOUNDARY_LABELS = ("clamped", "roller-x", "roller-y", "traction", "free")

# the reference simplex: local facet i is opposite vertex i and outward
# oriented, and in 2D local edge i is facet i
LOCAL_FACETS = {2: np.array([(1, 2), (2, 0), (0, 1)]),
                3: np.array([(1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1)])}
LOCAL_EDGES = {2: LOCAL_FACETS[2],
               3: np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])}


@dataclass
class PrimalMesh:
    """Simplicial mesh with labeled boundary facets.

    Attributes
    ----------
    nodes : (N, d) float array of vertex coordinates.
    elements : (E, d+1) int array of node ids, positively oriented.
    boundary : dict mapping label -> (F, d) int array of facet node tuples.
    grads : (E, d+1, d) constant gradient of each element's vertex hats,
        the element frames that every downstream builder reads.
    """

    nodes: np.ndarray
    elements: np.ndarray
    boundary: dict = field(default_factory=dict)

    def __post_init__(self):
        self.nodes = np.ascontiguousarray(np.asarray(self.nodes, float))
        self.elements = np.ascontiguousarray(np.asarray(self.elements, np.int64))
        if self.nodes.ndim != 2 or self.nodes.shape[1] not in (2, 3):
            raise ValueError(f"nodes have shape {self.nodes.shape}; "
                             "expected (N, 2) or (N, 3)")
        bad = np.flatnonzero(~np.isfinite(self.nodes).all(axis=-1))
        if bad.size:
            raise ValueError(f"node {bad[0]} has non-finite coordinates")
        given, self.boundary = self.boundary, {}
        for label, facets in given.items():
            if label not in BOUNDARY_LABELS:
                raise ValueError(f"unknown boundary label {label!r}")
            facets = np.asarray(facets, np.int64)
            if facets.size and facets.shape[1:] != (self.dim,):
                raise ValueError(f"{label} facets have shape {facets.shape}; "
                                 f"expected (F, {self.dim})")
            self.boundary[label] = np.ascontiguousarray(
                facets.reshape(-1, self.dim))
        if self.elements.ndim != 2 or self.elements.shape[1] != self.dim + 1:
            raise ValueError(f"elements have shape {self.elements.shape}; "
                             f"expected (E, {self.dim + 1})")
        for what, ids in [("element", self.elements), *self.boundary.items()]:
            if ids.size and (ids.min() < 0 or ids.max() >= self.n_nodes):
                raise ValueError(f"{what} vertex ids must lie in "
                                 f"[0, {self.n_nodes})")
        edges = _edge_matrices(self.nodes, self.elements)
        measures = _signed_measures(edges)
        bad = np.flatnonzero(measures <= 0.0)
        if bad.size:
            raise ValueError(
                f"element {bad[0]} has non-positive measure {measures[bad[0]]:.3e}"
            )
        # the inverse edge matrix's columns are the vertex-1.. hat gradients
        self.grads = np.empty((self.n_elements, self.dim + 1, self.dim))
        self.grads[:, 1:, :] = np.swapaxes(np.linalg.inv(edges), 1, 2)
        self.grads[:, 0, :] = -self.grads[:, 1:, :].sum(axis=1)
        self._measures = measures

    @property
    def dim(self):
        return self.nodes.shape[1]

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_elements(self):
        return len(self.elements)

    def element_measures(self):
        """Areas (2D) or volumes (3D), all positive."""
        return self._measures.copy()

    def barycentric(self, elem_ids, X):
        """Barycentric coordinates (F, Q, d+1) of points X (F, Q, d) in the
        elements ``elem_ids`` (F,)."""
        rel = X - self.nodes[self.elements[elem_ids, 0]][..., None, :]
        # the inverse edge matrix: the vertex-1.. hat gradients transposed
        inv = np.swapaxes(self.grads[elem_ids, 1:, :], 1, 2)
        lam_rest = ordered_matmul(rel, inv)
        lam0 = 1.0 - lam_rest.sum(axis=-1, keepdims=True)
        return np.concatenate([lam0, lam_rest], axis=-1)

    def copy_with_nodes(self, nodes):
        return PrimalMesh(nodes, self.elements.copy(),
                          {k: v.copy() for k, v in self.boundary.items()})


def ordered_matmul(a, b):
    """Batched ``a @ b`` over the last axis of ``a``, summed in index order.

    Adds the products a[..., i, None] * b[..., None, i, :] one at a time,
    i = 0, 1, ...: the order of ``np.einsum``'s generic loop, so it gives
    einsum's bytes in less time.  The reference outputs pin every float
    that feeds an operator, which rules out ``np.matmul``'s order.
    """
    out = a[..., 0, None] * b[..., None, 0, :]
    for i in range(1, a.shape[-1]):
        out += a[..., i, None] * b[..., None, i, :]
    return out


def _edge_matrices(points, cells):
    """(C, d, d) edge matrices of simplices: row i is v_(i+1) - v_0."""
    verts = np.asarray(points, float)[cells]
    return verts[:, 1:, :] - verts[:, :1, :]


def _signed_measures(edges):
    return np.linalg.det(edges) / factorial(edges.shape[-1])


def simplex_measures(points, cells):
    """Signed measures det(v_1 - v_0, ..., v_d - v_0) / d! of the simplices
    ``cells`` (C, d+1) over ``points`` (P, d): positive where a cell is
    positively oriented."""
    return _signed_measures(_edge_matrices(points, cells))


@dataclass
class Topology:
    """Unique edges/faces of a mesh and one element of each facet.

    ``facet_*`` refers to codimension-1 entities (edges in 2D, faces in 3D);
    in 2D the edge and facet tables coincide.
    """

    edges: np.ndarray          # (NE, 2) sorted node pairs, rows lexsorted
    elem_edges: np.ndarray     # (E, n_local_edges) edge ids
    facets: np.ndarray         # (NF, d) sorted node tuples, rows lexsorted
    elem_facets: np.ndarray    # (E, d+1) facet ids, local facet i opposite vertex i
    facet_elem: np.ndarray     # (NF,) an element holding each facet
    boundary_facet_mask: np.ndarray  # (NF,) true where exactly one element

    def boundary_nodes(self):
        return np.unique(self.facets[self.boundary_facet_mask])

    def facet_index(self, facet_nodes):
        """Map (F, d) facet node tuples to facet ids (raises on a miss).

        The facet rows are lexsorted, so the facets that share a query's
        first node form one run of rows; a binary search finds each run
        and one comparison checks its few rows.
        """
        key = np.sort(np.asarray(facet_nodes, np.int64), axis=1)
        first = self.facets[:, 0]
        lo = np.searchsorted(first, key[:, 0], side="left")
        hi = np.searchsorted(first, key[:, 0], side="right")
        cand = lo[:, None] + np.arange((hi - lo).max(initial=0))
        inside = cand < hi[:, None]
        cand[~inside] = 0
        match = inside & np.all(self.facets[cand] == key[:, None], axis=2)
        if not np.all(match.any(axis=1)):
            raise KeyError("facet not present in mesh")
        return cand[match]      # the rows are unique: one match per query


def unique_rows(rows):
    """(unique, inverse, counts) of the rows of a 2-D integer array.

    The same lexicographically sorted rows, inverse and counts as
    ``np.unique(rows, axis=0, return_inverse=True, return_counts=True)``,
    from one ``np.lexsort`` over the columns and a comparison of adjacent
    rows, without packing a row into one key (so ids never overflow).
    """
    rows = np.asarray(rows)
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    first = np.ones(len(rows), bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=first[1:])
    inverse = np.empty(len(rows), np.intp)
    inverse[order] = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    counts = np.diff(starts, append=len(rows))
    return ordered[starts], inverse, counts


def _local_entities(elems, table):
    """Unique sorted node tuples of one local table and each element's ids."""
    rows = np.sort(elems[:, table].reshape(-1, table.shape[1]), axis=1)
    unique, inverse, _ = unique_rows(rows)
    return unique, inverse.reshape(len(elems), len(table))


def build_topology(mesh):
    """Enumerate unique edges and facets and an element of each facet."""
    elems, dim = mesh.elements, mesh.dim
    edges, elem_edges = _local_entities(elems, LOCAL_EDGES[dim])
    facets, elem_facets = ((edges, elem_edges) if dim == 2 else
                           _local_entities(elems, LOCAL_FACETS[dim]))
    facet_elem = np.empty(len(facets), np.intp)
    facet_elem[elem_facets] = np.arange(len(elems))[:, None]
    boundary_mask = np.bincount(elem_facets.ravel()) == 1
    return Topology(edges, elem_edges, facets, elem_facets, facet_elem,
                    boundary_mask)


# ----------------------------------------------------------------------
# benchmark geometries
# ----------------------------------------------------------------------

def _grid(sides):
    """Nodes of a structured grid with ``sides`` cells per axis.

    Returns ``(index, ids)``: ``index`` (N, d) holds the integer
    coordinates of the nodes, numbered with the first axis fastest, and
    ``ids[i, j(, k)]`` is the id of node (i, j(, k)).
    """
    shape = tuple(n + 1 for n in sides)
    ids = np.arange(np.prod(shape)).reshape(shape[::-1]).T
    index = np.indices(shape).reshape(len(shape), -1, order="F").T
    return index, ids


def _grid_triangles(ids):
    """Two CCW triangles per grid quad, the quads in node order."""
    q = ids.T
    n00, n10, n01, n11 = q[:-1, :-1], q[:-1, 1:], q[1:, :-1], q[1:, 1:]
    return np.stack([n00, n10, n11, n00, n11, n01], axis=-1).reshape(-1, 3)


def _line_facets(indices):
    return np.column_stack([indices[:-1], indices[1:]])


COOK_CORNERS = ((0.0, 0.0), (48.0, 44.0), (48.0, 60.0), (0.0, 44.0))  # ccw
PIPE_RADII = (1.0, 2.0)     # inner and outer radius of the pressurized pipe
BLOCK_SIZE = (50.0, 50.0, 50.0)     # edge lengths of the quarter block


def generate_cook(resolution):
    """Cook's membrane: clamped left edge, vertical traction on the right.

    Corners ``COOK_CORNERS``; ``resolution`` is n or (nx, ny) quads per
    side, each split into two triangles.
    """
    nx, ny = _sides(resolution, 2)
    index, ids = _grid((nx, ny))
    xi, eta = index[:, 0] / nx, index[:, 1] / ny
    _, (width, low), (_, high), (_, left) = COOK_CORNERS
    nodes = np.column_stack(
        [width * xi, low * xi + eta * (left - (left - high + low) * xi)])
    boundary = {
        "clamped": _line_facets(ids[0]),
        "traction": _line_facets(ids[-1]),
        "free": np.vstack([_line_facets(ids[:, 0]), _line_facets(ids[:, -1])]),
    }
    return PrimalMesh(nodes, _grid_triangles(ids), boundary)


def generate_annulus(resolution):
    """Quarter annulus (pipe cross-section) of radii ``PIPE_RADII``.

    ``resolution`` is n or (n_radial, n_circumferential); the inner arc is
    the pressurized ``traction`` boundary, the outer arc is free, y = 0 gets
    ``roller-y`` and x = 0 gets ``roller-x``.
    """
    nr, nt = _sides(resolution, 2, derive=lambda n: 2 * n)
    inner, outer = PIPE_RADII
    index, ids = _grid((nr, nt))
    r = inner + (outer - inner) * index[:, 0] / nr
    th = 0.5 * np.pi * index[:, 1] / nt
    nodes = np.column_stack([r * np.cos(th), r * np.sin(th)])
    boundary = {
        "traction": _line_facets(ids[0]),
        "free": _line_facets(ids[-1]),
        "roller-y": _line_facets(ids[:, 0]),
        "roller-x": _line_facets(ids[:, -1]),
    }
    return PrimalMesh(nodes, _grid_triangles(ids), boundary)


# Kuhn's six tetrahedra of the unit cell (IBM J. Res. Dev. 4, 1960) as
# (6, 4, 3) corner offsets: row m walks from (0,0,0) to (1,1,1) along the
# axes in the m-th order, and an odd order's last two corners swap so that
# every tetrahedron is positive
_KUHN_STEPS = np.eye(3, dtype=np.int64)[
    [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]]
_KUHN_PATHS = np.pad(np.cumsum(_KUHN_STEPS, axis=1), ((0, 0), (1, 0), (0, 0)))
_KUHN_TABLE = np.where(np.linalg.det(_KUHN_STEPS)[:, None, None] < 0,
                       _KUHN_PATHS[:, [0, 1, 3, 2]], _KUHN_PATHS)


def generate_block(resolution, size=BLOCK_SIZE, pattern="uniform"):
    """Quarter block, clamped base, pressure patch on top near the corner.

    The box [0,sx]x[0,sy]x[0,sz] starts from a grid of resolution
    (nx,ny,nz) cells.  With ``pattern="uniform"`` each cell is split into
    six Kuhn tetrahedra sharing the cell diagonal.  That pattern is exactly
    reproducible and cheap, but its parallel diagonal chains carry a large
    family of piecewise-linear fields with zero divergence in every
    element, so displacement methods barely lock on it near the
    incompressible limit.  ``pattern="unstructured"`` breaks those chains:
    the grid nodes are jittered (boundary nodes only within their plane),
    relaxed by a few Laplacian sweeps, and connected by a Delaunay
    tetrahedralization.  The construction is deterministic - the jitter
    seed is a fixed module constant - and keeps the loaded patch covered by
    facets whose vertices lie exactly on the patch boundary.

    Labels: z=0 clamped, x=0 roller-x, y=0 roller-y, top facets inside
    the corner grid cell [0,px]x[0,py] traction (so the default 50-cube at
    resolution 5 gets the 10x10 patch), rest free.  The patch is one grid
    cell, so its area, (50/n)^2 on the default cube, and the total load
    change with the resolution: 625 at n = 2, 100 at n = 5, 69.4 at n = 6.
    """
    nx, ny, nz = sides = _sides(resolution, 3)
    sx, sy, sz = size
    px, py = sx / nx, sy / ny
    index, ids = _grid(sides)
    # (size * i) / n per axis: size * (i / n) would round differently
    nodes = np.asarray(size) * index / sides
    if pattern == "uniform":
        # the cells are the nodes below the far planes, in node order
        cells = index[np.all(index < sides, axis=1)]
        corners = cells[:, None, None, :] + _KUHN_TABLE
        elements = ids[tuple(np.moveaxis(corners, -1, 0))].reshape(-1, 4)
    elif pattern == "unstructured":
        h = min(sx / nx, sy / ny, sz / nz)
        # symmetric grids can relax back onto co-spherical point sets that
        # triangulate degenerately; step the seed until the guard passes
        for attempt in range(8):
            pts = _relaxed_block_points(nodes, size, (px, py), h,
                                        seed=_BLOCK_SEED + attempt)
            try:
                elements = _delaunay_tets(pts, h)
            except ValueError:
                continue
            nodes = pts
            break
        else:
            raise ValueError(
                "unstructured block pattern stayed degenerate at this "
                "resolution; use a finer grid or the uniform pattern")
    else:
        raise ValueError(f"unknown block pattern {pattern!r}")
    boundary = _classify_block_facets(nodes, elements, size, (px, py))
    return PrimalMesh(nodes, elements, boundary)


# jitter amplitude (in cell sizes), relaxation sweeps/factor, and the fixed
# seed of the unstructured block pattern; frozen so meshes are reproducible
_BLOCK_JITTER = 0.25
_BLOCK_SWEEPS = 4
_BLOCK_RELAX = 0.6
_BLOCK_SEED = 1

# the 12 ordered vertex pairs (a, b), a != b, of a tetrahedron
_PAIR_A, _PAIR_B = np.nonzero(~np.eye(4, dtype=bool))


def _relaxed_block_points(nodes, size, patch, h, seed):
    """Jitter grid nodes and relax them by Laplacian sweeps.

    Boundary nodes keep their plane (tangential motion only), nodes on two
    or more planes stay put, and so do the four vertices of the loaded
    patch, which keeps every boundary label and the patch area exact.
    """
    from scipy.spatial import Delaunay

    px, py = patch
    tol = 1e-9 * max(size)
    # a node moves only along the axes whose outer planes do not hold it
    wall = (np.abs(nodes) < tol) | (np.abs(nodes - size) < tol)
    freedom = np.where(wall, 0.0, 1.0)
    freedom[wall.sum(axis=1) >= 2] = 0.0
    on = lambda c, v: np.abs(nodes[:, c] - v) < tol
    for cx, cy in ((0.0, 0.0), (px, 0.0), (0.0, py), (px, py)):
        freedom[on(0, cx) & on(1, cy) & on(2, size[2])] = 0.0
    rng = np.random.default_rng(seed)
    pts = nodes + freedom * rng.uniform(-_BLOCK_JITTER * h, _BLOCK_JITTER * h,
                                        nodes.shape)
    for _ in range(_BLOCK_SWEEPS):
        el = Delaunay(pts).simplices
        # ufunc.at adds in index order, so each node's sum runs pair by pair
        acc = np.zeros_like(pts)
        np.add.at(acc, el[:, _PAIR_A].T, pts[el[:, _PAIR_B].T])
        cnt = np.bincount(el[:, _PAIR_A].ravel(), minlength=len(pts))
        target = acc / np.maximum(cnt, 1.0)[:, None]
        pts = pts + freedom * (target - pts) * _BLOCK_RELAX
    return pts


def _delaunay_tets(pts, h):
    """Positively oriented Delaunay tetrahedra of a point cloud.

    Raises if the triangulation contains a degenerate cell, which cannot
    happen for the frozen jitter parameters but guards the invariant.
    """
    from scipy.spatial import Delaunay

    el = Delaunay(pts).simplices.astype(np.int64)
    v6 = 6 * simplex_measures(pts, el)
    flip = v6 < 0
    el[flip] = el[flip][:, [0, 1, 3, 2]]
    if np.any(np.abs(v6) <= 6e-9 * h ** 3):
        raise ValueError("degenerate tetrahedra in the unstructured block")
    return el


def _classify_block_facets(nodes, elements, size, patch):
    """Label the boundary facets of a block mesh by their plane.

    The first plane that holds a facet names it, in ``BOUNDARY_LABELS``
    order: z = 0, x = 0, y = 0, the loaded patch of z = sz; ``free``
    otherwise.
    """
    (px, py), sz = patch, size[2]
    facets, elem_facets = _local_entities(elements, LOCAL_FACETS[3])
    bfacets = facets[np.bincount(elem_facets.ravel()) == 1]
    x, y, z = np.moveaxis(nodes[bfacets], -1, 0)      # (F, 3) each
    tol = 1e-9 * max(size)
    on = lambda v, c: np.all(np.abs(v - c) < tol, axis=1)
    patch_top = on(z, sz) & np.all((x <= px + tol) & (y <= py + tol), axis=1)
    label = np.select([on(z, 0.0), on(x, 0.0), on(y, 0.0), patch_top],
                      range(4), default=4)
    return {name: bfacets[label == n]
            for n, name in enumerate(BOUNDARY_LABELS) if np.any(label == n)}


def whole(value, what):
    """``value`` as an int; raises ValueError unless it is a whole number."""
    if not (isinstance(value, numbers.Real) and float(value).is_integer()):
        raise ValueError(f"{what} {value!r} is not an integer")
    return int(value)


def _sides(resolution, dim, derive=None):
    """Cells per side of a structured mesh: ``dim`` whole numbers of at
    least 2, from a sequence or one n (then every side, or ``derive(n)``
    for the second of two)."""
    if np.isscalar(resolution):
        n = whole(resolution, "resolution")
        sides = (n, derive(n)) if derive else (n,) * dim
    else:
        sides = tuple(whole(v, "resolution") for v in resolution)
    if len(sides) != dim or min(sides) < 2:
        raise ValueError("resolution must be >= 2 per side")
    return sides


# ----------------------------------------------------------------------
# mesh distortion
# ----------------------------------------------------------------------

def _splitmix64(states):
    """SplitMix64 outputs of a uint64 array of states (wrapping mod 2**64)."""
    z = states + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _uniform_draws(seed, shape):
    """Deterministic draws in [-1, 1), one per entry of ``shape``.

    Entry i in C order is the SplitMix64 output of state hash(seed) + i,
    so a (node, coordinate) draw depends only on the seed and its position.
    """
    seed_hash = _splitmix64(np.array([int(seed) & 0xFFFFFFFFFFFFFFFF],
                                     np.uint64))
    bits = _splitmix64(seed_hash + np.arange(np.prod(shape), dtype=np.uint64))
    return (bits / 2.0 ** 63 - 1.0).reshape(shape)


def distort_mesh(mesh, density, seed):
    """Randomly perturb interior nodes while keeping all elements valid.

    Each interior node moves by ``density * r * spacing`` per coordinate,
    where r is a deterministic SplitMix64 draw in [-1, 1) keyed on
    (seed, node, coordinate) and spacing is the smallest nonzero coordinate
    difference over the node's incident edges.  If any element measure
    becomes non-positive, the perturbation of the interior nodes of the
    offending elements is halved and the mesh rebuilt, up to 10 rounds.
    """
    if not 0.0 <= density < 1.0:
        raise ValueError("density must be in [0, 1)")
    seed = whole(seed, "seed")
    if density == 0.0:
        return mesh.copy_with_nodes(mesh.nodes.copy())
    dim = mesh.dim
    topo = build_topology(mesh)
    interior = ~np.isin(np.arange(mesh.n_nodes), topo.boundary_nodes())

    # incident-edge coordinate spacings; a minimum is exact in any order
    # (values fill the index shape: numpy 2.4 misreads broadcast 1-D ones)
    diff = mesh.nodes[topo.edges[:, 0]] - mesh.nodes[topo.edges[:, 1]]
    edge_vec, edge_len = np.abs(diff), np.linalg.norm(diff, axis=1)
    vals = np.where(edge_vec > 1e-12 * edge_len.max(), edge_vec, np.inf)
    spacing = np.full((mesh.n_nodes, dim), np.inf)
    np.minimum.at(spacing, topo.edges.T, np.stack([vals, vals]))
    fallback = np.full(mesh.n_nodes, np.inf)
    np.minimum.at(fallback, topo.edges.T, np.stack([edge_len, edge_len]))
    spacing = np.where(np.isfinite(spacing), spacing, fallback[:, None])

    r = _uniform_draws(seed, (mesh.n_nodes, dim))
    shift = np.where(interior[:, None], density * r * spacing, 0.0)
    factor = np.ones(mesh.n_nodes)
    for _ in range(10):
        nodes = mesh.nodes + factor[:, None] * shift
        bad = np.flatnonzero(simplex_measures(nodes, mesh.elements) <= 0.0)
        if bad.size == 0:
            return mesh.copy_with_nodes(nodes)
        # a node of several bad elements halves once per element
        touched = mesh.elements[bad].ravel()
        np.multiply.at(factor, touched[interior[touched]], 0.5)
    raise RuntimeError(
        f"mesh distortion failed near node {int(mesh.elements[bad[0]][0])}: "
        "element inversion persisted after 10 reduction rounds"
    )

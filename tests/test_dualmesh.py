"""Tests for micro-cell decomposition, smoothing domains, pressure cells.

The measure identities checked here are the backbone of the solvers: the
pairing between smoothing domains and pressure cells is exact because both
are unions of the same equal-measure micro-cells.
"""

import numpy as np
import pytest

from smoothfem.dualmesh import (
    build_micro_decomposition,
    build_pressure_cells,
    build_smoothing_domains,
    domain_diameters,
    mesh_size,
)
from smoothfem.mesh import (
    LOCAL_FACETS,
    build_topology,
    distort_mesh,
    generate_annulus,
    generate_block,
    generate_cook,
    simplex_measures,
)


def make_setup(mesh):
    topo = build_topology(mesh)
    micro = build_micro_decomposition(mesh, topo)
    return topo, micro


MESHES_2D = [
    lambda: generate_cook(4),
    lambda: generate_annulus((3, 6)),
    lambda: distort_mesh(generate_cook(5), 0.4, seed=1),
]
MESHES_3D = [
    lambda: generate_block(2, size=(1.0, 2.0, 1.5)),
    lambda: distort_mesh(generate_block(3, size=(1.0, 1.0, 1.0)), 0.3, seed=2),
]


@pytest.mark.parametrize("make", MESHES_2D + MESHES_3D)
def test_micro_measures_equal_split(make):
    """Each element splits into 6 (2D) or 24 (3D) equal-measure micro-cells."""
    mesh = make()
    topo, micro = make_setup(mesh)
    per = 6 if mesh.dim == 2 else 24
    assert micro.n_cells == per * mesh.n_elements
    assert np.all(micro.measures > 0.0)
    elem_meas = mesh.element_measures()
    np.testing.assert_allclose(
        micro.measures, elem_meas[micro.cell_elem] / per, rtol=1e-12
    )
    total = np.bincount(micro.cell_elem, weights=micro.measures,
                        minlength=mesh.n_elements)
    np.testing.assert_allclose(total, elem_meas, rtol=1e-12)


# the loops the table-driven builder replaced, kept as its oracle
_TRI_DIRECTED = ((1, 2), (2, 0), (0, 1))
_TET_EDGE_INDEX = {(0, 1): 0, (0, 2): 1, (0, 3): 2, (1, 2): 3, (1, 3): 4,
                   (2, 3): 5}
_TET_FACES = ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1))


def loop_micro_2d(mesh, topo):
    N, E, NE = mesh.n_nodes, mesh.n_elements, len(topo.edges)
    nodes, elems = mesh.nodes, mesh.elements
    points = np.vstack([
        nodes,
        0.5 * (nodes[topo.edges[:, 0]] + nodes[topo.edges[:, 1]]),
        nodes[elems].mean(axis=1),
    ])
    mid_id = N + topo.elem_edges
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
    return points, cells, c_elem, c_node, c_edge


def loop_micro_3d(mesh, topo):
    N, E = mesh.n_nodes, mesh.n_elements
    NE, NF = len(topo.edges), len(topo.facets)
    nodes, elems = mesh.nodes, mesh.elements
    points = np.vstack([
        nodes,
        0.5 * (nodes[topo.edges[:, 0]] + nodes[topo.edges[:, 1]]),
        nodes[topo.facets].mean(axis=1),
        nodes[elems].mean(axis=1),
    ])
    mid_id = N + topo.elem_edges
    fc_id = N + NE + topo.elem_facets
    cen_id = N + NE + NF + np.arange(E)
    cells, c_elem, c_node, c_face = [], [], [], []
    for fi, face in enumerate(_TET_FACES):
        g = fc_id[:, fi]
        face_edges = ((face[0], face[1]), (face[1], face[2]),
                      (face[2], face[0]))
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
                c_face.append(topo.elem_facets[:, fi])
    return points, cells, c_elem, c_node, c_face


@pytest.mark.parametrize("make", [
    lambda: generate_cook(8),
    lambda: distort_mesh(generate_cook(9), 0.4, seed=3),
    lambda: generate_annulus((5, 7)),
    lambda: generate_block(3, pattern="uniform"),
    lambda: generate_block(3, pattern="unstructured"),
    lambda: distort_mesh(generate_block(3, pattern="uniform"), 0.3, seed=2),
], ids=["cook", "cook-distorted", "annulus", "block-uniform",
        "block-unstructured", "block-distorted"])
def test_micro_decomposition_equals_loop_oracle(make):
    """The slot table repeats the per-facet loops array for array: the same
    points, cells in the same slot-major order, keys and measures."""
    mesh = make()
    topo, micro = make_setup(mesh)
    loop = loop_micro_2d if mesh.dim == 2 else loop_micro_3d
    points, cells, c_elem, c_node, c_facet = loop(mesh, topo)
    cells = np.ascontiguousarray(np.vstack(cells), dtype=np.int64)
    expected = {
        "points": points, "cells": cells,
        "cell_elem": np.concatenate(c_elem).astype(np.int64),
        "cell_node": np.concatenate(c_node).astype(np.int64),
        "cell_facet": np.concatenate(c_facet).astype(np.int64),
        "measures": simplex_measures(points, cells),
    }
    for name, want in expected.items():
        got = getattr(micro, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


@pytest.mark.parametrize("make", [MESHES_2D[2], MESHES_3D[0]],
                         ids=["2d", "3d"])
def test_micro_decomposition_inverts_no_matrix(make, monkeypatch):
    """Micro-cell measures come from determinants alone."""
    mesh = make()
    topo = build_topology(mesh)
    inv = np.linalg.inv
    calls = []
    monkeypatch.setattr(np.linalg, "inv",
                        lambda a: calls.append(a.shape) or inv(a))
    micro = build_micro_decomposition(mesh, topo)
    assert calls == []
    assert np.all(micro.measures > 0.0)


@pytest.mark.parametrize("make", MESHES_2D)
def test_edge_domain_measures(make):
    mesh = make()
    topo, micro = make_setup(mesh)
    domains = build_smoothing_domains(micro, "edge")
    elem_meas = mesh.element_measures()
    # m(domain ^ T) = m(T)/3 for every incident pair
    pair = {}
    for m, e, t in zip(micro.measures, micro.cell_facet, micro.cell_elem):
        pair[(e, t)] = pair.get((e, t), 0.0) + m
    for (e, t), val in pair.items():
        assert val == pytest.approx(elem_meas[t] / 3.0, rel=1e-12)
    # m(domain) = sum over incident elements of m(T)/3
    expected = np.zeros(domains.n_domains)
    for t in range(mesh.n_elements):
        for e in topo.elem_edges[t]:
            expected[e] += elem_meas[t] / 3.0
    np.testing.assert_allclose(domains.measures, expected, rtol=1e-12)


@pytest.mark.parametrize("make", MESHES_3D)
def test_face_domain_measures(make):
    mesh = make()
    topo, micro = make_setup(mesh)
    domains = build_smoothing_domains(micro, "face")
    elem_meas = mesh.element_measures()
    pair = {}
    for m, f, t in zip(micro.measures, micro.cell_facet, micro.cell_elem):
        pair[(f, t)] = pair.get((f, t), 0.0) + m
    for (f, t), val in pair.items():
        assert val == pytest.approx(elem_meas[t] / 4.0, rel=1e-12)
    expected = np.zeros(domains.n_domains)
    for t in range(mesh.n_elements):
        for f in topo.elem_facets[t]:
            expected[f] += elem_meas[t] / 4.0
    np.testing.assert_allclose(domains.measures, expected, rtol=1e-12)


@pytest.mark.parametrize("make", MESHES_2D + MESHES_3D)
def test_pressure_cell_measures(make):
    mesh = make()
    topo, micro = make_setup(mesh)
    cells = build_pressure_cells(micro)
    elem_meas = mesh.element_measures()
    assert cells.measures.sum() == pytest.approx(elem_meas.sum(), rel=1e-12)
    frac = 1.0 / (mesh.dim + 1)
    pair = {}
    for m, v, t in zip(micro.measures, micro.cell_node, micro.cell_elem):
        pair[(v, t)] = pair.get((v, t), 0.0) + m
    for (v, t), val in pair.items():
        assert val == pytest.approx(elem_meas[t] * frac, rel=1e-12)
    # every vertex of T contributes, nothing else does
    assert len(pair) == mesh.n_elements * (mesh.dim + 1)


@pytest.mark.parametrize("make", MESHES_2D + MESHES_3D)
def test_triple_overlap_measures(make):
    """m(V_i ^ T ^ domain_k) = m(T)/6 (2D edge) or m(T)/12 (3D face)."""
    mesh = make()
    topo, micro = make_setup(mesh)
    dom_key = micro.cell_facet
    elem_meas = mesh.element_measures()
    per = 6.0 if mesh.dim == 2 else 12.0
    triple = {}
    for m, v, t, k in zip(micro.measures, micro.cell_node, micro.cell_elem,
                          dom_key):
        key = (v, t, k)
        triple[key] = triple.get(key, 0.0) + m
    for (v, t, k), val in triple.items():
        assert val == pytest.approx(elem_meas[t] / per, rel=1e-12)


@pytest.mark.parametrize("make", MESHES_2D + MESHES_3D)
def test_overlap_matrices_are_consistent(make):
    mesh = make()
    topo, micro = make_setup(mesh)
    kind = "edge" if mesh.dim == 2 else "face"
    domains = build_smoothing_domains(micro, kind)
    cells = build_pressure_cells(micro)
    overlap = cells.overlap_with_domains(micro, domains)
    np.testing.assert_allclose(
        np.asarray(overlap.sum(axis=1)).ravel(), cells.measures, rtol=1e-12
    )
    np.testing.assert_allclose(
        np.asarray(overlap.sum(axis=0)).ravel(), domains.measures, rtol=1e-12
    )
    per_elem = cells.overlap_with_domains(
        micro, build_smoothing_domains(micro, "element"))
    np.testing.assert_allclose(
        np.asarray(per_elem.sum(axis=0)).ravel(), mesh.element_measures(),
        rtol=1e-12,
    )


@pytest.mark.parametrize("make", MESHES_2D + MESHES_3D)
@pytest.mark.parametrize("kind", ["node", "element", None])
def test_domain_boundaries_close(make, kind):
    """The oriented facets of every domain integrate normals to zero."""
    mesh = make()
    topo, micro = make_setup(mesh)
    if kind is None:
        kind = "edge" if mesh.dim == 2 else "face"
    try:
        domains = build_smoothing_domains(micro, kind)
    except ValueError:
        pytest.skip(f"{kind} domains not defined in {mesh.dim}D")
    pts = micro.points[domains.facet_pts]
    if mesh.dim == 2:
        vec = pts[:, 1] - pts[:, 0]
        n_scaled = np.column_stack([vec[:, 1], -vec[:, 0]])
    else:
        n_scaled = 0.5 * np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0])
    fdom = domains.dom_of_cell[domains.facet_cell]
    sums = np.zeros((domains.n_domains, mesh.dim))
    np.add.at(sums, fdom, n_scaled)
    scale = np.abs(n_scaled).sum()
    assert np.abs(sums).max() < 1e-13 * scale


def unique_oracle_facets(micro, dom):
    """(facet_pts, facet_cell, facet domain) cancelled by np.unique(axis=0)."""
    M, d = micro.n_cells, micro.dim
    faces = micro.cells[:, LOCAL_FACETS[d]].reshape(M * (d + 1), d)
    owner = np.repeat(np.arange(M), d + 1)
    key = np.column_stack([dom[owner], np.sort(faces, axis=1)])
    _, inverse, counts = np.unique(key, axis=0, return_inverse=True,
                                   return_counts=True)
    keep = counts[inverse.ravel()] == 1
    faces, owner = faces[keep], owner[keep]
    order = np.argsort(dom[owner], kind="stable")
    return faces[order], owner[order], dom[owner][order]


@pytest.mark.parametrize("make_mesh,kinds", [
    (lambda: generate_cook(8), ("edge", "node")),
    (lambda: distort_mesh(generate_cook(8), 0.4, seed=7), ("edge", "node")),
    (lambda: generate_block(3), ("face", "node")),
])
def test_domain_facets_equal_unique_oracle(make_mesh, kinds):
    _, micro = make_setup(make_mesh())
    for kind in kinds:
        domains = build_smoothing_domains(micro, kind)
        pts, cell, fdom = unique_oracle_facets(micro, domains.dom_of_cell)
        assert np.array_equal(domains.facet_pts, pts)
        assert np.array_equal(domains.facet_cell, cell)
        built = domains.dom_of_cell[domains.facet_cell]
        assert np.array_equal(built, fdom)
        assert np.all(np.diff(built) >= 0)


def test_domain_facets_trace_known_shape():
    """An interior 2D edge domain is the rhombus spanning the two centroids.

    Its four micro-triangles contribute four surviving facets: the halves of
    the shared mesh edge cancel across the two elements, as do the spokes
    from the midpoint to each centroid.
    """
    mesh = generate_cook(2)
    topo, micro = make_setup(mesh)
    domains = build_smoothing_domains(micro, "edge")
    interior = np.flatnonzero(~topo.boundary_facet_mask)
    k = interior[0]
    fpts = domains.facet_pts[domains.dom_of_cell[domains.facet_cell] == k]
    assert len(fpts) == 4
    cells = np.flatnonzero(domains.dom_of_cell == k)
    assert len(cells) == 4
    corners = set(np.unique(fpts).tolist())
    endpoints = set(topo.edges[k].tolist())
    first = mesh.n_nodes + len(topo.edges)
    centroids = {int(p) for p in np.unique(fpts) if p >= first}
    assert endpoints <= corners
    assert len(centroids) == 2


def test_mesh_size_decreases_with_refinement():
    sizes = []
    for n in (2, 4, 8):
        mesh = generate_cook(n)
        topo, micro = make_setup(mesh)
        domains = build_smoothing_domains(micro, "edge")
        sizes.append(mesh_size(micro, [domains.dom_of_cell,
                                       micro.cell_node]))
    assert sizes[0] > sizes[1] > sizes[2]
    assert sizes[1] / sizes[2] == pytest.approx(2.0, rel=0.1)


def test_domain_diameters_positive():
    mesh = generate_block(2, size=(1.0, 1.0, 1.0))
    topo, micro = make_setup(mesh)
    domains = build_smoothing_domains(micro, "face")
    d = domain_diameters(micro, domains.dom_of_cell)
    assert np.all(d > 0.0)


def loop_diameters(micro, domains):
    """Per-domain loop the vectorized diameters must repeat exactly."""
    out = np.empty(domains.n_domains)
    for k in range(domains.n_domains):
        cells = np.flatnonzero(domains.dom_of_cell == k)
        pts = micro.points[np.unique(micro.cells[cells])]
        diff = pts[:, None, :] - pts[None, :, :]
        out[k] = 0.5 * np.sqrt((diff ** 2).sum(-1).max())
    return out


@pytest.mark.parametrize("make_mesh,kinds", [
    (lambda: generate_annulus((4, 8)), ("edge", "node")),
    (lambda: distort_mesh(generate_cook(6), 0.4, seed=3), ("edge", "node")),
    (lambda: distort_mesh(generate_block(3, size=(1.0, 2.0, 1.5)), 0.3,
                          seed=4), ("face", "node")),
])
def test_domain_diameters_equal_loop(make_mesh, kinds):
    """h feeds the convergence-rate fits, so the values are bit-identical."""
    _, micro = make_setup(make_mesh())
    for kind in kinds:
        domains = build_smoothing_domains(micro, kind)
        assert np.array_equal(domain_diameters(micro, domains.dom_of_cell),
                              loop_diameters(micro, domains))


@pytest.mark.parametrize("kind, message", [
    ("vertex", "unknown domain kind 'vertex'"),
    ("face", "face-based domains are used in 3D"),
])
def test_smoothing_domains_reject_a_kind_foreign_to_the_mesh(kind, message):
    _, micro = make_setup(generate_cook(2))
    with pytest.raises(ValueError, match=message):
        build_smoothing_domains(micro, kind)

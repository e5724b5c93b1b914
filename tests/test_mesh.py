"""Tests for benchmark mesh generators, topology, and distortion."""

import hashlib
import itertools

import numpy as np
import pytest

from smoothfem import mesh as mesh_module
from smoothfem.mesh import (
    PrimalMesh,
    _delaunay_tets,
    _uniform_draws,
    build_topology,
    distort_mesh,
    generate_annulus,
    generate_block,
    generate_cook,
    simplex_measures,
    unique_rows,
)

COOK_AREA = 1440.0  # shoelace area of (0,0), (48,44), (48,60), (0,44)
MASK64 = 0xFFFFFFFFFFFFFFFF


def assert_rows_strictly_increasing(rows):
    """Each row is lexicographically greater than the one before it."""
    step = np.diff(rows, axis=0)
    lead = step[np.arange(len(step)), np.argmax(step != 0, axis=1)]
    assert np.all(lead > 0)


def test_cook_geometry():
    mesh = generate_cook(4)
    assert mesh.n_elements == 2 * 4 * 4
    assert mesh.element_measures().sum() == pytest.approx(COOK_AREA, rel=1e-13)
    for corner in [(0, 0), (48, 44), (48, 60), (0, 44)]:
        dist = np.linalg.norm(mesh.nodes - np.asarray(corner, float), axis=1)
        assert dist.min() < 1e-12
    clamped = mesh.nodes[np.unique(mesh.boundary["clamped"])]
    np.testing.assert_allclose(clamped[:, 0], 0.0, atol=1e-13)
    loaded = mesh.nodes[np.unique(mesh.boundary["traction"])]
    np.testing.assert_allclose(loaded[:, 0], 48.0, atol=1e-12)
    # right edge has length 16, split into ny facets
    seg = mesh.nodes[mesh.boundary["traction"]]
    lengths = np.linalg.norm(seg[:, 1] - seg[:, 0], axis=1)
    assert lengths.sum() == pytest.approx(16.0, rel=1e-13)


def test_cook_profile_mesh_has_midline_nodes():
    mesh = generate_cook((16, 8))
    assert mesh.n_elements == 256
    assert np.any(np.abs(mesh.nodes[:, 0] - 24.0) < 1e-9)


def test_annulus_geometry():
    mesh = generate_annulus((4, 8))
    assert mesh.n_elements == 64
    r = np.linalg.norm(mesh.nodes, axis=1)
    assert r.min() == pytest.approx(1.0, rel=1e-13)
    assert r.max() == pytest.approx(2.0, rel=1e-13)
    inner = mesh.nodes[np.unique(mesh.boundary["traction"])]
    np.testing.assert_allclose(np.linalg.norm(inner, axis=1), 1.0, rtol=1e-13)
    np.testing.assert_allclose(
        mesh.nodes[np.unique(mesh.boundary["roller-y"])][:, 1], 0.0, atol=1e-13
    )
    np.testing.assert_allclose(
        mesh.nodes[np.unique(mesh.boundary["roller-x"])][:, 0], 0.0, atol=1e-13
    )
    # polygonal quarter annulus area approaches pi (b^2 - a^2) / 4 from below
    exact = np.pi * 3.0 / 4.0
    area = mesh.element_measures().sum()
    assert 0.97 * exact < area < exact


def test_annulus_default_series():
    for n, count in [(4, 64), (8, 256), (16, 1024), (32, 4096)]:
        mesh = generate_annulus(n)
        assert mesh.n_elements == count


def test_block_geometry():
    mesh = generate_block(5)
    assert mesh.n_elements == 750
    assert mesh.element_measures().sum() == pytest.approx(50.0 ** 3, rel=1e-12)
    # traction patch: the [0,10]^2 corner of the top face, area 100
    tri = mesh.nodes[mesh.boundary["traction"]]
    areas = 0.5 * np.linalg.norm(
        np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1
    )
    assert areas.sum() == pytest.approx(100.0, rel=1e-12)
    np.testing.assert_allclose(tri[..., 2], 50.0, atol=1e-12)
    clamped = mesh.nodes[np.unique(mesh.boundary["clamped"])]
    np.testing.assert_allclose(clamped[:, 2], 0.0, atol=1e-13)


def test_dispatcher():
    assert generate_cook(2).n_elements == 8
    assert generate_annulus((2, 4)).n_elements == 16
    assert generate_block(2).n_elements == 48


@pytest.mark.parametrize("generate, resolution, elements", [
    (generate_cook, 2.0, 8), (generate_cook, (3, 2.0), 12),
    (generate_annulus, 2, 16), (generate_annulus, (2.0, 3), 12),
    (generate_block, 2.0, 48), (generate_block, (2, 3, 2.0), 72),
    (generate_cook, np.int64(2), 8)])
def test_whole_resolutions_are_accepted(generate, resolution, elements):
    assert generate(resolution).n_elements == elements


@pytest.mark.parametrize("generate, resolution, message", [
    (generate_cook, 2.5, "resolution 2.5 is not an integer"),
    (generate_cook, (2, 3.5), "resolution 3.5 is not an integer"),
    (generate_annulus, 2.9, "resolution 2.9 is not an integer"),
    (generate_annulus, (2.5, 4), "resolution 2.5 is not an integer"),
    (generate_block, (2.9, 2, 2), "resolution 2.9 is not an integer"),
    (generate_block, "3", "resolution '3' is not an integer"),
    (generate_cook, 1, "resolution must be >= 2 per side"),
    (generate_annulus, (2, 3, 4), "resolution must be >= 2 per side"),
    (generate_block, (2, 2), "resolution must be >= 2 per side")])
def test_non_integral_resolutions_are_rejected(generate, resolution, message):
    """A resolution is never truncated: 2.5 cells per side is an error."""
    with pytest.raises(ValueError, match=message):
        generate(resolution)


def test_inverted_element_rejected():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="non-positive"):
        PrimalMesh(nodes, np.array([[0, 2, 1]]), {})


def test_unknown_boundary_label_rejected():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="label"):
        PrimalMesh(nodes, np.array([[0, 1, 2]]), {"glued": [[0, 1]]})


UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


@pytest.mark.parametrize("elements, boundary, message", [
    ([[1, 2, -1]], {}, r"element vertex ids must lie in \[0, 4\)"),
    ([[0, 1, 2, 3]], {}, r"shape \(1, 4\); expected \(E, 3\)"),
    ([[0, 1, 4]], {}, r"element vertex ids must lie in \[0, 4\)"),
    ([[0, 1, 2]], {"free": [[2, -1]]}, r"free vertex ids must lie in"),
    ([[0, 1, 2]], {"clamped": [[0, 4]]}, r"clamped vertex ids must lie in"),
    ([[0, 1, 2]], {"free": [[0, 1, 3], [3, 2, 1]]},
     r"free facets have shape \(2, 3\); expected \(F, 2\)"),
    ([[0, 1, 2]], {"free": [0, 1]},
     r"free facets have shape \(2,\); expected \(F, 2\)"),
], ids=["negative", "too-wide", "past-the-end", "negative-facet",
        "past-the-end-facet", "too-wide-facet", "flat-facet"])
def test_out_of_range_vertex_ids_rejected(elements, boundary, message):
    """Every element row has d+1 ids, every facet row d, and every id
    names a node: a negative id would otherwise wrap to another node for
    the geometry only, and a reshape would split a (2, 3) facet array into
    three facets, one of them degenerate."""
    with pytest.raises(ValueError, match=message):
        PrimalMesh(UNIT_SQUARE, elements, boundary)


@pytest.mark.parametrize("nodes, shape", [
    (UNIT_SQUARE.ravel(), r"\(8,\)"), (UNIT_SQUARE[:, :1], r"\(4, 1\)")],
    ids=["flat", "one-column"])
def test_node_arrays_that_are_not_n_by_d_rejected(nodes, shape):
    """A flat node array would fail on its missing second axis, and an
    (N, 1) one would be reported as a facet or element shape fault."""
    with pytest.raises(ValueError, match=f"nodes have shape {shape}; "
                       r"expected \(N, 2\) or \(N, 3\)"):
        PrimalMesh(nodes, [[0, 1, 2]], {"free": [[0, 1]]})


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_nodes_rejected(value):
    """A NaN node gives its elements NaN measures, which pass the
    non-positive measure check, so the node is named first; an empty facet
    list stays a valid label."""
    mesh = generate_cook(2)
    assert PrimalMesh(mesh.nodes, mesh.elements,
                      {"free": []}).boundary["free"].shape == (0, 2)
    nodes = mesh.nodes.copy()
    nodes[4, 1] = value
    with pytest.raises(ValueError, match="node 4 has non-finite coordinates"):
        PrimalMesh(nodes, mesh.elements, mesh.boundary)


@pytest.mark.parametrize("make", [
    lambda: distort_mesh(generate_cook(5), 0.4, seed=3),
    lambda: distort_mesh(generate_block(2), 0.3, seed=2),
])
def test_simplex_measures_are_the_signed_element_measures(make):
    mesh = make()
    measures = simplex_measures(mesh.nodes, mesh.elements)
    assert np.array_equal(measures, mesh.element_measures())
    reflected = mesh.elements[:, [*range(mesh.dim - 1), mesh.dim, mesh.dim - 1]]
    np.testing.assert_allclose(simplex_measures(mesh.nodes, reflected),
                               -measures, rtol=1e-13)


def cross_product_tets(pts, h):
    """The orientation rule of ``_delaunay_tets`` before it read
    ``simplex_measures``: the triple product of the edge vectors."""
    from scipy.spatial import Delaunay

    el = Delaunay(pts).simplices.astype(np.int64)
    v6 = np.einsum("ij,ij->i",
                   np.cross(pts[el[:, 1]] - pts[el[:, 0]],
                            pts[el[:, 2]] - pts[el[:, 0]]),
                   pts[el[:, 3]] - pts[el[:, 0]])
    flip = v6 < 0
    el[flip] = el[flip][:, [0, 1, 3, 2]]
    if np.any(np.abs(v6) <= 6e-9 * h ** 3):
        raise ValueError("degenerate tetrahedra")
    return el


@pytest.mark.parametrize("n", range(3, 9))
def test_delaunay_orientation_matches_cross_product_oracle(n, monkeypatch):
    """On every point set the unstructured block triangulates, the signed
    measures orient and reject exactly the cells the triple product did."""
    seen = []

    def record(pts, h):
        seen.append((pts, h))
        return _delaunay_tets(pts, h)

    monkeypatch.setattr(mesh_module, "_delaunay_tets", record)
    generate_block(n, pattern="unstructured")
    assert seen
    for pts, h in seen:
        outcomes = []
        for build in (_delaunay_tets, cross_product_tets):
            try:
                outcomes.append(build(pts, h))
            except ValueError:
                outcomes.append(None)
        got, want = outcomes
        assert (got is None) == (want is None)
        assert want is None or np.array_equal(got, want)


def test_topology_euler_2d():
    mesh = generate_cook(5)
    topo = build_topology(mesh)
    # disk-like domain: V - E + F = 1
    assert mesh.n_nodes - len(topo.edges) + mesh.n_elements == 1
    counts = np.bincount(topo.elem_facets.ravel())
    assert set(counts.tolist()) <= {1, 2}
    assert np.all(counts[topo.boundary_facet_mask] == 1)
    assert_rows_strictly_increasing(topo.edges)


def test_topology_boundary_3d():
    mesh = generate_block(2, size=(1.0, 1.0, 1.0))
    topo = build_topology(mesh)
    bfaces = topo.facets[topo.boundary_facet_mask]
    tri = mesh.nodes[bfaces]
    areas = 0.5 * np.linalg.norm(
        np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1
    )
    assert areas.sum() == pytest.approx(6.0, rel=1e-12)
    # every labeled facet is a real boundary facet
    labeled = np.vstack(list(mesh.boundary.values()))
    ids = topo.facet_index(labeled)
    assert np.all(topo.boundary_facet_mask[ids])
    assert_rows_strictly_increasing(topo.edges)
    assert_rows_strictly_increasing(topo.facets)


def loop_topology(mesh):
    """Edges, facets, elem_facets (local facet i opposite vertex i) and each
    facet's element count, from loops over the elements and dicts."""
    edges, counts = set(), {}
    for el in mesh.elements.tolist():
        edges.update(tuple(sorted(e)) for e in itertools.combinations(el, 2))
        for i in range(len(el)):
            key = tuple(sorted(el[:i] + el[i + 1:]))
            counts[key] = counts.get(key, 0) + 1
    facets = sorted(counts)
    index = {f: k for k, f in enumerate(facets)}
    elem_facets = [[index[tuple(sorted(el[:i] + el[i + 1:]))]
                    for i in range(len(el))] for el in mesh.elements.tolist()]
    return sorted(edges), facets, elem_facets, [counts[f] for f in facets]


@pytest.mark.parametrize("make_mesh", [
    lambda: generate_cook(3),
    lambda: generate_annulus((3, 4)),
    lambda: generate_block(2),
    lambda: generate_block(3, pattern="unstructured"),
])
def test_topology_matches_a_loop_oracle(make_mesh):
    mesh = make_mesh()
    topo = build_topology(mesh)
    edges, facets, elem_facets, counts = loop_topology(mesh)
    assert [tuple(e) for e in topo.edges.tolist()] == edges
    assert [tuple(f) for f in topo.facets.tolist()] == facets
    assert topo.elem_facets.tolist() == elem_facets
    for el, ids in zip(mesh.elements.tolist(), topo.elem_edges.tolist()):
        assert {tuple(topo.edges[k]) for k in ids} == {
            tuple(sorted(e)) for e in itertools.combinations(el, 2)}
    assert set(counts) <= {1, 2}
    np.testing.assert_array_equal(topo.boundary_facet_mask,
                                  np.array(counts) == 1)
    for f in np.flatnonzero(topo.boundary_facet_mask):
        assert f in topo.elem_facets[topo.facet_elem[f]]


@pytest.mark.parametrize("cols", [2, 3, 4])
@pytest.mark.parametrize("offset", [0, 2 ** 40])
def test_unique_rows_matches_numpy(cols, offset):
    """Ids near 2**40 would overflow a 4-column key packed into one int64."""
    rng = np.random.default_rng(cols)
    rows = offset + rng.integers(0, 6, size=(500, cols))
    rows = np.vstack([rows, rows[::7]])
    for sample in (rows, rows[:1]):
        got = unique_rows(sample)
        want = np.unique(sample, axis=0, return_inverse=True,
                         return_counts=True)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1].ravel())
        assert np.array_equal(got[2], want[2])


def test_facet_index_roundtrip():
    mesh = generate_cook(3)
    topo = build_topology(mesh)
    ids = topo.facet_index(topo.facets[::3])
    np.testing.assert_array_equal(ids, np.arange(len(topo.facets))[::3])
    with pytest.raises(KeyError):
        topo.facet_index(np.array([[0, mesh.n_nodes - 1]]))


@pytest.mark.parametrize("make_mesh", [
    lambda: generate_annulus((3, 4)),
    lambda: generate_block(3, pattern="unstructured"),
])
def test_facet_index_finds_every_facet_in_any_order(make_mesh):
    mesh = make_mesh()
    topo = build_topology(mesh)
    rng = np.random.default_rng(4)
    ids = rng.permutation(len(topo.facets))
    # each query row lists its nodes in a random order
    query = rng.permuted(topo.facets[ids], axis=1)
    np.testing.assert_array_equal(topo.facet_index(query), ids)
    assert topo.facet_index(np.empty((0, mesh.dim), np.int64)).size == 0
    # a miss that shares its first node, and all but its last, with a facet
    miss = topo.facets[:1].copy()
    miss[0, -1] = mesh.n_nodes - 1
    with pytest.raises(KeyError):
        topo.facet_index(np.vstack([topo.facets[:2], miss]))


def splitmix64_loop(seed, count):
    """Scalar SplitMix64 draws in [-1, 1): state hash(seed) + i for draw i."""

    def step(state):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    seed_hash = step(seed & MASK64)
    return np.array([step((seed_hash + i) & MASK64) / 2.0 ** 63 - 1.0
                     for i in range(count)])


@pytest.mark.parametrize("seed", [0, 1, 7, 15, 2 ** 64 - 1])
@pytest.mark.parametrize("n_nodes", [9, 1681, 20000])
def test_distortion_draws_equal_scalar_splitmix(seed, n_nodes):
    draws = _uniform_draws(seed, (n_nodes, 2))
    assert draws.shape == (n_nodes, 2)
    assert np.array_equal(draws.ravel(), splitmix64_loop(seed, 2 * n_nodes))


@pytest.mark.parametrize("make", [
    lambda: generate_cook(6),
    lambda: generate_annulus((4, 8)),
    lambda: generate_block(3, size=(1.0, 1.0, 1.0)),
])
def test_distortion_validity_and_determinism(make):
    mesh = make()
    out1 = distort_mesh(mesh, 0.4, seed=11)
    out2 = distort_mesh(mesh, 0.4, seed=11)
    np.testing.assert_array_equal(out1.nodes, out2.nodes)
    assert np.all(out1.element_measures() > 0.0)
    # some interior node actually moved
    assert np.max(np.abs(out1.nodes - mesh.nodes)) > 1e-6
    out3 = distort_mesh(mesh, 0.4, seed=12)
    assert np.max(np.abs(out3.nodes - out1.nodes)) > 1e-9


def test_distortion_keeps_boundary_fixed():
    mesh = generate_cook(5)
    topo = build_topology(mesh)
    out = distort_mesh(mesh, 0.35, seed=3)
    bnodes = topo.boundary_nodes()
    np.testing.assert_array_equal(out.nodes[bnodes], mesh.nodes[bnodes])


def test_distortion_density_zero_is_identity():
    mesh = generate_annulus((3, 4))
    out = distort_mesh(mesh, 0.0, seed=5)
    np.testing.assert_array_equal(out.nodes, mesh.nodes)


def test_distortion_rejects_a_non_integral_seed():
    """A fractional seed raises instead of truncating to its integer part;
    a whole-number float is that integer."""
    mesh = generate_cook(4)
    for density in (0.3, 0.0):
        with pytest.raises(ValueError, match="seed 2.5 is not an integer"):
            distort_mesh(mesh, density, seed=2.5)
    np.testing.assert_array_equal(distort_mesh(mesh, 0.3, seed=2.0).nodes,
                                  distort_mesh(mesh, 0.3, seed=2).nodes)


def test_distortion_inverts_only_the_returned_mesh(monkeypatch):
    """The halving loop checks signed measures alone; the one batched
    inverse is the returned mesh's hat gradients."""
    mesh = generate_cook(8)
    calls = []
    inv = np.linalg.inv

    def counting(a):
        calls.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting)
    out = distort_mesh(mesh, 0.45, seed=11)
    assert calls == [(mesh.n_elements, 2, 2)]
    assert np.max(np.abs(out.nodes - mesh.nodes)) > 1e-6


def test_kuhn_table_is_the_six_monotone_paths_oriented_by_parity():
    """Row m of the table is the path through the unit cell along the axes
    in the m-th order, with its last two corners swapped for an odd order;
    the six tetrahedra are positive and fill the cell."""
    orders = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0),
              (1, 0, 2)]
    for row, order in zip(mesh_module._KUHN_TABLE, orders):
        path = [np.zeros(3, int)]
        for axis in order:
            path.append(path[-1] + np.eye(3, dtype=int)[axis])
        inversions = sum(order[i] > order[j]
                         for i in range(3) for j in range(i + 1, 3))
        if inversions % 2:
            path[2], path[3] = path[3], path[2]
        np.testing.assert_array_equal(row, path)
    cells = np.arange(24).reshape(6, 4)
    volumes = simplex_measures(mesh_module._KUHN_TABLE.reshape(-1, 3), cells)
    np.testing.assert_allclose(volumes, 1.0 / 6.0, rtol=1e-15)

def _array_digest(a):
    """First 16 hex digits of the sha256 of an array's dtype, shape and
    bytes."""
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


# digests of nodes, elements and each boundary group, in label order, of a
# fixed list of generator and distortion calls
MESH_DIGESTS = {
    "cook-2": (lambda: generate_cook(2), {
        "nodes": "fc8474b6acbb3028",
        "elements": "5cf4f236fdafc947",
        "clamped": "f944f4c12b68d62e",
        "traction": "8288f91e87e0662c",
        "free": "db99f656ca87ffc6",
    }),
    "cook-3x5": (lambda: generate_cook((3, 5)), {
        "nodes": "b25c23bf2bc323f5",
        "elements": "9df96b18e361b039",
        "clamped": "c897ec40a83d66bc",
        "traction": "7fdefeef6741c111",
        "free": "820ba8431cb34d21",
    }),
    "cook-16": (lambda: generate_cook(16), {
        "nodes": "3d74a25cb2032612",
        "elements": "b715c319bbe415d0",
        "clamped": "e77363bfdf02e37f",
        "traction": "bdde696468e62bc4",
        "free": "f1d5d2f54a37c986",
    }),
    "annulus-3": (lambda: generate_annulus(3), {
        "nodes": "8854b67a74060893",
        "elements": "85f96f3bb2ff321c",
        "traction": "7f1a03f80f9f4d9f",
        "free": "eee46752e653ae34",
        "roller-y": "a540fa78920d52ea",
        "roller-x": "b2968699a7a7a802",
    }),
    "annulus-4x8": (lambda: generate_annulus((4, 8)), {
        "nodes": "c0bbb3923f8c3769",
        "elements": "8ff4cd347ce80511",
        "traction": "e340190b5ff291be",
        "free": "838d72252b1d22fb",
        "roller-y": "a530168773f55c8a",
        "roller-x": "1d08f71f438ce086",
    }),
    "block-2": (lambda: generate_block(2), {
        "nodes": "b4561454ef36bd31",
        "elements": "a02a842a08e2e3f2",
        "clamped": "e8fce106523dac05",
        "roller-x": "c13daa2bf672f459",
        "roller-y": "7d25e5c68fa8cb2d",
        "traction": "b293111cfa42a6ed",
        "free": "691868141472bf31",
    }),
    "block-3": (lambda: generate_block(3), {
        "nodes": "ffde047f153a0dc3",
        "elements": "79f8fc7f08d0ea9d",
        "clamped": "b80b094370df4520",
        "roller-x": "1e8f62218d78c16a",
        "roller-y": "2e1efbc5f64e79ef",
        "traction": "a179739533f0929f",
        "free": "c02b2e6cccd7abce",
    }),
    "block-2x3x2-unit": (lambda: generate_block((2, 3, 2), size=(1, 1, 1)), {
        "nodes": "07013c0746d50513",
        "elements": "27dabbb91d6508f0",
        "clamped": "4663211ae0411ce6",
        "roller-x": "a964f95db28ff9c9",
        "roller-y": "a5d4056fde8c48ab",
        "traction": "89cff9061740ad2d",
        "free": "18d48f570a36d166",
    }),
    "block-4-unstructured": (lambda: generate_block(4, pattern="unstructured"), {
        "nodes": "c2ffc1b4a250d87e",
        "elements": "06ba18295c1cefa9",
        "clamped": "c413af0a458a9e72",
        "roller-x": "e1fa918a44ea734c",
        "roller-y": "dbc704c7c722b931",
        "traction": "731743de30edba18",
        "free": "f9951b3d71207b8b",
    }),
    "distorted-cook-8": (lambda: distort_mesh(generate_cook(8), 0.45, seed=11), {
        "nodes": "161400654236f5e1",
        "elements": "c65593e02c93397b",
        "clamped": "4dc1d69ad0f0e9b8",
        "traction": "c170bf506e401ca6",
        "free": "1b24a9a363eeed24",
    }),
    "distorted-annulus-4x8": (lambda: distort_mesh(generate_annulus((4, 8)), 0.4,
                                           seed=11), {
        "nodes": "4f1bdab93be930ea",
        "elements": "8ff4cd347ce80511",
        "traction": "e340190b5ff291be",
        "free": "838d72252b1d22fb",
        "roller-y": "a530168773f55c8a",
        "roller-x": "1d08f71f438ce086",
    }),
    "distorted-block-3-unit": (lambda: distort_mesh(
        generate_block(3, size=(1, 1, 1)), 0.4, seed=11), {
        "nodes": "c92495a7529188b4",
        "elements": "79f8fc7f08d0ea9d",
        "clamped": "b80b094370df4520",
        "roller-x": "1e8f62218d78c16a",
        "roller-y": "2e1efbc5f64e79ef",
        "traction": "a179739533f0929f",
        "free": "c02b2e6cccd7abce",
    }),
}


@pytest.mark.parametrize("name", MESH_DIGESTS)
def test_meshes_keep_their_numbering_and_bits(name):
    """Every node coordinate, element and boundary facet keeps its exact
    value and position, and the boundary groups keep their order.

    The annulus digests depend on how numpy's ``cos``/``sin`` round and
    the unstructured block's on scipy's Delaunay (Qhull) output, so
    another numpy or scipy build may change them (recorded with numpy 2.4
    and scipy 1.17 on x86-64 Linux).  ``distorted-cook-8`` runs the
    halving loop of ``distort_mesh``.
    """
    make, expected = MESH_DIGESTS[name]
    mesh = make()
    got = {"nodes": _array_digest(mesh.nodes),
           "elements": _array_digest(mesh.elements),
           **{k: _array_digest(v) for k, v in mesh.boundary.items()}}
    assert list(got.items()) == list(expected.items())


def test_block_rejects_an_unknown_pattern():
    with pytest.raises(ValueError, match="unknown block pattern 'hexagonal'"):
        generate_block(2, pattern="hexagonal")


@pytest.mark.parametrize("density", [-0.1, 1.0])
def test_distortion_density_must_lie_in_the_unit_interval(density):
    with pytest.raises(ValueError, match=r"density must be in \[0, 1\)"):
        distort_mesh(generate_cook(3), density, seed=0)


def test_distortion_gives_up_after_ten_rounds(monkeypatch):
    """An element that stays inverted however far its nodes fall back is
    named after the tenth halving round."""
    monkeypatch.setattr(mesh_module, "simplex_measures",
                        lambda nodes, cells: np.full(len(cells), -1.0))
    with pytest.raises(RuntimeError,
                       match="inversion persisted after 10 reduction rounds"):
        distort_mesh(generate_cook(3), 0.4, seed=0)

"""Tests for operator assembly.

The central checks compare the boundary-integral pressure coupling against
an independently assembled element-wise (volume quadrature) divergence
operator: vertex columns must agree entrywise, and bubble columns must agree
up to the known constant factors.
"""

import numpy as np
import pytest
from scipy import sparse

from smoothfem.assembly import (
    VOIGT_PAIRS,
    Discretization,
    DofMap,
    MaterialParams,
    assemble_condensed,
    assemble_loads,
    assemble_h1_gram,
    assemble_method,
    canonical_method,
    dirichlet_dofs,
    divergence_operator,
    full_elastic_matrix,
    strain_matrix,
    strain_rows,
)
from smoothfem.basis import bubble_gradient
from smoothfem.benchmarks import coupling_operators
from smoothfem.hyperelastic import NeoHookeanParams, SmoothedHyperProblem
from smoothfem.mesh import (
    PrimalMesh,
    build_topology,
    distort_mesh,
    generate_annulus,
    generate_block,
    generate_cook,
    ordered_matmul,
)
from smoothfem.quadrature import simplex_quadrature

RNG = np.random.default_rng(2024)


@pytest.fixture(scope="module")
def disc_2d():
    return Discretization(distort_mesh(generate_cook(3), 0.3, seed=21))


@pytest.fixture(scope="module")
def disc_3d():
    return Discretization(
        distort_mesh(generate_block(2, size=(1.0, 1.1, 0.9)), 0.25, seed=22)
    )


def test_material_params():
    mat = MaterialParams(E=250.0, nu=0.4999)
    assert mat.mu == pytest.approx(250.0 / (2 * 1.4999))
    assert mat.lam == pytest.approx(250.0 * 0.4999 / (1.4999 * 0.0002))
    with pytest.raises(ValueError):
        MaterialParams(E=-1.0, nu=0.3)
    with pytest.raises(ValueError):
        MaterialParams(E=1.0, nu=0.5)


@pytest.mark.parametrize("E", [np.nan, np.inf])
def test_material_params_reject_non_finite_modulus(E):
    with pytest.raises(ValueError, match="finite"):
        MaterialParams(E=E, nu=0.3)


def test_full_elastic_matrix():
    C2 = full_elastic_matrix(2.0, 3.0, 2)
    np.testing.assert_allclose(
        C2, [[8.0, 2.0, 0.0], [2.0, 8.0, 0.0], [0.0, 0.0, 3.0]]
    )
    C3 = full_elastic_matrix(1.0, 1.0, 3)
    assert C3.shape == (6, 6)
    np.testing.assert_allclose(np.diag(C3), [3, 3, 3, 1, 1, 1])


def test_canonical_method():
    assert canonical_method("bES") == "bes-fem"
    assert canonical_method("ns-fem") == "ns-fem"
    with pytest.raises(ValueError):
        canonical_method("q2")


@pytest.mark.parametrize("which", ["2d", "3d"])
@pytest.mark.parametrize("bubble", [None, "power", "hat"])
def test_vertex_columns_match_plain_divergence(which, bubble, disc_2d, disc_3d):
    """The smoothed coupling equals the element-wise one on vertex columns."""
    disc = disc_2d if which == "2d" else disc_3d
    B_bar, B_plain = coupling_operators(disc, bubble)
    nv = disc.mesh.n_nodes * disc.dim
    D = (B_bar[:, :nv] - B_plain[:, :nv]).toarray()
    scale = np.abs(B_plain[:, :nv].toarray()).max()
    assert np.abs(D).max() < 1e-12 * scale


def test_bubble_columns_2d_power_ratio(disc_2d):
    """Power-bubble columns of the smoothed coupling are 8/11 of plain.

    The constant comes from a closed-form evaluation on the reference
    triangle (0,0)-(1,0)-(0,1) with b = 27*l0*l1*l2 and the pressure cell of
    the corner (0,0): the smoothed entry is (1/2)*(16/11) times the plain
    entry because the cell/domain overlap ratio m(V_i ∩ Ω_e)/m(Ω_e) is
    always 1/2 and the bubble line integrals along each median satisfy
    ∫_[vertex,c] b dγ = (16/11) ∫_[midpoint,c] b dγ (e.g. √2/6 vs 11√2/96
    on the median through the origin).
    """
    B_bar, B_plain = coupling_operators(disc_2d, "power")
    nv = disc_2d.mesh.n_nodes * 2
    S = B_bar[:, nv:].toarray()
    P = B_plain[:, nv:].toarray()
    scale = np.abs(P).max()
    keep = np.abs(P) > 1e-12 * scale
    ratios = S[keep] / P[keep]
    np.testing.assert_allclose(ratios, 8.0 / 11.0, rtol=1e-10)
    # zero stays zero
    assert np.abs(S[~keep]).max() < 1e-12 * scale


def test_bubble_coupling_reference_triangle_closed_form():
    """Frozen hand-computed values on the unit reference triangle.

    For the corner (0,0) and the vertical bubble dof: the plain entry is
    ∫_{V∩T} ∂_y b dΩ = 11/32 and the smoothed entry is 1/4 (both obtained
    analytically via the divergence theorem on the quarter-cell boundary).
    """
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = PrimalMesh(nodes, np.array([[0, 1, 2]]), {})
    disc = Discretization(mesh)
    B_bar, B_plain = coupling_operators(disc, "power")
    col_y = mesh.n_nodes * 2 + 1  # bubble of element 0, y
    assert B_plain[0, col_y] == pytest.approx(11.0 / 32.0, rel=1e-13)
    assert B_bar[0, col_y] == pytest.approx(0.25, rel=1e-13)


def test_bubble_columns_2d_hat_ratio(disc_2d):
    """Hat-bubble columns coincide exactly with the element-wise coupling."""
    B_bar, B_plain = coupling_operators(disc_2d, "hat")
    nv = disc_2d.mesh.n_nodes * 2
    S = B_bar[:, nv:].toarray()
    P = B_plain[:, nv:].toarray()
    scale = np.abs(P).max()
    np.testing.assert_allclose(S, P, atol=1e-10 * scale)


@pytest.mark.parametrize("bubble,expected", [("power", 117.0 / 191.0), ("hat", 1.0)])
def test_bubble_columns_3d_single_constant(bubble, expected, disc_3d):
    """In 3D the bubble-column ratio is one constant across all elements.

    The power value 117/191 is exact: on the reference tetrahedron the
    plain corner entry of ∂_z b integrates to 191/2430 and the smoothed
    one to 13/270 (symbolic integration over the micro-cells).
    """
    B_bar, B_plain = coupling_operators(disc_3d, bubble)
    nv = disc_3d.mesh.n_nodes * 3
    S = B_bar[:, nv:].toarray()
    P = B_plain[:, nv:].toarray()
    scale = np.abs(P).max()
    keep = np.abs(P) > 1e-9 * scale
    ratios = S[keep] / P[keep]
    assert ratios.max() - ratios.min() < 1e-8 * max(1.0, abs(ratios.mean()))
    np.testing.assert_allclose(ratios, expected, rtol=1e-10)


@pytest.mark.parametrize("which", ["2d", "3d"])
def test_strain_rows_equal_kron_expansion(which, disc_2d, disc_3d):
    """Moving scalar column j to j * dim + c is the Kronecker product with
    the unit row e_c, entry for entry and in the same CSR layout."""
    disc = disc_2d if which == "2d" else disc_3d
    dim = disc.dim
    G = disc.gradient_ops(disc.smoothing_kind(), "hat")

    def kron(g, c):
        return sparse.kron(g, sparse.eye(1, dim, c), format="csr")

    expected = [kron(G[j], i) + kron(G[i], j) if i != j else kron(G[i], i)
                for i, j in VOIGT_PAIRS[dim]]
    div = kron(G[0], 0)
    for c in range(1, dim):
        div = div + kron(G[c], c)
    expected.append(div)
    got = strain_rows(G) + [divergence_operator(G)]
    for mine, ref in zip(got, expected, strict=True):
        for name in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(mine, name),
                                          getattr(ref, name))


@pytest.mark.parametrize("which", ["2d", "3d"])
def test_dense_and_sparse_strain_builders_agree(which, disc_2d, disc_3d):
    """The dense strain_matrix (MINI) and the sparse strain_rows (smoothed
    operators, energy norm) give the same domain strains, and Newton's
    Green-Lagrange rows Gt (F E) at F = I are the dense rows."""
    disc = disc_2d if which == "2d" else disc_3d
    dim = disc.dim
    G = disc.gradient_ops(disc.smoothing_kind(), "power")
    # the Newton layout reads every component through G[0]'s structure
    for g in G[1:]:
        np.testing.assert_array_equal(g.indptr, G[0].indptr)
        np.testing.assert_array_equal(g.indices, G[0].indices)
    problem = SmoothedHyperProblem(disc, NeoHookeanParams(0.6, 10.0))
    u = RNG.standard_normal(problem.dofmap.n_disp)
    eps_sparse = np.stack([R @ u for R in strain_rows(G)], axis=-1)
    scale = np.abs(eps_sparse).max()
    grad, dofs = problem._layout(G)
    n = problem.n_domains
    B = strain_matrix(grad)
    assert B.shape == (n, 3 * dim - 3, grad.shape[1] * dim)
    H = np.broadcast_to(problem._E.reshape(dim * dim, -1),
                        (n, dim * dim, 3 * dim - 3))
    np.testing.assert_array_equal((problem._Gt @ H).transpose(0, 2, 1), B)
    eps_dense = np.einsum("tvx,tx->tv", B, u[dofs])
    assert np.abs(eps_dense - eps_sparse).max() <= 1e-13 * scale


def test_fem_t3_matches_textbook_stiffness():
    """Plain FEM on one triangle equals the hand-assembled m B^T C B."""
    nodes = np.array([[0.0, 0.0], [2.0, 0.3], [0.4, 1.5]])
    mesh = PrimalMesh(nodes, np.array([[0, 1, 2]]), {})
    disc = Discretization(mesh)
    mat = MaterialParams(E=10.0, nu=0.25)
    bundle = assemble_method(disc, "fem-t3", mat)
    K = bundle.A.toarray()

    grads, meas = mesh.grads, mesh.element_measures()
    B = np.zeros((3, 6))
    for j in range(3):
        B[0, 2 * j] = grads[0, j, 0]
        B[1, 2 * j + 1] = grads[0, j, 1]
        B[2, 2 * j] = grads[0, j, 1]
        B[2, 2 * j + 1] = grads[0, j, 0]
    C = full_elastic_matrix(mat.lam, mat.mu, 2)
    K_ref = meas[0] * B.T @ C @ B
    np.testing.assert_allclose(K, K_ref, rtol=1e-12, atol=1e-12)


def test_method_dimension_guards():
    """Each one-dimension method refuses a mesh of the other dimension."""
    disc2 = Discretization(generate_cook(2))
    disc3 = Discretization(generate_block(2))
    mat = MaterialParams(E=1.0, nu=0.3)
    for disc, method in ((disc2, "bfs-fem"), (disc2, "fs-fem"),
                         (disc3, "bes-fem"), (disc3, "es-fem")):
        with pytest.raises(ValueError, match=f"{method} is defined in"):
            assemble_method(disc, method, mat)


def test_cook_traction_resultant():
    mesh = generate_cook(4)
    disc = Discretization(mesh)
    dofmap = disc.dofmap("power")
    f = assemble_loads(mesh, disc.topo, dofmap, {"traction": (0.0, 100.0)})
    fx = f[0::2].sum()
    fy = f[1::2].sum()
    assert fx == pytest.approx(0.0, abs=1e-12)
    assert fy == pytest.approx(1600.0, rel=1e-13)
    # bubbles carry no boundary load
    assert np.abs(f[mesh.n_nodes * 2:]).max() == 0.0


def test_annulus_pressure_resultant():
    """The quarter-arc pressure resultant telescopes to p*(a, a) exactly."""
    mesh = generate_annulus((4, 8))
    disc = Discretization(mesh)
    dofmap = disc.dofmap()
    f = assemble_loads(mesh, disc.topo, dofmap, {"traction": ("pressure", 8.0)})
    assert f[0::2].sum() == pytest.approx(8.0, rel=1e-12)
    assert f[1::2].sum() == pytest.approx(8.0, rel=1e-12)


def test_block_patch_resultant():
    mesh = generate_block(5)
    disc = Discretization(mesh)
    dofmap = disc.dofmap()
    f = assemble_loads(mesh, disc.topo, dofmap, {"traction": ("pressure", 250.0)})
    assert f[2::3].sum() == pytest.approx(-250.0 * 100.0, rel=1e-12)
    assert f[0::3].sum() == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("make_mesh", [
    lambda: distort_mesh(generate_cook(3), 0.3, seed=5),
    lambda: generate_annulus((3, 4)),
    lambda: generate_block(2),
    lambda: generate_block(3, pattern="unstructured"),
])
@pytest.mark.parametrize("load", [("pressure", 7.0), (1.5, -2.0, 0.5)])
def test_loads_do_not_depend_on_the_facet_vertex_order(make_mesh, load):
    """A pressure follows the outward normal whatever the orientation of a
    traction facet's vertices: reversing each 2D facet, or swapping the last
    two vertices of each 3D facet, flips the raw normal and the centroid
    test flips it back."""
    mesh = make_mesh()
    dim = mesh.dim
    topo = build_topology(mesh)
    dofmap = DofMap(mesh.n_nodes, mesh.n_elements, dim, "power")
    facets = mesh.boundary["traction"]
    flipped = facets[:, ::-1] if dim == 2 else facets[:, [0, 2, 1]]
    swapped = PrimalMesh(mesh.nodes, mesh.elements, {"traction": flipped})
    tractions = {"traction": load if load[0] == "pressure" else load[:dim]}
    want = assemble_loads(mesh, topo, dofmap, tractions)
    got = assemble_loads(swapped, topo, dofmap, tractions)
    assert np.any(want != 0.0)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("kind, message", [
    ("corner", "are not all facets of the mesh"),
    ("interior", "must lie on the mesh boundary"),
])
def test_a_traction_label_on_a_non_boundary_row_raises(kind, message):
    """A row joining two corners of Cook-3 is no mesh facet; an interior
    edge is a facet but not a boundary one.  Both name the label."""
    mesh = generate_cook(3)
    topo = build_topology(mesh)
    rows = {"corner": np.array([[0, mesh.n_nodes - 1]]),
            "interior": topo.edges[~topo.boundary_facet_mask][:1]}[kind]
    bad = PrimalMesh(mesh.nodes, mesh.elements, {"traction": rows})
    dofmap = DofMap(mesh.n_nodes, mesh.n_elements, 2, "power")
    with pytest.raises(ValueError, match=f"labeled 'traction' {message}"):
        assemble_loads(bad, topo, dofmap, {"traction": (0.0, 1.0)})


@pytest.mark.parametrize("load", [(np.nan, 1.0), (np.inf, 0.0),
                                  ("pressure", np.nan)],
                         ids=["nan-vector", "inf-vector", "nan-pressure"])
def test_a_non_finite_traction_raises(load):
    """A non-finite traction is named at assembly; the solve would otherwise
    call the system singular."""
    mesh = generate_cook(2)
    dofmap = DofMap(mesh.n_nodes, mesh.n_elements, 2, "power")
    with pytest.raises(ValueError,
                       match="traction labeled 'traction' must be finite"):
        assemble_loads(mesh, build_topology(mesh), dofmap, {"traction": load})


def test_dofmap_rejects_unknown_bubble():
    with pytest.raises(ValueError, match="unknown bubble kind"):
        DofMap(3, 1, 2, bubble="cubic")


@pytest.mark.parametrize("method", ["bes-fem", "bfs-fem"])
def test_enriched_methods_reject_a_missing_bubble(method):
    """Without a bubble kind the enriched pair would be the unenriched one
    under the bubble method's name."""
    mesh = generate_cook(2) if method == "bes-fem" else generate_block(2)
    disc = Discretization(mesh)
    with pytest.raises(ValueError, match="unknown bubble kind None"):
        assemble_method(disc, method, MaterialParams(E=1.0, nu=0.3),
                        bubble=None)


def test_dirichlet_dofs_labels():
    mesh = generate_annulus((3, 4))
    dofmap = Discretization(mesh).dofmap("power")
    fixed = dirichlet_dofs(mesh, dofmap)
    xs = mesh.nodes[fixed // 2, 0]
    ys = mesh.nodes[fixed // 2, 1]
    comps = fixed % 2
    # roller-x fixes u_x on x = 0, roller-y fixes u_y on y = 0
    assert np.all((np.abs(xs) < 1e-12) | (comps == 1))
    assert np.all((np.abs(ys) < 1e-12) | (comps == 0))
    assert fixed.max() < mesh.n_nodes * 2


@pytest.mark.parametrize("mesh", [generate_annulus((3, 4)), generate_cook(3),
                                  generate_block(2)])
def test_dirichlet_dofs_match_a_node_loop(mesh):
    """The constrained dofs are the sorted int64 vertex dofs of each
    constrained label's nodes, and none once no label is constrained."""
    dofmap = Discretization(mesh).dofmap("power")
    comps = {"clamped": range(mesh.dim), "roller-x": (0,), "roller-y": (1,)}
    expected = sorted({int(node) * mesh.dim + c
                       for label, cs in comps.items()
                       for node in np.unique(mesh.boundary.get(label, []))
                       for c in cs})
    fixed = dirichlet_dofs(mesh, dofmap)
    assert fixed.dtype == np.int64
    np.testing.assert_array_equal(fixed, expected)

    free = PrimalMesh(mesh.nodes, mesh.elements,
                      {k: v for k, v in mesh.boundary.items()
                       if k not in comps})
    none = dirichlet_dofs(free, dofmap)
    assert none.dtype == np.int64 and none.shape == (0,)


def test_h1_gram_vertex_block(disc_2d):
    """The vertex block is the scalar P1 stiffness, expanded per component."""
    mesh = disc_2d.mesh
    dofmap = disc_2d.dofmap("power")
    G = assemble_h1_gram(disc_2d, dofmap).toarray()
    grads, meas = mesh.grads, mesh.element_measures()
    N = mesh.n_nodes
    K = np.zeros((N, N))
    for t in range(mesh.n_elements):
        for a in range(3):
            for b in range(3):
                K[mesh.elements[t, a], mesh.elements[t, b]] += meas[t] * (
                    grads[t, a] @ grads[t, b]
                )
    np.testing.assert_allclose(G[: 2 * N: 2, : 2 * N: 2], K, atol=1e-12)
    np.testing.assert_allclose(G[1: 2 * N: 2, 1: 2 * N: 2], K, atol=1e-12)
    # vertex-bubble coupling vanishes, bubble diagonal is positive
    bub = G[2 * N:, : 2 * N]
    assert np.abs(bub).max() < 1e-12
    assert np.all(np.diag(G[2 * N:, 2 * N:]) > 0.0)


@pytest.mark.parametrize("which,bubble", [("2d", "hat"), ("3d", "hat"),
                                          ("2d", "power")])
def test_h1_gram_bubble_diagonal_matches_quadrature(which, bubble, disc_2d,
                                                    disc_3d):
    """The bubble diagonal is int |grad b|^2 over each element, here summed
    from the degree-4 micro-cell rule, which is exact for the piecewise
    constant hat gradients and for the quartic 2D power integrand."""
    disc = disc_2d if which == "2d" else disc_3d
    mesh, dim = disc.mesh, disc.dim
    dofmap = disc.dofmap(bubble)
    diag = assemble_h1_gram(disc, dofmap).diagonal()[mesh.n_nodes * dim:]
    _, _, w, lam = disc.quadrature()
    elem = disc.micro.cell_elem
    gb = bubble_gradient(bubble, lam, mesh.grads[elem])
    expected = np.bincount(elem, np.einsum("kq,kqd,kqd->k", w, gb, gb),
                           minlength=mesh.n_elements)
    for c in range(dim):
        np.testing.assert_allclose(diag[c::dim], expected, rtol=1e-12)


def test_smoothed_stiffness_is_symmetric_psd(disc_2d):
    mat = MaterialParams(E=250.0, nu=0.4999)
    bundle = assemble_method(disc_2d, "bes-fem", mat)
    K = assemble_condensed(bundle.A, bundle.B, bundle.C, mat.lam)
    asym = np.abs((K - K.T).toarray()).max()
    assert asym < 1e-8 * np.abs(K.toarray()).max()
    X = RNG.normal(size=(K.shape[0], 5))
    quad = np.einsum("ij,ik,kj->j", X, K.toarray(), X)
    assert np.all(quad > -1e-9 * np.abs(K.toarray()).max())


def test_mini_mass_consistency():
    """For u = A x the MINI coupling satisfies B u = tr(A) * (C 1)."""
    mesh = distort_mesh(generate_cook(3), 0.2, seed=30)
    disc = Discretization(mesh)
    mat = MaterialParams(E=100.0, nu=0.3)
    bundle = assemble_method(disc, "mini", mat)
    A = RNG.normal(size=(2, 2))
    U = np.zeros((bundle.dofmap.n_scalar, 2))
    U[: mesh.n_nodes] = mesh.nodes @ A.T
    lhs = bundle.B @ U.ravel()
    rhs = np.trace(A) * (bundle.C @ np.ones(mesh.n_nodes))
    np.testing.assert_allclose(lhs, rhs, rtol=1e-11, atol=1e-13)


# meshes for the summation-order pins: 2D, 3D (both block patterns) and
# distorted, so every shape the converted contractions see is covered
ORDER_MESHES = [
    lambda: generate_annulus(4),
    lambda: distort_mesh(generate_cook(6), 0.4, seed=3),
    lambda: generate_block(2),
    lambda: generate_block(3, pattern="unstructured"),
    lambda: distort_mesh(generate_block(2, size=(1.0, 1.1, 0.9)), 0.25,
                         seed=22),
]


def einsum_barycentric(mesh, elem, X):
    """``PrimalMesh.barycentric`` as an einsum of a C-ordered inverse."""
    rel = X - mesh.nodes[mesh.elements[elem, 0]][..., None, :]
    inv = np.ascontiguousarray(np.swapaxes(mesh.grads[elem, 1:, :], 1, 2))
    rest = np.einsum("fqc,fcd->fqd", rel, inv)
    return np.concatenate([1.0 - rest.sum(axis=-1, keepdims=True), rest],
                          axis=-1)


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("make_mesh", ORDER_MESHES)
def test_ordered_matmul_reproduces_einsum_bytes(make_mesh):
    """Every contraction ``ordered_matmul`` replaced gives einsum's bytes:
    the micro-cell, facet and element rule points and the barycentric
    coordinates of the micro-cell and facet points.  A switch to matmul or
    ``optimize=True`` reorders the sums and fails here."""
    disc = Discretization(make_mesh())
    mesh, micro, dim = disc.mesh, disc.micro, disc.dim
    domains = disc.domains(disc.smoothing_kind())
    facet_pts = micro.points[domains.facet_pts]
    cases = [
        (simplex_quadrature(dim, 4), micro.points[micro.cells],
         micro.cell_elem),
        (simplex_quadrature(dim - 1, dim + 1), facet_pts,
         micro.cell_elem[domains.facet_cell]),
        (simplex_quadrature(dim, 2 * dim), mesh.nodes[mesh.elements],
         np.arange(mesh.n_elements)),
    ]
    for rule, corners, elem in cases:
        X = ordered_matmul(rule.points, corners)
        assert same_bytes(X, np.einsum("qi,kid->kqd", rule.points, corners))
        assert same_bytes(mesh.barycentric(elem, X),
                          einsum_barycentric(mesh, elem, X))
    # locate_points asks for every candidate element at broadcast points
    X = np.broadcast_to(mesh.nodes[:5].mean(axis=0), (mesh.n_elements, 3, dim))
    elem = np.arange(mesh.n_elements)
    assert same_bytes(mesh.barycentric(elem, X),
                      einsum_barycentric(mesh, elem, X))


@pytest.mark.parametrize("make_mesh", ORDER_MESHES)
def test_quadrature_is_the_einsum_construction_byte_for_byte(make_mesh):
    disc = Discretization(make_mesh())
    micro = disc.micro
    rule, X, w, lam = disc.quadrature()
    want = np.einsum("qi,kid->kqd", rule.points, micro.points[micro.cells])
    assert same_bytes(X, want)
    assert same_bytes(lam, einsum_barycentric(disc.mesh, micro.cell_elem,
                                              want))


def test_a_traction_on_an_absent_label_raises():
    mesh = generate_cook(2)
    dofmap = DofMap(mesh.n_nodes, mesh.n_elements, 2, "power")
    with pytest.raises(ValueError,
                       match="no boundary facets labeled 'roller-x'"):
        assemble_loads(mesh, build_topology(mesh), dofmap,
                       {"roller-x": (0.0, 1.0)})


@pytest.mark.parametrize("make_mesh, load, form", [
    (generate_cook, (1.0,), "2 numbers"),
    (generate_cook, ((1.0, 2.0), (3.0, 4.0)), "2 numbers"),
    (generate_cook, ("pressure", 1.0, 2.0), "2 numbers"),
    (generate_cook, ("pressure",), "2 numbers"),
    (generate_cook, (1.0, 2.0, 3.0), "2 numbers"),
    (generate_block, (0.0, 1.0), "3 numbers"),
    (generate_cook, ((1.0,), (2.0, 3.0)), "2 numbers"),
], ids=["short", "per-facet", "pressure-pair", "bare-pressure", "long",
        "2-vector-in-3d", "ragged"])
def test_a_traction_of_the_wrong_shape_raises(make_mesh, load, form):
    """A traction is ("pressure", p) or exactly d numbers; nothing is
    broadcast, dropped or left to fail inside numpy."""
    mesh = make_mesh(2)
    dofmap = DofMap(mesh.n_nodes, mesh.n_elements, mesh.dim, "power")
    with pytest.raises(ValueError) as info:
        assemble_loads(mesh, build_topology(mesh), dofmap,
                       {"traction": load})
    assert str(info.value) == (f"traction labeled 'traction' must be "
                               f"('pressure', p) or {form}, not {load!r}")

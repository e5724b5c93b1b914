"""Tests for the linear solution paths and pressure recovery."""

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import linalg as spla

import smoothfem.solve as solve
from smoothfem.assembly import (
    Discretization,
    MaterialParams,
    assemble_B_bar,
    assemble_condensed,
    assemble_h1_gram,
    assemble_loads,
    assemble_method,
    dirichlet_dofs,
)
from smoothfem.benchmarks import infsup_operators
from smoothfem.mesh import (
    build_topology,
    distort_mesh,
    generate_annulus,
    generate_block,
    generate_cook,
)
from smoothfem.solve import (
    infsup_measure,
    solve_bundle,
    solve_condensed_split,
)


def boundary_values(disc, exact):
    """All boundary nodes constrained to an exact displacement field."""
    mesh = disc.mesh
    bnodes = disc.topo.boundary_nodes()
    fixed, values = [], []
    for n in bnodes:
        u = exact(mesh.nodes[n])
        for c in range(mesh.dim):
            fixed.append(n * mesh.dim + c)
            values.append(u[c])
    order = np.argsort(fixed)
    return np.asarray(fixed)[order], np.asarray(values)[order]


def solve_patch(bundle, f, fixed, values, split):
    """(u, p) from the bundle's own solve, or from the split-condensed one."""
    if split:
        u, p, _ = solve_condensed_split(bundle, f, fixed, values)
        return u, p
    sol = solve_bundle(bundle, f, fixed, values=values)
    return sol.u, sol.p


@pytest.mark.parametrize("method,bubble,split", [
    pytest.param(m, b, split, id=f"{m}-{b}" + ("-split" if split else ""))
    for m, b, split in [
        ("bes-fem", "power", False), ("bes-fem", "hat", False),
        ("es-fem", None, False), ("ns-fem", None, False),
        ("fem-t3", None, False), ("mini", None, False),
        ("bes-fem", "power", True), ("bes-fem", "hat", True),
    ]
])
def test_patch_test_linear_field(method, bubble, split):
    """Every method reproduces a linear displacement field exactly; the
    split-condensed oracle does so under the same prescribed values."""
    mesh = distort_mesh(generate_cook(3), 0.3, seed=14)
    disc = Discretization(mesh)
    mat = MaterialParams(E=200.0, nu=0.3)
    bundle = assemble_method(disc, method, mat, bubble=bubble or "power")
    A = np.array([[0.02, -0.01], [0.03, 0.015]])
    b = np.array([0.1, -0.2])
    exact = lambda x: A @ x + b
    fixed, values = boundary_values(disc, exact)
    f = np.zeros(bundle.dofmap.n_disp)
    u, p = solve_patch(bundle, f, fixed, values, split)
    U = bundle.dofmap.reshape(u)
    expected = mesh.nodes @ A.T + b
    scale = np.abs(expected).max()
    np.testing.assert_allclose(U[: mesh.n_nodes], expected, atol=1e-10 * scale)
    if bundle.dofmap.bubble:
        assert np.abs(U[mesh.n_nodes:]).max() < 1e-10 * scale
    # the recovered pressure is lam tr(A) everywhere
    p_exact = mat.lam * np.trace(A)
    np.testing.assert_allclose(p, p_exact, rtol=1e-8)


@pytest.mark.parametrize("split", [False, True], ids=["saddle", "split"])
def test_patch_test_3d(split):
    mesh = distort_mesh(generate_block(2, size=(1.0, 1.0, 1.0)), 0.2, seed=15)
    disc = Discretization(mesh)
    mat = MaterialParams(E=10.0, nu=0.3)
    bundle = assemble_method(disc, "bfs-fem", mat, bubble="power")
    A = np.random.default_rng(99).normal(size=(3, 3)) * 0.05
    exact = lambda x: A @ x
    fixed, values = boundary_values(disc, exact)
    u, p = solve_patch(bundle, np.zeros(bundle.dofmap.n_disp), fixed, values,
                       split)
    U = bundle.dofmap.reshape(u)
    expected = mesh.nodes @ A.T
    scale = max(np.abs(expected).max(), 1e-30)
    np.testing.assert_allclose(U[: mesh.n_nodes], expected, atol=1e-9 * scale)
    np.testing.assert_allclose(p, mat.lam * np.trace(A), rtol=1e-7)


def cook_problem(disc, method, nu, bubble="power"):
    mat = MaterialParams(E=250.0, nu=nu)
    bundle = assemble_method(disc, method, mat, bubble=bubble)
    f = assemble_loads(disc.mesh, disc.topo, bundle.dofmap,
                       {"traction": (0.0, 100.0)})
    fixed = dirichlet_dofs(disc.mesh, bundle.dofmap)
    return bundle, f, fixed


@pytest.mark.parametrize("nu", [0.4999, 0.4999999])
def test_mixed_equals_condensed(nu):
    """Both solution paths agree to tight tolerance even near the limit."""
    disc = Discretization(generate_cook(4))
    bundle, f, fixed = cook_problem(disc, "bes-fem", nu)
    mixed = solve_bundle(bundle, f, fixed)
    u, p, _ = solve_condensed_split(bundle, f, fixed)
    du = np.abs(mixed.u - u).max() / np.abs(mixed.u).max()
    dp = np.abs(mixed.p - p).max() / np.abs(mixed.p).max()
    assert du < 1e-9
    assert dp < 1e-9


def test_mini_has_no_condensed_path():
    """MINI's continuous pressure mass cannot be eliminated exactly."""
    disc = Discretization(generate_cook(2))
    bundle, f, fixed = cook_problem(disc, "mini", 0.4999)
    with pytest.raises(ValueError, match="diagonal pressure mass"):
        solve_condensed_split(bundle, f, fixed)


@pytest.mark.parametrize("method", ["bes-fem", "mini", "fem-t3"])
def test_unknown_solve_path_rejected(method):
    """The method picks the solve; asking for a path raises instead of
    silently picking one."""
    disc = Discretization(generate_cook(2))
    bundle, f, fixed = cook_problem(disc, method, 0.4999)
    with pytest.raises(TypeError, match="path"):
        solve_bundle(bundle, f, fixed, path="mixed")
    assert solve_bundle(bundle, f, fixed).method == method


def test_pressure_recovery_identity():
    disc = Discretization(generate_cook(3))
    bundle, f, fixed = cook_problem(disc, "bes-fem", 0.4999)
    sol = solve_bundle(bundle, f, fixed)
    p2 = bundle.mat.lam * (bundle.B @ sol.u) / bundle.C
    np.testing.assert_allclose(p2, sol.p, rtol=1e-9)


def test_energy_identity():
    """For the condensed solve, u^T K u = f^T u (Galerkin)."""
    disc = Discretization(generate_cook(4))
    bundle, f, fixed = cook_problem(disc, "bes-fem", 0.4999)
    u, _, _ = solve_condensed_split(bundle, f, fixed)
    K = assemble_condensed(bundle.A, bundle.B, bundle.C, bundle.mat.lam)
    lhs = u @ (K @ u)
    rhs = f @ u
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_singular_system_reports_missing_constraints():
    disc = Discretization(generate_cook(2))
    bundle, f, _ = cook_problem(disc, "fem-t3", 0.3)
    with pytest.raises(RuntimeError, match="constraint"):
        solve_bundle(bundle, f, np.array([], dtype=np.int64))


def test_condensed_failure_past_the_ratio_bound_names_lambda_over_mu():
    """ns-fem on pipe mesh 4 at nu = 0.5 - 1e-11 fails with every rigid-body
    motion constrained; the message blames lambda/mu, not constraints."""
    disc = Discretization(generate_annulus(4))
    bundle = assemble_method(disc, "ns-fem",
                             MaterialParams(E=21000.0, nu=0.5 - 1e-11))
    assert bundle.mat.lam / bundle.mat.mu > solve.CONDENSED_RATIO_MAX
    f = assemble_loads(disc.mesh, disc.topo, bundle.dofmap,
                       {"traction": ("pressure", 8.0)})
    with pytest.raises(RuntimeError, match="lambda/mu = 5e[+]10") as info:
        solve_bundle(bundle, f, dirichlet_dofs(disc.mesh, bundle.dofmap))
    assert "condensed" in str(info.value)
    assert "constraint" not in str(info.value)


def test_exactly_singular_factor_reports_missing_constraints():
    """A zero pivot stops SuperLU itself; the message names the likely
    cause and keeps SuperLU's as its cause."""
    with pytest.raises(RuntimeError, match="constraint") as info:
        solve._solve_constrained(sparse.diags([2.0, 0.0, 3.0]), np.ones(3),
                                 np.array([], dtype=np.int64))
    assert "Factor is exactly singular" in str(info.value.__cause__)


def test_weak_factor_reports_stagnation(monkeypatch):
    """A factor that reduces the residual too slowly is not called singular."""
    spla = solve.spla

    class WeakLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, r):
            return 0.3 * self.lu.solve(r)

    class WeakSpla:
        def splu(self, A):
            return WeakLU(spla.splu(A))

        def __getattr__(self, name):
            return getattr(spla, name)

    monkeypatch.setattr(solve, "spla", WeakSpla())
    disc = Discretization(generate_cook(2))
    bundle, f, fixed = cook_problem(disc, "fem-t3", 0.3)
    with pytest.raises(RuntimeError) as info:
        solve_bundle(bundle, f, fixed)
    message = str(info.value)
    assert message == "refinement stagnated at residual 0.7 after 1 rounds"
    assert "constraint" not in message


def test_non_finite_correction_reports_a_singular_system(monkeypatch):
    """A factor whose solve returns NaN is no approximation of the inverse:
    the refinement calls the system singular before it applies the
    correction."""
    spla = solve.spla

    class NanLU:
        def solve(self, r):
            return np.full_like(r, np.nan)

    class NanSpla:
        def splu(self, A):
            return NanLU()

        def __getattr__(self, name):
            return getattr(spla, name)

    norm, finite = np.linalg.norm, []

    def spy(x, *args, **kwargs):
        finite.append(bool(np.isfinite(x).all()))
        return norm(x, *args, **kwargs)

    disc = Discretization(generate_cook(2))
    bundle, f, fixed = cook_problem(disc, "fem-t3", 0.3)
    monkeypatch.setattr(solve, "spla", NanSpla())
    monkeypatch.setattr(np.linalg, "norm", spy)
    with pytest.raises(RuntimeError, match="linear system is singular"):
        solve_bundle(bundle, f, fixed)
    assert finite == [True]   # the NaN correction is never applied


class RecordingSpla:
    """Stand-in for ``solve.spla`` that logs every factorization; with
    ``colamd`` set, it drops the options so every call uses COLAMD."""

    spla = solve.spla

    def __init__(self, colamd=False):
        self.colamd = colamd
        self.factors = []

    def splu(self, A, **kwargs):
        if self.colamd:
            kwargs = {}
        lu = self.spla.splu(A, **kwargs)
        self.factors.append((kwargs, lu))
        return lu

    def __getattr__(self, name):
        return getattr(self.spla, name)


@pytest.mark.parametrize("method", ["bes-fem", "mini"])
def test_sqd_and_colamd_solves_agree(method, monkeypatch):
    """Near the limit the symmetric-mode factor refines to the COLAMD
    solution, with less fill."""
    disc = Discretization(generate_cook(8))
    bundle, f, fixed = cook_problem(disc, method, 0.4999999)
    sqd_spla = RecordingSpla()
    monkeypatch.setattr(solve, "spla", sqd_spla)
    sqd = solve_bundle(bundle, f, fixed)
    colamd_spla = RecordingSpla(colamd=True)
    monkeypatch.setattr(solve, "spla", colamd_spla)
    colamd = solve_bundle(bundle, f, fixed)
    for a, b in ((sqd.u, colamd.u), (sqd.p, colamd.p)):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
    (kw_s, lu_s), = sqd_spla.factors
    (kw_c, lu_c), = colamd_spla.factors
    assert kw_s == solve.SQD_OPTIONS and kw_c == {}
    assert lu_s.nnz < lu_c.nnz
    assert lu_s.L.nnz + lu_s.U.nnz < lu_c.L.nnz + lu_c.U.nnz


def test_refinement_norms_take_the_longdouble_residual(monkeypatch):
    """Refinement measures each residual in longdouble, never a float64
    copy.  numpy sums a longdouble dot in its own loop; a float64 norm goes
    to OpenBLAS, which threads a dot over more than 10,000 entries (the
    pipe saddles at mesh 32 have 14,561 rows), and waking that thread
    stalls every solve on a two-core host."""
    disc = Discretization(generate_annulus(4))
    mat = MaterialParams(E=21000.0, nu=0.4999999)
    problems = []
    for method in ("bes-fem", "mini", "ns-fem"):
        bundle = assemble_method(disc, method, mat, bubble="power")
        f = assemble_loads(disc.mesh, disc.topo, bundle.dofmap,
                           {"traction": ("pressure", 8.0)})
        problems.append((bundle, f, dirichlet_dofs(disc.mesh,
                                                   bundle.dofmap)))
    cook, cook_f, cook_fixed = cook_problem(
        Discretization(generate_cook(4)), "bes-fem", 0.4999999)
    norm, seen = np.linalg.norm, []

    def spy(x, *args, **kwargs):
        seen.append(np.asarray(x).dtype)
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", spy)
    for bundle, f, fixed in problems:
        solve_bundle(bundle, f, fixed)
    solve_condensed_split(cook, cook_f, cook_fixed)
    assert len(seen) >= 8
    assert all(dtype == np.longdouble for dtype in seen), seen


def test_locking_order_cook():
    """Near the limit, plain FEM locks while the bubble pair stays soft."""
    disc = Discretization(generate_cook(4))
    tips = {}
    for method in ("fem-t3", "bes-fem"):
        bundle, f, fixed = cook_problem(disc, method, 0.4999)
        sol = solve_bundle(bundle, f, fixed)
        tip = np.flatnonzero(
            np.all(np.abs(disc.mesh.nodes - [48.0, 60.0]) < 1e-9, axis=1)
        )[0]
        tips[method] = sol.u[2 * tip + 1]
    assert tips["bes-fem"] > 2.0 * tips["fem-t3"]


def test_block_smoke_3d():
    mesh = generate_block(5)
    disc = Discretization(mesh)
    mat = MaterialParams(E=250.0, nu=0.4999)
    bundle = assemble_method(disc, "bfs-fem", mat)
    f = assemble_loads(mesh, disc.topo, bundle.dofmap,
                       {"traction": ("pressure", 250.0)})
    fixed = dirichlet_dofs(mesh, bundle.dofmap)
    sol = solve_bundle(bundle, f, fixed)
    assert np.isfinite(sol.u).all()
    corner = np.flatnonzero(
        np.all(np.abs(mesh.nodes - [0.0, 0.0, 50.0]) < 1e-9, axis=1)
    )[0]
    assert sol.u[3 * corner + 2] < 0.0


def test_infsup_smoke():
    betas = {}
    for n in (2, 4):
        disc = Discretization(generate_cook(n))
        mat = MaterialParams(E=250.0, nu=0.4999)
        bundle = assemble_method(disc, "bes-fem", mat)
        G = assemble_h1_gram(disc, bundle.dofmap)
        fixed = dirichlet_dofs(disc.mesh, bundle.dofmap)
        beta, eigs = infsup_measure(G, bundle.B, bundle.C, fixed,
                                    bundle.dofmap.n_disp)
        assert 0.0 < beta < 10.0
        betas[n] = beta
    assert betas[4] > 0.3 * betas[2]


def dense_spectrum(G_gram, B, C_diag, fixed, n_disp):
    """Every eigenvalue of the dense C^{-1/2} B G^{-1} B^T C^{-1/2} by
    ``eigvalsh``, ascending."""
    free = np.setdiff1d(np.arange(n_disp), fixed)
    G_red = G_gram.tocsr()[free][:, free].tocsc()
    B_red = B.tocsr()[:, free]
    S = B_red @ spla.splu(G_red).solve(B_red.toarray().T)
    w = 1.0 / np.sqrt(C_diag)
    return np.linalg.eigvalsh(0.5 * (S + S.T) * w[None, :] * w[:, None])


def cook_infsup_operators(n, method, distort=0.0):
    mesh = generate_cook(n)
    if distort:
        mesh = distort_mesh(mesh, distort, seed=3)
    return infsup_operators(Discretization(mesh), method)


def block_infsup_operators(pattern, bubble):
    """The ``infsup_measure`` arguments of the 3D face pairing on block-2
    (uniform) or the unstructured block-3."""
    disc = Discretization(generate_block(2 if pattern == "uniform" else 3,
                                         pattern=pattern))
    dofmap = disc.dofmap(bubble)
    return (assemble_h1_gram(disc, dofmap),
            assemble_B_bar(disc, "face", bubble),
            disc.pressure_cells.measures.copy(),
            dirichlet_dofs(disc.mesh, dofmap), dofmap.n_disp)


def _assert_matches_dense_oracle(ops):
    """beta and the whole returned low end against ``eigvalsh``.

    The nonzero values are the lowest nonzero eigenvalues.  A multiple zero
    may show fewer times than its multiplicity (es-fem on the distorted
    cook-16 shows its double zero once), so the zeros are only bounded.
    """
    beta, low = infsup_measure(*ops)
    eigs = dense_spectrum(*ops)
    nonzero = eigs[eigs > 1e-10 * eigs.max()]
    assert beta == pytest.approx(np.sqrt(nonzero[0]), rel=1e-10)
    zero = low <= solve.INFSUP_ZERO
    assert low[zero] == pytest.approx(0.0, abs=1e-10)
    assert zero.sum() <= len(eigs) - len(nonzero)
    assert low[~zero] == pytest.approx(nonzero[:len(low) - zero.sum()],
                                       abs=1e-10)


@pytest.mark.parametrize("distort", [0.0, 0.4])
@pytest.mark.parametrize("method", ["bes-fem", "es-fem"])
def test_infsup_matches_dense_oracle(method, distort):
    for n in (2, 4, 8, 16):
        _assert_matches_dense_oracle(cook_infsup_operators(n, method, distort))


@pytest.mark.parametrize("distort", [0.0, 0.4])
def test_infsup_matches_dense_oracle_with_the_hat_bubble(distort):
    for n in (2, 4, 8):
        mesh = generate_cook(n)
        if distort:
            mesh = distort_mesh(mesh, distort, seed=3)
        _assert_matches_dense_oracle(
            infsup_operators(Discretization(mesh), "bes-fem", "hat"))


@pytest.mark.parametrize("bubble", ["power", "hat"])
def test_infsup_matches_dense_oracle_3d(bubble):
    _assert_matches_dense_oracle(block_infsup_operators("uniform", bubble))


def test_infsup_condenses_a_vertex_whose_neighbours_are_all_fixed():
    """The condensation reads only the structure of G: with the whole
    boundary of cook-2 clamped, the one interior vertex of the unenriched
    space has a diagonal-only Gram row, and every free dof is condensed."""
    disc = Discretization(generate_cook(2))
    G, B, C, _, n_disp = infsup_operators(disc, "es-fem")
    nodes = np.unique(np.concatenate(list(disc.mesh.boundary.values())))
    fixed = np.sort(np.concatenate([2 * nodes, 2 * nodes + 1]))
    assert len(fixed) == n_disp - 2
    _assert_matches_dense_oracle((G, B, C, fixed, n_disp))


@pytest.mark.parametrize("method, bubble, dim", [("bes-fem", "power", 2),
                                                 ("bes-fem", "hat", 2),
                                                 ("es-fem", "power", 2),
                                                 ("bes-fem", "power", 3)])
def test_infsup_factors_the_free_vertex_dofs_and_the_pressures(
        method, bubble, dim, monkeypatch):
    """Every bubble is condensed into the pressure block, so the factored
    saddle has one row per free vertex dof and per pressure cell; the
    unenriched pairing (no bubbles) keeps its order."""
    orders = []
    factorize = solve._factorize

    def recording(M, **options):
        orders.append(M.shape[0])
        return factorize(M, **options)

    monkeypatch.setattr(solve, "_factorize", recording)
    if dim == 2:
        mesh = distort_mesh(generate_cook(8), 0.4, seed=3)
        ops = infsup_operators(Discretization(mesh), method, bubble)
    else:
        mesh = generate_block(2)
        ops = block_infsup_operators("uniform", bubble)
    _, B, _, fixed, n_disp = ops
    infsup_measure(*ops)
    n_vertex = mesh.n_nodes * dim
    free_vertex = len(np.setdiff1d(np.arange(n_vertex), fixed))
    assert orders == [free_vertex + B.shape[0]]
    if method == "es-fem":
        assert n_disp == n_vertex


def _assert_spectrum_within_the_bound(ops, dim):
    eigs = dense_spectrum(*ops)
    assert eigs[0] > -solve.INFSUP_ZERO
    assert eigs[-1] <= dim


@pytest.mark.parametrize("distort", [0.0, 0.4])
@pytest.mark.parametrize("method, bubble", [("bes-fem", "power"),
                                            ("bes-fem", "hat"),
                                            ("es-fem", "power")])
def test_infsup_spectrum_lies_in_zero_to_dim_2d(method, bubble, distort):
    """The fixed shift and zero threshold of ``infsup_measure`` rest on
    the spectrum of C^-1/2 B G^-1 B' C^-1/2 lying in [0, d]."""
    for n in (2, 4, 8):
        mesh = generate_cook(n)
        if distort:
            mesh = distort_mesh(mesh, distort, seed=3)
        ops = infsup_operators(Discretization(mesh), method, bubble)
        _assert_spectrum_within_the_bound(ops, 2)


@pytest.mark.parametrize("bubble", ["power", "hat"])
@pytest.mark.parametrize("pattern", ["uniform", "unstructured"])
def test_infsup_spectrum_lies_in_zero_to_dim_3d(pattern, bubble):
    """The same bound for the 3D face pairing on block-2 and on the
    unstructured block-3."""
    _assert_spectrum_within_the_bound(
        block_infsup_operators(pattern, bubble), 3)


def test_infsup_skips_more_zero_modes_than_one_batch():
    """Eight zero pressure rows add an eight-fold zero eigenvalue; the
    measure reports a zero on its way to beta and finds the same beta."""
    G, B, C, fixed, n_disp = cook_infsup_operators(4, "bes-fem")
    B_pad = sparse.vstack([B, sparse.csr_matrix((8, B.shape[1]))])
    C_pad = np.concatenate([C, np.linspace(0.5, 2.0, 8)])
    beta, low = infsup_measure(G, B_pad, C_pad, fixed, n_disp)
    assert np.any(low <= solve.INFSUP_ZERO)
    assert beta == pytest.approx(infsup_measure(G, B, C, fixed, n_disp)[0],
                                 rel=1e-10)


def test_infsup_rejects_an_all_zero_coupling():
    G, B, C, fixed, n_disp = cook_infsup_operators(4, "bes-fem")
    with pytest.raises(RuntimeError, match="completely degenerate"):
        infsup_measure(G, B * 0.0, C, fixed, n_disp)


def test_infsup_rejects_a_coupling_below_the_zero_threshold():
    """Every eigenvalue of a coupling scaled by 1e-9 is below
    ``INFSUP_ZERO``, so the whole Krylov space holds no nonzero one."""
    G = sparse.diags([-np.ones(5), 2.0 * np.ones(6), -np.ones(5)], [-1, 0, 1])
    B = sparse.eye(3, 6, k=1, format="csr")
    none = np.array([], dtype=np.int64)
    beta, _ = infsup_measure(G, B, np.ones(3), none, 6)
    assert beta > 0.1
    with pytest.raises(RuntimeError, match="no eigenvalue of the exhausted"):
        infsup_measure(G, 1e-9 * B, np.ones(3), none, 6)


def test_infsup_finds_the_one_positive_eigenvalue_of_a_rank_one_coupling():
    """A rank-one coupling has n_p - 1 zero modes and one positive
    eigenvalue.  The Krylov space is exhausted before that eigenvalue
    converges by the residual test, and its Ritz values are then the
    eigenvalues: beta^2 = 5096 to the eps * lambda / |sigma| bound stated
    beside ``INFSUP_SHIFT``."""
    G = sparse.diags([-np.ones(5), 2.0 * np.ones(6), -np.ones(5)], [-1, 0, 1])
    B = np.outer([1.0, 2.0, 3.0], np.arange(1.0, 7.0))
    S = B @ np.linalg.solve(G.toarray(), B.T)
    assert np.linalg.eigvalsh(S)[-1] == pytest.approx(5096.0, rel=1e-9)
    beta, low = infsup_measure(G, sparse.csr_matrix(B), np.ones(3),
                               np.array([], dtype=np.int64), 6)
    bound = np.finfo(float).eps * 5096.0 / abs(solve.INFSUP_SHIFT)
    assert low[-1] == pytest.approx(5096.0, rel=bound)
    assert beta == np.sqrt(low[-1]) and np.all(low[:-1] <= solve.INFSUP_ZERO)


def test_infsup_measure_solve_budget(monkeypatch):
    """Lanczos stops once beta's values converge: each pairing on the
    distorted cook-16 takes at most 20 shift-invert solves (ARPACK took 37
    for bes-fem, converging three Ritz values)."""
    counts = []
    factorize = solve._factorize

    class Counting:
        def __init__(self, lu):
            self.lu, self.solves = lu, 0
            counts.append(self)

        def solve(self, rhs):
            self.solves += 1
            return self.lu.solve(rhs)

    monkeypatch.setattr(solve, "_factorize",
                        lambda M, **options: Counting(factorize(M, **options)))
    for method in ("bes-fem", "es-fem"):
        _assert_matches_dense_oracle(cook_infsup_operators(16, method, 0.4))
    solves = [c.solves for c in counts]
    assert len(solves) == 2 and all(0 < n <= 20 for n in solves), solves


def test_infsup_is_independent_of_the_global_random_state():
    """beta is bitwise the same after draws from numpy's global legacy RNG:
    the start vector comes from the measure's own generator."""
    ops = cook_infsup_operators(8, "es-fem", distort=0.4)
    first, _ = infsup_measure(*ops)
    np.random.uniform(size=50)
    assert infsup_measure(*ops)[0] == first


def test_non_finite_residual_reports_a_singular_system():
    """A residual that is not finite ends the refinement at once: the
    system is called singular."""
    b = np.ones(3, dtype=np.longdouble)
    with pytest.raises(RuntimeError, match="linear system is singular"):
        solve._refine(None, lambda x: np.full(len(x), np.nan), b)

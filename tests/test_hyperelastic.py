"""Tests for the neo-Hookean smoothed formulation."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

import smoothfem.hyperelastic as hyperelastic
from smoothfem.assembly import (VOIGT_PAIRS, Discretization, assemble_A_bar,
                                assemble_lambda_stiffness, assemble_loads,
                                dirichlet_dofs, dof_indices, free_dofs,
                                scatter_blocks)
from smoothfem.benchmarks import make_config, run_scenario
from smoothfem.hyperelastic import (NeoHookeanParams, SmoothedHyperProblem,
                                    material_tangent, newton_load_stepping,
                                    pk2_stress, strain_energy)
from smoothfem.mesh import (distort_mesh, generate_annulus, generate_block,
                            generate_cook)

PARAMS = NeoHookeanParams(mu=0.6, kappa=1.95)


def random_spd(rng, d):
    """SPD matrix with eigenvalues in [0.5, 2]."""
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return (Q * rng.uniform(0.5, 2.0, d)) @ Q.T


def sym_unit(d, i, j):
    P = np.zeros((d, d))
    if i == j:
        P[i, i] = 1.0
    else:
        P[i, j] = P[j, i] = 0.5
    return P


def voigt_tangent(Ci, lnJ, params):
    """The tangent as a Voigt matrix (nv, nv) on engineering strain rows,
    written out per pair of Voigt rows: an oracle for the entries Newton
    evaluates at the Voigt pairs."""
    pi, pj = np.array(VOIGT_PAIRS[Ci.shape[-1]]).T
    g = params.mu - params.lam * lnJ
    CiV = Ci[:, pi, pj]
    term = params.lam * CiV[:, :, None] * CiV[:, None, :]
    term += g[:, None, None] * (
        Ci[:, pi[:, None], pi[None, :]] * Ci[:, pj[:, None], pj[None, :]]
        + Ci[:, pi[:, None], pj[None, :]] * Ci[:, pj[:, None], pi[None, :]])
    return term


def green_lagrange_rows(grad, F):
    """Voigt rows (T, nv, n d) of the Green-Lagrange strain variation,
    written per pair: row (i, j), column a d + k holds
    g_aj F_ki + g_ai F_kj, one term when i == j."""
    T, n, d = grad.shape
    pairs = VOIGT_PAIRS[d]
    B = np.zeros((T, len(pairs), n, d))
    for v, (i, j) in enumerate(pairs):
        B[:, v] = grad[:, :, j, None] * F[:, None, :, i]
        if i != j:
            B[:, v] += grad[:, :, i, None] * F[:, None, :, j]
    return B.reshape(T, len(pairs), n * d)


@pytest.fixture(scope="module")
def disc():
    return Discretization(generate_cook(2))


@pytest.fixture(scope="module")
def disc_3d():
    """A distorted block-2: face domains, six Voigt rows."""
    return Discretization(distort_mesh(
        generate_block(2, size=(1.0, 1.0, 1.0)), 0.3, seed=5))


@pytest.mark.parametrize("mu, kappa", [(np.nan, 1.0), (0.6, np.inf)])
def test_params_reject_non_finite_moduli(mu, kappa):
    with pytest.raises(ValueError, match="finite"):
        NeoHookeanParams(mu=mu, kappa=kappa)


def test_params_lambda():
    assert PARAMS.lam == pytest.approx(1.95 - 2.0 * 0.6 / 3.0, rel=1e-15)
    with pytest.raises(ValueError, match="positive"):
        NeoHookeanParams(mu=-1.0, kappa=1.0)


def test_energy_reference_values():
    assert strain_energy(np.eye(3), PARAMS) == 0.0
    assert strain_energy(np.eye(2), PARAMS) == 0.0
    # uniform stretch F = 2I in 3D: J = 8, tr C = 12
    C = 4.0 * np.eye(3)
    expected = (0.5 * PARAMS.lam * np.log(8.0) ** 2
                - PARAMS.mu * np.log(8.0) + 0.5 * PARAMS.mu * 9.0)
    assert strain_energy(C, PARAMS) == pytest.approx(expected, rel=1e-14)


def test_energy_positive_near_identity():
    rng = np.random.default_rng(5)
    for d in (2, 3):
        for _ in range(20):
            E = rng.standard_normal((d, d))
            C = np.eye(d) + 1e-3 * (E + E.T)
            assert strain_energy(C, PARAMS) > 0.0


def test_frame_indifference():
    rng = np.random.default_rng(9)
    for _ in range(20):
        F = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        if np.linalg.det(F) <= 0.1:
            continue
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(Q) < 0:
            Q[:, 0] *= -1.0
        a = strain_energy(F.T @ F, PARAMS)
        b = strain_energy((Q @ F).T @ (Q @ F), PARAMS)
        assert abs(a - b) <= 1e-12 * (1.0 + abs(a))


def test_stress_reference_state():
    for d in (2, 3):
        S = pk2_stress(np.eye(d), PARAMS)
        np.testing.assert_allclose(S, 0.0, atol=1e-15)


def test_stress_matches_energy_gradient():
    rng = np.random.default_rng(31)
    h = 1e-6
    for trial in range(100):
        d = 2 if trial % 2 == 0 else 3
        C = random_spd(rng, d)
        S = pk2_stress(C, PARAMS)
        np.testing.assert_allclose(S, S.T, atol=1e-14)
        S_fd = np.zeros_like(S)
        for i in range(d):
            for j in range(i, d):
                P = sym_unit(d, i, j)
                S_fd[i, j] = (strain_energy(C + h * P, PARAMS)
                              - strain_energy(C - h * P, PARAMS)) / h
                S_fd[j, i] = S_fd[i, j]
        assert np.abs(S_fd - S).max() <= 1e-6 * (np.abs(S).max() + PARAMS.mu)


def test_tangent_reference_and_symmetry():
    for d in (2, 3):
        CC = material_tangent(np.eye(d), PARAMS)
        lam, mu = PARAMS.lam, PARAMS.mu
        eye = np.eye(d)
        expected = (lam * np.einsum("ij,kl->ijkl", eye, eye)
                    + mu * (np.einsum("ik,jl->ijkl", eye, eye)
                            + np.einsum("il,jk->ijkl", eye, eye)))
        np.testing.assert_allclose(CC, expected, atol=1e-14)
        rng = np.random.default_rng(d)
        C = random_spd(rng, d)
        CC = material_tangent(C, PARAMS)
        np.testing.assert_allclose(CC, CC.transpose(2, 3, 0, 1), atol=1e-13)
        np.testing.assert_allclose(CC, CC.transpose(1, 0, 2, 3), atol=1e-13)


@pytest.mark.parametrize("d", [2, 3])
def test_gathered_tangent_matches_the_voigt_oracle(d):
    """The law evaluated at the Voigt pairs, as Newton evaluates it,
    equals the per-pair Voigt formula."""
    rng = np.random.default_rng(60 + d)
    C = np.stack([random_spd(rng, d) for _ in range(50)])
    Ci = np.linalg.inv(C)
    lnJ = 0.5 * np.log(np.linalg.det(C))
    pi, pj = np.array(VOIGT_PAIRS[d]).T
    M = hyperelastic._tangent(Ci, lnJ, PARAMS, *np.broadcast_arrays(
        pi[:, None], pj[:, None], pi, pj))
    M_ref = voigt_tangent(Ci, lnJ, PARAMS)
    assert M.shape == (50, 3 * d - 3, 3 * d - 3)
    assert np.abs(M - M_ref).max() <= 1e-14 * np.abs(M_ref).max()


@pytest.mark.parametrize("d", [2, 3])
def test_closed_form_det_and_adjugate_match_linalg(d):
    """On 1,000 random matrices of condition below 10, det A and
    adj A / det A agree with np.linalg.det and np.linalg.inv to 8 machine
    epsilons, relative to |det A| and to the inverse's largest entry (the
    worst drift measured: 1.6 and 1.7 eps in 2D, 2.9 and 3.0 eps in 3D)."""
    rng = np.random.default_rng(3)
    A = np.eye(d) + 0.3 * rng.standard_normal((1000, d, d))
    A = A[np.linalg.cond(A) < 10.0]
    det, adj = hyperelastic._det_adj(A)
    det_ref, inv_ref = np.linalg.det(A), np.linalg.inv(A)
    eps = np.finfo(float).eps
    assert np.all(np.abs(det - det_ref) <= 8 * eps * np.abs(det_ref))
    drift = np.abs(adj / det[:, None, None] - inv_ref).max(axis=(1, 2))
    assert np.all(drift <= 8 * eps * np.abs(inv_ref).max(axis=(1, 2)))
    # one matrix without a batch axis, and a size with no closed form here
    one_det, one_adj = hyperelastic._det_adj(A[0])
    assert one_det == det[0] and np.array_equal(one_adj, adj[0])
    with pytest.raises(ValueError, match="4x4"):
        hyperelastic._det_adj(np.eye(4))


@pytest.mark.parametrize("which", ["2d", "3d"])
def test_voigt_tangent_is_the_d4_tangent_at_the_voigt_pairs(which, disc,
                                                            disc_3d):
    """Newton's tangent, the law evaluated at the problem's Voigt index
    arrays, holds exactly the entries of material_tangent's d^4 tensor."""
    problem = SmoothedHyperProblem(disc if which == "2d" else disc_3d, PARAMS)
    u = 1e-2 * np.random.default_rng(19).standard_normal(
        problem.dofmap.n_disp)
    _, C, _ = problem.state(u)
    Ci, lnJ = hyperelastic._metric(C)
    pi, pj = problem._pairs
    M = hyperelastic._tangent(Ci, lnJ, PARAMS, *problem._voigt)
    CC = material_tangent(C, PARAMS)
    assert M.shape == (problem.n_domains, len(pi), len(pi))
    assert np.array_equal(M, CC[:, pi[:, None], pj[:, None], pi, pj])


def test_tangent_matches_stress_derivative():
    rng = np.random.default_rng(77)
    h = 1e-6
    for trial in range(100):
        d = 2 if trial % 2 == 0 else 3
        C = random_spd(rng, d)
        CC = material_tangent(C, PARAMS)
        scale = np.abs(CC).max()
        for k in range(d):
            for l in range(k, d):
                P = sym_unit(d, k, l)
                col = (pk2_stress(C + h * P, PARAMS)
                       - pk2_stress(C - h * P, PARAMS)) / h
                assert np.abs(col - CC[:, :, k, l]).max() <= 1e-5 * scale


def check_zero_state_matches_linear_stiffness(disc):
    problem = SmoothedHyperProblem(disc, PARAMS)
    R, K, _ = problem.residual_tangent(np.zeros(problem.dofmap.n_disp))
    assert np.abs(R).max() == 0.0

    kind = disc.smoothing_kind()
    K_lin = (assemble_A_bar(disc, kind, "power", PARAMS.mu)
             + assemble_lambda_stiffness(disc, kind, "power", PARAMS.lam))
    diff = (K - K_lin).tocoo()
    scale = np.abs(K_lin.data).max()
    top = np.abs(diff.data).max() if diff.nnz else 0.0
    assert top <= 1e-10 * scale


def test_zero_state_matches_linear_stiffness(disc):
    check_zero_state_matches_linear_stiffness(disc)


def test_zero_state_matches_linear_stiffness_3d(disc_3d):
    check_zero_state_matches_linear_stiffness(disc_3d)


def test_rigid_rotation_gives_zero_residual(disc):
    th = 0.7
    Q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    dofmap = disc.dofmap("power")
    vals = np.zeros((dofmap.n_scalar, 2))
    vals[:disc.mesh.n_nodes] = disc.mesh.nodes @ (Q - np.eye(2)).T
    problem = SmoothedHyperProblem(disc, PARAMS)
    R, _, _ = problem.residual_tangent(vals.ravel())
    _, _, lnJ = problem.state(vals.ravel())
    np.testing.assert_allclose(lnJ, 0.0, atol=1e-12)
    assert np.abs(R).max() <= 1e-10 * PARAMS.mu


def test_state_reports_domain_kinematics(disc):
    problem = SmoothedHyperProblem(disc, PARAMS)
    rng = np.random.default_rng(2)
    u = 1e-3 * rng.standard_normal(problem.dofmap.n_disp)
    F, C, lnJ = problem.state(u)
    assert F.shape == (problem.n_domains, 2, 2)
    np.testing.assert_allclose(C, np.einsum("tri,trj->tij", F, F),
                               atol=1e-15)
    np.testing.assert_allclose(lnJ, np.log(np.linalg.det(F)), atol=1e-15)
    assert lnJ.min() > np.log(0.9)


def test_state_raises_on_an_inverted_domain(disc):
    """An inverted domain stops the evaluation in state(), before any
    logarithm or inverse is taken."""
    problem = SmoothedHyperProblem(disc, PARAMS)
    dofmap = problem.dofmap
    vals = np.zeros((dofmap.n_scalar, 2))
    # u_x = -2 x reflects x -> (-x, y): F = diag(-1, 1), J = -1
    vals[:disc.mesh.n_nodes, 0] = -2.0 * disc.mesh.nodes[:, 0]
    u = vals.ravel()
    for evaluate in (problem.state, problem.energy,
                     problem.residual_tangent):
        with pytest.raises(hyperelastic._Inverted, match="inverted"):
            evaluate(u)


def check_tangent_matches_fd_residual(disc):
    problem = SmoothedHyperProblem(disc, PARAMS)
    rng = np.random.default_rng(13)
    u = 1e-2 * rng.standard_normal(problem.dofmap.n_disp)
    _, K, _ = problem.residual_tangent(u)
    h = 1e-6
    scale = np.abs(K.data).max()
    for dof in rng.choice(problem.dofmap.n_disp, size=8, replace=False):
        e = np.zeros(problem.dofmap.n_disp)
        e[dof] = h
        Rp, _, _ = problem.residual_tangent(u + e)
        Rm, _, _ = problem.residual_tangent(u - e)
        col = (Rp - Rm) / (2.0 * h)
        dense = np.asarray(K[:, dof].todense()).ravel()
        assert np.abs(col - dense).max() <= 1e-5 * scale


def test_global_tangent_matches_fd_residual(disc):
    check_tangent_matches_fd_residual(disc)


def test_global_tangent_matches_fd_residual_3d(disc_3d):
    check_tangent_matches_fd_residual(disc_3d)


@pytest.mark.parametrize("which", ["2d", "3d"])
def test_residual_matches_fd_energy(which, disc, disc_3d):
    """R is the gradient of the energy the scenario reports: R . d equals
    a central difference of problem.energy along random directions."""
    disc = disc if which == "2d" else disc_3d
    problem = SmoothedHyperProblem(disc, PARAMS)
    rng = np.random.default_rng(23)
    n = problem.dofmap.n_disp
    u = 1e-2 * rng.standard_normal(n)
    R, _, _ = problem.residual_tangent(u)
    h = 1e-6
    for _ in range(4):
        d = rng.standard_normal(n)
        fd = (problem.energy(u + h * d) - problem.energy(u - h * d)) / (2 * h)
        assert abs(fd - R @ d) <= 1e-6 * abs(R @ d)


def test_zero_load_converges_immediately(disc):
    problem = SmoothedHyperProblem(disc, PARAMS)
    fixed = dirichlet_dofs(disc.mesh, problem.dofmap)
    f = np.zeros(problem.dofmap.n_disp)
    u, history = newton_load_stepping(problem, f, fixed, steps=2)
    assert np.abs(u).max() == 0.0
    assert all(rec["iterations"] == 0 for rec in history)


def test_load_stepping_rejects_a_non_integral_step_count(disc):
    """steps=2.5 raises instead of ramping the load 0.4, 0.8, 1.0; a
    whole-number float is that many steps."""
    problem = SmoothedHyperProblem(disc, PARAMS)
    fixed = dirichlet_dofs(disc.mesh, problem.dofmap)
    f = np.zeros(problem.dofmap.n_disp)
    with pytest.raises(ValueError,
                       match="load step count 2.5 is not an integer"):
        newton_load_stepping(problem, f, fixed, steps=2.5)
    _, history = newton_load_stepping(problem, f, fixed, steps=2.0)
    assert [rec["load"] for rec in history] == [0.5, 1.0]


def test_cook_shear_converges(disc):
    problem = SmoothedHyperProblem(disc, PARAMS)
    dofmap = problem.dofmap
    fixed = dirichlet_dofs(disc.mesh, dofmap)
    f = assemble_loads(disc.mesh, disc.topo, dofmap,
                       {"traction": (0.0, 1.0 / 16.0)})
    u, history = newton_load_stepping(problem, f, fixed, steps=4)
    assert history[-1]["load"] == pytest.approx(1.0)
    assert all(rec["iterations"] <= 8 for rec in history)
    assert all(rec["residuals"][-1] <= 1e-9 for rec in history)
    # the top right corner moves up under the shear load
    node = int(np.argmin(((disc.mesh.nodes - [48.0, 60.0]) ** 2).sum(1)))
    assert u[dofmap.vertex_dof(node, 1)] > 0.1
    # energy at the solution is positive and finite
    assert 0.0 < problem.energy(u) < np.inf


def test_impossible_load_raises_after_halvings(disc):
    problem = SmoothedHyperProblem(disc, PARAMS)
    fixed = dirichlet_dofs(disc.mesh, problem.dofmap)
    f = assemble_loads(disc.mesh, disc.topo, problem.dofmap,
                       {"traction": (0.0, 1e8)})
    with pytest.raises(RuntimeError, match="halvings"):
        newton_load_stepping(problem, f, fixed, steps=1)


def test_singular_tangent_halves_the_step(disc, monkeypatch):
    """An exactly singular tangent fails the step, which is then halved."""
    spla = hyperelastic.spla
    calls = []

    class FirstSingular:
        def splu(self, A, **options):
            calls.append(A.shape)
            if len(calls) == 1:
                raise RuntimeError("Factor is exactly singular")
            return spla.splu(A, **options)

        def __getattr__(self, name):
            return getattr(spla, name)

    monkeypatch.setattr(hyperelastic, "spla", FirstSingular())
    problem = SmoothedHyperProblem(disc, PARAMS)
    fixed = dirichlet_dofs(disc.mesh, problem.dofmap)
    f = assemble_loads(disc.mesh, disc.topo, problem.dofmap,
                       {"traction": (0.0, 1.0 / 16.0)})
    u, history = newton_load_stepping(problem, f, fixed, steps=2)
    assert len(calls) > 1
    assert history[0]["load"] == pytest.approx(0.25)
    assert history[-1]["load"] == pytest.approx(1.0)
    assert np.all(np.isfinite(u))


def test_non_finite_direction_halves_the_step(disc, monkeypatch):
    """A Newton direction that is not finite fails the step before it is
    applied, and the step is then halved."""
    spla = hyperelastic.spla
    calls = []

    class NanLU:
        def solve(self, rhs):
            return np.full_like(rhs, np.nan)

    class FirstNan:
        def splu(self, A, **options):
            calls.append(A.shape)
            if len(calls) == 1:
                return NanLU()
            return spla.splu(A, **options)

        def __getattr__(self, name):
            return getattr(spla, name)

    monkeypatch.setattr(hyperelastic, "spla", FirstNan())
    problem = SmoothedHyperProblem(disc, PARAMS)
    evaluate, finite = problem.residual_tangent, []

    def recording(u):
        finite.append(bool(np.isfinite(u).all()))
        return evaluate(u)

    problem.residual_tangent = recording
    fixed = dirichlet_dofs(disc.mesh, problem.dofmap)
    f = assemble_loads(disc.mesh, disc.topo, problem.dofmap,
                       {"traction": (0.0, 1.0 / 16.0)})
    u, history = newton_load_stepping(problem, f, fixed, steps=2)
    assert len(calls) > 1
    assert all(finite)   # the NaN direction is never applied
    assert history[0]["load"] == pytest.approx(0.25)
    assert history[-1]["load"] == pytest.approx(1.0)
    assert np.all(np.isfinite(u))


def test_gather_rejects_components_with_different_structure(disc):
    problem = SmoothedHyperProblem(disc, PARAMS)
    G = [g.copy() for g in disc.gradient_ops("edge", "power")]
    problem._layout(G)   # the shared structure gathers
    G[1].data[G[1].indptr[1]] = 0.0
    G[1].eliminate_zeros()
    with pytest.raises(ValueError, match="component 1 does not share"):
        problem._layout(G)


def test_problem_rejects_a_missing_bubble(disc):
    """The Newton problem lives on the enriched space only."""
    with pytest.raises(ValueError, match="unknown bubble kind None"):
        SmoothedHyperProblem(disc, PARAMS, bubble=None)


def einsum_reference(problem, u):
    """Force, tangent and noise bound as per-domain einsums summed with
    np.add.at and scatter_blocks, from the state's ln J = ln det F, the
    law's stress and the Voigt oracle's tangent."""
    dim, params = problem.disc.dim, problem.params
    F, C, lnJ = problem.state(u)
    Ci = np.linalg.inv(C)
    S = hyperelastic._stress(Ci, lnJ, params)
    pi, pj = np.array(VOIGT_PAIRS[dim]).T
    M = voigt_tangent(Ci, lnJ, params)
    s_scale = ((params.mu + abs(params.lam) * (1.0 + np.abs(lnJ)))
               * np.linalg.norm(Ci, axis=(1, 2)))
    n = problem.dofmap.n_disp
    R, noise = np.zeros(n), np.zeros(n)
    m, grad, dofs = problem.measures, problem._grad, problem._dofs
    Bn = green_lagrange_rows(grad, F)
    np.add.at(R, dofs, np.einsum("t,tvx,tv->tx", m, Bn, S[:, pi, pj]))
    np.add.at(noise, dofs, np.einsum("t,tvx->tx", m * s_scale, np.abs(Bn)))
    K_loc = np.einsum("t,tvx,tvw,twy->txy", m, Bn, M, Bn)
    A = np.einsum("t,tai,tij,tbj->tab", m, grad, S, grad)
    K_loc += np.einsum("tab,kl->takbl", A, np.eye(dim)).reshape(K_loc.shape)
    return R, scatter_blocks([(K_loc, dofs, dofs)], (n, n)), noise


@pytest.mark.parametrize("kappa", [1.95, 1e4])
def test_tangent_matches_einsum_scatter_oracle(kappa):
    disc = Discretization(generate_cook(4))
    problem = SmoothedHyperProblem(disc, NeoHookeanParams(0.6, kappa))
    u = 1e-2 * np.random.default_rng(41).standard_normal(
        problem.dofmap.n_disp)
    R, K, noise = problem.residual_tangent(u)
    R_ref, K_ref, noise_ref = einsum_reference(problem, u)

    assert K.format == "csc"
    K_ref = K_ref.tocsc()
    np.testing.assert_array_equal(K.indptr, K_ref.indptr)
    np.testing.assert_array_equal(K.indices, K_ref.indices)
    assert (np.abs(K.data - K_ref.data).max()
            <= 1e-13 * np.abs(K_ref.data).max())
    assert np.abs(R - R_ref).max() <= 1e-14 * np.abs(R_ref).max()
    assert np.abs(noise - noise_ref).max() <= 1e-14 * noise_ref.max()

    free = free_dofs(problem.dofmap.n_disp,
                     dirichlet_dofs(disc.mesh, problem.dofmap))
    order, keep, block = hyperelastic._free_block(K.indptr, K.indices, free)
    # order is free in a permutation perm of the block
    perm = np.searchsorted(free, order)
    np.testing.assert_array_equal(np.sort(perm), np.arange(len(free)))
    np.testing.assert_array_equal(free[perm], order)
    assert not block.data.any()
    block.data = K.data[keep]
    assert block.format == "csc" and block.has_sorted_indices
    K_free = K.tocsr()[free][:, free]
    np.testing.assert_array_equal(block.toarray(),
                                  K_free[perm][:, perm].toarray())
    # the band order narrows the block's envelope
    rows, cols = block.nonzero()
    natural_rows, natural_cols = K_free.nonzero()
    assert (np.abs(rows - cols).max()
            < np.abs(natural_rows - natural_cols).max())


def test_tangent_matches_einsum_scatter_oracle_3d(disc_3d):
    """The 3D evaluation (six Voigt rows, nine-entry fields) meets the
    einsum oracle to the 2D bounds."""
    problem = SmoothedHyperProblem(disc_3d, PARAMS)
    u = 1e-2 * np.random.default_rng(43).standard_normal(
        problem.dofmap.n_disp)
    R, K, noise = problem.residual_tangent(u)
    R_ref, K_ref, noise_ref = einsum_reference(problem, u)
    K_ref = K_ref.tocsc()
    np.testing.assert_array_equal(K.indptr, K_ref.indptr)
    np.testing.assert_array_equal(K.indices, K_ref.indices)
    assert (np.abs(K.data - K_ref.data).max()
            <= 1e-13 * np.abs(K_ref.data).max())
    assert np.abs(R - R_ref).max() <= 1e-14 * np.abs(R_ref).max()
    assert np.abs(noise - noise_ref).max() <= 1e-14 * noise_ref.max()


@pytest.mark.parametrize("which", ["2d", "3d"])
def test_evaluation_calls_no_linalg_inverse_or_determinant(
        which, disc, disc_3d, monkeypatch):
    """A Newton evaluation inverts and takes determinants in closed form:
    np.linalg.inv and np.linalg.det are never called."""
    problem = SmoothedHyperProblem(disc if which == "2d" else disc_3d, PARAMS)
    u = 1e-2 * np.random.default_rng(29).standard_normal(
        problem.dofmap.n_disp)

    def forbidden(*args, **kwargs):
        raise AssertionError("per-domain LAPACK call in an evaluation")

    monkeypatch.setattr(np.linalg, "inv", forbidden)
    monkeypatch.setattr(np.linalg, "det", forbidden)
    R, K, noise = problem.residual_tangent(u)
    problem.energy(u)
    assert np.all(np.isfinite(R)) and np.all(np.isfinite(K.data))
    assert noise.min() >= 0.0


def test_tangent_pattern_and_free_block_are_built_once(disc, monkeypatch):
    problem = SmoothedHyperProblem(disc, PARAMS)
    u = 1e-3 * np.random.default_rng(8).standard_normal(
        problem.dofmap.n_disp)
    _, K1, _ = problem.residual_tangent(u)
    _, K2, _ = problem.residual_tangent(2.0 * u)
    assert K1.indptr is K2.indptr
    # the csc constructor re-slices indices; both views share one array
    assert K1.indices.base is K2.indices.base is problem._pattern[1]

    builds, orders = [], []
    build = hyperelastic._free_block
    rcm = csgraph.reverse_cuthill_mckee

    def counted(*args):
        builds.append(args)
        return build(*args)

    def ordered(*args, **kwargs):
        orders.append(args)
        return rcm(*args, **kwargs)

    monkeypatch.setattr(hyperelastic, "_free_block", counted)
    monkeypatch.setattr(csgraph, "reverse_cuthill_mckee", ordered)
    fixed = dirichlet_dofs(disc.mesh, problem.dofmap)
    f = assemble_loads(disc.mesh, disc.topo, problem.dofmap,
                       {"traction": (0.0, 1.0 / 16.0)})
    _, history = newton_load_stepping(problem, f, fixed, steps=2)
    assert sum(rec["iterations"] for rec in history) > 1
    assert len(builds) == len(orders) == 1


@pytest.mark.parametrize("kappa", [1.95, 1e4])
def test_newton_direction_matches_a_direct_solve(kappa, monkeypatch):
    """The band-ordered, threshold-pivoted factor gives the Newton update
    of the free-free system in the ascending dof order."""
    disc = Discretization(generate_cook(4))
    problem = SmoothedHyperProblem(disc, NeoHookeanParams(0.6, kappa))
    n = problem.dofmap.n_disp
    fixed = dirichlet_dofs(disc.mesh, problem.dofmap)
    free = free_dofs(n, fixed)
    load = assemble_loads(disc.mesh, disc.topo, problem.dofmap,
                          {"traction": (0.0, 1.0 / 16.0)})
    u0 = np.zeros(n)
    u0[free] = 1e-2 * np.random.default_rng(23).standard_normal(len(free))
    states = []
    evaluate = problem.residual_tangent

    def recorded(u):
        states.append(u.copy())
        return evaluate(u)

    problem.residual_tangent = recorded
    block = hyperelastic._free_block(*problem._pattern[:2], free)
    # two iterations evaluate u0 and u0 + du, then fail at tol 0
    monkeypatch.setattr(hyperelastic, "NEWTON_TOL", 0.0)
    monkeypatch.setattr(hyperelastic, "NEWTON_MAX_ITER", 2)
    with pytest.raises(hyperelastic._StepFailure):
        hyperelastic._newton(problem, u0, load, free, block)
    assert len(states) == 2 and np.array_equal(states[0], u0)
    du = states[1] - u0
    assert not du[fixed].any()
    R, K, _ = evaluate(u0)
    K_free, b = K.tocsr()[free][:, free].tocsc(), load[free] - R[free]
    x = du[free]
    # backward stable: the update solves a system within rounding of K
    eps = np.finfo(float).eps
    assert (np.linalg.norm(K_free @ x - b)
            <= eps * (spla.norm(K_free) * np.linalg.norm(x)
                      + np.linalg.norm(b)))
    # so it meets COLAMD's solve to 1e-12, or to eps * cond(K) where the
    # conditioning (9e5 at kappa 1e4) allows either solve no closer
    ref = spla.spsolve(K_free, b)
    rtol = max(1e-12, eps * np.linalg.cond(K_free.toarray()))
    assert np.linalg.norm(x - ref) <= rtol * np.linalg.norm(ref)


def test_predictor_reproduces_a_cubic_load_path():
    """Four states of a cubic path u(t) = a + b t + c t^2 + d t^3 give
    u at the next target exactly, to rounding; one state gives itself."""
    a, b, c, d = np.random.default_rng(31).standard_normal((4, 12))

    def path(t):
        return a + t * (b + t * (c + t * d))

    loads = [0.0, 0.25, 0.375, 0.5]
    states = [(t, path(t)) for t in loads]
    for target in (0.5625, 0.75):
        u = hyperelastic._extrapolate(
            states[-hyperelastic.PREDICTOR_POINTS:], target)
        assert (np.abs(u - path(target)).max()
                <= 1e-14 * np.abs(path(target)).max())
    u = hyperelastic._extrapolate(states[1:2], 0.75)
    assert np.array_equal(u, states[1][1]) and u is not states[1][1]


# per-step Newton iterations of the Cook membrane under the scenario's unit
# load in two steps; a halved step shows as more records
PINNED_ITERATIONS = {
    (2, 1.95): [5, 4],
    (2, 1e4): [6, 7, 4, 3],
    (3, 1.95): [5, 4],
    (3, 1e4): [6, 6, 3, 3, 3, 3, 3, 3],
}


@pytest.mark.parametrize("mesh, kappa", list(PINNED_ITERATIONS))
def test_newton_iterations_per_step_are_pinned(mesh, kappa):
    disc = Discretization(generate_cook(mesh))
    problem = SmoothedHyperProblem(disc, NeoHookeanParams(0.6, kappa))
    f = assemble_loads(disc.mesh, disc.topo, problem.dofmap,
                       {"traction": (0.0, 1.0 / 16.0)})
    _, history = newton_load_stepping(
        problem, f, dirichlet_dofs(disc.mesh, problem.dofmap), steps=2)
    assert ([rec["iterations"] for rec in history]
            == PINNED_ITERATIONS[mesh, kappa])


def grouped_reference(problem, u):
    """Force, tangent and noise bound with the domains grouped by support
    size, one batched evaluation per group of domains that carry equally
    many scalar functions, and the kinematics as einsums."""
    disc, params = problem.disc, problem.params
    dim, n = disc.dim, problem.dofmap.n_disp
    G = disc.gradient_ops(disc.smoothing_kind(), problem.dofmap.bubble)
    counts = np.diff(G[0].indptr)
    groups = []
    for size in np.unique(counts):
        rows = np.flatnonzero(counts == size)
        pos = G[0].indptr[rows][:, None] + np.arange(size)
        cols = G[0].indices[pos]
        grad = np.stack([g.data[pos] for g in G], axis=-1)
        groups.append((rows, cols, grad, dof_indices(cols, dim)))
    vals = u.reshape(-1, dim)
    F = np.zeros((problem.n_domains, dim, dim))
    for rows, cols, grad, _ in groups:
        F[rows] = np.einsum("tar,tac->trc", vals[cols], grad) + np.eye(dim)
    C = np.einsum("tri,trj->tij", F, F)
    m, mu, lam = problem.measures, params.mu, params.lam
    Ci, lnJ = np.linalg.inv(C), np.log(np.linalg.det(F))
    S = m[:, None, None] * (mu * (np.eye(dim) - Ci)
                            + (lam * lnJ)[:, None, None] * Ci)
    pi, pj = np.array(VOIGT_PAIRS[dim]).T
    M = m[:, None, None] * voigt_tangent(Ci, lnJ, params)
    s_scale = (m * (mu + abs(lam) * (1.0 + np.abs(lnJ)))
               * np.linalg.norm(Ci, axis=(1, 2)))
    forces, bounds, blocks, keys = [], [], [], []
    for rows, _, grad, dofs in groups:
        Bn = green_lagrange_rows(grad, F[rows])
        forces.append((S[rows][:, None, pi, pj] @ Bn).ravel())
        bounds.append((s_scale[rows, None] * np.abs(Bn).sum(axis=1)).ravel())
        K_loc = Bn.transpose(0, 2, 1) @ (M[rows] @ Bn)
        A = grad @ S[rows] @ grad.transpose(0, 2, 1)
        K5 = K_loc.reshape(len(rows), A.shape[1], dim, A.shape[1], dim)
        for k in range(dim):
            K5[:, :, k, :, k] += A
        blocks.append(K_loc.ravel())
        keys.append((dofs[:, None, :] * n + dofs[:, :, None]).ravel())
    dofs = np.concatenate([d.ravel() for *_, d in groups])
    cells, positions = np.unique(np.concatenate(keys), return_inverse=True)
    K = sp.csc_matrix((np.bincount(positions, np.concatenate(blocks)),
                       cells % n, np.searchsorted(cells // n,
                                                  np.arange(n + 1))),
                      (n, n))
    return (np.bincount(dofs, np.concatenate(forces), n), K,
            np.bincount(dofs, np.concatenate(bounds), n))


@pytest.mark.parametrize("kappa", [1.95, 1e4])
@pytest.mark.parametrize("mesh", [
    distort_mesh(generate_cook(3), 0.4, seed=3), generate_annulus(3)],
    ids=["cook-3-distorted", "annulus-3"])
def test_padded_layout_matches_the_support_size_groups(mesh, kappa):
    """One padded evaluation gives the grouped R, K and noise to rounding:
    the padded slots add exact zeros, only the sums run in another order."""
    problem = SmoothedHyperProblem(Discretization(mesh),
                                   NeoHookeanParams(0.6, kappa))
    grad = problem._grad
    padded = grad.shape[1] - np.count_nonzero(np.abs(grad).sum(-1), axis=1)
    assert padded.max() > 0 and padded.min() == 0
    u = 1e-2 * np.random.default_rng(17).standard_normal(
        problem.dofmap.n_disp)
    R, K, noise = problem.residual_tangent(u)
    R_ref, K_ref, noise_ref = grouped_reference(problem, u)
    np.testing.assert_array_equal(K.indptr, K_ref.indptr)
    np.testing.assert_array_equal(K.indices, K_ref.indices)
    assert (np.abs(K.data - K_ref.data).max()
            <= 1e-14 * np.abs(K_ref.data).max())
    assert np.abs(noise - noise_ref).max() <= 1e-14 * noise_ref.max()
    # R cancels terms as large as the noise bound (here |R| is 1e-3 to
    # 4e-2 of it), so its rounding is measured on that scale, per dof
    assert np.all(np.abs(R - R_ref) <= np.finfo(float).eps * noise_ref)


def test_newton_evaluates_each_state_once(monkeypatch):
    """Every load step starts from its extrapolated state, so each
    residual_tangent call evaluates the tangent once, and a run makes one
    call per iteration and accepted step, plus one per residual of a failed
    attempt; a failed attempt's inverting call returns nothing."""
    calls, evaluations, failed = [], [], []
    residual_tangent = SmoothedHyperProblem.residual_tangent
    tangent = hyperelastic._tangent
    newton = hyperelastic._newton

    def called(self, u):
        result = residual_tangent(self, u)
        calls.append(1)
        return result

    def evaluated(*args):
        evaluations.append(1)
        return tangent(*args)

    def attempted(*args):
        try:
            return newton(*args)
        except hyperelastic._StepFailure as exc:
            failed.append(len(exc.residuals))
            raise

    monkeypatch.setattr(SmoothedHyperProblem, "residual_tangent", called)
    monkeypatch.setattr(hyperelastic, "_tangent", evaluated)
    monkeypatch.setattr(hyperelastic, "_newton", attempted)
    reports, _ = run_scenario(make_config(
        "cook-neohookean", meshes=(2, 3), kappa=(1.95, 1e4), steps=2))
    assert [r.extra["status"] for r in reports] == ["ok"] * 4
    iterations = sum(r.extra["newton_iterations"] for r in reports)
    steps = sum(r.extra["load_steps"] for r in reports)
    assert failed and steps > 8 and iterations > steps
    assert len(calls) == len(evaluations) == iterations + steps + sum(failed)


def test_newton_cost_stays_bounded_near_the_incompressible_limit():
    """On Cook 4 in ten steps, kappa = 1e7 converges in at most three
    times the Newton iterations of kappa = 1e4."""
    reports, _ = run_scenario(make_config(
        "cook-neohookean", meshes=(4,), kappa=(1e4, 1e7), steps=10))
    assert [r.extra["status"] for r in reports] == ["ok"] * 2
    moderate, stiff = (r.extra["newton_iterations"] for r in reports)
    assert stiff <= 3 * moderate


def test_load_stepping_needs_a_step(disc):
    problem = SmoothedHyperProblem(disc, PARAMS)
    fixed = dirichlet_dofs(disc.mesh, problem.dofmap)
    f = np.zeros(problem.dofmap.n_disp)
    with pytest.raises(ValueError, match="at least one load step"):
        newton_load_stepping(problem, f, fixed, steps=0)

"""Neo-Hookean large deformation on the bubble-enriched smoothed basis.

The kinematics reuse the linear machinery: the displacement gradient is
averaged over each smoothing domain by the boundary-integral operators, and
the deformation gradient F = I + grad(u) is formed per domain, so every
domain carries one stress evaluation.  The formulation is total-Lagrangian
and displacement-only: bubbles are retained, the volumetric response enters
through lambda = kappa - 2 mu / 3, and 2D runs are plane strain (the out of
plane stretch is one).
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse import linalg as spla

from .assembly import (VOIGT_PAIRS, dof_indices, free_dofs, scatter_blocks,
                       strain_matrix)


@dataclass(frozen=True)
class NeoHookeanParams:
    """Compressible neo-Hookean material: shear mu and bulk kappa."""

    mu: float
    kappa: float

    def __post_init__(self):
        if self.mu <= 0.0 or self.kappa <= 0.0:
            raise ValueError("neo-Hookean moduli must be positive")

    @property
    def lam(self):
        return self.kappa - 2.0 * self.mu / 3.0


def _log_J(C):
    """ln J = (1/2) ln det C for batched C; 2x2 input is plane strain."""
    return 0.5 * np.log(np.linalg.det(C))


def strain_energy(C, params):
    """Energy density psi(C) for batched right Cauchy-Green tensors.

    psi = (lam/2) (ln J)^2 - mu ln J + (mu/2) (tr C - 3), with a 2x2 input
    treated as the in-plane block of a plane-strain C (C_33 = 1).
    """
    C = np.asarray(C, float)
    d = C.shape[-1]
    lnJ = _log_J(C)
    trC = np.trace(C, axis1=-2, axis2=-1) + (3 - d)
    return (0.5 * params.lam * lnJ ** 2 - params.mu * lnJ
            + 0.5 * params.mu * (trC - 3.0))


def pk2_stress(C, params):
    """Second Piola-Kirchhoff stress S = mu (I - C^-1) + lam ln J C^-1.

    Batched over leading axes; a 2x2 input returns the in-plane block of
    the plane-strain stress.
    """
    C = np.asarray(C, float)
    d = C.shape[-1]
    Ci = np.linalg.inv(C)
    lnJ = _log_J(C)[..., None, None]
    return params.mu * (np.eye(d) - Ci) + params.lam * lnJ * Ci


def material_tangent(C, params):
    """Tangent tensor CC = 2 dS/dC with minor and major symmetry.

    CC_ijkl = lam Ci_ij Ci_kl + (mu - lam ln J)(Ci_ik Ci_jl + Ci_il Ci_jk),
    returned with full d^4 components, batched over leading axes.
    """
    C = np.asarray(C, float)
    Ci = np.linalg.inv(C)
    g = (params.mu - params.lam * _log_J(C))[..., None, None, None, None]
    outer = Ci[..., :, :, None, None] * Ci[..., None, None, :, :]
    sym = (Ci[..., :, None, :, None] * Ci[..., None, :, None, :]
           + Ci[..., :, None, None, :] * Ci[..., None, :, :, None])
    return params.lam * outer + g * sym


def _voigt_tangent(Ci, lnJ, params):
    """Tangent as a Voigt matrix (nv, nv) matching engineering strain rows,
    from the inverse metric C^-1 and ln J of each domain."""
    pi, pj = np.array(VOIGT_PAIRS[Ci.shape[-1]]).T
    g = params.mu - params.lam * lnJ
    CiV = Ci[:, pi, pj]
    term = params.lam * CiV[:, :, None] * CiV[:, None, :]
    term += g[:, None, None] * (
        Ci[:, pi[:, None], pi[None, :]] * Ci[:, pj[:, None], pj[None, :]]
        + Ci[:, pi[:, None], pj[None, :]] * Ci[:, pj[:, None], pi[None, :]])
    return term


class _Inverted(Exception):
    """A smoothing domain reached J <= 0; the load step must shrink."""


@dataclass
class DeformationState:
    """Per-domain smoothed kinematics of one displacement vector."""

    u: np.ndarray
    F: np.ndarray        # (K, d, d)
    C: np.ndarray        # (K, d, d)
    J: np.ndarray        # (K,)


class SmoothedHyperProblem:
    """Total-Lagrangian neo-Hookean problem on the enriched smoothed basis.

    Wraps one Discretization: domain gradients are gathered once into dense
    per-domain blocks (grouped by support size) so that each Newton step is
    a batched stress/tangent evaluation plus one sparse factorization.
    """

    def __init__(self, disc, params, bubble="power"):
        self.disc = disc
        self.params = params
        self.bubble = bubble
        self.dofmap = disc.dofmap(True)
        kind = disc.smoothing_kind()
        domains = disc.domains(kind)
        self.measures = domains.measures
        self.n_domains = domains.n_domains
        self._groups = self._gather_groups(disc.gradient_ops(kind, bubble))

    def _gather_groups(self, G):
        # every G_c shares one CSR structure: build_smoothed_gradient fills
        # them from the same coordinate list
        dim = self.disc.dim
        counts = np.diff(G[0].indptr)
        groups = []
        for n in np.unique(counts):
            rows = np.flatnonzero(counts == n)
            pos = G[0].indptr[rows][:, None] + np.arange(n)
            cols = G[0].indices[pos]
            grad = np.stack([g.data[pos] for g in G], axis=-1)
            groups.append((rows, cols, grad, dof_indices(cols, dim)))
        return groups

    def state(self, u):
        """Smoothed F, C, J on every domain for a displacement vector."""
        dim = self.disc.dim
        vals = np.asarray(u, float).reshape(-1, dim)
        F = np.zeros((self.n_domains, dim, dim))
        for rows, cols, grad, _ in self._groups:
            H = np.einsum("tar,tac->trc", vals[cols], grad)
            F[rows] = H + np.eye(dim)
        C = np.einsum("tri,trj->tij", F, F)
        return DeformationState(np.asarray(u, float), F, C, np.linalg.det(F))

    def energy(self, u):
        """Total strain energy of the smoothed deformation."""
        state = self.state(u)
        if state.J.min() <= 0.0:
            raise _Inverted("deformation inverted on a smoothing domain")
        return float(self.measures @ strain_energy(state.C, self.params))

    def residual_tangent(self, u):
        """Internal force vector, consistent tangent and a roundoff bound.

        Returns (R, K, noise).  ``noise`` is a per-dof bound on the roundoff
        carried by the assembled force: the stress is a near-cancellation
        of terms of magnitude (mu + |lam| (1 + |ln J|)) times the inverse
        metric, so its absolute accuracy is machine epsilon at that scale
        no matter how converged the displacement is; the bound contracts
        those magnitudes through |Bn| exactly like the force itself.
        Raises _Inverted when any smoothing domain reaches J <= 0.
        """
        dim = self.disc.dim
        state = self.state(u)
        if state.J.min() <= 0.0:
            raise _Inverted("deformation inverted on a smoothing domain")
        Ci, lnJ = np.linalg.inv(state.C), _log_J(state.C)
        S = pk2_stress(state.C, self.params)
        pi, pj = np.array(VOIGT_PAIRS[dim]).T
        Sv = S[:, pi, pj]
        M = _voigt_tangent(Ci, lnJ, self.params)
        mu, lam = self.params.mu, self.params.lam
        s_scale = ((mu + abs(lam) * (1.0 + np.abs(lnJ)))
                   * np.linalg.norm(Ci, axis=(1, 2)))
        R = np.zeros(self.dofmap.n_disp)
        noise = np.zeros(self.dofmap.n_disp)
        blocks = []
        eye = np.eye(dim)

        for rows, _, grad, dofs in self._groups:
            m = self.measures[rows]
            Bn = strain_matrix(grad, state.F[rows])
            np.add.at(R, dofs, np.einsum("t,tvx,tv->tx", m, Bn, Sv[rows]))
            np.add.at(noise, dofs,
                      np.einsum("t,tvx->tx", m * s_scale[rows], np.abs(Bn)))
            K_loc = np.einsum("t,tvx,tvw,twy->txy", m, Bn, M[rows], Bn)
            A = np.einsum("t,tai,tij,tbj->tab", m, grad, S[rows], grad)
            K_loc += (A[:, :, None, :, None]
                      * eye[None, None, :, None, :]).reshape(K_loc.shape)
            blocks.append((K_loc, dofs, dofs))

        n = self.dofmap.n_disp
        return R, scatter_blocks(blocks, (n, n)), noise


class _StepFailure(Exception):
    """Newton did not converge (or inverted); carries the residual trail."""

    def __init__(self, residuals):
        super().__init__("load step failed")
        self.residuals = residuals


# multiple of machine epsilon granted to the assembly noise bound when
# testing convergence; see SmoothedHyperProblem.residual_tangent
_NOISE_FACTOR = 16.0


def _newton(problem, u0, load, free, tol, max_iter):
    u = u0.copy()
    scale = np.linalg.norm(load[free]) or 1.0
    residuals = []
    for it in range(max_iter):
        try:
            R, K, noise = problem.residual_tangent(u)
        except _Inverted:
            raise _StepFailure(residuals)
        r = R - load
        rabs = float(np.linalg.norm(r[free]))
        rn = rabs / scale
        residuals.append(rn)
        # a stiff volumetric term puts the roundoff floor of the assembled
        # force above tol * |load|; equilibrium cannot be resolved below it
        floor = _NOISE_FACTOR * np.finfo(float).eps \
            * float(np.linalg.norm(noise[free]))
        if rn <= tol or rabs <= floor:
            return u, {"iterations": it, "residuals": residuals,
                       "floor_limited": rn > tol}
        try:
            du = spla.splu(K[free][:, free].tocsc()).solve(-r[free])
        except RuntimeError:   # exactly singular tangent
            raise _StepFailure(residuals)
        if not np.all(np.isfinite(du)):
            raise _StepFailure(residuals)
        u[free] += du
    raise _StepFailure(residuals)


def newton_load_stepping(problem, f_ext, fixed, steps=10, tol=1e-9,
                         max_iter=25, max_halvings=8):
    """Ramp the load in uniform increments, solving each step by Newton.

    Returns (u, history): the converged displacement at full load and one
    record per accepted step with the load fraction, Newton update count,
    and residual trail.  A step that fails (non-convergence, an inverted
    domain or an exactly singular tangent) is retried at half width, up to
    ``max_halvings`` times overall; running out raises RuntimeError with
    the last residual trail.
    """
    if steps < 1:
        raise ValueError("need at least one load step")
    f_ext = np.asarray(f_ext, float)
    free = free_dofs(problem.dofmap.n_disp, fixed)

    u = np.zeros(problem.dofmap.n_disp)
    history = []
    current, width, halved = 0.0, 1.0 / steps, 0
    while current < 1.0 - 1e-12:
        target = min(current + width, 1.0)
        try:
            u_next, record = _newton(problem, u, target * f_ext, free, tol,
                                     max_iter)
        except _StepFailure as exc:
            halved += 1
            if halved > max_halvings:
                raise RuntimeError(
                    "load stepping failed after "
                    f"{max_halvings} halvings at load {target:.6g}; "
                    f"residual trail {exc.residuals}") from exc
            width *= 0.5
            continue
        u = u_next
        current = target
        record["load"] = current
        history.append(record)
    return u, history

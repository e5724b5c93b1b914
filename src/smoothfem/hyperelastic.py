"""Neo-Hookean large deformation on the bubble-enriched smoothed basis.

The kinematics reuse the linear machinery: the displacement gradient is
averaged over each smoothing domain by the boundary-integral operators, and
the deformation gradient F = I + grad(u) is formed per domain, so every
domain carries one stress evaluation.  The formulation is total-Lagrangian
and displacement-only: bubbles are retained, the volumetric response enters
through lambda = kappa - 2 mu / 3, and 2D runs are plane strain (the out of
plane stretch is one).
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

from .assembly import VOIGT_PAIRS, dof_indices, free_dofs
from .basis import check_bubble_kind
from .mesh import whole


@dataclass(frozen=True)
class NeoHookeanParams:
    """Compressible neo-Hookean material: shear mu and bulk kappa."""

    mu: float
    kappa: float

    def __post_init__(self):
        if self.mu <= 0.0 or self.kappa <= 0.0:
            raise ValueError("neo-Hookean moduli must be positive")
        if not np.isfinite([self.mu, self.kappa]).all():
            raise ValueError("neo-Hookean moduli must be finite")

    @property
    def lam(self):
        return self.kappa - 2.0 * self.mu / 3.0


def _energy(C, lnJ, params):
    """psi = (lam/2) (ln J)^2 - mu ln J + (mu/2) (tr C - 3); a 2x2 C is the
    in-plane block of a plane-strain C (C_33 = 1)."""
    trC = np.trace(C, axis1=-2, axis2=-1) + (3 - C.shape[-1])
    return (0.5 * params.lam * lnJ ** 2 - params.mu * lnJ
            + 0.5 * params.mu * (trC - 3.0))


def _stress(Ci, lnJ, params):
    """S = mu (I - C^-1) + lam ln J C^-1 from C^-1 and ln J."""
    return (params.mu * (np.eye(Ci.shape[-1]) - Ci)
            + params.lam * lnJ[..., None, None] * Ci)


def _tangent(Ci, lnJ, params, i, j, k, l):
    """CC_ijkl = lam Ci_ij Ci_kl + (mu - lam ln J)(Ci_ik Ci_jl + Ci_il Ci_jk)
    from C^-1 and ln J at index arrays (i, j, k, l) of one shape: the full
    d^4 grid for material_tangent, the Voigt pairs for Newton."""
    g = (params.mu - params.lam * lnJ)[(...,) + (None,) * i.ndim]
    # the six factors of every entry, gathered at once
    X = np.moveaxis(Ci[..., np.array([i, k, i, j, i, j]),
                       np.array([j, l, k, l, l, k])], -1 - i.ndim, 0)
    return params.lam * (X[0] * X[1]) + g * (X[2] * X[3] + X[4] * X[5])


# the cofactor signs of a 2x2 matrix, and the indices one and two places
# cyclically after 0, 1, 2
_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])
_NEXT, _AFTER = np.array([1, 2, 0]), np.array([2, 0, 1])


def _det_adj(A):
    """(det A, adj A) of batched 2x2 or 3x3 matrices in closed form: for
    the few hundred domains of a Newton state, a batched np.linalg call
    spends more on its per-matrix dispatch than on the arithmetic."""
    d = A.shape[-1]
    if d == 2:
        cof = A[..., ::-1, ::-1] * _SIGNS
    elif d == 3:
        # cofactor ij = A[i+1, j+1] A[i+2, j+2] - A[i+1, j+2] A[i+2, j+1]
        n, a = _NEXT[:, None], _AFTER[:, None]
        cof = (A[..., n, _NEXT] * A[..., a, _AFTER]
               - A[..., n, _AFTER] * A[..., a, _NEXT])
    else:
        raise ValueError(f"closed-form inverse of a {d}x{d} matrix")
    # expanded along the first row, term by term: np.sum over a short
    # last axis is slow
    p = A[..., 0, :] * cof[..., 0, :]
    det = sum((p[..., j] for j in range(1, d)), p[..., 0])
    return det, np.swapaxes(cof, -1, -2)


def _metric(C):
    """(C^-1, ln J = (1/2) ln det C) of batched C."""
    det, adj = _det_adj(np.asarray(C, float))
    return adj / det[..., None, None], 0.5 * np.log(det)


def strain_energy(C, params):
    """Energy density psi(C) for batched right Cauchy-Green tensors.

    psi = (lam/2) (ln J)^2 - mu ln J + (mu/2) (tr C - 3), with a 2x2 input
    treated as the in-plane block of a plane-strain C (C_33 = 1).
    """
    C = np.asarray(C, float)
    return _energy(C, _metric(C)[1], params)


def pk2_stress(C, params):
    """Second Piola-Kirchhoff stress S = mu (I - C^-1) + lam ln J C^-1.

    Batched over leading axes; a 2x2 input returns the in-plane block of
    the plane-strain stress.
    """
    return _stress(*_metric(C), params)


def material_tangent(C, params):
    """Tangent tensor CC = 2 dS/dC with minor and major symmetry.

    CC_ijkl = lam Ci_ij Ci_kl + (mu - lam ln J)(Ci_ik Ci_jl + Ci_il Ci_jk),
    returned with full d^4 components, batched over leading axes.
    """
    Ci, lnJ = _metric(C)
    d = Ci.shape[-1]
    return _tangent(Ci, lnJ, params, *np.indices((d,) * 4))


class _Inverted(Exception):
    """A smoothing domain reached J <= 0; the load step must shrink."""


class SmoothedHyperProblem:
    """Total-Lagrangian neo-Hookean problem on the enriched smoothed basis.

    Wraps one Discretization: domain gradients are gathered once into one
    dense (domains x largest support) layout, so each Newton state is one
    batched stress/tangent evaluation, one ``np.bincount`` of the local
    blocks into the tangent's CSC sparsity pattern (built on first use and
    shared by every later tangent) and one sparse factorization.
    """

    def __init__(self, disc, params, bubble="power"):
        check_bubble_kind(bubble)
        self.disc = disc
        self.params = params
        self.dofmap = disc.dofmap(bubble)
        kind = disc.smoothing_kind()
        domains = disc.domains(kind)
        self.measures = domains.measures
        self.n_domains = domains.n_domains
        self._grad, self._dofs = self._layout(
            disc.gradient_ops(kind, bubble))
        dim = disc.dim
        # Gt = grad (x) I: row a d + k, column k d + j holds the gradient
        # g_aj, so Gt^T maps the domain's dofs to vec(grad u) and Gt maps a
        # field vec(X), X_kj, back to them.  Both are kept C-contiguous:
        # np.matmul runs a transposed stack of small matrices through its
        # slow loop.
        self._Gt = (np.eye(dim)[:, :, None]
                    * self._grad[:, :, None, None, :]).reshape(
                        self.n_domains, -1, dim * dim)
        self._GtT = np.ascontiguousarray(self._Gt.transpose(0, 2, 1))
        # E[i, j nv + v] picks F's column i into row j of Voigt pair v, so
        # (F @ E)[k, j nv + v] is column v of the Green-Lagrange variation
        # at dof component k and gradient direction j
        pairs = VOIGT_PAIRS[dim]
        E = np.zeros((dim, dim, len(pairs)))
        for v, (i, j) in enumerate(pairs):
            E[i, j, v] = E[j, i, v] = 1.0
        self._E = E.reshape(dim, -1)
        self._pairs = pi, pj = np.array(pairs).T
        self._voigt = np.broadcast_arrays(pi[:, None], pj[:, None], pi, pj)

    def _layout(self, G):
        """(grad, dofs): the gradients of each domain's scalar functions
        and their interleaved dofs, padded to the largest support."""
        # build_smoothed_gradient fills every G_c from one coordinate list,
        # so all components are read through G[0]'s structure
        for c, g in enumerate(G[1:], 1):
            if not (g.shape == G[0].shape
                    and np.array_equal(g.indptr, G[0].indptr)
                    and np.array_equal(g.indices, G[0].indices)):
                raise ValueError(
                    f"gradient component {c} does not share the CSR "
                    "structure (indptr, indices) of component 0")
        indptr = G[0].indptr
        counts = np.diff(indptr)
        # a row with fewer functions repeats its first column with a zero
        # gradient, so every padded term is an exact zero added to an
        # entry the row already has
        slot = np.arange(counts.max())
        real = slot < counts[:, None]
        pos = indptr[:-1, None] + np.where(real, slot, 0)
        cols = G[0].indices[pos]
        grad = np.stack([np.where(real, g.data[pos], 0.0) for g in G],
                        axis=-1)
        return grad, dof_indices(cols, self.disc.dim)

    @cached_property
    def _pattern(self):
        """CSC structure (indptr, indices) of the n x n tangent, and the
        data position of every local block entry in layout order."""
        n = self.dofmap.n_disp
        dofs = self._dofs
        # block entry (t, x, y) sits at row dofs[t, x], column dofs[t, y]
        keys = (dofs[:, None, :] * n + dofs[:, :, None]).ravel()
        cells, positions = np.unique(keys, return_inverse=True)
        # the index type scipy would pick, so no matrix built on the
        # pattern copies it
        itype = np.int32 if cells.size < 2 ** 31 else np.int64
        indptr = np.zeros(n + 1, itype)
        np.cumsum(np.bincount(cells // n, minlength=n), out=indptr[1:])
        return indptr, (cells % n).astype(itype), positions

    def state(self, u):
        """Smoothed (F, C, ln J) on every domain for a displacement vector.

        Raises _Inverted when any smoothing domain reaches J <= 0.
        """
        dim = self.disc.dim
        local = np.asarray(u, float)[self._dofs]
        # F = I + sum_a u(a) (x) grad N_a over each domain's functions
        F = (self._GtT @ local[:, :, None]).reshape(-1, dim, dim)
        F += np.eye(dim)
        J = _det_adj(F)[0]
        if J.min() <= 0.0:
            raise _Inverted("deformation inverted on a smoothing domain")
        return F, np.ascontiguousarray(F.transpose(0, 2, 1)) @ F, np.log(J)

    def energy(self, u):
        """Total strain energy of the smoothed deformation."""
        _, C, lnJ = self.state(u)
        return float((self.measures * _energy(C, lnJ, self.params)).sum())

    def residual_tangent(self, u):
        """Internal force vector, consistent tangent and a roundoff bound.

        Returns (R, K, noise).  K is a CSC matrix on the problem's fixed
        tangent pattern: its indptr and indices arrays are built on the
        first call and shared by every later K, and its data is one
        bincount of the local blocks.  ``noise`` is a per-dof bound on the
        roundoff carried by the assembled force: the stress is a
        near-cancellation of terms of magnitude (mu + |lam| (1 + |ln J|))
        times the inverse metric, so its absolute accuracy is machine
        epsilon at that scale no matter how converged the displacement is;
        the bound contracts those magnitudes through |B| exactly like the
        force itself.  Raises _Inverted when any smoothing domain reaches
        J <= 0.
        """
        dim = self.disc.dim
        F, C, lnJ = self.state(u)
        mu, lam = self.params.mu, self.params.lam
        m = self.measures
        det, adj = _det_adj(C)
        Ci = adj / det[:, None, None]
        pi, pj = self._pairs
        # stress, Voigt tangent and noise scale integrated over each domain
        S = m[:, None, None] * _stress(Ci, lnJ, self.params)
        M = m[:, None, None] * _tangent(Ci, lnJ, self.params, *self._voigt)
        s_scale = (m * (mu + abs(lam) * (1.0 + np.abs(lnJ)))
                   * np.linalg.norm(Ci, axis=(1, 2)))
        # H = F E maps the Voigt pairs to fields vec(X), and the domain's
        # Green-Lagrange strain rows are B = H^T Gt^T
        H = (F @ self._E).reshape(len(F), dim * dim, -1)
        Ht = np.ascontiguousarray(H.transpose(0, 2, 1))
        B = Ht @ self._GtT
        force = S[:, None, pi, pj] @ B
        # summed row by row: np.sum over a short axis is slow
        a = np.abs(B)
        bound = s_scale[:, None] * sum((a[:, v] for v in range(1, len(pi))),
                                       a[:, 0])
        # material H M H^T plus the geometric I (x) S, on the X_kj pairs
        Q = H @ M @ Ht
        Q5 = Q.reshape(len(Q), dim, dim, dim, dim)
        for k in range(dim):
            Q5[:, k, :, k, :] += S
        K_loc = self._Gt @ Q @ self._GtT

        n = self.dofmap.n_disp
        indptr, indices, positions = self._pattern
        dofs = self._dofs.ravel()
        R = np.bincount(dofs, force.ravel(), n)
        noise = np.bincount(dofs, bound.ravel(), n)
        data = np.bincount(positions, K_loc.ravel(), indices.size)
        return R, sparse.csc_matrix((data, indices, indptr), (n, n)), noise


def _free_block(indptr, indices, free):
    """The free-free block of a square CSC pattern in a band order.

    Returns (order, keep, A): ``order`` is ``free`` in the reverse
    Cuthill-McKee order of the block's symmetric pattern, and for any K on
    the pattern, K[order][:, order] is the CSC matrix A (sorted indices)
    with data K.data[keep].  A is built with zero data.
    """
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    local = np.full(len(indptr) - 1, -1)
    local[free] = np.arange(len(free))
    rows = local[indices]
    cols = np.repeat(local, np.diff(indptr))
    keep = np.flatnonzero((rows >= 0) & (cols >= 0))
    # the block carries each entry's position in K.data, plus one, as data
    shape = (len(free), len(free))
    B = sparse.csc_matrix((keep + 1.0, (rows[keep], cols[keep])), shape)
    perm = reverse_cuthill_mckee(B, symmetric_mode=True)
    A = B[perm][:, perm].tocsc()
    A.sort_indices()
    keep = A.data.astype(keep.dtype) - 1
    A.data = np.zeros(len(keep))
    return free[perm], keep, A


class _StepFailure(Exception):
    """Newton did not converge (or inverted); carries the residual trail."""

    def __init__(self, residuals):
        super().__init__("load step failed")
        self.residuals = residuals


# multiple of machine epsilon granted to the assembly noise bound when
# testing convergence; see SmoothedHyperProblem.residual_tangent
_NOISE_FACTOR = 16.0
NEWTON_TOL = 1e-9       # converged free residual, relative to the free load
NEWTON_MAX_ITER = 25    # Newton updates of one load step
MAX_HALVINGS = 8        # step halvings of one load-stepping call
PREDICTOR_POINTS = 4    # converged states a load step extrapolates from


# SuperLU options of the Newton tangent: the free block is already in a
# band order (_free_block), NATURAL factors it inside that envelope, and a
# diagonal pivot is kept while it is at least a tenth of its column's
# largest entry.  The block can be indefinite, so pivoting stays.
TANGENT_OPTIONS = {"permc_spec": "NATURAL", "diag_pivot_thresh": 0.1}


def _norm(x):
    """Euclidean norm of a vector, summed in numpy's own loop: a float64
    ``np.linalg.norm`` is a BLAS dot, which OpenBLAS threads from 10,000
    entries on, and waking that thread stalls a two-core host."""
    return float(np.sqrt(np.square(x).sum()))


def _newton(problem, u0, load, free, block):
    order, keep, A = block
    u = u0.copy()
    scale = _norm(load[free]) or 1.0
    residuals = []
    for it in range(NEWTON_MAX_ITER):
        try:
            R, K, noise = problem.residual_tangent(u)
        except _Inverted:
            raise _StepFailure(residuals)
        r = R - load
        rabs = _norm(r[free])
        rn = rabs / scale
        residuals.append(rn)
        # a stiff volumetric term puts the roundoff floor of the assembled
        # force above NEWTON_TOL * |load|; equilibrium is not resolved below it
        floor = _NOISE_FACTOR * np.finfo(float).eps \
            * _norm(noise[free])
        if rn <= NEWTON_TOL or rabs <= floor:
            return u, {"iterations": it, "residuals": residuals,
                       "floor_limited": rn > NEWTON_TOL}
        A.data = K.data[keep]
        try:
            du = spla.splu(A, **TANGENT_OPTIONS).solve(-r[order])
        except RuntimeError:   # exactly singular tangent
            raise _StepFailure(residuals)
        if not np.all(np.isfinite(du)):
            raise _StepFailure(residuals)
        u[order] += du
    raise _StepFailure(residuals)


def _extrapolate(states, load):
    """The Lagrange polynomial through the converged ``(load, u)`` states,
    evaluated at ``load``: one state gives itself, four give a cubic."""
    u = np.zeros_like(states[0][1])
    for i, (t_i, u_i) in enumerate(states):
        u += math.prod((load - t) / (t_i - t)
                       for j, (t, _) in enumerate(states) if j != i) * u_i
    return u


def newton_load_stepping(problem, f_ext, fixed, steps):
    """Ramp the load in uniform increments, solving each step by Newton.

    Returns (u, history): the converged displacement at full load and one
    record per accepted step with the load fraction, Newton update count,
    and residual trail.  A step that fails (non-convergence, an inverted
    domain or an exactly singular tangent) is retried at half width, up to
    ``MAX_HALVINGS`` times overall; running out raises RuntimeError with
    the last residual trail.

    Each step's Newton starts from the polynomial through the last
    ``PREDICTOR_POINTS`` converged states of the path from the unloaded
    one, extrapolated to the step's target load (``_extrapolate``).

    The free-free block of the tangent is laid out once per call, in the
    reverse Cuthill-McKee order of its pattern (``_free_block``); each
    iteration sets its data, factors it with ``TANGENT_OPTIONS`` and
    gathers the residual and scatters the update through that order.  The
    convergence test reads the free residual in the ascending dof order.
    """
    if whole(steps, "load step count") < 1:
        raise ValueError("need at least one load step")
    f_ext = np.asarray(f_ext, float)
    free = free_dofs(problem.dofmap.n_disp, fixed)
    # the free-free tangent in its factor order, built once; each
    # iteration sets its data
    block = _free_block(*problem._pattern[:2], free)

    states = [(0.0, np.zeros(problem.dofmap.n_disp))]
    history = []
    current, width, halved = 0.0, 1.0 / steps, 0
    while current < 1.0 - 1e-12:
        target = min(current + width, 1.0)
        u0 = _extrapolate(states[-PREDICTOR_POINTS:], target)
        try:
            u, record = _newton(problem, u0, target * f_ext, free, block)
        except _StepFailure as exc:
            halved += 1
            if halved > MAX_HALVINGS:
                raise RuntimeError(
                    "load stepping failed after "
                    f"{MAX_HALVINGS} halvings at load {target:.6g}; "
                    f"residual trail {exc.residuals}") from exc
            width *= 0.5
            continue
        states.append((target, u))
        current = target
        record["load"] = current
        history.append(record)
    return states[-1][1], history

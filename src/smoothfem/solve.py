"""Linear solution paths, pressure recovery, and the inf-sup measure.

One constrained direct solve, ``_solve_constrained``, eliminates the
Dirichlet dofs, factors the free block and polishes the solution by
extended-precision iterative refinement against the full operator with the
prescribed values in place.  ``solve_bundle`` uses it for the saddle system
of the mixed methods and for the stiffness of the displacement baselines,
whose pressure it recovers as p = lam C^-1 B u.  ``solve_condensed_split``
eliminates the piecewise-constant pressure of the enriched pair and refines
against the separate blocks; it is the oracle of acceptance criterion 4
(Malkus & Hughes, CMAME 15, 1978).
The saddle system is solved in the scaled variable q = p / sqrt(lambda),
and refinement keeps it in agreement with the oracle to strict tolerances
even at nu = 0.4999999.  Refinement measures each residual in longdouble,
a dot numpy sums in its own loop: OpenBLAS threads a float64 dot over
10,000 entries, and waking that thread stalls the pipe solves on two cores.

The scaled saddle matrix [[A, sB'], [sB, -C]] is symmetric quasi-definite:
A is positive definite once the Dirichlet rows are gone and C is a positive
pressure mass, so it factors stably under any symmetric permutation without
pivoting (Vanderbei, SIAM J. Optim. 5, 1995).  ``solve_bundle`` therefore
factors it in SuperLU's symmetric mode with a minimum-degree ordering of
A' + A (``SQD_OPTIONS``).  The condensed solves keep the default COLAMD
ordering with partial pivoting: refinement stops at a 1e-15 residual of an
ill-conditioned K, so their outputs carry ordering-dependent rounding (1e-8
relative in the ns-fem pressure error on the pipe).

``infsup_measure`` forms no dense matrix and factors one matrix: Lanczos
climbs the pressure spectrum by shift-invert to its first nonzero value, to
``INFSUP_TOL``, with einsum products for the reason above.  The spectrum
lies in [0, d] for every pairing (the bound at ``INFSUP_SHIFT``), so a
fixed shift and zero threshold serve every mesh.  The shifted saddle, its
bubbles condensed into the pressure block, is again quasi-definite for a
shift sigma < 0 and factors with ``SQD_OPTIONS``.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import eigh_tridiagonal
from scipy.sparse import linalg as spla

from .assembly import assemble_condensed, free_dofs

_SINGULAR_MSG = (
    "linear system is singular; the mesh likely lacks enough displacement "
    "constraints to remove rigid-body motion"
)


@dataclass
class SolutionField:
    """Solution of one method on one mesh: displacement, pressure, metadata."""

    method: str
    u: np.ndarray
    p: np.ndarray
    info: dict = field(default_factory=dict)


# never pass this ordering without SymmetricMode: fill and time explode
SQD_OPTIONS = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
               "options": {"SymmetricMode": True}}
REFINE_ROUNDS = 6    # refinement rounds of a solve, the direct solve included
# past this lam / mu the double lam-sum of a condensed stiffness rounds its
# shear part by more than refinement accepts (eps lam / mu > 1e-8)
CONDENSED_RATIO_MAX = 1e-8 / np.finfo(float).eps     # about 4.5e7


def _factorize(M, **options):
    try:
        return spla.splu(M.tocsc(), **options)
    except RuntimeError as exc:
        raise RuntimeError(_SINGULAR_MSG) from exc


def _refine(lu, apply_l, b_l):
    """Iterative refinement against an exactly applied operator.

    ``apply_l`` maps an extended-precision vector to the operator product at
    the same precision, so the refinement target is the unrounded system
    even when the factorized matrix had to be assembled in double.  Starts
    from zero (the first round is the plain direct solve), measures each
    residual relative to the first, and raises when the residual cannot be
    driven down.  A non-finite result, or a correction that does not reduce
    the residual at all, means the factor is no approximation of the
    inverse: the system is numerically singular.  A residual that falls,
    but too slowly, is reported as stagnation.  The norm is of the residual
    as formed, in longdouble: a float64 norm of the 14,561-row pipe saddles
    wakes OpenBLAS's threads, a stall that slows the numpy work after it.
    """
    x = np.zeros(len(b_l), dtype=np.longdouble)
    bnorm, resid = None, np.inf
    rounds, singular = 0, False
    for _ in range(REFINE_ROUNDS):
        r = b_l - apply_l(x)
        rnorm = float(np.linalg.norm(r))
        bnorm = bnorm or rnorm or 1.0
        new = rnorm / bnorm
        if not np.isfinite(new):
            raise RuntimeError(_SINGULAR_MSG)
        if new < 1e-15:
            resid = new
            break
        if new > 0.5 * resid:
            singular = new >= resid
            resid = min(resid, new)
            break
        resid = new
        dx = lu.solve(np.asarray(r, float))
        if not np.all(np.isfinite(dx)):
            raise RuntimeError(_SINGULAR_MSG)
        x = x + dx
        rounds += 1
    if resid > 1e-8:
        if singular:
            raise RuntimeError(_SINGULAR_MSG)
        raise RuntimeError(f"refinement stagnated at residual {resid:.3g} "
                           f"after {rounds} rounds")
    return x, resid


def _solve_constrained(K, f, fixed, values=None, apply_l=None, **options):
    """Solve K x = f with the dofs ``fixed`` held at ``values`` (zero when
    omitted); the one direct solve behind every linear path.

    Factors the free block K[free][:, free] (``options`` go to SuperLU) and
    refines against ``apply_l``, which maps the full extended-precision
    vector, prescribed values in place, to its operator product (K in
    longdouble by default).  Returns that full longdouble vector and an
    info dict with the refined residual and the number of free dofs.
    """
    K = K.tocsr()
    free = free_dofs(K.shape[0], fixed)
    lu = _factorize(K[free][:, free], **options)
    if apply_l is None:
        apply_l = K.astype(np.longdouble).dot
    x = np.zeros(K.shape[0], dtype=np.longdouble)
    if values is not None and len(fixed):
        x[fixed] = np.asarray(values, np.longdouble)

    def apply_free(v):
        x[free] = v
        return apply_l(x)[free]

    x[free], resid = _refine(lu, apply_free,
                             np.asarray(f, np.longdouble)[free])
    return x, {"residual": resid, "n_free": len(free)}


def solve_condensed_split(bundle, f, fixed, values=None):
    """Condensed solve of an enriched pair, refined against the split
    operator A + lam B'C^-1 B of its bundle; returns (u, p, info).

    Assembling the condensed matrix in double rounds its entries at the
    scale of the lam-term, which near the incompressible limit wipes out
    the shear contribution below ~1e-9 relative.  The factorization of the
    rounded matrix is kept only as a preconditioner; residuals are formed
    from the separately stored, exactly assembled blocks in extended
    precision, so the refined solution satisfies the unrounded equations.
    """
    A, B, C_diag, lam = bundle.A, bundle.B, bundle.C, bundle.mat.lam
    if not isinstance(C_diag, np.ndarray):
        raise ValueError("condensation needs a diagonal pressure mass")
    A_l = A.astype(np.longdouble).tocsr()
    B_l = B.astype(np.longdouble).tocsr()
    Bt_l = B_l.T.tocsr()
    w_l = np.longdouble(lam) / C_diag.astype(np.longdouble)
    u, info = _solve_constrained(
        assemble_condensed(A, B, C_diag, lam), f, fixed, values,
        apply_l=lambda v: A_l @ v + Bt_l @ (w_l * (B_l @ v)))
    # recover the pressure before dropping the extended precision: B u is a
    # near-cancellation at the incompressible limit, so a double-precision u
    # cannot carry it to full relative accuracy
    p = np.asarray(w_l * (B_l @ u), float)
    return np.asarray(u, float), p, {"path": "condensed", **info}


def solve_bundle(bundle, f, fixed, values=None):
    """Solve one assembled method; returns a SolutionField.

    A mixed method solves the saddle system in the scaled pressure
    q = p / sqrt(lam); C is a diagonal vector (smoothed pairs) or a sparse
    pressure mass (MINI).  A displacement baseline solves its stiffness
    ``bundle.A`` and reports the cell pressure p = lam C^-1 B u of its
    recovery operators.  The dofs ``fixed`` are held at ``values`` (zero
    when omitted).
    """
    A, B, C, lam = bundle.A, bundle.B, bundle.C, bundle.mat.lam
    if bundle.mixed:
        path, s = "mixed", np.sqrt(lam)
        C_mat = sparse.diags(C) if isinstance(C, np.ndarray) else C
        M = sparse.bmat([[A, s * B.T], [s * B, -C_mat]], format="csr")
        rhs = np.concatenate([f, np.zeros(B.shape[0])])
        x, info = _solve_constrained(M, rhs, fixed, values, **SQD_OPTIONS)
        u = np.asarray(x[:A.shape[0]], float)
        p = np.asarray(s * x[A.shape[0]:], float)
    else:
        path = "condensed"
        try:
            x, info = _solve_constrained(A, f, fixed, values)
        except RuntimeError as exc:
            if lam / bundle.mat.mu <= CONDENSED_RATIO_MAX:
                raise
            raise RuntimeError(f"condensed solve failed at lambda/mu = "
                               f"{lam / bundle.mat.mu:.3g}: its double "
                               "lambda-sum swamps the shear part") from exc
        u = np.asarray(x, float)
        p = lam * (B @ u) / C
    return SolutionField(bundle.method, u, p, {"path": path, **info})


# The spectrum of T (see infsup_measure) lies in [0, d] for every pairing.
# Row i of B is sum_k m(V_i ^ O_k) times the mean divergence of u over the
# smoothing domain O_k.  Jensen's inequality, once over the overlaps of each
# cell V_i and once inside each domain, gives |C^-1/2 B u|^2 <= |div u|^2,
# and |div u|^2 <= d |u|_1^2.  So this shift lies just below the spectrum,
# and this threshold separates its zero modes, on every pairing and mesh.
# Zero modes map to nu = 1e5 and a Ritz value carries eps * 1e5 of rounding,
# so lambda carries eps lambda / |sigma| relative: 4.4e-11 at lambda = d = 2
# (6.7e-11 at 3), 9e-13 at beta^2 <= 0.04.  sigma < 0 keeps the saddle SQD.
INFSUP_SHIFT = -1e-5
INFSUP_ZERO = 1e-10
# Lanczos stops once each Ritz value from the top down to the first nonzero
# lambda has a residual below this fraction of itself.  A Ritz value's error
# is quadratic in its residual, so an eigenvalue nu of the shift-invert
# operator moves by about 1e-16 nu / gap: beta stays at the rounding level.
INFSUP_TOL = 1e-8


def infsup_measure(G_gram, B, C_diag, fixed, n_disp):
    """Numerical inf-sup constant of a displacement/pressure pairing.

    beta is the square root of the smallest nonzero eigenvalue of
    S = B G^{-1} B^T measured against the pressure mass C, over the
    constrained displacement space; G must be the H1-seminorm Gram matrix
    of the displacement space (Chapelle & Bathe, Comput. Struct. 47, 1993).
    The eigenvalues of T = W S W, W = C^{-1/2}, lie in [0, d].  Lanczos
    with full reorthogonalization (Parlett, The Symmetric Eigenvalue
    Problem, 1980) finds the largest eigenvalues nu of (T - sigma I)^{-1},
    one solve with [[G, B^T], [B, sigma C]] per step, whose pressure block
    is -(S - sigma C)^{-1}.  The free dofs whose Gram row is one positive
    diagonal D_s (every bubble: its gradient integrates to zero against each
    hat) are condensed exactly, so the factored matrix is
    [[G_r, B_r^T], [B_r, sigma C - B_s D_s^-1 B_s^T]].  An eigenvalue
    lambda = sigma + 1/nu below ``INFSUP_ZERO`` counts as zero.  Returns
    beta and the converged low end of the spectrum of T through its first
    nonzero eigenvalue, where a zero may show fewer times than it repeats.
    """
    free = free_dofs(n_disp, fixed)
    G_red = G_gram.tocsr()[free][:, free]
    B_red = B.tocsc()[:, free]
    if B_red.count_nonzero() == 0:
        raise RuntimeError("pairing is completely degenerate")
    n_p = B_red.shape[0]
    diag = G_red.diagonal()
    lone = (np.diff(G_red.indptr) == 1) & (diag > 0.0)
    B_s = B_red[:, lone]
    pressure = (sparse.diags(INFSUP_SHIFT * C_diag)
                - B_s @ sparse.diags(1.0 / diag[lone]) @ B_s.T)
    B_r = B_red[:, ~lone]
    saddle = _factorize(sparse.bmat([[G_red[~lone][:, ~lone], B_r.T],
                                     [B_r, pressure]]), **SQD_OPTIONS)
    sqrt_c = np.sqrt(C_diag)
    n_rest = B_r.shape[1]
    rhs = np.zeros(n_rest + n_p)
    # a fixed start vector touches every eigenspace
    v = np.random.default_rng(0).uniform(-1.0, 1.0, n_p)
    V, alpha, off = np.empty((0, n_p)), [], []
    for m in range(1, n_p + 1):
        V = np.vstack([V, v / np.sqrt(np.einsum("i,i", v, v))])
        rhs[n_rest:] = sqrt_c * V[-1]
        v = -sqrt_c * saddle.solve(rhs)[n_rest:]
        alpha.append(np.einsum("i,i", V[-1], v))
        for _ in range(2):  # Gram-Schmidt twice keeps V orthonormal
            v -= np.einsum("ij,i", V, np.einsum("ij,j", V, v))
        off.append(np.sqrt(np.einsum("i,i", v, v)))
        theta, S = eigh_tridiagonal(alpha, off[:-1])
        theta, resid = theta[::-1], np.abs(off[-1] * S[-1, ::-1])
        low = INFSUP_SHIFT + 1.0 / theta
        k = np.argmax(low > INFSUP_ZERO) + 1    # through the first nonzero
        # an exhausted Krylov space: its Ritz values are eigenvalues
        done = m == n_p or off[-1] <= np.finfo(float).eps * theta[0]
        if low[k - 1] > INFSUP_ZERO and (
                done or np.all(resid[:k] <= INFSUP_TOL * theta[:k])):
            return float(np.sqrt(low[k - 1])), low[:k]
        if done:
            raise RuntimeError("no eigenvalue of the exhausted Krylov space "
                               "lies above INFSUP_ZERO")

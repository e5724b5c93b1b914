"""Linear solution paths, pressure recovery, and the inf-sup measure.

Both solution paths of the mixed methods are exposed: the saddle system in
(u, p) and the displacement-only condensed system obtained by eliminating
the piecewise-constant pressure.  Near the incompressible limit the Lame
parameter spans many orders of magnitude, so the saddle system is solved in
the symmetrically scaled variable q = p / sqrt(lambda) and both paths polish
the factorization with extended-precision iterative refinement; this keeps
the two paths in agreement to strict tolerances even at nu = 0.4999999.

The scaled saddle matrix [[A, sB'], [sB, -C]] is symmetric quasi-definite:
A is positive definite once the Dirichlet rows are gone and C is a positive
pressure mass, so it factors stably under any symmetric permutation without
pivoting (Vanderbei, SIAM J. Optim. 5, 1995).  ``solve_mixed`` therefore
factors it in SuperLU's symmetric mode with a minimum-degree ordering of
A' + A (``SQD_OPTIONS``).  The condensed paths keep the default COLAMD
ordering with partial pivoting: refinement stops at a 1e-15 residual of an
ill-conditioned K, so their outputs carry ordering-dependent rounding (1e-8
relative in the ns-fem pressure error on the pipe).  The inf-sup Gram
solve, a small share of that measurement, keeps it as well.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

from .assembly import apply_dirichlet, assemble_condensed, expand_solution

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


def _factorize(M, **options):
    try:
        return spla.splu(M.tocsc(), **options)
    except RuntimeError as exc:
        raise RuntimeError(_SINGULAR_MSG) from exc


def _refine(lu, apply_l, b_l, n, max_rounds=6):
    """Iterative refinement against an exactly applied operator.

    ``apply_l`` maps an extended-precision vector to the operator product at
    the same precision, so the refinement target is the unrounded system
    even when the factorized matrix had to be assembled in double.  Starts
    from zero (the first round is the plain direct solve) and raises when
    the residual cannot be driven down.  A non-finite result, or a
    correction that does not reduce the residual at all, means the factor
    is no approximation of the inverse: the system is numerically singular.
    A residual that falls, but too slowly, is reported as stagnation.
    """
    bnorm = float(np.linalg.norm(np.asarray(b_l, float))) or 1.0
    x = np.zeros(n, dtype=np.longdouble)
    resid = np.inf
    rounds, singular = 0, False
    for _ in range(max_rounds):
        r = b_l - apply_l(x)
        new = float(np.linalg.norm(np.asarray(r, float))) / bnorm
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


def solve_condensed(K, f, fixed, values=None):
    """Solve the displacement-only system under Dirichlet constraints.

    Uses a direct factorization polished by extended-precision refinement.
    """
    K_red, f_red, free = apply_dirichlet(K, f, fixed, values)
    lu = _factorize(K_red.tocsc())
    K_l = K_red.astype(np.longdouble).tocsr()
    x, resid = _refine(lu, lambda v: K_l @ v, f_red.astype(np.longdouble),
                       len(free))
    u = expand_solution(np.asarray(x, float), free, K.shape[0], fixed, values)
    return u, {"path": "condensed", "residual": resid, "n_free": len(free)}


def solve_condensed_split(A, B, C_diag, lam, f, fixed, values=None):
    """Condensed solve refined against the split operator A + lam B'C^-1 B.

    Assembling the condensed matrix in double rounds its entries at the
    scale of the lam-term, which near the incompressible limit wipes out
    the shear contribution below ~1e-9 relative.  The factorization of the
    rounded matrix is kept only as a preconditioner; residuals are formed
    from the separately stored, exactly assembled blocks in extended
    precision, so the refined solution satisfies the unrounded equations.
    """
    K = assemble_condensed(A, B, C_diag, lam)
    K_red, f_red, free = apply_dirichlet(K, f, fixed, values)
    lu = _factorize(K_red.tocsc())
    A_l = A.astype(np.longdouble).tocsr()
    B_l = B.astype(np.longdouble).tocsr()
    Bt_l = B_l.T.tocsr()
    w_l = np.longdouble(lam) / C_diag.astype(np.longdouble)
    u_full = np.zeros(A.shape[0], dtype=np.longdouble)
    if values is not None and len(fixed):
        u_full[fixed] = np.asarray(values, np.longdouble)

    def apply_free(x):
        u_full[free] = x
        y = A_l @ u_full + Bt_l @ (w_l * (B_l @ u_full))
        return y[free]

    f_l = f.astype(np.longdouble)
    x, resid = _refine(lu, apply_free, f_l[free], len(free))
    u_full[free] = x
    # recover the pressure before dropping the extended precision: B u is a
    # near-cancellation at the incompressible limit, so a double-precision u
    # cannot carry it to full relative accuracy
    p = np.asarray(w_l * (B_l @ u_full), float)
    u = np.asarray(u_full, float)
    return u, p, {"path": "condensed", "residual": resid, "n_free": len(free)}


def solve_mixed(A, B, C, lam, f, fixed, values=None):
    """Solve the scaled saddle system for displacement and pressure.

    C may be a diagonal vector (smoothed pairs) or a sparse pressure mass
    (MINI).  Returns (u, p, info) with the pressure unscaled.
    """
    n_disp = A.shape[0]
    A_red, f_red, free = apply_dirichlet(A, f, fixed, values)
    if values is not None and len(fixed):
        extra = -(B.tocsr()[:, fixed] @ np.asarray(values, float))
    else:
        extra = np.zeros(B.shape[0])
    B_red = B.tocsr()[:, free]
    s = np.sqrt(lam)
    C_mat = sparse.diags(C) if isinstance(C, np.ndarray) else C
    M = sparse.bmat([[A_red, s * B_red.T], [s * B_red, -C_mat]], format="csc")
    rhs = np.concatenate([f_red, s * extra])
    lu = _factorize(M, **SQD_OPTIONS)
    M_l = M.astype(np.longdouble).tocsr()
    x, resid = _refine(lu, lambda v: M_l @ v, rhs.astype(np.longdouble),
                       M.shape[0])
    u = expand_solution(np.asarray(x[: len(free)], float), free, n_disp,
                        fixed, values)
    p = np.asarray(s * x[len(free):], float)
    return u, p, {"path": "mixed", "residual": resid, "n_free": len(free)}


def recover_pressure(B, C_diag, lam, u):
    """Cell pressures from a displacement field: p = lam C^{-1} B u."""
    return lam * (B @ u) / C_diag


def solve_bundle(bundle, f, fixed, path="mixed", values=None):
    """Solve one assembled method; returns a SolutionField.

    ``path`` is 'mixed' (the saddle solve of mixed methods) or 'condensed';
    anything else raises ValueError.  Displacement baselines always use the
    condensed branch, and every method reports a nodal/cell pressure through
    its recovery operators.  MINI's continuous pressure cannot be condensed:
    ``bundle.condensed()`` raises ValueError on the 'condensed' path.
    """
    if path not in ("mixed", "condensed"):
        raise ValueError(f"unknown solve path {path!r}; "
                         "expected 'mixed' or 'condensed'")
    lam = bundle.mat.lam
    if bundle.mixed and path == "mixed":
        u, p, info = solve_mixed(bundle.A, bundle.B, bundle.C, lam, f, fixed,
                                 values)
    elif bundle.mixed and isinstance(bundle.C, np.ndarray):
        u, p, info = solve_condensed_split(bundle.A, bundle.B, bundle.C,
                                           lam, f, fixed, values)
    else:
        u, info = solve_condensed(bundle.condensed(), f, fixed, values)
        p = recover_pressure(bundle.B, bundle.C, lam, u)
    info["method"] = bundle.method
    return SolutionField(bundle.method, u, p, info)


def infsup_measure(G_gram, B, C_diag, fixed, n_disp, zero_tol=1e-10):
    """Numerical inf-sup constant of a displacement/pressure pairing.

    Computes the smallest nonzero eigenvalue of B G^{-1} B^T measured
    against the pressure mass C, over the constrained displacement space;
    the returned beta is its square root.  G must be the H1-seminorm Gram
    matrix of the displacement space.
    """
    mask = np.ones(n_disp, bool)
    mask[fixed] = False
    free = np.flatnonzero(mask)
    G_red = G_gram.tocsr()[free][:, free].tocsc()
    B_red = B.tocsr()[:, free]
    lu = _factorize(G_red)
    X = lu.solve(np.asarray(B_red.todense().T))        # G^{-1} B^T
    S = np.asarray(B_red @ X)                          # (N_p, N_p)
    S = 0.5 * (S + S.T)
    w = 1.0 / np.sqrt(C_diag)
    T = (S * w[None, :]) * w[:, None]
    eigs = np.linalg.eigvalsh(T)
    cutoff = zero_tol * max(eigs.max(), 1e-300)
    nonzero = eigs[eigs > cutoff]
    if len(nonzero) == 0:
        raise RuntimeError("pairing is completely degenerate")
    return float(np.sqrt(nonzero[0])), eigs

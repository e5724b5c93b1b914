"""Exact solutions, error norms, pressure profiles, and convergence rates.

The error norms mirror how each method represents its solution: smoothed
methods are measured through their domain-averaged strains, mixed methods
additionally through their cell-constant pressure, and MINI through its
pointwise element fields.  Integrals use a degree-4 rule on the micro-cell
partition, except MINI's energy norm, which uses the degree-2d element
rule of MINI's stiffness (``Discretization.element_gradients``).  Exact
fields at micro-cell points come from ``Discretization.at_quadrature``.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .assembly import (MaterialParams, divergence_operator,
                       full_elastic_matrix, shear_weight_vector,
                       strain_matrix, strain_rows)
from .basis import bubble_value
from .dualmesh import mesh_size
from .mesh import LOCAL_EDGES, PIPE_RADII, ordered_matmul

PROFILE_SAMPLES = 1024       # points of a pressure profile
STRONG_FORM_SAMPLES = 100    # radii of the pipe's strong-form check


@dataclass(frozen=True)
class ExactPipeSolution:
    """Closed-form plane-strain fields of a pressurized thick-walled pipe.

    Annulus a <= r <= b (``PIPE_RADII``) under internal pressure p with
    Young's modulus E and Poisson ratio nu.  Radial methods take radii;
    field methods take Cartesian points (..., 2) and vectorize over them.

    The radial displacement is u_r = C[(1 - 2 nu) r + b^2 / r] with
    C = (1 + nu) a^2 p / (E (b^2 - a^2)), so that the stresses
    sigma_r = S (1 - b^2 / r^2) and sigma_phi = S (1 + b^2 / r^2) with
    S = a^2 p / (b^2 - a^2) satisfy sigma_r(a) = -p and sigma_r(b) = 0.
    """

    p: float
    E: float
    nu: float

    a, b = PIPE_RADII

    @property
    def material(self):
        return MaterialParams(self.E, self.nu)

    @property
    def coeff(self):
        """Displacement scale C of the Lame solution."""
        return (1.0 + self.nu) * self.a ** 2 * self.p / (
            self.E * (self.b ** 2 - self.a ** 2))

    @property
    def stress_scale(self):
        """Stress scale S = a^2 p / (b^2 - a^2)."""
        return self.a ** 2 * self.p / (self.b ** 2 - self.a ** 2)

    def radial_displacement(self, r):
        r = np.asarray(r, float)
        return self.coeff * ((1.0 - 2.0 * self.nu) * r + self.b ** 2 / r)

    def radial_stress(self, r):
        r = np.asarray(r, float)
        return self.stress_scale * (1.0 - self.b ** 2 / r ** 2)

    def hoop_stress(self, r):
        r = np.asarray(r, float)
        return self.stress_scale * (1.0 + self.b ** 2 / r ** 2)

    def displacement(self, X):
        """Cartesian displacement at points X of shape (..., 2)."""
        X = np.asarray(X, float)
        r = np.linalg.norm(X, axis=-1, keepdims=True)
        return self.radial_displacement(r) * X / r

    def strain(self, X):
        """Engineering Voigt strain (e_xx, e_yy, g_xy) at points X."""
        X = np.asarray(X, float)
        r = np.linalg.norm(X, axis=-1)
        n = X / r[..., None]
        hoop = self.radial_displacement(r) / r
        radial = self.coeff * ((1.0 - 2.0 * self.nu) - self.b ** 2 / r ** 2)
        delta = radial - hoop
        out = np.empty(X.shape[:-1] + (3,))
        out[..., 0] = hoop + delta * n[..., 0] ** 2
        out[..., 1] = hoop + delta * n[..., 1] ** 2
        out[..., 2] = 2.0 * delta * n[..., 0] * n[..., 1]
        return out

    def divergence(self, X):
        """div u, a constant, broadcast over X."""
        X = np.asarray(X, float)
        return np.full(X.shape[:-1], 2.0 * self.coeff * (1.0 - 2.0 * self.nu))

    def pressure(self, X):
        """p = lambda div u = 2 nu a^2 p / (b^2 - a^2), broadcast over X."""
        X = np.asarray(X, float)
        return np.full(X.shape[:-1], 2.0 * self.nu * self.stress_scale)

    def strong_form_residual(self):
        """Largest scaled defect of the closed forms at sampled radii.

        Checks, by central finite differences, that the displacement
        reproduces the stresses through the plane-strain law, that the
        stresses satisfy radial equilibrium, and that both pressure
        boundary conditions hold.  Each defect is scaled by the magnitude
        of the terms entering its identity, so the result stays meaningful
        near the incompressible limit where lambda amplifies the finite
        difference noise; a wrong closed form still shows up at order one.
        """
        r = np.linspace(self.a, self.b, STRONG_FORM_SAMPLES)
        h = 1e-5 * self.a
        mat = self.material
        lam, mu = mat.lam, mat.mu

        e_rr = (self.radial_displacement(r + h)
                - self.radial_displacement(r - h)) / (2.0 * h)
        e_tt = self.radial_displacement(r) / r
        s_rr = (lam + 2.0 * mu) * e_rr + lam * e_tt
        s_tt = lam * e_rr + (lam + 2.0 * mu) * e_tt
        law_scale = (lam + 2.0 * mu) * (np.abs(e_rr) + np.abs(e_tt)) + self.p
        law = max(np.abs((s_rr - self.radial_stress(r)) / law_scale).max(),
                  np.abs((s_tt - self.hoop_stress(r)) / law_scale).max())

        ds_rr = (self.radial_stress(r + h)
                 - self.radial_stress(r - h)) / (2.0 * h)
        balance = np.abs(
            ds_rr + (self.radial_stress(r) - self.hoop_stress(r)) / r
        ).max() / self.p

        bc = max(abs(self.radial_stress(self.a) + self.p),
                 abs(self.radial_stress(self.b))) / self.p
        return max(law, balance, bc)


def characteristic_h(disc):
    """Mesh size: largest cell radius over smoothing and node-cell meshes."""
    kind = disc.smoothing_kind()
    return mesh_size(disc.micro, [disc.domains(kind).dom_of_cell,
                                  disc.micro.cell_node])


def displacement_values(disc, dofmap, u, lam, elem):
    """Evaluate a discrete displacement at batched barycentric points.

    ``lam`` is (..., Q, d+1) in the elements listed by ``elem`` (...,);
    returns (..., Q, d).  Bubbles of the dof map's kind are included.
    Only error norms read it, after the solve, so ``matmul``'s summation
    order moves nothing that feeds an operator.
    """
    vals = dofmap.reshape(u)
    out = lam @ vals[disc.mesh.elements[elem]]
    if dofmap.bubble:
        bv = bubble_value(dofmap.bubble, lam)
        out = out + bv[..., None] * vals[disc.mesh.n_nodes + elem][:, None, :]
    return out


def error_displacement(disc, dofmap, u, exact):
    """L2 norm of u_h - u for a callable exact field.

    Integrates with a degree-4 rule on every micro-cell; the micro-cells
    partition each element, so piecewise-linear bubbles are integrated
    exactly.
    """
    _, _, w, lam = disc.quadrature()
    diff = (displacement_values(disc, dofmap, u, lam, disc.micro.cell_elem)
            - disc.at_quadrature(exact))
    return float(np.sqrt(np.einsum("kq,kqd,kqd->", w, diff, diff)))


def error_pressure(disc, p, exact, continuous=False):
    """L2 norm of p_h - p over the node-centered pressure cells.

    ``p`` holds one value per mesh vertex: cell constants by default, or a
    continuous P1 field (MINI) with ``continuous=True``.
    """
    _, _, w, lam = disc.quadrature()
    p = np.asarray(p, float)
    if continuous:
        elem = disc.micro.cell_elem
        ph = np.einsum("kqi,ki->kq", lam, p[disc.mesh.elements[elem]])
    else:
        ph = np.broadcast_to(p[disc.micro.cell_node][:, None], w.shape)
    diff = ph - disc.at_quadrature(exact)
    return float(np.sqrt(np.einsum("kq,kq->", w, diff * diff)))


def error_energy(disc, bundle, u, p, exact):
    """Energy error norm of one solution of the method assembled in
    ``bundle``; the variant follows the bundle.

    Displacement-only methods measure their domain-averaged stress against
    the exact stress in the full material metric.  The enriched mixed
    methods measure the shear part of the averaged strain plus the signed
    product of pressure and divergence defects on smoothing domains; MINI
    does the same with its pointwise element fields and never touches
    smoothing domains.  ``exact`` provides strain(X), pressure(X) and
    divergence(X).

    Returns (norm, total): sqrt(max(0, total)) and the raw signed total,
    reported so the cross-term sign can be audited.
    """
    if bundle.nodal_pressure:
        return _energy_mini(disc, bundle, u, p, exact)
    mat = bundle.mat
    G = disc.gradient_ops(bundle.kind, bundle.dofmap.bubble)
    eps_bar = np.stack([R @ u for R in strain_rows(G)], axis=-1)
    dom = disc.domains(bundle.kind).dom_of_cell
    w = disc.quadrature()[2]
    diff = disc.at_quadrature(exact.strain) - eps_bar[dom][:, None, :]
    if not bundle.mixed:
        C = full_elastic_matrix(mat.lam, mat.mu, disc.dim)
        # the lambda terms cancel in this sum, so its order is pinned:
        # forming diff @ C first moves ns-fem's pipe err_E by 1.3e-12
        total = np.einsum("kq,kqv,vw,kqw->", w, diff, C, diff)
        return float(np.sqrt(max(0.0, total))), float(total)

    # shear defect plus pressure-divergence defect on smoothing domains
    div_bar = divergence_operator(G) @ u
    ph = np.asarray(p, float)[disc.micro.cell_node][:, None]
    return _mixed_energy(w, diff, disc.at_quadrature(exact.pressure) - ph,
                         disc.at_quadrature(exact.divergence)
                         - div_bar[dom][:, None], disc.dim, mat.mu)


def _energy_mini(disc, bundle, u, p, exact):
    """Pointwise element-field defect for MINI (P1 + bubble, P1 pressure)
    on the element rule and gradient table of MINI's stiffness."""
    mesh, dim, mat = disc.mesh, disc.dim, bundle.mat
    rule, table = disc.element_gradients()
    X = ordered_matmul(rule.points, mesh.nodes[mesh.elements])
    w = mesh.element_measures()[:, None] * rule.weights[None, :]

    vals = bundle.dofmap.reshape(u)      # local order: hats, then bubble
    local = np.concatenate([vals[mesh.elements], vals[mesh.n_nodes:, None]],
                           axis=1).reshape(len(w), -1)
    eps = np.einsum("eqvp,ep->eqv", strain_matrix(table), local)

    ph = np.einsum("qi,ei->eq", rule.points,
                   np.asarray(p, float)[mesh.elements])
    return _mixed_energy(w, exact.strain(X) - eps, exact.pressure(X) - ph,
                         exact.divergence(X) - eps[..., :dim].sum(axis=-1),
                         dim, mat.mu)


def _mixed_energy(w, diff, pdiff, ddiff, dim, mu):
    """(norm, total) of a mixed method's energy defect at weighted points
    ``w`` (K, Q): 2 mu times the shear part of the strain defect ``diff``
    (K, Q, V), plus the product of the pressure and divergence defects
    ``pdiff`` and ``ddiff`` (K, Q)."""
    shear = shear_weight_vector(dim)
    quad = 2.0 * mu * np.einsum("kq,kqv,v->", w, diff * diff, shear)
    total = quad + np.einsum("kq,kq,kq->", w, pdiff, ddiff)
    return float(np.sqrt(max(0.0, total))), float(total)


def locate_points(disc, X, candidates):
    """Containing element and barycentric coordinates of points X (S, d).

    Picks, among the element ids ``candidates``, the first element whose
    smallest barycentric coordinate is largest; a negative best coordinate
    below -1e-9 means the point lies outside and raises ValueError.
    """
    X = np.asarray(X, float)
    cand = np.asarray(candidates, np.int64)
    lam = disc.mesh.barycentric(cand, np.broadcast_to(X, cand.shape + X.shape))
    lmin = lam.min(axis=-1)
    pick, rows = lmin.argmax(axis=0), np.arange(len(X))
    best_min = lmin[pick, rows]
    if best_min.min() < -1e-9:
        raise ValueError(f"point {X[best_min.argmin()]} lies outside the mesh")
    return cand[pick], lam[pick, rows]


def pressure_profile(disc, p, value, continuous=False):
    """Sample a pressure field along the line x = ``value`` (2D).

    Returns (positions, values) sorted by y.  Cell-constant fields take the
    value of the node cell owning each sample (the largest barycentric
    coordinate of the containing element); continuous fields interpolate
    linearly.  The ``PROFILE_SAMPLES`` samples sit at midpoints of uniform
    bins over the intersected range, so reruns are deterministic.
    """
    mesh = disc.mesh
    if mesh.dim != 2:
        raise ValueError("pressure profiles are defined for 2D meshes")
    along = mesh.nodes[mesh.elements, 0]
    hit = (along.min(axis=1) <= value) & (value <= along.max(axis=1))
    if not hit.any():
        raise ValueError(f"no elements intersect x = {value}")
    cand = np.flatnonzero(hit)

    # clip the line against the candidate triangles: collect the crossing
    # ordinates of every edge so the sample range stays inside the domain;
    # only their extremes are read, so the edge order does not matter
    x, y = np.moveaxis(mesh.nodes[mesh.elements[cand]], -1, 0)
    crossings = [y[x == value]]
    for i, j in LOCAL_EDGES[2]:
        x1, x2 = x[:, i], x[:, j]
        keep = ((x1 - value) * (x2 - value) < 0.0) & (x1 != x2)
        t = (value - x1[keep]) / (x2[keep] - x1[keep])
        crossings.append(y[keep, i] * (1.0 - t) + y[keep, j] * t)
    cross = np.concatenate(crossings)
    lo, hi = float(cross.min()), float(cross.max())
    n = PROFILE_SAMPLES
    ts = lo + (hi - lo) * (np.arange(n) + 0.5) / n
    X = np.column_stack([np.full(n, value), ts])

    elem, lam = locate_points(disc, X, cand)
    p = np.asarray(p, float)
    if continuous:
        vals = np.einsum("si,si->s", lam, p[mesh.elements[elem]])
    else:
        owner = mesh.elements[elem, lam.argmax(axis=1)]
        vals = p[owner]
    return ts, vals


def total_variation(values):
    """Sum of absolute increments of a sampled profile."""
    return float(np.abs(np.diff(np.asarray(values, float))).sum())


def monotone_envelope_tv(values):
    """Total variation of a monotone profile spanning the same extremes.

    A smooth monotone field keeps its sampled variation within a small
    multiple of this; oscillatory fields exceed it many times over.
    """
    values = np.asarray(values, float)
    return float(values.max() - values.min())


def fit_rate(h, err):
    """Least-squares slope of log(err) against log(h).

    Requires at least three points, all positive.
    """
    h = np.asarray(h, float)
    err = np.asarray(err, float)
    if h.size < 3:
        raise ValueError("rate fit needs at least 3 points")
    if np.any(h <= 0.0) or np.any(err <= 0.0):
        raise ValueError("rate fit needs positive sizes and errors")
    return float(np.polyfit(np.log(h), np.log(err), 1)[0])


def richardson_limit(values):
    """Extrapolated limit of a refinement series from its last three values.

    Assumes one dominant error term decaying geometrically at the observed
    contraction of the last two differences.  Falls back to the finest
    value when the differences do not contract.
    """
    v = np.asarray(values, float)
    if v.size < 3:
        raise ValueError("extrapolation needs at least 3 values")
    d1, d2 = v[-2] - v[-3], v[-1] - v[-2]
    if d2 == 0.0 or d1 * d2 <= 0.0:
        return float(v[-1])
    rho = d1 / d2
    if rho <= 1.0:
        return float(v[-1])
    return float(v[-1] + d2 / (rho - 1.0))


def tip_displacement(mesh, dofmap, u, point, comp):
    """Displacement component at the mesh node nearest to ``point``."""
    d2 = ((mesh.nodes - np.asarray(point, float)) ** 2).sum(axis=1)
    node = int(np.argmin(d2))
    return float(np.asarray(u)[dofmap.vertex_dof(node, comp)])


CSV_COLUMNS = ("method", "mesh_id", "h", "N_e", "err_u", "err_p", "err_E",
               "tip_uy")


@dataclass
class ErrorReport:
    """Per-mesh results of one method, ready for CSV/JSON serialization."""

    method: str
    mesh_id: str
    h: float
    n_elements: int
    err_u: float = float("nan")
    err_p: float = float("nan")
    err_E: float = float("nan")
    tip_uy: float = float("nan")
    extra: dict = field(default_factory=dict)

    def columns(self):
        """The values of the CSV_COLUMNS, in that order."""
        return (self.method, self.mesh_id, self.h, self.n_elements,
                self.err_u, self.err_p, self.err_E, self.tip_uy)

    def row(self):
        """CSV cells in CSV_COLUMNS order."""
        return tuple(_fmt(v) if isinstance(v, float) else str(v)
                     for v in self.columns())

    def to_dict(self):
        return {**dict(zip(CSV_COLUMNS, self.columns())),
                "extra": dict(self.extra)}

    @classmethod
    def from_dict(cls, d):
        return cls(*(d[key] for key in CSV_COLUMNS),
                   dict(d.get("extra", {})))


def _fmt(x):
    """Shortest lossless decimal form of a float."""
    return repr(float(x))


def reports_to_csv(reports, timestamp=None):
    """Render reports as CSV text; the optional timestamp comment line is
    the only part allowed to differ between reruns."""
    lines = []
    if timestamp is not None:
        lines.append(f"# generated {timestamp}")
    lines.append(",".join(CSV_COLUMNS))
    lines.extend(",".join(r.row()) for r in reports)
    return "\n".join(lines) + "\n"


def reports_to_json(reports, summary=None):
    """Serialize reports (with an optional summary block) to JSON text."""
    payload = {"reports": [r.to_dict() for r in reports]}
    if summary is not None:
        payload["summary"] = summary
    return json.dumps(payload, indent=1, sort_keys=True)


def reports_from_json(text):
    """Rebuild (reports, summary) from reports_to_json output."""
    payload = json.loads(text)
    reports = [ErrorReport.from_dict(d) for d in payload["reports"]]
    return reports, payload.get("summary")

"""Benchmark scenarios, their configuration, and threshold checks.

Each scenario solves a family of meshes for a list of methods and returns
per-cell :class:`~smoothfem.analysis.ErrorReport` rows plus a summary dict
holding derived quantities (monitored displacements, fitted rates, inf-sup
constants, pressure-profile variation) and named pass/fail checks evaluated
against the thresholds shipped in ``data/acceptance.json``.  Each runner
fills the named checks and returns its reports and derived quantities;
:func:`run_scenario`, which the command line calls, wraps them in the
summary.

Scenarios
---------
cook
    Bending-dominated plane-strain membrane near the incompressible limit:
    monitored tip displacement per mesh, extrapolated limit of the enriched
    method, locking gaps of the unenriched baselines, and pressure-profile
    total variation along the line x = 24 on a 256-element mesh.
cook-distorted
    The same problem on randomly distorted meshes (reported, no gates).
pipe
    Pressurized thick-walled pipe quarter model with a closed-form
    solution: displacement, pressure, and energy error norms, fitted
    convergence rates, and per-mesh cross-method error orderings.
block3d
    Quarter model of a 3D block loaded on a center patch of its top face:
    monitored vertical displacement under the patch and the locking ratio
    between the enriched and bubble-free face-smoothed methods.
cook-neohookean
    Large-deformation membrane with a neo-Hookean material over a bulk
    modulus sweep; checks that every load step converges and that the
    monitored displacement is monotone in mesh resolution.
infsup
    Numerical inf-sup constants of the enriched pairing (bounded away from
    zero under refinement) and of the vertex-only pairing (decaying).
lemma-checks
    Deterministic operator identities on a fixed battery of small meshes:
    vertex-column agreement between smoothed and element-wise couplings,
    bubble-column scaling constants, measure partitions, boundary-integral
    versus volume-average smoothing, and mixed-versus-condensed solver
    equivalence.

One sweep loop solves every cell.  A failed solve never aborts a run: the
cell (or a lemma row missing its bound) is reported with NaN values, a
``failed`` status and an error note; the summary's ``failures`` lists those
rows, then the profile cells of ``profile_errors``.  Only ``cook-distorted``
has no thresholds; any other missing one is a KeyError.
"""

import json
import operator
from collections import namedtuple
from dataclasses import asdict, dataclass, fields
from importlib import resources

import numpy as np

from .analysis import (
    ErrorReport,
    ExactPipeSolution,
    characteristic_h,
    error_displacement,
    error_energy,
    error_pressure,
    fit_rate,
    monotone_envelope_tv,
    pressure_profile,
    richardson_limit,
    tip_displacement,
    total_variation,
)
from .assembly import (
    Discretization,
    MaterialParams,
    assemble_h1_gram,
    assemble_loads,
    assemble_method,
    assemble_plain_B,
    canonical_method,
    dirichlet_dofs,
)
from .basis import check_bubble_kind
from .hyperelastic import (
    NeoHookeanParams,
    SmoothedHyperProblem,
    newton_load_stepping,
)
from .mesh import (BLOCK_SIZE, COOK_CORNERS, PIPE_RADII, distort_mesh,
                   generate_annulus, generate_block, generate_cook, whole)
from .smoothing import volume_average_gradient
from .solve import infsup_measure, solve_bundle, solve_condensed_split

# monitored points, profile geometry and the smoothing oracle's sample
COOK_TIP = COOK_CORNERS[2]         # top right corner of the membrane
COOK_EDGE = COOK_TIP[1] - COOK_CORNERS[1][1]   # length of the loaded edge
COOK_MIDRIGHT = (COOK_TIP[0], COOK_TIP[1] - 0.5 * COOK_EDGE)  # its midpoint
PIPE_INNER = (PIPE_RADII[0], 0.0)  # point on the pressurized inner arc
BLOCK_MONITOR = (0.0, 0.0, BLOCK_SIZE[2])  # top corner under the patch
PROFILE_LINE_X = 0.5 * COOK_TIP[0]  # sampling line of the pressure profile
PROFILE_MESH = (8, 16)             # 256-element membrane mesh
ORACLE_DOMAINS = 7                 # domains per case of the smoothing oracle


@dataclass
class ScenarioConfig:
    """Validated settings of one benchmark run.

    Build instances through :func:`make_config`, which fills the
    scenario's defaults before validation.  Each scenario accepts only the
    settings it reads (:func:`accepted_settings`); every other field must
    keep its default here.  ``load`` is the resultant force on the loaded
    membrane edge (the applied traction density is ``load / 16``) and the
    boundary pressure for the pipe and block scenarios.
    """

    scenario: str
    methods: tuple = ()
    meshes: tuple = ()
    young: float = 250.0
    poisson: float = 0.4999
    load: float = 100.0
    bubble: str = "power"
    kappa: tuple = ()
    mu: float = 0.6
    steps: int = 10
    distort: float = 0.0
    seed: int = 0
    pattern: str = "unstructured"

    def __post_init__(self):
        if self.scenario not in _SCENARIO_TABLE:
            raise ValueError(f"unknown scenario {self.scenario!r}; "
                             f"choose from {', '.join(SCENARIOS)}")
        self.methods = tuple(canonical_method(m) for m in self.methods)
        self.meshes = tuple(whole(n, "mesh resolution") for n in self.meshes)
        if any(n < 2 for n in self.meshes):
            raise ValueError("mesh resolutions must be integers >= 2")
        # each material and bubble rule is checked by its owner
        check_bubble_kind(self.bubble)
        MaterialParams(self.young, self.poisson)
        self.kappa = tuple(float(k) for k in self.kappa)
        for kappa in self.kappa:
            NeoHookeanParams(self.mu, kappa)
        if self.load == 0.0:
            raise ValueError("load must be nonzero")
        if not np.isfinite(self.load):
            raise ValueError("load must be finite")
        # the sweep keys results by value, so a repeat would overwrite its twin
        for name in ("methods", "meshes", "kappa"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"repeated {name} values in {values}")
        self.steps = whole(self.steps, "load step count")
        self.seed = whole(self.seed, "seed")
        if self.steps < 1:
            raise ValueError("need at least one load step")
        if not 0.0 <= self.distort < 1.0:
            raise ValueError("distortion density must lie in [0, 1)")
        if self.pattern not in ("uniform", "unstructured"):
            raise ValueError("pattern must be 'uniform' or 'unstructured'")
        spec = _SCENARIO_TABLE[self.scenario]
        wrong = [m for m in self.methods if m not in spec.methods]
        if wrong:
            raise ValueError(f"{', '.join(wrong)} not defined on the "
                             f"{self.scenario!r} scenario; it runs "
                             f"{', '.join(spec.methods) or 'no method'}")
        accepted = ("scenario", *accepted_settings(self.scenario))
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name not in accepted and value != f.default:
                raise ValueError(f"the {self.scenario!r} scenario does not "
                                 f"read {f.name}; leave it at {f.default!r}")
            if f.name in spec.settings and value == ():
                raise ValueError(f"need at least one value of {f.name}")


def accepted_settings(scenario):
    """Names of the settings ``scenario`` reads, plus the ``seed`` that
    every scenario accepts."""
    return (*_SCENARIO_TABLE[scenario].settings, "seed")


def make_config(scenario, **overrides):
    """A ScenarioConfig with the scenario defaults and explicit overrides.

    Parameters
    ----------
    scenario : str
        One of :data:`SCENARIOS`.
    **overrides
        Any ScenarioConfig field; values of None are ignored so partially
        filled option namespaces can be passed straight through.
    """
    # ScenarioConfig rejects an unknown scenario
    spec = _SCENARIO_TABLE.get(scenario)
    settings = dict(spec.settings) if spec else {}
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in ScenarioConfig.__dataclass_fields__:
            raise ValueError(f"unknown configuration key {key!r}")
        settings[key] = value
    return ScenarioConfig(scenario=scenario, **settings)


def acceptance_data():
    """Thresholds and recorded reference values shipped with the package."""
    path = resources.files("smoothfem").joinpath("data/acceptance.json")
    return json.loads(path.read_text())


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------

def _solve_linear(disc, method, mat, tractions, bubble):
    """Assemble, constrain, and solve one method; (solution, bundle)."""
    bundle = assemble_method(disc, method, mat, bubble=bubble)
    f = assemble_loads(disc.mesh, disc.topo, bundle.dofmap, tractions)
    fixed = dirichlet_dofs(disc.mesh, bundle.dofmap)
    sol = solve_bundle(bundle, f, fixed)
    return sol, bundle


def _fail_cell(report, reason):
    """Mark a report row failed, with ``reason`` as its error text."""
    report.extra["status"] = "failed"
    report.extra["error"] = reason


def format_bound(check):
    """A recorded check's comparison as text, e.g. '0.3 <= 1e-10'."""
    return f"{check['value']:.6g} {check['op']} {check['threshold']:.6g}"


def _sweep(meshes, keys, mesh_of, cell, row=None):
    """Solve every cell of a scenario over a mesh series.

    Each resolution n of ``meshes`` is meshed by ``mesh_of(n)`` and
    discretized once; ``cell(disc, n, key, report)`` then fills one
    ErrorReport per key and returns the value the scenario's derived
    quantities read.  ``row(n, key)`` gives the report's (method,
    mesh_id), by default (key, n).  A cell that raises is reported as
    failed and stores no value; a mesh that cannot be built or discretized
    fails each of its cells (h NaN, no elements).

    Returns (reports, values) with values keyed by (key, n).
    """
    reports, values = [], {}
    for n in meshes:
        try:
            disc = Discretization(mesh_of(n))
            h, n_elements, mesh_error = (characteristic_h(disc),
                                         disc.mesh.n_elements, None)
        except Exception as exc:
            h, n_elements, mesh_error = float("nan"), 0, exc
        for key in keys:
            method, mesh_id = row(n, key) if row else (key, str(n))
            report = ErrorReport(method, mesh_id, h, n_elements)
            try:
                if mesh_error is not None:
                    raise mesh_error
                values[(key, n)] = cell(disc, n, key, report)
                report.extra["status"] = "ok"
            except Exception as exc:
                _fail_cell(report, f"{type(exc).__name__}: {exc}")
            reports.append(report)
    return reports, values


_COMPARISONS = {">=": operator.ge, "<=": operator.le, ">": operator.gt,
                "<": operator.lt}


def _add_check(checks, name, value, op, threshold, source):
    """Record one named check; ``op`` is '>=', '<=', '>' or '<'."""
    value = float(value)
    passed = np.isfinite(value) and _COMPARISONS[op](value, threshold)
    checks[name] = {"value": value, "op": op, "threshold": threshold,
                    "passed": bool(passed), "source": source}


def _gate(checks, data, key, name, value, op):
    """Check ``value`` against the packaged threshold ``data[key]``."""
    entry = data[key]
    _add_check(checks, name, value, op, entry["value"], entry["source"])


def _series(store, method, meshes):
    return [store.get((method, n), float("nan")) for n in meshes]


def _tip_cell(config, mat, tractions, point, comp):
    """Sweep cell solving one linear method and reading one displacement."""
    def cell(disc, n, method, report):
        sol, bundle = _solve_linear(disc, method, mat, tractions,
                                    config.bubble)
        report.tip_uy = tip_displacement(disc.mesh, bundle.dofmap, sol.u,
                                         point, comp=comp)
        report.extra["n_dof"] = bundle.dofmap.n_disp
        return report.tip_uy
    return cell


# ----------------------------------------------------------------------
# membrane scenarios
# ----------------------------------------------------------------------

def _cook_mesh(resolution, config):
    mesh = generate_cook(resolution)
    if config.distort:
        mesh = distort_mesh(mesh, config.distort, seed=config.seed)
    return mesh


def run_cook(config, data, checks):
    """Tip-displacement study of the membrane near incompressibility.

    Derives the tip series per method, the extrapolated limit of the
    enriched method, per-baseline locking gaps, and (on the undistorted
    scenario, when both profile methods are configured) the
    pressure-profile total-variation block.  The distorted scenario's
    empty threshold table skips every gate.
    """
    mat = MaterialParams(config.young, config.poisson)
    tractions = {"traction": (0.0, config.load / COOK_EDGE)}
    reports, tips = _sweep(
        config.meshes, config.methods, lambda n: _cook_mesh(n, config),
        _tip_cell(config, mat, tractions, COOK_TIP, 1))

    summary = {
        "tips": {m: _series(tips, m, config.meshes) for m in config.methods},
    }
    # the limit and the tip-change gate need consecutive refinements, so
    # only the tips after the last failed mesh count
    series = summary["tips"].get("bes-fem", [])
    failed = [i for i, t in enumerate(series) if not np.isfinite(t)]
    finite = series[failed[-1] + 1:] if failed else series
    if len(finite) >= 3:
        summary["tip_limit"] = richardson_limit(finite)
    elif finite:
        summary["tip_limit"] = finite[-1]

    if data and len(finite) >= 2:
        _gate(checks, data, "tip_change_max", "tip-change",
              abs(finite[-1] - finite[-2]) / abs(finite[-1]), "<=")
    if data and "tip_limit" in summary:
        limit = summary["tip_limit"]
        gap_n = 16 if 16 in config.meshes else config.meshes[-1]
        summary["locking_gap_mesh"] = str(gap_n)
        for method in ("fem-t3", "es-fem"):
            tip = tips.get((method, gap_n))
            if tip is not None:
                _gate(checks, data, "locking_gap_min",
                      f"locking-gap-{method}", (limit - tip) / abs(limit),
                      ">=")

    if (config.scenario == "cook" and not config.distort
            and {"bes-fem", "ns-fem"} <= set(config.methods)):
        _cook_profiles(config, mat, tractions, summary, checks, data)
    return reports, summary


def _cook_profiles(config, mat, tractions, summary, checks, data):
    """Pressure profiles along x = 24 on the fixed 256-element mesh.

    The profile cells' report rows are dropped, so the rows stay one per
    configured (method, mesh) cell: results go into ``summary["profile"]``
    and the reasons of failed cells into ``summary["profile_errors"]``.
    """
    mesh_id = "x".join(str(n) for n in PROFILE_MESH)

    def cell(disc, n, method, report):
        sol, bundle = _solve_linear(disc, method, mat, tractions,
                                    config.bubble)
        return pressure_profile(disc, sol.p, value=PROFILE_LINE_X,
                                continuous=bundle.nodal_pressure)

    wanted = [m for m in config.methods if m in ("bes-fem", "ns-fem", "mini")]
    rows, values = _sweep(
        [PROFILE_MESH], wanted, generate_cook, cell,
        row=lambda n, method: (method, mesh_id))
    errors = {r.method: r.extra["error"] for r in rows
              if r.extra["status"] == "failed"}
    if errors:
        summary["profile_errors"] = errors
    profiles = {method: value for (method, _), value in values.items()}

    block = {}
    for method, (ts, vals) in profiles.items():
        block[method] = {
            "position": [float(t) for t in ts[::4]],
            "pressure": [float(v) for v in vals[::4]],
            "tv": total_variation(vals),
            "envelope_tv": monotone_envelope_tv(vals),
        }
    summary["profile"] = {"line_x": PROFILE_LINE_X, "mesh": mesh_id,
                          "methods": block}

    if "bes-fem" in profiles and "ns-fem" in profiles:
        tv_bes = block["bes-fem"]["tv"]
        tv_ns = block["ns-fem"]["tv"]
        if tv_bes > 0:
            _gate(checks, data, "tv_ratio_min", "pressure-tv-ratio",
                  tv_ns / tv_bes, ">=")
        if block["bes-fem"]["envelope_tv"] > 0:
            _gate(checks, data, "tv_envelope_max", "pressure-tv-envelope",
                  tv_bes / block["bes-fem"]["envelope_tv"], "<=")
    if "bes-fem" in profiles and "mini" in profiles:
        _, p_bes = profiles["bes-fem"]
        _, p_mini = profiles["mini"]
        n = len(p_bes)
        inner = slice(n // 10, n - n // 10)
        gap = np.abs(p_mini[inner] - p_bes[inner]).max()
        summary["profile"]["mini_gap"] = float(
            gap / np.abs(p_bes[inner]).max())


# ----------------------------------------------------------------------
# pipe scenario
# ----------------------------------------------------------------------

def run_pipe(config, data, checks):
    """Convergence study against the closed-form pipe solution.

    Reports all three error norms per cell and derives fitted rates per
    method and the strictness margin of the cross-method error ordering on
    every mesh.
    """
    exact = ExactPipeSolution(p=config.load, E=config.young,
                              nu=config.poisson)
    mat = exact.material
    tractions = {"traction": ("pressure", config.load)}

    def cell(disc, n, method, report):
        sol, bundle = _solve_linear(disc, method, mat, tractions,
                                    config.bubble)
        dofmap = bundle.dofmap
        report.err_u = error_displacement(disc, dofmap, sol.u,
                                          exact.displacement)
        report.err_p = error_pressure(disc, sol.p, exact.pressure,
                                      continuous=bundle.nodal_pressure)
        norm, signed = error_energy(disc, bundle, sol.u, sol.p, exact)
        report.err_E = norm
        report.extra["err_E_signed"] = signed
        report.tip_uy = tip_displacement(disc.mesh, dofmap, sol.u,
                                         PIPE_INNER, comp=0)
        report.extra["n_dof"] = dofmap.n_disp
        return report.h, report.err_u, report.err_p, report.err_E

    reports, errors = _sweep(config.meshes, config.methods, generate_annulus,
                             cell)

    summary = {"exact_residual": exact.strong_form_residual(), "rates": {}}
    for method in config.methods:
        cells = [errors[(method, n)] for n in config.meshes
                 if (method, n) in errors]
        if len(cells) < 3:
            continue
        hs = [c[0] for c in cells]
        rates = summary["rates"][method] = {}
        for i, norm in enumerate("upE", start=1):
            errs = [c[i] for c in cells]
            # a norm with a zero error (every err_p at nu = 0) has no rate
            rates[norm] = (fit_rate(hs, errs) if all(e > 0.0 for e in errs)
                           else float("nan"))
    if "bes-fem" in summary["rates"]:
        rates = summary["rates"]["bes-fem"]
        _gate(checks, data, "rate_u_min", "rate-u", rates["u"], ">=")
        _gate(checks, data, "rate_p_min", "rate-p", rates["p"], ">=")

    margins = []
    for n in config.meshes:
        bes = errors.get(("bes-fem", n))
        if bes is None:
            continue
        for other in ("mini", "ns-fem"):
            cell_errors = errors.get((other, n))
            if cell_errors is None:
                continue
            for i in (1, 2, 3):
                margins.append((cell_errors[i] - bes[i]) / cell_errors[i]
                               if cell_errors[i] != 0.0 else float("nan"))
    if margins:
        # unlike min(), np.min is NaN wherever in the list a NaN sits
        margin = float(np.min(margins))
        summary["ordering_margin"] = margin
        _gate(checks, data, "ordering", "error-ordering", margin, ">")
    return reports, summary


# ----------------------------------------------------------------------
# 3D block scenario
# ----------------------------------------------------------------------

def run_block3d(config, data, checks):
    """Loaded-block study: monitored tip displacement and locking ratio.

    The loaded patch is one grid cell (``generate_block``), so only mesh 5
    carries the 10x10 patch of ``tip-reference``: each mesh has its load.
    """
    mat = MaterialParams(config.young, config.poisson)
    tractions = {"traction": ("pressure", config.load)}
    reports, tips = _sweep(
        config.meshes, config.methods,
        lambda n: generate_block(n, pattern=config.pattern),
        _tip_cell(config, mat, tractions, BLOCK_MONITOR, 2))

    summary = {
        "tips": {m: _series(tips, m, config.meshes) for m in config.methods},
    }
    finest = config.meshes[-1]
    tip_bfs = tips.get(("bfs-fem", finest))
    if tip_bfs is not None:
        entry = data["tip_reference"]
        summary["reference_tip"] = entry["value"]
        deviation = abs(abs(tip_bfs) / entry["value"] - 1.0)
        _add_check(checks, "tip-reference", deviation, "<=", entry["rtol"],
                   entry["source"])
    tip_fs = tips.get(("fs-fem", finest))
    if tip_bfs is not None and tip_fs is not None:
        ratio = abs(tip_bfs) / abs(tip_fs)
        summary["locking_ratio"] = ratio
        _gate(checks, data, "locking_ratio_min", "locking-ratio", ratio, ">=")
    return reports, summary


# ----------------------------------------------------------------------
# neo-Hookean scenario
# ----------------------------------------------------------------------

def run_cook_neohookean(config, data, checks):
    """Bulk-modulus sweep of the large-deformation membrane.

    One cell per (mesh, bulk modulus); the monitored displacement is the
    vertical motion of the midpoint of the loaded edge.  Checks that every
    accepted load step converged and that, for each bulk modulus, the
    monitored value grows monotonically with mesh resolution.
    """
    def cell(disc, n, kappa, report):
        report.extra["kappa"] = kappa
        params = NeoHookeanParams(config.mu, kappa)
        problem = SmoothedHyperProblem(disc, params, bubble=config.bubble)
        f = assemble_loads(disc.mesh, disc.topo, problem.dofmap,
                           {"traction": (0.0, config.load / COOK_EDGE)})
        u, history = newton_load_stepping(problem, f, steps=config.steps)
        report.tip_uy = tip_displacement(disc.mesh, problem.dofmap, u,
                                         COOK_MIDRIGHT, comp=1)
        report.extra.update({
            "resolution": n,
            "energy": problem.energy(u) - float((f * u).sum()),
            "load_steps": len(history),
            "newton_iterations": sum(r["iterations"] for r in history),
            "floor_limited": any(r.get("floor_limited") for r in history),
        })
        return report.tip_uy

    reports, tips = _sweep(
        config.meshes, config.kappa, lambda n: _cook_mesh(n, config), cell,
        row=lambda n, kappa: ("bes-fem", f"{n}/k{kappa:g}"))

    summary = {
        "curves": {f"k{k:g}": _series(tips, k, config.meshes)
                   for k in config.kappa},
    }
    converged = len(tips) / (len(config.meshes) * len(config.kappa))
    _gate(checks, data, "all_steps_converge", "all-steps-converge",
          converged, ">=")
    if len(config.meshes) >= 2:
        increments = []
        for kappa in config.kappa:
            # a failed cell's NaN makes its curve's increments NaN
            vals = _series(tips, kappa, config.meshes)
            increments.extend(np.diff(vals) / (abs(vals[-1]) or 1.0))
        worst = float(np.min(increments))
        summary["min_increment"] = worst
        _gate(checks, data, "monotone_in_mesh", "monotone-in-mesh", worst,
              ">=")
    return reports, summary


# ----------------------------------------------------------------------
# inf-sup scenario
# ----------------------------------------------------------------------

def infsup_operators(disc, method, bubble="power"):
    """The ``infsup_measure`` arguments of one pairing on one membrane.

    'bes-fem' measures the enriched displacement space against the
    node-cell pressures; 'es-fem' restricts the Gram matrix and the
    coupling to the vertex block, pairing the unenriched space with those
    pressures.  Both slice the G and B assembled once per ``disc`` and
    bubble.  Returns (G, B, C, fixed, n_disp).
    """
    if method not in ("bes-fem", "es-fem"):
        raise ValueError(f"no inf-sup pairing for {method!r}")
    dofmap = disc.dofmap(bubble)
    G = disc.kept(("h1-gram", bubble),
                  lambda: assemble_h1_gram(disc, dofmap))
    B = disc.coupling(disc.smoothing_kind(), bubble)
    n = dofmap.n_disp if method == "bes-fem" else disc.mesh.n_nodes * disc.dim
    return (G[:n, :n], B[:, :n], disc.pressure_cells.measures.copy(),
            dirichlet_dofs(disc.mesh, dofmap), n)


def run_infsup(config, data, checks):
    """Inf-sup constants over the membrane mesh series."""
    def cell(disc, n, method, report):
        G, B, C, fixed, n_disp = infsup_operators(disc, method, config.bubble)
        beta, _ = infsup_measure(G, B, C, fixed, n_disp)
        report.extra["beta"] = beta
        report.extra["n_pressure"] = B.shape[0]
        return beta

    reports, betas = _sweep(
        config.meshes, config.methods, lambda n: _cook_mesh(n, config), cell)

    summary = {
        "betas": {m: _series(betas, m, config.meshes)
                  for m in config.methods},
    }
    bes = [b for b in summary["betas"].get("bes-fem", []) if np.isfinite(b)]
    if len(bes) >= 3:
        _gate(checks, data, "uniform_min", "uniform-lower-bound",
              min(bes) / max(bes), ">=")
    es = [b for b in summary["betas"].get("es-fem", []) if np.isfinite(b)]
    if len(es) >= 2:
        _gate(checks, data, "decay_max", "vertex-pairing-decay",
              es[-1] / es[0], "<")
    return reports, summary


# ----------------------------------------------------------------------
# operator-identity battery
# ----------------------------------------------------------------------

def property_meshes():
    """The fixed battery of small probe meshes for the identity checks."""
    return (
        ("cook-3", generate_cook(3)),
        ("cook-3-distorted", distort_mesh(generate_cook(3), 0.4, seed=7)),
        ("annulus-3x4", generate_annulus((3, 4))),
        ("block-2", generate_block(2)),
        ("block-2-distorted", distort_mesh(generate_block(2), 0.4, seed=3)),
        ("block-3-unstructured", generate_block(3, pattern="unstructured")),
    )


def coupling_operators(disc, bubble):
    """Smoothed and element-wise pressure couplings on one mesh, kept."""
    return (disc.coupling(disc.smoothing_kind(), bubble),
            disc.kept(("plain-B", bubble),
                      lambda: assemble_plain_B(disc, disc.dofmap(bubble))))


def vertex_column_defect(disc, bubble):
    """Largest relative disagreement on the vertex columns."""
    B_bar, B_plain = coupling_operators(disc, bubble)
    nv = disc.mesh.n_nodes * disc.dim
    D = np.abs((B_bar[:, :nv] - B_plain[:, :nv]).toarray())
    scale = np.abs(B_plain[:, :nv].toarray()).max()
    return float(D.max() / scale)


def bubble_ratio_stats(disc, bubble):
    """Entrywise smoothed/plain ratio statistics of the bubble columns.

    Returns a dict with the median ratio, the spread across kept entries,
    and the scaled leakage onto entries that vanish in the element-wise
    operator.
    """
    B_bar, B_plain = coupling_operators(disc, bubble)
    nv = disc.mesh.n_nodes * disc.dim
    S = B_bar[:, nv:].toarray()
    P = B_plain[:, nv:].toarray()
    scale = np.abs(P).max()
    keep = np.abs(P) > 1e-9 * scale
    ratios = S[keep] / P[keep]
    leak = np.abs(S[~keep]).max() / scale if (~keep).any() else 0.0
    return {
        "median": float(np.median(ratios)),
        "spread": float(ratios.max() - ratios.min()),
        "leak": float(leak),
    }


def bubble_ratio_defect(stats, expected):
    """Distance of measured ratio statistics from one expected constant."""
    return max(abs(stats["median"] - expected) / abs(expected),
               stats["spread"] / abs(expected), stats["leak"])


def _bubble_ratio_case(group, bubble, expected, recorded):
    """Worst defect of one bubble family's ratios from ``expected``, and the
    row extras: the measured median, the spread and any ``recorded``
    constant shown beside it."""
    stats = [bubble_ratio_stats(d, bubble) for _, d in group]
    extra = {"measured": stats[0]["median"],
             "spread": max(s["spread"] for s in stats)}
    if recorded:
        extra["recorded_constant"] = recorded["value"]
        extra["recorded_note"] = recorded.get("note", "")
    return max(bubble_ratio_defect(s, expected) for s in stats), extra


def measure_identity_defect(disc):
    """Largest relative defect of the measure partition identities.

    Checks that micro-cell measures partition the elements, that every
    smoothing-domain system and the node-cell system partition the total
    measure, that the element overlap's columns sum to the element
    measures, and that the stored overlap matrices have the domain and
    cell measures as their column and row sums.
    """
    micro = disc.micro
    cells = disc.pressure_cells
    elem = disc.mesh.element_measures()
    total = float(elem.sum())
    defects = [abs(float(micro.measures.sum()) - total) / total]

    col = np.asarray(disc.overlap("element").sum(axis=0)).ravel()
    defects.append(float((np.abs(col - elem) / elem).max()))

    kinds = (disc.smoothing_kind(), "node", "element")
    for kind in kinds:
        domains = disc.domains(kind)
        O = disc.overlap(kind)
        col = np.asarray(O.sum(axis=0)).ravel()
        row = np.asarray(O.sum(axis=1)).ravel()
        defects.append(abs(float(domains.measures.sum()) - total) / total)
        defects.append(float((np.abs(col - domains.measures)
                              / domains.measures).max()))
        defects.append(float((np.abs(row - cells.measures)
                              / cells.measures).max()))
    return max(defects)


def smoothing_oracle_defect(disc, rng):
    """Boundary-integral smoothed gradients versus volume averages.

    Evaluates random (possibly enriched) fields on a deterministic sample
    of about ``ORACLE_DOMAINS`` domains for every domain kind and bubble
    kind and returns the largest scaled disagreement.
    """
    mesh = disc.mesh
    kinds = (disc.smoothing_kind(), "node", "element")
    worst = 0.0
    for kind in kinds:
        domains = disc.domains(kind)
        for bubble in (None, "power", "hat"):
            G = disc.gradient_ops(kind, bubble)
            n_scalar = mesh.n_nodes + (mesh.n_elements if bubble else 0)
            U = rng.normal(size=(n_scalar, mesh.dim))
            step = max(1, domains.n_domains // ORACLE_DOMAINS)
            for k in range(0, domains.n_domains, step):
                H_bnd = np.column_stack([(G[c] @ U)[k]
                                         for c in range(mesh.dim)])
                H_vol = volume_average_gradient(disc, domains, k, U, bubble)
                scale = max(float(np.abs(H_vol).max()), 1e-12)
                worst = max(worst,
                            float(np.abs(H_bnd - H_vol).max()) / scale)
    return worst


def condensation_defect(disc, mat, tractions, bubble):
    """Saddle-solve versus split-condensed-solve disagreement of the
    enriched pair (the split solve is the oracle); both solve one
    assembled bundle, load and Dirichlet set."""
    method = "bes-fem" if disc.dim == 2 else "bfs-fem"
    bundle = assemble_method(disc, method, mat, bubble=bubble)
    f = assemble_loads(disc.mesh, disc.topo, bundle.dofmap, tractions)
    fixed = dirichlet_dofs(disc.mesh, bundle.dofmap)
    mixed = solve_bundle(bundle, f, fixed)
    u, p, _ = solve_condensed_split(bundle, f, fixed)
    du = np.abs(mixed.u - u).max() / np.abs(mixed.u).max()
    dp = np.abs(mixed.p - p).max() / np.abs(mixed.p).max()
    return float(max(du, dp))


def run_lemma_checks(config, data, checks):
    """Operator-identity battery on the fixed probe meshes.

    Each identity becomes one report row (method 'property') whose extra
    block carries the measured value; the paired check gates it against
    the packaged tolerance.  Bubble-scaling rows also record the shipped
    reference constant alongside the closed-form value actually measured,
    so a disagreement between the two stays visible in every report.
    """
    probes = property_meshes()
    discs = [(name, Discretization(mesh)) for name, mesh in probes]
    two_d = [(n, d) for n, d in discs if d.dim == 2]
    three_d = [(n, d) for n, d in discs if d.dim == 3]
    reports = []

    def run_case(name, key, n_elements, measure):
        """One property row and its check.  ``measure()`` gives the value
        and the row's extra fields; an entry with a ``tol`` records a
        constant, the value is the defect from it, and ``tol`` bounds it."""
        entry = data[key]
        bound = entry.get("tol", entry["value"])
        report = ErrorReport("property", name, float("nan"), n_elements)
        try:
            value, extra = measure()
            report.extra.update(value=value, **extra, status="ok")
            _add_check(checks, name, value, "<=", bound, entry["source"])
            if "tol" in entry:
                checks[name]["expected_constant"] = entry["value"]
            if not checks[name]["passed"]:
                _fail_cell(report,
                           f"check failed: {format_bound(checks[name])}")
        except Exception as exc:
            _fail_cell(report, f"{type(exc).__name__}: {exc}")
            _add_check(checks, name, float("nan"), "<=", bound,
                       entry["source"])
        reports.append(report)

    n_all = sum(d.mesh.n_elements for _, d in discs)
    n_2d = sum(d.mesh.n_elements for _, d in two_d)
    n_3d = sum(d.mesh.n_elements for _, d in three_d)

    run_case("vertex-columns", "vertex_columns", n_all, lambda: (
        max(vertex_column_defect(d, b)
            for _, d in discs for b in (None, "power", "hat")), {}))

    ratio_cases = [
        ("bubble-ratio-2d-power", two_d, "power",
         "bubble_ratio_2d_power_closed_form", n_2d),
        ("bubble-ratio-2d-hat", two_d, "hat", "bubble_ratio_2d_hat", n_2d),
        ("bubble-ratio-3d-power", three_d, "power",
         "bubble_ratio_3d_power_closed_form", n_3d),
        ("bubble-ratio-3d-hat", three_d, "hat", "bubble_ratio_3d_hat", n_3d),
    ]
    recorded = data["bubble_ratio_2d_power"]
    for name, group, bubble, key, n_elem in ratio_cases:
        shown = recorded if name == "bubble-ratio-2d-power" else {}
        run_case(name, key, n_elem, lambda: _bubble_ratio_case(
            group, bubble, data[key]["value"], shown))

    run_case("bubble-ratio-3d-spread", "bubble_ratio_3d_spread", n_3d,
             lambda: (max(bubble_ratio_stats(d, "power")["spread"]
                          for _, d in three_d), {}))

    run_case("measure-identities", "measure_identities", n_all, lambda: (
        max(measure_identity_defect(d) for _, d in discs), {}))

    run_case("smoothing-oracle", "smoothing_oracle", n_all, lambda: (
        max(smoothing_oracle_defect(d, np.random.default_rng(2024))
            for _, d in discs), {}))

    disc2 = dict(two_d)["cook-3-distorted"]
    run_case("condensation-2d", "condensation", disc2.mesh.n_elements,
             lambda: (condensation_defect(
                 disc2, MaterialParams(250.0, 0.4999),
                 {"traction": (0.0, 6.25)}, "power"), {}))
    disc3 = dict(three_d)["block-2"]
    run_case("condensation-3d", "condensation", disc3.mesh.n_elements,
             lambda: (condensation_defect(
                 disc3, MaterialParams(180000.0, 0.4999999),
                 {"traction": ("pressure", 250.0)}, "power"), {}))

    return reports, {"meshes": [name for name, _ in probes]}


# ----------------------------------------------------------------------
# the scenario table and dispatch
# ----------------------------------------------------------------------

_Scenario = namedtuple("_Scenario", "run methods settings")

_MEMBRANE_METHODS = ("fem-t3", "es-fem", "ns-fem", "mini", "bes-fem")
_BLOCK_METHODS = ("bfs-fem", "fs-fem", "fem-t3", "ns-fem", "mini")
_COOK = dict(methods=_MEMBRANE_METHODS, meshes=(2, 4, 8, 16, 32),
             young=250.0, poisson=0.4999, load=100.0, bubble="power",
             distort=0.0)

# per scenario: its runner, the methods it can run, and the settings it
# reads with their defaults
_SCENARIO_TABLE = {
    "cook": _Scenario(run_cook, _MEMBRANE_METHODS, _COOK),
    "cook-distorted": _Scenario(run_cook, _MEMBRANE_METHODS,
                                {**_COOK, "distort": 0.4}),
    "pipe": _Scenario(run_pipe, _MEMBRANE_METHODS, dict(
        methods=("bes-fem", "mini", "ns-fem"), meshes=(4, 8, 16, 32),
        young=21000.0, poisson=0.4999999, load=8.0, bubble="power")),
    "block3d": _Scenario(run_block3d, _BLOCK_METHODS, dict(
        methods=_BLOCK_METHODS, meshes=(5,), young=180000.0,
        poisson=0.4999999, load=250.0, bubble="power",
        pattern="unstructured")),
    "cook-neohookean": _Scenario(run_cook_neohookean, ("bes-fem",), dict(
        methods=("bes-fem",), meshes=(2, 4, 8), load=1.0, bubble="power",
        kappa=(1.95, 10.0, 100.0, 1000.0, 10000.0), mu=0.6, steps=10,
        distort=0.0)),
    "infsup": _Scenario(run_infsup, ("bes-fem", "es-fem"), dict(
        methods=("bes-fem", "es-fem"), meshes=(2, 4, 8, 16, 32),
        bubble="power", distort=0.0)),
    "lemma-checks": _Scenario(run_lemma_checks, (), {}),
}
SCENARIOS = tuple(_SCENARIO_TABLE)


def run_scenario(config):
    """Execute one configured scenario.

    Returns
    -------
    reports : list of ErrorReport
        One row per (method, mesh) cell, in deterministic order.
    summary : dict
        Scenario echo, derived quantities, named ``checks``, and the
        ``failures`` list: failed rows, then failed profile cells.
    """
    checks = {}
    data = acceptance_data().get(config.scenario, {})
    reports, derived = _SCENARIO_TABLE[config.scenario].run(config, data,
                                                            checks)
    failures = [f"{r.method}/{r.mesh_id}" for r in reports
                if r.extra["status"] == "failed"]
    failures += [f"{m}/{derived['profile']['mesh']}"
                 for m in derived.get("profile_errors", ())]
    # a runner's own "meshes" (the lemma probe names) replaces the series
    summary = {"scenario": config.scenario, "config": asdict(config),
               "meshes": [str(n) for n in config.meshes], **derived,
               "checks": checks, "failures": failures}
    return reports, summary

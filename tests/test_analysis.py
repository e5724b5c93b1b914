"""Tests for exact solutions, error norms, profiles, and rate fitting."""

import weakref

import numpy as np
import pytest

import smoothfem.assembly as assembly
from smoothfem.analysis import (CSV_COLUMNS, ErrorReport, ExactPipeSolution,
                                characteristic_h, displacement_values,
                                error_displacement, error_energy,
                                error_pressure, fit_rate, locate_points,
                                monotone_envelope_tv, pressure_profile,
                                reports_from_json, reports_to_csv,
                                reports_to_json, richardson_limit,
                                tip_displacement, total_variation)
from smoothfem.assembly import (Discretization, MaterialParams,
                               assemble_h1_gram, assemble_method,
                               assemble_plain_B, full_elastic_matrix)
from smoothfem.basis import bubble_value
from smoothfem.benchmarks import make_config
from smoothfem.dualmesh import domain_diameters
from smoothfem.mesh import (distort_mesh, generate_annulus, generate_block,
                            generate_cook)


@pytest.fixture(scope="module")
def pipe():
    config = make_config("pipe")
    return ExactPipeSolution(p=config.load, E=config.young, nu=config.poisson)


@pytest.fixture(scope="module")
def disc_cook():
    return Discretization(generate_cook(4))


@pytest.fixture(scope="module")
def disc_annulus():
    return Discretization(generate_annulus(4))


class LinearField:
    """Manufactured affine displacement with the matching exact fields."""

    def __init__(self, A, c, mat, dim):
        self.A = np.asarray(A, float)
        self.c = np.asarray(c, float)
        self.mat = mat
        self.dim = dim

    def displacement(self, X):
        return X @ self.A.T + self.c

    def strain(self, X):
        d = self.dim
        sym = 0.5 * (self.A + self.A.T)
        nv = 3 if d == 2 else 6
        out = np.empty(X.shape[:-1] + (nv,))
        for c in range(d):
            out[..., c] = sym[c, c]
        pairs = [(0, 1)] if d == 2 else [(0, 1), (1, 2), (2, 0)]
        for v, (r, c) in enumerate(pairs, start=d):
            out[..., v] = 2.0 * sym[r, c]
        return out

    def divergence(self, X):
        return np.full(X.shape[:-1], np.trace(self.A))

    def pressure(self, X):
        return np.full(X.shape[:-1], self.mat.lam * np.trace(self.A))


def interpolate_linear(disc, field, bubble):
    """Nodal interpolant of an affine field; bubble dofs stay zero."""
    dofmap = disc.dofmap(bubble)
    vals = np.zeros((dofmap.n_scalar, disc.dim))
    vals[:disc.mesh.n_nodes] = field.displacement(disc.mesh.nodes)
    return dofmap, vals.ravel()


def test_pipe_frozen_values(pipe):
    assert pipe.radial_stress(pipe.a) == pytest.approx(-8.0, rel=1e-12)
    assert pipe.radial_stress(pipe.b) == pytest.approx(0.0, abs=1e-12)
    assert pipe.hoop_stress(pipe.a) == pytest.approx(40.0 / 3.0, rel=1e-12)
    assert pipe.radial_displacement(1.0) == pytest.approx(7.619048e-4, rel=1e-6)
    pressure = pipe.pressure(np.array([[1.5, 0.0]]))[0]
    assert pressure == pytest.approx(2.6666661, rel=1e-7)
    assert pressure == pytest.approx(
        2.0 * pipe.nu * pipe.a ** 2 * pipe.p / (pipe.b ** 2 - pipe.a ** 2),
        rel=1e-14)


def test_pipe_strong_form(pipe):
    assert pipe.strong_form_residual() < 1e-6


def test_pipe_cartesian_consistency(pipe):
    rng = np.random.default_rng(7)
    r = rng.uniform(pipe.a, pipe.b, 40)
    th = rng.uniform(0.0, 0.5 * np.pi, 40)
    X = np.column_stack([r * np.cos(th), r * np.sin(th)])

    u = pipe.displacement(X)
    np.testing.assert_allclose(np.linalg.norm(u, axis=1),
                               pipe.radial_displacement(r), rtol=1e-12)

    # the plane-strain stress 2 mu eps + p I from the strain and the
    # closed-form pressure, rotated back to polar components
    eps, p = pipe.strain(X), pipe.pressure(X)
    mu = pipe.material.mu
    s = np.column_stack([2.0 * mu * eps[:, 0] + p, 2.0 * mu * eps[:, 1] + p,
                         mu * eps[:, 2]])
    c, sn = np.cos(th), np.sin(th)
    s_rr = s[:, 0] * c ** 2 + s[:, 1] * sn ** 2 + 2.0 * s[:, 2] * sn * c
    s_tt = s[:, 0] * sn ** 2 + s[:, 1] * c ** 2 - 2.0 * s[:, 2] * sn * c
    np.testing.assert_allclose(s_rr, pipe.radial_stress(r), rtol=1e-9)
    np.testing.assert_allclose(s_tt, pipe.hoop_stress(r), rtol=1e-9)

    # pressure is lambda times the divergence
    np.testing.assert_allclose(pipe.pressure(X),
                               pipe.material.lam * pipe.divergence(X),
                               rtol=1e-12)


def test_displacement_error_vanishes_on_interpolant(disc_cook):
    mat = MaterialParams(250.0, 0.3)
    fld = LinearField([[0.2, -0.4], [0.7, 0.1]], [0.3, -0.2], mat, 2)
    dofmap, u = interpolate_linear(disc_cook, fld, bubble="power")
    err = error_displacement(disc_cook, dofmap, u, fld.displacement)
    assert err < 1e-13 * np.abs(u).max()


def test_displacement_error_homogeneous(disc_cook):
    rng = np.random.default_rng(3)
    dofmap = disc_cook.dofmap("power")
    u = rng.standard_normal(dofmap.n_disp)
    zero = lambda X: np.zeros_like(X)
    base = error_displacement(disc_cook, dofmap, u, zero)
    scaled = error_displacement(disc_cook, dofmap, 2.5 * u, zero)
    assert scaled == pytest.approx(2.5 * base, rel=1e-12)
    assert base > 0.0


@pytest.mark.parametrize("make_mesh", [
    lambda: distort_mesh(generate_cook(6), 0.4, seed=3),
    lambda: generate_block(2),
])
@pytest.mark.parametrize("bubble", [None, "power", "hat"])
def test_displacement_values_match_the_einsum_form(make_mesh, bubble):
    """The values the error norms read after the solve are a matmul now;
    it may sum in another order than the einsum it replaced, but moves
    each value only by rounding."""
    disc = Discretization(make_mesh())
    dofmap = disc.dofmap(bubble)
    u = np.random.default_rng(5).standard_normal(dofmap.n_disp)
    _, _, _, lam = disc.quadrature()
    elem = disc.micro.cell_elem
    got = displacement_values(disc, dofmap, u, lam, elem)
    vals = dofmap.reshape(u)
    want = np.einsum("kqi,kid->kqd", lam, vals[disc.mesh.elements[elem]])
    if bubble:
        want = want + (bubble_value(bubble, lam)[..., None]
                       * vals[disc.mesh.n_nodes + elem][:, None, :])
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-15 * np.abs(want).max())


def test_pressure_error_constant_and_linear(disc_cook):
    n = disc_cook.mesh.n_nodes
    const = lambda X: np.full(X.shape[:-1], 3.25)
    assert error_pressure(disc_cook, np.full(n, 3.25), const) == 0.0

    lin = lambda X: 2.0 * X[..., 0] - 0.5 * X[..., 1]
    p_nodes = lin(disc_cook.mesh.nodes[None])[0]
    err = error_pressure(disc_cook, p_nodes, lin, continuous=True)
    assert err < 1e-12 * np.abs(p_nodes).max()
    # the cell-constant reading of the same nodal values cannot be exact
    assert error_pressure(disc_cook, p_nodes, lin) > 1e-3


@pytest.mark.parametrize("method", ["fem-t3", "es-fem", "ns-fem", "bes-fem",
                                    "mini"])
def test_energy_error_vanishes_on_exact_linear(disc_cook, method):
    mat = MaterialParams(250.0, 0.4999)
    fld = LinearField([[0.3, 0.2], [-0.1, 0.5]], [0.0, 0.0], mat, 2)
    dofmap, u = interpolate_linear(
        disc_cook, fld, "power" if method in ("bes-fem", "mini") else None)
    p = np.full(disc_cook.mesh.n_nodes, mat.lam * np.trace(fld.A))
    norm, total = error_energy(disc_cook,
                               assemble_method(disc_cook, method, mat), u, p,
                               fld)
    scale = mat.lam * np.abs(u).max() ** 2
    assert abs(total) < 1e-10 * scale
    assert norm == pytest.approx(np.sqrt(max(0.0, total)))


def test_energy_error_3d_variants():
    disc = Discretization(generate_block(2, size=(1.0, 1.0, 1.0)))
    mat = MaterialParams(250.0, 0.4999)
    A = np.array([[0.3, 0.2, 0.0], [-0.1, 0.5, 0.1], [0.2, 0.0, -0.4]])
    fld = LinearField(A, np.zeros(3), mat, 3)
    for method in ("fs-fem", "bfs-fem", "mini"):
        dofmap, u = interpolate_linear(
            disc, fld, None if method == "fs-fem" else "power")
        p = np.full(disc.mesh.n_nodes, mat.lam * np.trace(A))
        norm, total = error_energy(disc, assemble_method(disc, method, mat),
                                   u, p, fld)
        assert abs(total) < 1e-10 * mat.lam * np.abs(u).max() ** 2


def test_mini_energy_ignores_smoothing_domains(disc_annulus, monkeypatch):
    mat = MaterialParams(21000.0, 0.3)
    fld = LinearField([[0.1, 0.0], [0.0, 0.2]], [0.0, 0.0], mat, 2)
    dofmap, u = interpolate_linear(disc_annulus, fld, bubble="power")
    p = np.full(disc_annulus.mesh.n_nodes, mat.lam * 0.3)
    bundle = assemble_method(disc_annulus, "mini", mat)

    def forbidden(kind):
        raise AssertionError("MINI norm must not build smoothing domains")

    monkeypatch.setattr(disc_annulus, "domains", forbidden)
    norm, total = error_energy(disc_annulus, bundle, u, p, fld)
    assert np.isfinite(norm)


class ZeroField:
    """The zero exact solution: no strain, pressure or divergence."""

    def __init__(self, dim):
        self.nv = 3 if dim == 2 else 6

    def strain(self, X):
        return np.zeros(X.shape[:-1] + (self.nv,))

    def pressure(self, X):
        return np.zeros(X.shape[:-1])

    divergence = pressure


@pytest.mark.parametrize("mesh", [
    generate_annulus(3),
    distort_mesh(generate_block(2), 0.3, seed=2),
], ids=["annulus-3", "block-2-distorted"])
def test_mini_energy_of_a_discrete_field_is_its_stiffness_form(mesh):
    """Against the zero field with p = 0, MINI's signed energy total of any
    discrete displacement is u . A u: the norm and the stiffness integrate
    the same gradient table with the same element rule."""
    disc = Discretization(mesh)
    bundle = assemble_method(disc, "mini", MaterialParams(21000.0, 0.3))
    u = np.random.default_rng(7).standard_normal(bundle.dofmap.n_disp)
    norm, total = error_energy(disc, bundle, u,
                               np.zeros(mesh.n_nodes), ZeroField(disc.dim))
    assert total == pytest.approx(u @ bundle.A @ u, rel=1e-12)
    assert norm == pytest.approx(np.sqrt(total), rel=1e-15)

    # the bubble gradient integrates to zero over every element
    rule, table = disc.element_gradients()
    assert table.shape == (mesh.n_elements, len(rule.weights),
                           disc.dim + 2, disc.dim)
    mean = np.einsum("q,eqd->ed", rule.weights, table[:, :, -1])
    assert np.abs(mean).max() < 1e-12 * np.abs(table).max()


def test_microcell_quadrature_built_once(pipe, monkeypatch):
    """All error norms of one mesh share one read-only micro-cell rule."""
    calls = []
    build = assembly.simplex_quadrature

    def counting(dim, degree):
        calls.append((dim, degree))
        return build(dim, degree)

    monkeypatch.setattr(assembly, "simplex_quadrature", counting)
    disc = Discretization(generate_annulus(2))
    mat = pipe.material
    rng = np.random.default_rng(5)
    p = rng.standard_normal(disc.mesh.n_nodes)
    for method, bubble in (("bes-fem", "power"), ("ns-fem", None)):
        dofmap = disc.dofmap(bubble)
        u = rng.standard_normal(dofmap.n_disp)
        error_displacement(disc, dofmap, u, pipe.displacement)
        error_pressure(disc, p, pipe.pressure)
        error_energy(disc, assemble_method(disc, method, mat), u, p, pipe)
    assert calls == [(2, 4)]
    _, X, w, lam = disc.quadrature()
    with pytest.raises(ValueError):
        X[0, 0, 0] = 0.0

    # in 3D, MINI's operators, energy norm and power Gram share one element
    # table, and the norms and the element-wise coupling one micro-cell rule
    calls.clear()
    disc = Discretization(generate_block(2))
    mat = MaterialParams(21000.0, 0.3)
    field = LinearField(rng.standard_normal((3, 3)), np.zeros(3), mat, 3)
    p = rng.standard_normal(disc.mesh.n_nodes)
    for method in ("bfs-fem", "mini"):
        bundle = assemble_method(disc, method, mat)
        u = rng.standard_normal(bundle.dofmap.n_disp)
        error_displacement(disc, bundle.dofmap, u, field.displacement)
        error_pressure(disc, p, field.pressure)
        error_energy(disc, bundle, u, p, field)
        assemble_plain_B(disc, bundle.dofmap)
        assemble_h1_gram(disc, bundle.dofmap)
    assert sorted(calls) == [(3, 4), (3, 6)]
    with pytest.raises(ValueError):
        disc.element_gradients()[1][0, 0, 0, 0] = 0.0


def test_at_quadrature_evaluates_a_field_once_per_discretization(pipe):
    """On cook-3 the first request is the field at the micro-cell points
    bit for bit, a repeat returns the kept array without a call, another
    discretization evaluates afresh, and the value dies with its
    discretization."""
    calls = []

    def field(X):
        calls.append(X)
        return pipe.strain(X)

    disc = Discretization(generate_cook(3))
    X = disc.quadrature()[1]
    value = disc.at_quadrature(field)
    assert len(calls) == 1 and calls[0] is X
    assert value.tobytes() == pipe.strain(X).tobytes()
    assert disc.at_quadrature(field) is value and len(calls) == 1
    # a bound method is a new object on each access but the same key
    assert disc.at_quadrature(pipe.strain) is disc.at_quadrature(pipe.strain)

    other = Discretization(generate_cook(3))
    assert other.at_quadrature(field) is not value and len(calls) == 2
    freed = weakref.ref(value)
    del value, disc
    assert freed() is None


def test_energy_cross_term_is_signed(disc_cook):
    """The reported total keeps the sign of the pressure cross-term."""
    mat = MaterialParams(250.0, 0.4999)
    fld = LinearField([[0.0, 0.0], [0.0, 0.0]], [0.0, 0.0], mat, 2)
    dofmap = disc_cook.dofmap("power")
    u = np.zeros(dofmap.n_disp)
    # constant discrete pressure offset, zero displacement: the defect is
    # (0 - p_h) * (0 - 0) = 0 within domains, so total equals zero
    p = np.full(disc_cook.mesh.n_nodes, 4.0)
    norm, total = error_energy(disc_cook,
                               assemble_method(disc_cook, "bes-fem", mat), u,
                               p, fld)
    assert total == pytest.approx(0.0, abs=1e-14)
    assert norm == 0.0


def test_locate_points_finds_containing_elements(disc_cook):
    rng = np.random.default_rng(11)
    mesh = disc_cook.mesh
    lam = rng.dirichlet(np.ones(3), size=30)
    elems = rng.integers(0, mesh.n_elements, 30)
    X = np.einsum("si,sid->sd", lam, mesh.nodes[mesh.elements[elems]])
    every = np.arange(mesh.n_elements)
    found, bary = locate_points(disc_cook, X, every)
    rebuilt = np.einsum("si,sid->sd", bary, mesh.nodes[mesh.elements[found]])
    np.testing.assert_allclose(rebuilt, X, atol=1e-10)
    outside = np.array([[100.0, 100.0]])
    with pytest.raises(ValueError, match="outside"):
        locate_points(disc_cook, outside, every)


def test_pressure_profile_constant_and_monotone(disc_cook):
    n = disc_cook.mesh.n_nodes
    ts, vals = pressure_profile(disc_cook, np.full(n, 2.0), 24.0)
    assert total_variation(vals) == 0.0

    p = disc_cook.mesh.nodes[:, 1].copy()
    ts, vals = pressure_profile(disc_cook, p, 24.0)
    assert np.all(np.diff(ts) > 0.0)
    assert total_variation(vals) == pytest.approx(monotone_envelope_tv(vals))
    assert monotone_envelope_tv(vals) > 0.0


def test_pressure_profile_continuous_linear(disc_cook):
    nodes = disc_cook.mesh.nodes
    p = 3.0 * nodes[:, 0] + 2.0 * nodes[:, 1]
    ts, vals = pressure_profile(disc_cook, p, value=24.0, continuous=True)
    np.testing.assert_allclose(vals, 3.0 * 24.0 + 2.0 * ts, rtol=1e-10)


def test_fit_rate_quadratic_and_errors():
    h = np.array([0.4, 0.2, 0.1, 0.05])
    assert fit_rate(h, 3.7 * h ** 2) == pytest.approx(2.0, abs=1e-12)
    assert fit_rate(h, 0.2 * h ** 1.93) == pytest.approx(1.93, abs=1e-10)
    with pytest.raises(ValueError, match="3 points"):
        fit_rate([0.1, 0.05], [1.0, 0.25])
    with pytest.raises(ValueError, match="positive"):
        fit_rate(h, [1.0, -1.0, 0.1, 0.01])


def test_richardson_limit_geometric_series():
    limit = 13.7
    vals = [limit - 2.0 / 4.0 ** k for k in range(4)]
    assert richardson_limit(vals) == pytest.approx(limit, rel=1e-12)
    assert richardson_limit([1.0, 1.0, 1.0]) == 1.0
    # growing differences of one sign do not contract: no extrapolation
    assert richardson_limit([1.0, 2.0, 4.0]) == 4.0
    with pytest.raises(ValueError, match="3 values"):
        richardson_limit([1.0, 2.0])


def test_characteristic_h_decreases(disc_annulus):
    fine = Discretization(generate_annulus(8))
    assert characteristic_h(fine) < characteristic_h(disc_annulus)


@pytest.mark.parametrize("make_mesh", [
    lambda: distort_mesh(generate_cook(6), 0.4, seed=3),
    lambda: generate_block(2),
])
def test_characteristic_h_builds_no_node_domains(make_mesh, monkeypatch):
    """h reads the node cells' micro-cell keys, so only the smoothing
    domains are built, and it equals the largest radius of both systems."""
    disc = Discretization(make_mesh())
    built, build = [], assembly.build_smoothing_domains

    def counting(micro, kind):
        built.append(kind)
        return build(micro, kind)

    monkeypatch.setattr(assembly, "build_smoothing_domains", counting)
    h = characteristic_h(disc)
    assert built == [disc.smoothing_kind()]
    radii = [domain_diameters(disc.micro, disc.domains(kind).dom_of_cell)
             for kind in (disc.smoothing_kind(), "node")]
    assert h == max(float(r.max()) for r in radii)


def test_tip_displacement_reads_nearest_node(disc_cook):
    mesh = disc_cook.mesh
    dofmap = disc_cook.dofmap()
    u = np.arange(dofmap.n_disp, dtype=float)
    node = int(np.argmin(((mesh.nodes - [48.0, 60.0]) ** 2).sum(1)))
    tip = tip_displacement(mesh, dofmap, u, (48.0, 60.0), 1)
    assert tip == u[2 * node + 1]


def test_report_serialization_round_trip():
    reports = [
        ErrorReport("bes-fem", "pipe-8", 0.25, 256, 1e-4, 2e-3, 5e-2, 0.7),
        ErrorReport("mini", "pipe-8", 0.25, 256, 2e-4, 4e-3, 6e-2, 0.69,
                    extra={"raw_energy": -1.2e-5}),
    ]
    text = reports_to_json(reports, summary={"rate_u": 1.95})
    back, summary = reports_from_json(text)
    assert summary == {"rate_u": 1.95}
    assert [r.to_dict() for r in back] == [r.to_dict() for r in reports]

    csv_text = reports_to_csv(reports)
    lines = csv_text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    assert reports_to_csv(reports) == csv_text
    stamped = reports_to_csv(reports, timestamp="2026-01-01T00:00:00")
    assert stamped.split("\n", 1)[1] == csv_text


def test_pressure_profile_rejects_a_3d_mesh_and_a_missed_line(disc_cook):
    disc = Discretization(generate_block(2))
    with pytest.raises(ValueError, match="defined for 2D meshes"):
        pressure_profile(disc, np.zeros(disc.mesh.n_nodes), 25.0)
    with pytest.raises(ValueError, match="no elements intersect x = 100"):
        pressure_profile(disc_cook, np.zeros(disc_cook.mesh.n_nodes), 100.0)

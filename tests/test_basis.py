"""Tests for quadrature rules and simplex shape functions."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothfem.basis import bubble_gradient, bubble_value
from smoothfem.mesh import PrimalMesh, simplex_measures
from smoothfem.quadrature import (
    barycentric_monomial_integral,
    simplex_quadrature,
)

RNG = np.random.default_rng(20240811)


def random_barycentric(rng, dim, n):
    """Uniform-ish interior barycentric points."""
    lam = rng.dirichlet(np.ones(dim + 1), size=n)
    return lam


def one_element(verts):
    """A one-element mesh on ``verts``, positively reordered."""
    verts = np.array(verts, float)
    if simplex_measures(verts, np.arange(len(verts))[None, :])[0] < 0:
        verts[[0, 1]] = verts[[1, 0]]
    mesh = PrimalMesh(verts, np.arange(len(verts))[None, :])
    return mesh.nodes, mesh


def bary(mesh, pts):
    """(1, P, d+1) barycentric coordinates of points (P, d) in element 0."""
    return mesh.barycentric(np.zeros(1, np.int64), pts[None])


def all_exponents(dim, total):
    if dim == 0:
        yield (total,)
        return
    for a in range(total + 1):
        for rest in all_exponents(dim - 1, total - a):
            yield (a,) + rest


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6, 7])
def test_simplex_quadrature_exactness(dim, degree):
    """Every rule integrates all monomials up to its degree exactly."""
    rule = simplex_quadrature(dim, degree)
    assert rule.weights.sum() == pytest.approx(1.0, rel=1e-14)
    assert np.all(rule.points >= -1e-14)
    np.testing.assert_allclose(rule.points.sum(axis=1), 1.0, rtol=1e-13)
    for total in range(rule.degree + 1):
        for expo in all_exponents(dim, total):
            approx = np.sum(
                rule.weights * np.prod(rule.points ** np.asarray(expo), axis=1)
            )
            exact = barycentric_monomial_integral(dim, expo)
            assert approx == pytest.approx(exact, rel=1e-12, abs=1e-15), expo


# sha256 of points.tobytes() and weights.tobytes() of every rule the
# package requests: facets (d - 1, d + 1), micro-cells (d, 4) and the
# enriched elements (d, 2d)
REQUESTED_RULE_DIGESTS = {
    (1, 3): ("47ebe49e6878d536102a1d85c5cf2520838c20d6a17eabec4fc08c00b3d24bc5",
             "606e5166986dd9f186277d16e3d18bae3887a944a829487b59fd8672bbb20251"),
    (2, 3): ("9ef47effb6a5fd4fb122b26f2b03a36b8d770e9afedb376739a14a1d23cc0e0e",
             "a37b751d4da1568c1a96adde2b13fbc328b77fb39b716331a96d8e2b7ec31041"),
    (2, 4): ("9ef47effb6a5fd4fb122b26f2b03a36b8d770e9afedb376739a14a1d23cc0e0e",
             "a37b751d4da1568c1a96adde2b13fbc328b77fb39b716331a96d8e2b7ec31041"),
    (3, 4): ("55ac61ccb90d2a4d5bf418c15408fb0162a075af66c196081c4b2eeebb31cdb8",
             "919436d9b7349f7c45c706022902076ca9f0562f2695396c883cf3f994b73330"),
    (3, 6): ("b939792e3ab57f42c870ab54514feff8af6b6c46d46e1a09bd2444e4d233f594",
             "d80c0529bc3455d4133e7ac6efaeb6dcfc528ec9be79d47aa396689405522a29"),
}


@pytest.mark.parametrize("dim,degree", sorted(REQUESTED_RULE_DIGESTS))
def test_requested_rules_keep_their_bits(dim, degree):
    """The requested rules are bit-for-bit the ones every scenario output
    was recorded with.

    The collapsed rules come from ``numpy``'s ``leggauss`` and ``scipy``'s
    ``roots_jacobi``, so these digests hold for the builds they were
    recorded with (NumPy 2.4, SciPy 1.17, x86-64); another build may round
    a node differently and need them recorded again.
    """
    rule = simplex_quadrature(dim, degree)
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest()
                    for a in (rule.points, rule.weights))
    assert digests == REQUESTED_RULE_DIGESTS[dim, degree]


def test_monomial_integral_basics():
    # area-normalized integrals on the triangle: classical values
    assert barycentric_monomial_integral(2, (1, 0, 0)) == pytest.approx(1 / 3)
    assert barycentric_monomial_integral(2, (1, 1, 0)) == pytest.approx(1 / 12)
    assert barycentric_monomial_integral(2, (2, 0, 0)) == pytest.approx(1 / 6)
    assert barycentric_monomial_integral(2, (1, 1, 1)) == pytest.approx(1 / 60)
    assert barycentric_monomial_integral(3, (1, 1, 1, 1)) == pytest.approx(
        6 / 5040
    )


@pytest.mark.parametrize("dim", [2, 3])
def test_affine_maps_reference(dim):
    """A PrimalMesh on the reference simplex has its hat gradients and
    measure."""
    verts = np.vstack([np.zeros(dim), np.eye(dim)])
    mesh = PrimalMesh(verts, np.arange(dim + 1)[None, :])
    assert mesh.element_measures()[0] == pytest.approx({2: 0.5, 3: 1 / 6}[dim])
    np.testing.assert_allclose(mesh.grads[0, 0], -np.ones(dim))
    np.testing.assert_allclose(mesh.grads[0, 1:], np.eye(dim), atol=1e-15)


@pytest.mark.parametrize("dim", [2, 3])
def test_barycentric_roundtrip(dim):
    verts, mesh = one_element(RNG.normal(size=(dim + 1, dim)))
    lam = random_barycentric(RNG, dim, 40)
    pts = lam @ verts
    np.testing.assert_allclose(bary(mesh, pts)[0], lam, atol=1e-12)
    np.testing.assert_allclose(mesh.grads[0].sum(axis=0), 0.0, atol=1e-12)


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 3]))
@settings(max_examples=30, deadline=None)
def test_partition_of_unity(seed, dim):
    rng = np.random.default_rng(seed)
    lam = random_barycentric(rng, dim, 20)
    np.testing.assert_allclose(lam.sum(axis=1), 1.0, atol=1e-12)


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 3]),
       st.sampled_from(["power", "hat"]))
@settings(max_examples=40, deadline=None)
def test_bubble_range_and_boundary(seed, dim, kind):
    """Bubbles live in [0, 1], vanish on facets, and peak at the centroid."""
    rng = np.random.default_rng(seed)
    lam = random_barycentric(rng, dim, 30)
    vals = bubble_value(kind, lam)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0 + 1e-12)
    centroid = np.full(dim + 1, 1.0 / (dim + 1))
    assert bubble_value(kind, centroid) == pytest.approx(1.0, abs=1e-14)
    on_facet = lam.copy()
    on_facet[:, 0] = 0.0
    on_facet /= on_facet.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(bubble_value(kind, on_facet), 0.0, atol=1e-14)


@pytest.mark.parametrize("dim", [2, 3])
def test_power_bubble_volume_mean(dim):
    """Quadrature of the power bubble matches the closed form."""
    rule = simplex_quadrature(dim, dim + 1)
    val = np.sum(rule.weights * bubble_value("power", rule.points))
    expected = 9 / 20 if dim == 2 else 32 / 105
    assert val == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("dim", [2, 3])
def test_hat_bubble_volume_mean(dim):
    """Cone-wise quadrature of the hat bubble matches 1/(d+1).

    The hat bubble is linear on each cone spanned by a facet and the
    centroid, so integrating cone by cone is exact.
    """
    centroid = np.full(dim + 1, 1.0 / (dim + 1))
    rule = simplex_quadrature(dim, 2)
    total = 0.0
    for i in range(dim + 1):
        corners = []
        for j in range(dim + 1):
            if j == i:
                continue
            e = np.zeros(dim + 1)
            e[j] = 1.0
            corners.append(e)
        corners.append(centroid)
        corners = np.asarray(corners)           # (d+1, d+1) barycentric corners
        sub_pts = rule.points @ corners         # rule points inside the cone
        # cone volume fraction is 1/(d+1)
        total += np.sum(rule.weights * bubble_value("hat", sub_pts)) / (dim + 1)
    assert total == pytest.approx(1.0 / (dim + 1), rel=1e-13)


def fd_bubble_gradient(kind, mesh, pts, h):
    """Central differences of the bubble at points (P, d); (P, d)."""
    out = np.empty_like(pts)
    for c in range(pts.shape[1]):
        step = np.zeros(pts.shape[1])
        step[c] = h
        out[:, c] = (bubble_value(kind, bary(mesh, pts + step)[0])
                     - bubble_value(kind, bary(mesh, pts - step)[0])) / (2 * h)
    return out


@pytest.mark.parametrize("dim", [2, 3])
def test_power_bubble_gradient_fd(dim):
    verts, mesh = one_element(RNG.normal(size=(dim + 1, dim)) * 2.0)
    pts = random_barycentric(RNG, dim, 15) @ verts
    g = bubble_gradient("power", bary(mesh, pts), mesh.grads[:1])[0]
    fd = fd_bubble_gradient("power", mesh, pts, 1e-6)
    assert g == pytest.approx(fd, rel=5e-6, abs=5e-6)


@pytest.mark.parametrize("dim", [2, 3])
def test_hat_bubble_gradient_fd(dim):
    """FD check at points safely inside one cone of the hat bubble."""
    verts, mesh = one_element(np.vstack([np.zeros(dim), np.eye(dim)]) * 1.7)
    # the minimum coordinate must be unique and stay unique under perturbation
    rng = np.random.default_rng(7)
    lam = rng.dirichlet(np.ones(dim + 1), size=40)
    lam = lam[np.min(np.abs(np.diff(np.sort(lam, axis=1), axis=1)), axis=1) > 1e-3]
    pts = (lam @ verts)[:10]
    g = bubble_gradient("hat", bary(mesh, pts), mesh.grads[:1])[0]
    fd = fd_bubble_gradient("hat", mesh, pts, 1e-7)
    assert g == pytest.approx(fd, rel=1e-4, abs=1e-4)


def test_bubble_gradient_rejects_unknown_kind():
    lam = np.full((1, 1, 3), 1.0 / 3.0)
    with pytest.raises(ValueError, match="bubble kind"):
        bubble_gradient("cubic", lam, np.zeros((1, 3, 2)))


@pytest.mark.parametrize("call, message", [
    (lambda: simplex_quadrature(2, -1), "degree must be nonnegative"),
    (lambda: simplex_quadrature(4, 2), "unsupported dimension 4"),
    (lambda: barycentric_monomial_integral(2, (1, 1)),
     "need d\\+1 nonnegative exponents"),
    (lambda: barycentric_monomial_integral(2, (1, -1, 0)),
     "need d\\+1 nonnegative exponents"),
])
def test_quadrature_rejects_bad_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()

"""Tests for boundary-integral smoothed gradients against volume averages."""

import numpy as np
import pytest

from smoothfem.assembly import Discretization, strain_rows
from smoothfem.dualmesh import build_micro_decomposition, build_smoothing_domains
from smoothfem.mesh import (
    build_topology,
    distort_mesh,
    generate_annulus,
    generate_block,
    generate_cook,
)
from smoothfem.smoothing import build_smoothed_gradient, volume_average_gradient

RNG = np.random.default_rng(71)


def setup(mesh):
    topo = build_topology(mesh)
    micro = build_micro_decomposition(mesh, topo)
    return topo, micro


def smoothed_H(G_list, U, k):
    """Assemble the (d, d) average gradient of domain k from the operators."""
    d = len(G_list)
    return np.column_stack([(G_list[c] @ U)[k] for c in range(d)])


CASES_2D = [
    ("cook", lambda: distort_mesh(generate_cook(3), 0.3, seed=4)),
    ("annulus", lambda: generate_annulus((3, 4))),
]
CASES_3D = [
    ("block", lambda: distort_mesh(generate_block(2, size=(1.0, 1.3, 0.9)),
                                   0.25, seed=9)),
]


# the domain kinds each mesh's dimension has: edges in 2D, faces in 3D
KIND_CASES = [(kind, name, make)
              for kinds, cases in ((("edge", "node", "element"), CASES_2D),
                                   (("face", "node", "element"), CASES_3D))
              for kind in kinds for name, make in cases]


@pytest.mark.parametrize("kind,name,make", KIND_CASES)
@pytest.mark.parametrize("bubble", [None, "power", "hat"])
def test_boundary_integral_matches_volume_average(kind, name, make, bubble):
    """Smoothed gradients equal direct volume averages for random fields."""
    mesh = make()
    disc = Discretization(mesh)
    domains = build_smoothing_domains(disc.micro, kind)
    G = build_smoothed_gradient(mesh, disc.micro, domains, bubble=bubble)
    n_scalar = mesh.n_nodes + (mesh.n_elements if bubble else 0)
    U = RNG.normal(size=(n_scalar, mesh.dim))
    step = max(1, domains.n_domains // 17)
    for k in range(0, domains.n_domains, step):
        H_bnd = smoothed_H(G, U, k)
        H_vol = volume_average_gradient(disc, domains, k, U, bubble=bubble)
        np.testing.assert_allclose(H_bnd, H_vol, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("name,make", CASES_2D + CASES_3D)
@pytest.mark.parametrize("bubble", [None, "power", "hat"])
def test_linear_field_reproduction(name, make, bubble):
    """For u = A x + b with zero bubbles, every domain average is exactly A."""
    mesh = make()
    topo, micro = setup(mesh)
    kind = "edge" if mesh.dim == 2 else "face"
    domains = build_smoothing_domains(micro, kind)
    G = build_smoothed_gradient(mesh, micro, domains, bubble=bubble)
    A = RNG.normal(size=(mesh.dim, mesh.dim))
    b = RNG.normal(size=mesh.dim)
    n_scalar = mesh.n_nodes + (mesh.n_elements if bubble else 0)
    U = np.zeros((n_scalar, mesh.dim))
    U[:mesh.n_nodes] = mesh.nodes @ A.T + b
    for k in range(domains.n_domains):
        H = smoothed_H(G, U, k)
        np.testing.assert_allclose(H, A, rtol=1e-11, atol=1e-12)


def test_element_domains_reproduce_hat_gradients():
    """Element-kind smoothing recovers the plain constant P1 gradients."""
    mesh = distort_mesh(generate_cook(3), 0.2, seed=5)
    topo, micro = setup(mesh)
    domains = build_smoothing_domains(micro, "element")
    G = build_smoothed_gradient(mesh, micro, domains)
    for t in range(mesh.n_elements):
        for c in range(2):
            row = np.asarray(G[c].getrow(t).todense()).ravel()
            expected = np.zeros(mesh.n_nodes)
            np.add.at(expected, mesh.elements[t], mesh.grads[t, :, c])
            np.testing.assert_allclose(row, expected, rtol=1e-11, atol=1e-13)


def test_constant_field_has_zero_gradient():
    mesh = generate_annulus((3, 4))
    topo, micro = setup(mesh)
    domains = build_smoothing_domains(micro, "node")
    G = build_smoothed_gradient(mesh, micro, domains, bubble="power")
    U = np.tile([2.5, -1.25], (mesh.n_nodes + mesh.n_elements, 1))
    U[mesh.n_nodes:] = 0.0
    for c in range(2):
        vals = G[c] @ U
        np.testing.assert_allclose(vals, 0.0, atol=1e-12)


def voigt_strain(G_list, U, k):
    """Smoothed Voigt strain of domain k through the strain_rows operators."""
    u = U.ravel()                       # interleaved (scalar, component) dofs
    return np.array([(R @ u)[k] for R in strain_rows(G_list)])


def test_strain_block_matches_operators():
    mesh = distort_mesh(generate_cook(3), 0.25, seed=8)
    topo, micro = setup(mesh)
    domains = build_smoothing_domains(micro, "edge")
    G = build_smoothed_gradient(mesh, micro, domains, bubble="power")
    n_scalar = mesh.n_nodes + mesh.n_elements
    U = RNG.normal(size=(n_scalar, 2))
    for k in (0, domains.n_domains // 2, domains.n_domains - 1):
        strain = voigt_strain(G, U, k)
        H = smoothed_H(G, U, k)
        np.testing.assert_allclose(strain[0], H[0, 0], rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(strain[1], H[1, 1], rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(strain[2], H[0, 1] + H[1, 0],
                                   rtol=1e-12, atol=1e-14)


def test_strain_block_3d_shear_rows():
    mesh = generate_block(2, size=(1.0, 1.0, 1.0))
    topo, micro = setup(mesh)
    domains = build_smoothing_domains(micro, "face")
    G = build_smoothed_gradient(mesh, micro, domains, bubble="hat")
    n_scalar = mesh.n_nodes + mesh.n_elements
    U = RNG.normal(size=(n_scalar, 3))
    k = domains.n_domains // 2
    strain = voigt_strain(G, U, k)
    H = smoothed_H(G, U, k)
    np.testing.assert_allclose(strain[:3], np.diag(H), rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(strain[3], H[0, 1] + H[1, 0], rtol=1e-12,
                               atol=1e-14)
    np.testing.assert_allclose(strain[4], H[1, 2] + H[2, 1], rtol=1e-12,
                               atol=1e-14)
    np.testing.assert_allclose(strain[5], H[0, 2] + H[2, 0], rtol=1e-12,
                               atol=1e-14)

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from capvertex.analytic import (
    PlanarSolution,
    SphericalCap,
    cylinder_cap,
    edge_vertices,
    spherical_cmc_residual,
    SphericalGraphField,
    support_cap,
    trihedral_cap,
    wedge_cap,
    wedge_vertex_tangents,
    wente_halfcylinder,
)
from capvertex.errors import ConsistencyError, DomainError, NoSolutionError
from capvertex.geometry import QTag, TrihedralConfig, WedgeConfig, classify_data


# -- wedge caps ------------------------------------------------------------


def test_wedge_cap_orthogonal_data_center_on_edge():
    # cos gamma = 0 puts the center on both walls, hence on the edge line
    w = WedgeConfig.canonical(np.pi / 4, np.pi / 2, np.pi / 2)
    cap = wedge_cap(w, 1.0)
    assert cap.radius == pytest.approx(1.0)
    assert np.linalg.norm(np.asarray(cap.center)[:2]) < 1e-12
    pts = edge_vertices(cap, w.edge_point, w.edge_dir)
    arcs = sorted(np.dot(p - w.edge_point, w.edge_dir) for p in pts)
    assert arcs == pytest.approx([-1.0, 1.0], abs=1e-12)


def test_wedge_cap_contact_distances():
    w = WedgeConfig.canonical(np.pi / 4, 2 * np.pi / 3, 2 * np.pi / 3)
    cap = wedge_cap(w, 2.0)
    assert cap.radius == pytest.approx(0.5)
    for p in w.planes:
        d = p.signed_distance(np.asarray(cap.center))
        assert abs(d) == pytest.approx(cap.radius * abs(np.cos(p.gamma)), abs=1e-12)


def test_wedge_cap_tangency_on_boundary_data():
    alpha = np.pi / 4
    g = (np.pi + 2 * alpha) / 2  # sum band tight
    w = WedgeConfig.canonical(alpha, g, g)
    cap = wedge_cap(w, 1.0)
    pts = edge_vertices(cap, w.edge_point, w.edge_dir)
    assert len(pts) == 1


def test_wedge_cap_rejects_inadmissible_data():
    w = WedgeConfig.canonical(np.pi / 6, np.pi - 0.01, np.pi - 0.01)
    with pytest.raises(NoSolutionError):
        wedge_cap(w, 1.0)


def test_wedge_vertex_tangents_reproduce_closed_form():
    w = WedgeConfig.canonical(np.pi / 4, 2 * np.pi / 3, 2 * np.pi / 3)
    cap = wedge_cap(w, 1.0)
    for v in edge_vertices(cap, w.edge_point, w.edge_dir):
        t1, t2 = wedge_vertex_tangents(cap, w, v)
        measured = np.arccos(np.clip(np.dot(t1, t2), -1, 1))
        assert measured == pytest.approx(np.arccos(1.0 / 3.0), abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    alpha=st.floats(0.1, np.pi / 2 - 0.1),
    g1=st.floats(0.05, np.pi - 0.05),
    g2=st.floats(0.05, np.pi - 0.05),
    h=st.floats(0.2, 3.0),
)
def test_wedge_cap_exists_iff_admissible(alpha, g1, g2, h):
    tag = classify_data(alpha, g1, g2).tag
    w = WedgeConfig.canonical(alpha, g1, g2)
    if tag in (QTag.INTERIOR_Q, QTag.BOUNDARY_Q_D1):
        cap = wedge_cap(w, h)
        assert cap.radius == pytest.approx(1.0 / h)
    else:
        with pytest.raises(NoSolutionError):
            wedge_cap(w, h)


# -- trihedral caps --------------------------------------------------------


def test_trihedral_cap_octant_orthogonal_data():
    tri = TrihedralConfig.orthant((np.pi / 2,) * 3)
    cap = trihedral_cap(tri, 1.0)
    assert np.allclose(cap.center, 0.0, atol=1e-12)
    assert cap.radius == pytest.approx(1.0)
    assert not cap.degenerate


def test_trihedral_cap_degenerate_flag_threshold():
    g_star = float(np.arccos(np.sqrt(3.0) / 3.0))
    cap = trihedral_cap(TrihedralConfig.orthant((g_star,) * 3), 1.0)
    assert cap.degenerate
    for off in (-0.01, 0.01):
        cap = trihedral_cap(TrihedralConfig.orthant((g_star + off,) * 3), 1.0)
        assert not cap.degenerate


def test_trihedral_planar_solution_at_zero_curvature():
    g_star = float(np.arccos(np.sqrt(3.0) / 3.0))
    sol = trihedral_cap(TrihedralConfig.orthant((g_star,) * 3), 0.0)
    assert isinstance(sol, PlanarSolution)
    assert np.allclose(np.abs(sol.normal), 1.0 / np.sqrt(3.0), atol=1e-12)


def test_trihedral_zero_curvature_needs_matching_angles():
    with pytest.raises((NoSolutionError, DomainError)):
        trihedral_cap(TrihedralConfig.orthant((np.pi / 2,) * 3), 0.0)


# -- cylinder caps ---------------------------------------------------------


def test_cylinder_cap_radius_is_data_determined():
    cfg = TrihedralConfig.regular_cylinder(1.0, (1.9,) * 3)
    cap = cylinder_cap(cfg)
    assert cap.radius == pytest.approx(-1.0 / np.cos(1.9))
    for p in cfg.planes:
        cosm = abs(p.signed_distance(np.asarray(cap.center))) / cap.radius
        assert cosm == pytest.approx(abs(np.cos(1.9)), abs=1e-12)


def test_cylinder_cap_consistent_h_accepted_inconsistent_rejected():
    cfg = TrihedralConfig.regular_cylinder(1.0, (1.9,) * 3)
    r = -1.0 / np.cos(1.9)
    cylinder_cap(cfg, 1.0 / r)
    with pytest.raises((NoSolutionError, DomainError)):
        cylinder_cap(cfg, 2.0 / r)


def test_cylinder_cap_orthogonal_data_returns_planar_slice():
    cfg = TrihedralConfig.regular_cylinder(1.0, (np.pi / 2,) * 3)
    sol = cylinder_cap(cfg)
    assert isinstance(sol, PlanarSolution)
    assert abs(np.dot(sol.normal, cfg.generator)) == pytest.approx(1.0)


# -- support caps ----------------------------------------------------------


@pytest.mark.parametrize("config, make, default, h", [
    (WedgeConfig.canonical(np.pi / 4, 2 * np.pi / 3, 2 * np.pi / 3), wedge_cap, 1.0, 0.5),
    (TrihedralConfig.orthant((1.5, 1.6, 1.7)), trihedral_cap, 1.0, 2.0),
    # the walls fix the cylinder's curvature, and h = -cos(1.9) is theirs
    (TrihedralConfig.regular_cylinder(1.0, (1.9,) * 3), cylinder_cap, None, -np.cos(1.9)),
], ids=["wedge", "orthant", "cylinder"])
def test_support_cap_is_its_kinds_constructor_bit_for_bit(config, make, default, h):
    for given, want in ((None, make(config, default)), (h, make(config, h))):
        got = support_cap(config, given)
        assert np.array_equal(got.center, want.center)
        assert (got.radius, got.h_signed, got.degenerate) == \
            (want.radius, want.h_signed, want.degenerate)


# -- half-cylinder ---------------------------------------------------------


def test_halfcylinder_invariants_and_residual():
    sol = wente_halfcylinder(2.0, 1.0)
    assert sol.radius == pytest.approx(0.5)
    assert sol.h == pytest.approx(1.0)
    ys = np.linspace(0.05 * sol.b, 0.95 * sol.b, 301)
    assert np.abs(sol.residual(ys)).max() < 1e-10


def test_halfcylinder_height_profile():
    sol = wente_halfcylinder(1.0, 2.0)
    assert sol.height(1.0) == pytest.approx(-1.0)   # lowest point at mid-width
    assert abs(sol.height(0.0)) < 1e-12             # rim at the walls
    assert sol.h == pytest.approx(0.5)


@pytest.mark.parametrize("a, b", [(-1.0, 1.0), (np.nan, 1.0), (1.0, np.inf)])
def test_halfcylinder_rejects_bad_dimensions(a, b):
    with pytest.raises(DomainError, match="positive and finite"):
        wente_halfcylinder(a, b)


# -- residual checkers -----------------------------------------------------


def test_spherical_residual_constant_radius():
    theta = np.linspace(0.0, 2 * np.pi, 37, endpoint=False)
    phi = np.linspace(0.3, np.pi - 0.3, 33)
    R = 2.0
    u = np.full((37, 33), R)
    f = SphericalGraphField(theta, phi, u, h=-1.0 / R)
    assert np.abs(spherical_cmc_residual(f)).max() < 1e-12
    f0 = SphericalGraphField(theta, phi, u, h=0.0)
    res = spherical_cmc_residual(f0)
    trim = (len(phi) - res.shape[1]) // 2
    expected = -2.0 * np.sin(phi[trim:-trim])[None, :]
    assert np.abs(res - expected).max() < 1e-12


def test_spherical_field_validation():
    theta = np.linspace(0, 2 * np.pi, 8, endpoint=False)
    phi = np.linspace(0.3, np.pi - 0.3, 5)
    with pytest.raises(DomainError):
        SphericalGraphField(theta, phi, -np.ones((8, 5)), h=1.0)


# -- cap invariants --------------------------------------------------------


def test_cap_invariant_violation_detected():
    tri = TrihedralConfig.orthant((np.pi / 2,) * 3)
    with pytest.raises(ConsistencyError):
        SphericalCap(center=(0.5, 0.0, 0.0), radius=1.0, h_signed=1.0,
                     config_ref=tri)

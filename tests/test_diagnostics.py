import json

import numpy as np
import pytest

from capvertex import meshes
from capvertex.diagnostics import (
    PlaneFit,
    SphereFit,
    diagnostics_report,
    fit_plane,
    fit_sphere,
    mean_curvature_field,
    measure_contact_angles,
    measure_vertex_angles,
    principal_curvatures,
    sphere_curvature_field,
    umbilicity_rms,
)
from capvertex.diagnostics import _fit_spheres, _neighbourhood_stacks
from capvertex.errors import DomainError
from capvertex.geometry import TrihedralConfig, WedgeConfig, vertex_angle
from capvertex.analytic import wente_halfcylinder
from capvertex.meshes import (
    FREE,
    ON_PLANE,
    TriMeshDrop,
    perturb,
    seed_mesh,
    seed_planar_trihedral,
    structured_surface,
    vertex_normals,
)


def _fibonacci_sphere(n, center, radius):
    k = np.arange(n)
    phi = np.arccos(1.0 - 2.0 * (k + 0.5) / n)
    theta = np.pi * (1.0 + np.sqrt(5.0)) * k
    pts = np.column_stack([np.sin(phi) * np.cos(theta),
                           np.sin(phi) * np.sin(theta),
                           np.cos(phi)])
    return center + radius * pts


@pytest.fixture(scope="module")
def wedge_mesh():
    cfg = WedgeConfig.canonical(np.pi / 4, 2 * np.pi / 3, 2 * np.pi / 3)
    return seed_mesh(cfg, h=1.0, refinement_level=3)


def test_fit_sphere_recovers_exact_cloud():
    pts = _fibonacci_sphere(200, np.array([1.0, -2.0, 0.5]), 3.0)
    fit = fit_sphere(pts)
    assert isinstance(fit, SphereFit)
    assert fit.radius == pytest.approx(3.0, abs=1e-12)
    assert np.allclose(fit.center, [1.0, -2.0, 0.5], atol=1e-12)
    assert fit.rms < 1e-12


def test_fit_sphere_noisy_cloud_rms_tracks_noise():
    rng = np.random.default_rng(3)
    pts = _fibonacci_sphere(500, np.zeros(3), 2.0)
    pts += 1e-3 * rng.standard_normal(pts.shape)
    fit = fit_sphere(pts)
    assert fit.radius == pytest.approx(2.0, abs=5e-4)
    assert fit.rms < 2e-3
    assert fit.relative_rms == pytest.approx(fit.rms / fit.radius)


def test_fit_sphere_planar_cloud_falls_back_to_plane():
    rng = np.random.default_rng(5)
    xy = rng.uniform(-1, 1, size=(100, 2))
    pts = np.column_stack([xy, np.full(100, 0.7)])
    fit = fit_sphere(pts)
    assert isinstance(fit, PlaneFit)
    assert abs(abs(fit.normal[2]) - 1.0) < 1e-9
    assert fit.rms < 1e-12


def test_fit_sphere_rejects_tiny_clouds():
    with pytest.raises(DomainError):
        fit_sphere(np.zeros((3, 3)))


def test_fit_sphere_reaches_the_least_squares_sphere():
    # noisy 60-degree cap: the algebraic seed is biased and Gauss-Newton
    # needs several steps to make the distance residuals stationary
    rng = np.random.default_rng(3)
    u = rng.normal(size=(300, 3))
    u = u[u[:, 2] > 0.5 * np.linalg.norm(u, axis=1)]
    pts = 2.0 * u / np.linalg.norm(u, axis=1)[:, None] + 0.02 * rng.standard_normal(u.shape)

    def stationarity(fit):
        d = pts - np.array(fit.center)
        dist = np.linalg.norm(d, axis=1)
        J = np.column_stack([-d / dist[:, None], -np.ones(len(pts))])
        return np.abs(J.T @ (dist - fit.radius)).max()

    assert stationarity(fit_sphere(pts)) < 1e-12
    assert stationarity(fit_sphere(pts, max_newton=3)) > 1e-11


def test_fit_plane_recovers_tilted_plane():
    rng = np.random.default_rng(11)
    n = np.array([1.0, 2.0, 2.0]) / 3.0
    u, v = np.linalg.svd(n[None, :])[2][1:]
    coords = rng.uniform(-1, 1, size=(80, 2))
    pts = 0.25 * n + coords @ np.vstack([u, v])
    fit = fit_plane(pts)
    assert abs(abs(np.dot(fit.normal, n)) - 1.0) < 1e-12
    assert fit.rms < 1e-12


def test_cotan_mean_curvature_on_seeded_sphere(wedge_mesh):
    h = mean_curvature_field(wedge_mesh)
    interior = h[~np.isnan(h)]
    assert interior.size > 100
    # outward-bulging unit-radius cap: positive curvature near one
    assert np.median(interior) == pytest.approx(1.0, rel=5e-2)


def test_sphere_fit_curvature_on_seeded_sphere(wedge_mesh):
    h = sphere_curvature_field(wedge_mesh)
    interior = h[~np.isnan(h)]
    assert np.abs(interior - 1.0).max() < 1e-6


def test_principal_curvatures_sign_and_magnitude(wedge_mesh):
    k = principal_curvatures(wedge_mesh)
    interior = ~np.isnan(k[:, 0])
    assert np.allclose(k[interior], 1.0, atol=0.15)


def test_umbilicity_separates_sphere_from_cylinder():
    cfg = WedgeConfig.canonical(np.pi / 4, 2 * np.pi / 3, 2 * np.pi / 3)
    sphere = seed_mesh(cfg, h=1.0, refinement_level=3)
    sol = wente_halfcylinder(2.0, 1.0)
    ys = np.linspace(0.05, 0.95, 41)
    xs = np.linspace(0.0, 2.0, 41)
    grid = np.empty((41, 41, 3))
    grid[..., 0] = xs[:, None]
    grid[..., 1] = ys[None, :]
    grid[..., 2] = sol.height(ys)[None, :]
    cyl = structured_surface(grid)
    u_sphere = umbilicity_rms(sphere)
    u_cyl = umbilicity_rms(cyl)
    assert u_sphere < 0.05
    assert u_cyl > 10 * u_sphere


def test_contact_angles_exact_on_analytic_seed(wedge_mesh):
    angles = measure_contact_angles(wedge_mesh)
    assert set(angles) == {0, 1}
    for j, arr in angles.items():
        gamma = wedge_mesh.support.planes[j].gamma
        assert np.abs(arr - gamma).max() < 1e-9


def test_vertex_angles_exact_on_analytic_seed(wedge_mesh):
    measured = measure_vertex_angles(wedge_mesh)
    expected = vertex_angle(np.pi / 4, 2 * np.pi / 3, 2 * np.pi / 3).two_beta
    assert len(measured) == 2
    for val in measured.values():
        assert val == pytest.approx(expected, abs=1e-9)


def test_report_serialization_round_trip(tmp_path, wedge_mesh):
    rep = diagnostics_report(wedge_mesh)
    assert rep.sphere_radius == pytest.approx(1.0, abs=1e-9)
    assert rep.sphere_relative_rms < 1e-9
    assert rep.mean_curvature_cv < 1e-6

    json_path = tmp_path / "report.json"
    parsed = json.loads(rep.to_json(json_path))
    assert parsed["sphere_radius"] == rep.sphere_radius
    assert json_path.read_text() == rep.to_json()

    csv_path = tmp_path / "report.csv"
    rep.to_csv(csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "key,value"
    keys = {line.split(",", 1)[0] for line in lines[1:]}
    assert "umbilicity" in keys and "sphere_radius" in keys


# -- stacked local fits ------------------------------------------------------


def _rows(mesh, depth):
    indptr, indices = mesh.neighbourhood(depth)
    return [indices[a:b] for a, b in zip(indptr[:-1], indptr[1:])]


def test_neighbourhoods_match_ring_expansion(wedge_mesh):
    xs = np.linspace(0, 1, 12)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    grid = structured_surface(np.stack([X, Y, X * Y], axis=-1))
    for mesh in (wedge_mesh, grid):
        nbrs = [set() for _ in range(mesh.n_vertices)]
        for a, b, c in mesh.triangles.tolist():
            nbrs[a].update((b, c))
            nbrs[b].update((a, c))
            nbrs[c].update((a, b))
        for depth in (1, 2, 3):
            expected = []
            for i in range(mesh.n_vertices):
                ring = {i}
                for _ in range(depth):
                    ring = ring.union(*(nbrs[j] for j in ring))
                expected.append(ring)
            rows = _rows(mesh, depth)
            assert [set(r.tolist()) for r in rows] == expected
            assert all(np.all(np.diff(r) > 0) for r in rows)


def _quadric_reference(mesh):
    """Per-vertex quadric fits with ``np.linalg.lstsq`` over the two-ring."""
    normals = vertex_normals(mesh)
    out = np.full((mesh.n_vertices, 2), np.nan)
    for i, idx in enumerate(_rows(mesh, 2)):
        if mesh.tag_kind[i] != FREE:
            continue
        n = normals[i]
        e1 = np.cross(n, [1.0, 0.0, 0.0])
        if np.linalg.norm(e1) < 1e-6:
            e1 = np.cross(n, [0.0, 1.0, 0.0])
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(n, e1)
        rel = mesh.vertices[idx[idx != i]] - mesh.vertices[i]
        x, y, z = rel @ e1, rel @ e2, rel @ n
        A = np.column_stack([0.5 * x * x, x * y, 0.5 * y * y, x, y])
        (L, M, N, p, q), _, rank, _ = np.linalg.lstsq(A, z, rcond=None)
        if rank < 5:
            continue
        w = np.sqrt(1 + p * p + q * q)
        first = np.array([[1 + p * p, p * q], [p * q, 1 + q * q]])
        k = np.linalg.eigvals(np.linalg.solve(first, np.array([[L, M], [M, N]]) / w))
        out[i] = np.sort(-k.real)
    return out


def test_stacked_fits_match_per_vertex_fits():
    cfg = WedgeConfig.canonical(np.pi / 3, 1.2, 2.0)
    mesh = perturb(seed_mesh(cfg, h=1.0, refinement_level=2), 0.01, seed=7)
    normals = vertex_normals(mesh)
    curvature = np.full(mesh.n_vertices, np.nan)
    for i, idx in enumerate(_rows(mesh, 3)):
        if mesh.tag_kind[i] == FREE:
            fit = fit_sphere(mesh.vertices[idx])
            outward = np.dot(mesh.vertices[i] - np.array(fit.center), normals[i])
            curvature[i] = (1.0 if outward > 0 else -1.0) / fit.radius
    angles = {}
    for i, idx in enumerate(_rows(mesh, 2)):
        if mesh.tag_kind[i] == ON_PLANE:
            fit = fit_sphere(mesh.vertices[idx])
            nu = mesh.vertices[i] - np.array(fit.center)
            nu *= np.sign(np.dot(nu, normals[i])) / np.linalg.norm(nu)
            wall = mesh.support.planes[mesh.tag_id[i]]
            angles.setdefault(int(mesh.tag_id[i]), []).append(np.arccos(np.dot(nu, wall.normal)))

    h = sphere_curvature_field(mesh)
    assert np.array_equal(np.isnan(h), mesh.tag_kind != FREE)
    assert np.allclose(h, curvature, rtol=1e-12, atol=0, equal_nan=True)
    k, k_ref = principal_curvatures(mesh), _quadric_reference(mesh)
    assert np.array_equal(np.isnan(k), np.isnan(k_ref))
    assert np.allclose(k, k_ref, rtol=1e-12, atol=1e-12, equal_nan=True)
    measured = measure_contact_angles(mesh)
    assert list(measured) == list(angles)
    for j, a in measured.items():
        assert np.allclose(a, angles[j], rtol=1e-12, atol=0)


def test_planar_mode_fits_fall_back_to_planes():
    flat = float(np.arccos(np.sqrt(3.0) / 3.0))
    mesh = seed_planar_trihedral(TrihedralConfig.orthant((flat,) * 3), refinement_level=2)
    free = np.nonzero(mesh.tag_kind == FREE)[0]
    for depth in (2, 3):
        for _, pts, mask in _neighbourhood_stacks(mesh, depth, free):
            assert _fit_spheres(pts, mask)[3].all()
    h = sphere_curvature_field(mesh)
    assert np.array_equal(h[free], np.zeros(len(free)))
    # the plane normal is the mode's normal, so every angle is the flat angle
    for a in measure_contact_angles(mesh).values():
        assert np.abs(a - flat).max() < 1e-12


def test_report_builds_each_neighbourhood_depth_once(monkeypatch, wedge_mesh):
    depths = []
    build = meshes._build_neighbourhood

    def counting(neighbours, depth):
        depths.append(depth)
        return build(neighbours, depth)

    monkeypatch.setattr(meshes, "_build_neighbourhood", counting)
    mesh = wedge_mesh.copy()
    mesh.triangles = mesh.triangles        # a fresh topology, nothing cached
    diagnostics_report(mesh)
    mesh.vertices += 1e-3                  # vertex moves keep the topology
    diagnostics_report(mesh)
    diagnostics_report(mesh.copy())
    assert sorted(depths) == [2, 3]


def _star(z_outer=0.0, tilt=0.0):
    """A free centre whose two-ring lies on two perpendicular lines through it.

    The lines are turned 30 degrees from the fit frame's axes, so the
    vanishing combination of the x^2, x y and y^2 columns leaves a singular
    value at rounding level rather than an exact zero.
    """
    pts = np.array([(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1), (2, 0), (tilt, 2), (-2, 0),
                    (0, -2)], dtype=float)
    c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
    pts = pts @ np.array([[c, s], [-s, c]])
    v = np.array([(x, y, z_outer * (x * x + y * y) / 4) for x, y in pts])
    t = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1), (1, 5, 2), (2, 6, 3), (3, 7, 4), (4, 8, 1)]
    kind = np.full(len(v), ON_PLANE, dtype=np.int8)
    kind[0] = FREE
    return TriMeshDrop(v, t, kind, np.zeros(len(v), dtype=np.int64), support=None)


def test_rank_deficient_quadric_fit_gives_nan():
    # eight neighbours on a degenerate conic through the centre: rank 4 of 5
    k = principal_curvatures(_star(z_outer=-0.1))
    assert np.isnan(k).all()
    # one neighbour off the axes restores full rank
    k = principal_curvatures(_star(z_outer=-0.1, tilt=0.3))
    assert np.isfinite(k[0]).all()
    assert np.isnan(k[1:]).all()

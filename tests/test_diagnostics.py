import json

import numpy as np
import pytest

from capvertex import diagnostics, meshes
from capvertex.diagnostics import (
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
from capvertex.diagnostics import (_SAFETY, _fit_spheres, _lstsq, _neighbourhood_stacks,
                                   _rank, _ratio_bounds)
from capvertex.errors import DomainError
from capvertex.evolver import evolve
from capvertex.geometry import TrihedralConfig, WedgeConfig, vertex_angle
from capvertex.analytic import wente_halfcylinder
from capvertex.meshes import (
    FREE,
    ON_PLANE,
    TriMeshDrop,
    perturb,
    seed_mesh,
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


def test_fit_sphere_of_a_planar_cloud_is_its_plane():
    rng = np.random.default_rng(5)
    xy = rng.uniform(-1, 1, size=(100, 2))
    pts = np.column_stack([xy, np.full(100, 0.7)])
    fit = fit_sphere(pts)
    # the plane is the sphere of curvature 0, with unit normal B
    assert abs(fit.curvature) < 1e-12
    assert abs(abs(fit.coef[3]) - 1.0) < 1e-12
    assert fit.rms < 1e-12
    assert fit.relative_rms < 1e-12


def test_fit_sphere_rejects_tiny_clouds():
    with pytest.raises(DomainError):
        fit_sphere(np.zeros((3, 3)))


def test_fit_sphere_reaches_the_least_squares_sphere(monkeypatch):
    # noisy 60-degree cap: the algebraic (Pratt) seed is biased and
    # Gauss-Newton needs several steps to make the distance residuals
    # stationary; measured: 2.2e-2 at the seed, 1.0e-9 after two steps, 3.7e-15
    # at the end
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
    monkeypatch.setattr(diagnostics, "_MAX_NEWTON", 2)
    origin, coef, rms = _fit_spheres(pts[None], np.ones((1, len(pts)), dtype=bool))
    assert stationarity(SphereFit(tuple(origin[0]), tuple(coef[0]), float(rms[0]))) > 1e-11


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


def test_report_serialization_round_trip(wedge_mesh):
    rep = diagnostics_report(wedge_mesh)
    assert rep.sphere_radius == pytest.approx(1.0, abs=1e-9)
    assert rep.sphere_relative_rms < 1e-9
    assert rep.mean_curvature_cv < 1e-6

    parsed = json.loads(rep.to_json())
    assert parsed["sphere_radius"] == rep.sphere_radius
    assert "umbilicity" in parsed and "sphere_radius" in parsed


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


def _sphere_fit_reference(pts, max_newton=10):
    """``fit_sphere``'s rules on one cloud, each step solved by ``np.linalg.lstsq``.

    Returns the centre and radius, or None where the fit falls back to a plane.
    """
    centroid = pts.sum(axis=0) / len(pts)
    rel = pts - centroid
    A = np.column_stack([2.0 * rel, np.ones(len(pts))])
    sol, _, _, sv = np.linalg.lstsq(A, np.einsum("ij,ij->i", rel, rel), rcond=None)
    c = sol[:3]
    r2 = sol[3] + c @ c
    if sv[-1] < 1e-9 * max(sv[0], 1e-30) or r2 <= 0:
        return None
    r = np.sqrt(r2)
    if r > 1e6 * np.linalg.norm(rel, axis=1).max():
        return None
    for _ in range(max_newton):
        d = pts - (centroid + c)
        dist = np.linalg.norm(d, axis=1)
        J = np.column_stack([-d / dist[:, None], -np.ones(len(pts))])
        delta = np.linalg.lstsq(J, r - dist, rcond=None)[0]
        c, r = c + delta[:3], r + delta[3]
        if np.linalg.norm(delta) < 1e-14 * max(r, 1.0):
            break
    return centroid + c, r


def _fit_field_references(mesh, max_newton=10):
    """Per-vertex sphere curvatures (depth 3) and contact angles (depth 2), and
    the rms and radius of each vertex's fit (depth 3 at free vertices, 2 on the
    walls)."""
    normals = vertex_normals(mesh)
    curvature, rms, radius = (np.full(mesh.n_vertices, np.nan) for _ in range(3))

    def fit(i, pts):
        c, radius[i] = _sphere_fit_reference(pts, max_newton)
        rms[i] = np.sqrt(np.mean((np.linalg.norm(pts - c, axis=1) - radius[i]) ** 2))
        return c, radius[i]

    for i, idx in enumerate(_rows(mesh, 3)):
        if mesh.tag_kind[i] == FREE:
            c, r = fit(i, mesh.vertices[idx])
            curvature[i] = (1.0 if np.dot(mesh.vertices[i] - c, normals[i]) > 0 else -1.0) / r
    angles = {}
    for i, idx in enumerate(_rows(mesh, 2)):
        if mesh.tag_kind[i] == ON_PLANE:
            c = fit(i, mesh.vertices[idx])[0]
            nu = (mesh.vertices[i] - c) / np.linalg.norm(mesh.vertices[i] - c)
            nu *= -1.0 if np.dot(nu, normals[i]) < 0 else 1.0
            wall = mesh.support.planes[mesh.tag_id[i]]
            angles.setdefault(int(mesh.tag_id[i]), []).append(
                np.arccos(np.clip(np.dot(nu, wall.normal), -1.0, 1.0)))
    return curvature, angles, rms, radius


def _fit_rms(mesh):
    """The rms of the stacked fits behind the sphere field and the contact angles."""
    rms = np.full(mesh.n_vertices, np.nan)
    for depth, kind in ((3, FREE), (2, ON_PLANE)):
        for block, pts, mask in _neighbourhood_stacks(mesh, depth,
                                                      np.nonzero(mesh.tag_kind == kind)[0]):
            rms[block] = _fit_spheres(pts, mask)[2]
    return rms


_PERTURBED_DROPS = {
    "wedge": lambda: seed_mesh(WedgeConfig.canonical(np.pi / 3, 1.2, 2.0), h=1.0,
                               refinement_level=2),
    "orthant": lambda: seed_mesh(TrihedralConfig.orthant((np.pi / 2,) * 3), h=1.0,
                                 refinement_level=2),
    "cylinder": lambda: seed_mesh(TrihedralConfig.regular_cylinder(1.0, (1.9,) * 3), h=None,
                                  refinement_level=2),
}


# How far the sphere field may sit from the lstsq reference run to
# convergence (50 steps), per element and relative. Measured: 9.2e-14
# (orthant), 7.7e-8 (wedge) and 1.5e-8 (cylinder). Some depth-3
# neighbourhoods of the perturbed wedge and cylinder are flat and noisy, and
# Gauss-Newton converges slowly there, so ten steps leave those digits; the
# reference's own ten steps sit up to 0.60 (wedge) and 1.5 (cylinder) from its
# converged fits.
_SPHERE_FIELD_TOL = {"orthant": 1e-12, "wedge": 2e-7, "cylinder": 5e-8}

# The same for the contact angles, whose two-ring fits of 11-12 noisy points
# are worse conditioned. Measured: 1.6e-12 (orthant), 2.0e-4 (wedge) and
# 1.5e-10 (cylinder), leaving out the two-rings where the converged reference
# walks to a nearly flat fit (radius 3.6e8 on the orthant, 3.4e7 on the wedge,
# 1.1e9 and 5.1e9 on the cylinder, where the fits here have radii 262, 0.46,
# 15 and 17 at a smaller rms, and angles 2.0e-4, 5.7e-2, 4.5e-3 and 4.3e-3
# from the reference's).
_CONTACT_ANGLE_TOL = {"orthant": 1e-11, "wedge": 3e-4, "cylinder": 1e-9}
_NEARLY_FLAT_REFERENCES = {"orthant": 1, "wedge": 1, "cylinder": 2}


def _single_cloud_fields(mesh):
    """The sphere field and the contact angles with each neighbourhood fitted
    by ``fit_sphere`` alone."""
    normals = vertex_normals(mesh)
    curvature, angles = np.full(mesh.n_vertices, np.nan), {}
    for depth, kind in ((3, FREE), (2, ON_PLANE)):
        for i, idx in enumerate(_rows(mesh, depth)):
            if mesh.tag_kind[i] != kind:
                continue
            fit = fit_sphere(mesh.vertices[idx])
            grad = 2.0 * fit.coef[0] * (mesh.vertices[i] - fit.origin) + fit.coef[1:4]
            outward = 1.0 if np.dot(grad, normals[i]) > 0 else -1.0
            if kind == FREE:
                curvature[i] = outward * fit.curvature
            else:
                wall = mesh.support.planes[mesh.tag_id[i]]
                cos = outward * np.dot(grad, wall.normal) / np.linalg.norm(grad)
                angles.setdefault(int(mesh.tag_id[i]), []).append(
                    np.arccos(np.clip(cos, -1.0, 1.0)))
    return curvature, angles


@pytest.mark.parametrize("drop", sorted(_PERTURBED_DROPS))
def test_stacked_fits_match_per_vertex_lstsq_fits(drop):
    mesh = perturb(_PERTURBED_DROPS[drop](), 0.01, seed=7)
    h = sphere_curvature_field(mesh)
    assert np.array_equal(np.isnan(h), mesh.tag_kind != FREE)
    measured = measure_contact_angles(mesh)
    # stacking and padding change nothing beyond rounding against the same
    # fitter run on one cloud at a time
    curvature, angles = _single_cloud_fields(mesh)
    assert np.allclose(h, curvature, rtol=1e-12, atol=0, equal_nan=True)
    assert list(measured) == list(angles)
    for j, a in measured.items():
        assert np.allclose(a, angles[j], rtol=1e-12, atol=0)
    curvature, angles, _, radius = _fit_field_references(mesh, max_newton=50)
    assert np.allclose(h, curvature, rtol=_SPHERE_FIELD_TOL[drop], atol=0, equal_nan=True)
    assert list(measured) == list(angles)
    walls = np.nonzero(mesh.tag_kind == ON_PLANE)[0]
    curved = radius[walls] < 1e6
    assert np.count_nonzero(~curved) == _NEARLY_FLAT_REFERENCES[drop]
    for j, a in measured.items():
        keep = curved[mesh.tag_id[walls] == j]
        assert np.allclose(a[keep], np.asarray(angles[j])[keep],
                           rtol=_CONTACT_ANGLE_TOL[drop], atol=0)
    # every fit, the nearly flat references' two-rings included, is at least
    # as close to its points as the reference's at the same budget of ten
    # steps, and as the converged reference up to the slow fits' last digits
    # (rms above it by at most 6.0e-8, measured)
    rms = _fit_rms(mesh)
    for max_newton, tol in ((10, 1e-12), (50, 1e-7)):
        ref = _fit_field_references(mesh, max_newton)[2]
        assert np.array_equal(np.isnan(rms), np.isnan(ref))
        assert np.nanmax(rms / ref) <= 1.0 + tol
    k, k_ref = principal_curvatures(mesh), _quadric_reference(mesh)
    assert np.array_equal(np.isnan(k), np.isnan(k_ref))
    assert np.allclose(k, k_ref, rtol=1e-12, atol=1e-12, equal_nan=True)


def test_qr_kernel_matches_numpy_lstsq():
    rng = np.random.default_rng(17)
    k, m, p = 12, 11, 5
    n = rng.integers(p + 1, m + 1, size=k)
    A = rng.standard_normal((k, m, p)) * 10.0 ** rng.uniform(-3, 3, size=(k, 1, 1))
    b = rng.standard_normal((k, m))
    # rank 4 by a column combination and by a zero column; a combination off
    # by 1e-13 keeps rank 5 under lstsq's cutoff, though not under 1e-9
    A[4, :, 2] = A[4, :, 0] - 2.0 * A[4, :, 1]
    A[9, :, 3] = 0.0
    A[6, :, 2] = A[6, :, 0] - 2.0 * A[6, :, 1] + 1e-13 * A[6, :, 2]
    # rank 4 with no small diagonal entry in R: a 2x2 block [[e, 1], [0, e]]
    # has singular values near 1 and e^2
    block = np.diag([1.0, 1.0, 1.0, 1e-8, 1e-8])
    block[3, 4] = 1.0
    A[2, :n[2]] = np.linalg.qr(rng.standard_normal((n[2], p)))[0] @ block
    pad = np.arange(m) >= n[:, None]
    A[pad], b[pad] = 0.0, 0.0
    x, R = _lstsq(np.concatenate([A, b[..., None]], axis=2))
    s, rank = np.linalg.svd(R, compute_uv=False), _rank(R, n)
    for i in range(k):
        ref, _, ref_rank, ref_s = np.linalg.lstsq(A[i, :n[i]], b[i, :n[i]], rcond=None)
        assert rank[i] == ref_rank == (4 if i in (2, 4, 9) else 5)
        assert np.abs(s[i] - ref_s).max() <= 1e-12 * ref_s[0]
        if ref_s[-1] > 1e-6 * ref_s[0]:
            # the deficient rows' solutions (non-finite for the zero column)
            # reach no other row
            assert np.abs(x[i] - ref).max() <= 1e-12 * np.abs(ref).max()
    assert not np.isfinite(x[9]).all()


def test_gauss_newton_steps_take_no_singular_values(monkeypatch):
    rng = np.random.default_rng(3)
    u = rng.normal(size=(3, 40, 3))
    u[..., 2] = np.abs(u[..., 2]) + 0.5 * np.linalg.norm(u, axis=2)
    pts = 2.0 * u / np.linalg.norm(u, axis=2)[..., None] + 0.02 * rng.standard_normal(u.shape)
    mask = np.ones(pts.shape[:2], dtype=bool)
    calls = {"svd": 0, "qr": 0}

    def counting(name, f):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapped

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    curvatures = []
    for max_newton in (0, 10):
        calls.update(svd=0, qr=0)
        monkeypatch.setattr(diagnostics, "_MAX_NEWTON", max_newton)
        curvatures.append(2.0 * _fit_spheres(pts, mask)[1][:, 0])
        # neither the seed nor the steps read singular values
        assert calls["svd"] == 0
    assert calls["qr"] > 2
    assert np.abs(curvatures[1] - curvatures[0]).min() > 1e-6


def _relabelled(mesh, perm):
    """The same surface with vertex ``perm[i]`` numbered ``i``."""
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    return TriMeshDrop(mesh.vertices[perm], inv[mesh.triangles], mesh.tag_kind[perm],
                       mesh.tag_id[perm], mesh.support)


def test_planar_mode_drop_fits_do_not_depend_on_vertex_order():
    # the evolved orthant-planar drop is a plane up to the relaxation's
    # residue, a sphere of curvature near 6.5e-6. Its global curvature and
    # the mean of the local ones move by rounding only when the vertices are
    # renumbered: measured 8.8e-11 and 3.8e-11 relative
    flat = float(np.arccos(np.sqrt(3.0) / 3.0))
    mesh = seed_mesh(TrihedralConfig.orthant((flat,) * 3), h=0.0, refinement_level=2)
    mesh, _ = evolve(perturb(mesh, 0.01, seed=3), max_iters=150, grad_tol=1e-6)
    scale = 1.0 / np.ptp(mesh.vertices, axis=0).max()
    rng = np.random.default_rng(0)
    reports = [diagnostics_report(m) for m in
               [mesh] + [_relabelled(mesh, rng.permutation(mesh.n_vertices)) for _ in range(3)]]
    for key in ("sphere_curvature", "mean_curvature_mean"):
        values = np.array([getattr(r, key) for r in reports])
        assert np.ptp(values) <= 1e-9 * max(abs(values[0]), scale)
    assert reports[0].sphere_curvature > 0.0


def test_planar_mode_fits_are_planes():
    flat = float(np.arccos(np.sqrt(3.0) / 3.0))
    mesh = seed_mesh(TrihedralConfig.orthant((flat,) * 3), h=0.0, refinement_level=2)
    free = np.nonzero(mesh.tag_kind == FREE)[0]
    # every local fit is the plane: curvature 0 up to rounding of the unit scale
    h = sphere_curvature_field(mesh)
    assert np.abs(h[free]).max() < 1e-12
    # the plane's normal is the mode's normal, so every angle is the flat angle
    for a in measure_contact_angles(mesh).values():
        assert np.abs(a - flat).max() < 1e-12
    assert abs(fit_sphere(mesh.vertices).curvature) < 1e-12


def test_report_measures_a_flat_drop_against_its_extent():
    flat = float(np.arccos(np.sqrt(3.0) / 3.0))
    mesh = seed_mesh(TrihedralConfig.orthant((flat,) * 3), h=0.0, refinement_level=2)
    rep = diagnostics_report(mesh)
    # the exact plane scores rounding (measured 9.5e-17)
    assert rep.sphere_relative_rms < 1e-15
    # so does its curvature field's spread, measured against 1/extent
    # (5.7e-15); against its mean of rounding (-9.0e-16) it read 3.67
    assert abs(rep.mean_curvature_mean) < 1e-14 and rep.mean_curvature_cv < 1e-13
    # with bumps of 0.01 the global fit is nearly flat (curvature times extent
    # 3.2e-3), so rms times curvature would read 1.5e-5 and pass the theorem
    # suites' 1e-3 sphere-fit gate; against the extent it reads 4.8e-3
    bumpy = perturb(mesh, 0.01, seed=7)
    fit, extent = fit_sphere(bumpy.vertices), np.linalg.norm(np.ptp(bumpy.vertices, axis=0))
    assert fit.curvature * extent < 1.0
    relative = diagnostics_report(bumpy).sphere_relative_rms
    assert relative == pytest.approx(fit.rms / extent, rel=1e-15) and relative > 1e-3


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
    # a two-ring of four vertices gives three rows for five unknowns
    v = np.array([(0, 0, 0), (1, 0, 0.1), (-0.5, 0.8, 0.1), (-0.5, -0.8, 0.1)])
    kind = np.full(4, ON_PLANE, dtype=np.int8)
    kind[0] = FREE
    fan = TriMeshDrop(v, [(0, 1, 2), (0, 2, 3), (0, 3, 1)], kind, np.zeros(4, dtype=np.int64),
                      support=None)
    assert np.isnan(principal_curvatures(fan)).all()


# -- the certified rank and plane tests against the SVD rules ----------------


_EPS = np.finfo(float).eps


def _svd_rank(R, n):
    s = np.linalg.svd(R, compute_uv=False)
    return (s > (_EPS * np.maximum(n, R.shape[2]) * s[:, 0])[:, None]).sum(axis=1)


def _factors(rng, p, ratios):
    """Triangular QR factors of random (p + 3, p) matrices, one per entry of
    ``ratios``, with singular values spaced geometrically from 1 down to it,
    scaled by a random power of ten."""
    out = []
    for ratio in ratios:
        q1 = np.linalg.qr(rng.standard_normal((p + 3, p)))[0]
        q2 = np.linalg.qr(rng.standard_normal((p, p)))[0]
        s = np.geomspace(1.0, ratio, p) * 10.0 ** rng.uniform(-3, 3)
        out.append(np.linalg.qr((q1 * s) @ q2, mode="r"))
    return np.array(out)


def _test_stack(rng, p, threshold):
    """Factors with condition numbers from 1 to 1e17, within 1e-3 relative of
    ``threshold`` and of it times and over ``_SAFETY``, with exact zero pivots,
    and scaled down by 1e-32."""
    near = threshold * (1.0 + rng.uniform(-1e-3, 1e-3, 24))
    near *= np.repeat([1.0, _SAFETY, 1.0 / _SAFETY], 8)
    R = _factors(rng, p, np.concatenate([10.0 ** -rng.uniform(0, 17, 64), near,
                                         np.ones(8)]))
    R[-8:-4, np.arange(4) % p, np.arange(4) % p] = 0.0
    R[-4:] *= 1e-32
    return R


@pytest.mark.parametrize("seed", range(4))
def test_certified_tests_decide_as_the_svd_rules(seed):
    rng = np.random.default_rng(seed)
    for rows in (2, 23):                  # fewer and more true rows than columns
        R = _test_stack(rng, 5, _EPS * max(rows, 5))
        n = np.full(len(R), rows)
        assert np.array_equal(_rank(R, n), _svd_rank(R, n))
        # an exact zero pivot leaves its row to the SVD
        assert np.isnan(_ratio_bounds(R)[-8:-4]).all()
    # padded stacks with fewer true rows than columns: zero pivots in R
    A = rng.standard_normal((16, 8, 6))
    n = rng.integers(1, 9, 16)
    A[np.arange(8) >= n[:, None]] = 0.0
    R = _lstsq(A)[1]
    assert np.array_equal(_rank(R, n), _svd_rank(R, n))
    assert np.array_equal(_rank(R, n), np.minimum(n, 5))
    # a NaN row leaves its bound undecided, so the SVD rejects it as the rule does
    R[3, 1, 2] = np.nan
    assert np.isnan(_ratio_bounds(R)[3])
    with pytest.raises(np.linalg.LinAlgError):
        _rank(R, n)
    with pytest.raises(np.linalg.LinAlgError):
        _svd_rank(R, n)


def test_singular_values_only_for_undecided_rows(monkeypatch):
    rows = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        if not kwargs.get("compute_uv", True):
            rows.append(len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    rng = np.random.default_rng(11)
    n = np.full(96, 20)
    R = _test_stack(rng, 5, _EPS * 20)
    _rank(R, n)
    undecided = ~(_ratio_bounds(R) >= _SAFETY * _EPS * 20)
    assert rows == [np.count_nonzero(undecided)] and 0 < rows[0] < len(R)
    # the closed-form drops need no singular values at all
    rows.clear()
    for config, h in ((WedgeConfig.canonical(np.pi / 3, 1.2, 2.0), 1.0),
                      (TrihedralConfig.orthant((np.pi / 2,) * 3), 1.0),
                      (TrihedralConfig.regular_cylinder(1.0, (1.9,) * 3), None)):
        diagnostics_report(seed_mesh(config, h=h, refinement_level=2))
    n = 33
    ys = np.linspace(0.05, 0.95, n)
    grid = np.empty((n, n, 3))
    grid[..., 0], grid[..., 1] = np.linspace(0.0, 2.0, n)[:, None], ys[None, :]
    grid[..., 2] = wente_halfcylinder(2.0, 1.0).height(ys)[None, :]
    umbilicity_rms(structured_surface(grid))
    assert sum(rows) == 0

import numpy as np
import pytest

from capvertex import diagnostics, evolver, meshes
from capvertex.errors import NonConvergenceError
from capvertex.geometry import TrihedralConfig, WedgeConfig
from capvertex.meshes import (
    FREE,
    ON_EDGE,
    ON_PLANE,
    TriMeshDrop,
    perturb,
    seed_mesh,
    vertex_normals,
)
from capvertex.evolver import (
    EnergyBreakdown,
    energy,
    energy_gradient,
    evolve,
    project_tangent,
    surface_area,
    surface_area_gradient,
    vertex_dual_areas,
    volume,
    volume_gradient,
    wetted_areas,
)


@pytest.fixture(scope="module")
def octant():
    return seed_mesh(TrihedralConfig.orthant((np.pi / 2,) * 3), h=1.0,
                     refinement_level=3)


def test_octant_functionals_match_closed_forms(octant):
    # one eighth of the unit sphere: |S| = pi/2, each wetted quarter pi/4,
    # enclosed volume pi/6
    eb = energy(octant)
    assert eb.free_surface_area == pytest.approx(np.pi / 2, rel=2e-3)
    for s in eb.wetted_areas:
        assert s == pytest.approx(np.pi / 4, rel=2e-3)
    assert eb.volume == pytest.approx(np.pi / 6, rel=2e-3)
    # right-angle data: no wetting credit, energy equals the free area
    assert eb.total == pytest.approx(eb.free_surface_area, abs=1e-12)


def test_wetted_areas_positive(octant):
    for s in wetted_areas(octant).values():
        assert s > 0.0


def _fd_check(mesh, fun, grad, n_probe=6, eps=1e-6, seed=0):
    rng = np.random.default_rng(seed)
    g = grad(mesh)
    worst = 0.0
    for i in rng.choice(mesh.n_vertices, n_probe, replace=False):
        for k in range(3):
            mp, mm = mesh.copy(), mesh.copy()
            mp.vertices[i, k] += eps
            mm.vertices[i, k] -= eps
            fd = (fun(mp) - fun(mm)) / (2 * eps)
            worst = max(worst, abs(fd - g[i, k]) / max(1.0, abs(g[i, k])))
    return worst


def test_gradients_match_finite_differences_octant(octant):
    assert _fd_check(octant, surface_area, surface_area_gradient) < 1e-6
    assert _fd_check(octant, volume, volume_gradient) < 1e-6
    assert _fd_check(octant, lambda m: energy(m).total, energy_gradient) < 1e-6


def test_gradients_match_finite_differences_wedge():
    cfg = WedgeConfig.canonical(np.pi / 4, 2.0, 2.1)
    m = perturb(seed_mesh(cfg, h=1.0, refinement_level=1), 0.005, seed=1)
    assert _fd_check(m, lambda x: energy(x).total, energy_gradient) < 1e-6
    assert _fd_check(m, volume, volume_gradient) < 1e-6


def test_project_tangent_respects_constraints(octant):
    g = np.ones_like(octant.vertices)
    p = project_tangent(octant, g)
    for i in range(octant.n_vertices):
        if octant.tag_kind[i] == 1:
            n = octant.support.planes[octant.tag_id[i]].normal
            assert abs(np.dot(p[i], n)) < 1e-14
        elif octant.tag_kind[i] == 2:
            d = octant.support.edge_dirs[octant.tag_id[i]]
            assert np.linalg.norm(p[i] - np.dot(p[i], d) * d) < 1e-14


def test_dual_areas_partition_surface(octant):
    assert vertex_dual_areas(octant).sum() == pytest.approx(
        surface_area(octant), abs=1e-12)


def test_evolve_perturbed_octant_returns_to_sphere():
    m = seed_mesh(TrihedralConfig.orthant((np.pi / 2,) * 3), h=1.0,
                  refinement_level=2)
    target = m.target_volume
    m = perturb(m, 0.01, seed=7)
    out, rep = evolve(m)
    assert rep.volume_error < 1e-8 * target
    r = np.linalg.norm(out.vertices, axis=1)
    assert r.std() / r.mean() < 2e-3
    # multiplier estimate doubles as the equilibrium curvature
    assert rep.lagrange_h == pytest.approx(1.0, abs=2e-2)
    assert rep.final_energy <= energy(m).total + 1e-12


def test_evolve_traces_each_outer_loop():
    m = perturb(seed_mesh(TrihedralConfig.orthant((np.pi / 2,) * 3), h=1.0,
                          refinement_level=1), 0.01, seed=3)
    out, rep = evolve(m, max_iters=120, n_outer=4)
    assert 1 <= len(rep.trace) <= 4
    assert sum(r["nit"] for r in rep.trace) == rep.iterations
    for r in rep.trace:
        assert set(r) == {"nit", "energy", "residual", "volume_error", "mu",
                          "multiplier", "min_area"}
        assert r["min_area"] > 0.0 and r["mu"] > 0.0


def test_evolve_keeps_volume_through_iterations():
    cfg = WedgeConfig.canonical(np.pi / 4, 2 * np.pi / 3, 2 * np.pi / 3)
    m = perturb(seed_mesh(cfg, h=1.0, refinement_level=2), 0.01, seed=2)
    target = m.target_volume
    out, rep = evolve(m, max_iters=300)
    assert volume(out) == pytest.approx(target, abs=1e-8 * target)


def test_volume_restoration_fails_on_a_non_finite_volume(octant):
    broken = octant.copy()
    broken.vertices[0] = np.nan
    with pytest.raises(NonConvergenceError, match="volume restoration stalled"):
        evolver._restore_volume(broken, octant.target_volume)


def test_planar_mode_stays_planar():
    g = float(np.arccos(np.sqrt(3.0) / 3.0))
    m = seed_mesh(TrihedralConfig.orthant((g,) * 3), h=0.0, refinement_level=2)
    # the flat solution wets at zero net energy
    assert energy(m).total == pytest.approx(0.0, abs=1e-12)
    mp = perturb(m, 0.01, seed=5)
    out, rep = evolve(mp, max_iters=400)
    n = np.ones(3) / np.sqrt(3.0)
    d = out.vertices @ n
    assert np.ptp(d) < 1e-6
    assert abs(rep.lagrange_h) < 1e-6


def test_evolve_builds_the_wall_layout_and_basis_transpose_once(monkeypatch):
    # every objective, residual and volume-restoration step reads one
    # evaluation pass; the wall polygons' index arrays and R^T belong to the
    # triangulation, so the evolve builds each once however often it evaluates
    calls = {"evaluate": 0, "wall_polylines": 0, "layout": 0, "transpose": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    cfg = WedgeConfig.canonical(np.pi / 3, 1.2, 2.0)
    m = perturb(seed_mesh(cfg, h=1.0, refinement_level=2), 0.01, seed=4)
    # a fresh topology, with nothing cached by the seeding
    m = TriMeshDrop(m.vertices, m.triangles, m.tag_kind, m.tag_id, m.support, m.target_volume)
    monkeypatch.setattr(evolver, "_evaluate", counted("evaluate", evolver._evaluate))
    monkeypatch.setattr(TriMeshDrop, "wall_polylines",
                        counted("wall_polylines", TriMeshDrop.wall_polylines))
    monkeypatch.setattr(evolver, "_build_wall_layout",
                        counted("layout", evolver._build_wall_layout))
    monkeypatch.setattr(meshes, "_build_transpose", counted("transpose", meshes._build_transpose))
    evolve(m, max_iters=60, n_outer=3)
    assert calls["evaluate"] > 0
    assert calls["wall_polylines"] == calls["layout"] == calls["transpose"] == 1


# -- the cached operators against the scatters they replaced -----------------


@pytest.fixture(scope="module", params=["wedge", "orthant", "planar", "cylinder"])
def drop(request):
    if request.param == "planar":
        flat = float(np.arccos(np.sqrt(3.0) / 3.0))
        seed = seed_mesh(TrihedralConfig.orthant((flat,) * 3), h=0.0, refinement_level=2)
        return perturb(seed, 0.01, seed=1)
    if request.param == "wedge":
        cfg, h = WedgeConfig.canonical(np.pi / 4, 2.0, 2.1), 1.0
    elif request.param == "orthant":
        cfg, h = TrihedralConfig.orthant((np.pi / 2,) * 3), 1.0
    else:
        cfg, h = TrihedralConfig.regular_cylinder(1.0, (1.9,) * 3), None
    return perturb(seed_mesh(cfg, h=h, refinement_level=2), 0.01, seed=1)


def _reference_evaluation(mesh):
    """The evaluation pass with every wall polygon rebuilt per call.

    Cross products by ``np.cross``, corner sums by ``np.add.at``; per wall the
    polyline with its closure, in-plane coordinates from the wall frame and
    cyclic neighbours by ``np.roll``; the cylinder base area from its corners.
    Returns the breakdown, the wetted areas and the area, energy and volume
    gradients.
    """
    sup, v, t = mesh.support, mesh.vertices, mesh.triangles
    a, b, c = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    w = np.cross(b - a, c - a)
    s = a + b + c
    norms = np.linalg.norm(w, axis=1)
    area = float((0.5 * norms).sum())
    nhat = w / norms[:, None]
    area_grad, flux_grad = np.zeros_like(v), np.zeros_like(v)
    for k, edge in enumerate((c - b, a - c, b - a)):
        np.add.at(area_grad, t[:, k], 0.5 * np.cross(nhat, edge))
        np.add.at(flux_grad, t[:, k], (w - np.cross(edge, s)) / 6.0)
    energy_grad = area_grad.copy()
    wet = {}
    for j, seg in mesh.wall_polylines().items():
        pts = v[seg]
        if sup.kind == "apex":
            pts = np.vstack([pts, sup.config.apex])
        elif sup.kind == "cylinder":
            g, z0 = sup.config.generator, 0.0
            pts = np.vstack([pts] + [p - (np.dot(g, p) - z0) * g for p in pts[[-1, 0]]])
        eu, ev = sup.frames[j]
        rel = np.atleast_2d(pts) - sup.planes[j].offset * sup.planes[j].normal
        x, y = np.column_stack([rel @ eu, rel @ ev]).T
        wet[j] = 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
        gx = 0.5 * (np.roll(y, -1) - np.roll(y, 1))
        gy = 0.5 * (np.roll(x, 1) - np.roll(x, -1))
        grad = np.zeros_like(v)
        n = len(seg)
        np.add.at(grad, seg, gx[:n, None] * eu + gy[:n, None] * ev)
        energy_grad -= np.cos(sup.planes[j].gamma) * grad
        flux_grad -= sup.planes[j].offset * grad
    vol = float(np.einsum("ij,ij->", s, w)) / 6.0
    for j, p in enumerate(sup.planes):
        vol -= p.offset * wet[j]
    if sup.kind == "cylinder":
        e = sup.edge_points
        base = 0.5 * abs(float(np.linalg.norm(np.cross(e[1] - e[0], e[2] - e[0]))))
        vol -= 0.0 * base
    total = area - sum(np.cos(sup.planes[j].gamma) * wet[j] for j in wet)
    breakdown = EnergyBreakdown(total, area, tuple(wet[j] for j in sorted(wet)), vol / 3.0)
    return breakdown, wet, area_grad, energy_grad, flux_grad / 3.0


def _aos_evaluation(mesh):
    """The evaluation pass as it was written on (T, 3) arrays of triangles,
    before the component-major layout; every field must match it to the bit."""
    sup, v = mesh.support, mesh.vertices
    a, b, c = v[mesh.triangles.T]
    w = meshes._cross(b - a, c - a)
    s = a + b + c
    norms = np.linalg.norm(w, axis=1)
    area = float((0.5 * norms).sum())
    nhat = w / norms[:, None]
    edges = np.stack((c - b, a - c, b - a))
    corner = np.concatenate([0.5 * meshes._cross(nhat, edges),
                             (w - meshes._cross(edges, s)) / 6.0], axis=2)
    grads = mesh.corner_incidence() @ corner.reshape(-1, 6)
    area_grad, flux_grad = grads[:, :3], grads[:, 3:]
    energy_grad = area_grad.copy()
    wet = {}
    for j, seg, nxt, prv in evolver._build_wall_layout(mesh):
        pts = v[seg]
        if sup.kind == "apex":
            pts = np.concatenate((pts, sup.config.apex[None]))
        elif sup.kind == "cylinder":
            g, ends = sup.config.generator, pts[[-1, 0]]
            pts = np.concatenate((pts, ends - (np.vecdot(ends, g) - 0.0)[:, None] * g))
        x, y = sup.wall_coords(j, pts).T
        xn, yn = x[nxt], y[nxt]
        wet[j] = 0.5 * float(np.dot(x, yn) - np.dot(y, xn))
        eu, ev = sup.frames[j]
        n = len(seg)
        grad = (0.5 * (yn[:n] - y[prv]))[:, None] * eu + (0.5 * (x[prv] - xn[:n]))[:, None] * ev
        energy_grad[seg] -= sup.cos_gammas[j] * grad
        flux_grad[seg] -= sup.offsets[j] * grad
    vol = float(np.einsum("ij,ij->", s, w)) / 6.0
    for j, offset in enumerate(sup.offsets):
        vol -= offset * wet[j]
    if sup.kind == "cylinder":
        e = sup.edge_points
        vol -= 0.0 * (0.5 * abs(float(np.linalg.norm(np.cross(e[1] - e[0], e[2] - e[0])))))
    total = area - sum(sup.cos_gammas[j] * wet[j] for j in wet)
    breakdown = EnergyBreakdown(total, area, tuple(wet[j] for j in sorted(wet)), vol / 3.0)
    return breakdown, wet, area_grad, energy_grad, flux_grad / 3.0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_component_major_evaluation_equals_the_aos_pass_bit_for_bit(drop, seed):
    mesh = drop.copy()
    mesh.vertices = perturb(drop, 0.01, seed=seed).vertices
    ev = evolver._evaluate(mesh)
    breakdown, wet, area_grad, energy_grad, volume_grad = _aos_evaluation(mesh)
    assert ev.breakdown == breakdown
    assert list(ev.wetted.items()) == list(wet.items())
    for got, want in zip(ev[2:], (area_grad, energy_grad, volume_grad)):
        assert np.array_equal(got, want)


def test_evaluation_equals_the_per_call_reference_bit_for_bit(drop):
    ev = evolver._evaluate(drop)
    breakdown, wet, _, _, _ = _reference_evaluation(drop)
    assert ev.breakdown == breakdown
    assert list(ev.wetted.items()) == list(wet.items())


def test_corner_products_equal_the_scatters_bit_for_bit(drop):
    ev = evolver._evaluate(drop)
    _, _, area_grad, energy_grad, volume_grad = _reference_evaluation(drop)
    assert np.array_equal(ev.area_gradient, area_grad)
    assert np.array_equal(ev.energy_gradient, energy_grad)
    assert np.array_equal(ev.volume_gradient, volume_grad)

    t = drop.triangles
    dual = np.zeros(drop.n_vertices)
    for k in range(3):
        np.add.at(dual, t[:, k], drop.triangle_areas() / 3.0)
    assert np.array_equal(vertex_dual_areas(drop), dual)

    v = drop.vertices
    fn = np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])
    normals = np.zeros_like(v)
    for k in range(3):
        np.add.at(normals, t[:, k], fn)
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    assert np.array_equal(vertex_normals(drop), normals)


def test_cross_helper_equals_np_cross_bit_for_bit(drop, monkeypatch):
    def fields():
        return (drop.triangle_areas(), vertex_normals(drop),
                diagnostics.mean_curvature_field(drop), diagnostics.principal_curvatures(drop),
                diagnostics.umbilicity_rms(drop))

    got = fields()
    for module in (meshes, diagnostics):
        monkeypatch.setattr(module, "_cross", np.cross)
    for field, expected in zip(got, fields()):
        assert np.array_equal(field, expected, equal_nan=True)


def test_constraint_basis_rows_are_orthonormal_per_vertex(drop):
    R = drop.constraint_basis().toarray()
    sup = drop.support
    # every row moves a single vertex, and the rows come in vertex order
    owner = [set(np.nonzero(row)[0] // 3) for row in R]
    assert all(len(o) == 1 for o in owner)
    owner = np.array([o.pop() for o in owner])
    assert np.all(np.diff(owner) >= 0)
    for i in range(drop.n_vertices):
        rows = R[owner == i, 3 * i:3 * i + 3]
        kind = drop.tag_kind[i]
        assert len(rows) == {FREE: 3, ON_PLANE: 2, ON_EDGE: 1}[kind]
        assert np.abs(rows @ rows.T - np.eye(len(rows))).max() <= 1e-15
        if kind == ON_PLANE:
            assert np.abs(rows @ sup.planes[drop.tag_id[i]].normal).max() <= 1e-15
        elif kind == ON_EDGE:
            assert abs(abs(rows[0] @ sup.edge_dirs[drop.tag_id[i]]) - 1.0) <= 1e-15


def test_project_tangent_matches_normal_subtraction(drop):
    g = np.random.default_rng(2).standard_normal(drop.vertices.shape)
    expected = g.copy()
    for i in np.nonzero(drop.tag_kind == ON_PLANE)[0]:
        n = drop.support.planes[drop.tag_id[i]].normal
        expected[i] -= np.dot(expected[i], n) * n
    for i in np.nonzero(drop.tag_kind == ON_EDGE)[0]:
        d = drop.support.edge_dirs[drop.tag_id[i]]
        expected[i] = np.dot(expected[i], d) * d
    got = project_tangent(drop, g)
    assert np.abs(got - expected).max() <= 1e-15 * np.abs(expected).max()
    # the cached CSR transpose sums in the order of the CSC R.T
    R = drop.constraint_basis()
    assert np.array_equal(got, (R.T @ (R @ g.ravel())).reshape(-1, 3))
    q = R @ g.ravel()
    assert np.array_equal(drop.constraint_basis_transpose() @ q, R.T @ q)


def test_smooth_matches_per_vertex_mean(drop):
    v = drop.vertices
    nbrs = [set() for _ in range(drop.n_vertices)]
    for a, b, c in drop.triangles.tolist():
        nbrs[a].update((b, c))
        nbrs[b].update((a, c))
        nbrs[c].update((a, b))
    weights, normals = vertex_dual_areas(drop), vertex_normals(drop)
    disp = np.zeros_like(v)
    for i, ring in enumerate(nbrs):
        nb = sorted(ring)
        w = weights[nb]
        d = (w[:, None] * v[nb]).sum(axis=0) / w.sum() - v[i]
        if drop.tag_kind[i] == FREE:
            d -= np.dot(d, normals[i]) * normals[i]
        disp[i] = d
    expected = project_tangent(drop, disp)
    smoothed = drop.copy()
    evolver._smooth(smoothed, 1.0)
    got = smoothed.vertices - v
    assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()

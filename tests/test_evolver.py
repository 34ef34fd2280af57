import numpy as np
import pytest

from capvertex import evolver
from capvertex.geometry import TrihedralConfig, WedgeConfig
from capvertex.meshes import TriMeshDrop, seed_mesh, seed_planar_trihedral, perturb
from capvertex.evolver import (
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
            d = octant.support.edges[octant.tag_id[i]].direction
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
    assert [r["energy"] for r in rep.trace] == rep.energy_history[1:]
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


def test_planar_mode_stays_planar():
    g = float(np.arccos(np.sqrt(3.0) / 3.0))
    m = seed_planar_trihedral(TrihedralConfig.orthant((g,) * 3),
                              refinement_level=2)
    # the flat solution wets at zero net energy
    assert energy(m).total == pytest.approx(0.0, abs=1e-12)
    mp = perturb(m, 0.01, seed=5)
    out, rep = evolve(mp, max_iters=400)
    n = np.ones(3) / np.sqrt(3.0)
    d = out.vertices @ n
    assert np.ptp(d) < 1e-6
    assert abs(rep.lagrange_h) < 1e-6


def test_evolve_builds_wall_polygons_only_inside_the_single_pass(monkeypatch):
    # every objective, residual and volume-restoration step reads one
    # evaluation pass, and only that pass walks the wall polylines
    calls = {"evaluate": 0, "wall_polylines": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    cfg = WedgeConfig.canonical(np.pi / 3, 1.2, 2.0)
    m = perturb(seed_mesh(cfg, h=1.0, refinement_level=2), 0.01, seed=4)
    monkeypatch.setattr(evolver, "_evaluate", counted("evaluate", evolver._evaluate))
    monkeypatch.setattr(TriMeshDrop, "wall_polylines",
                        counted("wall_polylines", TriMeshDrop.wall_polylines))
    evolve(m, max_iters=60, n_outer=3)
    assert calls["evaluate"] > 0
    assert calls["wall_polylines"] == calls["evaluate"]

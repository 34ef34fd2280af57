"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line with the measured value
and the threshold it is held to, then asserts the same condition.
"""

import time

import numpy as np
import pytest

from capvertex.analytic import (
    edge_vertices,
    spherical_cmc_residual,
    SphericalGraphField,
    trihedral_cap,
    wedge_cap,
    wedge_vertex_tangents,
    wente_halfcylinder,
)
from capvertex.cli import verify_suite
from capvertex.diagnostics import fit_plane, fit_sphere, umbilicity_rms
from capvertex.errors import NoSolutionError
from capvertex.evolver import energy, energy_gradient, evolve
from capvertex.geometry import (
    QTag,
    TrihedralConfig,
    WedgeConfig,
    classify_data,
    vertex_angle,
)
from capvertex.graphpde import RectangleProblem, exact_square_cap, solve_rectangle
from capvertex.meshes import perturb, seed_mesh, seed_planar_trihedral, structured_surface


def _verdict(label, passed, measured, threshold, t0):
    line = (f"[{'PASS' if passed else 'FAIL'}] {label}: measured {measured} "
            f"vs threshold {threshold} ({time.perf_counter() - t0:.2f}s)")
    print(line)
    assert passed, line


def _random_interior(rng):
    while True:
        alpha = rng.uniform(0.05, np.pi / 2 - 0.05)
        g1, g2 = rng.uniform(0.0, np.pi, 2)
        if classify_data(alpha, g1, g2).tag is QTag.INTERIOR_Q:
            return alpha, g1, g2


def test_criterion_01_classification_sign_agreement():
    t0 = time.perf_counter()
    by_name = {o["criterion"]: o for o in verify_suite("formulas")}
    disagreements = by_name["numerator-sign-vs-rectangle"]["measured"]
    elapsed = time.perf_counter() - t0
    _verdict("criterion-01 numerator sign vs rectangle test",
             disagreements == 0 and elapsed < 1.0,
             f"{disagreements} disagreements in {elapsed:.3f}s",
             "0 disagreements, < 1 s", t0)


def test_criterion_02_vertex_angle_identity_and_equal_angle_bound():
    t0 = time.perf_counter()
    by_name = {o["criterion"]: o for o in verify_suite("formulas", seed=2024)}
    worst_identity = by_name["angle-identity"]["measured"]
    worst_excess = by_name["equal-angle-bound"]["measured"]
    elapsed = time.perf_counter() - t0
    _verdict("criterion-02 angle identity and equal-angle bound",
             worst_identity < 1e-12 and worst_excess <= 1e-12 and elapsed < 1.0,
             f"identity {worst_identity:.2e}, excess {worst_excess:.2e}, {elapsed:.3f}s",
             "identity < 1e-12, excess <= 1e-12, < 1 s", t0)


def test_criterion_03_cap_vertex_cross_validation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        alpha, g1, g2 = _random_interior(rng)
        w = WedgeConfig.canonical(alpha, g1, g2)
        cap = wedge_cap(w, 1.0)
        expected = vertex_angle(alpha, g1, g2).two_beta
        for v in edge_vertices(cap, w.edge_point, w.edge_dir):
            t1, t2 = wedge_vertex_tangents(cap, w, v)
            measured = np.arccos(np.clip(np.dot(t1, t2), -1.0, 1.0))
            worst = max(worst, abs(measured - expected))
    mismatches = 0
    for _ in range(300):
        alpha = rng.uniform(0.05, np.pi / 2 - 0.05)
        g1, g2 = rng.uniform(0.0, np.pi, 2)
        admissible = classify_data(alpha, g1, g2).tag in (QTag.INTERIOR_Q,
                                                          QTag.BOUNDARY_Q_D1)
        try:
            wedge_cap(WedgeConfig.canonical(alpha, g1, g2), 1.0)
            exists = True
        except NoSolutionError:
            exists = False
        mismatches += int(exists != admissible)
    elapsed = time.perf_counter() - t0
    _verdict("criterion-03 cap vertex angles and existence pattern",
             worst < 1e-9 and mismatches == 0 and elapsed < 5.0,
             f"angle err {worst:.2e}, {mismatches} mismatches, {elapsed:.3f}s",
             "err < 1e-9, 0 mismatches, < 5 s", t0)


def test_criterion_04_trihedral_contact_angles_and_degenerate_flag():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    worst = 0.0
    found = 0
    while found < 100:
        gammas = tuple(rng.uniform(np.pi / 4 + 0.02, 3 * np.pi / 4 - 0.02, 3))
        try:
            cap = trihedral_cap(TrihedralConfig.orthant(gammas), 1.0)
        except NoSolutionError:
            continue
        found += 1
        for p, g in zip(cap.config_ref.planes, gammas):
            measured_cos = -p.signed_distance(cap.center) / cap.radius
            worst = max(worst, abs(measured_cos - np.cos(g)))
    g_star = float(np.arccos(np.sqrt(3.0) / 3.0))
    flags = [trihedral_cap(TrihedralConfig.orthant((g,) * 3), 1.0).degenerate
             for g in (g_star - 0.01, g_star, g_star + 0.01)]
    elapsed = time.perf_counter() - t0
    _verdict("criterion-04 trihedral construction",
             worst < 1e-12 and flags == [False, True, False] and elapsed < 5.0,
             f"cos err {worst:.2e}, degenerate flags {flags}, {elapsed:.3f}s",
             "err < 1e-12, flags [False, True, False], < 5 s", t0)


@pytest.fixture(scope="module")
def square_solutions():
    out = {}
    for n in (32, 64, 128):
        prob = RectangleProblem(1.0, 1.0, (np.pi / 3,) * 4, grid_n=n)
        out[n] = (prob, solve_rectangle(prob))
    return out


def test_criterion_05_square_pde_oracle(square_solutions):
    t0 = time.perf_counter()
    errs = {}
    for n, (prob, field) in square_solutions.items():
        errs[n] = float(np.abs(field.u - exact_square_cap(prob)).max())
    order = 0.5 * np.log2(errs[32] / errs[128])
    elapsed = time.perf_counter() - t0
    _verdict("criterion-05 square solver vs exact cap",
             errs[128] <= 5e-3 and order >= 1.9 and elapsed < 60.0,
             f"max err {errs[128]:.2e}, order {order:.2f}, {elapsed:.1f}s",
             "err <= 5e-3, order >= 1.9, < 60 s", t0)


def test_criterion_06_rectangle_non_sphericity():
    t0 = time.perf_counter()
    (outcome,) = verify_suite("counterexample-v4", grid_n=128)
    elapsed = time.perf_counter() - t0
    _verdict("criterion-06 rectangle drop is not spherical",
             outcome["pass"] and elapsed < 60.0,
             f"rms ratio {outcome['measured']:.1f}, {elapsed:.1f}s",
             "ratio >= 20, < 60 s", t0)


def test_criterion_07_half_cylinder_residual_and_compatibility():
    t0 = time.perf_counter()
    by_name = {o["criterion"]: o for o in verify_suite("wente")}
    resid = by_name["halfcylinder-residual"]
    h = by_name["compatibility-h"]
    elapsed = time.perf_counter() - t0
    _verdict("criterion-07 half-cylinder residual and mixed-angle curvature",
             resid["pass"] and h["pass"] and elapsed < 1.0,
             f"residual {resid['measured']:.2e}, h {h['measured']} vs {h['threshold']}, "
             f"{elapsed:.3f}s",
             "residual < 1e-10, h exact, < 1 s", t0)


def test_criterion_08_wedge_drop_relaxation():
    t0 = time.perf_counter()
    outcomes = verify_suite("theorem1-wedge", seed=0)
    elapsed = time.perf_counter() - t0
    detail = "; ".join(f"{o['criterion']} {o['measured']:.3e}" for o in outcomes)
    _verdict("criterion-08 perturbed wedge drop relaxes to the cap",
             all(o["pass"] for o in outcomes) and elapsed < 120.0,
             f"{detail}, {elapsed:.1f}s",
             "all sub-checks pass, < 120 s", t0)


def test_criterion_09_trihedral_planar_and_spherical_modes():
    t0 = time.perf_counter()
    g_star = float(np.arccos(np.sqrt(3.0) / 3.0))
    flat = seed_planar_trihedral(TrihedralConfig.orthant((g_star,) * 3),
                                 refinement_level=2)
    flat = perturb(flat, 0.01, seed=9)
    out, _ = evolve(flat, max_iters=600)
    fitp = fit_plane(out.vertices)
    diam = np.linalg.norm(np.ptp(out.vertices, axis=0))
    plane_dev = fitp.rms / diam

    octant = seed_mesh(TrihedralConfig.orthant((np.pi / 2,) * 3), h=1.0,
                       refinement_level=2)
    octant = perturb(octant, 0.01, seed=9)
    out2, rep2 = evolve(octant, max_iters=1200)
    sphere_rms = fit_sphere(out2.vertices).relative_rms
    elapsed = time.perf_counter() - t0
    _verdict("criterion-09 trihedral planar and spherical equilibria",
             plane_dev < 1e-4 and sphere_rms < 1e-3
             and rep2.volume_error < 1e-8 and elapsed < 120.0,
             f"plane dev {plane_dev:.2e}, sphere rms {sphere_rms:.2e}, {elapsed:.1f}s",
             "plane dev < 1e-4 diam, sphere rms < 1e-3, < 120 s", t0)


def test_criterion_10_cylinder_drop_and_cap_angles():
    t0 = time.perf_counter()
    by_name = {o["criterion"]: o for o in verify_suite(
        "theorem4-cylinder", seed=10, refinement=2, max_iters=1200)}
    cos_err, sphere = by_name["cap-contact-angles"], by_name["sphere-fit"]
    elapsed = time.perf_counter() - t0
    _verdict("criterion-10 cylinder drop",
             cos_err["pass"] and sphere["pass"] and elapsed < 120.0,
             f"cos err {cos_err['measured']:.2e}, sphere rms {sphere['measured']:.2e}, "
             f"{elapsed:.1f}s",
             "cos err < 1e-12, rms < 1e-3, < 120 s", t0)


def test_criterion_11_umbilicity_separation():
    t0 = time.perf_counter()
    cfg = WedgeConfig.canonical(np.pi / 4, 2 * np.pi / 3, 2 * np.pi / 3)
    sphere = seed_mesh(cfg, h=1.0 / 4.0, refinement_level=4)
    u_sphere = umbilicity_rms(sphere)

    sol = wente_halfcylinder(2.0, 1.0)
    n = 65
    ys = np.linspace(0.05, 0.95, n)
    xs = np.linspace(0.0, 2.0, n)
    grid = np.empty((n, n, 3))
    grid[..., 0] = xs[:, None]
    grid[..., 1] = ys[None, :]
    grid[..., 2] = sol.height(ys)[None, :]
    u_cyl = umbilicity_rms(structured_surface(grid))
    elapsed = time.perf_counter() - t0
    _verdict("criterion-11 umbilicity diagnostic separation",
             u_sphere < 5e-2 and u_cyl > 10 * u_sphere and elapsed < 10.0,
             f"sphere {u_sphere:.2e}, half-cylinder {u_cyl:.2e}, {elapsed:.1f}s",
             "sphere < 5e-2, half-cylinder > 10x, < 10 s", t0)


def test_criterion_12_radial_graph_residual_closed_forms():
    t0 = time.perf_counter()
    R = 2.5
    theta = np.linspace(0.0, np.pi / 2, 41)
    phi = np.linspace(0.3, np.pi - 0.3, 37)
    u = np.full((theta.size, phi.size), R)

    res_cmc = spherical_cmc_residual(
        SphericalGraphField(theta, phi, u, h=-1.0 / R))
    worst_cmc = float(np.abs(res_cmc).max())

    res_min = spherical_cmc_residual(SphericalGraphField(theta, phi, u, h=0.0))
    trim = (phi.size - res_min.shape[1]) // 2
    expected = -2.0 * np.sin(phi[trim:phi.size - trim])[None, :]
    worst_min = float(np.abs(res_min - expected).max())
    elapsed = time.perf_counter() - t0
    _verdict("criterion-12 radial graph residual closed forms",
             worst_cmc < 1e-12 and worst_min < 1e-12 and elapsed < 1.0,
             f"cmc {worst_cmc:.2e}, minimal {worst_min:.2e}, {elapsed:.3f}s",
             "both < 1e-12, < 1 s", t0)


def test_criterion_13_energy_gradient_vs_finite_differences():
    t0 = time.perf_counter()
    meshes = [
        seed_mesh(WedgeConfig.canonical(np.pi / 4, 2 * np.pi / 3, 2 * np.pi / 3),
                  h=1.0, refinement_level=2),
        seed_mesh(TrihedralConfig.orthant((np.pi / 2,) * 3), h=1.0,
                  refinement_level=2),
        seed_mesh(TrihedralConfig.regular_cylinder(1.0, (1.9,) * 3), h=None,
                  refinement_level=2),
    ]
    rng = np.random.default_rng(13)
    worst = 0.0
    eps = 1e-6
    for mesh in meshes:
        mesh = perturb(mesh, 0.005, seed=13)
        g = energy_gradient(mesh)
        scale = np.linalg.norm(g)
        for _ in range(17):
            i = rng.integers(mesh.n_vertices)
            d = rng.standard_normal(3)
            d /= np.linalg.norm(d)
            for sign in (1.0, -1.0):
                trial = mesh.copy()
                trial.vertices[i] += sign * eps * d
                if sign > 0:
                    e_plus = energy(trial).total
                else:
                    e_minus = energy(trial).total
            fd = (e_plus - e_minus) / (2.0 * eps)
            worst = max(worst, abs(fd - np.dot(g[i], d)) / scale)
    elapsed = time.perf_counter() - t0
    _verdict("criterion-13 analytic gradient vs central differences",
             worst < 1e-5 and elapsed < 30.0,
             f"max rel err {worst:.2e} over 51 probes, {elapsed:.1f}s",
             "rel err < 1e-5, < 30 s", t0)

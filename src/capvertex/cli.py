"""Command-line front end: scenario configs, verification recipes, exporters.

Scenarios are described by JSON config files. Artifacts are OBJ meshes (with
constraint tags in comment records), RFC-4180 CSV fields, and JSON reports.
Exit codes: 0 success / all criteria pass, 1 criterion failure, 2 error. No
partial artifacts are written on exit 2: the scenario runners parse and
compute, and ``run`` alone writes, after them. A config key that no reader
consumed is refused before any computation.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import (
    cylinder_cap,
    edge_vertices,
    spherical_cmc_residual,
    support_cap,
    trihedral_cap,
    wedge_cap,
    wedge_vertex_tangents,
    wente_halfcylinder,
    SphericalCap,
    SphericalGraphField,
)
from .diagnostics import diagnostics_report, fit_plane, fit_sphere, umbilicity_rms
from .errors import DomainError, MeshDegenerationError, NoSolutionError, NonConvergenceError
from .geometry import (
    QTag,
    TrihedralConfig,
    WedgeConfig,
    check_numerator_sign,
    classify_data,
    classify_grid,
    vertex_angle,
    vertex_angle_grid,
    TAG_CODES,
)
from .graphpde import RectangleProblem, compatibility_h, exact_square_cap, solve_rectangle
from .meshes import seed_mesh, perturb, structured_surface, write_obj
from .newton import Stopwatch
from .evolver import energy, energy_gradient, evolve, volume

__all__ = ["main", "run", "verify_suite"]

# amplitude of the random vertex displacement before each suite relaxation
_SUITE_PERTURBATION = 0.01
# CSV rows formatted per write: a whole 181^2 grid as one string would raise
# the peak memory by megabytes
_CSV_CHUNK = 1024
# the master seed is an unsigned 64-bit integer
_SEED_LIMIT = 2 ** 64
# size ceilings of a config, past which its arrays would take gigabytes: a
# classify grid of n points per side has n^2 cells, and refinement r seeds
# 32 * 4**r triangles in a wedge, 36 * 4**r in a trihedral angle or cylinder
# and 12 * 4**r for a flat seed (the graph solver bounds its own cell count)
_MAX_GRID = 2049
_MAX_REFINEMENT = 5
# the largest vertex displacement, as a fraction of the drop's diameter
_MAX_PERTURBATION = 1.0
# the residuals of a failed solve's trace that its one-line message carries
_TRACE_TAIL = 5


class ConfigError(ValueError):
    pass


def _load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}:1: config must be a JSON object")
    return cfg


def _require(cfg: dict, key, types, where):
    """Takes ``key`` out of ``cfg``: every reader consumes the keys it reads."""
    if key not in cfg:
        raise ConfigError(f"{where}: missing required key '{key}'")
    value = cfg.pop(key)
    # bool is a subclass of int, but true/false never stand for a number
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{where}: key '{key}' has the wrong type")
    return value


_REQUIRED = object()


def _number(cfg: dict, key, where, default=_REQUIRED):
    """A finite real value; an absent or null key gives ``default`` when one is set."""
    if default is not _REQUIRED and cfg.get(key) is None:
        cfg.pop(key, None)
        return default
    value = float(_require(cfg, key, (int, float), where))
    if not np.isfinite(value):
        raise ConfigError(f"{where}: key '{key}' must be finite, got {value}")
    return value


def _integer(cfg: dict, key, where, default, minimum=1, maximum=None):
    if key not in cfg:
        return default
    value = _require(cfg, key, int, where)
    if value < minimum:
        raise ConfigError(f"{where}: key '{key}' must be at least {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{where}: key '{key}' must be at most {maximum}, got {value}")
    return value


def _flag(cfg: dict, key, where, default):
    value = cfg.pop(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: key '{key}' must be true or false")
    return value


def _angles(cfg, key, n, where):
    vals = _require(cfg, key, list, where)
    if len(vals) != n or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                                 for v in vals):
        raise ConfigError(f"{where}: '{key}' must be a list of {n} numbers")
    if not all(0.0 <= v <= np.pi for v in vals):
        raise ConfigError(f"{where}: angles must lie in [0, pi]")
    return [float(v) for v in vals]


def _parsed(cfg: dict, where) -> Stopwatch:
    """Ends parsing: refuses any key no reader consumed, then starts the stage clock."""
    if cfg:
        raise ConfigError(f"{where}: unused key{'s' if len(cfg) > 1 else ''} "
                          + ", ".join(map(repr, cfg)))
    return Stopwatch()


def _write_grid_csv(path, header, x, y, coord, cell, columns):
    """An x-major grid table with CRLF row ends: the bytes ``csv.writer``
    writes for cells needing no quotes.

    Row (i, j) is ``x[i]`` and ``y[j]``, each formatted by ``coord``, then
    ``cell % (columns[0][i, j], columns[1][i, j], ...)``. Each coordinate is
    formatted once: the cells at one x make one template, a line for each y
    (in pieces of ``_CSV_CHUNK`` lines), which takes that row's cells. The
    templates are filled and written ``_CSV_CHUNK`` lines or more at a time:
    a write per row of the 181^2 classify grid left the heap fragmented, so
    that each call raised the peak memory of a later one by about 0.3 MB.
    """
    y = y.tolist()
    tails = [[coord % v + "," + cell + "\r\n" for v in y[start:start + _CSV_CHUNK]]
             for start in range(0, len(y), _CSV_CHUNK)]
    piece = _CSV_CHUNK * len(columns)
    templates, cells = [], []
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\r\n")
        for i, v in enumerate(x.tolist()):
            head = coord % v + ","
            row = list(chain.from_iterable(zip(*(c[i].tolist() for c in columns))))
            for k, tail in enumerate(tails):
                templates.append(head + head.join(tail))
                cells += row[k * piece:(k + 1) * piece]
                if len(cells) >= piece:
                    f.write("".join(templates) % tuple(cells))
                    templates, cells = [], []
        f.write("".join(templates) % tuple(cells))


def _support_from_config(cfg, where):
    kind = _require(cfg, "support", str, where)
    if kind == "wedge":
        alpha = _number(cfg, "alpha", where)
        g1, g2 = _angles(cfg, "gammas", 2, where)
        return WedgeConfig.canonical(alpha, g1, g2)
    if kind == "orthant":
        return TrihedralConfig.orthant(tuple(_angles(cfg, "gammas", 3, where)))
    if kind == "cylinder":
        r = _number(cfg, "inradius", where, 1.0)
        return TrihedralConfig.regular_cylinder(r, tuple(_angles(cfg, "gammas", 3, where)))
    raise ConfigError(f"{where}: unknown support kind {kind!r}")


# -- scenarios -------------------------------------------------------------
#
# Each runner returns its stage clock, its report fields and the writer of its
# artifacts, or None when it has none.


def _run_classify(cfg, seed: int, where: str):
    alpha = _number(cfg, "alpha", where)
    n = _integer(cfg, "grid", where, 181, maximum=_MAX_GRID)
    clock = _parsed(cfg, where)
    g = np.linspace(0.0, np.pi, n)
    # a broadcast grid: classify_grid checks alpha before any n^2 array exists
    codes, numer = classify_grid(alpha, g[:, None], g[None, :])
    clock.lap("classify")
    # the codes number the tags 0, 1, ...
    names = np.array([tag.name for tag in sorted(TAG_CODES, key=TAG_CODES.get)], dtype=object)
    return clock, {"alpha": alpha, "grid": n}, lambda out: _write_grid_csv(
        out / "classification.csv", ["gamma1", "gamma2", "class", "numerator"],
        g, g, "%.12g", "%s,%.17g", [names[codes], numer])


def _run_cap(cfg, seed: int, where: str):
    config = _support_from_config(cfg, where)
    h = _number(cfg, "h", where, None)
    refinement = _integer(cfg, "refinement", where, 2, minimum=0, maximum=_MAX_REFINEMENT)
    clock = _parsed(cfg, where)
    cap = support_cap(config, h)
    clock.lap("cap")
    if not isinstance(cap, SphericalCap):
        return clock, {"kind": "planar", "normal": list(map(float, cap.normal)),
                       "point": list(map(float, cap.point))}, None
    mesh = seed_mesh(config, h, refinement_level=refinement)
    clock.lap("seed")
    return clock, {"kind": "spherical", "center": list(map(float, cap.center)),
                   "radius": float(cap.radius), "h_signed": float(cap.h_signed),
                   "degenerate": bool(cap.degenerate)}, lambda out: write_obj(mesh, out / "cap.obj")


def _run_solve_graph(cfg, seed: int, where: str):
    a = _number(cfg, "a", where)
    b = _number(cfg, "b", where)
    gammas = tuple(_angles(cfg, "gammas", 4, where))
    grid_n = _integer(cfg, "grid_n", where, 32)
    clock = _parsed(cfg, where)
    prob = RectangleProblem(a, b, gammas, grid_n=grid_n)
    field = solve_rectangle(prob)
    pts = field.points()
    clock.lap("solve")
    fit = fit_sphere(pts)
    clock.lap("fit")
    return clock, {
        "a": a, "b": b, "gammas": list(gammas), "grid_n": grid_n,
        "h": prob.h, "corners": {k: tag.value for k, tag in prob.corners.items()},
        "iterations": field.iterations,
        "final_residual": field.final_residual, "trace": field.trace,
        "sphere_fit_relative_rms": fit.relative_rms,
    }, lambda out: _write_grid_csv(out / "field.csv", ["x", "y", "u"], field.x, field.y,
                                   "%.17g", "%.17g", [field.u])


def _run_evolve(cfg, seed: int, where: str):
    config = _support_from_config(cfg, where)
    h = _number(cfg, "h", where, None)
    if _flag(cfg, "planar", where, False):      # another spelling of h = 0
        if h not in (None, 0.0):
            raise ConfigError(f"{where}: key 'planar' means h = 0 and conflicts with h = {h:g}")
        h = 0.0
    refinement = _integer(cfg, "refinement", where, 2, minimum=0, maximum=_MAX_REFINEMENT)
    target_volume = _number(cfg, "target_volume", where, None)
    amp = _number(cfg, "perturbation", where, 0.0)
    if not 0.0 <= amp <= _MAX_PERTURBATION:
        raise ConfigError(f"{where}: key 'perturbation' must lie in [0, "
                          f"{_MAX_PERTURBATION:g}], got {amp}")
    max_iters = _integer(cfg, "max_iters", where, 1000)
    grad_tol = _number(cfg, "grad_tol", where, 1e-6)
    clock = _parsed(cfg, where)
    mesh = seed_mesh(config, h, target_volume, refinement)
    if amp > 0.0:
        mesh = perturb(mesh, amp, seed=seed)
    clock.lap("seed")
    evolved, rep = evolve(mesh, max_iters=max_iters, grad_tol=grad_tol)
    clock.lap("evolve")
    diag = diagnostics_report(evolved)
    clock.lap("diagnostics")
    return clock, {
        "iterations": rep.iterations, "converged": rep.converged,
        "final_energy": rep.final_energy,
        "final_gradient_norm": rep.final_gradient_norm,
        "volume": volume(evolved), "volume_error": rep.volume_error,
        "lagrange_h": rep.lagrange_h,
        "trace": rep.trace,
        "diagnostics": json.loads(diag.to_json()),
    }, lambda out: write_obj(evolved, out / "evolved.obj")


# -- verification suites ---------------------------------------------------


def _outcome(name, passed, measured, threshold, note=""):
    return {"criterion": name, "pass": bool(passed), "measured": measured,
            "threshold": threshold, "note": note}


def _with_solve(rep, outcomes) -> list:
    """The outcomes measured on one evolve, each with that solve's state."""
    state = {"converged": bool(rep.converged), "iterations": int(rep.iterations),
             "final_gradient_norm": float(rep.final_gradient_norm)}
    return [{**o, **state} for o in outcomes]


def _suite_formulas(seed) -> list:
    rng = np.random.default_rng(seed)
    interior = TAG_CODES[QTag.INTERIOR_Q]
    outcomes = []
    worst = 0
    for alpha in (np.pi / 6, np.pi / 4, np.pi / 3):
        g = np.linspace(0.0, np.pi, 181)
        g1, g2 = np.meshgrid(g, g, indexing="ij")
        codes, numer = classify_grid(alpha, g1, g2, band=0.0)
        s = g1 + g2 - np.pi
        d = g1 - g2
        margin = np.minimum(2 * alpha - np.abs(s), (np.pi - 2 * alpha) - np.abs(d))
        off_band = np.abs(margin) > 1e-6
        bad = np.count_nonzero(off_band & ((codes == interior) != (numer > 0)))
        worst = max(worst, bad)
    outcomes.append(_outcome("numerator-sign-vs-rectangle", worst == 0,
                             worst, 0, "disagreements outside 1e-6 band"))

    # rejection sampling of (alpha, g1, g2) rows in chunks of 8192 (196 KB),
    # which keep memory flat; the sample ends at its 10,000th interior row.
    # rng.random fills rows in stream order, so the chunk size leaves the
    # sample unchanged
    lo = np.array([0.05, 0.0, 0.0])
    hi = np.array([np.pi / 2 - 0.05, np.pi, np.pi])
    n_found, worst_id = 0, 0.0
    while n_found < 10000:
        draws = lo + (hi - lo) * rng.random((8192, 3))
        codes, numer = classify_grid(*draws.T)
        inside = codes == interior
        n = np.searchsorted(np.cumsum(inside), 10000 - n_found) + 1
        draws, codes, numer, inside = draws[:n], codes[:n], numer[:n], inside[:n]
        check_numerator_sign(*draws.T, codes, numer)
        n_found += np.count_nonzero(inside)
        _, cos2b, sin_sq = vertex_angle_grid(*draws[inside].T)
        worst_id = max(worst_id, float(np.max(np.abs(sin_sq - (1 - cos2b ** 2)),
                                              initial=0.0)))

    al, g = np.meshgrid(np.linspace(0.05, np.pi / 2 - 0.05, 60),
                        np.linspace(0.01, np.pi - 0.01, 120), indexing="ij")
    codes, numer = classify_grid(al, g, g)
    check_numerator_sign(al, g, g, codes, numer)
    keep = codes == interior
    two_beta, _, _ = vertex_angle_grid(al[keep], g[keep], g[keep])
    worst_lemma = float(np.max(two_beta - 2 * al[keep], initial=-np.inf))
    outcomes.append(_outcome("angle-identity", worst_id < 1e-12, worst_id, 1e-12))
    outcomes.append(_outcome("equal-angle-bound", worst_lemma <= 1e-12,
                             worst_lemma, 1e-12,
                             "vertex opening bounded by wedge opening"))
    return outcomes


def _suite_wente(seed) -> list:
    a, b = 1.0, 2.0
    sol = wente_halfcylinder(a, b)
    ys = np.linspace(0.05 * b, 0.95 * b, 2001)
    resid = np.abs(sol.residual(ys)).max()
    hcomp = compatibility_h(a, b, (np.pi / 2, np.pi / 2, 0.0, 0.0))
    return [
        _outcome("halfcylinder-residual", resid < 1e-10, float(resid), 1e-10),
        _outcome("compatibility-h", hcomp == 1.0 / b, hcomp, 1.0 / b,
                 "flux balance for mixed 0 / right-angle walls"),
    ]


def _suite_caps(seed) -> list:
    rng = np.random.default_rng(seed)
    worst_angle, found = 0.0, 0
    while found < 100:
        alpha = rng.uniform(0.05, np.pi / 2 - 0.05)
        g1, g2 = rng.uniform(0.0, np.pi, 2)
        if classify_data(alpha, g1, g2).tag is not QTag.INTERIOR_Q:
            continue
        found += 1
        w = WedgeConfig.canonical(alpha, g1, g2)
        cap = wedge_cap(w, 1.0)
        two_beta = vertex_angle(alpha, g1, g2).two_beta
        for v in edge_vertices(cap, w.edge_point, w.edge_dir):
            t1, t2 = wedge_vertex_tangents(cap, w, v)
            worst_angle = max(worst_angle,
                              abs(np.arccos(np.clip(np.dot(t1, t2), -1.0, 1.0)) - two_beta))
    # 300 rows (alpha, g1, g2), filled in stream order: the values 300 loops of
    # one alpha and one (g1, g2) draw would take, classified in one call
    draws = rng.uniform((0.05, 0.0, 0.0), (np.pi / 2 - 0.05, np.pi, np.pi), (300, 3))
    codes, numer = classify_grid(*draws.T)
    check_numerator_sign(*draws.T, codes, numer)
    admissible = np.isin(codes, [TAG_CODES[QTag.INTERIOR_Q], TAG_CODES[QTag.BOUNDARY_Q_D1]])
    mismatches = 0
    for (alpha, g1, g2), admits in zip(draws.tolist(), admissible.tolist()):
        try:
            wedge_cap(WedgeConfig.canonical(alpha, g1, g2), 1.0)
            exists = True
        except NoSolutionError:
            exists = False
        mismatches += int(exists != admits)

    worst_cos, found = 0.0, 0
    while found < 100:
        gammas = tuple(rng.uniform(np.pi / 4 + 0.02, 3 * np.pi / 4 - 0.02, 3))
        try:
            cap = trihedral_cap(TrihedralConfig.orthant(gammas), 1.0)
        except NoSolutionError:
            continue
        found += 1
        for p, g in zip(cap.config_ref.planes, gammas):
            worst_cos = max(worst_cos, abs(-p.signed_distance(cap.center) / cap.radius
                                           - np.cos(g)))
    # the orthant sphere passes through the apex at equal angles arccos(1/sqrt(3))
    g_star = float(np.arccos(np.sqrt(3.0) / 3.0))
    flags = [trihedral_cap(TrihedralConfig.orthant((g,) * 3), 1.0).degenerate
             for g in (g_star - 0.01, g_star, g_star + 0.01)]

    # a sphere of radius R about the origin as a radial graph u = R
    R = 2.5
    theta = np.linspace(0.0, np.pi / 2, 41)
    phi = np.linspace(0.3, np.pi - 0.3, 37)
    u = np.full((theta.size, phi.size), R)
    worst_cmc = float(np.abs(spherical_cmc_residual(
        SphericalGraphField(theta, phi, u, h=-1.0 / R))).max())
    res_min = spherical_cmc_residual(SphericalGraphField(theta, phi, u, h=0.0))
    trim = (phi.size - res_min.shape[1]) // 2
    expected = -2.0 * np.sin(phi[trim:phi.size - trim])[None, :]
    worst_min = float(np.abs(res_min - expected).max())
    return [
        _outcome("cap-vertex-angle", worst_angle < 1e-9, float(worst_angle), 1e-9,
                 "wedge caps of 100 interior data vs closed form"),
        _outcome("cap-existence", mismatches == 0, mismatches, 0,
                 "300 data: a wedge cap exists iff the data are admissible"),
        _outcome("trihedral-contact-angles", worst_cos < 1e-12, float(worst_cos), 1e-12,
                 "cosine error over 100 orthant caps"),
        _outcome("degenerate-flag", flags == [False, True, False], flags,
                 [False, True, False], "orthant caps at arccos(1/sqrt(3)) - 0.01, +0, +0.01"),
        _outcome("radial-cmc-residual", worst_cmc < 1e-12, worst_cmc, 1e-12,
                 "sphere of radius 2.5 at h = -1/R"),
        _outcome("radial-minimal-residual", worst_min < 1e-12, worst_min, 1e-12,
                 "the same sphere at h = 0 vs -2 sin(phi)"),
    ]


def _suite_counterexample(seed, grid_n=96) -> list:
    # the square's observed order needs a second, coarser solve
    coarse_n = max(grid_n // 4, 16)
    square, coarse = (RectangleProblem(1.0, 1.0, (np.pi / 3,) * 4, grid_n=n)
                      for n in (grid_n, coarse_n))
    solves = {"coarse-square": solve_rectangle(coarse), "square": solve_rectangle(square),
              "rectangle": solve_rectangle(RectangleProblem(1.0, 2.0, (1.2,) * 4, grid_n=grid_n))}
    err, err_coarse = (float(np.abs(solves[k].u - exact_square_cap(p)).max())
                       for k, p in (("square", square), ("coarse-square", coarse)))
    # at grid_n 16 both solves are the same grid, which has no order
    order = (float(np.log2(err_coarse / err) / np.log2(grid_n / coarse_n))
             if coarse_n != grid_n else float("nan"))
    ratio = (fit_sphere(solves["rectangle"].points()).relative_rms
             / fit_sphere(solves["square"].points()).relative_rms)
    state = {"iterations": {k: f.iterations for k, f in solves.items()},
             "final_residual": {k: f.final_residual for k, f in solves.items()},
             **{key: {k: f.trace[key] for k, f in solves.items()}
                for key in ("krylov", "missed", "seconds")}}
    return [{**o, **state} for o in [
        _outcome("square-error", err <= 5e-3, err, 5e-3, "max error vs the exact cap"),
        _outcome("square-order", order >= 1.9, order, 1.9,
                 f"observed order from grid_n {coarse_n} to {grid_n}"),
        _outcome("non-sphericity-ratio", ratio >= 20.0, float(ratio), 20.0,
                 "elongated-rectangle solution vs square cap"),
    ]]


def _evolve_sphere_check(config, refinement, seed, max_iters, h=None):
    """The perturbed seed relaxed by ``evolve``: the mesh and its convergence report."""
    return evolve(perturb(seed_mesh(config, h, refinement_level=refinement),
                          _SUITE_PERTURBATION, seed=seed), max_iters=max_iters)


def _suite_theorem1(seed, refinement=4, max_iters=1100) -> list:
    config = WedgeConfig.canonical(np.pi / 4, 2 * np.pi / 3, 2 * np.pi / 3)
    evolved, rep = _evolve_sphere_check(config, refinement, seed, max_iters)
    diag = diagnostics_report(evolved)
    two_beta = vertex_angle(np.pi / 4, 2 * np.pi / 3, 2 * np.pi / 3).two_beta
    worst_beta = max(abs(v - two_beta) for v in diag.vertex_angles.values())
    worst_ca = max(diag.contact_angle_max_error.values())
    return _with_solve(rep, [
        _outcome("sphere-fit", diag.sphere_relative_rms < 1e-3,
                 diag.sphere_relative_rms, 1e-3),
        _outcome("mean-curvature-cv", diag.mean_curvature_cv < 1e-2,
                 diag.mean_curvature_cv, 1e-2),
        _outcome("contact-angle", worst_ca < np.radians(1.0),
                 float(worst_ca), float(np.radians(1.0))),
        _outcome("vertex-angle", worst_beta < np.radians(2.0),
                 float(worst_beta), float(np.radians(2.0)),
                 "opening vs closed form arccos(1/3)"),
    ])


def _suite_theorem3(seed, refinement=3, max_iters=None) -> list:
    flat_cfg = TrihedralConfig.orthant((float(np.arccos(np.sqrt(3.0) / 3.0)),) * 3)
    evolved, rep = _evolve_sphere_check(flat_cfg, refinement, seed,
                                        600 if max_iters is None else max_iters, h=0.0)
    plane = fit_plane(evolved.vertices)
    diam = float(np.ptp(evolved.vertices, axis=0).max())
    flat = _with_solve(rep, [_outcome("planar-mode", plane.rms < 1e-4 * diam,
                                      plane.rms / diam, 1e-4, "flat drop stays flat")])
    round_cfg = TrihedralConfig.orthant((np.pi / 2,) * 3)
    evolved, rep = _evolve_sphere_check(round_cfg, refinement, seed,
                                        800 if max_iters is None else max_iters)
    diag = diagnostics_report(evolved)
    return flat + _with_solve(rep, [
        _outcome("sphere-fit", diag.sphere_relative_rms < 1e-3, diag.sphere_relative_rms, 1e-3),
        _outcome("volume-error", rep.volume_error < 1e-8, rep.volume_error, 1e-8),
    ])


def _suite_theorem4(seed, refinement=3, max_iters=800) -> list:
    config = TrihedralConfig.regular_cylinder(1.0, (1.9,) * 3)
    cap = cylinder_cap(config)
    # signed: the center sits at -R cos(gamma) from each wall
    worst = max(abs(-p.signed_distance(cap.center) / cap.radius - np.cos(p.gamma))
                for p in config.planes)
    evolved, rep = _evolve_sphere_check(config, refinement, seed, max_iters)
    diag = diagnostics_report(evolved)
    return [_outcome("cap-contact-angles", worst < 1e-12, float(worst), 1e-12),
            *_with_solve(rep, [_outcome("sphere-fit", diag.sphere_relative_rms < 1e-3,
                                        diag.sphere_relative_rms, 1e-3)])]


def _suite_umbilicity(seed) -> list:
    config = WedgeConfig.canonical(np.pi / 4, 2 * np.pi / 3, 2 * np.pi / 3)
    u_sphere = umbilicity_rms(seed_mesh(config, h=0.25, refinement_level=4))
    sol = wente_halfcylinder(2.0, 1.0)
    n = 65
    ys = np.linspace(0.05, 0.95, n)
    grid = np.empty((n, n, 3))
    grid[..., 0] = np.linspace(0.0, 2.0, n)[:, None]
    grid[..., 1] = ys[None, :]
    grid[..., 2] = sol.height(ys)[None, :]
    ratio = umbilicity_rms(structured_surface(grid)) / u_sphere
    return [
        _outcome("sphere-umbilicity", u_sphere < 5e-2, u_sphere, 5e-2,
                 "refinement-4 wedge-cap seed"),
        _outcome("cylinder-separation", ratio > 10.0, ratio, 10.0,
                 "65^2 half-cylinder vs the sphere seed"),
    ]


def _suite_gradient(seed) -> list:
    rng = np.random.default_rng(seed)
    eps = 1e-6
    worst = 0.0
    for config in (WedgeConfig.canonical(np.pi / 4, 2 * np.pi / 3, 2 * np.pi / 3),
                   TrihedralConfig.orthant((np.pi / 2,) * 3),
                   TrihedralConfig.regular_cylinder(1.0, (1.9,) * 3)):
        mesh = perturb(seed_mesh(config, refinement_level=2), 0.005, seed=seed)
        g = energy_gradient(mesh)
        scale = np.linalg.norm(g)
        for _ in range(17):
            i = rng.integers(mesh.n_vertices)
            d = rng.standard_normal(3)
            d /= np.linalg.norm(d)
            pair = []
            for sign in (1.0, -1.0):
                trial = mesh.copy()
                trial.vertices[i] += sign * eps * d
                pair.append(energy(trial).total)
            fd = (pair[0] - pair[1]) / (2.0 * eps)
            worst = max(worst, abs(fd - np.dot(g[i], d)) / scale)
    return [_outcome("energy-gradient", worst < 1e-5, float(worst), 1e-5,
                     "51 central differences on three perturbed seeds, relative to |grad|")]


_SUITE_RUNNERS = {
    "theorem1-wedge": _suite_theorem1,
    "theorem3-trihedral": _suite_theorem3,
    "theorem4-cylinder": _suite_theorem4,
    "counterexample-v4": _suite_counterexample,
    "wente": _suite_wente,
    "formulas": _suite_formulas,
    "caps": _suite_caps,
    "umbilicity": _suite_umbilicity,
    "gradient": _suite_gradient,
}


def _suite_options(name: str) -> list:
    """The options suite ``name`` reads: its runner's parameters after ``seed``."""
    if name not in _SUITE_RUNNERS:
        raise DomainError(f"unknown suite {name!r}; choose from {', '.join(_SUITE_RUNNERS)}")
    return list(inspect.signature(_SUITE_RUNNERS[name]).parameters)[1:]


def verify_suite(name: str, seed: int = 0, **opts) -> list:
    """Run a named verification recipe; returns a list of outcome records. ``opts`` set
    the suite runner's keyword parameters; any other one raises DomainError before any work."""
    options = _suite_options(name)
    stray = ", ".join(repr(key) for key in opts if key not in options)
    if stray:
        raise DomainError(f"suite {name!r} reads {', '.join(options) or 'no option'}, not {stray}")
    return _SUITE_RUNNERS[name](_check_seed(seed), **opts)


def _run_verify(cfg, seed: int, where: str):
    suite = _require(cfg, "suite", str, where)
    bounds = {"refinement": (0, _MAX_REFINEMENT), "grid_n": (1, None), "max_iters": (1, None)}
    opts = {k: _integer(cfg, k, where, None, *bounds[k]) for k in _suite_options(suite) if k in cfg}
    clock = _parsed(cfg, where)
    outcomes = verify_suite(suite, seed=seed, **opts)
    clock.lap("suite")
    for o in outcomes:
        print(f"[{'PASS' if o['pass'] else 'FAIL'}] {suite}/{o['criterion']}: "
              f"measured {o['measured']} vs threshold {o['threshold']}")
    return clock, {"suite": suite, "outcomes": outcomes,
                   "pass": all(o["pass"] for o in outcomes)}, None


_SCENARIOS = {
    "classify": _run_classify,
    "cap": _run_cap,
    "solve-graph": _run_solve_graph,
    "evolve": _run_evolve,
    "verify": _run_verify,
}


def _check_seed(seed) -> int:
    """The master seed as an int; anything but an integer in [0, 2**64) is a ``DomainError``."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) \
            or not 0 <= seed < _SEED_LIMIT:
        raise DomainError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


def _seed_arg(text: str) -> int:
    """``--seed``: an integer literal (decimal, 0x, 0o or 0b) in [0, 2**64)."""
    try:
        return _check_seed(int(text, 0))
    except (ValueError, DomainError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def run(config_path, out_dir=None, seed: int = 0, subcommand=None) -> int:
    """Execute one scenario config; returns the process exit code. A ``seed``
    other than an integer in [0, 2**64) is refused with exit 2, and a
    failing ``verify`` report exits 1."""
    where = str(config_path)
    try:
        seed = _check_seed(seed)
        cfg = _load_config(config_path)
        kind = _require(cfg, "kind", str, where)
        if kind not in _SCENARIOS:
            raise ConfigError(f"{where}: unrecognized kind {kind!r}")
        if subcommand is not None and kind != subcommand:
            raise ConfigError(
                f"{where}: config kind '{kind}' does not match subcommand '{subcommand}'")
        out = _require(cfg, "out", str, where) if "out" in cfg else "out"
        out = Path(out_dir if out_dir is not None else out)
        clock, fields, write = _SCENARIOS[kind](cfg, seed, where)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, NoSolutionError, NonConvergenceError, MeshDegenerationError) as exc:
        # a solve that failed to converge ends the line with its last residuals
        last = getattr(exc, "trace", [])[-_TRACE_TAIL:]
        tail = "; last residuals " + ", ".join(f"{r:.6e}" for r in last) if last else ""
        print(f"error: {exc}{tail}", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    if write is not None:
        write(out)
        clock.lap("write")
    report = {"scenario": kind, "seed": seed, "version": __version__, **fields,
              "timings": clock.seconds}
    (out / "report.json").write_text(json.dumps(report, indent=2))
    return 0 if report.get("pass", True) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="capvertex",
        description="Capillary drops on intersecting support planes: "
                    "classification, analytic caps, PDE graphs, mesh evolution.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _SCENARIOS:
        p = sub.add_parser(name, help=f"run a '{name}' scenario config")
        p.add_argument("--config", required=True, help="JSON scenario config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=_seed_arg, default=0,
                       help="64-bit master seed in [0, 2**64), recorded in every report")
    args = parser.parse_args(argv)
    return run(args.config, args.out, args.seed, args.subcommand)


if __name__ == "__main__":
    sys.exit(main())

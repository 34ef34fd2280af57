"""Constrained energy descent for triangulated drops.

The energy is the free surface area minus, for each wall, the cosine of the
prescribed contact angle times the wetted wall area. The enclosed volume is
held fixed by a scalar Newton projection after each descent step. All
gradients are analytic; validity is established in the tests against central
finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MeshDegenerationError, NonConvergenceError
from .meshes import FREE, ON_EDGE, ON_PLANE, TriMeshDrop

__all__ = [
    "EnergyBreakdown", "ConvergenceReport",
    "surface_area", "wetted_areas", "volume", "energy",
    "surface_area_gradient", "volume_gradient", "energy_gradient",
    "project_tangent", "vertex_dual_areas", "evolve",
]


@dataclass(frozen=True)
class EnergyBreakdown:
    total: float
    free_surface_area: float
    wetted_areas: tuple[float, ...]
    volume: float


@dataclass
class ConvergenceReport:
    iterations: int = 0
    converged: bool = False
    final_energy: float = np.nan
    final_gradient_norm: float = np.nan
    volume_error: float = np.nan
    lagrange_h: float = np.nan
    energy_history: list = field(default_factory=list)
    trace: list = field(default_factory=list)


# -- scalar functionals ----------------------------------------------------


def surface_area(mesh: TriMeshDrop) -> float:
    return float(mesh.triangle_areas().sum())


def _flux_integral(mesh: TriMeshDrop) -> float:
    """Integral of position dotted with the outward normal over the surface."""
    v, t = mesh.vertices, mesh.triangles
    a, b, c = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    w = np.cross(b - a, c - a)
    s = a + b + c
    return float(np.einsum("ij,ij->", s, w)) / 6.0


def _wall_polygons(mesh: TriMeshDrop):
    """2-D wetted polygons per wall: (wall, vertex indices, closed 2-D coords).

    The index array covers only the movable polyline part; closure points
    (apex, base corners) are appended to the coordinates with no indices.
    """
    sup = mesh.support
    out = []
    for j, seg in mesh.wall_polylines().items():
        pts = mesh.vertices[seg]
        if sup.kind == "apex":
            closure = [sup.config.apex]
        elif sup.kind == "cylinder":
            g, z0 = sup.base_normal, sup.base_offset

            def to_base(p):
                return p - (np.dot(g, p) - z0) * g

            closure = [to_base(pts[-1]), to_base(pts[0])]
        else:
            closure = []  # the chord between the edge crossings lies in the wall
        stack = np.vstack([pts] + closure) if closure else pts
        out.append((j, seg, sup.wall_coords(j, stack)))
    return out


def _shoelace(coords: np.ndarray) -> float:
    x, y = coords[:, 0], coords[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def wetted_areas(mesh: TriMeshDrop) -> dict[int, float]:
    """Signed wetted area on each wall (positive for an outward-oriented mesh)."""
    return {j: _shoelace(coords) for j, _, coords in _wall_polygons(mesh)}


def volume(mesh: TriMeshDrop) -> float:
    """Enclosed liquid volume from the divergence theorem.

    Wall contributions reduce to offset times wetted area; for a cylindrical
    support the base patch closes the region at the base gauge plane.
    """
    sup = mesh.support
    total = _flux_integral(mesh)
    wet = wetted_areas(mesh)
    for j, p in enumerate(sup.planes):
        total -= p.offset * wet[j]
    if sup.kind == "cylinder":
        total -= sup.base_offset * sup.base_triangle_area()
    return total / 3.0


def energy(mesh: TriMeshDrop) -> EnergyBreakdown:
    wet = wetted_areas(mesh)
    area = surface_area(mesh)
    total = area - sum(np.cos(mesh.support.planes[j].gamma) * wet[j] for j in wet)
    return EnergyBreakdown(total, area, tuple(wet[j] for j in sorted(wet)),
                           volume(mesh))


# -- gradients -------------------------------------------------------------


def surface_area_gradient(mesh: TriMeshDrop) -> np.ndarray:
    v, t = mesh.vertices, mesh.triangles
    a, b, c = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    w = np.cross(b - a, c - a)
    nhat = w / np.linalg.norm(w, axis=1)[:, None]
    grad = np.zeros_like(v)
    np.add.at(grad, t[:, 0], 0.5 * np.cross(nhat, c - b))
    np.add.at(grad, t[:, 1], 0.5 * np.cross(nhat, a - c))
    np.add.at(grad, t[:, 2], 0.5 * np.cross(nhat, b - a))
    return grad


def _flux_gradient(mesh: TriMeshDrop) -> np.ndarray:
    v, t = mesh.vertices, mesh.triangles
    a, b, c = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    w = np.cross(b - a, c - a)
    s = a + b + c
    grad = np.zeros_like(v)
    np.add.at(grad, t[:, 0], (w + np.cross(b - c, s)) / 6.0)
    np.add.at(grad, t[:, 1], (w + np.cross(c - a, s)) / 6.0)
    np.add.at(grad, t[:, 2], (w + np.cross(a - b, s)) / 6.0)
    return grad


def _wetted_area_gradients(mesh: TriMeshDrop) -> dict[int, np.ndarray]:
    """Per-wall shoelace gradients, mapped back to 3-D vertex positions."""
    sup = mesh.support
    out = {}
    for j, seg, coords in _wall_polygons(mesh):
        eu, ev = sup.wall_frame(j)
        x, y = coords[:, 0], coords[:, 1]
        gx = 0.5 * (np.roll(y, -1) - np.roll(y, 1))
        gy = 0.5 * (np.roll(x, 1) - np.roll(x, -1))
        grad = np.zeros_like(mesh.vertices)
        k = len(seg)
        np.add.at(grad, seg, gx[:k, None] * eu + gy[:k, None] * ev)
        out[j] = grad
    return out


def volume_gradient(mesh: TriMeshDrop) -> np.ndarray:
    grad = _flux_gradient(mesh)
    for j, g in _wetted_area_gradients(mesh).items():
        grad -= mesh.support.planes[j].offset * g
    return grad / 3.0


def energy_gradient(mesh: TriMeshDrop) -> np.ndarray:
    grad = surface_area_gradient(mesh)
    for j, g in _wetted_area_gradients(mesh).items():
        grad -= np.cos(mesh.support.planes[j].gamma) * g
    return grad


def project_tangent(mesh: TriMeshDrop, grad: np.ndarray) -> np.ndarray:
    """Project a vertex vector field onto the constraint-tangent directions."""
    out = grad.copy()
    for i in np.nonzero(mesh.tag_kind == ON_PLANE)[0]:
        n = mesh.support.planes[mesh.tag_id[i]].normal
        out[i] -= np.dot(out[i], n) * n
    for i in np.nonzero(mesh.tag_kind == ON_EDGE)[0]:
        d = mesh.support.edges[mesh.tag_id[i]].direction
        out[i] = np.dot(out[i], d) * d
    return out


def vertex_dual_areas(mesh: TriMeshDrop) -> np.ndarray:
    areas = mesh.triangle_areas()
    out = np.zeros(mesh.n_vertices)
    for k in range(3):
        np.add.at(out, mesh.triangles[:, k], areas / 3.0)
    return out


# -- volume restoration ----------------------------------------------------


def _restore_volume(mesh: TriMeshDrop, target: float, rel_tol: float = 1e-10,
                    max_newton: int = 12) -> float:
    """Move along the projected volume gradient until the volume matches."""
    scale = max(abs(target), 1e-30)
    for _ in range(max_newton):
        err = volume(mesh) - target
        if abs(err) <= rel_tol * scale:
            return err
        m = project_tangent(mesh, volume_gradient(mesh))
        denom = float(np.einsum("ij,ij->", m, m))
        if denom < 1e-30:
            raise MeshDegenerationError("volume gradient vanished during restoration")
        mesh.vertices -= (err / denom) * m
    err = volume(mesh) - target
    if abs(err) > 1e-8 * scale:
        raise NonConvergenceError("volume restoration stalled", trace=[err])
    return err


def _smooth(mesh: TriMeshDrop, coeff: float):
    """Tangential area-weighted Laplacian; constrained vertices slide only."""
    from .meshes import vertex_normals
    v = mesh.vertices
    nbrs = [np.fromiter(s, dtype=np.int64) for s in mesh.one_ring()]
    weights = vertex_dual_areas(mesh)
    normals = vertex_normals(mesh)
    disp = np.zeros_like(v)
    for i in range(mesh.n_vertices):
        nb = nbrs[i]
        w = weights[nb]
        target = (w[:, None] * v[nb]).sum(axis=0) / w.sum()
        d = target - v[i]
        if mesh.tag_kind[i] == FREE:
            d -= np.dot(d, normals[i]) * normals[i]
        disp[i] = d
    disp = project_tangent(mesh, disp)
    mesh.vertices += coeff * disp


def _reduced_basis(mesh: TriMeshDrop):
    """Affine parametrization respecting the constraints.

    Free vertices keep three degrees of freedom, plane vertices two in-plane
    directions, edge-line vertices one along-line direction.
    """
    dof_vertex, dof_dir = [], []
    for i in range(mesh.n_vertices):
        if mesh.tag_kind[i] == FREE:
            for k in range(3):
                dof_vertex.append(i)
                dof_dir.append(np.eye(3)[k])
        elif mesh.tag_kind[i] == ON_PLANE:
            eu, ev = mesh.support.wall_frame(mesh.tag_id[i])
            dof_vertex += [i, i]
            dof_dir += [eu, ev]
        else:
            dof_vertex.append(i)
            dof_dir.append(mesh.support.edges[mesh.tag_id[i]].direction)
    return np.array(dof_vertex), np.array(dof_dir)


def _residual_norm(mesh: TriMeshDrop, fixed_volume: bool):
    """Max constrained-force residual and the Lagrange multiplier estimate."""
    ge = project_tangent(mesh, energy_gradient(mesh))
    lam = 0.0
    if fixed_volume:
        gv = project_tangent(mesh, volume_gradient(mesh))
        gv2 = float(np.einsum("ij,ij->", gv, gv))
        if gv2 > 1e-30:
            lam = float(np.einsum("ij,ij->", ge, gv)) / gv2
            ge = ge - lam * gv
    return float(np.linalg.norm(ge, axis=1).max()), lam


def evolve(mesh: TriMeshDrop, max_iters: int = 2000, grad_tol: float = 1e-8,
           fixed_volume: bool = True, smoothing: float = 0.2,
           n_outer: int = 12):
    """Minimize the capillary energy at fixed enclosed volume.

    Quasi-Newton descent in constraint-reduced coordinates with an augmented
    Lagrangian carrying the volume constraint, followed by an exact volume
    restoration. Returns the relaxed mesh and a convergence report; the
    Lagrange estimate in the report is half the energy-to-volume gradient
    ratio, which for an equilibrium spherical surface is the reciprocal of
    its radius. ``report.trace`` holds one record per outer loop.
    """
    from scipy.optimize import minimize

    work = mesh.copy()
    target = work.target_volume if work.target_volume is not None else volume(work)
    work.target_volume = target
    report = ConvergenceReport()
    report.energy_history.append(energy(work).total)

    dof_vertex, dof_dir = _reduced_basis(work)
    scale = max(abs(target), 1e-30)
    _, lam_aug = _residual_norm(work, fixed_volume)
    mu = 1e3 * max(1.0, abs(report.energy_history[0])) / scale ** 2
    inner_budget = max_iters

    def set_q(q):
        v = x0 + np.zeros_like(x0)
        np.add.at(v, dof_vertex, q[:, None] * dof_dir)
        work.vertices = v

    def reduce_grad(g):
        return np.einsum("ij,ij->i", g[dof_vertex], dof_dir)

    def objective(q):
        set_q(q)
        e = energy(work).total
        if fixed_volume:
            dv = volume(work) - target
            e += -lam_aug * dv + 0.5 * mu * dv * dv
        g = energy_gradient(work)
        if fixed_volume:
            g = g + (mu * dv - lam_aug) * volume_gradient(work)
        return e, reduce_grad(g)

    best_state, best_resid = None, np.inf
    for outer in range(n_outer):
        if inner_budget <= 0:
            break
        if smoothing > 0.0 and outer > 0:
            trial = work.copy()
            _smooth(trial, smoothing)
            try:
                if fixed_volume:
                    _restore_volume(trial, target)
                ok = (trial.triangle_areas().min() > 1e-14)
            except (MeshDegenerationError, NonConvergenceError):
                ok = False
            if ok:
                work = trial
        x0 = work.vertices.copy()
        q0 = np.zeros(len(dof_vertex))
        res = minimize(objective, q0, jac=True, method="L-BFGS-B",
                       options={"maxiter": min(inner_budget, 500), "ftol": 1e-16,
                                "gtol": 1e-12, "maxcor": 30})
        set_q(res.x)
        inner_budget -= res.nit
        report.iterations += res.nit
        dv = volume(work) - target
        if fixed_volume:
            lam_aug -= mu * dv
            if abs(dv) > 1e-4 * scale:
                mu *= 10.0

        min_area = float(work.triangle_areas().min())
        if min_area <= 1e-14:
            raise MeshDegenerationError("triangle collapsed during evolution")

        gnorm, lam = _residual_norm(work, fixed_volume)
        if gnorm < best_resid:
            best_resid, best_state = gnorm, work.copy()
        report.energy_history.append(energy(work).total)
        report.trace.append({"nit": int(res.nit), "energy": float(report.energy_history[-1]),
                             "residual": gnorm, "volume_error": float(dv), "mu": float(mu),
                             "multiplier": float(lam_aug), "min_area": min_area})
        vol_ok = (not fixed_volume) or abs(dv) < 1e-6 * scale
        if gnorm < grad_tol and vol_ok:
            report.converged = True
            break

    if best_state is not None:
        work = best_state
    if fixed_volume:
        _restore_volume(work, target)
    gnorm, lam = _residual_norm(work, fixed_volume)
    report.final_gradient_norm = gnorm
    report.converged = report.converged or gnorm < grad_tol
    report.lagrange_h = 0.5 * lam
    report.final_energy = energy(work).total
    report.volume_error = abs(volume(work) - target)
    work.lagrange_h = report.lagrange_h
    return work, report

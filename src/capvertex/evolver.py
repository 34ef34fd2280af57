"""Constrained energy descent for triangulated drops.

The energy is the free surface area minus, for each wall, the cosine of the
prescribed contact angle times the wetted wall area. The enclosed volume is
held fixed by a scalar Newton projection after each descent step. All
gradients are analytic; validity is established in the tests against central
finite differences.

One evaluation pass, ``_evaluate``, yields the energy, the volume and their
gradients at a vertex state: it computes each triangle's cross product and
builds each wetted wall polygon once. ``energy``, ``volume`` and their
gradients are one-line reads of that pass, and code that needs several of
them at one state calls the pass once and reads its fields.

Two sparse operators cached with the mesh topology carry every sum and every
constraint. The corner incidence ``C`` sums per-corner values onto vertices;
there is no scatter outside ``C``. The constraint basis ``R`` maps a vertex
field to the coordinates its constraints allow: the projection is
``R^T R g``, and the descent runs on ``q`` with vertices ``x0 + R^T q``.
``R^T`` is cached as a CSR matrix beside ``R``, so no product rebuilds it.

The rest of an evaluation's fixed cost is cached with the topology too: the
wall layout, each wetted polygon's polyline with the cyclic next/previous
indices of its closed polygon, is built once per triangulation, and so are
the (3, T) corner indices. The triangle stage runs component-major: one
gather gives the corner positions as a (coordinate, corner, T) array, so
every product, cross product (``meshes._cross``, in ``np.cross``'s operation
order) and norm runs on contiguous rows of T values, and the edges opposite
the corners are one subtraction of two corner permutations. The per-corner
gradients are written into the (3, T, 6) rows that ``C`` sums. The volume is
summed over triangle-major copies, the layout its summation order was
defined on. Every result is the same to the bit as the (T, 3)
array-of-triangles pass with ``np.cross`` and ``np.linalg.norm``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import MeshDegenerationError, NonConvergenceError
from .meshes import FREE, TriMeshDrop, _cross, vertex_normals

__all__ = [
    "EnergyBreakdown", "ConvergenceReport",
    "volume", "energy", "volume_gradient", "energy_gradient",
    "project_tangent", "vertex_dual_areas", "evolve",
]

# the fraction of the tangential Laplacian move that smoothing takes between
# outer loops
_SMOOTHING = 0.2
# volume restoration: at most this many Newton steps, to this relative error
_RESTORE_STEPS = 12
_RESTORE_RTOL = 1e-10
# at most this many outer loops: an L-BFGS run, then smoothing and volume
# restoration before the next
_OUTER_LOOPS = 12


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
    trace: list = field(default_factory=list)


# -- the evaluation pass ---------------------------------------------------


class _Evaluation(NamedTuple):
    breakdown: EnergyBreakdown
    energy_gradient: np.ndarray
    volume_gradient: np.ndarray


def _build_wall_layout(mesh: TriMeshDrop) -> tuple:
    """Index arrays of each wetted wall polygon, in wall-polyline order.

    A record per wall: the wall, its polyline ``seg`` (n vertices), the cyclic
    successor of each of the closed polygon's m corners (the polyline, then
    the apex or the two base corners) and the cyclic predecessor of each
    polyline vertex.
    """
    closure = {"wedge": 0, "apex": 1, "cylinder": 2}[mesh.support.kind]
    out = []
    for j, seg in mesh.wall_polylines().items():
        n, m = len(seg), len(seg) + closure
        nxt, prv = np.arange(1, m + 1) % m, np.arange(-1, n - 1) % m
        nxt.flags.writeable = prv.flags.writeable = False
        out.append((j, seg, nxt, prv))
    return tuple(out)


def _evaluate(mesh: TriMeshDrop) -> _Evaluation:
    """Energy, volume and their gradients from one walk over triangles and walls.

    Each triangle's cross product and each wall's wetted polygon are computed
    once. The free-surface volume term is the flux of position through the
    surface; a wall contributes its offset times its wetted area. In a
    cylinder the base patch closes the region in the base plane, which is
    orthogonal to the generator and passes through the origin: its offset
    is 0, so it adds no term. A wetted polygon is the wall's contact polyline closed through the
    apex, through the base corners (cylinder), or by the chord between the
    edge crossings, which lies in the wall (wedge); only the polyline
    vertices move, so only they carry shoelace gradients.
    """
    sup, v = mesh.support, mesh.vertices
    p = np.take(v.T, mesh.corners(), axis=1)         # (coordinate, corner, T)
    a, b, c = p[:, 0], p[:, 1], p[:, 2]
    w = _cross(b - a, c - a, axis=0)
    s = a + b + c
    norms = np.sqrt(w[0] * w[0] + w[1] * w[1] + w[2] * w[2])
    area = float((0.5 * norms).sum())
    # n and s broadcast over the corner axis of the edges, edge k opposite corner k
    n, sc = (w / norms)[:, None], s[:, None]
    e = np.take(p, [2, 0, 1], axis=1) - np.take(p, [1, 2, 0], axis=1)
    # per corner, the area gradient 0.5 n x e and the flux gradient
    # (w - e x s) / 6: each component is formed on contiguous rows, then
    # written once into the (3, T, 6) rows that C sums onto the vertices
    corner = np.empty((3, len(norms), 6))
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        x = n[i] * e[j]
        x -= n[j] * e[i]
        np.multiply(x, 0.5, out=corner[..., k])
        x = e[i] * sc[j]
        x -= e[j] * sc[i]
        np.subtract(w[k], x, out=x)
        np.divide(x, 6.0, out=corner[..., 3 + k])
    grads = mesh.corner_incidence() @ corner.reshape(-1, 6)
    # the area and flux gradients; each wall below subtracts its terms in place
    energy_grad, flux_grad = grads[:, :3], grads[:, 3:]

    wet = {}
    for j, seg, nxt, prv in mesh._derived("wall_layout", lambda: _build_wall_layout(mesh)):
        pts = v[seg]
        if sup.kind == "apex":
            pts = np.concatenate((pts, sup.config.apex[None]))
        elif sup.kind == "cylinder":  # drop both ends onto the base plane
            g, ends = sup.config.generator, pts[[-1, 0]]
            pts = np.concatenate((pts, ends - np.vecdot(ends, g)[:, None] * g))
        # x and y stay strided columns of one array: contiguous copies would
        # change the summation order of np.dot
        x, y = sup.wall_coords(j, pts).T
        xn, yn = x[nxt], y[nxt]
        wet[j] = 0.5 * float(np.dot(x, yn) - np.dot(y, xn))
        eu, ev = sup.frames[j]
        n = len(seg)                    # a polyline visits each vertex once
        grad = (0.5 * (yn[:n] - y[prv]))[:, None] * eu + (0.5 * (x[prv] - xn[:n]))[:, None] * ev
        energy_grad[seg] -= sup.cos_gammas[j] * grad
        flux_grad[seg] -= sup.offsets[j] * grad

    # summed over triangle-major (T, 3) copies: einsum's order depends on the layout
    vol = float(np.einsum("ij,ij->", s.T.copy(), w.T.copy())) / 6.0
    for j, offset in enumerate(sup.offsets):
        vol -= offset * wet[j]
    total = area - sum(sup.cos_gammas[j] * wet[j] for j in wet)
    breakdown = EnergyBreakdown(total, area, tuple(wet[j] for j in sorted(wet)), vol / 3.0)
    return _Evaluation(breakdown, energy_grad, flux_grad / 3.0)


# -- reads of the pass -----------------------------------------------------


def volume(mesh: TriMeshDrop) -> float:
    """Enclosed liquid volume from the divergence theorem."""
    return _evaluate(mesh).breakdown.volume


def energy(mesh: TriMeshDrop) -> EnergyBreakdown:
    return _evaluate(mesh).breakdown


def volume_gradient(mesh: TriMeshDrop) -> np.ndarray:
    return _evaluate(mesh).volume_gradient


def energy_gradient(mesh: TriMeshDrop) -> np.ndarray:
    return _evaluate(mesh).energy_gradient


def project_tangent(mesh: TriMeshDrop, grad: np.ndarray) -> np.ndarray:
    """Project a vertex vector field onto the constraint-tangent directions."""
    R, Rt = mesh.constraint_basis(), mesh.constraint_basis_transpose()
    return (Rt @ (R @ np.ravel(grad))).reshape(-1, 3)


def vertex_dual_areas(mesh: TriMeshDrop) -> np.ndarray:
    """Barycentric dual area of each vertex: a third of each incident triangle."""
    return mesh.corner_incidence() @ np.tile(mesh.triangle_areas() / 3.0, 3)


# -- volume restoration ----------------------------------------------------


def _restore_volume(mesh: TriMeshDrop, target: float):
    """Move along the projected volume gradient until the volume matches."""
    scale = max(abs(target), 1e-30)
    for _ in range(_RESTORE_STEPS):
        ev = _evaluate(mesh)
        err = ev.breakdown.volume - target
        if abs(err) <= _RESTORE_RTOL * scale:
            return
        m = project_tangent(mesh, ev.volume_gradient)
        denom = float(np.einsum("ij,ij->", m, m))
        if denom < 1e-30:
            raise MeshDegenerationError("volume gradient vanished during restoration")
        mesh.vertices -= (err / denom) * m
    err = volume(mesh) - target
    if not abs(err) <= 1e-8 * scale:    # a NaN error fails too
        raise NonConvergenceError("volume restoration stalled", trace=[err])


def _smooth(mesh: TriMeshDrop, coeff: float):
    """Tangential area-weighted Laplacian; constrained vertices slide only.

    Each vertex moves toward the dual-area-weighted mean of its one-ring; a
    free vertex loses the normal part of that move, a constrained one keeps
    the part its constraint allows.
    """
    v, adj = mesh.vertices, mesh.adjacency()
    weights = vertex_dual_areas(mesh)
    disp = (adj @ (weights[:, None] * v)) / (adj @ weights)[:, None] - v
    free = mesh.tag_kind == FREE
    n = vertex_normals(mesh)[free]
    disp[free] -= np.einsum("ij,ij->i", disp[free], n)[:, None] * n
    mesh.vertices += coeff * project_tangent(mesh, disp)


def _residual_norm(mesh: TriMeshDrop):
    """Max constrained-force residual, the Lagrange multiplier estimate and
    the energy breakdown, all from one evaluation of the mesh."""
    ev = _evaluate(mesh)
    ge = project_tangent(mesh, ev.energy_gradient)
    lam = 0.0
    gv = project_tangent(mesh, ev.volume_gradient)
    gv2 = float(np.einsum("ij,ij->", gv, gv))
    if gv2 > 1e-30:
        lam = float(np.einsum("ij,ij->", ge, gv)) / gv2
        ge = ge - lam * gv
    return float(np.linalg.norm(ge, axis=1).max()), lam, ev.breakdown


def evolve(mesh: TriMeshDrop, max_iters: int = 2000, grad_tol: float = 1e-8):
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
    _, lam_aug, state = _residual_norm(work)
    target = work.target_volume if work.target_volume is not None else state.volume
    work.target_volume = target
    report = ConvergenceReport()

    R, Rt = work.constraint_basis(), work.constraint_basis_transpose()
    scale = max(abs(target), 1e-30)
    mu = 1e3 * max(1.0, abs(state.total)) / scale ** 2
    inner_budget = max_iters

    def set_q(q):
        work.vertices = x0 + (Rt @ q).reshape(-1, 3)

    def reduce_grad(g):
        return R @ g.ravel()

    def objective(q):
        set_q(q)
        ev = _evaluate(work)
        e, g = ev.breakdown.total, ev.energy_gradient
        dv = ev.breakdown.volume - target
        e += -lam_aug * dv + 0.5 * mu * dv * dv
        g = g + (mu * dv - lam_aug) * ev.volume_gradient
        return e, reduce_grad(g)

    best_state, best_resid = None, np.inf
    for outer in range(_OUTER_LOOPS):
        if inner_budget <= 0:
            break
        if outer > 0:
            trial = work.copy()
            _smooth(trial, _SMOOTHING)
            try:
                _restore_volume(trial, target)
                ok = (trial.triangle_areas().min() > 1e-14)
            except (MeshDegenerationError, NonConvergenceError):
                ok = False
            if ok:
                work = trial
        x0 = work.vertices.copy()
        q0 = np.zeros(R.shape[0])
        res = minimize(objective, q0, jac=True, method="L-BFGS-B",
                       options={"maxiter": min(inner_budget, 500), "ftol": 1e-16,
                                "gtol": 1e-12, "maxcor": 30})
        set_q(res.x)
        inner_budget -= res.nit
        report.iterations += res.nit
        min_area = float(work.triangle_areas().min())
        if min_area <= 1e-14:
            raise MeshDegenerationError("triangle collapsed during evolution")

        gnorm, lam, state = _residual_norm(work)
        dv = state.volume - target
        lam_aug -= mu * dv
        if abs(dv) > 1e-4 * scale:
            mu *= 10.0
        if gnorm < best_resid:
            best_resid, best_state = gnorm, work.copy()
        report.trace.append({"nit": int(res.nit), "energy": float(state.total),
                             "residual": gnorm, "volume_error": float(dv), "mu": float(mu),
                             "multiplier": float(lam_aug), "min_area": min_area})
        if gnorm < grad_tol and abs(dv) < 1e-6 * scale:
            report.converged = True
            break

    if best_state is not None:
        work = best_state
    _restore_volume(work, target)
    gnorm, lam, state = _residual_norm(work)
    if not (np.isfinite(work.vertices).all() and np.isfinite(state.total)):
        raise MeshDegenerationError("evolution reached non-finite vertices or energy")
    report.final_gradient_norm = gnorm
    report.converged = report.converged or gnorm < grad_tol
    report.lagrange_h = 0.5 * lam
    report.final_energy = state.total
    report.volume_error = abs(state.volume - target)
    return work, report

"""Measurement tools for drop meshes and graph solutions.

Everything here is read-only: sphere and plane fitting, discrete curvature,
contact-angle and vertex-angle measurement, and an umbilicity score that
separates spherical surfaces from genuinely anisotropic ones.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, asdict

import numpy as np

from .errors import DomainError
from .evolver import vertex_dual_areas
from .meshes import FREE, ON_EDGE, ON_PLANE, TriMeshDrop, vertex_normals

__all__ = [
    "SphereFit", "PlaneFit", "fit_sphere", "fit_plane",
    "mean_curvature_field", "sphere_curvature_field", "principal_curvatures",
    "umbilicity_rms",
    "measure_contact_angles", "measure_vertex_angles",
    "DiagnosticsReport", "diagnostics_report",
]


@dataclass(frozen=True)
class SphereFit:
    center: tuple[float, float, float]
    radius: float
    rms: float

    @property
    def relative_rms(self) -> float:
        return self.rms / self.radius


@dataclass(frozen=True)
class PlaneFit:
    normal: tuple[float, float, float]
    offset: float
    rms: float


def fit_plane(points: np.ndarray) -> PlaneFit:
    pts = np.asarray(points, dtype=float)
    centroid = pts.mean(axis=0)
    _, sv, vt = np.linalg.svd(pts - centroid, full_matrices=False)
    n = vt[-1]
    res = (pts - centroid) @ n
    return PlaneFit(tuple(n), float(np.dot(n, centroid)),
                    float(np.sqrt(np.mean(res ** 2))))


def fit_sphere(points: np.ndarray, max_newton: int = 10):
    """Least-squares sphere through a point cloud.

    Algebraic seed refined by Gauss-Newton on the true distance residuals.
    Nearly coplanar clouds fall back to a plane fit.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) < 4:
        raise DomainError("sphere fit needs at least four points")
    centroid = pts.mean(axis=0)
    rel = pts - centroid
    # algebraic stage: |x|^2 = 2 c.x + k is linear in (c, k)
    A = np.column_stack([2.0 * rel, np.ones(len(pts))])
    b = np.einsum("ij,ij->i", rel, rel)
    sol, _, rank, sv = np.linalg.lstsq(A, b, rcond=None)
    if sv[-1] < 1e-9 * max(sv[0], 1e-30) or sol[3] + np.dot(sol[:3], sol[:3]) <= 0:
        return fit_plane(pts)
    c = sol[:3]
    r = float(np.sqrt(sol[3] + np.dot(c, c)))
    # scale-aware planarity guard: curvature too small to resolve
    extent = np.linalg.norm(rel, axis=1).max()
    if r > 1e6 * extent:
        return fit_plane(pts)
    for _ in range(max_newton):
        d = pts - (centroid + c)
        dist = np.linalg.norm(d, axis=1)
        res = dist - r
        J = np.column_stack([-d / dist[:, None], -np.ones(len(pts))])
        try:
            delta, *_ = np.linalg.lstsq(J, -res, rcond=None)
        except np.linalg.LinAlgError:
            break
        c = c + delta[:3]
        r = r + delta[3]
        if np.linalg.norm(delta) < 1e-14 * max(r, 1.0):
            break
    d = pts - (centroid + c)
    res = np.linalg.norm(d, axis=1) - r
    return SphereFit(tuple(centroid + c), float(r),
                     float(np.sqrt(np.mean(res ** 2))))


# -- discrete curvature ----------------------------------------------------


def _cotangents(mesh: TriMeshDrop):
    """Per-triangle cotangents opposite each corner."""
    v, t = mesh.vertices, mesh.triangles
    a, b, c = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    cots = np.empty((len(t), 3))
    for k, (p, q, r) in enumerate(((a, b, c), (b, c, a), (c, a, b))):
        u, w = q - p, r - p
        cross = np.linalg.norm(np.cross(u, w), axis=1)
        cots[:, k] = np.einsum("ij,ij->i", u, w) / np.maximum(cross, 1e-30)
    return cots


def mean_curvature_field(mesh: TriMeshDrop) -> np.ndarray:
    """Pointwise mean curvature at interior vertices (NaN on the boundary).

    Cotangent mean-curvature normal with barycentric dual areas; positive for
    a surface bulging along its outward normal, as for a drop.
    """
    v, t = mesh.vertices, mesh.triangles
    cots = _cotangents(mesh)
    lap = np.zeros_like(v)
    # cotangent at corner k multiplies the opposite edge (k+1, k+2)
    for k in range(3):
        i, j = t[:, (k + 1) % 3], t[:, (k + 2) % 3]
        w = cots[:, k][:, None]
        np.add.at(lap, i, w * (v[i] - v[j]))
        np.add.at(lap, j, w * (v[j] - v[i]))
    dual = vertex_dual_areas(mesh)
    hn = lap / (4.0 * dual[:, None])   # half the Laplace-Beltrami of position
    normals = vertex_normals(mesh)
    h = np.einsum("ij,ij->i", hn, normals)
    h[mesh.tag_kind != FREE] = np.nan
    return h


def _rings(mesh: TriMeshDrop, depth: int = 2):
    """Neighbours within ``depth`` edges of each vertex, grown from the cached one-ring."""
    nbrs = mesh.one_ring()
    out = []
    for i in range(mesh.n_vertices):
        ring = {i}
        for _ in range(depth):
            ring = ring.union(*(nbrs[j] for j in ring))
        ring.discard(i)
        out.append(np.fromiter(ring, dtype=np.int64))
    return out


def sphere_curvature_field(mesh: TriMeshDrop, depth: int = 3) -> np.ndarray:
    """Pointwise mean curvature from local sphere fits (NaN on the boundary).

    Wider stencils than the cotangent formula make this estimator robust to
    tangential vertex irregularity; it is the field used for the curvature
    spread statistic in reports.
    """
    rings = _rings(mesh, depth)
    normals = vertex_normals(mesh)
    out = np.full(mesh.n_vertices, np.nan)
    for i in np.nonzero(mesh.tag_kind == FREE)[0]:
        fit = fit_sphere(mesh.vertices[np.append(rings[i], i)])
        if isinstance(fit, PlaneFit):
            out[i] = 0.0
            continue
        sign = 1.0 if np.dot(mesh.vertices[i] - np.array(fit.center),
                             normals[i]) > 0 else -1.0
        out[i] = sign / fit.radius
    return out


def principal_curvatures(mesh: TriMeshDrop) -> np.ndarray:
    """Per-vertex (k1, k2) from a local quadric fit over the two-ring.

    Rows are NaN at boundary vertices and wherever the fit is rank deficient.
    """
    normals = vertex_normals(mesh)
    rings = _rings(mesh, 2)
    out = np.full((mesh.n_vertices, 2), np.nan)
    for i in range(mesh.n_vertices):
        if mesh.tag_kind[i] != FREE:
            continue
        ring = rings[i]
        if len(ring) < 5:
            continue
        n = normals[i]
        e1 = np.cross(n, [1.0, 0.0, 0.0])
        if np.linalg.norm(e1) < 1e-6:
            e1 = np.cross(n, [0.0, 1.0, 0.0])
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(n, e1)
        rel = mesh.vertices[ring] - mesh.vertices[i]
        x, y, z = rel @ e1, rel @ e2, rel @ n
        A = np.column_stack([0.5 * x * x, x * y, 0.5 * y * y, x, y])
        try:
            coef, *_ = np.linalg.lstsq(A, z, rcond=None)
        except np.linalg.LinAlgError:
            continue
        L, M, N, p, q = coef
        # shape operator of z = f(x, y) at the origin with slope (p, q)
        E = 1 + p * p
        F = p * q
        G = 1 + q * q
        w = np.sqrt(1 + p * p + q * q)
        second = np.array([[L, M], [M, N]]) / w
        first = np.array([[E, F], [F, G]])
        k = np.linalg.eigvals(np.linalg.solve(first, second))
        # the fit frame has its third axis along the outward normal, where an
        # outward-bulging surface drops quadratically; flip so such a surface
        # carries positive curvatures, matching the mean-curvature field
        out[i] = np.sort(-k.real)
    return out


def umbilicity_rms(mesh: TriMeshDrop) -> float:
    """Area-weighted RMS spread of the principal curvatures, scale-free.

    The spread |k1 - k2| is normalized by the magnitude of the mean
    curvature scale of the surface, so a sphere scores near zero at any
    radius while a cylinder-like surface scores near one.
    """
    k = principal_curvatures(mesh)
    good = ~np.isnan(k[:, 0])
    if not good.any():
        raise DomainError("no interior vertices for the umbilicity score")
    dual = vertex_dual_areas(mesh)
    spread = np.abs(k[good, 1] - k[good, 0])
    w = dual[good]
    kscale = np.sqrt(np.sum(w * (0.5 * (k[good, 0] + k[good, 1])) ** 2) / w.sum())
    kscale = max(kscale, 1e-30)
    return float(np.sqrt(np.sum(w * spread ** 2) / w.sum()) / kscale)


# -- boundary measurements -------------------------------------------------


def _local_surface_normal(mesh: TriMeshDrop, i: int, rings, normals) -> np.ndarray:
    """Surface normal at vertex i from a local sphere (or plane) fit."""
    ring = np.append(rings[i], i)
    fit = fit_sphere(mesh.vertices[ring])
    if isinstance(fit, SphereFit):
        nu = mesh.vertices[i] - np.array(fit.center)
        nu /= np.linalg.norm(nu)
    else:
        nu = np.array(fit.normal)
    if np.dot(nu, normals[i]) < 0:
        nu = -nu
    return nu


def measure_contact_angles(mesh: TriMeshDrop) -> dict[int, np.ndarray]:
    """Measured contact angle at each wall vertex, per wall.

    The surface normal is estimated by a local sphere fit over the two-ring
    (exact for spherical data, with a plane-fit fallback), and the angle is
    taken between the liquid and the wall: cos of the measured angle is the
    outward surface normal dotted with the inward wall normal.
    """
    rings = _rings(mesh, 2)
    normals = vertex_normals(mesh)
    out: dict[int, list] = {j: [] for j in range(len(mesh.support.planes))}
    for i in np.nonzero(mesh.tag_kind == ON_PLANE)[0]:
        nu = _local_surface_normal(mesh, int(i), rings, normals)
        n_in = mesh.support.planes[mesh.tag_id[i]].normal
        cosg = np.clip(np.dot(nu, n_in), -1.0, 1.0)
        out[int(mesh.tag_id[i])].append(np.arccos(cosg))
    return {j: np.array(v) for j, v in out.items() if v}


def _polyline_tangent(mesh: TriMeshDrop, seg: np.ndarray, at_start: bool,
                      wall: int, k: int = 4) -> np.ndarray:
    """Unit tangent of a contact polyline at one endpoint.

    A circle is fitted through the nearest samples in the wall plane; for
    collinear samples the chord direction is used instead.
    """
    idx = seg[:k + 1] if at_start else seg[::-1][:k + 1]
    pts = mesh.vertices[idx]
    sup = mesh.support
    eu, ev = sup.wall_frame(wall)
    p = sup.planes[wall]
    ref = p.offset * p.normal
    q = np.column_stack([(pts - ref) @ eu, (pts - ref) @ ev])
    rel = q - q[0]
    A = np.column_stack([2.0 * rel, np.ones(len(q))])
    b = np.einsum("ij,ij->i", rel, rel)
    sol, _, _, sv = np.linalg.lstsq(A, b, rcond=None)
    chord = q[1] - q[0]
    if sv[-1] < 1e-9 * max(sv[0], 1e-30):
        t2 = chord / np.linalg.norm(chord)
    else:
        c = sol[:2]
        radial = -c / np.linalg.norm(c)
        t2 = np.array([-radial[1], radial[0]])
        if np.dot(t2, chord) < 0:
            t2 = -t2
    return t2[0] * eu + t2[1] * ev


def measure_vertex_angles(mesh: TriMeshDrop) -> dict[int, float]:
    """Opening angle between the two contact lines at each edge-line vertex."""
    polylines = mesh.wall_polylines()
    out = {}
    for i in np.nonzero(mesh.tag_kind == ON_EDGE)[0]:
        tangents = []
        for j, seg in polylines.items():
            if seg[0] == i:
                tangents.append(_polyline_tangent(mesh, seg, True, j))
            elif seg[-1] == i:
                tangents.append(_polyline_tangent(mesh, seg, False, j))
        if len(tangents) != 2:
            raise DomainError(f"vertex {i} does not join exactly two contact lines")
        cosv = np.clip(np.dot(tangents[0], tangents[1]), -1.0, 1.0)
        out[int(i)] = float(np.arccos(cosv))
    return out


# -- aggregate report ------------------------------------------------------


@dataclass
class DiagnosticsReport:
    sphere_center: tuple[float, float, float] | None
    sphere_radius: float | None
    sphere_relative_rms: float | None
    plane_rms: float | None
    mean_curvature_mean: float
    mean_curvature_cv: float
    umbilicity: float
    contact_angle_mean: dict
    contact_angle_max_error: dict
    vertex_angles: dict

    def to_json(self, path=None) -> str:
        text = json.dumps(asdict(self), indent=2)
        if path is not None:
            with open(path, "w") as f:
                f.write(text)
        return text

    def to_csv(self, path):
        flat = asdict(self)
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["key", "value"])
            for key, val in flat.items():
                w.writerow([key, json.dumps(val)])


def diagnostics_report(mesh: TriMeshDrop) -> DiagnosticsReport:
    """One-stop summary of the fit, curvature, and boundary measurements."""
    fit = fit_sphere(mesh.vertices)
    if isinstance(fit, SphereFit):
        center, radius, rel_rms, plane_rms = fit.center, fit.radius, fit.relative_rms, None
    else:
        center = radius = rel_rms = None
        plane_rms = fit.rms
    h = sphere_curvature_field(mesh)
    good = h[~np.isnan(h)]
    hmean = float(good.mean()) if good.size else np.nan
    hcv = float(good.std() / abs(hmean)) if good.size and hmean else np.nan
    angles = measure_contact_angles(mesh)
    gam = {j: mesh.support.planes[j].gamma for j in angles}
    return DiagnosticsReport(
        sphere_center=center,
        sphere_radius=radius,
        sphere_relative_rms=rel_rms,
        plane_rms=plane_rms,
        mean_curvature_mean=hmean,
        mean_curvature_cv=hcv,
        umbilicity=umbilicity_rms(mesh),
        contact_angle_mean={j: float(a.mean()) for j, a in angles.items()},
        contact_angle_max_error={j: float(np.abs(a - gam[j]).max())
                                 for j, a in angles.items()},
        vertex_angles=measure_vertex_angles(mesh),
    )

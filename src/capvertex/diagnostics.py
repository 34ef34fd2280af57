"""Measurement tools for drop meshes and graph solutions.

Everything here is read-only: sphere and plane fitting, discrete curvature,
contact-angle and vertex-angle measurement, and an umbilicity score that
separates spherical surfaces from genuinely anisotropic ones.

The local fits behind the curvature fields and the contact angles are
stacked: every vertex's neighbourhood (from ``TriMeshDrop.neighbourhood``,
built once per triangulation) is zero-padded into one array. The sphere and
quadric fits of a block of vertices factor their augmented systems
``[A | b]`` by one batched Householder QR and back-substitute. Two rules read
the singular values of the small triangular factors ``R``: the sphere seed's
plane test (``s_min < 1e-9 s_max``) and the quadric's rank (``lstsq``'s
cutoff). Each row is first decided by a certified bound,
``1 / kappa <= s_min / s_max <= p / kappa`` with
``kappa = ||R||_F ||R^-1||_F`` and ``R^-1`` from a back-substitution over
the stack; only the rows the bound leaves undecided (near a threshold, or
with a zero or non-finite pivot) go to an SVD, so every decision is the
SVD rule's. The plane fits need a right singular vector and run one batched
SVD. The sphere fits' distances are written out by components
(``_norm3``), which is ``np.linalg.norm`` over three components to the bit.
``fit_sphere`` and ``fit_plane`` are the same fitters applied to one cloud.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, asdict

import numpy as np

from .errors import DomainError
from .evolver import vertex_dual_areas
from .meshes import FREE, ON_EDGE, ON_PLANE, TriMeshDrop, _cross, vertex_normals

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


# Local fits run on stacks of neighbourhoods, at most this many per stack, so
# that the padded arrays and the QR workspace stay small on large meshes.
_BLOCK_ROWS = 256


def _lstsq(Ab):
    """Stacked least squares through one batched Householder QR.

    ``Ab`` is (k, m, p + 1): each fit matrix ``A`` with its right-hand side
    ``b`` as the last column, zero-padded below the true rows; zero rows
    change neither the solution nor the factor. Returns the solutions (k, p)
    of ``R x = Q^T b`` and the triangular factors ``R`` (k, p, p) of the fit
    matrices, whose singular values are those of ``A``. A rank-deficient
    fit gets a meaningless, possibly non-finite, solution in its own row.
    """
    k, m, q = Ab.shape
    if m < q:
        Ab = np.concatenate([Ab, np.zeros((k, q - m, q))], axis=1)
    R = np.linalg.qr(Ab, mode="r")
    p = q - 1
    x = R[:, :p, p].copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(p - 1, -1, -1):
            x[:, i] -= np.einsum("kj,kj->k", R[:, i, i + 1:p], x[:, i + 1:])
            x[:, i] /= R[:, i, i]
    return x, R[:, :p, :p]


# A row whose certified ratio bound clears a threshold by this factor is
# decided without an SVD; the factor covers the rounding of the bound and of
# the SVD the rule was defined by.
_SAFETY = 100.0


def _ratio_bounds(R):
    """Bounds ``lo <= s_min / s_max <= hi`` for each triangular factor in ``R`` (k, p, p).

    With ``kappa = ||R||_F ||R^-1||_F``, ``s_max <= ||R||_F <= sqrt(p) s_max``
    and the same for ``R^-1``, whose largest singular value is ``1 / s_min``;
    so ``1 / kappa <= s_min / s_max <= p / kappa``. ``R^-1`` comes from one
    back-substitution vectorized over the stack. Also returns ``||R||_F``. A
    row with a zero or non-finite pivot gets NaN bounds.
    """
    k, p, _ = R.shape
    inv = np.zeros_like(R)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(p - 1, -1, -1):
            inv[:, i, i] = 1.0
            inv[:, i, i + 1:] = -np.einsum("kj,kjl->kl", R[:, i, i + 1:], inv[:, i + 1:, i + 1:])
            inv[:, i, i:] /= R[:, i, i, None]
        norm = np.sqrt(np.einsum("kij,kij->k", R, R))
        kappa = norm * np.sqrt(np.einsum("kij,kij->k", inv, inv))
    kappa[~np.isfinite(kappa)] = np.nan
    return 1.0 / kappa, p / kappa, norm


def _rank(R, n):
    """Ranks of the fit matrices behind ``R`` (k, p, p) with ``n`` (k,) true rows.

    As in ``np.linalg.lstsq``, singular values at or below
    ``eps * max(n, p) * s[0]`` count as zero. A row whose certified lower
    bound on ``s_min / s_max`` (``_ratio_bounds``) clears that cutoff by
    ``_SAFETY`` has full rank; only the other rows, with a zero or non-finite
    pivot or nearly deficient, are counted from their singular values, so
    every rank is the one the SVD rule gives.
    """
    p = R.shape[2]
    tol = np.finfo(float).eps * np.maximum(n, p)
    rank = np.full(len(R), p)
    svd = ~(_ratio_bounds(R)[0] >= _SAFETY * tol)     # NaN bounds go to the SVD
    if svd.any():
        s = np.linalg.svd(R[svd], compute_uv=False)
        rank[svd] = (s > (tol[svd] * s[:, 0])[:, None]).sum(axis=1)
    return rank


def _nearly_planar(R):
    """The sphere seed's plane test ``s_min < 1e-9 * max(s_max, 1e-30)`` per factor.

    ``R`` (k, 4, 4) are the factors of the algebraic fits. Rows whose
    certified bounds (``_ratio_bounds``) lie a factor ``_SAFETY`` above or
    below the 1e-9 threshold are decided by them; the rest, and rows with
    ``||R||_F`` so small that the 1e-30 floor could bind, by the SVD.
    """
    p = R.shape[2]
    lo, hi, norm = _ratio_bounds(R)
    plane = hi <= 1e-9 / _SAFETY
    # s_max >= ||R||_F / sqrt(p), so past this norm the floor never binds
    svd = ~((lo >= _SAFETY * 1e-9) | plane) | ~(norm >= np.sqrt(p) * 1e-30)
    if svd.any():
        s = np.linalg.svd(R[svd], compute_uv=False)
        plane[svd] = s[:, -1] < 1e-9 * np.maximum(s[:, 0], 1e-30)
    return plane


def _norm3(d):
    """Lengths of the 3-vectors along the last axis of ``d``, written by components.

    The bits of ``np.linalg.norm(d, axis=-1)``, whose reduction over three
    values costs more than its arithmetic.
    """
    x, y, z = d[..., 0], d[..., 1], d[..., 2]
    return np.sqrt(x * x + y * y + z * z)


def _fit_planes(pts, mask):
    """Stacked ``fit_plane``: normals (k, 3), offsets (k,) and rms (k,).

    ``pts`` is (k, m, 3), zero-padded where ``mask`` (k, m) is False.
    """
    n = mask.sum(axis=1)
    centroid = pts.sum(axis=1) / n[:, None]
    rel = np.where(mask[..., None], pts - centroid[:, None], 0.0)
    normal = np.linalg.svd(rel, full_matrices=False)[2][:, -1]
    res = np.einsum("kmj,kj->km", rel, normal)
    return (normal, np.einsum("kj,kj->k", normal, centroid),
            np.sqrt(np.einsum("km,km->k", res, res) / n))


def _fit_spheres(pts, mask, max_newton=10):
    """Stacked ``fit_sphere``: centres (k, 3), radii (k,), rms (k,), plane (k,).

    ``pts`` is (k, m, 3), zero-padded where ``mask`` (k, m) is False. Each
    stack follows the rules of the single fit on its own: the algebraic seed,
    the plane fallback (``plane`` True, other outputs meaningless) and at most
    ``max_newton`` Gauss-Newton steps with its own stopping test.
    """
    n = mask.sum(axis=1)
    if n.min(initial=4) < 4:
        raise DomainError("sphere fit needs at least four points")
    rows = mask[..., None]
    centroid = pts.sum(axis=1) / n[:, None]
    rel = np.where(rows, pts - centroid[:, None], 0.0)
    # algebraic stage: |x|^2 = 2 c.x + k is linear in (c, k)
    sol, R = _lstsq(np.concatenate(
        [2.0 * rel, rows, np.einsum("kmj,kmj->km", rel, rel)[..., None]], axis=2))
    c = sol[:, :3]
    r2 = sol[:, 3] + np.einsum("kj,kj->k", c, c)
    plane = _nearly_planar(R) | (r2 <= 0)
    r = np.sqrt(np.where(plane, 1.0, r2))
    # scale-aware planarity guard: curvature too small to resolve
    extent = _norm3(rel).max(axis=1)
    plane |= r > 1e6 * extent
    live = np.nonzero(~plane)[0]
    for _ in range(max_newton):
        if not live.size:
            break
        # one system [J | -res] per fit: J = -[(x - c) / |x - c|, 1], res = |x - c| - r
        Jr = np.empty((len(live), pts.shape[1], 5))
        d = Jr[..., :3]
        np.subtract((centroid[live] + c[live])[:, None], pts[live], out=d)
        dist = _norm3(d)
        with np.errstate(divide="ignore", invalid="ignore"):
            d /= dist[..., None]
        Jr[..., 3] = -1.0
        np.subtract(r[live, None], dist, out=Jr[..., 4])
        Jr[~mask[live]] = 0.0
        delta = _lstsq(Jr)[0]
        # a step that is not finite (a point on the centre, or an exactly zero
        # pivot of R) stops that fit where it is. A nearly singular J gives a
        # huge finite step, which is applied; J is singular only for points on
        # a circle about c, which are coplanar, so the seed's 1e-9 plane test
        # is what keeps J away from singularity
        step = np.linalg.norm(delta, axis=1)
        finite = np.isfinite(step)
        live, delta, step = live[finite], delta[finite], step[finite]
        c[live] += delta[:, :3]
        r[live] += delta[:, 3]
        live = live[step >= 1e-14 * np.maximum(r[live], 1.0)]
    center = centroid + c
    res = np.where(mask, _norm3(pts - center[:, None]) - r[:, None], 0.0)
    return center, r, np.sqrt(np.einsum("km,km->k", res, res) / n), plane


def fit_plane(points: np.ndarray) -> PlaneFit:
    pts = np.asarray(points, dtype=float)
    normal, offset, rms = _fit_planes(pts[None], np.ones((1, len(pts)), dtype=bool))
    return PlaneFit(tuple(normal[0]), float(offset[0]), float(rms[0]))


def fit_sphere(points: np.ndarray, max_newton: int = 10):
    """Least-squares sphere through a point cloud.

    Algebraic seed refined by Gauss-Newton on the true distance residuals.
    Nearly coplanar clouds fall back to a plane fit.
    """
    pts = np.asarray(points, dtype=float)
    center, radius, rms, plane = _fit_spheres(
        pts[None], np.ones((1, len(pts)), dtype=bool), max_newton)
    if plane[0]:
        return fit_plane(pts)
    return SphereFit(tuple(center[0]), float(radius[0]), float(rms[0]))


def _neighbourhood_stacks(mesh: TriMeshDrop, depth: int, rows: np.ndarray):
    """The depth-``depth`` neighbourhoods of ``rows``, vertex included, in stacks.

    Yields ``(block, pts, mask)`` for consecutive blocks of at most
    ``_BLOCK_ROWS`` rows: ``pts`` (k, m, 3) holds each neighbourhood's
    points zero-padded to the block's widest one, ``mask`` (k, m) its true rows.
    """
    indptr, indices = mesh.neighbourhood(depth)
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        first, count = indptr[block], indptr[block + 1] - indptr[block]
        slot = np.arange(count.max())
        mask = slot < count[:, None]
        idx = indices[np.where(mask, first[:, None] + slot, 0)]
        yield block, np.where(mask[..., None], mesh.vertices[idx], 0.0), mask


# -- discrete curvature ----------------------------------------------------


def mean_curvature_field(mesh: TriMeshDrop) -> np.ndarray:
    """Pointwise mean curvature at interior vertices (NaN on the boundary).

    Cotangent mean-curvature normal with barycentric dual areas; positive for
    a surface bulging along its outward normal, as for a drop.
    """
    p = mesh.vertices[mesh.triangles.T]          # (3, T, 3): corner k of each triangle
    # the edges from corner k to corners k+1 and k+2, and the cotangent at k
    u, w = np.roll(p, -1, axis=0) - p, np.roll(p, -2, axis=0) - p
    cot = np.einsum("kti,kti->kt", u, w) / np.maximum(
        np.linalg.norm(_cross(u, w), axis=2), 1e-30)
    # the cotangent at a corner weighs the opposite edge, so corner k takes
    # its edge to k+1 with the cotangent at k+2, and its edge to k+2 with k+1's
    corner = np.roll(cot, -2, axis=0)[..., None] * u + np.roll(cot, -1, axis=0)[..., None] * w
    lap = -(mesh.corner_incidence() @ corner.reshape(-1, 3))
    dual = vertex_dual_areas(mesh)
    hn = lap / (4.0 * dual[:, None])   # half the Laplace-Beltrami of position
    normals = vertex_normals(mesh)
    h = np.einsum("ij,ij->i", hn, normals)
    h[mesh.tag_kind != FREE] = np.nan
    return h


def sphere_curvature_field(mesh: TriMeshDrop, depth: int = 3) -> np.ndarray:
    """Pointwise mean curvature from local sphere fits (NaN on the boundary).

    Wider stencils than the cotangent formula make this estimator robust to
    tangential vertex irregularity; it is the field used for the curvature
    spread statistic in reports. Neighbourhoods whose fit falls back to a
    plane get curvature 0.
    """
    normals = vertex_normals(mesh)
    out = np.full(mesh.n_vertices, np.nan)
    for block, pts, mask in _neighbourhood_stacks(mesh, depth,
                                                  np.nonzero(mesh.tag_kind == FREE)[0]):
        center, radius, _, plane = _fit_spheres(pts, mask)
        outward = np.einsum("kj,kj->k", mesh.vertices[block] - center, normals[block])
        out[block] = np.where(plane, 0.0, np.where(outward > 0, 1.0, -1.0) / radius)
    return out


def principal_curvatures(mesh: TriMeshDrop) -> np.ndarray:
    """Per-vertex (k1, k2) from a local quadric fit over the two-ring.

    Rows are NaN at boundary vertices and wherever the fit is rank deficient:
    fewer than five singular values of the fit matrix above ``lstsq``'s
    cutoff, which includes every two-ring of fewer than five vertices.
    """
    normals = vertex_normals(mesh)
    out = np.full((mesh.n_vertices, 2), np.nan)
    for block, pts, mask in _neighbourhood_stacks(mesh, 2,
                                                  np.nonzero(mesh.tag_kind == FREE)[0]):
        n = normals[block]
        e1 = np.cross(n, [1.0, 0.0, 0.0])
        flat = np.linalg.norm(e1, axis=1) < 1e-6
        e1[flat] = np.cross(n[flat], [0.0, 1.0, 0.0])
        e1 /= np.linalg.norm(e1, axis=1)[:, None]
        e2 = np.cross(n, e1)
        # the vertex itself gives a zero row, which changes nothing
        rel = np.where(mask[..., None], pts - mesh.vertices[block][:, None], 0.0)
        x, y, z = (np.einsum("kmj,kj->km", rel, e) for e in (e1, e2, n))
        Az = np.stack([0.5 * x * x, x * y, 0.5 * y * y, x, y, z], axis=2)
        # a non-finite fit matrix (a vertex without a normal) gets no fit
        finite = np.isfinite(Az).all(axis=(1, 2))
        coef, R = _lstsq(Az[finite])
        full = _rank(R, mask[finite].sum(axis=1) - 1) == 5
        L, M, N, p, q = coef[full].T
        # shape operator of z = f(x, y) at the origin with slope (p, q)
        w = np.sqrt(1 + p * p + q * q)
        second = np.stack([L, M, M, N], axis=1).reshape(-1, 2, 2) / w[:, None, None]
        first = np.stack([1 + p * p, p * q, p * q, 1 + q * q], axis=1).reshape(-1, 2, 2)
        k = np.linalg.eigvals(np.linalg.solve(first, second))
        # the fit frame has its third axis along the outward normal, where an
        # outward-bulging surface drops quadratically; flip so such a surface
        # carries positive curvatures, matching the mean-curvature field
        out[block[finite][full]] = np.sort(-k.real, axis=1)
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


def measure_contact_angles(mesh: TriMeshDrop) -> dict[int, np.ndarray]:
    """Measured contact angle at each wall vertex, per wall.

    The surface normal is estimated by a local sphere fit over the two-ring
    (exact for spherical data, with a plane-fit fallback), and the angle is
    taken between the liquid and the wall: cos of the measured angle is the
    outward surface normal dotted with the inward wall normal.
    """
    normals = vertex_normals(mesh)
    wall_normals = mesh.support.normals
    rows = np.nonzero(mesh.tag_kind == ON_PLANE)[0]
    angles = np.empty(mesh.n_vertices)
    for block, pts, mask in _neighbourhood_stacks(mesh, 2, rows):
        center, _, _, plane = _fit_spheres(pts, mask)
        nu = np.empty((len(block), 3))
        sphere = ~plane
        nu[sphere] = mesh.vertices[block[sphere]] - center[sphere]
        nu[sphere] /= np.linalg.norm(nu[sphere], axis=1)[:, None]
        nu[plane] = _fit_planes(pts[plane], mask[plane])[0]
        nu *= np.where(np.einsum("kj,kj->k", nu, normals[block]) < 0, -1.0, 1.0)[:, None]
        cosg = np.einsum("kj,kj->k", nu, wall_normals[mesh.tag_id[block]])
        angles[block] = np.arccos(np.clip(cosg, -1.0, 1.0))
    walls = mesh.tag_id[rows]
    return {j: angles[rows[walls == j]] for j in range(len(wall_normals))
            if np.any(walls == j)}


def _polyline_tangent(mesh: TriMeshDrop, seg: np.ndarray, at_start: bool,
                      wall: int, k: int = 4) -> np.ndarray:
    """Unit tangent of a contact polyline at one endpoint.

    A circle is fitted through the nearest samples in the wall plane; for
    collinear samples the chord direction is used instead.
    """
    idx = seg[:k + 1] if at_start else seg[::-1][:k + 1]
    pts = mesh.vertices[idx]
    eu, ev = mesh.support.wall_frame(wall)
    q = mesh.support.wall_coords(wall, pts)
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

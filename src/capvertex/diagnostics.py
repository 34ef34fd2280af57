"""Measurement tools for drop meshes and graph solutions.

Everything here is read-only: sphere and plane fitting, discrete curvature,
contact-angle and vertex-angle measurement, and an umbilicity score that
separates spherical surfaces from genuinely anisotropic ones.

A sphere is the zero set of ``P(x) = A|x|^2 + B.x + C`` under Pratt's
normalization ``|B|^2 - 4AC = 1`` (Pratt, SIGGRAPH 1987; Chernov & Lesort,
J. Math. Imaging Vision 2005), and a plane the sphere with ``A = 0``: the
signed curvature is ``2A``, the unit normal on the surface ``grad P``, and a
point's signed distance ``2P / (1 + sqrt(1 + 4AP))``. The Pratt fit seeds
Gauss-Newton steps on those distances.

The local fits behind the curvature fields and the contact angles are
stacked: every vertex's neighbourhood (from ``TriMeshDrop.neighbourhood``,
built once per triangulation) is zero-padded into one array. A block's fits
are one batched Householder QR with back-substitution, and its sphere seeds
one batched symmetric 5 x 5 eigenproblem. The quadric's rank is decided by a
certified bound on the condition of its triangular factor, with an SVD only
for the rows the bound leaves undecided. ``fit_sphere`` is the stacked
fitter applied to one cloud, and ``fit_plane`` a one-cloud SVD.
"""

from __future__ import annotations

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


def _gradients(origin, coef, x):
    """``grad P = 2A(x - o) + B`` (k, 3) of the spheres ``coef`` (k, 5) about ``origin`` (k, 3)."""
    return 2.0 * coef[:, :1] * (x - origin) + coef[:, 1:4]


@dataclass(frozen=True)
class SphereFit:
    """The sphere ``A|x - o|^2 + B.(x - o) + C = 0``, ``|B|^2 - 4AC = 1``, of a cloud.

    ``origin`` ``o`` is the cloud's centroid and ``coef`` is ``(A, B, C)``
    with ``A >= 0``: the curvature ``2A`` is 0 for a plane, which has no
    centre or radius (None), and whose unit normal is ``B``. ``rms`` is that
    of the distances to the surface.
    """
    origin: tuple[float, float, float]
    coef: tuple[float, float, float, float, float]
    rms: float

    @property
    def curvature(self) -> float:
        return 2.0 * self.coef[0]

    @property
    def center(self) -> tuple[float, float, float] | None:
        k = self.curvature
        return tuple(o - b / k for o, b in zip(self.origin, self.coef[1:4])) if k else None

    @property
    def radius(self) -> float | None:
        return 1.0 / self.curvature if self.curvature else None

    @property
    def relative_rms(self) -> float:
        """``rms / radius``, 0 for a plane."""
        return self.rms * self.curvature


@dataclass(frozen=True)
class PlaneFit:
    normal: tuple[float, float, float]
    offset: float
    rms: float


# Local fits run on stacks of neighbourhoods, at most this many per stack, so
# that the padded arrays and the QR workspace stay small on large meshes.
_BLOCK_ROWS = 256
# the sphere curvature field fits each vertex's neighbourhood this many rings
# deep; a contact polyline's end tangent fits a circle through this many
# segments of it
_CURVATURE_DEPTH = 3
_TANGENT_SEGMENTS = 4


def _back_substitute(R, y):
    """Solutions (k, p) or (k, p, q) of the triangular systems ``R x = y``, over the stack."""
    x = y.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(R.shape[2] - 1, -1, -1):
            x[:, i] -= np.einsum("kj,kj...->k...", R[:, i, i + 1:], x[:, i + 1:])
            x[:, i] = (x[:, i].T / R[:, i, i]).T     # transposed so that q broadcasts
    return x


def _lstsq(Ab):
    """Stacked least squares through one batched Householder QR.

    ``Ab`` is (k, m, p + 1): each fit matrix ``A`` with its right-hand side
    ``b`` as the last column, zero-padded below the true rows; zero rows
    change neither the solution nor the factor. Returns the solutions (k, p)
    of ``R x = Q^T b`` and the factors ``R`` (k, p, p) of the fit matrices. A
    rank-deficient fit gets a meaningless, possibly non-finite, solution in
    its own row.
    """
    k, m, q = Ab.shape
    if m < q:
        Ab = np.concatenate([Ab, np.zeros((k, q - m, q))], axis=1)
    R = np.linalg.qr(Ab, mode="r")
    p = q - 1
    return _back_substitute(R[:, :p, :p], R[:, :p, p]), R[:, :p, :p]


# A row whose certified ratio bound clears a threshold by this factor is
# decided without an SVD; the factor covers the rounding of the bound and of
# the SVD the rule was defined by.
_SAFETY = 100.0


def _ratio_bounds(R):
    """Certified lower bounds ``1 / kappa <= s_min / s_max`` of the factors in ``R`` (k, p, p).

    ``kappa = ||R||_F ||R^-1||_F``, as ``s_max <= ||R||_F`` and
    ``1 / s_min <= ||R^-1||_F``; ``R^-1`` comes from one back-substitution
    over the stack. A row with a zero or non-finite pivot gets NaN.
    """
    inv = _back_substitute(R, np.broadcast_to(np.eye(R.shape[2]), R.shape))
    with np.errstate(invalid="ignore", over="ignore"):
        norm = np.sqrt(np.einsum("kij,kij->k", R, R))
        kappa = norm * np.sqrt(np.einsum("kij,kij->k", inv, inv))
    kappa[~np.isfinite(kappa)] = np.nan
    return 1.0 / kappa


def _rank(R, n):
    """Ranks of the fit matrices behind ``R`` (k, p, p) with ``n`` (k,) true rows.

    As in ``np.linalg.lstsq``, singular values at or below
    ``eps * max(n, p) * s[0]`` count as zero. A row whose certified bound
    (``_ratio_bounds``) clears that cutoff by ``_SAFETY`` has full rank; only
    the others are counted from their singular values, so every rank is the
    one the SVD rule gives.
    """
    p = R.shape[2]
    tol = np.finfo(float).eps * np.maximum(n, p)
    rank = np.full(len(R), p)
    svd = ~(_ratio_bounds(R) >= _SAFETY * tol)     # NaN bounds go to the SVD
    if svd.any():
        s = np.linalg.svd(R[svd], compute_uv=False)
        rank[svd] = (s > (tol[svd] * s[:, 0])[:, None]).sum(axis=1)
    return rank


# Pratt's normalization |B|^2 - 4AC as a quadratic form in (A, B, C), and its inverse
_PRATT = np.array([[0, 0, 0, 0, -2.0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
                   [-2.0, 0, 0, 0, 0]])
_PRATT_INV = np.linalg.inv(_PRATT)
# the Gauss-Newton steps a sphere fit takes at most after its Pratt seed
_MAX_NEWTON = 10


def _distances(coef, x, sq, mask):
    """Signed distances (k, m) of the points ``x`` (``|x|^2`` in ``sq``) to the spheres
    ``coef``, and ``|grad P|`` there; padded points (``mask`` False) get 0 and 1."""
    P = coef[:, :1] * sq + np.einsum("kmj,kj->km", x, coef[:, 1:4]) + coef[:, 4:]
    s = np.where(mask, np.sqrt(np.maximum(1.0 + 4.0 * coef[:, :1] * P, 0.0)), 1.0)
    return np.where(mask, 2.0 * P / (1.0 + s), 0.0), s


def _fit_spheres(pts, mask):
    """Stacked ``fit_sphere``: centroids (k, 3), coefficients (k, 5) and rms (k,).

    ``pts`` is (k, m, 3), zero-padded where ``mask`` (k, m) is False; row
    ``i``'s ``(A, B, C)`` give its sphere about its centroid, with ``A >= 0``.
    Each row takes the Pratt seed, then at most ``_MAX_NEWTON`` Gauss-Newton
    steps: a step removes ``|R step| = |Q^T d|`` of the distances ``d``, and
    they stop once that, or ``d``, is at rounding level or it no longer falls.
    """
    n = mask.sum(axis=1)
    if n.min(initial=4) < 4:
        raise DomainError("sphere fit needs at least four points")
    k, width = mask.shape
    centroid = np.einsum("kmj->kj", pts) / n[:, None]
    rel = np.where(mask[..., None], pts - centroid[:, None], 0.0)
    sq = np.einsum("kmj,kmj->km", rel, rel)
    # seed: the least |R coef|^2 under Pratt's coef^T N coef = 1 solves R^T R coef
    # = eta N coef, so psi = R coef solves R N^-1 R^T psi = eta psi: one negative
    # eigenvalue, then the fit's. On an exact sphere R is singular and psi its
    # left null vector; coef = R^-1 psi is then inverse iteration, which returns
    # the right null vector, the sphere, once zero pivots are raised
    X = np.zeros((k, max(width, 5), 5))
    X[:, :width, 0], X[:, :width, 1:4], X[:, :width, 4] = sq, rel, mask
    R = np.linalg.qr(X, mode="r")
    psi = np.linalg.eigh(R @ _PRATT_INV @ R.transpose(0, 2, 1))[1][:, :, 1]
    diag, tiny = np.arange(5), np.finfo(float).eps * np.linalg.norm(R, axis=(1, 2))[:, None]
    R[:, diag, diag] = np.where(np.abs(R[:, diag, diag]) < tiny, tiny, R[:, diag, diag])
    coef = _back_substitute(R, psi)
    coef /= np.sqrt(np.einsum("kj,jl,kl->k", coef, _PRATT, coef))[:, None]
    d, s = _distances(coef, rel, sq, mask)
    rss = np.einsum("km,km->k", d, d)
    # distances, and the part of them a step removes, below this are rounding
    noise = 16.0 * np.finfo(float).eps * np.sqrt(sq.sum(axis=1))
    live = np.nonzero(np.sqrt(rss) > noise)[0]
    last, x, q, m, d, s = np.inf, rel[live], sq[live], mask[live], d[live], s[live]
    for _ in range(_MAX_NEWTON):
        if not live.size:
            break
        c = coef[live]
        # the distances' Jacobian J = [|x|^2 - d^2, x, 1] / |grad P| on a basis
        # of the normalization's tangent space: columns 1-4 of the Householder
        # reflector H = I - v w^T (w = 2 v / v.v) that maps e0 to its normal
        v = np.concatenate([-2.0 * c[:, 4:], c[:, 1:4], -2.0 * c[:, :1]], axis=1)
        v /= np.linalg.norm(v, axis=1)[:, None]
        v[:, 0] += np.where(v[:, 0] < 0, -1.0, 1.0)
        w = 2.0 * v / np.einsum("kj,kj->k", v, v)[:, None]
        Jv = ((q - d * d) * v[:, :1] + np.einsum("kmj,kj->km", x, v[:, 1:4]) + m * v[:, 4:]) / s
        Ab = np.empty(x.shape[:2] + (5,))
        Ab[..., :3], Ab[..., 3], Ab[..., 4] = x / s[..., None], m / s, -d
        Ab[..., :4] -= Jv[..., None] * w[:, None, 1:]
        step, R = _lstsq(Ab)
        # no step is taken that is not finite or leaves the normalization negative
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            gain = np.linalg.norm(np.einsum("kij,kj->ki", R, step), axis=1)
            trial = c - v * np.einsum("kj,kj->k", w[:, 1:], step)[:, None]
            trial[:, 1:] += step
            trial /= np.sqrt(np.einsum("kj,jl,kl->k", trial, _PRATT, trial))[:, None]
        go = (gain > noise[live]) & (gain < last) & np.isfinite(trial).all(axis=1)
        live, last, x, q, m = live[go], gain[go], x[go], q[go], m[go]
        coef[live] = trial[go]
        d, s = _distances(coef[live], x, q, m)
        rss[live] = np.einsum("km,km->k", d, d)
    coef *= np.where(coef[:, :1] < 0, -1.0, 1.0)
    return centroid, coef, np.sqrt(rss / n)


def fit_plane(points: np.ndarray) -> PlaneFit:
    """Least-squares plane through a point cloud, from its centred SVD."""
    pts = np.asarray(points, dtype=float)
    centroid = pts.sum(axis=0) / len(pts)
    rel = pts - centroid
    normal = np.linalg.svd(rel, full_matrices=False)[2][-1]
    res = np.einsum("mj,j->m", rel, normal)
    rms = np.sqrt(np.einsum("m,m->", res, res) / len(pts))
    return PlaneFit(tuple(normal), float(np.einsum("j,j->", normal, centroid)), float(rms))


def fit_sphere(points: np.ndarray) -> SphereFit:
    """Least-squares sphere, or plane, through a point cloud: the stacked fit of one cloud."""
    pts = np.asarray(points, dtype=float)
    origin, coef, rms = _fit_spheres(pts[None], np.ones((1, len(pts)), dtype=bool))
    return SphereFit(tuple(map(float, origin[0])), tuple(map(float, coef[0])), float(rms[0]))


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


def sphere_curvature_field(mesh: TriMeshDrop) -> np.ndarray:
    """Pointwise mean curvature from local sphere fits (NaN on the boundary).

    Wider stencils than the cotangent formula make this estimator robust to
    tangential vertex irregularity; it is the field used for the curvature
    spread statistic in reports. Each fit's curvature ``2A`` is positive
    where the vertex normal points away from its centre, and 0 on a plane.
    """
    normals = vertex_normals(mesh)
    out = np.full(mesh.n_vertices, np.nan)
    for block, pts, mask in _neighbourhood_stacks(mesh, _CURVATURE_DEPTH,
                                                  np.nonzero(mesh.tag_kind == FREE)[0]):
        origin, coef, _ = _fit_spheres(pts, mask)
        grad = _gradients(origin, coef, mesh.vertices[block])
        outward = np.einsum("kj,kj->k", grad, normals[block])
        out[block] = np.where(outward > 0, 2.0, -2.0) * coef[:, 0]
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
        e1 = _cross(n, np.array([1.0, 0.0, 0.0]))
        flat = np.linalg.norm(e1, axis=1) < 1e-6
        e1[flat] = _cross(n[flat], np.array([0.0, 1.0, 0.0]))
        e1 /= np.linalg.norm(e1, axis=1)[:, None]
        e2 = _cross(n, e1)
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

    The surface normal is the normalized ``grad P`` of a local sphere fit
    over the two-ring (exact for spherical and planar data), and the angle
    is taken between the liquid and the wall: cos of the measured angle is
    the outward surface normal dotted with the inward wall normal.
    """
    normals = vertex_normals(mesh)
    wall_normals = mesh.support.normals
    rows = np.nonzero(mesh.tag_kind == ON_PLANE)[0]
    angles = np.empty(mesh.n_vertices)
    for block, pts, mask in _neighbourhood_stacks(mesh, 2, rows):
        nu = _gradients(*_fit_spheres(pts, mask)[:2], mesh.vertices[block])
        nu /= np.linalg.norm(nu, axis=1)[:, None]
        nu *= np.where(np.einsum("kj,kj->k", nu, normals[block]) < 0, -1.0, 1.0)[:, None]
        cosg = np.einsum("kj,kj->k", nu, wall_normals[mesh.tag_id[block]])
        angles[block] = np.arccos(np.clip(cosg, -1.0, 1.0))
    walls = mesh.tag_id[rows]
    return {j: angles[rows[walls == j]] for j in range(len(wall_normals))
            if np.any(walls == j)}


def _polyline_tangent(mesh: TriMeshDrop, seg: np.ndarray, at_start: bool,
                      wall: int) -> np.ndarray:
    """Unit tangent of a contact polyline at one endpoint.

    A circle is fitted through the nearest samples in the wall plane; for
    collinear samples the chord direction is used instead.
    """
    idx = (seg if at_start else seg[::-1])[:_TANGENT_SEGMENTS + 1]
    pts = mesh.vertices[idx]
    eu, ev = mesh.support.frames[wall]
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
    sphere_curvature: float
    sphere_rms: float
    sphere_relative_rms: float
    mean_curvature_mean: float
    mean_curvature_cv: float
    umbilicity: float
    contact_angle_mean: dict
    contact_angle_max_error: dict
    vertex_angles: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def diagnostics_report(mesh: TriMeshDrop) -> DiagnosticsReport:
    """One-stop summary of the fit, curvature, and boundary measurements.

    ``sphere_relative_rms`` is the global fit's rms over the smaller of its
    radius and the drop's extent (its bounding box's diagonal), so that a
    flat drop is measured by its bumps rather than by its zero curvature.
    ``mean_curvature_cv`` divides the sphere field's spread by the larger of
    its mean's magnitude and ``1/extent`` for the same reason.
    """
    fit = fit_sphere(mesh.vertices)
    extent = float(np.linalg.norm(np.ptp(mesh.vertices, axis=0)))
    h = sphere_curvature_field(mesh)
    good = h[~np.isnan(h)]
    hmean = float(good.mean()) if good.size else np.nan
    hcv = float(good.std() / max(abs(hmean), 1.0 / extent)) if good.size else np.nan
    angles = measure_contact_angles(mesh)
    gam = {j: mesh.support.planes[j].gamma for j in angles}
    return DiagnosticsReport(
        sphere_center=fit.center,
        sphere_radius=fit.radius,
        sphere_curvature=fit.curvature,
        sphere_rms=fit.rms,
        sphere_relative_rms=fit.rms * max(fit.curvature, 1.0 / extent),
        mean_curvature_mean=hmean,
        mean_curvature_cv=hcv,
        umbilicity=umbilicity_rms(mesh),
        contact_angle_mean={j: float(a.mean()) for j, a in angles.items()},
        contact_angle_max_error={j: float(np.abs(a - gam[j]).max())
                                 for j, a in angles.items()},
        vertex_angles=measure_vertex_angles(mesh),
    )

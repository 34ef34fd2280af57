"""Closed-form capillary solutions and residual checkers.

Spherical caps in wedge / trihedral / cylinder supports, the half-cylinder
surface with mixed 0 and pi/2 contact angles on a rectangle, and pointwise
residual evaluation of the constant-mean-curvature equation in spherical
coordinates.

Sign convention, pinned by the contact-angle measurement tests: a sphere of
radius R meeting plane ``{n . x = d}`` (inward normal n) in interior angle
``gamma`` has its center at ``n . c = d - R cos(gamma)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DomainError, NoSolutionError
from .geometry import (
    QTag,
    TrihedralConfig,
    TrihedralKind,
    WedgeConfig,
    classify_data,
)

__all__ = [
    "SphericalCap",
    "PlanarSolution",
    "HalfCylinderSolution",
    "SphericalGraphField",
    "edge_vertices",
    "wedge_vertex_tangents",
    "wedge_cap",
    "trihedral_cap",
    "cylinder_cap",
    "support_cap",
    "wente_halfcylinder",
    "spherical_cmc_residual",
]

_ADMISSIBLE = (QTag.INTERIOR_Q, QTag.BOUNDARY_Q_D1)
# a radius at or below this has a curvature 1/R that overflows; the next
# float up has a finite one
_OVERFLOW_RADIUS = 1.0 / np.finfo(float).max
# the central-difference step of the half-cylinder's flux divergence
_FD_STEP = 1e-4


def _orthonormal_complement(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors spanning the plane orthogonal to unit vector v."""
    a = np.array([1.0, 0.0, 0.0]) if abs(v[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    b1 = np.cross(v, a)
    b1 /= np.linalg.norm(b1)
    b2 = np.cross(v, b1)
    return b1, b2


@dataclass(frozen=True)
class SphericalCap:
    """A sphere solving the contact-angle constraints of a support configuration."""

    center: np.ndarray
    radius: float
    h_signed: float
    config_ref: object
    degenerate: bool = False

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        c.flags.writeable = False
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "h_signed", float(self.h_signed))
        if self.radius <= 0:
            raise DomainError("cap radius must be positive")
        # the curvature 1/radius and the volume, of order radius**3, must be
        # normal doubles
        if not 1e-100 <= self.radius <= 1e100:
            raise DomainError(f"cap radius {self.radius:.3e} outside [1e-100, 1e100]")
        if abs(abs(self.h_signed) * self.radius - 1.0) > 1e-12:
            raise ConsistencyError("|h| * radius must equal 1")
        for p in getattr(self.config_ref, "planes", ()):
            want = -self.radius * p.beta
            got = p.signed_distance(self.center)
            if abs(got - want) > 1e-9 * max(1.0, self.radius):
                raise ConsistencyError(
                    f"cap center misses distance constraint of a plane: {got} vs {want}"
                )

    def contact_circle(self, plane) -> tuple[np.ndarray, float]:
        """Center and radius of the intersection circle with a support plane."""
        dist = plane.signed_distance(self.center)
        if abs(dist) > self.radius:
            raise NoSolutionError("sphere does not reach the plane")
        foot = self.center - dist * plane.normal
        return foot, float(np.sqrt(max(self.radius ** 2 - dist ** 2, 0.0)))

    def surface_point(self, direction) -> np.ndarray:
        d = np.asarray(direction, dtype=float)
        return self.center + self.radius * d / np.linalg.norm(d)


@dataclass(frozen=True)
class PlanarSolution:
    """A plane meeting the support walls in the prescribed angles (H = 0 case)."""

    normal: np.ndarray
    point: np.ndarray
    config_ref: object

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        n = n / np.linalg.norm(n)
        n.flags.writeable = False
        object.__setattr__(self, "normal", n)
        p = np.asarray(self.point, dtype=float)
        p.flags.writeable = False
        object.__setattr__(self, "point", p)


def edge_vertices(cap: SphericalCap, edge_point, edge_dir) -> list[np.ndarray]:
    """Points where the cap sphere meets a support-edge line (0, 1 or 2)."""
    e0 = np.asarray(edge_point, dtype=float)
    ed = np.asarray(edge_dir, dtype=float)
    w = cap.center - e0
    t0 = float(np.dot(w, ed))
    d2 = float(np.dot(w, w) - t0 * t0)
    disc = cap.radius ** 2 - d2
    if disc < -1e-10 * cap.radius ** 2:
        return []
    if disc < 1e-10 * cap.radius ** 2:
        return [e0 + t0 * ed]
    s = np.sqrt(disc)
    return [e0 + (t0 - s) * ed, e0 + (t0 + s) * ed]


def wedge_vertex_tangents(cap: SphericalCap, config: WedgeConfig, vertex):
    """Unit tangents of the two contact circles at a wedge vertex.

    Each tangent is oriented to point from the vertex into its wall half-plane.
    """
    v = np.asarray(vertex, dtype=float)
    nsurf = (v - cap.center) / cap.radius
    tangents = []
    for plane, other in ((config.plane1, config.plane2), (config.plane2, config.plane1)):
        t = np.cross(nsurf, plane.normal)
        norm = np.linalg.norm(t)
        if norm < 1e-14:
            raise NoSolutionError("contact circle tangent undefined at this vertex")
        t /= norm
        # in-wall direction away from the edge: positive side of the other plane
        w = np.cross(plane.normal, config.edge_dir)
        if np.dot(w, other.normal) < 0:
            w = -w
        if np.dot(t, w) < 0:
            t = -t
        tangents.append(t)
    return tangents[0], tangents[1]


def wedge_cap(config: WedgeConfig, h: float) -> SphericalCap:
    """Spherical cap of curvature ``h`` meeting both wedge walls in their angles.

    Interior data give a sphere crossing the edge in two points; data on the
    rectangle boundary adjacent to the no-graph region give a single touching
    point. All other data are rejected.
    """
    if h == 0.0:
        raise DomainError("wedge cap requires nonzero curvature")
    tag = classify_data(config.alpha, config.plane1.gamma, config.plane2.gamma).tag
    if tag not in _ADMISSIBLE:
        raise NoSolutionError(f"no wedge cap for data of class {tag.value}")
    radius = 1.0 / abs(h)
    if not np.isfinite(radius):
        raise DomainError(f"wedge cap curvature {h} is too small: its radius overflows")
    b1, b2 = _orthonormal_complement(config.edge_dir)
    A = np.array([[np.dot(config.plane1.normal, b1), np.dot(config.plane1.normal, b2)],
                  [np.dot(config.plane2.normal, b1), np.dot(config.plane2.normal, b2)]])
    rhs = np.array([-radius * config.plane1.beta, -radius * config.plane2.beta])
    c12 = np.linalg.solve(A, rhs)
    center = config.edge_point + c12[0] * b1 + c12[1] * b2
    return SphericalCap(center=center, radius=radius, h_signed=h, config_ref=config)


def _check_wall_pairs(config: TrihedralConfig):
    """Raise ``NoSolutionError`` unless each pair of the three walls, with the
    wedge between them, carries admissible data: no cap exists otherwise."""
    gammas = config.gammas
    for (i, j) in ((0, 1), (1, 2), (2, 0)):
        tag = classify_data(config.wedge_alpha(i, j), gammas[i], gammas[j]).tag
        if tag not in _ADMISSIBLE:
            raise NoSolutionError(
                f"angle pair ({i}, {j}) classifies as {tag.value}; no cap exists"
            )


def trihedral_cap(config: TrihedralConfig, h: float):
    """Cap (or plane, for ``h = 0``) meeting all three trihedral walls.

    The sphere center is the intersection of the per-pair center lines; it is
    recovered here as the least-squares solution of the three distance
    constraints with the residual asserted to vanish. The ``degenerate`` flag
    reports a sphere passing through the apex.
    """
    if config.kind is not TrihedralKind.APEX:
        raise DomainError("trihedral_cap requires an apex-kind configuration")
    _check_wall_pairs(config)
    N = np.stack([p.normal for p in config.planes])
    if h == 0.0:
        m = np.linalg.solve(N, np.array([p.beta for p in config.planes]))
        norm = float(np.linalg.norm(m))
        if abs(norm - 1.0) > 1e-10:
            raise NoSolutionError(
                "third contact angle inconsistent with a planar solution"
            )
        return PlanarSolution(normal=m / norm, point=config.apex + m / norm,
                              config_ref=config)
    radius = 1.0 / abs(h)
    rhs = np.array([p.offset - radius * p.beta for p in config.planes])
    center, residual, *_ = np.linalg.lstsq(N, rhs, rcond=None)
    if np.linalg.norm(N @ center - rhs) > 1e-10 * max(1.0, radius):
        raise ConsistencyError("center-line intersection failed to close")
    # measured in units of the radius, whose square can overflow
    degenerate = bool(abs(np.linalg.norm((center - config.apex) / radius) - 1.0) <= 1e-9)
    return SphericalCap(center=center, radius=radius, h_signed=h,
                        config_ref=config, degenerate=degenerate)


def cylinder_cap(config: TrihedralConfig, h: float | None = None):
    """Cap in a three-plane cylinder, centered at generator coordinate 0.

    The three distance constraints determine the center's cross-section
    position *and* the radius; when ``h`` is supplied it must be consistent
    with that determined radius. Data with all contact angles pi/2 admit only
    the planar surface orthogonal to the generator, which is returned instead.
    """
    if config.kind is not TrihedralKind.CYLINDER:
        raise DomainError("cylinder_cap requires a cylinder-kind configuration")
    _check_wall_pairs(config)
    g = config.generator
    betas = np.array([p.beta for p in config.planes])
    if np.max(np.abs(betas)) < 1e-12:
        if h is not None and h != 0.0:
            raise NoSolutionError(
                "all-orthogonal cylinder data admit only the flat surface (h = 0)"
            )
        return PlanarSolution(normal=g, point=np.zeros(3), config_ref=config)
    b1, b2 = _orthonormal_complement(g)
    N2 = np.stack([[np.dot(p.normal, b1), np.dot(p.normal, b2)] for p in config.planes])
    offs = np.array([p.offset for p in config.planes])
    if h is None:
        # unknowns (c1, c2, radius): n_j . c + beta_j * R = d_j
        A = np.hstack([N2, betas[:, None]])
        try:
            sol = np.linalg.solve(A, offs)
        except np.linalg.LinAlgError as exc:
            raise NoSolutionError("degenerate cylinder constraint system") from exc
        c1, c2, radius = sol
        if radius <= 0:
            raise NoSolutionError("contact angles force a non-positive radius")
        if radius <= _OVERFLOW_RADIUS:
            raise NoSolutionError(f"cap radius {radius:.3g} has no finite curvature")
        h_signed = 1.0 / radius
    elif h == 0.0:
        raise NoSolutionError("h = 0 gives a flat surface, which needs all-orthogonal data")
    else:
        radius = 1.0 / abs(h)
        sol, *_ = np.linalg.lstsq(N2, offs - radius * betas, rcond=None)
        # measured in units of the radius, whose square can overflow
        if np.linalg.norm((N2 @ sol - (offs - radius * betas)) / max(1.0, radius)) > 1e-9:
            raise NoSolutionError(
                "prescribed curvature inconsistent with the three wall constraints"
            )
        c1, c2 = sol
        h_signed = h
    center = c1 * b1 + c2 * b2  # generator coordinate 0 representative
    return SphericalCap(center=center, radius=float(radius), h_signed=h_signed,
                        config_ref=config)


def support_cap(config: WedgeConfig | TrihedralConfig, h: float | None = None):
    """``wedge_cap``, ``trihedral_cap`` or ``cylinder_cap``, by the support's kind.

    ``h = None`` is curvature 1 in a wedge or trihedral angle; a cylinder's
    walls fix its curvature, which ``None`` takes and a given ``h`` must match.
    """
    if isinstance(config, WedgeConfig):
        return wedge_cap(config, 1.0 if h is None else h)
    if config.kind is TrihedralKind.APEX:
        return trihedral_cap(config, 1.0 if h is None else h)
    return cylinder_cap(config, h)


@dataclass(frozen=True)
class HalfCylinderSolution:
    """Lower half-cylinder over a rectangle: angle 0 on the long walls, pi/2 on the short.

    Explicit surface ``z(y) = -sqrt((b/2)^2 - (y - b/2)^2)`` of constant mean
    curvature ``1/b`` over the rectangle ``[0, a] x [0, b]``.
    """

    a: float
    b: float

    def __post_init__(self):
        if not (0.0 < self.a < np.inf and 0.0 < self.b < np.inf):
            raise DomainError("side lengths must be positive and finite")
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))

    @property
    def radius(self) -> float:
        return 0.5 * self.b

    @property
    def h(self) -> float:
        return 1.0 / self.b

    def height(self, y):
        y = np.asarray(y, dtype=float)
        r = self.radius
        return -np.sqrt(np.maximum(r * r - (y - r) ** 2, 0.0))

    def slope(self, y):
        y = np.asarray(y, dtype=float)
        r = self.radius
        return (y - r) / np.sqrt(np.maximum(r * r - (y - r) ** 2, 1e-300))

    def flux(self, y):
        """y-component of the normalized gradient of the height profile."""
        zy = self.slope(y)
        return zy / np.sqrt(1.0 + zy * zy)

    def residual(self, y):
        """Pointwise ``div Tu - 2h`` via central differencing of the flux."""
        y = np.asarray(y, dtype=float)
        div = (self.flux(y + _FD_STEP) - self.flux(y - _FD_STEP)) / (2.0 * _FD_STEP)
        return div - 2.0 * self.h


def wente_halfcylinder(a: float, b: float) -> HalfCylinderSolution:
    """The explicit mixed-angle rectangle solution: half-cylinder of radius b/2."""
    return HalfCylinderSolution(a=a, b=b)


@dataclass(frozen=True)
class SphericalGraphField:
    """Radial height samples ``u(theta, phi)`` with prescribed mean curvature."""

    theta: np.ndarray
    phi: np.ndarray
    u: np.ndarray
    h: float

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        phi = np.asarray(self.phi, dtype=float)
        u = np.asarray(self.u, dtype=float)
        if u.shape != (theta.size, phi.size):
            raise DomainError("u must be sampled on the (theta, phi) grid")
        if np.any(u <= 0):
            raise DomainError("radial height must be positive")
        if phi.min() <= 0.0 or phi.max() >= np.pi:
            raise DomainError("phi grid must exclude the poles")
        for arr in (theta, phi, u):
            arr.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "h", float(self.h))


def spherical_cmc_residual(fieldv: SphericalGraphField) -> np.ndarray:
    """Residual of the spherical-coordinate CMC equation, one ring excluded.

    ``d/dtheta(u_t / W) + d/dphi(u_p sin^2(phi) / W)
      - 2 (sin(phi)/W + H) u sin(phi)``
    with centered differences on the uniform grid.
    """
    u = fieldv.u
    if u.shape[0] < 3 or u.shape[1] < 3:
        raise DomainError("grid too small for centered differences")
    dt = fieldv.theta[1] - fieldv.theta[0]
    dp = fieldv.phi[1] - fieldv.phi[0]
    sin_phi = np.sin(fieldv.phi)[None, :]

    ut = (u[2:, 1:-1] - u[:-2, 1:-1]) / (2.0 * dt)
    up = (u[1:-1, 2:] - u[1:-1, :-2]) / (2.0 * dp)
    uc = u[1:-1, 1:-1]
    sp = sin_phi[:, 1:-1]
    w = np.sqrt((uc ** 2 + up ** 2) * sp ** 2 + ut ** 2)

    a_term = ut / w
    b_term = up * sp ** 2 / w
    # inner centered differences consume a second ring
    da = (a_term[2:, 1:-1] - a_term[:-2, 1:-1]) / (2.0 * dt)
    db = (b_term[1:-1, 2:] - b_term[1:-1, :-2]) / (2.0 * dp)
    core = np.s_[1:-1, 1:-1]
    sp_core = sp[:, 1:-1]
    rhs = 2.0 * (sp_core / w[core] + fieldv.h) * uc[core] * sp_core
    return da + db - rhs

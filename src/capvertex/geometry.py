"""Plane configurations, wedge data classification, and vertex-angle formulas.

Angle conventions used throughout the package:

* contact angles ``gamma`` are measured within the liquid, ``0 <= gamma <= pi``;
* a wedge has half-opening ``alpha`` (full opening ``2*alpha < pi``);
* plane normals point into the drop-accessible region.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, DomainError

__all__ = [
    "PlaneSupport",
    "WedgeConfig",
    "TrihedralConfig",
    "TrihedralKind",
    "QTag",
    "AdmissibilityClass",
    "VertexAngleResult",
    "TAG_CODES",
    "classify_data",
    "classify_grid",
    "check_numerator_sign",
    "vertex_angle",
    "vertex_angle_grid",
]

_UNIT_TOL = 1e-12
# the half-width in radians of the boundary strip of the admissible rectangle
_BAND = 1e-9


def _as_unit(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise DomainError(f"{name} must be a 3-vector, got shape {v.shape}")
    n = np.linalg.norm(v)
    if abs(n - 1.0) > 1e-9:
        raise DomainError(f"{name} must be a unit vector (|v| = {n:.3e})")
    v = v / n
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class PlaneSupport:
    """An oriented support plane ``{x : normal . x = offset}`` with its contact angle.

    The normal points into the drop-accessible region.
    """

    normal: np.ndarray
    offset: float
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "normal", _as_unit(self.normal, "normal"))
        object.__setattr__(self, "offset", float(self.offset))
        object.__setattr__(self, "gamma", float(self.gamma))
        if not np.isfinite(self.offset):
            raise DomainError(f"plane offset must be finite, got {self.offset}")
        if not 0.0 <= self.gamma <= np.pi:
            raise DomainError(f"contact angle must lie in [0, pi], got {self.gamma}")

    @property
    def beta(self) -> float:
        """cos(gamma), the wetting-energy coefficient of this wall."""
        return float(np.cos(self.gamma))

    def signed_distance(self, x) -> float:
        """Signed distance of ``x`` from the plane, positive on the accessible side."""
        return float(np.dot(self.normal, np.asarray(x, dtype=float)) - self.offset)


@dataclass(frozen=True)
class WedgeConfig:
    """Two support planes meeting along an edge line with opening ``2*alpha``."""

    plane1: PlaneSupport
    plane2: PlaneSupport
    alpha: float
    edge_point: np.ndarray
    edge_dir: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        ep = np.asarray(self.edge_point, dtype=float)
        ep.flags.writeable = False
        object.__setattr__(self, "edge_point", ep)
        object.__setattr__(self, "edge_dir", _as_unit(self.edge_dir, "edge_dir"))
        if not 0.0 < self.alpha < np.pi / 2:
            raise DomainError(f"half-opening must satisfy 0 < alpha < pi/2, got {self.alpha}")
        n1, n2 = self.plane1.normal, self.plane2.normal
        cos_between = float(np.clip(np.dot(n1, n2), -1.0, 1.0))
        if abs(np.arccos(cos_between) - (np.pi - 2.0 * self.alpha)) > 1e-9:
            raise DomainError("plane normals inconsistent with opening 2*alpha")
        if abs(np.dot(self.edge_dir, n1)) > 1e-9 or abs(np.dot(self.edge_dir, n2)) > 1e-9:
            raise DomainError("edge_dir must be orthogonal to both plane normals")
        for p in (self.plane1, self.plane2):
            if abs(p.signed_distance(self.edge_point)) > 1e-9:
                raise DomainError("edge_point does not lie on both planes")

    @property
    def planes(self) -> tuple[PlaneSupport, PlaneSupport]:
        return (self.plane1, self.plane2)

    @property
    def gammas(self) -> tuple[float, float]:
        return (self.plane1.gamma, self.plane2.gamma)

    @classmethod
    def canonical(cls, alpha: float, gamma1: float, gamma2: float) -> "WedgeConfig":
        """Wedge in a standard frame: edge along z, interior bisected by +x.

        Wall 1 lies at polar angle ``+alpha`` in the xy-plane, wall 2 at
        ``-alpha``; both contain the z-axis.
        """
        sa, ca = np.sin(alpha), np.cos(alpha)
        p1 = PlaneSupport(normal=(sa, -ca, 0.0), offset=0.0, gamma=gamma1)
        p2 = PlaneSupport(normal=(sa, ca, 0.0), offset=0.0, gamma=gamma2)
        return cls(plane1=p1, plane2=p2, alpha=alpha,
                   edge_point=np.zeros(3), edge_dir=(0.0, 0.0, 1.0))


class TrihedralKind(enum.Enum):
    APEX = "apex"
    CYLINDER = "cylinder"


@dataclass(frozen=True)
class TrihedralConfig:
    """Three support planes forming a trihedral angle or a three-plane cylinder.

    ``apex`` is not an argument: it is computed as the planes' common point
    for the apex kind, and is None for the cylinder kind. ``generator`` is the
    cylinder kind's common line direction (the first two normals' cross
    product when not given), and None for the apex kind.
    """

    planes: tuple[PlaneSupport, PlaneSupport, PlaneSupport]
    kind: TrihedralKind
    apex: np.ndarray | None = field(init=False, default=None)
    generator: np.ndarray | None = None

    def __post_init__(self):
        planes = tuple(self.planes)
        if len(planes) != 3:
            raise DomainError("exactly three planes required")
        object.__setattr__(self, "planes", planes)
        N = np.stack([p.normal for p in planes])
        for i in range(3):
            for j in range(i + 1, 3):
                if abs(abs(np.dot(N[i], N[j])) - 1.0) < 1e-10:
                    raise DomainError("no two support planes may be parallel")
        det = float(np.linalg.det(N))
        if self.kind is TrihedralKind.APEX:
            if abs(det) < 1e-10:
                raise DomainError("apex kind requires linearly independent normals")
            apex = np.linalg.solve(N, np.array([p.offset for p in planes]))
            apex.flags.writeable = False
            object.__setattr__(self, "apex", apex)
            object.__setattr__(self, "generator", None)
        else:
            if abs(det) > 1e-10:
                raise DomainError("cylinder kind requires coplanar normals")
            if self.generator is None:
                g = np.cross(N[0], N[1])
                g = g / np.linalg.norm(g)
            else:
                g = np.asarray(self.generator, dtype=float)
                g = g / np.linalg.norm(g)
            if np.max(np.abs(N @ g)) > 1e-9:
                raise DomainError("generator must be orthogonal to all three normals")
            g.flags.writeable = False
            object.__setattr__(self, "generator", g)

    @property
    def gammas(self) -> tuple[float, float, float]:
        return tuple(p.gamma for p in self.planes)

    @classmethod
    def orthant(cls, gammas) -> "TrihedralConfig":
        """Three coordinate planes bounding the positive octant."""
        g1, g2, g3 = gammas
        planes = (
            PlaneSupport((1.0, 0.0, 0.0), 0.0, g1),
            PlaneSupport((0.0, 1.0, 0.0), 0.0, g2),
            PlaneSupport((0.0, 0.0, 1.0), 0.0, g3),
        )
        return cls(planes=planes, kind=TrihedralKind.APEX)

    @classmethod
    def regular_cylinder(cls, inradius: float, gammas) -> "TrihedralConfig":
        """Equilateral-triangle cylinder with axis along z and given inradius.

        Wall inward normals point toward the axis.
        """
        if inradius <= 0:
            raise DomainError("inradius must be positive")
        planes = []
        for k, g in enumerate(gammas):
            phi = 2.0 * np.pi * k / 3.0
            outward = np.array([np.cos(phi), np.sin(phi), 0.0])
            planes.append(PlaneSupport(-outward, -float(inradius), g))
        return cls(planes=tuple(planes), kind=TrihedralKind.CYLINDER,
                   generator=(0.0, 0.0, 1.0))

    def wedge_alpha(self, i: int, j: int) -> float:
        """Half-opening of the dihedral formed by planes i and j."""
        c = float(np.clip(np.dot(self.planes[i].normal, self.planes[j].normal), -1.0, 1.0))
        return 0.5 * (np.pi - np.arccos(c))


class QTag(enum.Enum):
    """Position of a contact-angle pair relative to the admissible rectangle."""

    INTERIOR_Q = "InteriorQ"
    BOUNDARY_Q_D1 = "BoundaryQ_D1"
    BOUNDARY_Q_D2 = "BoundaryQ_D2"
    CORNER = "Corner"
    D1 = "D1"
    D2 = "D2"


@dataclass(frozen=True)
class AdmissibilityClass:
    tag: QTag
    numerator: float

    def __post_init__(self):
        # interior data must come with a positive numerator (cross-checked
        # against the closed-form test in classify_data)
        if self.tag is QTag.INTERIOR_Q and self.numerator <= -1e-10:
            raise ConsistencyError(
                f"InteriorQ tag with non-positive numerator {self.numerator}"
            )


@dataclass(frozen=True)
class VertexAngleResult:
    """Angle ``2*beta`` between the two contact lines at a wedge vertex."""

    two_beta: float
    cos_two_beta: float
    sin_sq_two_beta: float

    def __post_init__(self):
        if not 0.0 < self.two_beta < np.pi:
            raise ConsistencyError(f"2*beta = {self.two_beta} outside (0, pi)")
        if abs(self.sin_sq_two_beta - (1.0 - self.cos_two_beta ** 2)) > 1e-12:
            raise ConsistencyError("sin^2(2*beta) inconsistent with cos(2*beta)")


def _check_angles(alpha, gamma1, gamma2):
    alpha = np.asarray(alpha, dtype=float)
    gamma1 = np.asarray(gamma1, dtype=float)
    gamma2 = np.asarray(gamma2, dtype=float)
    # every comparison with NaN is false, so the range tests alone let NaN through
    if not all(np.isfinite(x).all() for x in (alpha, gamma1, gamma2)):
        raise DomainError("angles must be finite")
    if np.any(alpha <= 0.0) or np.any(alpha >= np.pi / 2):
        raise DomainError("half-opening must satisfy 0 < alpha < pi/2")
    for g in (gamma1, gamma2):
        if np.any(g < 0.0) or np.any(g > np.pi):
            raise DomainError("contact angles must lie in [0, pi]")
    return alpha, gamma1, gamma2


def _numerator(alpha, gamma1, gamma2):
    """Numerator of the vertex-angle sine formula, of checked angles.

    ``sin^2(2a) - (B1^2 + B2^2 + 2 B1 B2 cos(2a))`` with ``Bj = cos(gamma_j)``,
    positive exactly for data interior to the admissible rectangle.
    """
    b1, b2 = np.cos(gamma1), np.cos(gamma2)
    return np.sin(2.0 * alpha) ** 2 - (b1 * b1 + b2 * b2 + 2.0 * b1 * b2 * np.cos(2.0 * alpha))


# tag codes for the vectorized classifier
_CODE_TO_TAG = {
    0: QTag.INTERIOR_Q,
    1: QTag.BOUNDARY_Q_D1,
    2: QTag.BOUNDARY_Q_D2,
    3: QTag.CORNER,
    4: QTag.D1,
    5: QTag.D2,
}
TAG_CODES = {tag: code for code, tag in _CODE_TO_TAG.items()}


def classify_grid(alpha, gamma1, gamma2, band: float = _BAND):
    """Vectorized classification; returns (tag code array, numerator array).

    Codes follow ``TAG_CODES``. The closed-form rectangle test decides; the
    band parameter is the half-width of the boundary strip in radians.
    """
    alpha, gamma1, gamma2 = _check_angles(alpha, gamma1, gamma2)
    s_excess = np.abs(gamma1 + gamma2 - np.pi) - 2.0 * alpha
    d_excess = np.abs(gamma1 - gamma2) - (np.pi - 2.0 * alpha)
    numerator = _numerator(alpha, gamma1, gamma2)

    code = np.full(np.broadcast(s_excess, d_excess).shape, 0, dtype=np.int8)
    on_s = np.abs(s_excess) <= band
    on_d = np.abs(d_excess) <= band
    code[on_s & ~on_d] = 1
    code[on_d & ~on_s] = 2
    code[on_s & on_d] = 3
    code[(s_excess > band) & ~on_s] = 4
    code[(d_excess > band) & ~on_d] = 5
    return code, numerator


def classify_data(alpha: float, gamma1: float, gamma2: float) -> AdmissibilityClass:
    """Classify a contact-angle pair relative to the admissible rectangle.

    Interior data satisfy both strict inequalities
    ``|g1 + g2 - pi| < 2*alpha`` and ``|g1 - g2| < pi - 2*alpha``.
    The sign of the sine-formula numerator is evaluated as a cross-check and a
    disagreement outside the boundary band raises ``ConsistencyError``.
    """
    code, numerator = classify_grid(float(alpha), float(gamma1), float(gamma2))
    check_numerator_sign(alpha, gamma1, gamma2, code, numerator)
    return AdmissibilityClass(tag=_CODE_TO_TAG[int(code)], numerator=float(numerator))


def check_numerator_sign(alpha, gamma1, gamma2, code, numerator):
    """Raise ``ConsistencyError`` where the numerator sign contradicts the tag codes.

    Interior data need a numerator of at least -1e-10; D1/D2 data more than
    1e-9 outside both rectangle bounds need one of at most 1e-10. Accepts
    scalars or broadcastable arrays, as returned by ``classify_grid``.
    """
    bad = (code == TAG_CODES[QTag.INTERIOR_Q]) & (numerator < -1e-10)
    if np.any(bad):
        raise ConsistencyError(
            f"closed-form test says interior but numerator = {np.min(numerator[bad]):.3e}"
        )
    s_excess = np.abs(gamma1 + gamma2 - np.pi) - 2.0 * alpha
    d_excess = np.abs(gamma1 - gamma2) - (np.pi - 2.0 * alpha)
    outside = (code == TAG_CODES[QTag.D1]) | (code == TAG_CODES[QTag.D2])
    # discount points within the band of the rectangle boundary
    bad = outside & (numerator > 1e-10) & (np.maximum(-s_excess, -d_excess) < -1e-9)
    if np.any(bad):
        raise ConsistencyError(
            f"closed-form test says D1/D2 but numerator = {np.max(numerator[bad]):.3e}"
        )


def vertex_angle_grid(alpha, gamma1, gamma2):
    """Vectorized vertex-angle formulas on InteriorQ samples.

    Returns ``(two_beta, cos_two_beta, sin_sq_two_beta)`` arrays; raises if any
    sample is not interior to the admissible rectangle.
    """
    codes, _ = classify_grid(alpha, gamma1, gamma2)
    if np.any(codes != TAG_CODES[QTag.INTERIOR_Q]):
        raise DomainError("vertex angle requires InteriorQ data everywhere")
    return _vertex_angle_formulas(alpha, gamma1, gamma2)


def _vertex_angle_formulas(alpha, gamma1, gamma2):
    """``vertex_angle_grid`` of data already classified InteriorQ."""
    b1, b2 = np.cos(gamma1), np.cos(gamma2)
    d1, d2 = 1.0 - b1 * b1, 1.0 - b2 * b2
    if np.any(np.minimum(d1, d2) < 1e-14):
        raise DomainError("vertical data (|cos gamma| = 1) are degenerate")
    # the sine-formula numerator rearranged as a difference of products; this
    # is algebraically identical to the raw form but shares its rounding with
    # the cosine expression, so the two returned fields satisfy the Pythagorean
    # identity to machine precision even close to the rectangle boundary
    top = b1 * b2 + np.cos(2.0 * np.asarray(alpha, dtype=float))
    denom_sq = d1 * d2
    cos_two_beta = top / np.sqrt(denom_sq)
    sin_sq = (denom_sq - top * top) / denom_sq
    two_beta = np.arccos(np.clip(cos_two_beta, -1.0, 1.0))
    return two_beta, cos_two_beta, sin_sq


def vertex_angle(alpha: float, gamma1: float, gamma2: float) -> VertexAngleResult:
    """Angle between the two contact lines at a wedge vertex.

    ``cos(2b) = (B1 B2 + cos(2a)) / (sqrt(1-B1^2) sqrt(1-B2^2))`` together with
    the independent sine-formula value; data must be interior to the rectangle
    and neither angle may be 0 or pi.
    """
    cls = classify_data(alpha, gamma1, gamma2)
    if cls.tag is not QTag.INTERIOR_Q:
        raise DomainError(f"vertex angle requires InteriorQ data, got {cls.tag.value}")
    two_beta, cos_two_beta, sin_sq = _vertex_angle_formulas(alpha, gamma1, gamma2)
    return VertexAngleResult(two_beta=float(two_beta), cos_two_beta=float(cos_two_beta),
                             sin_sq_two_beta=float(sin_sq))

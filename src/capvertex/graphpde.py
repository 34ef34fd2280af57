"""Finite-volume solver for the nonparametric CMC equation on a rectangle.

``div(grad u / sqrt(1 + |grad u|^2)) = 2h`` on ``[0, a] x [0, b]`` with the
contact-angle flux condition ``nu . Tu = cos(gamma)`` on each wall. Cell
centered, with face fluxes, solved by the damped inexact Newton-Krylov loop
of ``newton``; the mean-zero gauge fixes the additive constant.

The stacked face operator ``slopes`` and the divergence ``div`` are built once
per problem, each as one CSR matrix from index arithmetic: the stencils are
broadcast over the interior faces and cells and cut only at the walls. The
residual keeps the face-flux partials ``(dp, dt)`` it computes, and the
Jacobian at an accepted iterate is ``div`` times ``slopes`` with its rows
scaled by them. GMRES takes only its product, a function, so it is not
assembled: ``J v`` is ``div @ (dp * s[0::2] + dt * s[1::2])`` with
``s = slopes @ v``, the residual's own two sparse products. The Jacobian
kills constants and its columns sum to zero, as the residual does for any
field, so each Newton system ``J delta = -F`` is singular but consistent.
GMRES is right-preconditioned by the exact inverse of the
constant-coefficient 5-point Neumann Laplacian on mean-zero fields: a
type-II cosine transform, a division by the Laplacian's eigenvalues and the
inverse transform (Concus & Golub, SIAM J. Numer. Anal. 10, 1973). Only data
with a D2 corner have been seen to miss the Krylov step's acceptance test
(``RectangleProblem`` refuses D1 corners). The step differs from the
mean-zero one by a constant that the line search's re-centring removes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DomainError, NoSolutionError
from .geometry import _CODE_TO_TAG, QTag, classify_grid
from .newton import Stopwatch, newton_krylov

__all__ = ["RectangleProblem", "GraphField", "compatibility_h", "exact_square_cap",
           "solve_rectangle"]

# the largest grid a problem may ask for; its sparse operators and its GMRES
# basis grow with the cell count, and a side of 9036 at 32 cells per unit
# asks for 8.4e10 cells, 670 GB per field
_MAX_CELLS = 512 * 512
# each corner's two walls, as (side, end) indices into the (left, right,
# bottom, top) angles; every corner is a right-angled wedge, alpha = pi/4
_CORNERS = {"left-bottom": (0, 2), "left-top": (0, 3),
            "right-bottom": (1, 2), "right-top": (1, 3)}
# the corner classes near which a solution may exist
_SOLVABLE = (QTag.INTERIOR_Q, QTag.D2)


def _cosines(gammas) -> np.ndarray:
    """cos(gamma) per angle, with the float pi/2 taken as the exact right
    angle so that its cosine is a true zero."""
    c = np.cos(np.asarray(gammas, dtype=float))
    return np.where(np.abs(c) < 4e-16, 0.0, c)


def _walls(a, b, gammas) -> tuple:
    """The four wall angles as floats, once the sides and the angles pass."""
    gammas = tuple(float(g) for g in gammas)
    if not (0.0 < a < np.inf and 0.0 < b < np.inf):
        raise DomainError("side lengths must be positive and finite")
    if len(gammas) != 4:
        raise DomainError("four wall angles required (left, right, bottom, top)")
    if any(not 0.0 <= g <= np.pi for g in gammas):
        raise DomainError("contact angles must lie in [0, pi]")
    return gammas


def compatibility_h(a: float, b: float, gammas) -> float:
    """Mean curvature implied by the divergence theorem.

    ``h = sum(cos(gamma_wall) * wall_length) / (2 a b)``; wall order
    (left, right, bottom, top).
    """
    cl, cr, cb, ct = _cosines(_walls(a, b, gammas))
    return (b * (cl + cr) + a * (cb + ct)) / (2.0 * a * b)


@dataclass(frozen=True)
class RectangleProblem:
    """A rectangle with one constant contact angle per wall.

    ``h``, the graph's mean curvature, is not given: the flux balance fixes it
    (``compatibility_h``).

    Each corner is a right-angled wedge, and its (side, end) angle pair is
    classified against Concus & Finn's admissible rectangle at alpha = pi/4
    (``corners``). No solution exists near a D1 corner (Acta Math. 132, 1974;
    SIAM J. Math. Anal. 27, 1996), so a corner in D1 or on the rectangle's
    boundary raises ``NoSolutionError``. InteriorQ and D2 corners are solved;
    near a D2 corner the solution may be discontinuous.
    """

    a: float
    b: float
    gammas: tuple[float, float, float, float]
    h: float = field(init=False)
    grid_n: int = 32

    def __post_init__(self):
        object.__setattr__(self, "gammas", _walls(self.a, self.b, self.gammas))
        if isinstance(self.grid_n, bool) or not isinstance(self.grid_n, (int, np.integer)):
            raise DomainError(f"grid_n must be an integer, got {self.grid_n!r}")
        if self.grid_n < 16:
            raise DomainError("grid_n must be at least 16")
        if min(self.shape) < 3:
            # the second-order one-sided wall slopes span three cells
            raise DomainError(
                f"grid of {self.shape[0]} x {self.shape[1]} cells: each side needs at least 3"
            )
        if self.shape[0] * self.shape[1] > _MAX_CELLS:
            raise DomainError(
                f"grid of {self.shape[0]} x {self.shape[1]} cells: at most {_MAX_CELLS} allowed"
            )
        object.__setattr__(self, "h", float(compatibility_h(self.a, self.b, self.gammas)))
        for name, tag in self.corners.items():
            if tag not in _SOLVABLE:
                raise NoSolutionError(
                    f"corner {name} classifies as {tag.value}; no solution exists near it")

    @property
    def corners(self) -> dict[str, QTag]:
        """The class of each corner's (side, end) angle pair, by corner name."""
        g = np.array(self.gammas)
        sides, ends = zip(*_CORNERS.values())
        codes, _ = classify_grid(np.pi / 4, g[list(sides)], g[list(ends)])
        return {name: _CODE_TO_TAG[code] for name, code in zip(_CORNERS, codes.tolist())}

    @property
    def equal_angles(self) -> bool:
        """All four walls carry the same angle (to 14 decimals)."""
        return len(set(round(g, 14) for g in self.gammas)) == 1

    @property
    def shape(self) -> tuple[int, int]:
        return (int(round(self.a * self.grid_n)), int(round(self.b * self.grid_n)))


@dataclass(frozen=True)
class GraphField:
    """Cell-centered height samples with solver provenance: ``trace`` is
    ``newton_krylov``'s, whose ``setup`` stage builds the operators and the
    initial guess."""

    u: np.ndarray
    hx: float
    hy: float
    a: float
    b: float
    iterations: int = 0
    final_residual: float = 0.0
    trace: dict = field(default_factory=dict)

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        u.flags.writeable = False
        object.__setattr__(self, "u", u)
        if abs(float(u.mean())) > 1e-12:
            raise DomainError("height field must satisfy the mean-zero gauge")

    @property
    def x(self) -> np.ndarray:
        return (np.arange(self.u.shape[0]) + 0.5) * self.hx

    @property
    def y(self) -> np.ndarray:
        return (np.arange(self.u.shape[1]) + 0.5) * self.hy

    def points(self) -> np.ndarray:
        """(n, 3) array of (x, y, u) samples."""
        xx, yy = np.meshgrid(self.x, self.y, indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel(), self.u.ravel()])


# cell-centre slope stencils in units of 1/h, as (offsets, weights): at the
# first cell (second order, one-sided), inside, and at the last cell
_GRADIENTS = (((0, 1, 2), (-1.5, 2.0, -0.5)), ((-1, 1), (-0.5, 0.5)),
              ((-2, -1, 0), (0.5, -2.0, 1.5)))


def _face_rows(low, step, along, gradient, hp, ht):
    """Rows 2k and 2k+1 of ``slopes`` for the faces between cells ``low`` and
    ``low + step``, an (m, k) array of flat cell indices: the primary slope
    over ``hp``, and the transverse one over ``ht``, the face mean of the two
    cells' ``gradient`` stencils along cells ``along`` apart.

    Returns the column indices, values and row lengths, each (m, -1) in row
    order. Values are weights times ``1.0 / h``, the product SciPy forms for a
    sparse matrix divided by ``h``.
    """
    transverse = sorted((s * step + t * along, 0.5 * w)
                        for s in (0, 1) for t, w in zip(*gradient))
    offsets = np.array([0, step] + [o for o, _ in transverse], dtype=np.int32)
    values = np.concatenate([np.array([-1.0, 1.0]) * (1.0 / hp),
                             np.array([w for _, w in transverse]) * (1.0 / ht)])
    m, k = low.shape
    return ((low[:, :, None] + offsets).reshape(m, -1),
            np.broadcast_to(values, (m, k, values.size)).reshape(m, -1),
            np.broadcast_to(np.array([2, len(transverse)], dtype=np.int32),
                            (m, k, 2)).reshape(m, -1))


def _slopes(nx: int, ny: int, hx: float, hy: float) -> sp.csr_matrix:
    """The stacked face operator: row 2k the primary slope across face k, row
    2k+1 its transverse slope, with east faces before north faces.

    Each family is built from three stencils broadcast over its faces: the
    faces whose transverse stencil reaches a wall (the first and last face of
    each column of east faces, the first and last row of north faces) and
    the interior ones between them.
    """
    cells = np.arange(nx * ny, dtype=np.int32).reshape(nx, ny)
    first, inside, last = _GRADIENTS
    east = [_face_rows(low, ny, 1, g, hx, hy) for low, g in
            ((cells[:-1, :1], first), (cells[:-1, 1:-1], inside), (cells[:-1, -1:], last))]
    north = [_face_rows(low.reshape(1, -1), 1, ny, g, hy, hx) for low, g in
             ((cells[:1, :-1], first), (cells[1:-1, :-1], inside), (cells[-1:, :-1], last))]
    # for each of the three arrays: a family's blocks joined row by row, the
    # east faces' rows before the north faces'
    indices, data, lengths = (
        np.concatenate([np.concatenate(blocks, axis=1).ravel() for blocks in families])
        for families in zip(zip(*east), zip(*north)))
    indptr = np.zeros(lengths.size + 1, dtype=np.int32)
    np.cumsum(lengths, out=indptr[1:])
    return sp.csr_matrix((data, indices, indptr), shape=(lengths.size, nx * ny))


def _divergence(nx: int, ny: int, hx: float, hy: float) -> sp.csr_matrix:
    """(cells, faces) discrete divergence of face fluxes: per cell, its east
    and north faces' fluxes minus its west and south ones', each over h.
    Wall cells lack the faces beyond the wall."""
    cells = np.arange(nx * ny, dtype=np.int32).reshape(nx, ny)
    # north face (i, j) follows the (nx - 1) ny east faces, ny - 1 per row
    north = (nx - 1) * ny + cells - np.arange(nx, dtype=np.int32)[:, None]
    indices = np.stack([cells - ny, cells, north - 1, north], axis=2)
    keep = np.ones(indices.shape, dtype=bool)
    keep[0, :, 0] = keep[-1, :, 1] = keep[:, 0, 2] = keep[:, -1, 3] = False
    values = np.array([-1.0, 1.0, -1.0, 1.0]) * np.repeat([1.0 / hx, 1.0 / hy], 2)
    indptr = np.zeros(nx * ny + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=2).ravel(), out=indptr[1:])
    return sp.csr_matrix((np.broadcast_to(values, keep.shape)[keep], indices[keep], indptr),
                         shape=(nx * ny, (nx - 1) * ny + nx * (ny - 1)))


def _flux(p, t):
    """Face flux ``p / sqrt(1 + p^2 + t^2)`` and its partials in p and t."""
    w = np.sqrt(1.0 + p ** 2 + t ** 2)
    w3 = w ** 3
    return p / w, (1.0 + t ** 2) / w3, -(p * t) / w3


class _Discretization:
    """Residual and Jacobian of the finite-volume system for one problem.

    Cells are flattened row-major, cell (i, j) at ``i * ny + j``. East faces
    (between columns i and i+1) come before north faces (between rows j and
    j+1). Row 2k of ``slopes`` is the primary slope across face k, row 2k+1
    its transverse slope: the face mean of the cell-centre slopes along it.
    """

    def __init__(self, prob: RectangleProblem):
        self.nx, self.ny = nx, ny = prob.shape
        self.hx = hx = prob.a / nx
        self.hy = hy = prob.b / ny
        self.slopes = _slopes(nx, ny, hx, hy)
        self.div = _divergence(nx, ny, hx, hy)
        # the walls carry the prescribed fluxes cos(gamma); the uniform defect
        # keeps the singular system consistent
        cl, cr, cb, ct = np.cos(prob.gammas)
        area = prob.a * prob.b
        defect = ((cl + cr) * prob.b + (cb + ct) * prob.a - 2.0 * prob.h * area) / area
        source = np.full((nx, ny), -2.0 * prob.h - defect)
        source[0] += cl / hx
        source[-1] += cr / hx
        source[:, 0] += cb / hy
        source[:, -1] += ct / hy
        self.source = source.ravel()
        # eigenvalues of the negated 5-point Neumann Laplacian on the type-II
        # cosine modes, inverted; the constant mode maps to 0
        lam = ((2.0 - 2.0 * np.cos(np.pi * np.arange(nx) / nx))[:, None] / hx ** 2
               + (2.0 - 2.0 * np.cos(np.pi * np.arange(ny) / ny))[None, :] / hy ** 2)
        lam[0, 0] = np.inf
        self.inverse_eigenvalues = 1.0 / lam

    def residual(self, u):
        """The residual at ``u`` and its face-flux partials ``(dp, dt)``, which
        ``jacobian_operator`` scales by: the Jacobian at an accepted iterate
        then costs no second slope product."""
        s = self.slopes @ np.ravel(u)
        f, dp, dt = _flux(s[0::2], s[1::2])
        return (self.div @ f + self.source).reshape(self.nx, self.ny), (dp, dt)

    def jacobian_operator(self, partials):
        """The Jacobian's product from ``residual``'s partials, unassembled:
        the function mapping ``v`` to ``div @ (dp * s[0::2] + dt * s[1::2])``
        with ``s = slopes @ v``, the residual's own two products."""
        dp, dt = partials
        slopes, div = self.slopes, self.div

        def matvec(v):
            s = slopes @ np.ravel(v)
            return div @ (dp * s[0::2] + dt * s[1::2])

        return matvec

    def poisson_solve(self, r):
        """The mean-zero ``v`` with ``Lap v = r - mean(r)``, ``Lap`` the 5-point
        Neumann Laplacian: a cosine transform, a division, and back."""
        from scipy import fft

        rhat = fft.dctn(np.reshape(r, (self.nx, self.ny)), type=2, norm="ortho")
        return -fft.idctn(rhat * self.inverse_eigenvalues, type=2, norm="ortho").ravel()


def _initial_guess(prob: RectangleProblem) -> np.ndarray:
    nx, ny = prob.shape
    hx, hy = prob.a / nx, prob.b / ny
    x = (np.arange(nx) + 0.5) * hx - prob.a / 2
    y = (np.arange(ny) + 0.5) * hy - prob.b / 2
    xx, yy = np.meshgrid(x, y, indexing="ij")
    c = float(_cosines(prob.gammas[0]))
    if prob.equal_angles and abs(prob.a - prob.b) < 1e-14 and c != 0.0:
        # an exact cap solves the square problem: the lower one for
        # cos(gamma) > 0, the upper one for cos(gamma) < 0; at a right angle
        # the compatible h is 0 and the paraboloid below is flat
        radius = prob.a / (2.0 * c)
        u = -np.sign(c) * np.sqrt(radius ** 2 - xx ** 2 - yy ** 2)
    else:
        u = 0.5 * prob.h * (xx ** 2 + yy ** 2)
    return u - u.mean()


def exact_square_cap(prob: RectangleProblem) -> np.ndarray:
    """Mean-zero samples of the exact spherical-cap solution (square, equal
    angles): the lower cap for cos(gamma) > 0, the upper one for
    cos(gamma) < 0, and the flat field at a right angle."""
    if not prob.equal_angles or abs(prob.a - prob.b) > 1e-14:
        raise DomainError("exact cap exists only for the equal-angle square")
    return _initial_guess(prob)


def solve_rectangle(prob: RectangleProblem) -> GraphField:
    """Newton-Krylov solve of the discrete CMC system (``newton_krylov``)
    from the exact cap on an equal-angle square, and from the paraboloid of
    mean curvature ``h`` elsewhere: the mean-zero height field with its trace.

    One and two BLAS threads give the same fields at 64 cells per unit, but
    the square and the 1 x 2 rectangle at 128 differ by 2.8e-17 (``_gmres``).
    """
    clock = Stopwatch(("setup", "residual", "krylov", "line_search"))
    disc = _Discretization(prob)
    u, trace = newton_krylov(disc.residual, disc.jacobian_operator, disc.poisson_solve,
                             lambda v: v - v.mean(), _initial_guess(prob), clock)
    return GraphField(u=u, hx=disc.hx, hy=disc.hy, a=prob.a, b=prob.b,
                      iterations=len(trace["steps"]), final_residual=trace["residuals"][-1],
                      trace=trace)

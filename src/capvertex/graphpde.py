"""Finite-volume solver for the nonparametric CMC equation on a rectangle.

``div(grad u / sqrt(1 + |grad u|^2)) = 2h`` on ``[0, a] x [0, b]`` with the
contact-angle flux condition ``nu . Tu = cos(gamma)`` on each wall. Cell
centered, with face fluxes and a damped Newton iteration; the mean-zero gauge
fixes the additive constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DomainError, IncompatibleDataError, NonConvergenceError

__all__ = ["RectangleProblem", "GraphField", "compatibility_h", "solve_rectangle"]

# wall order used throughout: left (x=0), right (x=a), bottom (y=0), top (y=b)
WALLS = ("left", "right", "bottom", "top")


def compatibility_h(a: float, b: float, gammas) -> float:
    """Mean curvature implied by the divergence theorem.

    ``h = sum(cos(gamma_wall) * wall_length) / (2 a b)``; wall order
    (left, right, bottom, top).
    """
    if a <= 0 or b <= 0:
        raise DomainError("side lengths must be positive")
    # treat the float pi/2 as the exact right angle so its cosine is a true zero
    c = np.cos(np.asarray(gammas, dtype=float))
    cl, cr, cb, ct = np.where(np.abs(c) < 4e-16, 0.0, c)
    return (b * (cl + cr) + a * (cb + ct)) / (2.0 * a * b)


@dataclass(frozen=True)
class RectangleProblem:
    """A rectangle with one constant contact angle per wall.

    ``h`` may be omitted, in which case the compatibility value is used; a
    supplied ``h`` must match it to 1e-10.
    """

    a: float
    b: float
    gammas: tuple[float, float, float, float]
    h: float | None = None
    grid_n: int = 32

    def __post_init__(self):
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        if not (0.0 < self.a < np.inf and 0.0 < self.b < np.inf):
            raise DomainError("side lengths must be positive and finite")
        if len(self.gammas) != 4:
            raise DomainError("four wall angles required (left, right, bottom, top)")
        if any(not 0.0 <= g <= np.pi for g in self.gammas):
            raise DomainError("contact angles must lie in [0, pi]")
        if self.grid_n < 16:
            raise DomainError("grid_n must be at least 16")
        h0 = compatibility_h(self.a, self.b, self.gammas)
        if self.h is None:
            object.__setattr__(self, "h", float(h0))
        elif abs(self.h - h0) > 1e-10:
            raise IncompatibleDataError(
                f"prescribed h = {self.h} violates the flux balance (want {h0})"
            )
        gs = set(round(g, 14) for g in self.gammas)
        if len(gs) == 1:
            g = self.gammas[0]
            # existence window for the single-angle rectangle problem
            if not np.pi / 4 < g < np.pi / 2:
                raise DomainError(
                    "equal-angle rectangle data require pi/4 < gamma < pi/2"
                )

    @property
    def shape(self) -> tuple[int, int]:
        return (int(round(self.a * self.grid_n)), int(round(self.b * self.grid_n)))


@dataclass(frozen=True)
class GraphField:
    """Cell-centered height samples with solver provenance."""

    u: np.ndarray
    hx: float
    hy: float
    a: float
    b: float
    iterations: int = 0
    final_residual: float = 0.0

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


def _transverse_gradient(u: np.ndarray, hy: float) -> np.ndarray:
    """d(u)/dy at every cell center; second-order one-sided at the walls."""
    g = np.empty_like(u)
    g[:, 1:-1] = (u[:, 2:] - u[:, :-2]) / (2.0 * hy)
    g[:, 0] = (-3.0 * u[:, 0] + 4.0 * u[:, 1] - u[:, 2]) / (2.0 * hy)
    g[:, -1] = (3.0 * u[:, -1] - 4.0 * u[:, -2] + u[:, -3]) / (2.0 * hy)
    return g


def _transverse_weights(ny: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-row (offsets, weights) of the y-gradient stencil in units of 1/hy."""
    out = []
    for j in range(ny):
        if j == 0:
            out.append((np.array([0, 1, 2]), np.array([-1.5, 2.0, -0.5])))
        elif j == ny - 1:
            out.append((np.array([0, -1, -2]), np.array([1.5, -2.0, 0.5])))
        else:
            out.append((np.array([-1, 1]), np.array([-0.5, 0.5])))
    return out


class _Discretization:
    """Residual and Jacobian of the finite-volume system for one problem."""

    def __init__(self, prob: RectangleProblem):
        self.prob = prob
        self.nx, self.ny = prob.shape
        self.hx = prob.a / self.nx
        self.hy = prob.b / self.ny
        gl, gr, gb, gt = prob.gammas
        # face-value of the x/y flux component on each boundary
        self.fw = -np.cos(gl)
        self.fe = np.cos(gr)
        self.fs = -np.cos(gb)
        self.fn = np.cos(gt)
        # uniform correction keeping the singular system consistent
        area = prob.a * prob.b
        total_boundary = (np.cos(gl) + np.cos(gr)) * prob.b + (np.cos(gb) + np.cos(gt)) * prob.a
        self.defect = (total_boundary - 2.0 * prob.h * area) / area

    def _face_fluxes(self, u):
        hx, hy = self.hx, self.hy
        # east faces between columns i and i+1
        ux_e = (u[1:, :] - u[:-1, :]) / hx
        gy = _transverse_gradient(u, hy)
        uy_e = 0.5 * (gy[1:, :] + gy[:-1, :])
        we = np.sqrt(1.0 + ux_e ** 2 + uy_e ** 2)
        fx = ux_e / we
        # north faces between rows j and j+1
        uy_n = (u[:, 1:] - u[:, :-1]) / hy
        gx = _transverse_gradient(u.T, hx).T
        ux_n = 0.5 * (gx[:, 1:] + gx[:, :-1])
        wn = np.sqrt(1.0 + ux_n ** 2 + uy_n ** 2)
        fy = uy_n / wn
        return (ux_e, uy_e, we, fx), (ux_n, uy_n, wn, fy)

    def residual(self, u):
        nx, ny = self.nx, self.ny
        (_, _, _, fx), (_, _, _, fy) = self._face_fluxes(u)
        fx_all = np.empty((nx + 1, ny))
        fx_all[1:-1] = fx
        fx_all[0] = self.fw
        fx_all[-1] = self.fe
        fy_all = np.empty((nx, ny + 1))
        fy_all[:, 1:-1] = fy
        fy_all[:, 0] = self.fs
        fy_all[:, -1] = self.fn
        div = (fx_all[1:] - fx_all[:-1]) / self.hx + (fy_all[:, 1:] - fy_all[:, :-1]) / self.hy
        return div - 2.0 * self.prob.h - self.defect

    def jacobian(self, u):
        nx, ny = self.nx, self.ny
        hx, hy = self.hx, self.hy
        (ux_e, uy_e, we, _), (ux_n, uy_n, wn, _) = self._face_fluxes(u)
        rows, cols, vals = [], [], []

        def flat(i, j):
            return i * ny + j

        ii = np.arange(nx)
        jj = np.arange(ny)

        # d(flux)/d(primary gradient) and /d(transverse gradient)
        dfe_dux = (1.0 + uy_e ** 2) / we ** 3
        dfe_duy = -(ux_e * uy_e) / we ** 3
        dfn_duy = (1.0 + ux_n ** 2) / wn ** 3
        dfn_dux = -(uy_n * ux_n) / wn ** 3

        ty = _transverse_weights(ny)
        tx = _transverse_weights(nx)

        # east faces: face (i, j) couples cells (i, j), (i+1, j) and the
        # transverse stencils of both columns
        for i in range(nx - 1):
            for down, sign in ((0, 1.0), (1, -1.0)):
                # residual row of cell (i + down, j); d(res)/d(face flux)
                coef_row = sign / hx
                # primary part
                for col_off, wgt in ((0, -1.0 / hx), (1, 1.0 / hx)):
                    rows.append(flat(i + down, jj))
                    cols.append(flat(i + col_off, jj))
                    vals.append(coef_row * dfe_dux[i] * wgt)
                # transverse part: average of y-gradients in columns i, i+1
                for col_off in (0, 1):
                    for j in range(ny):
                        offs, wts = ty[j]
                        rows.append(np.full(offs.size, flat(i + down, j)))
                        cols.append(flat(i + col_off, j + offs))
                        vals.append(coef_row * dfe_duy[i, j] * 0.5 * wts / hy)

        # north faces
        for j in range(ny - 1):
            for down, sign in ((0, 1.0), (1, -1.0)):
                coef_row = sign / hy
                for row_off, wgt in ((0, -1.0 / hy), (1, 1.0 / hy)):
                    rows.append(flat(ii, j + down))
                    cols.append(flat(ii, j + row_off))
                    vals.append(coef_row * dfn_duy[:, j] * wgt)
                for row_off in (0, 1):
                    for i in range(nx):
                        offs, wts = tx[i]
                        rows.append(np.full(offs.size, flat(i, j + down)))
                        cols.append(flat(i + offs, j + row_off))
                        vals.append(coef_row * dfn_dux[i, j] * 0.5 * wts / hx)

        rows = np.concatenate([np.atleast_1d(r) for r in rows])
        cols = np.concatenate([np.atleast_1d(c) for c in cols])
        vals = np.concatenate([np.atleast_1d(v) for v in vals])
        n = nx * ny
        return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def _initial_guess(prob: RectangleProblem) -> np.ndarray:
    nx, ny = prob.shape
    hx, hy = prob.a / nx, prob.b / ny
    x = (np.arange(nx) + 0.5) * hx - prob.a / 2
    y = (np.arange(ny) + 0.5) * hy - prob.b / 2
    xx, yy = np.meshgrid(x, y, indexing="ij")
    gs = set(round(g, 14) for g in prob.gammas)
    if len(gs) == 1 and abs(prob.a - prob.b) < 1e-14:
        # the exact lower cap solves the square problem
        radius = prob.a / (2.0 * np.cos(prob.gammas[0]))
        u = -np.sqrt(radius ** 2 - xx ** 2 - yy ** 2)
    else:
        u = 0.5 * prob.h * (xx ** 2 + yy ** 2)
    return u - u.mean()


def exact_square_cap(prob: RectangleProblem) -> np.ndarray:
    """Mean-zero samples of the exact spherical-cap solution (square, equal angles)."""
    gs = set(round(g, 14) for g in prob.gammas)
    if len(gs) != 1 or abs(prob.a - prob.b) > 1e-14:
        raise DomainError("exact cap exists only for the equal-angle square")
    return _initial_guess(prob)


def solve_rectangle(prob: RectangleProblem, tol: float = 1e-10,
                    max_iters: int = 60, initial: np.ndarray | None = None) -> GraphField:
    """Damped Newton solve of the discrete CMC system.

    Returns the mean-zero height field; raises ``NonConvergenceError`` with the
    iteration trace if the residual stagnates.
    """
    disc = _Discretization(prob)
    u = _initial_guess(prob) if initial is None else np.array(initial, dtype=float)
    u -= u.mean()
    trace = []
    res = disc.residual(u)
    rnorm = float(np.abs(res).max())
    n = u.size
    ones = np.ones(n)
    for it in range(max_iters):
        trace.append(rnorm)
        if rnorm < tol:
            return GraphField(u=u, hx=disc.hx, hy=disc.hy, a=prob.a, b=prob.b,
                              iterations=it, final_residual=rnorm)
        J = disc.jacobian(u)
        # mean-zero gauge via a bordered system (J has the constant nullspace)
        A = sp.bmat([[J, ones[:, None]], [ones[None, :], None]], format="csc")
        rhs = np.concatenate([-res.ravel(), [0.0]])
        delta = spla.spsolve(A, rhs)[:n].reshape(u.shape)
        step = 1.0
        for _ in range(30):
            cand = u + step * delta
            cand -= cand.mean()
            cres = disc.residual(cand)
            cnorm = float(np.abs(cres).max())
            if cnorm < rnorm * (1.0 - 1e-4 * step) or cnorm < tol:
                break
            step *= 0.5
        else:
            raise NonConvergenceError(
                f"line search stagnated at residual {rnorm:.3e}", trace=trace)
        u, res, rnorm = cand, cres, cnorm
    raise NonConvergenceError(
        f"no convergence in {max_iters} iterations (residual {rnorm:.3e})",
        trace=trace)

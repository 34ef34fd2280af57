"""Finite-volume solver for the nonparametric CMC equation on a rectangle.

``div(grad u / sqrt(1 + |grad u|^2)) = 2h`` on ``[0, a] x [0, b]`` with the
contact-angle flux condition ``nu . Tu = cos(gamma)`` on each wall. Cell
centered, with face fluxes and a damped Newton iteration; the mean-zero gauge
fixes the additive constant.

The stacked face operator ``slopes`` and the divergence ``div``, built once,
serve both residual and Jacobian. The Jacobian kills constants and its columns
sum to zero, as the residual does for any field, so each Newton system
``J delta = -F`` is singular but consistent. GMRES solves it, preconditioned by
the exact inverse of the constant-coefficient 5-point Neumann Laplacian on
mean-zero fields: a type-II cosine transform, a division by the Laplacian's
eigenvalues and the inverse transform (Concus & Golub, SIAM J. Numer. Anal. 10,
1973). A Krylov step is accepted by its own true linear residual (an inexact
Newton forcing term, Eisenstat & Walker, SIAM J. Sci. Comput. 17, 1996); a step
that fails the test is solved directly, by a sparse LU of the Jacobian with the
last cell's step pinned at 0, which is exact because the last equation is minus
the sum of the others. Either step differs from the mean-zero one by a constant
that the line search's re-centring removes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DomainError, IncompatibleDataError, NonConvergenceError

__all__ = ["RectangleProblem", "GraphField", "compatibility_h", "solve_rectangle"]

# a solve stagnates when this many Newton steps in a row each leave more than
# this fraction of the residual
_STALL_STEPS = 5
_STALL_RATIO = 0.9
# the largest grid a problem may ask for; its sparse operators and LU grow
# with the cell count, and a side of 9036 at 32 cells per unit asks for a TiB
_MAX_CELLS = 512 * 512
# GMRES for a Newton step: restart length, restart cycles and relative
# tolerance; the step is kept when its true linear residual is at most
# _FORCING times the Newton residual's 2-norm, or _FORCING_FLOOR times tol
_GMRES_RESTART = 40
_GMRES_CYCLES = 2
_GMRES_RTOL = 1e-8
_FORCING = 1e-6
_FORCING_FLOOR = 1e-3


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
        if min(self.shape) < 3:
            # the second-order one-sided wall slopes span three cells
            raise DomainError(
                f"grid of {self.shape[0]} x {self.shape[1]} cells: each side needs at least 3"
            )
        if self.shape[0] * self.shape[1] > _MAX_CELLS:
            raise DomainError(
                f"grid of {self.shape[0]} x {self.shape[1]} cells: at most {_MAX_CELLS} allowed"
            )
        h0 = compatibility_h(self.a, self.b, self.gammas)
        if self.h is None:
            object.__setattr__(self, "h", float(h0))
        elif abs(self.h - h0) > 1e-10:
            raise IncompatibleDataError(
                f"prescribed h = {self.h} violates the flux balance (want {h0})"
            )
        if self.equal_angles:
            g = self.gammas[0]
            # existence window for the single-angle rectangle problem
            if not np.pi / 4 < g < np.pi / 2:
                raise DomainError(
                    "equal-angle rectangle data require pi/4 < gamma < pi/2"
                )

    @property
    def equal_angles(self) -> bool:
        """All four walls carry the same angle (to 14 decimals)."""
        return len(set(round(g, 14) for g in self.gammas)) == 1

    @property
    def shape(self) -> tuple[int, int]:
        return (int(round(self.a * self.grid_n)), int(round(self.b * self.grid_n)))


@dataclass(frozen=True)
class GraphField:
    """Cell-centered height samples with solver provenance.

    ``trace`` holds the max-norm residual before each Newton step and the final
    one (``residuals``), and per step its accepted length (``steps``), its GMRES
    iterations (``krylov``) and whether the direct fallback solved it
    (``direct``)."""

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


def _difference(n: int) -> sp.csr_matrix:
    """(n-1, n) forward difference between neighbouring cells."""
    return sp.diags([-1.0, 1.0], [0, 1], shape=(n - 1, n), format="csr")


def _average(n: int) -> sp.csr_matrix:
    """(n-1, n) mean of neighbouring cells, i.e. the value on their shared face."""
    return sp.diags([0.5, 0.5], [0, 1], shape=(n - 1, n), format="csr")


def _gradient(n: int) -> sp.csr_matrix:
    """(n, n) cell-centre slope in units of 1/h; second-order one-sided at the walls."""
    g = sp.diags([-0.5, 0.5], [-1, 1], shape=(n, n), format="lil")
    g[0, :3] = [-1.5, 2.0, -0.5]
    g[-1, -3:] = [0.5, -2.0, 1.5]
    return g.tocsr()


def _flux(p, t):
    """Face flux ``p / sqrt(1 + p^2 + t^2)`` and its partials in p and t."""
    w = np.sqrt(1.0 + p ** 2 + t ** 2)
    return p / w, (1.0 + t ** 2) / w ** 3, -(p * t) / w ** 3


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
        ix, iy = sp.identity(nx), sp.identity(ny)
        dx, dy = _difference(nx), _difference(ny)
        primary = sp.vstack([sp.kron(dx, iy) / hx, sp.kron(ix, dy) / hy])
        transverse = sp.vstack([sp.kron(_average(nx), _gradient(ny)) / hy,
                                sp.kron(_gradient(nx), _average(ny)) / hx])
        interleave = np.arange(2 * primary.shape[0]).reshape(2, -1).T.ravel()
        self.slopes = sp.vstack([primary, transverse], format="csr")[interleave]
        self.div = -sp.hstack([sp.kron(dx.T, iy) / hx, sp.kron(ix, dy.T) / hy], format="csr")
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
        s = self.slopes @ np.ravel(u)
        f, _, _ = _flux(s[0::2], s[1::2])
        return (self.div @ f + self.source).reshape(self.nx, self.ny)

    def jacobian(self, u):
        s = self.slopes @ np.ravel(u)
        _, dp, dt = _flux(s[0::2], s[1::2])
        # rows scaled by their flux partials; every other row pointer joins a
        # face's two rows into one, whose repeated columns the product sums
        S = self.slopes
        scaled = S.data * np.repeat(np.column_stack([dp, dt]).ravel(), np.diff(S.indptr))
        return self.div @ sp.csr_matrix((scaled, S.indices, S.indptr[::2]),
                                        shape=(dp.size, S.shape[1]))

    def poisson_solve(self, r):
        """The mean-zero ``v`` with ``Lap v = r - mean(r)``, ``Lap`` the 5-point
        Neumann Laplacian: a cosine transform, a division, and back."""
        from scipy import fft

        rhat = fft.dctn(np.reshape(r, (self.nx, self.ny)), type=2, norm="ortho")
        return -fft.idctn(rhat * self.inverse_eigenvalues, type=2, norm="ortho").ravel()

    def krylov_step(self, J, res, tol):
        """GMRES on ``J delta = -res``: the step, its GMRES iterations and
        whether its true linear residual passes the acceptance test."""
        n = res.size
        rhs = -res.ravel()
        iterations = []
        delta, _ = spla.gmres(
            J, rhs, rtol=_GMRES_RTOL, atol=_FORCING_FLOOR * tol, restart=_GMRES_RESTART,
            maxiter=_GMRES_CYCLES, callback=iterations.append, callback_type="pr_norm",
            M=spla.LinearOperator((n, n), matvec=self.poisson_solve, dtype=float))
        linear = float(np.linalg.norm(J @ delta - rhs))
        ok = linear <= max(_FORCING * float(np.linalg.norm(rhs)), _FORCING_FLOOR * tol)
        return delta.reshape(res.shape), len(iterations), ok


def _pinned_step(J, res):
    """The direct Newton step: a sparse LU solve with the last cell's step pinned at 0."""
    pinned = spla.spsolve(J[:-1, :-1], -res.ravel()[:-1], permc_spec="MMD_AT_PLUS_A")
    return np.append(pinned, 0.0).reshape(res.shape)


def _initial_guess(prob: RectangleProblem) -> np.ndarray:
    nx, ny = prob.shape
    hx, hy = prob.a / nx, prob.b / ny
    x = (np.arange(nx) + 0.5) * hx - prob.a / 2
    y = (np.arange(ny) + 0.5) * hy - prob.b / 2
    xx, yy = np.meshgrid(x, y, indexing="ij")
    if prob.equal_angles and abs(prob.a - prob.b) < 1e-14:
        # the exact lower cap solves the square problem
        radius = prob.a / (2.0 * np.cos(prob.gammas[0]))
        u = -np.sqrt(radius ** 2 - xx ** 2 - yy ** 2)
    else:
        u = 0.5 * prob.h * (xx ** 2 + yy ** 2)
    return u - u.mean()


def exact_square_cap(prob: RectangleProblem) -> np.ndarray:
    """Mean-zero samples of the exact spherical-cap solution (square, equal angles)."""
    if not prob.equal_angles or abs(prob.a - prob.b) > 1e-14:
        raise DomainError("exact cap exists only for the equal-angle square")
    return _initial_guess(prob)


def solve_rectangle(prob: RectangleProblem, tol: float = 1e-10,
                    max_iters: int = 60, initial: np.ndarray | None = None) -> GraphField:
    """Damped Newton solve of the discrete CMC system.

    Returns the mean-zero height field with its Newton trace. Raises
    ``NonConvergenceError`` with the trace of residuals if the residual
    stagnates: the line search finds no decrease, or ``_STALL_STEPS`` steps in
    a row each cut it by less than ``1 - _STALL_RATIO``.
    """
    disc = _Discretization(prob)
    u = _initial_guess(prob) if initial is None else np.array(initial, dtype=float)
    u -= u.mean()
    trace, steps, krylov, direct = [], [], [], []
    res = disc.residual(u)
    rnorm = float(np.abs(res).max())
    for it in range(max_iters):
        trace.append(rnorm)
        if rnorm < tol:
            return GraphField(u=u, hx=disc.hx, hy=disc.hy, a=prob.a, b=prob.b,
                              iterations=it, final_residual=rnorm,
                              trace={"residuals": tuple(trace), "steps": tuple(steps),
                                     "krylov": tuple(krylov), "direct": tuple(direct)})
        recent = trace[-_STALL_STEPS - 1:]
        if len(recent) > _STALL_STEPS and all(
                new > _STALL_RATIO * old for old, new in zip(recent, recent[1:])):
            raise NonConvergenceError(
                f"residual stagnated at {rnorm:.3e} over {_STALL_STEPS} steps", trace=trace)
        J = disc.jacobian(u)
        delta, its, ok = disc.krylov_step(J, res, tol)
        if not ok:      # a non-finite residual fails the test too
            delta = _pinned_step(J, res)
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
        steps.append(step)
        krylov.append(its)
        direct.append(not ok)
    raise NonConvergenceError(
        f"no convergence in {max_iters} iterations (residual {rnorm:.3e})",
        trace=trace)

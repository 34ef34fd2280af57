"""Damped inexact Newton–Krylov solve of ``F(u) = 0``, and the stage clock.

The caller gives what differs per problem: ``residual(u)``, which returns
``F(u)`` with the linearisation data of its Jacobian; ``jacobian(data)``, the
function mapping ``v`` to ``J v``, so that no Jacobian is assembled (an
exact Jacobian-free Newton-Krylov step; Knoll & Keyes, J. Comput. Phys. 193,
2004); ``psolve``, which applies a preconditioner ``M⁻¹``; ``gauge``, the
projection onto the fields a solve may return; and the initial field.

Restarted GMRES (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 1986) solves
each Newton system ``J delta = -F``, right-preconditioned by ``psolve``.
Right preconditioning makes the residual GMRES minimizes the true one. A
Krylov step stops at a forcing term eta times the Newton residual (inexact
Newton, Eisenstat & Walker, SIAM J. Sci. Comput. 17, 1996) and is tested by
its own true linear residual. eta is tight (1e-8) at the first step, after a
damped step or one that missed the test, after a step that cut the
residual's 2-norm less than tenfold, and at a step predicted to end the
solve; otherwise it is their choice 2, 0.9 times the last reduction ratio
squared, so that GMRES does not over-solve while Newton converges
quadratically. A step that misses the test is still taken, under the line
search, and the next one is solved tight. The line search halves the step
until the max-norm residual falls by a sufficient fraction, and projects
each candidate with ``gauge``, which removes whatever part of the step a
singular ``J`` leaves undetermined.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np
from scipy.linalg import solve_triangular

from .errors import NonConvergenceError

__all__ = ["Stopwatch", "newton_krylov"]

# a solve stagnates when this many Newton steps in a row each leave more than
# this fraction of the residual
_STALL_STEPS = 5
_STALL_RATIO = 0.9
# a solve ends once its max-norm residual is below _TOL, or fails after _MAX_ITERS steps
_TOL, _MAX_ITERS = 1e-10, 60
# GMRES for a Newton step: restart length, restart cycles, and the tight
# relative tolerance, which is also the least forcing term eta. GMRES stops at
# eta times the Newton residual's 2-norm, or _FORCING_FLOOR times _TOL; the
# step is kept when its true linear residual is at most _FORCING / _GMRES_RTOL
# = 100 times that target (so _FORCING times the 2-norm at the tight eta)
_GMRES_RESTART = 40
_GMRES_CYCLES = 2
_GMRES_RTOL = 1e-8
_FORCING = 1e-6
_FORCING_FLOOR = 1e-3
# adaptive forcing (Eisenstat & Walker's choice 2): after a full Krylov step
# that cut the residual's 2-norm by the ratio r < _FAST_RATIO, the next step's
# eta is max(_GMRES_RTOL, _FORCING_GAMMA * r**2), unless eta times the max-norm
# residual, the residual that step is predicted to leave, is already below _TOL;
# any other step is tight
_FAST_RATIO = 0.1
_FORCING_GAMMA = 0.9


class Stopwatch:
    """Seconds per stage: each ``lap`` charges the time since the previous one
    (or since the stopwatch was made) to its stage, so the stages partition
    the time from the start to the last lap. ``stages`` start at 0; any other
    stage gets its key at its first lap."""

    def __init__(self, stages=()):
        self.seconds = dict.fromkeys(stages, 0.0)
        self._last = perf_counter()

    def lap(self, stage):
        now = perf_counter()
        self.seconds[stage] = self.seconds.get(stage, 0.0) + (now - self._last)
        self._last = now


def _krylov_step(matvec, psolve, res, eta=_GMRES_RTOL):
    """GMRES on ``J delta = -res`` to the forcing term ``eta``, where
    ``matvec`` maps ``v`` to ``J v``: the step, its GMRES iterations and
    whether its true linear residual passes the acceptance test,
    ``_FORCING / _GMRES_RTOL`` times the GMRES target."""
    rhs = -res.ravel()
    norm = float(np.linalg.norm(rhs))
    floor = _FORCING_FLOOR * _TOL
    delta, iterations = _gmres(matvec, psolve, rhs, max(eta * norm, floor))
    linear = float(np.linalg.norm(matvec(delta) - rhs))
    # a non-finite residual fails: its linear residual is not finite either
    ok = math.isfinite(linear) and linear <= max(_FORCING / _GMRES_RTOL * eta * norm, floor)
    return delta.reshape(res.shape), iterations, ok


def _gmres(matvec, psolve, b, target):
    """Restarted GMRES for ``A x = b`` from ``x = 0``, right-preconditioned.

    Each cycle minimizes the true residual ``|b - A x|`` over ``x = M⁻¹ V y``,
    ``V`` an orthonormal basis of the Krylov space of ``A M⁻¹`` (``matvec``
    applies ``A``, ``psolve`` applies ``M⁻¹``); only ``V`` is stored, and
    ``M⁻¹`` is applied to ``V y`` once per cycle. A new basis vector is
    orthogonalized against all earlier ones at once, twice (classical
    Gram–Schmidt with one reorthogonalization pass); Givens rotations keep
    the Hessenberg matrix triangular and give the residual norm at each step.
    A cycle ends when that norm is at most ``target``, after
    ``_GMRES_RESTART`` steps, or when the space stops growing (a breakdown,
    after which ``x`` is as good as the space allows); a cycle that ends
    above ``target`` restarts from the true residual, at most
    ``_GMRES_CYCLES`` cycles in all. The caller tests the true residual of
    the ``x`` returned.

    The Gram–Schmidt products and the norms run in BLAS, whose summation
    order depends on its thread count, so ``x`` is reproducible bit for bit
    at a fixed thread count only.

    Returns ``x`` and the number of steps. A ``b`` that is zero, not finite
    or already within ``target`` takes none and gives ``x = 0``.
    """
    restart, cycles = _GMRES_RESTART, _GMRES_CYCLES
    x = np.zeros_like(b)
    V = np.empty((restart + 1, b.size))
    r, beta, steps = b, float(np.linalg.norm(b)), 0
    for cycle in range(cycles):
        if not beta > target:
            break
        V[0] = r / beta
        R = np.zeros((restart, restart))
        g = [beta]                      # the rotated right-hand side
        rotations = []
        breakdown = False
        for k in range(restart):
            w = matvec(psolve(V[k]))
            wnorm = float(np.linalg.norm(w))
            basis = V[:k + 1]
            h = basis @ w
            w -= h @ basis
            again = basis @ w
            w -= again @ basis
            h += again
            hnorm = float(np.linalg.norm(w))
            col = h.tolist()
            for i, (c, s) in enumerate(rotations):
                col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
            rho = math.hypot(col[k], hnorm)
            if not rho > 0.0:           # a zero or non-finite column
                breakdown = True
                break
            c, s = col[k] / rho, hnorm / rho
            rotations.append((c, s))
            col[k] = rho
            R[:k + 1, k] = col[:k + 1]
            g[k], g_next = c * g[k], -s * g[k]
            g.append(g_next)
            steps += 1
            # the new direction is rounding: the space has stopped growing
            breakdown = hnorm <= np.finfo(float).eps * wnorm
            if breakdown or abs(g_next) <= target:
                break
            V[k + 1] = w / hnorm
        m = len(rotations)
        if m:
            y = solve_triangular(R[:m, :m], np.array(g[:m]), check_finite=False)
            x += psolve(y @ V[:m])
        if breakdown or abs(g[-1]) <= target or cycle + 1 == cycles:
            break
        r = b - matvec(x)
        beta = float(np.linalg.norm(r))
    return x, steps


def newton_krylov(residual, jacobian, psolve, gauge, u, clock: Stopwatch):
    """Damped inexact Newton solve of ``residual(u) = 0`` from ``gauge(u)``.

    Returns the field and the trace: the max-norm residual before each step
    and the final one, below ``_TOL`` (``residuals``); per step its accepted
    length (``steps``), its GMRES iterations (``krylov``) and whether it was
    taken with its true linear residual missing the acceptance test
    (``missed``); and ``clock.seconds``
    (``seconds``), with the time up to the projected initial field charged to
    ``setup``, every residual evaluation to ``residual``, the Jacobian
    product, GMRES and its test to ``krylov``, and the rest of the line
    search to ``line_search``. Raises ``NonConvergenceError`` with the trace
    of residuals if the line search finds no decrease, if ``_STALL_STEPS``
    steps in a row each cut the residual by less than ``1 - _STALL_RATIO``,
    or after ``_MAX_ITERS`` steps.
    """
    u = gauge(u)
    trace, steps, krylov, missed = [], [], [], []
    clock.lap("setup")
    res, data = residual(u)
    rnorm = float(np.abs(res).max())
    # the next step's forcing term; empty for _krylov_step's tight default
    forcing = ()
    clock.lap("residual")
    for _ in range(_MAX_ITERS):
        trace.append(rnorm)
        if rnorm < _TOL:
            return u, {"residuals": tuple(trace), "steps": tuple(steps),
                       "krylov": tuple(krylov), "missed": tuple(missed),
                       "seconds": clock.seconds}
        recent = trace[-_STALL_STEPS - 1:]
        if len(recent) > _STALL_STEPS and all(
                new > _STALL_RATIO * old for old, new in zip(recent, recent[1:])):
            raise NonConvergenceError(
                f"residual stagnated at {rnorm:.3e} over {_STALL_STEPS} steps", trace=trace)
        delta, its, ok = _krylov_step(jacobian(data), psolve, res, *forcing)
        clock.lap("krylov")
        step = 1.0
        for _ in range(30):
            cand = gauge(u + step * delta)
            clock.lap("line_search")
            cres, cdata = residual(cand)
            clock.lap("residual")
            cnorm = float(np.abs(cres).max())
            if cnorm < rnorm * (1.0 - 1e-4 * step) or cnorm < _TOL:
                break
            step *= 0.5
        else:
            raise NonConvergenceError(
                f"line search stagnated at residual {rnorm:.3e}", trace=trace)
        # Newton's quadratic rate predicts the next residual at about eta times
        # this one; a step predicted to end the solve stays tight, so that the
        # returned field is the tight step's
        ratio = float(np.linalg.norm(cres) / np.linalg.norm(res))
        eta = max(_GMRES_RTOL, _FORCING_GAMMA * ratio ** 2)
        fast = ok and step == 1.0 and ratio < _FAST_RATIO
        forcing = (eta,) if fast and eta * cnorm >= _TOL else ()
        u, res, data, rnorm = cand, cres, cdata, cnorm
        steps.append(step)
        krylov.append(its)
        missed.append(not ok)
        clock.lap("line_search")
    raise NonConvergenceError(
        f"no convergence in {_MAX_ITERS} iterations (residual {rnorm:.3e})",
        trace=trace)

import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from capvertex import graphpde, newton
from capvertex.errors import DomainError, NoSolutionError, NonConvergenceError
from capvertex.geometry import QTag
from capvertex.graphpde import (
    GraphField,
    RectangleProblem,
    _Discretization,
    _flux,
    _initial_guess,
    compatibility_h,
    exact_square_cap,
    solve_rectangle,
)
from capvertex.newton import _FORCING, _GMRES_RTOL, _krylov_step


# corner names in the order RectangleProblem reports them
_CORNER_NAMES = ["left-bottom", "left-top", "right-bottom", "right-top"]


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


def _kron_discretization(prob):
    """Reference: the operators, source and preconditioner eigenvalues built
    from Kronecker products of 1-D stencils, stacked and row-permuted."""
    nx, ny = prob.shape
    hx, hy = prob.a / nx, prob.b / ny
    ix, iy = sp.identity(nx), sp.identity(ny)
    dx, dy = _difference(nx), _difference(ny)
    primary = sp.vstack([sp.kron(dx, iy) / hx, sp.kron(ix, dy) / hy])
    transverse = sp.vstack([sp.kron(_average(nx), _gradient(ny)) / hy,
                            sp.kron(_gradient(nx), _average(ny)) / hx])
    interleave = np.arange(2 * primary.shape[0]).reshape(2, -1).T.ravel()
    slopes = sp.vstack([primary, transverse], format="csr")[interleave]
    div = -sp.hstack([sp.kron(dx.T, iy) / hx, sp.kron(ix, dy.T) / hy], format="csr")
    cl, cr, cb, ct = np.cos(prob.gammas)
    area = prob.a * prob.b
    defect = ((cl + cr) * prob.b + (cb + ct) * prob.a - 2.0 * prob.h * area) / area
    source = np.full((nx, ny), -2.0 * prob.h - defect)
    source[0] += cl / hx
    source[-1] += cr / hx
    source[:, 0] += cb / hy
    source[:, -1] += ct / hy
    lam = ((2.0 - 2.0 * np.cos(np.pi * np.arange(nx) / nx))[:, None] / hx ** 2
           + (2.0 - 2.0 * np.cos(np.pi * np.arange(ny) / ny))[None, :] / hy ** 2)
    lam[0, 0] = np.inf
    return SimpleNamespace(slopes=slopes, div=div, source=source.ravel(),
                           inverse_eigenvalues=1.0 / lam)


def _same_arrays(A, B):
    return A.shape == B.shape and all(
        x.dtype == y.dtype and np.array_equal(x, y)
        for x, y in ((A.data, B.data), (A.indices, B.indices), (A.indptr, B.indptr)))


def _recording_misses(monkeypatch):
    """Spy on the Krylov steps: the list of whether each missed its acceptance test."""
    misses = []

    def recording(J, psolve, res, *forcing):
        step = _krylov_step(J, psolve, res, *forcing)
        misses.append(not step[2])
        return step

    monkeypatch.setattr(newton, "_krylov_step", recording)
    return misses


def _recording_forcing(monkeypatch, tight=False):
    """Spy on the Krylov steps: the list of their forcing terms. With ``tight``
    every step is solved to the tight default instead, as before the adaptive
    forcing."""
    etas = []

    def recording(J, psolve, res, eta=_GMRES_RTOL):
        etas.append(eta)
        return _krylov_step(J, psolve, res, *(() if tight else (eta,)))

    monkeypatch.setattr(newton, "_krylov_step", recording)
    return etas


def test_stagnating_solve_fails_fast_with_its_trace(monkeypatch):
    # the line search of this 1 x 3 problem finds no decrease from 0.627
    p = RectangleProblem(1.0, 3.0, (0.1, 0.1, 3.0, 3.0), grid_n=16)
    misses = _recording_misses(monkeypatch)
    with pytest.raises(NonConvergenceError, match="line search stagnated") as err:
        solve_rectangle(p)
    trace = err.value.trace
    assert len(trace) <= 11                     # at most 10 Newton steps
    assert trace[-1] == pytest.approx(0.627, abs=0.01)
    assert all(b < a for a, b in zip(trace, trace[1:]))
    # steep data: GMRES misses the acceptance test on some steps
    assert 1 <= sum(misses) <= len(misses) - 1


def test_stagnating_trace_is_the_tight_forcing_trace(monkeypatch):
    p = RectangleProblem(1.0, 3.0, (0.1, 0.1, 3.0, 3.0), grid_n=16)
    traces, etas = [], []
    for tight in (False, True):
        etas.append(_recording_forcing(monkeypatch, tight))
        with pytest.raises(NonConvergenceError, match="stagnated") as err:
            solve_rectangle(p)
        traces.append(err.value.trace)
        monkeypatch.undo()
    assert traces[0] == traces[1]
    # no step there cuts the residual tenfold: every one is solved tight, the
    # last one from the last residual, whose line search finds no decrease
    assert etas[0] == [_GMRES_RTOL] * len(traces[0])


def test_compatibility_h_equal_angles():
    # flux balance: 2 h a b = sum of cos(gamma) times wall length
    g = np.pi / 3
    assert compatibility_h(1.0, 2.0, (g,) * 4) == pytest.approx(
        (1.0 + 2.0) * np.cos(g) / 2.0)


def test_compatibility_h_mixed_walls():
    # right-angle walls contribute nothing; the two length-a walls carry cos 0
    h = compatibility_h(1.0, 1.0, (np.pi / 2, np.pi / 2, 0.0, 0.0))
    assert h == 1.0


def test_problem_derives_h():
    p = RectangleProblem(1.0, 1.0, (np.pi / 3,) * 4, grid_n=16)
    assert p.h == pytest.approx(np.cos(np.pi / 3) * 2.0)


@pytest.mark.parametrize("gamma, tag", [
    # |2 gamma - pi| > pi/2: no solution near any corner; on the boundary at
    # pi/4 and 3pi/4
    (0.5, "D1"), (np.pi / 4, "BoundaryQ_D1"), (3 * np.pi / 4, "BoundaryQ_D1"), (2.5, "D1"),
    # interior corners, both sides of the right angle
    (1.6, None), (1.9, None), (2.3, None), (np.pi / 2, None),
])
def test_an_equal_angle_square_is_decided_by_its_corners(gamma, tag):
    if tag is not None:
        with pytest.raises(NoSolutionError, match=f"^corner left-bottom classifies as {tag};"):
            RectangleProblem(1.0, 1.0, (gamma,) * 4, grid_n=16)
        return
    p = RectangleProblem(1.0, 1.0, (gamma,) * 4, grid_n=16)
    assert list(p.corners.values()) == [QTag.INTERIOR_Q] * 4
    f = solve_rectangle(p)
    assert f.final_residual < 1e-10 and not any(f.trace["missed"])
    if gamma == np.pi / 2:
        # walls at right angles: the flat field, h = 0
        assert p.h == 0.0 and not f.u.any()


@pytest.mark.parametrize("grid_n", [8, float("nan"), 20.7, True])
def test_grid_floor(grid_n):
    with pytest.raises(DomainError, match="grid_n must be"):
        RectangleProblem(1.0, 1.0, (1.0,) * 4, grid_n=grid_n)


@pytest.mark.parametrize("a, b", [(0.1, 1.0), (1.0, 0.1)])
def test_grid_needs_three_cells_along_each_side(a, b):
    with pytest.raises(DomainError, match="at least 3"):
        RectangleProblem(a, b, (np.pi / 3,) * 4, grid_n=16)


def test_three_cells_across_is_enough():
    field = solve_rectangle(RectangleProblem(3 / 16, 1.0, (1.2,) * 4, grid_n=16))
    assert field.u.shape == (3, 16)
    assert np.isfinite(field.u).all()


def test_solver_matches_exact_cap_small_grid():
    p = RectangleProblem(1.0, 1.0, (np.pi / 3,) * 4, grid_n=32)
    f = solve_rectangle(p)
    u_exact = exact_square_cap(p)
    assert np.abs(f.u - u_exact).max() < 2e-4
    assert f.final_residual < 1e-10


def test_solution_mean_zero_gauge():
    p = RectangleProblem(1.0, 1.0, (1.1,) * 4, grid_n=24)
    f = solve_rectangle(p)
    assert abs(f.u.mean()) < 1e-12


def test_solver_deterministic():
    p = RectangleProblem(1.0, 1.0, (1.1,) * 4, grid_n=24)
    a = solve_rectangle(p)
    b = solve_rectangle(p)
    assert np.array_equal(a.u, b.u)


def test_nonsquare_mixed_problem():
    gam = (1.2, 1.2, 1.3, 1.3)
    p = RectangleProblem(1.0, 2.0, gam, grid_n=24)
    f = solve_rectangle(p)
    assert f.final_residual < 1e-10
    assert f.u.shape == p.shape


def test_points_cover_domain():
    p = RectangleProblem(1.0, 2.0, (1.2,) * 4, grid_n=16)
    f = solve_rectangle(p)
    pts = f.points()
    assert pts.shape == (p.shape[0] * p.shape[1], 3)
    assert 0 < pts[:, 0].min() < pts[:, 0].max() < 1.0
    assert 0 < pts[:, 1].min() < pts[:, 1].max() < 2.0


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(0.5, 2.0),
    b=st.floats(0.5, 2.0),
    gammas=st.tuples(*(st.floats(0.9, 1.5) for _ in range(4))),
)
def test_compatibility_round_trip(a, b, gammas):
    h = compatibility_h(a, b, gammas)
    total = (b * (np.cos(gammas[0]) + np.cos(gammas[1]))
             + a * (np.cos(gammas[2]) + np.cos(gammas[3])))
    assert 2.0 * h * a * b == pytest.approx(total, abs=1e-12)


@pytest.mark.parametrize("gammas, match", [
    ((np.nan,) * 4, "contact angles must lie in"),
    ((7.0,) * 4, "contact angles must lie in"),
    ((1.0,) * 3, "four wall angles required"),
])
def test_compatibility_h_checks_the_angles_as_the_problem_does(gammas, match):
    for build in (compatibility_h, RectangleProblem):
        with pytest.raises(DomainError, match=match):
            build(1.0, 1.0, gammas)


@pytest.mark.parametrize("a, b", [(np.nan, 1.0), (1.0, np.inf), (0.0, 1.0)])
def test_side_lengths_must_be_positive_and_finite(a, b):
    with pytest.raises(DomainError, match="positive and finite"):
        RectangleProblem(a, b, (1.0,) * 4, grid_n=16)
    with pytest.raises(DomainError, match="positive and finite"):
        compatibility_h(a, b, (1.0,) * 4)


_JACOBIAN_CASES = [
    (1.0, 2.0, (1.2, 1.2, 1.3, 1.3), 16),
    (1.3, 0.7, (1.1, 0.9, 1.4, 1.0), 20),
]


def _smooth_field(disc, seed=7):
    rng = np.random.default_rng(seed)
    x, y = np.meshgrid((np.arange(disc.nx) + 0.5) * disc.hx,
                       (np.arange(disc.ny) + 0.5) * disc.hy, indexing="ij")
    return 0.3 * np.sin(2.0 * x) * np.cos(3.0 * y) + 0.01 * rng.standard_normal(x.shape), rng


@pytest.mark.parametrize("a, b, gammas, grid_n", _JACOBIAN_CASES)
def test_jacobian_matches_residual_differences_and_flux_is_conserved(a, b, gammas, grid_n):
    p = RectangleProblem(a, b, gammas, grid_n=grid_n)
    disc = _Discretization(p)
    u, rng = _smooth_field(disc)
    v = rng.standard_normal(u.shape)
    eps = 1e-6
    fd = (disc.residual(u + eps * v)[0] - disc.residual(u - eps * v)[0]).ravel() / (2.0 * eps)
    res, partials = disc.residual(u)
    jv = disc.jacobian_operator(partials)(v)
    assert np.abs(jv - fd).max() <= 1e-6 * np.abs(jv).max()
    # the wall fluxes and the defect balance 2h exactly: no net source
    assert abs(res.sum() * disc.hx * disc.hy) < 1e-12


@pytest.mark.parametrize("a, b, gammas, grid_n", _JACOBIAN_CASES + [
    (3 / 16, 1.0, (1.2,) * 4, 16),              # three cells across
    (1.0, 3 / 16, (1.2,) * 4, 16),              # three cells along
    (1.0, 4 / 16, (1.1, 0.9, 1.4, 1.0), 16),
    (1.0, 3.0, (0.1, 0.1, 3.0, 3.0), 16),       # the stagnating 1 x 3 problem
])
def test_index_built_operators_match_the_kron_reference(a, b, gammas, grid_n):
    p = RectangleProblem(a, b, gammas, grid_n=grid_n)
    disc, ref = _Discretization(p), _kron_discretization(p)
    # kron stores its blocks densely when the second factor is dense enough,
    # as the 1-D stencils along 3 or 4 cells are; the index-built operators
    # store no explicit zeros
    for op in (ref.slopes, ref.div):
        op.eliminate_zeros()
    assert _same_arrays(disc.slopes, ref.slopes)
    assert _same_arrays(disc.div, ref.div)
    assert np.array_equal(disc.source, ref.source)
    assert np.array_equal(disc.inverse_eigenvalues, ref.inverse_eigenvalues)


def _kron_jacobian(disc, u):
    """Reference: one slope operator per face family and slope, each scaled by its partial."""
    nx, ny, hx, hy = disc.nx, disc.ny, disc.hx, disc.hy
    ix, iy = sp.identity(nx), sp.identity(ny)
    dx, dy = _difference(nx), _difference(ny)
    east_p = sp.kron(dx, iy, format="csr") / hx
    east_t = sp.kron(_average(nx), _gradient(ny), format="csr") / hy
    north_p = sp.kron(ix, dy, format="csr") / hy
    north_t = sp.kron(_gradient(nx), _average(ny), format="csr") / hx
    east_div = -sp.kron(dx.T, iy, format="csr") / hx
    north_div = -sp.kron(ix, dy.T, format="csr") / hy
    u = np.ravel(u)
    _, de_p, de_t = _flux(east_p @ u, east_t @ u)
    _, dn_p, dn_t = _flux(north_p @ u, north_t @ u)
    east = sp.diags(de_p) @ east_p + sp.diags(de_t) @ east_t
    north = sp.diags(dn_p) @ north_p + sp.diags(dn_t) @ north_t
    return (east_div @ east + north_div @ north).tocsr()


def _bordered_step(disc, u):
    """Reference: the mean-zero Newton step from the system bordered by a row of ones."""
    res = disc.residual(u)[0]
    J = _kron_jacobian(disc, u)
    ones = np.ones(J.shape[0])
    A = sp.bmat([[J, ones[:, None]], [ones[None, :], None]], format="csc")
    return spla.spsolve(A, np.concatenate([-res.ravel(), [0.0]]))[:-1]


_STEP_CASES = pytest.mark.parametrize("a, b, gammas, grid_n", [
    (1.0, 1.0, (np.pi / 3,) * 4, 32),
    (1.0, 2.0, (1.2, 1.2, 1.3, 1.3), 24),
])


@_STEP_CASES
def test_krylov_step_meets_the_forcing_test_and_is_the_bordered_step(a, b, gammas, grid_n):
    p = RectangleProblem(a, b, gammas, grid_n=grid_n)
    disc, u = _Discretization(p), _initial_guess(p)
    res, partials = disc.residual(u)
    J = _kron_jacobian(disc, u)
    delta, iterations, ok = _krylov_step(disc.jacobian_operator(partials), disc.poisson_solve, res)
    assert ok and 0 < iterations
    linear = np.linalg.norm(J @ delta.ravel() + res.ravel()) / np.linalg.norm(res)
    assert linear <= _FORCING
    # the step's error relative to the step is at most the forcing term eta; the
    # measured errors are 5.2e-10 (square) and 5.4e-10 (1 x 2), 0.1-0.2 of each
    # step's own relative linear residual
    ref = _bordered_step(disc, u)
    assert np.abs(delta.ravel() - delta.mean() - ref).max() <= _FORCING * np.abs(ref).max()


@pytest.mark.parametrize("a, b, grid_n", [(1.0, 1.0, 16), (1.3, 0.7, 16)])
def test_cosine_transform_inverts_the_neumann_laplacian(a, b, grid_n):
    disc = _Discretization(RectangleProblem(a, b, (1.2,) * 4, grid_n=grid_n))
    nx, ny, hx, hy = disc.nx, disc.ny, disc.hx, disc.hy
    dx, dy = _difference(nx), _difference(ny)
    lap = -(sp.kron(dx.T @ dx, sp.identity(ny)) / hx ** 2
            + sp.kron(sp.identity(nx), dy.T @ dy) / hy ** 2)
    r = np.random.default_rng(5).standard_normal(nx * ny)
    r -= r.mean()
    # reference: the direct solve with the last cell pinned, re-centred
    ref = np.append(spla.spsolve(lap.tocsc()[:-1, :-1], r[:-1]), 0.0)
    ref -= ref.mean()
    v = disc.poisson_solve(r)
    assert abs(v.mean()) <= 1e-12 * np.abs(ref).max()
    assert np.abs(v - ref).max() <= 1e-12 * np.abs(ref).max()


# the problems of criteria 05 and 06, the benchmark's graph solves and the
# counterexample suite's default grid, with the Newton steps each took before
# the pinned-cell gauge; the mixed-angle problems above follow
@pytest.mark.parametrize("a, b, gammas, grid_n, iterations", [
    (1.0, 1.0, (np.pi / 3,) * 4, 32, 2),
    (1.0, 1.0, (np.pi / 3,) * 4, 64, 2),
    (1.0, 1.0, (np.pi / 3,) * 4, 128, 2),
    (1.0, 2.0, (1.2,) * 4, 64, 4),
    (1.0, 2.0, (1.2,) * 4, 96, 4),
    (1.0, 2.0, (1.2,) * 4, 128, 4),
    (1.0, 1.0, (np.pi / 3,) * 4, 96, 2),
    (1.0, 2.0, (1.2, 1.2, 1.3, 1.3), 24, 4),
    (1.3, 0.7, (1.1, 0.9, 1.4, 1.0), 20, 5),
])
def test_newton_iteration_counts_and_trace(a, b, gammas, grid_n, iterations):
    f = solve_rectangle(RectangleProblem(a, b, gammas, grid_n=grid_n))
    assert f.iterations == iterations
    residuals, steps = f.trace["residuals"], f.trace["steps"]
    assert len(residuals) == iterations + 1 and residuals[-1] == f.final_residual < 1e-10
    assert len(steps) == iterations and all(0.0 < s <= 1.0 for s in steps)
    # every step's GMRES met the acceptance test
    assert len(f.trace["krylov"]) == iterations and all(k > 0 for k in f.trace["krylov"])
    assert f.trace["missed"] == (False,) * iterations


def test_steps_that_miss_the_acceptance_test_are_taken_and_the_solve_converges():
    # a corner of this 1 x 2 problem lies outside the admissible rectangle (D2)
    p = RectangleProblem(1.0, 2.0, (3.0824991829626978, 1.1162449389371245,
                                    0.5701775555732299, 1.2413151926152466), grid_n=16)
    f = solve_rectangle(p)
    assert f.iterations == 10 and f.final_residual < 1e-10
    assert sum(f.trace["missed"]) == 4 and len(f.trace["missed"]) == 10


@pytest.mark.parametrize("b, gammas", [
    # problems 77 (D2 corner) and 150 of the earlier draw that problem 68 below
    # comes from
    (2.0, (3.0824991829626978, 1.1162449389371245, 0.5701775555732299, 1.2413151926152466)),
    (1.0, (0.06878739705274245, 2.243492557073295, 2.1079551647907784, 2.048026624226423)),
])
def test_the_step_after_a_missed_step_is_solved_tight(monkeypatch, b, gammas):
    steps = []

    def recording(J, psolve, res, eta=_GMRES_RTOL):
        step = _krylov_step(J, psolve, res, eta)
        steps.append((eta, not step[2]))
        return step

    monkeypatch.setattr(newton, "_krylov_step", recording)
    f = solve_rectangle(RectangleProblem(1.0, b, gammas, grid_n=16))
    assert f.final_residual < 1e-10
    assert f.trace["missed"] == tuple(missed for _, missed in steps)
    assert any(f.trace["missed"])
    assert all(eta == _GMRES_RTOL for (_, missed), (eta, _) in zip(steps, steps[1:]) if missed)


@_STEP_CASES
def test_a_solve_whose_every_step_misses_takes_them_tight_to_the_same_field(
        monkeypatch, a, b, gammas, grid_n):
    p = RectangleProblem(a, b, gammas, grid_n=grid_n)
    ref = solve_rectangle(p)
    etas = []

    def missing(J, psolve, res, eta=_GMRES_RTOL):
        etas.append(eta)
        return (*_krylov_step(J, psolve, res, eta)[:2], False)

    monkeypatch.setattr(newton, "_krylov_step", missing)
    f = solve_rectangle(p)
    # every missed step is taken, and the next one is solved tight
    assert f.final_residual < 1e-10
    assert f.trace["missed"] == (True,) * f.iterations
    assert etas == [_GMRES_RTOL] * f.iterations
    # 5.7e-16 relative measured (1 x 2); the square's fields are identical
    assert np.abs(f.u - ref.u).max() <= 1e-13 * np.abs(ref.u).max()


def test_singular_pinned_data_are_refused_at_their_d1_corner_with_no_warning():
    # problem 68 of an earlier draw (angles default_rng(0).uniform(0.05,
    # pi - 0.05, (160, 4)), b cycling through 1, 1.5, 2), whose pinned
    # Jacobian is exactly singular and whose solve stalled: its right-bottom
    # angle pair sums to more than 3 pi/2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoSolutionError, match="^corner right-bottom classifies as D1;"):
            RectangleProblem(1.0, 2.0, (0.47257357456288734, 2.1906296255029334,
                                        2.5474611215010237, 3.0363218139332355), grid_n=48)


def _random_problems():
    """The 160-problem sample: a = 1, b drawn from (1, 1.5, 2), then four
    angles uniform in [0.05, pi - 0.05], as (b, gammas)."""
    rng = np.random.default_rng(0)
    return [(float(rng.choice([1, 1.5, 2])), tuple(rng.uniform(0.05, np.pi - 0.05, 4)))
            for _ in range(160)]


def _corner_tags(gammas):
    """The four corners' classes, from the admissible rectangle's own tests
    at alpha = pi/4: D1 beyond |g1 + g2 - pi| = pi/2, D2 beyond
    |g1 - g2| = pi/2 (no sample pair is within 1e-9 of either)."""
    left, right, bottom, top = gammas
    return ["D1" if abs(s + e - np.pi) > np.pi / 2 else
            "D2" if abs(s - e) > np.pi / 2 else "InteriorQ"
            for s, e in ((left, bottom), (left, top), (right, bottom), (right, top))]


def test_the_random_sample_is_refused_at_d1_corners_and_solves_inside(monkeypatch):
    misses = _recording_misses(monkeypatch)
    counts = {"D1": 0, "D2": 0, "InteriorQ": 0}
    for b, gammas in _random_problems():
        tags = _corner_tags(gammas)
        if "D1" in tags:
            counts["D1"] += 1
            steps = len(misses)
            name = _CORNER_NAMES[tags.index("D1")]
            with pytest.raises(NoSolutionError, match=f"^corner {name} classifies as D1;"):
                solve_rectangle(RectangleProblem(1.0, b, gammas, grid_n=16))
            assert len(misses) == steps                 # no Newton step was taken
        elif "D2" in tags:
            # solved, perhaps with missed steps; too slow to repeat here
            counts["D2"] += 1
            assert [t.value for t in RectangleProblem(1.0, b, gammas, grid_n=16)
                    .corners.values()] == tags
        else:
            counts["InteriorQ"] += 1
            f = solve_rectangle(RectangleProblem(1.0, b, gammas, grid_n=16))
            assert f.final_residual < 1e-10
            assert f.trace["missed"] == (False,) * f.iterations
    assert counts == {"D1": 89, "D2": 39, "InteriorQ": 32}


@pytest.mark.parametrize("b, gamma", [(1.0, 1.0), (1.0, 1.2), (2.0, 1.0), (2.0, 1.2)])
def test_the_field_for_pi_minus_gamma_is_minus_the_field_for_gamma(b, gamma):
    # reflecting the surface in a horizontal plane turns each angle into its
    # supplement; 5.2e-16 of the field's scale measured
    u = solve_rectangle(RectangleProblem(1.0, b, (gamma,) * 4, grid_n=32)).u
    v = solve_rectangle(RectangleProblem(1.0, b, (np.pi - gamma,) * 4, grid_n=32)).u
    assert np.abs(u + v).max() <= 1e-15 * np.abs(u).max()


def test_the_exact_cap_above_a_right_angle_is_the_upper_cap():
    # the criterion-05 tolerance; 1.6e-6 measured at 64^2
    p = RectangleProblem(1.0, 1.0, (1.9,) * 4, grid_n=64)
    u = exact_square_cap(p)
    assert np.abs(solve_rectangle(p).u - u).max() < 5e-3
    # the upper cap bulges up: its centre is its highest point
    assert u[32, 32] == u.max()


def _far_start(monkeypatch):
    """Starts every solve from three times its usual field."""
    monkeypatch.setattr(graphpde, "_initial_guess", lambda p: 3.0 * _initial_guess(p))


def test_trace_records_the_damped_steps_of_a_far_start(monkeypatch):
    _far_start(monkeypatch)
    f = solve_rectangle(RectangleProblem(1.0, 2.0, (1.2,) * 4, grid_n=24))
    assert f.trace["steps"] == (0.25, 1.0, 1.0, 1.0, 1.0, 1.0)
    assert f.trace["missed"] == (False,) * 6
    residuals = f.trace["residuals"]
    assert len(residuals) == 7 and residuals[-1] == f.final_residual
    # each accepted step passed the line search's sufficient-decrease test
    assert all(new < old * (1.0 - 1e-4 * s)
               for old, new, s in zip(residuals, residuals[1:], f.trace["steps"]))


def test_forcing_is_adaptive_only_after_steps_that_cut_the_residual_tenfold(monkeypatch):
    etas = _recording_forcing(monkeypatch)
    _far_start(monkeypatch)
    f = solve_rectangle(RectangleProblem(1.0, 2.0, (1.2,) * 4, grid_n=24))
    residuals = f.trace["residuals"]
    assert f.trace["steps"][0] < 1.0 and len(etas) == 6
    # tight at the first step, after the damped one and after the slow one;
    # adaptive after the fast ones, until eta reaches its floor
    assert [r1 / r0 < 0.1 for r0, r1 in zip(residuals, residuals[1:5])] == [
        False, False, True, True]
    assert etas[:3] == [_GMRES_RTOL] * 3 and etas[-1] == _GMRES_RTOL
    assert all(_GMRES_RTOL < eta < 0.9 * 0.1 ** 2 for eta in etas[3:5])


def test_adaptive_forcing_saves_gmres_iterations_on_the_rectangle():
    f = solve_rectangle(RectangleProblem(1.0, 2.0, (1.2,) * 4, grid_n=64))
    # (9, 3, 5, 8) measured; every step solved tight took (9, 9, 9, 8)
    assert f.iterations == 4 and sum(f.trace["krylov"]) <= 26


def test_a_step_predicted_to_end_the_solve_stays_tight(monkeypatch):
    # the 32^2 square's first step cuts the residual's 2-norm 1566-fold, so
    # choice 2 would give eta 3.7e-7 and a field 3.3e-15 away from the tight one
    p = RectangleProblem(1.0, 1.0, (np.pi / 3,) * 4, grid_n=32)
    etas = _recording_forcing(monkeypatch)
    f = solve_rectangle(p)
    monkeypatch.undo()
    assert etas == [_GMRES_RTOL] * 2
    _recording_forcing(monkeypatch, tight=True)
    assert np.array_equal(f.u, solve_rectangle(p).u)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_krylov_step_misses_on_a_non_finite_residual(bad):
    p = RectangleProblem(1.0, 2.0, (1.2,) * 4, grid_n=16)
    disc, u = _Discretization(p), _initial_guess(p)
    res = disc.residual(u)[0]
    res[3, 5] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        delta, iterations, ok = _krylov_step(_kron_jacobian(disc, u).dot, disc.poisson_solve, res)
    assert not ok and iterations == 0 and delta.shape == res.shape


def test_trace_splits_the_solve_time_by_stage():
    p = RectangleProblem(1.0, 2.0, (1.2,) * 4, grid_n=24)
    start = time.perf_counter()
    f = solve_rectangle(p)
    wall = time.perf_counter() - start
    seconds = f.trace["seconds"]
    assert list(seconds) == ["setup", "residual", "krylov", "line_search"]
    assert all(t >= 0.0 for t in seconds.values())
    assert 0.0 < sum(seconds.values()) <= wall


@pytest.mark.parametrize("a, b, gammas, grid_n", _JACOBIAN_CASES)
def test_jacobian_operator_applies_the_assembled_jacobian(a, b, gammas, grid_n):
    disc = _Discretization(RectangleProblem(a, b, gammas, grid_n=grid_n))
    u, rng = _smooth_field(disc)
    J, matvec = _kron_jacobian(disc, u), disc.jacobian_operator(disc.residual(u)[1])
    for v in (rng.standard_normal(J.shape[1]), np.ones(J.shape[1])):
        # 2.1e-16 measured: the two sum the same terms in different orders
        bound = 1e-14 * abs(J).max() * np.abs(v).max()
        assert matvec(v).shape == (J.shape[0],)
        assert np.abs(matvec(v) - J @ v).max() <= bound
        # a grid-shaped v is the same vector
        assert np.array_equal(matvec(v.reshape(disc.nx, disc.ny)), matvec(v))

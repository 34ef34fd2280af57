import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from capvertex.errors import DomainError, IncompatibleDataError, NonConvergenceError
from capvertex.graphpde import (
    GraphField,
    RectangleProblem,
    _Discretization,
    compatibility_h,
    exact_square_cap,
    solve_rectangle,
)


def test_stagnating_solve_fails_fast_with_its_trace():
    # the residual of this 1 x 3 problem settles near 1.61 after four steps
    p = RectangleProblem(1.0, 3.0, (0.1, 0.1, 3.0, 3.0), grid_n=16)
    with pytest.raises(NonConvergenceError, match="stagnated") as err:
        solve_rectangle(p)
    trace = err.value.trace
    assert len(trace) <= 11                     # at most 10 Newton steps
    assert trace[-1] == pytest.approx(1.61, abs=0.01)
    assert all(b < a for a, b in zip(trace, trace[1:]))


def test_compatibility_h_equal_angles():
    # flux balance: 2 h a b = sum of cos(gamma) times wall length
    g = np.pi / 3
    assert compatibility_h(1.0, 2.0, (g,) * 4) == pytest.approx(
        (1.0 + 2.0) * np.cos(g) / 2.0)


def test_compatibility_h_mixed_walls():
    # right-angle walls contribute nothing; the two length-a walls carry cos 0
    h = compatibility_h(1.0, 1.0, (np.pi / 2, np.pi / 2, 0.0, 0.0))
    assert h == 1.0


def test_problem_derives_h_and_validates():
    p = RectangleProblem(1.0, 1.0, (np.pi / 3,) * 4, grid_n=16)
    assert p.h == pytest.approx(np.cos(np.pi / 3) * 2.0)
    with pytest.raises(IncompatibleDataError):
        RectangleProblem(1.0, 1.0, (np.pi / 3,) * 4, h=0.123, grid_n=16)


def test_equal_angle_existence_window_enforced():
    with pytest.raises(DomainError):
        RectangleProblem(1.0, 1.0, (0.5,) * 4, grid_n=16)   # below pi/4
    with pytest.raises(DomainError):
        RectangleProblem(1.0, 1.0, (1.6,) * 4, grid_n=16)   # above pi/2
    RectangleProblem(1.0, 1.0, (1.0,) * 4, grid_n=16)


def test_grid_floor():
    with pytest.raises(DomainError):
        RectangleProblem(1.0, 1.0, (1.0,) * 4, grid_n=8)


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


@pytest.mark.parametrize("a, b", [(np.nan, 1.0), (1.0, np.inf), (0.0, 1.0)])
def test_side_lengths_must_be_positive_and_finite(a, b):
    with pytest.raises(DomainError):
        RectangleProblem(a, b, (1.0,) * 4, grid_n=16)


@pytest.mark.parametrize("a, b, gammas, grid_n", [
    (1.0, 2.0, (1.2, 1.2, 1.3, 1.3), 16),
    (1.3, 0.7, (1.1, 0.9, 1.4, 1.0), 20),
])
def test_jacobian_matches_residual_differences_and_flux_is_conserved(a, b, gammas, grid_n):
    p = RectangleProblem(a, b, gammas, grid_n=grid_n)
    disc = _Discretization(p)
    rng = np.random.default_rng(7)
    x, y = np.meshgrid((np.arange(disc.nx) + 0.5) * disc.hx,
                       (np.arange(disc.ny) + 0.5) * disc.hy, indexing="ij")
    u = 0.3 * np.sin(2.0 * x) * np.cos(3.0 * y) + 0.01 * rng.standard_normal(x.shape)
    v = rng.standard_normal(u.shape)
    eps = 1e-6
    fd = (disc.residual(u + eps * v) - disc.residual(u - eps * v)).ravel() / (2.0 * eps)
    jv = disc.jacobian(u) @ v.ravel()
    assert np.abs(jv - fd).max() <= 1e-6 * np.abs(jv).max()
    # the wall fluxes and the defect balance 2h exactly: no net source
    assert abs(disc.residual(u).sum() * disc.hx * disc.hy) < 1e-12

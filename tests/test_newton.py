import numpy as np

from capvertex import newton
from capvertex.graphpde import RectangleProblem, solve_rectangle
from capvertex.newton import Stopwatch, _gmres, newton_krylov


def _nonsymmetric_system(n, seed):
    """A nonsymmetric diagonally dominant matrix, a right-hand side, and the
    inverse of the matrix's diagonal as a preconditioner."""
    rng = np.random.default_rng(seed)
    A = np.diag(rng.uniform(1.0, 3.0, n)) + rng.standard_normal((n, n)) / n
    return A, rng.standard_normal(n), lambda v: v / np.diag(A)


def test_gmres_restarts_to_the_dense_solution(monkeypatch):
    A, b, psolve = _nonsymmetric_system(30, seed=1)
    monkeypatch.setattr(newton, "_GMRES_RESTART", 4)
    monkeypatch.setattr(newton, "_GMRES_CYCLES", 20)
    x, steps = _gmres(A.dot, psolve, b, 1e-12 * np.linalg.norm(b))
    ref = np.linalg.solve(A, b)
    assert 4 < steps <= 80                       # it restarted, and stopped early
    assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()
    assert np.linalg.norm(A @ x - b) <= 1e-11 * np.linalg.norm(b)


def test_gmres_stops_when_the_krylov_space_stops_growing():
    # b has components on two eigenvectors of A: the space has dimension 2
    A = np.diag([1.0, 2.0, 3.0, 4.0, 5.0]) + np.triu(np.ones((5, 5)), 3)
    b = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
    x, steps = _gmres(A.dot, lambda v: v.copy(), b, 0.0)
    assert steps == 2
    assert np.abs(x - np.linalg.solve(A, b)).max() <= 1e-15


def test_gmres_takes_no_step_on_a_zero_right_hand_side():
    A, _, psolve = _nonsymmetric_system(6, seed=2)
    x, steps = _gmres(A.dot, psolve, np.zeros(6), 1e-12)
    assert steps == 0 and np.array_equal(x, np.zeros(6))


def test_the_core_solves_a_system_that_is_not_a_graph_quadratically():
    # F(u) = u^3 + u - b, one equation per component: the Jacobian is the
    # diagonal 3 u^2 + 1, applied exactly, with no preconditioner and no gauge
    b = np.linspace(-3.0, 5.0, 12)
    clock = Stopwatch(("setup", "residual", "krylov", "line_search"))
    u, trace = newton_krylov(lambda u: (u ** 3 + u - b, 3.0 * u ** 2 + 1.0),
                             lambda d: lambda v: d * v, lambda v: v, lambda v: v,
                             np.zeros_like(b), clock)
    residuals, steps = trace["residuals"], trace["steps"]
    assert residuals[-1] == np.abs(u ** 3 + u - b).max() < 1e-10
    graph = solve_rectangle(RectangleProblem(1.0, 2.0, (1.2,) * 4, grid_n=16)).trace
    assert list(trace) == list(graph) and list(trace["seconds"]) == list(graph["seconds"])
    assert len(residuals) == len(steps) + 1 == len(trace["krylov"]) + 1
    assert not any(trace["missed"])
    # each step leaves at most 0.375 times the square of the residual before
    # it (measured); the last cuts 9.5e-6 to 2.2e-11
    assert all(new <= 0.5 * old ** 2 for old, new in zip(residuals, residuals[1:]))

import contextlib
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from capvertex import cli, meshes
from capvertex.cli import main, run, verify_suite
from capvertex.errors import DomainError, MeshDegenerationError, NonConvergenceError
from capvertex.geometry import TAG_CODES, WedgeConfig, classify_grid
from capvertex.graphpde import GraphField, RectangleProblem, solve_rectangle


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_classify_scenario_writes_csv_and_report(tmp_path):
    cfg = _write_config(tmp_path, "c.json",
                        {"kind": "classify", "alpha": math.pi / 4, "grid": 21})
    out = tmp_path / "out"
    rc = main(["classify", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    lines = (out / "classification.csv").read_text().strip().splitlines()
    assert lines[0] == "gamma1,gamma2,class,numerator"
    assert len(lines) == 1 + 21 * 21
    report = json.loads((out / "report.json").read_text())
    assert report["scenario"] == "classify"
    assert report["grid"] == 21


def test_classify_repeat_runs_are_byte_identical(tmp_path):
    cfg = _write_config(tmp_path, "c.json",
                        {"kind": "classify", "alpha": math.pi / 3, "grid": 15})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(cfg, out1, seed=42) == 0
    assert run(cfg, out2, seed=42) == 0
    assert (out1 / "classification.csv").read_bytes() == \
        (out2 / "classification.csv").read_bytes()
    # the reports agree but for the stage timings, which are wall times
    reports = [json.loads((out / "report.json").read_text()) for out in (out1, out2)]
    assert [r.pop("timings").keys() for r in reports] == [{"classify", "write"}] * 2
    assert reports[0] == reports[1]


def test_cap_scenario_emits_mesh_and_geometry(tmp_path):
    cfg = _write_config(tmp_path, "cap.json", {
        "kind": "cap", "support": "wedge", "alpha": math.pi / 4,
        "gammas": [2 * math.pi / 3, 2 * math.pi / 3], "h": 1.0,
        "refinement": 1,
    })
    out = tmp_path / "out"
    assert run(cfg, out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["kind"] == "spherical"
    assert report["radius"] == pytest.approx(1.0)
    assert (out / "cap.obj").exists()


def test_solve_graph_scenario_reports_sphere_fit(tmp_path):
    cfg = _write_config(tmp_path, "g.json", {
        "kind": "solve-graph", "a": 1.0, "b": 1.0,
        "gammas": [math.pi / 3] * 4, "grid_n": 16,
    })
    out = tmp_path / "out"
    assert run(cfg, out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["sphere_fit_relative_rms"] < 1e-2
    header = (out / "field.csv").read_text().splitlines()[0]
    assert header == "x,y,u"


# cells whose shortest round-trip text is unusual: signed zero, the smallest
# subnormal, and a power of ten that %g and format() could write differently
_EDGE_VALUES = [-0.0, 5e-324, 1e22, -1e22, 1e16, 0.1, 1.0 / 3.0, -2.5e-300]


def _reference_csv(path, header, rows):
    """The writer the chunked one replaced: ``csv.writer`` over string cells."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)
    return path.read_bytes()


def test_chunked_csv_writer_matches_csv_module(tmp_path):
    rng = np.random.default_rng(5)
    ny = 2 * cli._CSV_CHUNK + 37                   # two full chunks and a part per row
    x = np.array(_EDGE_VALUES)                     # one row per edge value
    y = rng.standard_normal(ny) * 10.0 ** rng.integers(-30, 30, ny)
    u = rng.standard_normal((x.size, ny)) * 10.0 ** rng.integers(-30, 30, (x.size, ny))
    for cells in (y, u):
        cells[..., :len(_EDGE_VALUES)] = _EDGE_VALUES
        cells[..., -len(_EDGE_VALUES):] = _EDGE_VALUES[::-1]
    names = np.array(["INTERIOR_Q", "D1", "CORNER"], dtype=object)[rng.integers(0, 3, u.shape)]
    cells = [(i, j) for i in range(x.size) for j in range(ny)]
    cli._write_grid_csv(tmp_path / "a.csv", ["x", "y", "u"], x, y, "%.17g", "%.17g", [u])
    assert (tmp_path / "a.csv").read_bytes() == _reference_csv(
        tmp_path / "a_ref.csv", ["x", "y", "u"],
        ((f"{x[i]:.17g}", f"{y[j]:.17g}", f"{u[i, j]:.17g}") for i, j in cells))
    # the classify layout: a class name and a number per cell
    cli._write_grid_csv(tmp_path / "b.csv", ["g1", "g2", "class", "v"], x, y, "%.12g",
                        "%s,%.17g", [names, u])
    assert (tmp_path / "b.csv").read_bytes() == _reference_csv(
        tmp_path / "b_ref.csv", ["g1", "g2", "class", "v"],
        ((f"{x[i]:.12g}", f"{y[j]:.12g}", names[i, j], f"{u[i, j]:.17g}") for i, j in cells))


def _write_field_csv(path, field):
    """``field.csv`` as ``solve-graph`` writes it."""
    cli._write_grid_csv(path, ["x", "y", "u"], field.x, field.y, "%.17g", "%.17g", [field.u])


def _reference_field_csv(tmp_path, field):
    """The reference bytes of ``field.csv``: one ``csv.writer`` row per point."""
    return _reference_csv(tmp_path / "field_ref.csv", ["x", "y", "u"],
                          ((f"{x:.17g}", f"{y:.17g}", f"{u:.17g}") for x, y, u in field.points()))


def test_solve_graph_writes_field_and_newton_trace(tmp_path):
    cfg = _write_config(tmp_path, "g.json", {
        "kind": "solve-graph", "a": 1.0, "b": 2.0, "gammas": [1.2] * 4, "grid_n": 24,
    })
    out = tmp_path / "out"
    assert run(cfg, out) == 0
    field = solve_rectangle(RectangleProblem(1.0, 2.0, (1.2,) * 4, grid_n=24))
    assert (out / "field.csv").read_bytes() == _reference_field_csv(tmp_path, field)
    report = json.loads((out / "report.json").read_text())
    residuals, steps = report["trace"]["residuals"], report["trace"]["steps"]
    assert len(residuals) == report["iterations"] + 1
    assert residuals[-1] == report["final_residual"]
    assert len(steps) == report["iterations"] and all(0.0 < s <= 1.0 for s in steps)
    assert report["trace"]["krylov"] == list(field.trace["krylov"])
    assert report["trace"]["missed"] == [False] * report["iterations"]
    assert list(report["trace"]["seconds"]) == list(field.trace["seconds"])


@pytest.mark.parametrize("a, b, gammas, grid_n", [
    (1.0, 1.0, (math.pi / 3,) * 4, 64),
    (1.0, 2.0, (1.2,) * 4, 64),
    (1.3, 0.7, (1.1, 0.9, 1.4, 1.0), 20),          # 26 x 14 cells: nx != ny
])
def test_field_writer_matches_the_point_table_writer(tmp_path, a, b, gammas, grid_n):
    field = solve_rectangle(RectangleProblem(a, b, gammas, grid_n=grid_n))
    _write_field_csv(tmp_path / "field.csv", field)
    assert (tmp_path / "field.csv").read_bytes() == _reference_field_csv(tmp_path, field)


def test_field_writer_splits_rows_longer_than_a_chunk(tmp_path):
    rng = np.random.default_rng(6)
    ny = 2 * cli._CSV_CHUNK + 37                   # two full pieces and a part per row
    u = rng.standard_normal((3, ny)) * 10.0 ** rng.integers(-30, 3, (3, ny))
    u[0, :3] = [-0.0, 5e-324, -2.5e-300]
    u[-1, -1] -= u.sum()                            # the mean-zero gauge
    field = GraphField(u=u, hx=1.0 / 3.0, hy=0.1, a=1.0, b=ny * 0.1)
    _write_field_csv(tmp_path / "field.csv", field)
    assert (tmp_path / "field.csv").read_bytes() == _reference_field_csv(tmp_path, field)


def test_classification_csv_matches_the_per_cell_reference(tmp_path):
    n, alpha = 41, math.pi / 3                    # 1,681 rows: more than one chunk
    cfg = _write_config(tmp_path, "c.json", {"kind": "classify", "alpha": alpha, "grid": n})
    assert run(cfg, tmp_path / "out") == 0
    g = np.linspace(0.0, np.pi, n)
    g1, g2 = np.meshgrid(g, g, indexing="ij")
    codes, numer = classify_grid(alpha, g1, g2)
    names = {v: k.name for k, v in TAG_CODES.items()}
    rows = ((f"{g1[i, j]:.12g}", f"{g2[i, j]:.12g}", names[int(codes[i, j])],
             f"{numer[i, j]:.17g}") for i in range(n) for j in range(n))
    assert (tmp_path / "out" / "classification.csv").read_bytes() == _reference_csv(
        tmp_path / "ref.csv", ["gamma1", "gamma2", "class", "numerator"], rows)


def test_write_obj_matches_the_per_line_reference(tmp_path):
    mesh = meshes.seed_mesh(WedgeConfig.canonical(math.pi / 4, 2 * math.pi / 3,
                                                  2 * math.pi / 3), h=1.0, refinement_level=2)
    mesh = mesh.copy()
    mesh.vertices[:3] = np.reshape(_EDGE_VALUES + [-0.0], (3, 3))
    assert len(set(mesh.tag_kind.tolist())) == 3   # free, wall and edge vertices
    meshes.write_obj(mesh, tmp_path / "a.obj")
    with open(tmp_path / "ref.obj", "w") as f:
        f.write("# capvertex drop mesh\n")
        for x, y, z in mesh.vertices:
            f.write(f"v {x:.17g} {y:.17g} {z:.17g}\n")
        for i in range(mesh.n_vertices):
            f.write(f"# tag {i + 1} {meshes._tag_token(mesh.tag_kind[i], mesh.tag_id[i])}\n")
        for a, b, c in mesh.triangles + 1:
            f.write(f"f {a} {b} {c}\n")
    assert (tmp_path / "a.obj").read_bytes() == (tmp_path / "ref.obj").read_bytes()


def test_counterexample_outcome_carries_both_solves():
    error, order, ratio = verify_suite("counterexample-v4", grid_n=32)
    assert [o["criterion"] for o in (error, order, ratio)] == [
        "square-error", "square-order", "non-sphericity-ratio"]
    for o in (error, order, ratio):
        assert o["iterations"] == {"coarse-square": 3, "square": 2, "rectangle": 4}
        assert all(r < 1e-10 for r in o["final_residual"].values())


def test_counterexample_solves_each_problem_once(monkeypatch):
    solved = []

    def recording(prob):
        solved.append((prob, solve_rectangle(prob)))
        return solved[-1][1]

    monkeypatch.setattr(cli, "solve_rectangle", recording)
    outcomes = verify_suite("counterexample-v4", grid_n=128)
    # the coarse square, the fine square and the rectangle: the fine square is
    # both the oracle's and the non-sphericity ratio's
    assert [(p.a, p.b, p.grid_n) for p, _ in solved] == [(1.0, 1.0, 32), (1.0, 1.0, 128),
                                                         (1.0, 2.0, 128)]
    assert [o["criterion"] for o in outcomes] == ["square-error", "square-order",
                                                  "non-sphericity-ratio"]
    iterations = {"coarse-square": 2, "square": 2, "rectangle": 4}
    for (_, f), n in zip(solved, iterations.values()):
        residuals, steps = f.trace["residuals"], f.trace["steps"]
        assert len(residuals) == n + 1 and residuals[-1] == f.final_residual < 1e-10
        assert len(steps) == n and all(0.0 < s <= 1.0 for s in steps)
    for o in outcomes:
        assert o["iterations"] == iterations
        assert o["final_residual"] == {k: f.final_residual
                                       for k, (_, f) in zip(iterations, solved)}
        # every Krylov step of the three solves met its acceptance test
        assert o["missed"] == {k: (False,) * n for k, n in iterations.items()}
        assert o["krylov"] == {k: f.trace["krylov"] for k, (_, f) in zip(iterations, solved)}
        assert o["seconds"] == {k: f.trace["seconds"] for k, (_, f) in zip(iterations, solved)}


def test_evolve_scenario_small_octant(tmp_path):
    cfg = _write_config(tmp_path, "e.json", {
        "kind": "evolve", "support": "orthant",
        "gammas": [math.pi / 2] * 3, "refinement": 1,
        "perturbation": 0.005, "max_iters": 300,
    })
    out = tmp_path / "out"
    assert run(cfg, out, seed=3) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["volume_error"] < 1e-8
    assert report["diagnostics"]["sphere_relative_rms"] < 1e-2
    assert (out / "evolved.obj").exists()
    # one record per outer loop of the evolver
    assert report["trace"] and sum(r["nit"] for r in report["trace"]) == report["iterations"]


def test_malformed_json_exits_2_without_artifacts(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"kind": "classify",')
    out = tmp_path / "out"
    assert run(cfg, out) == 2
    assert not out.exists()


def test_missing_required_key_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, "bad.json", {"kind": "cap", "support": "wedge"})
    out = tmp_path / "out"
    assert run(cfg, out) == 2
    assert "alpha" in capsys.readouterr().err
    assert not out.exists()


def test_kind_subcommand_mismatch_exits_2(tmp_path):
    cfg = _write_config(tmp_path, "c.json",
                        {"kind": "classify", "alpha": math.pi / 4, "grid": 5})
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_unknown_suite_raises():
    with pytest.raises(DomainError):
        verify_suite("no-such-suite")


def _verify_passes(tmp_path, capsys, suite):
    cfg = _write_config(tmp_path, "v.json", {"kind": "verify", "suite": suite})
    rc = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "[PASS]" in captured
    assert "[FAIL]" not in captured
    outcomes = json.loads((tmp_path / "o" / "report.json").read_text())["outcomes"]
    assert outcomes and all(o["threshold"] is not None for o in outcomes)


def test_verify_wente_suite_passes(tmp_path, capsys):
    _verify_passes(tmp_path, capsys, "wente")


@pytest.mark.parametrize("suite", ["formulas", "caps", "umbilicity", "gradient"])
def test_verify_closed_form_suites_pass(tmp_path, capsys, suite):
    _verify_passes(tmp_path, capsys, suite)


@pytest.mark.parametrize("suite", ["theorem1-wedge", "theorem3-trihedral",
                                   "theorem4-cylinder"])
def test_verify_outcomes_carry_the_state_of_their_evolve(tmp_path, suite):
    cfg = _write_config(tmp_path, "v.json", {"kind": "verify", "suite": suite,
                                             "refinement": 1, "max_iters": 20})
    out = tmp_path / "o"
    assert run(cfg, out) in (0, 1)
    outcomes = json.loads((out / "report.json").read_text())["outcomes"]
    for o in outcomes:
        if o["criterion"] == "cap-contact-angles":      # closed form, no evolve
            assert "converged" not in o
            continue
        assert isinstance(o["converged"], bool)
        assert 1 <= o["iterations"] <= 20
        assert math.isfinite(o["final_gradient_norm"]) and o["final_gradient_norm"] >= 0.0


_ORTHANT = {"kind": "evolve", "support": "orthant", "gammas": [math.pi / 2] * 3,
            "refinement": 1}
_FLAT_ORTHANT = {"kind": "evolve", "support": "orthant",
                 "gammas": [float(np.arccos(np.sqrt(3.0) / 3.0))] * 3, "refinement": 0,
                 "max_iters": 5}


@pytest.mark.parametrize("payload", [
    {"kind": "classify", "alpha": math.nan, "grid": 5},
    {"kind": "classify", "alpha": math.inf, "grid": 5},
    {"kind": "classify", "alpha": True, "grid": 5},
    {"kind": "classify", "alpha": math.pi / 4, "grid": "abc"},
    {"kind": "classify", "alpha": math.pi / 4, "grid": -3},
    {"kind": "classify", "alpha": math.pi / 4, "grid": 7.5},
    {"kind": "classify", "alpha": math.pi / 4, "grid": True},
    {"kind": "solve-graph", "a": math.nan, "b": 1.0, "gammas": [math.pi / 3] * 4},
    {"kind": "solve-graph", "a": 1.0, "b": 1.0, "gammas": [True, 1.0, 1.0, 1.0]},
    {"kind": "solve-graph", "a": 1.0, "b": 1.0, "gammas": [math.pi / 3] * 4,
     "grid_n": "32"},
    {"kind": "solve-graph", "a": 0.1, "b": 1.0, "gammas": [math.pi / 3] * 4, "grid_n": 16},
    # data with a corner outside the admissible rectangle whose solve stalls:
    # the stall is the one line, with no linear-algebra warning before it
    {"kind": "solve-graph", "a": 1.0, "b": 2.0, "gammas": [0.47257357456288734,
     2.1906296255029334, 2.5474611215010237, 3.0363218139332355], "grid_n": 48},
    # sizes past their ceilings; the first two would ask for 11 GiB and 1.2 TiB
    {"kind": "classify", "alpha": 0.0, "grid": 38452},
    {"kind": "solve-graph", "a": 9036.0, "b": 9036.0, "gammas": [0, 0, 0, 1.42]},
    {"kind": "solve-graph", "a": 2.0, "b": 1.0, "gammas": [math.pi / 3] * 4, "grid_n": 363},
    {"kind": "classify", "alpha": math.pi / 4, "grid": 2050},
    {**_ORTHANT, "refinement": 6},
    {"kind": "verify", "suite": "theorem1-wedge", "refinement": 6},
    # a bad alpha on the largest grid is rejected before the grid is built
    {"kind": "classify", "alpha": 0.0, "grid": 2049},
    {"kind": "cap", "support": "cylinder", "gammas": [1.9] * 3, "inradius": math.nan},
    {"kind": "cap", "support": "cylinder", "gammas": [2.0] * 3, "h": 0.0},
    {"kind": "cap", "support": "cylinder", "gammas": [2.0] * 3, "inradius": 2e-313},
    # a curvature the cylinder's walls do not fix: evolve refuses it as cap does
    {"kind": "evolve", "support": "cylinder", "gammas": [1.9, 1.9, 1.9], "h": 5.0,
     "refinement": 0, "max_iters": 20},
    # a curvature whose cylinder cap radius (5.6e210) overflows the
    # consistency residual's norm when measured in absolute units
    {"kind": "cap", "alpha": 0.0, "h": 1.7924449917478894e-211, "support": "cylinder",
     "gammas": [2.0, 2.0, 2.0]},
    {"kind": "cap", "support": "wedge", "alpha": math.pi / 4,
     "gammas": [math.nan, 2.0], "h": 1.0},
    # a subnormal curvature, whose radius 1/|h| overflows
    {"kind": "cap", "support": "wedge", "alpha": 0.7, "gammas": [2.0, 2.0], "h": 1e-320},
    # a curvature whose trihedral cap radius (1.2e239) overflows when squared
    {"kind": "evolve", "support": "orthant", "gammas": [2.0] * 3, "h": 8.020856299428714e-240,
     "perturbation": 0.0, "max_iters": 1},
    {**_ORTHANT, "refinement": "1"},
    {**_ORTHANT, "max_iters": 0},
    {**_ORTHANT, "perturbation": math.inf},
    {**_ORTHANT, "target_volume": -1.0},
    # a perturbation is a fraction of the drop's diameter, at most 1
    {**_ORTHANT, "perturbation": 1e100, "max_iters": 1, "fixed_volume": False},
    {"kind": "evolve", "support": "wedge", "alpha": 0.40625, "gammas": [1.5, 2.0],
     "perturbation": 8.5e101, "target_volume": 2.0, "max_iters": 1},
    {**_ORTHANT, "perturbation": 1.0000001},
    {**_ORTHANT, "perturbation": -0.01},
    {**_ORTHANT, "planar": "no"},
    # "planar" means h = 0: it conflicts with any other h, and it refuses data
    # that admit no plane, or a plane that misses an edge on the liquid side
    {**_FLAT_ORTHANT, "planar": True, "h": 5.0, "target_volume": 7.0},
    {**_FLAT_ORTHANT, "planar": True, "gammas": [1.2] * 3},
    {**_FLAT_ORTHANT, "planar": True,
     "gammas": np.arccos(np.array([-0.9, 0.3, 0.3]) / np.sqrt(0.99)).tolist()},
    # a name the config gives, with a line break in it, still makes one line
    {"kind": "cap", "support": "\r", "gammas": [1.0] * 3},
    {"kind": "verify", "suite": "a\nb"},
    {"kind": "\n"},
    {"kind": "verify", "suite": "wente", "grid_n": False},
], ids=lambda p: "-".join(f"{k}={v}" for k, v in p.items() if k != "gammas"))
def test_bad_config_exits_2_with_one_line_and_no_artifacts(tmp_path, capsys, payload):
    cfg = _write_config(tmp_path, "bad.json", payload)
    out = tmp_path / "out"
    # a bad config is refused before it reaches arithmetic that could warn
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(cfg, out) == 2
    assert [str(w.message) for w in caught] == []
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not out.exists()


def test_h_0_seeds_the_flat_drop_and_planar_is_its_alias(tmp_path):
    for name, keys in (("planar", {"planar": True}), ("h0", {"h": 0.0}),
                       ("volume", {"planar": True, "target_volume": 7.0})):
        assert run(_write_config(tmp_path, f"{name}.json", {**_FLAT_ORTHANT, **keys}),
                   tmp_path / name) == 0
    assert (tmp_path / "h0" / "evolved.obj").read_bytes() == \
        (tmp_path / "planar" / "evolved.obj").read_bytes()
    # the flat seed is rescaled about the apex to the target volume
    report = json.loads((tmp_path / "volume" / "report.json").read_text())
    assert report["volume"] == pytest.approx(7.0, abs=1e-9)


_SEED_CONFIGS = [
    {"kind": "classify", "alpha": math.pi / 4, "grid": 9},
    {**_ORTHANT, "refinement": 0, "perturbation": 0.01, "max_iters": 5},
]


@pytest.mark.parametrize("payload", _SEED_CONFIGS, ids=lambda p: p["kind"])
@pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.0, True])
def test_a_seed_outside_64_bits_exits_2_and_writes_nothing(tmp_path, capsys, payload, seed):
    cfg = _write_config(tmp_path, "c.json", payload)
    out = tmp_path / "out"
    assert run(cfg, out, seed=seed) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_a_suite_refuses_a_seed_outside_64_bits(seed):
    with pytest.raises(DomainError, match="seed"):
        verify_suite("formulas", seed=seed)


@pytest.mark.parametrize("payload", _SEED_CONFIGS, ids=lambda p: p["kind"])
@pytest.mark.parametrize("text", ["-1", "0x1ffffffffffffffff", str(2 ** 64), "seven"])
def test_the_seed_option_refuses_any_seed_outside_64_bits(tmp_path, capsys, payload, text):
    cfg = _write_config(tmp_path, "c.json", payload)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_:
        main([payload["kind"], "--config", str(cfg), "--out", str(out), "--seed", text])
    assert exit_.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, seed", [("0", 0), ("0xffffffffffffffff", 2 ** 64 - 1)])
def test_the_seed_option_takes_the_ends_of_the_64_bit_range(tmp_path, text, seed):
    cfg = _write_config(tmp_path, "c.json", _SEED_CONFIGS[1])
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(cfg), "--out", str(out), "--seed", text]) == 0
    assert json.loads((out / "report.json").read_text())["seed"] == seed


@pytest.mark.parametrize("payload, stages", [
    ({"kind": "classify", "alpha": math.pi / 4, "grid": 9}, {"classify", "write"}),
    ({"kind": "cap", "support": "orthant", "gammas": [math.pi / 2] * 3, "refinement": 0},
     {"cap", "seed", "write"}),
    ({"kind": "cap", "support": "cylinder", "gammas": [math.pi / 2] * 3}, {"cap", "write"}),
    ({"kind": "solve-graph", "a": 1.0, "b": 1.0, "gammas": [math.pi / 3] * 4, "grid_n": 16},
     {"solve", "fit", "write"}),
    ({**_ORTHANT, "refinement": 0, "perturbation": 0.01, "max_iters": 5},
     {"seed", "evolve", "diagnostics", "write"}),
    ({"kind": "verify", "suite": "wente"}, {"suite"}),
], ids=lambda p: p["kind"] if isinstance(p, dict) else None)
def test_reports_carry_stage_timings(tmp_path, payload, stages):
    cfg = _write_config(tmp_path, "c.json", payload)
    out = tmp_path / "out"
    assert run(cfg, out) == 0
    timings = json.loads((out / "report.json").read_text())["timings"]
    assert set(timings) == stages
    assert all(isinstance(t, float) and t >= 0.0 for t in timings.values())


@pytest.mark.parametrize("solver, exc, payload", [
    ("solve_rectangle", NonConvergenceError("no convergence in 60 iterations"),
     {"kind": "solve-graph", "a": 1.0, "b": 3.0, "gammas": [0.1, 0.1, 3.0, 3.0]}),
    ("evolve", MeshDegenerationError("triangle collapsed during evolution"), _ORTHANT),
], ids=["non-convergence", "mesh-degeneration"])
def test_solver_failure_exits_2_with_one_line_and_no_artifacts(
        tmp_path, capsys, monkeypatch, solver, exc, payload):
    def fail(*args, **kwargs):
        raise exc
    monkeypatch.setattr(cli, solver, fail)
    cfg = _write_config(tmp_path, "c.json", payload)
    out = tmp_path / "out"
    assert run(cfg, out) == 2
    assert capsys.readouterr().err.strip() == f"error: {exc}"
    assert not out.exists()


def test_stagnating_solve_exits_2_with_its_last_residuals(tmp_path, capsys):
    # the 1 x 3 problem whose line search finds no decrease from 0.627
    cfg = _write_config(tmp_path, "c.json", {"kind": "solve-graph", "a": 1.0, "b": 3.0,
                                             "gammas": [0.1, 0.1, 3.0, 3.0], "grid_n": 16})
    out = tmp_path / "out"
    assert run(cfg, out) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    message, last = err.strip().split("; last residuals ")
    assert message.startswith("error: line search stagnated at residual 6.274e-01")
    residuals = [float(r) for r in last.split(", ")]
    assert len(residuals) == cli._TRACE_TAIL
    assert all(b < a for a, b in zip(residuals, residuals[1:]))
    assert residuals[-1] == pytest.approx(0.6274, abs=1e-3)
    assert not out.exists()


# -- the exit-code contract over arbitrary configs ----------------------------

# any JSON value but an integer, so that every key has the wrong type some of
# the time; an unbounded integer as a size would ask for gigabytes
_OTHER = st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=3),
                   st.lists(st.floats(), max_size=4))


def _mostly(strategy, other=_OTHER):
    """``strategy`` in most draws, ``other`` in about one of five."""
    return st.integers(0, 4).flatmap(lambda k: other if k == 4 else strategy)


# sizes bounded so that no example runs long; refinement r seeds 32 * 4**r
# triangles in a wedge and 36 * 4**r in a trihedral angle or cylinder, so it
# stops at 3
_SIZE = _mostly(st.integers(-3, 12))
# mostly positive: every number the scenarios read is valid there
_NUMBER = _mostly(st.floats(0.0, 3.0), st.one_of(_OTHER, st.integers(), st.floats(-3.0, 0.0)))
_SUPPORTS = {"wedge": 2, "orthant": 3, "cylinder": 3}      # support: its wall count
# the keys each kind reads, present in most examples; grid_n and max_iters
# always: an absent grid_n means 32 cells per unit of the unbounded sides a
# and b, an absent max_iters 1000 evolve iterations
_REQUIRED = {
    "classify": {"alpha": _NUMBER},
    "cap": {"alpha": _NUMBER},
    "solve-graph": {"a": _NUMBER, "b": _NUMBER, "grid_n": _SIZE},
    "evolve": {"alpha": _NUMBER, "max_iters": _SIZE},
    "verify": {"suite": _mostly(st.sampled_from(["formulas", "wente", "caps"]))},
}
_OPTIONAL = {
    "grid": _SIZE, "grid_n": _SIZE, "refinement": _mostly(st.integers(-3, 3)),
    "planar": _mostly(st.booleans()), "fixed_volume": _mostly(st.booleans()),
    **{key: _NUMBER for key in ("h", "inradius", "perturbation", "grad_tol", "target_volume")},
}


@st.composite
def _configs(draw):
    kind = draw(st.sampled_from(sorted(_REQUIRED)))
    keys = _REQUIRED[kind]
    cfg = draw(st.fixed_dictionaries(keys, optional={k: v for k, v in _OPTIONAL.items()
                                                     if k not in keys}))
    walls = 4
    if kind in ("cap", "evolve"):
        cfg["support"] = draw(_mostly(st.sampled_from(sorted(_SUPPORTS))))
        walls = _SUPPORTS.get(cfg["support"], 3) if isinstance(cfg["support"], str) else 3
    if kind in ("cap", "evolve", "solve-graph"):
        # mostly near the right angle, where most supports admit a drop
        angle = _mostly(st.floats(1.2, 2.0), st.floats(0.0, math.pi))
        cfg["gammas"] = draw(_mostly(st.lists(angle, min_size=walls, max_size=walls)))
    return {"kind": kind, **cfg}


@settings(max_examples=60, deadline=None)
@given(cfg=_configs())
def test_any_config_exits_0_1_or_2_and_exit_2_writes_nothing(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(path, out)
        assert code in (0, 1, 2)
        if code == 2:
            assert not out.exists()
            assert len(err.getvalue().strip().splitlines()) == 1

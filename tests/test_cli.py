import json
import math

import pytest

from capvertex import cli
from capvertex.cli import main, run, verify_suite
from capvertex.errors import DomainError, MeshDegenerationError, NonConvergenceError


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
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


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


def test_verify_wente_suite_passes(tmp_path, capsys):
    cfg = _write_config(tmp_path, "v.json", {"kind": "verify", "suite": "wente"})
    rc = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "[PASS]" in captured
    assert "[FAIL]" not in captured


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
    {"kind": "cap", "support": "cylinder", "gammas": [1.9] * 3, "inradius": math.nan},
    {"kind": "cap", "support": "wedge", "alpha": math.pi / 4,
     "gammas": [math.nan, 2.0], "h": 1.0},
    {**_ORTHANT, "refinement": "1"},
    {**_ORTHANT, "max_iters": 0},
    {**_ORTHANT, "perturbation": math.inf},
    {**_ORTHANT, "planar": "no"},
    {"kind": "verify", "suite": "wente", "grid_n": False},
], ids=lambda p: "-".join(f"{k}={v}" for k, v in p.items() if k != "gammas"))
def test_bad_config_exits_2_with_one_line_and_no_artifacts(tmp_path, capsys, payload):
    cfg = _write_config(tmp_path, "bad.json", payload)
    out = tmp_path / "out"
    assert run(cfg, out) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not out.exists()


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

"""One workload in its own process: set up, run rounds for a fixed time, check.

Started by ``run.py``; prints one JSON object as its last line. With
``--setup-only`` it stops after set-up and reports the set-up time alone.
Set-up time runs from ``--t0``, a ``time.monotonic`` reading the parent takes
just before it starts this process, so it includes interpreter start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def _machine():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def layer_metrics(rec, reports, rounds):
    """Per-round layer figures from the span recorder and the solver reports."""
    t, calls, own = rec.total, rec.calls, rec.self_time
    evolves = [r for r in reports if r.get("scenario") == "evolve"]
    graphs = [r for r in reports if r.get("scenario") == "solve-graph"]
    per_round = {
        "meshes.wall_polylines_calls": calls["meshes.wall_polylines"],
        "meshes.wall_polylines_s": t["meshes.wall_polylines"],
        "meshes.boundary_loop_s": t["meshes.boundary_loop"],
        "meshes.seed_s": t["meshes.seed"],
        "meshes.perturb_s": t["meshes.perturb"],
        "meshes.write_obj_s": t["meshes.write_obj"],
        "evolver.evolve_s": t["evolver.evolve"],
        "evolver.objective_calls": calls["evolver.objective"],
        "evolver.objective_s": t["evolver.objective"],
        "evolver.energy_s": t["evolver.energy"],
        "evolver.volume_s": t["evolver.volume"],
        "evolver.gradient_s": t["evolver.gradient"],
        "evolver.project_tangent_s": t["evolver.project_tangent"],
        "evolver.lbfgs_self_s": own["evolver.lbfgs"],
        "evolver.iterations": sum(r["iterations"] for r in evolves),
        "evolver.converged_ops": sum(bool(r["converged"]) for r in evolves),
        "graphpde.solve_s": t["graphpde.solve"],
        "graphpde.newton_iters": sum(r["iterations"] for r in graphs),
        "graphpde.spsolve_s": t["graphpde.spsolve"],
        "graphpde.assembly_s": t["graphpde.solve"] - t["graphpde.spsolve"],
        "diagnostics.report_s": t["diagnostics.report"],
        "diagnostics.fit_sphere_calls": calls["diagnostics.fit_sphere"],
        "diagnostics.fit_sphere_s": t["diagnostics.fit_sphere"],
        "diagnostics.curvature_s": t["diagnostics.curvature"],
        "diagnostics.umbilicity_s": t["diagnostics.umbilicity"],
        "diagnostics.contact_angles_s": t["diagnostics.contact_angles"],
        "geometry.classify_s": t["geometry.classify"],
        "geometry.vertex_angle_s": t["geometry.vertex_angle"],
        "cli.self_s": own["cli.run"],
    }
    out = {k: v / rounds for k, v in per_round.items()}
    out["evolver.final_gradient_norm"] = max(
        (r["final_gradient_norm"] for r in evolves), default=0.0)
    out["graphpde.final_residual"] = max((r["final_residual"] for r in graphs), default=0.0)
    return out


def run_round(ops, r, results):
    """Run every operation of round ``r``; returns (op seconds, failed count)."""
    took, failed = 0.0, 0
    for op in ops:
        start = perf_counter()
        try:
            results.append((op, op.run(r)))
        except Exception:
            failed += 1
            print(f"{op.name} round {r} failed:\n{traceback.format_exc()}", file=sys.stderr)
        took += perf_counter() - start
    return took, failed


def check_round(results, failures):
    reports = []
    for op, result in results:
        try:
            checks = op.check(result)
        except Exception:
            failures.append(f"{op.name}: check raised {traceback.format_exc()}")
            continue
        failures += [f"{op.name}: {c}" for c in checks if not c.ok]
        if isinstance(result, tuple) and isinstance(result[-1], dict):
            reports.append(result[-1])
    return reports


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import capvertex.cli  # noqa: F401  (set-up cost: the package and the
    import scipy.optimize  # noqa: F401  modules its entry points import lazily)
    import scipy.sparse.linalg  # noqa: F401
    import workloads
    # numpy seeds must be non-negative; the modulus keeps any integer usable
    ops = workloads.WORKLOADS[args.workload](args.seed % 2 ** 64, Path(args.out))
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # The traced run first repeats round 0 untraced, so that the tracing
    # overhead compares the same inputs with and without spans.
    rec = None
    elapsed, round_s, traced_s = [], [], []
    attempted = failed = 0
    failures, reports = [], []
    begin = perf_counter()
    k = 0
    while True:
        tracing = bool(args.trace) and k > 0
        if tracing and rec is None:
            import spans
            rec = spans.Recorder()
            spans.install(rec)
        r = k - 1 if args.trace and k > 0 else k
        started = perf_counter()
        results = []
        took, bad = run_round(ops, r, results)
        attempted += len(ops)
        failed += bad
        round_reports = check_round(results, failures)
        (traced_s if tracing else round_s).append(took)
        if tracing:
            reports += round_reports
        elapsed.append(perf_counter() - started)
        k += 1
        if args.trace and k < 2:
            continue
        if perf_counter() - begin + statistics.median(elapsed) > args.seconds:
            break

    out = {"setup_s": setup_s, "round_s": round_s, "attempted": attempted, "failed": failed,
           "failures": failures, "machine": _machine(),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if args.trace:
        out["layers"] = layer_metrics(rec, reports, len(traced_s))
        out["layers"]["trace.run_s"] = statistics.median(traced_s)
        out["layers"]["trace.spans"] = sum(rec.calls.values()) / len(traced_s)
        out["layers"]["trace.overhead_pct"] = 100.0 * (traced_s[0] / round_s[0] - 1.0)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""capvertex benchmark: one workload per call, checked, with every metric by name.

    python3 bench/run.py --workload wedge-relax --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The workload runs in its own process
started from here, with one BLAS thread; two more processes only set up, so
that set-up time is a median of three. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones (``setup_s``, ``run_s``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer figures of a
traced run. The full record, with the machine it ran on, is written under
``.bench_runs/``. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("wedge-relax", "trihedral-relax", "rectangle-graph", "closed-forms")
SETUP_PROBES = 2
# fixed thread counts make timings and the evolver's reductions repeatable
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}


def _worker(args, out, setup_only):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, **THREAD_ENV}
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=60 if setup_only else args.seconds + 120)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "capvertex" / "__init__.py").is_file():
        print(f"no capvertex source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runs = ROOT / ".bench_runs"
    out = runs / "work" / f"{args.workload}-{os.getpid()}"
    try:
        setups = [_worker(args, out, True)["setup_s"] for _ in range(SETUP_PROBES)]
        res = _worker(args, out, False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)
    setups.append(res["setup_s"])

    for line in res["failures"]:
        print(f"check failed: {line}", file=sys.stderr)
    if args.trace:
        units = {m["name"]: m["unit"] for m in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        if set(units) != set(res["layers"]):
            print(f"layer metrics differ from BENCHMARK.json: "
                  f"{sorted(set(units) ^ set(res['layers']))}", file=sys.stderr)
            return 1
        metrics = {k: {"value": v, "unit": units[k]} for k, v in res["layers"].items()}
    else:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                   "run_s": {"value": statistics.median(res["round_s"]), "unit": "s"},
                   "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"}}
    result = {"correct": not res["failures"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    record = {**result, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "setup_samples": setups,
              "round_s": res["round_s"], "machine": res["machine"],
              "thread_env": THREAD_ENV}
    (runs / "results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (runs / "results" / name).write_text(json.dumps(record, indent=2))
    print("machine: " + json.dumps(res["machine"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

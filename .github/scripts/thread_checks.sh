#!/usr/bin/env bash
# Console-script artifacts that must not depend on the BLAS thread count: a
# 181^2 classify, three refinement-3 caps (wedge, orthant and cylinder) and
# two 64^2 solve-graph problems (the pi/3 square and the 1x2 rectangle at
# gamma 1.2), each run at OPENBLAS_NUM_THREADS=1 and 2. The CSV and OBJ files
# must be byte-identical, and so must report.json once its wall times
# ("timings", and a solver trace's "seconds") are removed. Evolve runs and
# the 128 grids are left out: the 128 graph fields still differ by 2.8e-17
# between one and two threads (the FOUND line on BLAS thread counts in
# CHANGES.md), and the evolver's verdicts move with the thread count too.
# Usage: .github/scripts/thread_checks.sh  (with `capvertex` installed)
set -euo pipefail
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

same() {  # subcommand, name, config JSON, artifact
  echo "$3" > "$tmp/$2.json"
  for n in 1 2; do
    OPENBLAS_NUM_THREADS=$n capvertex "$1" --config "$tmp/$2.json" --out "$tmp/$2-$n"
  done
  cmp "$tmp/$2-1/$4" "$tmp/$2-2/$4"
  python -c 'import json, sys; r = [json.load(open(p)) for p in sys.argv[1:]]; [(x.pop("timings"), x.get("trace", {}).pop("seconds", None)) for x in r]; sys.exit(0 if r[0] == r[1] else 1)' \
    "$tmp/$2-1/report.json" "$tmp/$2-2/report.json"
  echo "$2: the same at 1 and 2 threads"
}

same classify classify '{"kind": "classify", "alpha": 0.7853981633974483, "grid": 181}' classification.csv
same cap wedge-cap '{"kind": "cap", "support": "wedge", "alpha": 0.7853981633974483, "gammas": [2.0943951023931953, 2.0943951023931953], "h": 1.0, "refinement": 3}' cap.obj
same cap orthant-cap '{"kind": "cap", "support": "orthant", "gammas": [1.5707963267948966, 1.5707963267948966, 1.5707963267948966], "h": 1.0, "refinement": 3}' cap.obj
same cap cylinder-cap '{"kind": "cap", "support": "cylinder", "gammas": [1.9, 1.9, 1.9], "refinement": 3}' cap.obj
same solve-graph square '{"kind": "solve-graph", "a": 1.0, "b": 1.0, "gammas": [1.0471975511965976, 1.0471975511965976, 1.0471975511965976, 1.0471975511965976], "grid_n": 64}' field.csv
same solve-graph rectangle '{"kind": "solve-graph", "a": 1.0, "b": 2.0, "gammas": [1.2, 1.2, 1.2, 1.2], "grid_n": 64}' field.csv

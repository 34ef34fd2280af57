#!/usr/bin/env bash
# Console-script checks of the classify, cap and evolve scenarios: one classify,
# one spherical cap, one planar cap and one evolve config must each exit 0,
# write non-empty artifacts and report exactly their stage timings, in stage
# order; the planar cap writes no mesh and has no write stage. A cylinder cap
# given the curvature its walls fix must write cap.obj. An h = 0 evolve of the
# flat orthant must write the evolved.obj bytes of its alias "planar": true.
# A seed outside [0, 2**64), a cylinder evolve whose h the walls do not fix,
# "planar" with another h, and a key the scenario does not read (an evolve's
# misspelt "max_iter", a classify's graph key "grid_n", and a verify option
# the suite does not read: "grid_n" for formulas, which reads none, and for
# theorem1-wedge, which reads only refinement and max_iters) must each exit 2
# and write nothing.
# Usage: .github/scripts/cli_checks.sh  (with `capvertex` installed)
set -euo pipefail
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

scenario() {  # subcommand, name, config JSON, timings keys (comma-separated), artifacts
  local sub=$1 name=$2 keys=$4
  echo "$3" > "$tmp/$name.json"
  shift 4
  capvertex "$sub" --config "$tmp/$name.json" --out "$tmp/$name"
  for f in report.json "$@"; do test -s "$tmp/$name/$f"; done
  python -c 'import json, sys; t = list(json.load(open(sys.argv[1]))["timings"]); print(sys.argv[2], t); sys.exit(0 if t == sys.argv[3].split(",") else 1)' \
    "$tmp/$name/report.json" "$name" "$keys"
}

scenario classify classify '{"kind": "classify", "alpha": 0.7853981633974483, "grid": 181}' \
  classify,write classification.csv
scenario cap spherical-cap '{"kind": "cap", "support": "wedge", "alpha": 0.7853981633974483, "gammas": [2.0943951023931953, 2.0943951023931953], "h": 1.0}' \
  cap,seed,write cap.obj
scenario cap cylinder-cap '{"kind": "cap", "support": "cylinder", "gammas": [1.9, 1.9, 1.9], "h": 0.32328956686350335}' \
  cap,seed,write cap.obj
scenario cap planar-cap '{"kind": "cap", "support": "cylinder", "gammas": [1.5707963267948966, 1.5707963267948966, 1.5707963267948966]}' \
  cap
test ! -e "$tmp/planar-cap/cap.obj"
evolve='{"kind": "evolve", "support": "orthant", "gammas": [1.5707963267948966, 1.5707963267948966, 1.5707963267948966], "refinement": 1, "perturbation": 0.01, "max_iters": 100}'
scenario evolve evolve "$evolve" seed,evolve,diagnostics,write evolved.obj

refused() {  # subcommand, name, config JSON, extra options: exit 2, nothing written
  local sub=$1 name=$2
  echo "$3" > "$tmp/$name.json"
  shift 3
  local code=0
  capvertex "$sub" --config "$tmp/$name.json" --out "$tmp/$name" "$@" || code=$?
  echo "$name: exit $code"
  test "$code" -eq 2
  test ! -e "$tmp/$name"
}

# the seed is an unsigned 64-bit integer: -1 is refused
refused evolve bad-seed "$evolve" --seed -1

# a cylinder's walls fix its curvature: evolve refuses another h, as cap does
refused evolve bad-h '{"kind": "evolve", "support": "cylinder", "gammas": [1.9, 1.9, 1.9], "h": 5.0, "refinement": 0, "max_iters": 20}'

# h = 0 is the flat drop, and "planar": true is its alias: the same mesh
flat='"support": "orthant", "gammas": [0.9553166181245093, 0.9553166181245093, 0.9553166181245093], "refinement": 1, "perturbation": 0.01, "max_iters": 50'
scenario evolve flat-h0 "{\"kind\": \"evolve\", $flat, \"h\": 0.0}" \
  seed,evolve,diagnostics,write evolved.obj
scenario evolve flat-planar "{\"kind\": \"evolve\", $flat, \"planar\": true}" \
  seed,evolve,diagnostics,write evolved.obj
cmp "$tmp/flat-h0/evolved.obj" "$tmp/flat-planar/evolved.obj"

# "planar" means h = 0, so it conflicts with any other h
refused evolve bad-planar "{\"kind\": \"evolve\", $flat, \"planar\": true, \"h\": 5.0}"

# a key the scenario does not read is refused before any computation
refused evolve max-iter '{"kind": "evolve", "support": "orthant", "gammas": [1.5707963267948966, 1.5707963267948966, 1.5707963267948966], "refinement": 1, "max_iter": 3}'
refused classify grid-n '{"kind": "classify", "alpha": 0.7853981633974483, "grid_n": 181}'
refused verify formulas-grid-n '{"kind": "verify", "suite": "formulas", "grid_n": 5}'
refused verify theorem1-grid-n '{"kind": "verify", "suite": "theorem1-wedge", "grid_n": 64}'

#!/usr/bin/env bash
# Console-script checks of the classify, cap and evolve scenarios: one classify,
# one spherical cap, one planar cap and one evolve config must each exit 0,
# write non-empty artifacts and report exactly their stage timings, in stage
# order. A cylinder cap given the curvature its walls fix must write cap.obj.
# An h = 0 evolve of the flat orthant must write the evolved.obj bytes of its
# alias "planar": true. A seed outside [0, 2**64), a cylinder evolve whose h
# the walls do not fix, and "planar" with another h must each exit 2 and
# write nothing.
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
  cap,write
test ! -e "$tmp/planar-cap/cap.obj"
evolve='{"kind": "evolve", "support": "orthant", "gammas": [1.5707963267948966, 1.5707963267948966, 1.5707963267948966], "refinement": 1, "perturbation": 0.01, "max_iters": 100}'
scenario evolve evolve "$evolve" seed,evolve,diagnostics,write evolved.obj

# the seed is an unsigned 64-bit integer: -1 is refused with exit 2
code=0
capvertex evolve --config "$tmp/evolve.json" --out "$tmp/bad-seed" --seed -1 || code=$?
echo "seed -1: exit $code"
test "$code" -eq 2
test ! -e "$tmp/bad-seed"

# a cylinder's walls fix its curvature: evolve refuses another h, as cap does
echo '{"kind": "evolve", "support": "cylinder", "gammas": [1.9, 1.9, 1.9], "h": 5.0, "refinement": 0, "max_iters": 20}' > "$tmp/bad-h.json"
code=0
capvertex evolve --config "$tmp/bad-h.json" --out "$tmp/bad-h" || code=$?
echo "cylinder h 5.0: exit $code"
test "$code" -eq 2
test ! -e "$tmp/bad-h"

# h = 0 is the flat drop, and "planar": true is its alias: the same mesh
flat='"support": "orthant", "gammas": [0.9553166181245093, 0.9553166181245093, 0.9553166181245093], "refinement": 1, "perturbation": 0.01, "max_iters": 50'
scenario evolve flat-h0 "{\"kind\": \"evolve\", $flat, \"h\": 0.0}" \
  seed,evolve,diagnostics,write evolved.obj
scenario evolve flat-planar "{\"kind\": \"evolve\", $flat, \"planar\": true}" \
  seed,evolve,diagnostics,write evolved.obj
cmp "$tmp/flat-h0/evolved.obj" "$tmp/flat-planar/evolved.obj"

# "planar" means h = 0, so it conflicts with any other h
echo "{\"kind\": \"evolve\", $flat, \"planar\": true, \"h\": 5.0}" > "$tmp/bad-planar.json"
code=0
capvertex evolve --config "$tmp/bad-planar.json" --out "$tmp/bad-planar" || code=$?
echo "planar with h 5.0: exit $code"
test "$code" -eq 2
test ! -e "$tmp/bad-planar"

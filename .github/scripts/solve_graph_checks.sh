#!/usr/bin/env bash
# Console-script checks of `capvertex solve-graph`: each problem must solve
# (exit 0, a field written), and every GMRES step of the 1x2 rectangle at
# grid_n 128 and 256 and of the 26x14-cell mixed-angle problem must meet its
# acceptance test: none may be taken with its linear residual missed. GMRES
# applies the Jacobian unassembled, and the solve at grid_n 256 (131,072
# cells) takes about 1.6 s. The 1x2 rectangle's GMRES iterations must total
# at most 26 (35 when every step is solved to the tight forcing term), so
# that the adaptive forcing cannot silently fall back to tight. The square at
# gamma = 1.9, above a right angle, must solve with no missed step; the square
# at gamma = 0.5 has D1 corners, which admit no solution, and must exit 2 and
# write nothing. The 1x3 problem at gammas (0.1, 0.1, 3.0, 3.0) stagnates in
# the Newton-Krylov core, whose line search finds no decrease: it must exit
# 2, write nothing and print one stderr line ending with the last five
# residuals. No digits are pinned, since a trace that does not converge may
# round differently on another scipy.
# Usage: .github/scripts/solve_graph_checks.sh  (with `capvertex` installed)
set -euo pipefail
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

refused() {  # name, config JSON
  echo "$2" > "$tmp/$1.json"
  code=0
  capvertex solve-graph --config "$tmp/$1.json" --out "$tmp/$1" || code=$?
  echo "$1: exit $code"
  test "$code" -eq 2
  test ! -e "$tmp/$1"
}

stagnates() {  # name, config JSON
  refused "$1" "$2" 2> "$tmp/$1.err"
  cat "$tmp/$1.err"
  test "$(wc -l < "$tmp/$1.err")" -eq 1
  number='[0-9.]+e[+-][0-9]+'
  grep -Eq "^error: line search stagnated at residual $number; last residuals ($number, ){4}$number\$" \
    "$tmp/$1.err"
}

solve() {  # name, config JSON
  echo "$2" > "$tmp/$1.json"
  capvertex solve-graph --config "$tmp/$1.json" --out "$tmp/$1"
  test -s "$tmp/$1/field.csv"
}

no_missed_step() {  # name
  python -c 'import json, sys; t = json.load(open(sys.argv[1]))["trace"]; print(sys.argv[2], t["krylov"], t["missed"]); sys.exit(1 if any(t["missed"]) else 0)' \
    "$tmp/$1/report.json" "$1"
}

krylov_at_most() {  # name, largest total of GMRES iterations
  python -c 'import json, sys; t = json.load(open(sys.argv[1]))["trace"]; n = sum(t["krylov"]); print(sys.argv[2], "GMRES iterations", n); sys.exit(1 if n > int(sys.argv[3]) else 0)' \
    "$tmp/$1/report.json" "$1" "$2"
}

solve small '{"kind": "solve-graph", "a": 1.0, "b": 2.0, "gammas": [1.2, 1.2, 1.2, 1.2], "grid_n": 16}'
solve rectangle '{"kind": "solve-graph", "a": 1.0, "b": 2.0, "gammas": [1.2, 1.2, 1.2, 1.2], "grid_n": 128}'
no_missed_step rectangle
krylov_at_most rectangle 26
solve large '{"kind": "solve-graph", "a": 1.0, "b": 2.0, "gammas": [1.2, 1.2, 1.2, 1.2], "grid_n": 256}'
no_missed_step large
solve mixed '{"kind": "solve-graph", "a": 1.3, "b": 0.7, "gammas": [1.1, 0.9, 1.4, 1.0], "grid_n": 20}'
no_missed_step mixed
solve upper '{"kind": "solve-graph", "a": 1.0, "b": 1.0, "gammas": [1.9, 1.9, 1.9, 1.9], "grid_n": 64}'
no_missed_step upper
refused d1 '{"kind": "solve-graph", "a": 1.0, "b": 1.0, "gammas": [0.5, 0.5, 0.5, 0.5], "grid_n": 16}'
stagnates stagnant '{"kind": "solve-graph", "a": 1.0, "b": 3.0, "gammas": [0.1, 0.1, 3.0, 3.0], "grid_n": 16}'

"""End-to-end acceptance checks: every numbered criterion is a verify-suite outcome.

Each criterion's definition and threshold live in one suite of
``capvertex.cli``, so ``capvertex verify`` reproduces all of them. This module
holds only which suite run covers which criteria, and each run's wall-time
gate: the tightest gate of the criteria it covers, held by the whole
``verify_suite`` call. Every outcome prints one ``[PASS]``/``[FAIL]`` line with
its measured value, its threshold and the run's time.
"""

import time

import pytest

from capvertex.cli import verify_suite

# (criterion of each outcome, suite, options, time gate in seconds)
_CRITERIA = [
    ({"numerator-sign-vs-rectangle": 1, "angle-identity": 2, "equal-angle-bound": 2},
     "formulas", {"seed": 2024}, 1.0),
    ({"cap-vertex-angle": 3, "cap-existence": 3, "trihedral-contact-angles": 4,
      "degenerate-flag": 4, "radial-cmc-residual": 12, "radial-minimal-residual": 12},
     "caps", {"seed": 3}, 1.0),
    ({"square-error": 5, "square-order": 5, "non-sphericity-ratio": 6},
     "counterexample-v4", {"grid_n": 128}, 60.0),
    ({"halfcylinder-residual": 7, "compatibility-h": 7}, "wente", {}, 1.0),
    ({"sphere-fit": 8, "mean-curvature-cv": 8, "contact-angle": 8, "vertex-angle": 8},
     "theorem1-wedge", {"seed": 0}, 120.0),
    ({"planar-mode": 9, "sphere-fit": 9, "volume-error": 9},
     "theorem3-trihedral", {"seed": 9, "refinement": 2}, 120.0),
    ({"cap-contact-angles": 10, "sphere-fit": 10},
     "theorem4-cylinder", {"seed": 10, "refinement": 2, "max_iters": 1200}, 120.0),
    ({"sphere-umbilicity": 11, "cylinder-separation": 11}, "umbilicity", {}, 10.0),
    ({"energy-gradient": 13}, "gradient", {"seed": 13}, 30.0),
]


@pytest.mark.parametrize(
    "criteria, suite, options, gate", _CRITERIA,
    ids=["-".join(f"{c:02d}" for c in sorted(set(row[0].values()))) for row in _CRITERIA])
def test_criteria(criteria, suite, options, gate):
    t0 = time.perf_counter()
    outcomes = verify_suite(suite, **options)
    elapsed = time.perf_counter() - t0
    assert [o["criterion"] for o in outcomes] == list(criteria)
    lines = [f"[{'PASS' if o['pass'] and elapsed < gate else 'FAIL'}] "
             f"criterion-{criteria[o['criterion']]:02d} {suite}/{o['criterion']}: "
             f"measured {o['measured']} vs threshold {o['threshold']} "
             f"({elapsed:.2f}s, gate {gate:g}s)" for o in outcomes]
    print("\n".join(lines))
    assert all(line.startswith("[PASS]") for line in lines), "\n".join(lines)

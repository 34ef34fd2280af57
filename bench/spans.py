"""Spans around calls into capvertex's public names, for the traced run.

Wrappers are installed from here, outside the program: each hooked name is
replaced, in every capvertex module that holds it, by a wrapper that times the
call. Spans nest; a span's self time is its duration minus its direct
children, and a call made inside an open span of the same name is counted
once, by the outer span. Totals stay in memory and are read out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name). An attribute "Class.method" hooks a method.
HOOKS = [
    ("capvertex.cli", "run", "cli.run"),
    ("capvertex.meshes", "seed_mesh", "meshes.seed"),
    ("capvertex.meshes", "seed_planar_trihedral", "meshes.seed"),
    ("capvertex.meshes", "perturb", "meshes.perturb"),
    ("capvertex.meshes", "write_obj", "meshes.write_obj"),
    ("capvertex.meshes", "TriMeshDrop.wall_polylines", "meshes.wall_polylines"),
    ("capvertex.meshes", "TriMeshDrop.boundary_loop", "meshes.boundary_loop"),
    ("capvertex.evolver", "evolve", "evolver.evolve"),
    ("capvertex.evolver", "energy", "evolver.energy"),
    ("capvertex.evolver", "volume", "evolver.volume"),
    ("capvertex.evolver", "energy_gradient", "evolver.gradient"),
    ("capvertex.evolver", "volume_gradient", "evolver.gradient"),
    ("capvertex.evolver", "project_tangent", "evolver.project_tangent"),
    ("scipy.optimize", "minimize", "evolver.lbfgs"),
    ("capvertex.graphpde", "solve_rectangle", "graphpde.solve"),
    ("scipy.sparse.linalg", "spsolve", "graphpde.spsolve"),
    ("capvertex.diagnostics", "diagnostics_report", "diagnostics.report"),
    ("capvertex.diagnostics", "fit_sphere", "diagnostics.fit_sphere"),
    ("capvertex.diagnostics", "mean_curvature_field", "diagnostics.curvature"),
    ("capvertex.diagnostics", "sphere_curvature_field", "diagnostics.curvature"),
    ("capvertex.diagnostics", "principal_curvatures", "diagnostics.curvature"),
    ("capvertex.diagnostics", "umbilicity_rms", "diagnostics.umbilicity"),
    ("capvertex.diagnostics", "measure_contact_angles", "diagnostics.contact_angles"),
    ("capvertex.geometry", "classify_data", "geometry.classify"),
    ("capvertex.geometry", "classify_grid", "geometry.classify"),
    ("capvertex.geometry", "vertex_angle", "geometry.vertex_angle"),
]


class Recorder:
    """Per-name call counts, total and self time of nested spans."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self._children = []      # child time accumulated by each open span
        self._open = set()       # names of the open spans

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            if name in self._open:
                # a same-name call inside an open span is already covered by it
                return fn(*args, **kwargs)
            self._open.add(name)
            self._children.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                self._open.discard(name)
                child = self._children.pop()
                self.calls[name] += 1
                self.total[name] += took
                self.self_time[name] += took - child
                if self._children:
                    self._children[-1] += took
        return span

    def wrap_minimize(self, minimize):
        """Time ``scipy.optimize.minimize`` and, inside it, every objective call."""
        def traced(fun, x0, *args, **kwargs):
            return minimize(self.wrap("evolver.objective", fun), x0, *args, **kwargs)
        return self.wrap("evolver.lbfgs", functools.wraps(minimize)(traced))


def install(recorder: Recorder) -> None:
    """Replace every hooked name, wherever capvertex modules bind it."""
    for modname, attr, name in HOOKS:
        mod = importlib.import_module(modname)
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(mod, owner_name) if owner_name else mod
        orig = getattr(owner, leaf)
        if attr == "minimize":
            wrapped = recorder.wrap_minimize(orig)
        else:
            wrapped = recorder.wrap(name, orig)
        setattr(owner, leaf, wrapped)
        if owner_name:
            continue
        for m in list(sys.modules.values()):
            if getattr(m, "__name__", "").startswith("capvertex"):
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)

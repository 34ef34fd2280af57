"""Output checks that do not reuse the program's own measurement code.

Every check compares an output against a closed form or against a property the
method must have, with a tolerance derived from the discretisation. Each check
returns a list of ``Check`` records; an operation is correct when all of them
pass.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    limit: float
    ok: bool

    def __str__(self):
        return (f"[{'ok' if self.ok else 'FAIL'}] {self.name}: "
                f"{self.value:.6g} vs limit {self.limit:.6g}")


def at_most(name, value, limit) -> Check:
    value = float(value)
    return Check(name, value, float(limit), bool(np.isfinite(value) and value <= limit))


def at_least(name, value, limit) -> Check:
    value = float(value)
    return Check(name, value, float(limit), bool(np.isfinite(value) and value >= limit))


# -- reading artifacts ------------------------------------------------------


def read_obj(path):
    """Vertices, triangles and (kind, id) tags of an OBJ with tag comments."""
    verts, tris, tags = [], [], {}
    with open(path) as f:
        for line in f:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                verts.append([float(x) for x in parts[1:4]])
            elif parts[0] == "f":
                tris.append([int(p.split("/")[0]) - 1 for p in parts[1:4]])
            elif parts[:2] == ["#", "tag"]:
                tok = parts[3]
                tags[int(parts[2]) - 1] = ("F", -1) if tok == "Free" else (tok[0], int(tok[1:]))
    n = len(verts)
    return (np.array(verts), np.array(tris, dtype=np.int64),
            [tags.get(i, ("F", -1)) for i in range(n)])


def tags_of(mesh):
    """(kind, id) tags of an in-memory mesh, as ``read_obj`` returns them."""
    kinds = {0: "F", 1: "P", 2: "E"}
    return [(kinds[int(k)], int(j)) for k, j in zip(mesh.tag_kind, mesh.tag_id)]


def read_field_csv(path):
    """The ``x,y,u`` samples of a graph solution as three (nx, ny) arrays."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if rows[0] != ["x", "y", "u"]:
        raise ValueError(f"{path}: unexpected header {rows[0]}")
    data = np.array(rows[1:], dtype=float)
    nx = len(np.unique(data[:, 0]))
    ny = len(data) // nx
    return (data[:, 0].reshape(nx, ny), data[:, 1].reshape(nx, ny),
            data[:, 2].reshape(nx, ny))


# -- geometry ---------------------------------------------------------------


def sphere_fit(points, newton: int = 8):
    """Least-squares sphere: algebraic start, Gauss-Newton on distances.

    Returns (center, radius, rms of the distance residuals).
    """
    pts = np.asarray(points, dtype=float)
    mid = pts.mean(axis=0)
    rel = pts - mid
    A = np.column_stack([2.0 * rel, np.ones(len(rel))])
    sol = np.linalg.lstsq(A, np.einsum("ij,ij->i", rel, rel), rcond=None)[0]
    c, r = sol[:3], np.sqrt(sol[3] + sol[:3] @ sol[:3])
    for _ in range(newton):
        d = rel - c
        dist = np.linalg.norm(d, axis=1)
        J = np.column_stack([-d / dist[:, None], -np.ones(len(rel))])
        step = np.linalg.lstsq(J, -(dist - r), rcond=None)[0]
        c, r = c + step[:3], r + step[3]
    res = np.linalg.norm(rel - c, axis=1) - r
    return mid + c, float(r), float(np.sqrt(np.mean(res ** 2)))


def plane_fit(points):
    """Unit normal and RMS distance of the best plane through ``points``."""
    rel = np.asarray(points, dtype=float)
    rel = rel - rel.mean(axis=0)
    n = np.linalg.svd(rel, full_matrices=False)[2][-1]
    return n, float(np.sqrt(np.mean((rel @ n) ** 2)))


def mean_edge_length(V, T) -> float:
    e = np.concatenate([T[:, [0, 1]], T[:, [1, 2]], T[:, [2, 0]]])
    e = np.unique(np.sort(e, axis=1), axis=0)
    return float(np.linalg.norm(V[e[:, 0]] - V[e[:, 1]], axis=1).mean())


def enclosed_volume(V, T, walls) -> float:
    """Volume between the surface and the walls, by the divergence theorem.

    ``walls`` is a ``Walls``. For an apex the cone field ``(x - apex) / 3``
    has zero flux through every wall; for a wedge or a cylinder the field
    ``((x - o) . g) g`` along the common wall direction ``g`` has zero flux
    through the walls and vanishes on the base plane ``g . (x - o) = 0``.
    """
    a, b, c = V[T[:, 0]], V[T[:, 1]], V[T[:, 2]]
    if walls.apex is not None:
        o = walls.apex
        return float(np.einsum("ij,ij->", a - o, np.cross(b - o, c - o))) / 6.0
    g, o = walls.direction, walls.origin
    z = ((a + b + c) / 3.0 - o) @ g
    return float(np.sum(z * (np.cross(b - a, c - a) @ g))) / 2.0


@dataclass(frozen=True)
class Walls:
    """Support walls ``n . x = d`` (``n`` into the liquid side) and their lines."""

    normals: np.ndarray            # (k, 3)
    offsets: np.ndarray            # (k,)
    gammas: np.ndarray             # (k,)
    lines: list                    # edge lines (point, unit direction), by tag id
    apex: np.ndarray | None = None
    direction: np.ndarray | None = None   # common direction of all walls
    origin: np.ndarray | None = None      # on every line, or on the base plane

    @classmethod
    def of(cls, config):
        """Walls of a configuration object (the same input the program gets)."""
        normals = np.array([p.normal for p in config.planes])
        offsets = np.array([p.offset for p in config.planes])
        gammas = np.array([p.gamma for p in config.planes])
        if hasattr(config, "edge_dir"):          # wedge
            g = np.asarray(config.edge_dir, float)
            o = np.asarray(config.edge_point, float)
            return cls(normals, offsets, gammas, [(o, g)], direction=g, origin=o)
        lines = []
        for i, j in ((0, 1), (1, 2), (2, 0)):
            d = np.cross(normals[i], normals[j])
            d /= np.linalg.norm(d)
            A = np.array([normals[i], normals[j], d])
            lines.append((np.linalg.solve(A, [offsets[i], offsets[j], 0.0]), d))
        if config.apex is not None:
            return cls(normals, offsets, gammas, lines, apex=np.asarray(config.apex, float))
        g = np.asarray(config.generator, float)
        return cls(normals, offsets, gammas, lines, direction=g, origin=np.zeros(3))

    def dihedral_alpha(self, i, j) -> float:
        """Half-opening of the dihedral between walls i and j."""
        return 0.5 * (np.pi - np.arccos(np.clip(self.normals[i] @ self.normals[j], -1, 1)))


def closed_form_vertex_angle(alpha, g1, g2) -> float:
    """2 beta = arccos((cos g1 cos g2 + cos 2 alpha) / (sin g1 sin g2))."""
    c = (np.cos(g1) * np.cos(g2) + np.cos(2.0 * alpha)) / (np.sin(g1) * np.sin(g2))
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def contact_line_vertex_angles(V, tags, walls):
    """Measured opening at each edge-line vertex from circle fits of the contact lines.

    The contact line on each wall is fitted by one circle through all of its
    vertices; at an edge-line vertex the two circle tangents, each pointing
    along its contact line away from the vertex, give the opening.
    Returns a list of (measured, closed form) pairs.
    """
    k = len(walls.normals)
    on_wall = {j: [i for i, (t, w) in enumerate(tags) if t == "P" and w == j] for j in range(k)}
    circles = {}
    for j in range(k):
        n = walls.normals[j]
        e1 = np.cross(n, [1.0, 0.0, 0.0] if abs(n[0]) < 0.9 else [0.0, 1.0, 0.0])
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(n, e1)
        q = V[on_wall[j]] @ np.column_stack([e1, e2])
        A = np.column_stack([2.0 * q, np.ones(len(q))])
        sol = np.linalg.lstsq(A, np.einsum("ij,ij->i", q, q), rcond=None)[0]
        circles[j] = (sol[0] * e1 + sol[1] * e2, n, V[on_wall[j]].mean(axis=0))
    out = []
    for i, (t, line) in enumerate(tags):
        if t != "E":
            continue
        p = V[i]
        d = walls.lines[line][1]
        pair = [j for j in range(k)
                if abs(walls.normals[j] @ d) < 1e-9 and abs(walls.normals[j] @ p - walls.offsets[j]) < 1e-7]
        tangents = []
        for j in pair:
            centre, n, inner = circles[j]
            centre = centre + (p - centre) @ n * n      # lift into the plane of p
            t = np.cross(n, p - centre)
            t /= np.linalg.norm(t)
            tangents.append(t if t @ (inner - p) > 0 else -t)
        if len(tangents) != 2:
            raise ValueError(f"edge vertex {i} does not join two walls")
        measured = float(np.arccos(np.clip(tangents[0] @ tangents[1], -1.0, 1.0)))
        alpha = walls.dihedral_alpha(*pair)
        out.append((measured, closed_form_vertex_angle(alpha, walls.gammas[pair[0]],
                                                       walls.gammas[pair[1]])))
    return out


# -- checks -----------------------------------------------------------------


def constraint_checks(V, T, tags, walls, radius) -> list:
    """Tagged vertices on their walls and lines; every vertex on the liquid side.

    Tags are enforced exactly by projection, so they are held to 1e-9 R. A
    vertex may sit off the smooth surface by the sagitta of an edge,
    ``l^2 / 8R``, and the smooth surface touches the walls along the contact
    lines, so the liquid side is held to within one sagitta.
    """
    tol = 1e-9 * radius
    sagitta = mean_edge_length(V, T) ** 2 / (8.0 * radius)
    plane_err = line_err = 0.0
    for i, (t, j) in enumerate(tags):
        if t == "P":
            plane_err = max(plane_err, abs(walls.normals[j] @ V[i] - walls.offsets[j]))
        elif t == "E":
            o, d = walls.lines[j]
            r = V[i] - o
            line_err = max(line_err, np.linalg.norm(r - (r @ d) * d))
    side = float((V @ walls.normals.T - walls.offsets).min())
    return [at_most("tagged-on-plane", plane_err, tol),
            at_most("tagged-on-line", line_err, tol),
            at_least("accessible-side", side, -sagitta)]


def sphere_checks(V, T, tags, walls, radius, iteration_factor) -> list:
    """A relaxed drop is the sphere of the expected radius, at the prescribed angles.

    Tolerances scale with ``(l / R)^2``, where ``l`` is the mean edge length:
    the sagitta of an edge is ``l^2 / 8R``, so a discrete constant mean
    curvature surface sits off its sphere by that order, and a fixed
    iteration budget adds a bounded multiple (``iteration_factor``).
    """
    centre, r_fit, rms = sphere_fit(V)
    disc = (mean_edge_length(V, T) / radius) ** 2
    out = [at_most("sphere-relative-rms", rms / r_fit, iteration_factor * disc / 8.0),
           at_most("radius-relative-error", abs(r_fit - radius) / radius,
                   iteration_factor * disc)]
    ca = 0.0
    for n, d, g in zip(walls.normals, walls.offsets, walls.gammas):
        cos_meas = np.clip(-(n @ centre - d) / r_fit, -1.0, 1.0)
        ca = max(ca, abs(np.arccos(cos_meas) - g) * np.sin(g))
    out.append(at_most("contact-angle-error-x-sin", ca, iteration_factor * disc))
    va = max(abs(m - c) for m, c in contact_line_vertex_angles(V, tags, walls))
    out.append(at_most("vertex-angle-error", va, iteration_factor * disc))
    return out


def volume_check(V, T, walls, target) -> Check:
    return at_most("volume-relative-change",
                   abs(enclosed_volume(V, T, walls) - target) / abs(target), 1e-8)


def planar_checks(V, normal, limit) -> list:
    """A flat drop stays on the plane with the given unit normal.

    The flat surface is an exact discrete solution, so what remains off the
    plane is perturbation the evolver has not yet removed; ``limit`` bounds
    it as a share of the diameter.
    """
    n, rms = plane_fit(V)
    diam = float(np.ptp(V, axis=0).max())
    return [at_most("plane-relative-rms", rms / diam, limit),
            at_most("plane-normal-error", 1.0 - abs(n @ normal), 1e-9)]


def graph_checks(x, y, u, a, b, exact_radius=None) -> list:
    """Mirror symmetry, the mean-zero gauge and, for a square, the exact cap.

    The finite-volume scheme is second order, so the cap error, relative to
    the cap radius, is held to the squared cell size.
    """
    scale = float(np.ptp(u))
    out = [at_most("mirror-x", np.abs(u - u[::-1, :]).max() / scale, 1e-8),
           at_most("mirror-y", np.abs(u - u[:, ::-1]).max() / scale, 1e-8),
           at_most("mean-zero", abs(u.mean()), 1e-12),
           at_most("grid-extent", max(abs(x.max() + x.min() - a), abs(y.max() + y.min() - b)),
                   1e-12)]
    if exact_radius is not None:
        cell = a / x.shape[0]
        cap = -np.sqrt(exact_radius ** 2 - (x - a / 2) ** 2 - (y - b / 2) ** 2)
        cap -= cap.mean()
        out.append(at_most("exact-cap-error", np.abs(u - cap).max() / exact_radius,
                           cell ** 2))
    return out

"""Disk-type triangulated drop surfaces with wall and edge constraints.

Vertices carry one of three constraint tags: free, confined to a support
plane, or confined to an intersection line of two support planes. Seeds are
sampled from the support's cap or plane and refined by midpoint subdivision,
all in array operations. One rule places a new vertex. Each round splits
every triangle in four at its edge midpoints. A wall edge is an edge that
occurs once; its wall is the one support plane its two ends share. The
midpoint of a wall edge goes onto that wall's contact circle when the seed
follows a cap, and onto the wall plane otherwise. The midpoint of any other
edge goes onto the cap sphere, or stays where it is. Midpoints are numbered
after the old vertices in the order their edges are first met, triangle by
triangle and edge ab, bc, ca within a triangle. That is the numbering of an
edge-by-edge walk, and the relaxations started from a seed depend on it: a
different numbering changes the order of their sums and so their results.

A ``TriMeshDrop`` keeps its topology apart from its geometry. The geometry is
the ``vertices`` array, which the evolver moves freely. The topology is the
read-only ``triangles``, ``tag_kind`` and ``tag_id`` arrays and all that is
derived from them: the boundary loop, the wall polylines, the one-ring
adjacency, the depth-k neighbourhoods, the (3, T) corner indices, the corner
incidence ``C`` (n x 3T; there is no scatter outside ``C``), the constraint
basis ``R`` (n_dof x 3n, whose rows are the directions a vertex may move in;
it reads the support, which meshes sharing a topology share) with its CSR
transpose, and the evolver's wall layout. Each is built on first use, at
most once per triangulation, and no vertex move reaches it. Assignment to
``triangles`` (the orientation flip of a new seed) starts a fresh,
empty topology; seeding and structured surfaces build new meshes.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .analytic import SphericalCap, _orthonormal_complement, edge_vertices, support_cap
from .errors import DomainError, MeshDegenerationError, NoSolutionError
from .geometry import TrihedralConfig, TrihedralKind, WedgeConfig

__all__ = [
    "FREE", "ON_PLANE", "ON_EDGE",
    "SupportAdapter", "TriMeshDrop",
    "seed_mesh", "seed_planar_trihedral", "perturb",
    "structured_surface", "vertex_normals", "write_obj",
]

FREE, ON_PLANE, ON_EDGE = 0, 1, 2

_MIN_AREA = 1e-14
# the largest distance of a tagged vertex from its plane or line that validate allows
_CONSTRAINT_TOL = 1e-9
# a flat seed's nearest corner lies this far along its edge line
_PLANAR_EXTENT = 1.0
# a plane at this cosine or less to an edge misses it on the liquid side
_EDGE_CROSSING_TOL = 1e-12


class SupportAdapter:
    """Uniform view of a support configuration: its planes and edge lines, stacked.

    Edge k is the line where the planes ``edge_planes[k]`` meet, through
    ``edge_points[k]`` along ``edge_dirs[k]``. The three edges of a trihedral
    angle or cylinder are built in the order (0, 1), (1, 2), (2, 0), so wall
    j runs from edge ``(j - 1) % 3`` to edge ``j``.
    """

    def __init__(self, config):
        self.config = config
        if isinstance(config, WedgeConfig):
            self.kind = "wedge"
            pairs, points, dirs = [(0, 1)], [config.edge_point], [config.edge_dir]
        elif isinstance(config, TrihedralConfig):
            pairs = [(0, 1), (1, 2), (2, 0)]
            normals = [p.normal for p in config.planes]
            if config.kind is TrihedralKind.APEX:
                self.kind = "apex"
                points, dirs = [config.apex] * 3, []
                for i, j in pairs:
                    d = np.cross(normals[i], normals[j])
                    d /= np.linalg.norm(d)
                    if np.dot(d, normals[3 - i - j]) < 0:
                        d = -d
                    dirs.append(d)
            else:
                self.kind = "cylinder"
                g = config.generator
                b1, b2 = _orthonormal_complement(g)
                points, dirs = [], [g] * 3
                for i, j in pairs:
                    A = np.array([[np.dot(normals[i], b1), np.dot(normals[i], b2)],
                                  [np.dot(normals[j], b1), np.dot(normals[j], b2)]])
                    c = np.linalg.solve(A, np.array([config.planes[i].offset,
                                                     config.planes[j].offset]))
                    points.append(c[0] * b1 + c[1] * b2)
        else:
            raise DomainError(f"unsupported configuration type {type(config)!r}")
        self.planes = list(config.planes)
        # the same data stacked, to be indexed by a vertex's tag_id
        self.normals = _frozen([p.normal for p in self.planes], float)
        self.offsets = _frozen([p.offset for p in self.planes], float)
        self.cos_gammas = _frozen([np.cos(p.gamma) for p in self.planes], float)
        self.origins = _frozen(self.offsets[:, None] * self.normals, float)
        self.frames = _frozen([_orthonormal_complement(n) for n in self.normals], float)
        self.edge_points = _frozen(points, float)
        self.edge_dirs = _frozen(dirs, float)
        self.edge_planes = _frozen(pairs, np.int64)

    def wall_coords(self, j, pts):
        """In-plane coordinates of the points ``pts`` (k, 3) of wall j, as one (k, 2) array."""
        rel = pts - self.origins[j]
        out = np.empty((len(rel), 2))
        out[:, 0] = rel @ self.frames[j, 0]
        out[:, 1] = rel @ self.frames[j, 1]
        return out


def _cross(a, b, axis=-1) -> np.ndarray:
    """Cross products of two broadcastable arrays of 3-vectors over their last axis,
    or with ``axis=0`` over their first: component-major arrays, (3, ...),
    whose products run on contiguous rows.

    The products and differences of ``np.cross``, so the results are the same
    to the bit, without its axis handling, which costs more than the
    arithmetic on the few hundred triangles of a drop.
    """
    if axis == 0:
        (a0, a1, a2), (b0, b1, b2) = a, b
    else:
        a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
        b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0), axis=axis)


def _frozen(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


def _frozen_csr(m: sp.csr_matrix) -> sp.csr_matrix:
    for arr in (m.data, m.indices, m.indptr):
        arr.flags.writeable = False
    return m


class _Topology:
    """Triangles and tags of one triangulation, with the items derived from them.

    ``derived`` starts empty and is filled in on first use by the mesh.
    Meshes with equal triangles and tags share one instance.
    """

    def __init__(self, triangles, tag_kind, tag_id):
        self.triangles = _frozen(triangles, np.int64)
        self.tag_kind = _frozen(tag_kind, np.int8)
        self.tag_id = _frozen(tag_id, np.int64)
        self.derived = {}


def _build_boundary_loop(triangles) -> np.ndarray:
    """Vertex indices of the single boundary loop of an oriented disk."""
    t = triangles
    a, b = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]).T
    n = int(t.max(initial=0)) + 1
    outer = ~np.isin(a * n + b, b * n + a)     # directed edges with no twin
    if not outer.any():
        raise DomainError("mesh has no boundary")
    a, b = a[outer], b[outer]
    nxt = np.full(n, -1)
    nxt[a] = b
    nxt = nxt.tolist()
    m = len(np.unique(a))
    loop = [int(a[0])]
    # the walk along the boundary; it also stops at a dead end or after m steps
    while len(loop) <= m and nxt[loop[-1]] not in (-1, loop[0]):
        loop.append(nxt[loop[-1]])
    if len(loop) != m or nxt[loop[-1]] != loop[0]:
        raise DomainError("boundary is not a single loop")
    return _frozen(loop, np.int64)


def _build_wall_polylines(loop, tag_kind, tag_id) -> dict:
    """Split the boundary loop at its edge-line vertices into one polyline per wall."""
    kinds = tag_kind[loop]
    corner_pos = np.nonzero(kinds == ON_EDGE)[0]
    if corner_pos.size == 0:
        raise DomainError("boundary has no edge-line vertices")
    loop = np.roll(loop, -corner_pos[0])
    kinds = tag_kind[loop]
    corner_pos = np.nonzero(kinds == ON_EDGE)[0]
    out = {}
    m = len(loop)
    for a, b in zip(corner_pos, np.append(corner_pos[1:], m)):
        seg = loop[a:b + 1] if b < m else np.append(loop[a:], loop[0])
        interior = seg[1:-1]
        walls = np.unique(tag_id[interior[tag_kind[interior] == ON_PLANE]])
        if len(walls) != 1:
            raise DomainError("open or inconsistent contact polyline")
        seg.flags.writeable = False
        out[walls[0]] = seg
    return out


def _build_corner_incidence(triangles, n_vertices) -> sp.csr_matrix:
    """(n, 3T) 0/1 matrix whose column ``k*T + t`` is corner k of triangle t.

    Each row holds its corners in column order, so a product sums a vertex's
    corners in that order: corner 0 of every triangle first.
    """
    corner = triangles.T.ravel()
    return _frozen_csr(sp.csr_matrix(
        (np.ones(len(corner)), (corner, np.arange(len(corner)))),
        shape=(n_vertices, len(corner))))


def _build_adjacency(triangles, n_vertices) -> sp.csr_matrix:
    """(n, n) 0/1 one-ring adjacency: entry (i, j) is 1 when ij is an edge."""
    i = triangles[:, [0, 0, 1, 1, 2, 2]].ravel()
    j = triangles[:, [1, 2, 0, 2, 0, 1]].ravel()
    a = sp.csr_matrix((np.ones(len(i)), (i, j)), shape=(n_vertices, n_vertices))
    a.data[:] = 1.0                     # an interior edge is listed twice
    return _frozen_csr(a)


def _build_neighbourhood(adjacency, depth):
    """Vertices within ``depth`` edges of each vertex, itself included.

    The sparsity pattern of ``(I + A)^depth``, for ``A`` the one-ring
    adjacency, as CSR arrays ``(indptr, indices)`` with sorted indices.
    """
    out = (adjacency + sp.identity(adjacency.shape[0], format="csr")) ** depth
    out.sort_indices()
    return _frozen(out.indptr, np.int32), _frozen(out.indices, np.int32)


def _build_constraint_basis(tag_kind, tag_id, support) -> sp.csr_matrix:
    """(n_dof, 3n) matrix of the unit directions each vertex may move in.

    Rows are ordered by vertex: three axes for a free vertex, the wall frame
    of a plane vertex, the line direction of an edge vertex. Each row touches
    the three coordinates of its vertex only.
    """
    n = len(tag_kind)
    free, plane, edge = (tag_kind == k for k in (FREE, ON_PLANE, ON_EDGE))
    dirs = np.zeros((n, 3, 3))
    dirs[free] = np.eye(3)
    dirs[plane, :2] = support.frames[tag_id[plane]]
    dirs[edge, 0] = support.edge_dirs[tag_id[edge]]
    count = np.select([free, plane], [3, 2], default=1)
    vertex = np.repeat(np.arange(n), count)
    cols = 3 * vertex[:, None] + np.arange(3)
    return _frozen_csr(sp.csr_matrix(
        (dirs[np.arange(3) < count[:, None]].ravel(), cols.ravel(),
         np.arange(0, cols.size + 1, 3)), shape=(len(vertex), 3 * n)))


def _build_transpose(m: sp.csr_matrix) -> sp.csr_matrix:
    """``m.T`` as a read-only CSR matrix.

    Its products sum each row in column order, the order in which products
    with the CSC matrix ``m.T`` accumulate, so both give the same bits.
    """
    return _frozen_csr(m.T.tocsr())


class TriMeshDrop:
    """Oriented triangulated disk with per-vertex constraint tags."""

    def __init__(self, vertices, triangles, tag_kind, tag_id, support: SupportAdapter,
                 target_volume: float | None = None):
        self.vertices = np.array(vertices, dtype=float)
        self._topology = _Topology(triangles, tag_kind, tag_id)
        self.support = support
        self.target_volume = target_volume

    def copy(self) -> "TriMeshDrop":
        """Independent vertices; the topology is shared, as it cannot change in place."""
        out = TriMeshDrop(self.vertices, self.triangles, self.tag_kind, self.tag_id,
                          self.support, self.target_volume)
        out._topology = self._topology
        return out

    # -- topology ---------------------------------------------------------

    @property
    def triangles(self) -> np.ndarray:
        return self._topology.triangles

    @triangles.setter
    def triangles(self, triangles):
        self._topology = _Topology(triangles, self.tag_kind, self.tag_id)

    @property
    def tag_kind(self) -> np.ndarray:
        return self._topology.tag_kind

    @property
    def tag_id(self) -> np.ndarray:
        return self._topology.tag_id

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def euler_characteristic(self) -> int:
        # the adjacency lists each edge twice, once from either end
        return self.n_vertices - self.adjacency().nnz // 2 + len(self.triangles)

    def _derived(self, key, build):
        """The topology item ``key``: ``build()`` on first use, then kept."""
        items = self._topology.derived
        if key not in items:
            items[key] = build()
        return items[key]

    def boundary_loop(self) -> np.ndarray:
        """Vertex indices of the single boundary loop, in orientation order."""
        return self._derived("loop", lambda: _build_boundary_loop(self.triangles))

    def wall_polylines(self) -> dict[int, np.ndarray]:
        """Ordered boundary vertex indices per wall, endpoints on edge lines."""
        return dict(self._derived("polylines", lambda: _build_wall_polylines(
            self.boundary_loop(), self.tag_kind, self.tag_id)))

    def neighbourhood(self, depth: int) -> tuple[np.ndarray, np.ndarray]:
        """Vertices within ``depth`` edges of each vertex, itself included.

        Read-only CSR arrays ``(indptr, indices)``, each row sorted.
        """
        return self._derived(("neighbourhood", depth),
                             lambda: _build_neighbourhood(self.adjacency(), depth))

    def adjacency(self) -> sp.csr_matrix:
        """The (n, n) 0/1 one-ring adjacency, read-only."""
        return self._derived("adjacency", lambda: _build_adjacency(
            self.triangles, len(self.tag_kind)))

    def corners(self) -> np.ndarray:
        """The (3, T) corner indices, read-only: row k is corner k of every triangle."""
        return self._derived("corner_rows", lambda: _frozen(self.triangles.T.copy(), np.int64))

    def corner_incidence(self) -> sp.csr_matrix:
        """The (n, 3T) corner incidence ``C``, read-only.

        ``C @ x`` sums per-corner rows ``x`` (corner k of triangle t at row
        ``k*T + t``) onto the vertices.
        """
        return self._derived("corners", lambda: _build_corner_incidence(
            self.triangles, len(self.tag_kind)))

    def constraint_basis(self) -> sp.csr_matrix:
        """The (n_dof, 3n) constraint basis ``R``, read-only.

        Its rows are orthonormal per vertex, so ``R @ g.ravel()`` gives the
        reduced coordinates of a vertex field ``g`` and ``R.T @ (R @ g.ravel())``
        its projection onto the directions the constraints allow.
        """
        return self._derived("basis", lambda: _build_constraint_basis(
            self.tag_kind, self.tag_id, self.support))

    def constraint_basis_transpose(self) -> sp.csr_matrix:
        """``R.T`` as a read-only CSR matrix, so that ``R.T`` is not rebuilt per product."""
        return self._derived("basis_t", lambda: _build_transpose(self.constraint_basis()))

    # -- geometry ---------------------------------------------------------

    def triangle_areas(self) -> np.ndarray:
        v = self.vertices
        t = self.triangles
        cross = _cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])
        return 0.5 * np.linalg.norm(cross, axis=1)

    def validate(self):
        """Check disk topology, constraint satisfaction, and element quality."""
        if self.euler_characteristic() != 1:
            raise DomainError("mesh is not a topological disk")
        areas = self.triangle_areas()
        if areas.min() <= _MIN_AREA:
            raise MeshDegenerationError(
                f"degenerate triangle (area {areas.min():.3e})")
        loop = self.boundary_loop()
        if np.any(self.tag_kind[loop] == FREE):
            raise DomainError("boundary vertices must carry a constraint tag")
        sup, v = self.support, self.vertices
        plane = np.flatnonzero(self.tag_kind == ON_PLANE)
        bad = plane[np.abs(_plane_distance(sup, v[plane], self.tag_id[plane])) > _CONSTRAINT_TOL]
        if bad.size:
            raise DomainError(f"vertex {bad[0]} violates its plane constraint")
        edge = np.flatnonzero(self.tag_kind == ON_EDGE)
        d = sup.edge_dirs[self.tag_id[edge]]
        rel = v[edge] - sup.edge_points[self.tag_id[edge]]
        off = rel - np.vecdot(rel, d)[:, None] * d
        bad = edge[np.sqrt(np.vecdot(off, off)) > _CONSTRAINT_TOL]
        if bad.size:
            raise DomainError(f"vertex {bad[0]} violates its line constraint")

    def project_constraints(self):
        """Snap tagged vertices exactly onto their planes / lines."""
        sup, v = self.support, self.vertices
        plane = np.flatnonzero(self.tag_kind == ON_PLANE)
        j = self.tag_id[plane]
        v[plane] -= _plane_distance(sup, v[plane], j)[:, None] * sup.normals[j]
        edge = np.flatnonzero(self.tag_kind == ON_EDGE)
        p, d = sup.edge_points[self.tag_id[edge]], sup.edge_dirs[self.tag_id[edge]]
        v[edge] = p + np.vecdot(v[edge] - p, d)[:, None] * d


def _plane_distance(support, x, j) -> np.ndarray:
    """Signed distances of the points ``x`` from the support planes ``j``.

    ``np.vecdot`` rounds as the scalar ``np.dot`` of ``PlaneSupport.signed_distance``
    does; ``x @ n`` and ``einsum`` may differ from it in the last bit.
    """
    return np.vecdot(x, support.normals[j]) - support.offsets[j]


# -- seeding ---------------------------------------------------------------


def _arc_samples(cap: SphericalCap, support: SupportAdapter, j: int,
                 p0, p1, n_interior: int) -> np.ndarray:
    """Points of the contact-circle arc from p0 to p1 on the accessible side."""
    plane = support.planes[j]
    o, r = cap.contact_circle(plane)
    f1 = (p0 - o) / np.linalg.norm(p0 - o)
    f2 = np.cross(plane.normal, f1)
    t1 = np.arctan2(np.dot(p1 - o, f2), np.dot(p1 - o, f1)) % (2.0 * np.pi)
    others = [p for k, p in enumerate(support.planes) if k != j]

    def accessibility(tmid):
        m = o + r * (np.cos(tmid) * f1 + np.sin(tmid) * f2)
        return min(p.signed_distance(m) for p in others)

    if accessibility(0.5 * t1) >= accessibility(0.5 * (t1 + 2.0 * np.pi)):
        ts = np.linspace(0.0, t1, n_interior + 2)
    else:
        ts = np.linspace(0.0, t1 - 2.0 * np.pi, n_interior + 2)
    return o + r * (np.cos(ts)[:, None] * f1 + np.sin(ts)[:, None] * f2)


def _choose_corner(cap: SphericalCap, support: SupportAdapter, k: int) -> np.ndarray:
    """The sphere/edge-line crossing on the outward side of edge k."""
    point, direction = support.edge_points[k], support.edge_dirs[k]
    pts = edge_vertices(cap, point, direction)
    if not pts:
        raise NoSolutionError("cap sphere does not reach a support edge")
    return max(pts, key=lambda p: np.dot(p - point, direction))


def _edge_walls(tag_kind, tag_id, a, b, support) -> np.ndarray:
    """The one support plane that the two ends of each edge ``a[i] b[i]`` share."""
    member = np.zeros((len(tag_kind), len(support.normals)), dtype=bool)
    plane, edge = np.flatnonzero(tag_kind == ON_PLANE), np.flatnonzero(tag_kind == ON_EDGE)
    member[plane, tag_id[plane]] = True
    member[edge[:, None], support.edge_planes[tag_id[edge]]] = True
    common = member[a] & member[b]
    if np.any(common.sum(axis=1) != 1):
        raise DomainError("cannot determine the wall of a boundary edge")
    return common.argmax(axis=1)


def _subdivide(v, t, tk, ti, support, cap: SphericalCap | None):
    """One 4-to-1 subdivision round; the module docstring states its rules."""
    n = len(v)
    ends = t[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)       # ab, bc, ca of each triangle
    _, first, inverse, count = np.unique(
        ends.min(axis=1) * n + ends.max(axis=1),
        return_index=True, return_inverse=True, return_counts=True)
    order = np.argsort(first)                           # edges in first-meeting order
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    a, b = ends[first[order]].T
    x = 0.5 * (v[a] + v[b])
    wall = count[order] == 1
    j = _edge_walls(tk, ti, a[wall], b[wall], support)
    on_plane = x[wall] - _plane_distance(support, x[wall], j)[:, None] * support.normals[j]
    if cap is None:
        x[wall] = on_plane
    else:
        circles = [cap.contact_circle(p) for p in support.planes]
        o = np.array([c[0] for c in circles])[j]
        r = np.array([c[1] for c in circles])[j]
        rel = on_plane - o
        nr = np.sqrt(np.vecdot(rel, rel))
        if np.any(nr < 1e-14):
            raise MeshDegenerationError("cannot project onto contact circle")
        x[wall] = o + r[:, None] * rel / nr[:, None]
        d = x[~wall] - cap.center
        x[~wall] = cap.center + cap.radius * d / np.sqrt(np.vecdot(d, d))[:, None]
    mid_id = np.full(len(x), -1)
    mid_id[wall] = j
    corners = np.column_stack([t, n + rank[inverse].reshape(-1, 3)])  # a b c ab bc ca
    return (np.concatenate([v, x]),
            corners[:, [0, 3, 5, 3, 1, 4, 5, 4, 2, 3, 4, 5]].reshape(-1, 3),
            np.concatenate([tk, np.where(wall, ON_PLANE, FREE)]),
            np.concatenate([ti, mid_id]))


def _finish_seed(v, t, tk, ti, support, refinement_level, cap, target_volume) -> TriMeshDrop:
    """Refine a coarse seed, orient it outward and give it its target volume."""
    from .evolver import volume  # cycle: evolver needs TriMeshDrop
    for _ in range(refinement_level + 1):
        v, t, tk, ti = _subdivide(v, t, tk, ti, support, cap)
    mesh = TriMeshDrop(v, t, tk, ti, support)
    if volume(mesh) < 0:
        mesh.triangles = mesh.triangles[:, [0, 2, 1]]
    mesh.target_volume = volume(mesh)
    if target_volume is not None:
        if support.kind != "cylinder":
            # about the wedge's edge point or the apex, which the scaling fixes
            lam = (target_volume / mesh.target_volume) ** (1.0 / 3.0)
            origin = support.edge_points[0]
            mesh.vertices = origin + lam * (mesh.vertices - origin)
        mesh.target_volume = target_volume
    mesh.validate()
    return mesh


def seed_mesh(config, h: float | None = None, target_volume: float | None = None,
              refinement_level: int = 2) -> TriMeshDrop:
    """Seed a drop mesh from the support's cap or plane, ``support_cap(config, h)``.

    A plane gives the triangle of its crossings with the edge lines, moved
    parallel until the nearest lies ``_PLANAR_EXTENT`` along its edge.
    Refinement level ``r`` yields ``32 * 4**r`` triangles in a wedge,
    ``36 * 4**r`` from a cap in a trihedral angle or cylinder and
    ``12 * 4**r`` from a plane. A target volume rescales a seed in a wedge or
    trihedral angle about the edge point or the apex to enclose it exactly.
    """
    if target_volume is not None and not target_volume > 0.0:
        raise DomainError(f"target volume must be positive, got {target_volume}")
    support = SupportAdapter(config)
    surface = support_cap(config, h)
    cap = surface if isinstance(surface, SphericalCap) else None
    if cap is None:
        s = support.edge_dirs @ surface.normal
        if np.any(s <= _EDGE_CROSSING_TOL):
            raise NoSolutionError(f"the plane misses edge {int(np.argmin(s))} on the liquid side")
        offsets = support.edge_points @ surface.normal
        t = ((_PLANAR_EXTENT * s + offsets).max() - offsets) / s
        boundary = support.edge_points + t[:, None] * support.edge_dirs
        centre, kinds, ids = boundary.mean(axis=0), [ON_EDGE] * 3, [0, 1, 2]
    else:
        per_arc = 3 if support.kind == "wedge" else 2
        if support.kind == "wedge":
            # two arcs between the two edge crossings
            pts = edge_vertices(cap, support.edge_points[0], support.edge_dirs[0])
            if len(pts) < 2:
                raise NoSolutionError("cap sphere does not cross the wedge edge twice")
            arcs = [(0, pts[-1], pts[0]), (1, pts[0], pts[-1])]
            corner_ids = [0, 0]
        else:
            # wall j runs from edge (j - 1) % 3, which it shares with wall j - 1,
            # to edge j, which it shares with wall j + 1
            corners = [_choose_corner(cap, support, k) for k in range(3)]
            corner_ids = [2, 0, 1]
            arcs = [(j, corners[k], corners[j]) for j, k in enumerate(corner_ids)]
        # the boundary: each arc's start corner, then its interior samples
        boundary = np.concatenate([_arc_samples(cap, support, j, p0, p1, per_arc)[:-1]
                                   for j, p0, p1 in arcs])
        centre = cap.surface_point(boundary.mean(axis=0) - cap.center)
        kinds = np.tile([ON_EDGE] + [ON_PLANE] * per_arc, len(arcs))
        walls = [j for j, _, _ in arcs]
        ids = np.repeat(np.column_stack([corner_ids, walls]), [1, per_arc], axis=1)
    # a fan from the centre over the boundary loop
    m = len(boundary)
    i = np.arange(m)
    return _finish_seed(
        np.vstack([centre, boundary]),
        np.column_stack([np.zeros(m, dtype=np.int64), 1 + i, 1 + (i + 1) % m]),
        np.append(FREE, kinds), np.append(-1, ids), support, refinement_level, cap, target_volume)


def seed_planar_trihedral(config: TrihedralConfig, refinement_level: int = 2) -> TriMeshDrop:
    """The flat seed, ``seed_mesh(config, h=0.0)``; the benchmark still imports this name."""
    return seed_mesh(config, h=0.0, refinement_level=refinement_level)


def perturb(mesh: TriMeshDrop, amplitude: float, seed: int = 0) -> TriMeshDrop:
    """Constraint-respecting random perturbation, relative to the mesh diameter.

    Free vertices move along their normals; plane vertices within the plane,
    in a direction drawn per vertex; edge vertices along their lines.
    """
    if not np.isfinite(amplitude):
        raise DomainError(f"perturbation amplitude must be finite, got {amplitude}")
    rng = np.random.default_rng(seed)
    out = mesh.copy()
    v, sup = out.vertices, mesh.support
    free, plane, edge = (np.flatnonzero(mesh.tag_kind == k) for k in (FREE, ON_PLANE, ON_EDGE))
    diam = float(np.ptp(mesh.vertices, axis=0).max())
    step = amplitude * diam * rng.standard_normal(mesh.n_vertices)
    v[free] += step[free, None] * vertex_normals(mesh)[free]
    n = sup.normals[mesh.tag_id[plane]]
    d = rng.standard_normal((len(plane), 3))
    d -= np.vecdot(d, n)[:, None] * n
    d /= np.maximum(np.sqrt(np.vecdot(d, d)), 1e-30)[:, None]
    v[plane] += step[plane, None] * d
    v[edge] += step[edge, None] * sup.edge_dirs[mesh.tag_id[edge]]
    out.project_constraints()
    return out


def vertex_normals(mesh: TriMeshDrop) -> np.ndarray:
    """Area-weighted outward vertex normals."""
    v, t = mesh.vertices, mesh.triangles
    fn = _cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])
    out = mesh.corner_incidence() @ np.tile(fn, (3, 1))
    norms = np.linalg.norm(out, axis=1)
    norms[norms < 1e-30] = 1.0
    return out / norms[:, None]


def structured_surface(points: np.ndarray) -> TriMeshDrop:
    """Triangulate an (nx, ny, 3) grid of surface points.

    The result has no support configuration; boundary vertices are tagged so
    that curvature diagnostics skip them. Intended for graph solutions.
    """
    pts = np.asarray(points, dtype=float)
    nx, ny, _ = pts.shape
    idx = np.arange(nx * ny).reshape(nx, ny)
    # cell (i, j) has corners a = (i, j), b = (i+1, j), c = (i+1, j+1),
    # d = (i, j+1) and gives triangles abc, acd, cells in row-major order
    a, b = idx[:-1, :-1].ravel(), idx[1:, :-1].ravel()
    c, d = idx[1:, 1:].ravel(), idx[:-1, 1:].ravel()
    tris = np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)
    tag_kind = np.zeros(nx * ny, dtype=np.int8)
    boundary = np.zeros((nx, ny), dtype=bool)
    boundary[0, :] = boundary[-1, :] = boundary[:, 0] = boundary[:, -1] = True
    tag_kind[boundary.ravel()] = ON_PLANE
    return TriMeshDrop(pts.reshape(-1, 3), tris, tag_kind,
                       np.zeros(nx * ny, dtype=np.int64), support=None)


# -- OBJ output ------------------------------------------------------------


def _tag_token(kind: int, tid: int) -> str:
    if kind == ON_PLANE:
        return f"P{tid}"
    if kind == ON_EDGE:
        return f"E{tid}"
    return "Free"


def write_obj(mesh: TriMeshDrop, path):
    """Wavefront OBJ with constraint tags carried in comment records."""
    vertices = mesh.vertices.ravel().tolist()
    faces = (mesh.triangles + 1).ravel().tolist()
    tags = enumerate(zip(mesh.tag_kind.tolist(), mesh.tag_id.tolist()), 1)
    with open(path, "w") as f:
        f.write("# capvertex drop mesh\n")
        f.write(("v %.17g %.17g %.17g\n" * mesh.n_vertices) % tuple(vertices))
        f.write("".join(f"# tag {i} {_tag_token(k, t)}\n" for i, (k, t) in tags))
        f.write(("f %d %d %d\n" * len(mesh.triangles)) % tuple(faces))

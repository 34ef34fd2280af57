import numpy as np
import pytest

from capvertex import meshes
from capvertex.analytic import PlanarSolution, cylinder_cap, support_cap
from capvertex.diagnostics import measure_contact_angles
from capvertex.errors import DomainError, NoSolutionError
from capvertex.evolver import energy, energy_gradient, evolve, volume, volume_gradient
from capvertex.geometry import TrihedralConfig, WedgeConfig
from capvertex.meshes import (
    FREE,
    ON_EDGE,
    ON_PLANE,
    SupportAdapter,
    TriMeshDrop,
    perturb,
    read_obj,
    refine,
    seed_mesh,
    structured_surface,
    vertex_normals,
    write_obj,
)


@pytest.fixture(scope="module")
def wedge_mesh():
    cfg = WedgeConfig.canonical(np.pi / 4, 2 * np.pi / 3, 2 * np.pi / 3)
    return seed_mesh(cfg, h=1.0, refinement_level=2)


@pytest.fixture(scope="module")
def octant_mesh():
    return seed_mesh(TrihedralConfig.orthant((np.pi / 2,) * 3), h=1.0,
                     refinement_level=2)


def test_seed_is_a_disk(wedge_mesh, octant_mesh):
    assert wedge_mesh.euler_characteristic() == 1
    assert octant_mesh.euler_characteristic() == 1


def test_seed_vertices_on_sphere(wedge_mesh):
    cap_center = np.zeros(3)
    # all sampled points must lie on the generating sphere
    from capvertex.analytic import wedge_cap
    cfg = wedge_mesh.support.config
    cap = wedge_cap(cfg, 1.0)
    r = np.linalg.norm(wedge_mesh.vertices - np.asarray(cap.center), axis=1)
    assert np.abs(r - cap.radius).max() < 1e-9


def test_seed_tags_and_constraints(wedge_mesh):
    wedge_mesh.validate()
    kinds = wedge_mesh.tag_kind
    assert np.count_nonzero(kinds == ON_EDGE) == 2     # two edge crossings
    assert np.count_nonzero(kinds == ON_PLANE) > 0
    loop = wedge_mesh.boundary_loop()
    assert np.all(kinds[loop] != FREE)


def test_octant_has_three_corner_vertices(octant_mesh):
    assert np.count_nonzero(octant_mesh.tag_kind == ON_EDGE) == 3
    polylines = octant_mesh.wall_polylines()
    assert sorted(polylines) == [0, 1, 2]
    for seg in polylines.values():
        assert octant_mesh.tag_kind[seg[0]] == ON_EDGE
        assert octant_mesh.tag_kind[seg[-1]] == ON_EDGE


def test_refinement_quadruples_triangles(wedge_mesh):
    fine = refine(wedge_mesh)
    assert len(fine.triangles) == 4 * len(wedge_mesh.triangles)
    fine.validate()


def test_triangle_count_scale():
    cfg = WedgeConfig.canonical(np.pi / 4, 2 * np.pi / 3, 2 * np.pi / 3)
    m = seed_mesh(cfg, h=1.0, refinement_level=3)
    assert len(m.triangles) == pytest.approx(4 ** 3 * 32, rel=0.5)


def test_target_volume_rescaling():
    cfg = TrihedralConfig.orthant((np.pi / 2,) * 3)
    from capvertex.evolver import volume
    m = seed_mesh(cfg, h=1.0, refinement_level=2, target_volume=0.3)
    assert volume(m) == pytest.approx(0.3, abs=1e-12)
    m.validate()


def test_planar_trihedral_seed():
    g = float(np.arccos(np.sqrt(3.0) / 3.0))
    m = seed_mesh(TrihedralConfig.orthant((g,) * 3), h=0.0, refinement_level=2)
    m.validate()
    assert m.euler_characteristic() == 1
    # all vertices in the plane x + y + z = const
    n = np.ones(3) / np.sqrt(3.0)
    d = m.vertices @ n
    assert np.ptp(d) < 1e-12


def test_perturb_respects_constraints(octant_mesh):
    p = perturb(octant_mesh, 0.01, seed=3)
    p.validate()
    assert not np.allclose(p.vertices, octant_mesh.vertices)
    q = perturb(octant_mesh, 0.01, seed=3)
    assert np.array_equal(p.vertices, q.vertices)   # deterministic in the seed


def test_obj_round_trip(tmp_path, octant_mesh):
    path = tmp_path / "drop.obj"
    write_obj(octant_mesh, path)
    back = read_obj(path, octant_mesh.support, octant_mesh.target_volume)
    assert np.allclose(back.vertices, octant_mesh.vertices)
    assert np.array_equal(back.triangles, octant_mesh.triangles)
    assert np.array_equal(back.tag_kind, octant_mesh.tag_kind)
    assert np.array_equal(back.tag_id, octant_mesh.tag_id)
    back.validate()


def test_structured_surface_topology():
    xs = np.linspace(0, 1, 9)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([X, Y, X * Y], axis=-1)
    m = structured_surface(pts)
    assert m.euler_characteristic() == 1
    assert np.count_nonzero(m.tag_kind == FREE) == 49


def test_structured_surface_triangles_in_cell_order():
    nx, ny = 4, 6
    pts = np.random.default_rng(2).random((nx, ny, 3))
    idx = np.arange(nx * ny).reshape(nx, ny)
    expected = []
    for i in range(nx - 1):
        for j in range(ny - 1):
            a, b, c, d = idx[i, j], idx[i + 1, j], idx[i + 1, j + 1], idx[i, j + 1]
            expected += [[a, b, c], [a, c, d]]
    m = structured_surface(pts)
    assert np.array_equal(m.triangles, np.array(expected))
    assert m.triangles.dtype == np.int64


def test_support_adapter_edges():
    cyl = SupportAdapter(TrihedralConfig.regular_cylinder(1.0, (1.9,) * 3))
    assert cyl.kind == "cylinder"
    assert len(cyl.edge_points) == 3
    for point, direction, pair in zip(cyl.edge_points, cyl.edge_dirs, cyl.edge_planes):
        # edge lines run along the generator and lie in both planes
        assert np.allclose(direction, cyl.config.generator)
        for j in pair:
            assert abs(cyl.planes[j].signed_distance(point)) < 1e-12


def test_validate_rejects_constraint_violation(octant_mesh):
    bad = octant_mesh.copy()
    i = int(np.nonzero(bad.tag_kind == ON_PLANE)[0][0])
    bad.vertices[i] += 1e-3 * bad.support.planes[bad.tag_id[i]].normal
    with pytest.raises(DomainError, match=f"vertex {i} violates its plane"):
        bad.validate()
    # an edge vertex moved off its line, within one of its two planes
    bad = octant_mesh.copy()
    i = int(np.nonzero(bad.tag_kind == ON_EDGE)[0][0])
    k = bad.tag_id[i]
    bad.vertices[i] += 1e-3 * np.cross(bad.support.planes[bad.support.edge_planes[k, 0]].normal,
                                       bad.support.edge_dirs[k])
    with pytest.raises(DomainError, match=f"vertex {i} violates its line"):
        bad.validate()


def _fresh(mesh):
    return TriMeshDrop(mesh.vertices, mesh.triangles, mesh.tag_kind, mesh.tag_id,
                       mesh.support, mesh.target_volume)


@pytest.mark.parametrize("name", ["wedge_mesh", "octant_mesh"])
def test_vertex_moves_keep_functionals_bit_identical(name, request):
    moved = request.getfixturevalue(name).copy()
    rng = np.random.default_rng(11)
    for _ in range(3):
        energy(moved)                     # builds and then reuses the topology
        moved.vertices += 1e-3 * rng.standard_normal(moved.vertices.shape)
        moved.vertices[rng.integers(moved.n_vertices)] *= 1.01
        fresh = _fresh(moved)
        assert energy(moved) == energy(fresh)
        assert volume(moved) == volume(fresh)
        assert np.array_equal(energy_gradient(moved), energy_gradient(fresh))
        assert np.array_equal(volume_gradient(moved), volume_gradient(fresh))


def test_flipped_triangles_reverse_the_boundary(octant_mesh):
    flipped = octant_mesh.copy()
    loop = octant_mesh.boundary_loop()
    polylines = octant_mesh.wall_polylines()
    flipped.triangles = flipped.triangles[:, [0, 2, 1]]
    back = flipped.boundary_loop()
    k = int(np.flatnonzero(back == loop[0])[0])
    assert np.array_equal(np.roll(back, -k), np.append(loop[0], loop[:0:-1]))
    for j, seg in flipped.wall_polylines().items():
        assert np.array_equal(seg, polylines[j][::-1])
    # the flip made a new topology; the original keeps its own
    assert np.array_equal(octant_mesh.boundary_loop(), loop)


def test_copy_shares_topology_not_vertices(octant_mesh):
    before = octant_mesh.vertices.copy()
    dup = octant_mesh.copy()
    assert dup._topology is octant_mesh._topology
    dup.vertices += 0.5
    assert np.array_equal(octant_mesh.vertices, before)
    assert np.array_equal(dup.wall_polylines()[0], octant_mesh.wall_polylines()[0])
    # topology arrays cannot change in place, so sharing them is safe
    for arr in (dup.triangles, dup.tag_kind, dup.boundary_loop(), dup.wall_polylines()[0]):
        with pytest.raises(ValueError):
            arr[0] = arr[1]


def test_evolve_builds_the_boundary_loop_once(monkeypatch, wedge_mesh):
    calls = []
    build = meshes._build_boundary_loop

    def counting(triangles):
        calls.append(1)
        return build(triangles)

    mesh = _fresh(perturb(wedge_mesh, 0.01, seed=4))
    monkeypatch.setattr(meshes, "_build_boundary_loop", counting)
    _, rep = evolve(mesh, max_iters=60)
    assert rep.iterations > 0
    assert len(calls) == 1


# -- array construction against per-edge and per-vertex references ----------


def _subdivide_reference(v, t, tk, ti, support, cap=None):
    """``meshes._subdivide`` one edge at a time, with dicts of edges and midpoints."""
    v, tk, ti = list(v), list(tk), list(ti)
    directed = {(a, b) for a, b in t[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2).tolist()}
    midpoint = {}

    def planes_of(i):
        if tk[i] == ON_PLANE:
            return {ti[i]}
        return set(support.edge_planes[ti[i]].tolist()) if tk[i] == ON_EDGE else set()

    def get_mid(a, b):
        if (min(a, b), max(a, b)) not in midpoint:
            x = 0.5 * (v[a] + v[b])
            if (b, a) in directed:
                tk.append(FREE)
                ti.append(-1)
                if cap is not None:
                    x = cap.surface_point(x - cap.center)
            else:
                common = planes_of(a) & planes_of(b)
                if len(common) != 1:
                    raise DomainError("cannot determine the wall of a boundary edge")
                j = common.pop()
                p = support.planes[j]
                x = x - p.signed_distance(x) * p.normal
                if cap is not None:
                    o, r = cap.contact_circle(p)
                    x = o + r * (x - o) / np.linalg.norm(x - o)
                tk.append(ON_PLANE)
                ti.append(j)
            midpoint[min(a, b), max(a, b)] = len(v)
            v.append(x)
        return midpoint[min(a, b), max(a, b)]

    tris = []
    for a, b, c in t.tolist():
        ab, bc, ca = get_mid(a, b), get_mid(b, c), get_mid(c, a)
        tris += [[a, ab, ca], [ab, b, bc], [ca, bc, c], [ab, bc, ca]]
    return np.array(v), np.array(tris), np.array(tk, dtype=np.int8), np.array(ti)


def _boundary_loop_reference(triangles):
    directed = triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2).tolist()
    seen = set(map(tuple, directed))
    nxt = {a: b for a, b in directed if (b, a) not in seen}
    loop = [next(iter(nxt))]
    while nxt[loop[-1]] != loop[0]:
        loop.append(nxt[loop[-1]])
    return np.array(loop)


def _project_reference(mesh):
    for i in np.nonzero(mesh.tag_kind == ON_PLANE)[0]:
        p = mesh.support.planes[mesh.tag_id[i]]
        mesh.vertices[i] -= p.signed_distance(mesh.vertices[i]) * p.normal
    for i in np.nonzero(mesh.tag_kind == ON_EDGE)[0]:
        point, direction = (mesh.support.edge_points[mesh.tag_id[i]],
                            mesh.support.edge_dirs[mesh.tag_id[i]])
        rel = mesh.vertices[i] - point
        mesh.vertices[i] = point + np.dot(rel, direction) * direction


def _perturb_reference(mesh, amplitude, seed):
    rng = np.random.default_rng(seed)
    out = mesh.copy()
    scale = amplitude * float(np.ptp(mesh.vertices, axis=0).max())
    normals = vertex_normals(mesh)
    noise = rng.standard_normal(mesh.n_vertices)
    for i in range(mesh.n_vertices):
        if mesh.tag_kind[i] == FREE:
            out.vertices[i] += scale * noise[i] * normals[i]
        elif mesh.tag_kind[i] == ON_PLANE:
            n = mesh.support.planes[mesh.tag_id[i]].normal
            d = rng.standard_normal(3)
            d -= np.dot(d, n) * n
            d /= max(np.linalg.norm(d), 1e-30)
            out.vertices[i] += scale * noise[i] * d
        else:
            out.vertices[i] += scale * noise[i] * mesh.support.edge_dirs[mesh.tag_id[i]]
    _project_reference(out)
    return out


def _assert_same_mesh(got, want):
    for name in ("vertices", "triangles", "tag_kind", "tag_id"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert got.target_volume == want.target_volume
    assert np.array_equal(got.boundary_loop(), want.boundary_loop())


_WEDGE = WedgeConfig.canonical(np.pi / 4, 2 * np.pi / 3, 2 * np.pi / 3)
_ORTHANT = TrihedralConfig.orthant((np.pi / 2,) * 3)
_CYLINDER = TrihedralConfig.regular_cylinder(1.0, (1.9,) * 3)
_FLAT = TrihedralConfig.orthant((float(np.arccos(np.sqrt(3.0) / 3.0)),) * 3)
_SEEDS = {
    "wedge": lambda r: seed_mesh(_WEDGE, h=1.0, refinement_level=r),
    "orthant": lambda r: seed_mesh(_ORTHANT, h=1.0, refinement_level=r, target_volume=0.3),
    "cylinder": lambda r: seed_mesh(_CYLINDER, h=None, refinement_level=r),
    "planar": lambda r: seed_mesh(_FLAT, h=0.0, refinement_level=r),
}


@pytest.mark.parametrize("name, base", [("wedge", 32), ("orthant", 36), ("cylinder", 36),
                                        ("planar", 12)])
def test_a_seed_of_refinement_r_has_base_times_4_to_the_r_triangles(name, base):
    for r in range(3):
        assert len(_SEEDS[name](r).triangles) == base * 4 ** r


def test_a_cylinder_seed_without_h_follows_the_walls_cap():
    mesh = seed_mesh(_CYLINDER, refinement_level=1)
    cap = cylinder_cap(_CYLINDER)
    r = np.linalg.norm(mesh.vertices - cap.center, axis=1)
    assert np.abs(r - cap.radius).max() <= 1e-12 * cap.radius
    assert np.array_equal(mesh.vertices, seed_mesh(_CYLINDER, h=None, refinement_level=1).vertices)


def _flat_seed_reference(config, level):
    """The flat seed built directly: the triangle whose corners lie
    ``_PLANAR_EXTENT`` along each edge line, the plane's own at the flat angle."""
    support = SupportAdapter(config)
    corners = support.edge_points + meshes._PLANAR_EXTENT * support.edge_dirs
    return meshes._finish_seed(np.vstack([corners.mean(axis=0), corners]),
                               np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1]]),
                               np.array([FREE, ON_EDGE, ON_EDGE, ON_EDGE]),
                               np.array([-1, 0, 1, 2]), support, level)


@pytest.mark.parametrize("level", range(4))
def test_the_flat_seed_at_the_flat_angle_is_the_edge_triangle_bit_for_bit(level):
    _assert_same_mesh(seed_mesh(_FLAT, h=0.0, refinement_level=level),
                      _flat_seed_reference(_FLAT, level))


def test_a_flat_seed_lies_in_the_datas_plane_and_meets_the_walls_at_their_angles():
    gammas = tuple(np.arccos([0.48, 0.6, 0.64]))
    config = TrihedralConfig.orthant(gammas)
    plane = support_cap(config, 0.0)
    mesh = seed_mesh(config, h=0.0, refinement_level=2)
    # every outward vertex normal is the plane's; the (1, 1, 1) plane's is up to 0.097 off
    assert np.abs(vertex_normals(mesh) - plane.normal).max() <= 1e-12
    for j, angles in measure_contact_angles(mesh).items():
        assert np.abs(angles - gammas[j]).max() <= 1e-9
    # so the seed is the equilibrium, and the evolver takes no step
    assert evolve(mesh)[1].iterations == 0


def test_a_plane_that_misses_an_edge_on_the_liquid_side_has_no_seed():
    cos = np.array([-0.9, 0.3, 0.3]) / np.sqrt(0.99)
    config = TrihedralConfig.orthant(tuple(np.arccos(cos)))
    assert isinstance(support_cap(config, 0.0), PlanarSolution)
    with pytest.raises(NoSolutionError, match="misses edge"):
        seed_mesh(config, h=0.0, refinement_level=0)


def test_an_all_orthogonal_cylinder_seeds_a_flat_prism():
    config = TrihedralConfig.regular_cylinder(1.0, (np.pi / 2,) * 3)
    mesh = seed_mesh(config, refinement_level=1)
    # the equilateral cross-section of inradius 1 has area 3 sqrt(3)
    assert volume(mesh) == pytest.approx(3.0 * np.sqrt(3.0) * meshes._PLANAR_EXTENT, rel=1e-12)
    for angles in measure_contact_angles(mesh).values():
        assert np.abs(angles - np.pi / 2).max() <= 1e-9
    _assert_same_mesh(seed_mesh(config, h=0.0, refinement_level=1), mesh)


@pytest.mark.parametrize("level", range(4))
@pytest.mark.parametrize("name", sorted(_SEEDS))
def test_array_construction_matches_references(name, level, monkeypatch):
    got = _SEEDS[name](level)
    assert np.array_equal(got.boundary_loop(), _boundary_loop_reference(got.triangles))
    fine = refine(got)
    noisy = perturb(got, 0.01, seed=level)
    _assert_same_mesh(noisy, _perturb_reference(got, 0.01, level))

    monkeypatch.setattr(meshes, "_subdivide", _subdivide_reference)
    _assert_same_mesh(got, _SEEDS[name](level))
    _assert_same_mesh(fine, refine(got))


def test_project_constraints_matches_reference(octant_mesh):
    moved = octant_mesh.copy()
    moved.vertices += 1e-3 * np.random.default_rng(7).standard_normal(moved.vertices.shape)
    want = moved.copy()
    _project_reference(want)
    moved.project_constraints()
    assert np.array_equal(moved.vertices, want.vertices)
    moved.validate()


def test_subdivision_rejects_a_wall_edge_without_a_common_wall():
    m = seed_mesh(_ORTHANT, h=1.0, refinement_level=0)
    loop = m.boundary_loop()
    k = next(k for k in range(len(loop)) if m.tag_kind[loop[k]] == ON_PLANE
             and m.tag_kind[loop[k - 1]] == ON_PLANE)
    tag_id = m.tag_id.copy()
    tag_id[loop[k]] = (tag_id[loop[k]] + 1) % 3      # ends now on two different walls
    bad = TriMeshDrop(m.vertices, m.triangles, m.tag_kind, tag_id, m.support)
    with pytest.raises(DomainError, match="cannot determine the wall of a boundary edge"):
        refine(bad)


@pytest.mark.parametrize("triangles", [
    [[0, 1, 2], [3, 4, 5]],                          # two boundary loops
    [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]],    # closed: no boundary
])
def test_boundary_loop_rejects_other_than_one_loop(triangles):
    with pytest.raises(DomainError):
        meshes._build_boundary_loop(np.array(triangles))

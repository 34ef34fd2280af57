import numpy as np
import pytest

from capvertex import meshes
from capvertex.errors import DomainError
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
    seed_planar_trihedral,
    structured_surface,
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
    m = seed_planar_trihedral(TrihedralConfig.orthant((g,) * 3),
                              refinement_level=2)
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
    assert len(cyl.edges) == 3
    for e in cyl.edges:
        # edge lines run along the generator and lie in both planes
        assert np.allclose(e.direction, cyl.config.generator)
        for j in e.plane_ids:
            assert abs(cyl.planes[j].signed_distance(e.point)) < 1e-12


def test_validate_rejects_constraint_violation(octant_mesh):
    bad = octant_mesh.copy()
    i = int(np.nonzero(bad.tag_kind == ON_PLANE)[0][0])
    bad.vertices[i] += 1e-3 * bad.support.planes[bad.tag_id[i]].normal
    with pytest.raises(DomainError):
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

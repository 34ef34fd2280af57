"""Each output check rejects a wrong answer and accepts the exact one.

    python3 bench/test_checks.py        (or: python3 -m pytest bench/test_checks.py)
"""

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks as C  # noqa: E402
import workloads  # noqa: E402
from capvertex.geometry import WedgeConfig  # noqa: E402
from capvertex.meshes import seed_mesh  # noqa: E402


def _failed(checks):
    return {c.name for c in checks if not c.ok}


def test_exact_wedge_seed_passes():
    config = WedgeConfig.canonical(np.pi / 3, 1.2, 2.0)
    mesh = seed_mesh(config, h=1.0, refinement_level=2)
    walls = C.Walls.of(config)
    V, T, tags = mesh.vertices, mesh.triangles, C.tags_of(mesh)
    checks = (C.constraint_checks(V, T, tags, walls, 1.0)
              + C.sphere_checks(V, T, tags, walls, 1.0, 1.0))
    assert not _failed(checks), [str(c) for c in checks]


def test_exterior_piece_wedge_seed_is_rejected():
    # this seed's fan centre lands on the sphere piece outside the wedge
    config = WedgeConfig.canonical(np.pi / 4, 2 * np.pi / 3, 2 * np.pi / 3)
    mesh = seed_mesh(config, h=1.0, refinement_level=2)
    checks = C.constraint_checks(mesh.vertices, mesh.triangles, C.tags_of(mesh),
                                  C.Walls.of(config), 1.0)
    assert _failed(checks) == {"accessible-side"}


def test_sphere_of_wrong_radius_is_rejected():
    config = WedgeConfig.canonical(np.pi / 3, 1.2, 2.0)
    mesh = seed_mesh(config, h=1.0, refinement_level=3)
    walls = C.Walls.of(config)
    # scaling about the edge keeps every tag on its wall and line
    V = 1.2 * mesh.vertices
    checks = (C.constraint_checks(V, mesh.triangles, C.tags_of(mesh), walls, 1.0)
              + C.sphere_checks(V, mesh.triangles, C.tags_of(mesh), walls, 1.0,
                                workloads.ITERATION_FACTOR))
    assert _failed(checks) == {"radius-relative-error"}


def _square_cap(n=32, gamma=np.pi / 3):
    radius = 1.0 / (2.0 * np.cos(gamma))
    c = (np.arange(n) + 0.5) / n
    x, y = np.meshgrid(c, c, indexing="ij")
    u = -np.sqrt(radius ** 2 - (x - 0.5) ** 2 - (y - 0.5) ** 2)
    return x, y, u - u.mean(), radius


def test_exact_square_cap_passes():
    x, y, u, radius = _square_cap()
    assert not _failed(C.graph_checks(x, y, u, 1.0, 1.0, radius))


def test_graph_field_with_broken_symmetry_is_rejected():
    x, y, u, radius = _square_cap()
    tilted = u + 1e-6 * (x - 0.5)       # still mean-zero, no longer mirror-symmetric in x
    assert _failed(C.graph_checks(x, y, tilted, 1.0, 1.0, None)) == {"mirror-x"}


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")

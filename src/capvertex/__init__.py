"""Capillary drops on intersecting support planes.

Desk-scale toolkit: contact-angle admissibility classification, closed-form
spherical-cap and half-cylinder solutions, a finite-volume solver for the
nonparametric constant-mean-curvature equation, a constrained mesh evolver,
and measurement diagnostics.
"""

__version__ = "0.1.0"

from .errors import (
    ConsistencyError,
    DomainError,
    MeshDegenerationError,
    NoSolutionError,
    NonConvergenceError,
)
from .geometry import (
    AdmissibilityClass,
    PlaneSupport,
    QTag,
    TrihedralConfig,
    TrihedralKind,
    VertexAngleResult,
    WedgeConfig,
    classify_data,
    classify_grid,
    vertex_angle,
    vertex_angle_grid,
)
from .analytic import (
    HalfCylinderSolution,
    PlanarSolution,
    SphericalCap,
    SphericalGraphField,
    cylinder_cap,
    spherical_cmc_residual,
    support_cap,
    trihedral_cap,
    wedge_cap,
    wente_halfcylinder,
)
from .graphpde import GraphField, RectangleProblem, compatibility_h, solve_rectangle
from .meshes import TriMeshDrop, perturb, seed_mesh, seed_planar_trihedral
from .evolver import ConvergenceReport, energy, evolve, volume
from .diagnostics import (
    DiagnosticsReport,
    diagnostics_report,
    fit_plane,
    fit_sphere,
    measure_contact_angles,
    measure_vertex_angles,
    umbilicity_rms,
)

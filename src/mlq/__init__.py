"""Minimal Lagrangian surfaces in the complex quadric Q2 = S2 x S2.

Builds surfaces from holomorphic loop-algebra potentials: integrate a
holomorphic frame, split it with a loop-group Iwasawa factorization,
evaluate the unitary factor at a pair of spectral points, and read the
surface off the resulting quaternion pair.  Verification routines check
every geometric property (conformality, Lagrangian condition, minimality,
the sinh-Gordon equation, closing conditions) numerically.
"""

from __future__ import annotations

from .potentials import (
    PotentialSpec,
    custom_spec,
    equivariant_spec,
    make_potential,
    radial_spec,
    spec_from_dict,
    spec_to_dict,
    sphere_spec,
    torus_spec,
    trinoid_spec,
    xi_sampler,
)
from .holonomy import (
    DomainPath,
    OdeOptions,
    circle_path,
    monodromy,
    transport,
    unitarizing_gauge,
)
from .iwasawa import IwasawaResult, iwasawa, spectral_factor_plus
from .frames import (
    FramePointPair,
    GridSpec,
    SurfaceMap,
    SurfaceSample,
    build_surface,
    normalize_q2,
    projective_distance,
    psi_so4,
    q2_point,
    sphere_pair,
    xy_matrices,
)
from .closedform import (
    AdmissibilityReport,
    ClosingReport,
    cylinder_closing,
    equivariant_frame,
    equivariant_profile,
    sphere_frame,
    torus_frame,
    trinoid_admissible,
    trinoid_closing_check,
    trinoid_loops,
    trinoid_monodromies,
)
from .verify import (
    CUReport,
    DeckTransform,
    InvariantReport,
    PointGeometryReport,
    RotationSymmetry,
    cu_report,
    geometry_report,
    invariants_report,
    node_report,
    sinh_gordon_residual,
    symmetry_check,
)

__version__ = "0.1.0"

__all__ = [
    "PotentialSpec",
    "make_potential",
    "xi_sampler",
    "sphere_spec",
    "torus_spec",
    "equivariant_spec",
    "radial_spec",
    "trinoid_spec",
    "custom_spec",
    "spec_to_dict",
    "spec_from_dict",
    "DomainPath",
    "OdeOptions",
    "circle_path",
    "transport",
    "monodromy",
    "unitarizing_gauge",
    "IwasawaResult",
    "iwasawa",
    "spectral_factor_plus",
    "FramePointPair",
    "GridSpec",
    "SurfaceMap",
    "SurfaceSample",
    "build_surface",
    "normalize_q2",
    "projective_distance",
    "psi_so4",
    "q2_point",
    "sphere_pair",
    "xy_matrices",
    "AdmissibilityReport",
    "ClosingReport",
    "cylinder_closing",
    "equivariant_frame",
    "equivariant_profile",
    "sphere_frame",
    "torus_frame",
    "trinoid_admissible",
    "trinoid_closing_check",
    "trinoid_loops",
    "trinoid_monodromies",
    "CUReport",
    "DeckTransform",
    "InvariantReport",
    "PointGeometryReport",
    "RotationSymmetry",
    "cu_report",
    "geometry_report",
    "invariants_report",
    "node_report",
    "sinh_gordon_residual",
    "symmetry_check",
    "__version__",
]

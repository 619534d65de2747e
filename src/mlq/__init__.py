"""Minimal Lagrangian surfaces in the complex quadric Q2 = S2 x S2.

Builds surfaces from holomorphic loop-algebra potentials: integrate a
holomorphic frame, split it with a loop-group Iwasawa factorization,
evaluate the unitary factor at a pair of spectral points, and read the
surface off the resulting quaternion pair.  Verification routines check
every geometric property (conformality, Lagrangian condition, minimality,
the sinh-Gordon equation, closing conditions) numerically.

The names below are resolved on first access (PEP 562), so importing
``mlq`` or one of its modules loads only the modules that are used.
"""

from __future__ import annotations

import importlib

#: the public names, by the module that defines them
_EXPORTS = {
    "potentials": ("PotentialSpec", "make_potential", "xi_sampler", "sphere_spec", "torus_spec",
                   "equivariant_spec", "radial_spec", "trinoid_spec", "custom_spec"),
    "holonomy": ("DomainPath", "OdeOptions", "OdeCounts", "circle_path", "transport", "monodromy",
                 "unitarizing_gauge"),
    "iwasawa": ("IwasawaResult", "iwasawa", "spectral_factor_plus"),
    "frames": ("FramePointPair", "FrameTable", "GridSpec", "SurfaceMap", "SurfaceSample", "build_surface",
               "projective_distance", "psi_so4", "q2_point", "sphere_pair", "xy_matrices"),
    "closedform": ("AdmissibilityReport", "ClosingReport", "cylinder_closing", "equivariant_frame",
                   "equivariant_profile", "sphere_frame", "torus_frame", "trinoid_admissible",
                   "trinoid_closing_check", "trinoid_loops", "trinoid_monodromies"),
    "verify": ("CUReport", "DeckTransform", "InvariantReport", "PointGeometryReport", "RotationSymmetry",
               "cu_report", "frame_table", "frame_tables", "geometry_report", "invariants_report", "node_report",
               "node_reports", "sinh_gordon_residual", "symmetry_check"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value

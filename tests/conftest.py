from __future__ import annotations

import pytest

from mlq.frames import SurfaceMap
from mlq.holonomy import OdeOptions
from mlq.potentials import (
    equivariant_spec,
    make_potential,
    radial_spec,
    sphere_spec,
    torus_spec,
)

#: verification-grade integrator: FD stencils difference nearby lifts, so
#: transport noise has to sit well below the h^2 truncation floor
TIGHT_ODE = OdeOptions(tolerance=1e-12)


def tight_map(spec, lambda0=1.0 + 0.0j, window=16, **kwargs) -> SurfaceMap:
    return SurfaceMap(
        make_potential(spec),
        lambda0,
        window=window,
        ode=TIGHT_ODE,
        **kwargs,
    )


@pytest.fixture(scope="session")
def sphere_map():
    return tight_map(sphere_spec())


@pytest.fixture(scope="session")
def torus_map():
    return tight_map(torus_spec())


@pytest.fixture(scope="session")
def equivariant_map():
    return tight_map(equivariant_spec(0.75, 0.25))


@pytest.fixture(scope="session")
def radial_map():
    return tight_map(radial_spec(0.5, 1))

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import analytic_pairs, analytic_surface, sphere_metric_exponent

from mlq import frames
from mlq.closedform import sphere_frame, torus_frame
from mlq.frames import START_WINDOW, SurfaceMap
from mlq.holonomy import OdeOptions
from mlq.potentials import make_potential, radial_spec
from mlq.verify import (
    CROSS,
    DIAMOND,
    ConsistencyError,
    DegeneracyError,
    RotationSymmetry,
    _u_hat_of,
    cu_report,
    geometry_report,
    invariants_report,
    node_report,
    sinh_gordon_residual,
    symmetry_check,
)

SPHERE = analytic_surface(sphere_frame)
TORUS = analytic_surface(torus_frame)


def diamond(fn, z, h):
    """Table of a callable on the 13-point stencil around z."""
    return {(a, b): fn(z + (a + 1j * b) * h) for a, b in DIAMOND}


def analytic_cu_report(frame_fn, z, h):
    """cu_report on the diamond lift and factor tables of a closed-form frame family."""
    return cu_report(diamond(analytic_surface(frame_fn), z, h), h, diamond(analytic_pairs(frame_fn), z, h))


def test_sphere_invariants():
    z = 0.4 - 0.3j
    rep = invariants_report(SPHERE, z, h=1e-3)
    # round metric, vanishing quadratic differential, beta = e^u
    assert rep.u == pytest.approx(sphere_metric_exponent(z), abs=2e-6)
    assert abs(rep.alpha) < 1e-6
    assert rep.beta.imag == pytest.approx(0.0, abs=1e-6)
    assert rep.beta.real == pytest.approx(np.exp(rep.u), abs=1e-5)
    assert rep.u_hat == pytest.approx(rep.u + np.log(2.0), abs=1e-5)
    assert rep.residuals["quadric"] < 1e-12
    assert rep.residuals["horizontality"] < 1e-6
    for name, val in rep.residuals.items():
        assert val < 1e-4, f"{name} = {val}"


def test_torus_invariants():
    rep = invariants_report(TORUS, 0.2 + 0.7j, h=1e-3)
    assert rep.u == pytest.approx(np.log(2.0), abs=2e-6)
    # beta vanishes; the fallback phase convention makes alpha real positive
    assert abs(rep.beta) < 1e-6
    assert rep.alpha == pytest.approx(2.0, abs=1e-5)
    assert rep.u_hat == pytest.approx(np.log(2.0), abs=2e-6)
    for name, val in rep.residuals.items():
        assert val < 1e-4, f"{name} = {val}"


def test_quarter_turn_phase_convention():
    z = 0.4 - 0.3j
    base = invariants_report(SPHERE, z)
    # a re-phased lift must produce the identical snapped invariants ...
    rotated = invariants_report(lambda w: np.exp(1j * np.pi / 2) * SPHERE(w), z)
    assert rotated.beta == pytest.approx(base.beta, abs=1e-12)
    assert rotated.u == pytest.approx(base.u, abs=1e-14)
    # ... and the raw phase stays visible when snapping is turned off:
    # beta is bilinear in the lift, so an e^{i pi/2} rotation flips its sign
    base_raw = invariants_report(SPHERE, z, phase=1)
    raw = invariants_report(lambda w: np.exp(1j * np.pi / 2) * SPHERE(w), z, phase=1)
    assert raw.beta == pytest.approx(-base_raw.beta, abs=1e-12)
    assert base.beta == pytest.approx(abs(base_raw.beta), abs=1e-12)


def test_degenerate_map_is_rejected():
    with pytest.raises(DegeneracyError, match="degenerate"):
        invariants_report(lambda z: np.array([1.0, 1.0j, 0.0, 0.0]) / np.sqrt(2.0), 0.3)


def test_metric_relation_guard():
    with pytest.raises(ConsistencyError, match="metric relation"):
        _u_hat_of(1.0, 2.0)


def test_sinh_gordon_residual_on_the_round_sphere():
    # alpha = 0 and e^u_hat = 2 e^u reduce the equation to Liouville's,
    # which the round metric solves: only the h^2 stencil error remains
    z, h = 0.5 + 0.1j, 1e-3
    u_hat = {(a, b): sphere_metric_exponent(z + (a + 1j * b) * h) + np.log(2.0) for a, b in CROSS}
    assert sinh_gordon_residual(u_hat, 0.0, h) < 1e-4
    # and a metric off the solution is caught
    u_hat[(0, 0)] += 1e-2
    assert sinh_gordon_residual(u_hat, 0.0, h) > 1e-2


def test_geometry_report_on_analytic_factors():
    rep = geometry_report(analytic_pairs(sphere_frame), 0.3 + 0.2j, h=1e-3)
    assert rep.conformal_residual < 1e-4
    assert rep.lagrangian_residual < 1e-4
    assert rep.harmonic_residual < 1e-4
    assert rep.jacobian_sum < 1e-4


def test_cu_report_sphere_is_the_complex_point_case():
    z, h = 0.25 - 0.45j, 1e-3
    rep = analytic_cu_report(sphere_frame, z, h)
    assert rep.C == pytest.approx(0.5, abs=1e-6)
    assert rep.gauss_skipped
    # Theta read off the second factor agrees with 2 alpha = 0
    assert abs(rep.Theta - 2.0 * invariants_report(SPHERE, z, h).alpha) < 1e-4
    assert rep.jacobian_match < 1e-4


def test_cu_report_torus_with_factor_data():
    z, h = 0.3 + 0.6j, 1e-3
    pairs = analytic_pairs(torus_frame)
    s2 = {(a, b): pairs(z + (a + 1j * b) * h) for a, b in CROSS}
    rep = cu_report(diamond(TORUS, z, h), h, s2)
    assert rep.C == pytest.approx(0.0, abs=1e-6)
    assert not rep.gauss_skipped
    assert rep.gauss_residual < 1e-4
    # Theta read off the second factor agrees with 2 alpha
    assert abs(rep.Theta - 2.0 * invariants_report(TORUS, z, h).alpha) < 1e-4
    assert rep.jacobian_match < 1e-4


def test_gauss_curvature_of_the_round_sphere():
    h = 1e-3
    assert analytic_cu_report(sphere_frame, 0.2 + 0.2j, h).K == pytest.approx(2.0, abs=1e-4)


@contextmanager
def counting(name: str):
    """Record the calls of ``mlq.frames.<name>`` made inside the block."""
    calls = []
    fn = getattr(frames, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frames, name, counted)
        yield calls


@settings(max_examples=10, deadline=None)
@given(
    r=st.floats(0.1, 0.9),
    t=st.floats(0.0, 2.0 * np.pi),
    h=st.floats(5e-4, 2e-3),
)
def test_node_report_is_one_frame_table(r, t, h):
    smap = SurfaceMap(make_potential(radial_spec(0.5, 1)), window=16,
                      ode=OdeOptions(tolerance=1e-12), iwasawa_tol=1e-12)
    z = complex(r * np.cos(t), r * np.sin(t))
    with counting("transport") as transports, counting("iwasawa") as splits:
        inv, geo, cu = node_report(smap, z, h)
    # one transport to the node, then one sweep from it of the 12 diamond
    # rows off the centre, and one split per point
    # radial nodes with |z| <= 0.9 are resolved at the start window
    assert len(transports) == 2 and [path.vertices[-1] for path in transports[0][1]] == [z]
    assert len(DIAMOND) == 13 and len(transports[1][1]) == 12
    assert {path.vertices[0] for path in transports[1][1]} == {z}
    assert inv.window == START_WINDOW
    assert len(splits) == len(DIAMOND)
    # the single table reproduces the separate reports bit for bit
    assert inv.residuals == invariants_report(smap, z, h).residuals
    assert geo == geometry_report(smap, z, h)
    assert np.isfinite(cu.gauss_residual)


def test_rotation_symmetry_of_radial_surfaces(radial_map):
    res = symmetry_check(
        radial_map, RotationSymmetry(k=1, ell=1), [0.4 + 0.1j, -0.3 + 0.5j]
    )
    assert res < 1e-8


def test_symmetry_check_rejects_unknown_transforms(radial_map):
    with pytest.raises(TypeError):
        symmetry_check(radial_map, "rotate please", [0.1])

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import in_order
from oracles import analytic_pairs, analytic_surface, sphere_metric_exponent

from mlq import frames, holonomy
from mlq.closedform import sphere_frame, torus_frame
from mlq.frames import START_WINDOW, SurfaceMap
from mlq.holonomy import OdeOptions
from mlq.potentials import GridSpec, PoleError, equivariant_spec, make_potential, radial_spec, trinoid_spec
from mlq.verify import (
    CENTRE_WEIGHTS,
    CROSS,
    DIAMOND,
    ConsistencyError,
    DegeneracyError,
    RotationSymmetry,
    _apply,
    _u_hat_of,
    cu_report,
    frame_tables,
    geometry_report,
    invariants_report,
    node_report,
    node_reports,
    sinh_gordon_residual,
    symmetry_check,
)

SPHERE = analytic_surface(sphere_frame)
TORUS = analytic_surface(torus_frame)


def diamond(fn, z, h):
    """(13, ...) table of a callable on the 13-point stencil around z, in DIAMOND order."""
    return np.array([fn(z + (a + 1j * b) * h) for a, b in DIAMOND])


def analytic_cu_report(frame_fn, z, h):
    """cu_report on the diamond lift and factor tables of a closed-form frame family."""
    return cu_report(diamond(analytic_surface(frame_fn), z, h), h, diamond(analytic_pairs(frame_fn), z, h))


#: coefficients c0..c5 in C^3 of f(x, y) = c0 + c1 x + c2 y + c3 x^2 + c4 xy + c5 y^2
QUADRATICS = st.lists(st.floats(-1.0, 1.0), min_size=36, max_size=36).map(
    lambda v: np.array(v).reshape(6, 3, 2) @ np.array([1.0, 1.0j])
)


@settings(max_examples=40, deadline=None)
@given(c=QUADRATICS)
def test_weight_rows_are_exact_on_quadratics(c):
    # order-2 central differences have no truncation error on a quadratic, so
    # each row returns its derivative to roundoff: d_z and d_zbar at every
    # CROSS point and the centre Laplacian, and the centre rows the same on
    # the five cross values (any quadratic is one about the stencil centre)
    h = 1e-3

    def f(w):
        x, y = w.real, w.imag
        return c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * x * y + c[5] * y * y

    def dz(w, sign):
        fx, fy = c[1] + 2 * c[3] * w.real + c[4] * w.imag, c[2] + c[4] * w.real + 2 * c[5] * w.imag
        return 0.5 * (fx + sign * 1j * fy)

    cross = [(a + 1j * b) * h for a, b in CROSS]
    lap = 2 * (c[3] + c[5])
    fz, fzb, fl = _apply(diamond(f, 0.0, h), h)
    assert np.abs(fz - [dz(w, -1) for w in cross]).max() <= 1e-8
    assert np.abs(fzb - [dz(w, 1) for w in cross]).max() <= 1e-8
    assert np.abs(fl - lap).max() <= 1e-8
    gz, gzb, gl = _apply(np.array([f(w) for w in cross]), h, CENTRE_WEIGHTS)
    assert np.abs(gz[0] - dz(0.0, -1)).max() <= 1e-8
    assert np.abs(gzb[0] - dz(0.0, 1)).max() <= 1e-8
    assert np.abs(gl - lap).max() <= 1e-8


def test_sphere_invariants():
    z = 0.4 - 0.3j
    rep = invariants_report(diamond(SPHERE, z, 1e-3), z, 1e-3)
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
    z = 0.2 + 0.7j
    rep = invariants_report(diamond(TORUS, z, 1e-3), z, 1e-3)
    assert rep.u == pytest.approx(np.log(2.0), abs=2e-6)
    # beta vanishes; the fallback phase convention makes alpha real positive
    assert abs(rep.beta) < 1e-6
    assert rep.alpha == pytest.approx(2.0, abs=1e-5)
    assert rep.u_hat == pytest.approx(np.log(2.0), abs=2e-6)
    for name, val in rep.residuals.items():
        assert val < 1e-4, f"{name} = {val}"


def test_quarter_turn_phase_convention():
    z, h = 0.4 - 0.3j, 1e-3
    lifts = diamond(SPHERE, z, h)
    base = invariants_report(lifts, z, h)
    # a re-phased lift must produce the identical snapped invariants ...
    rotated = invariants_report(np.exp(1j * np.pi / 2) * lifts, z, h)
    assert rotated.beta == pytest.approx(base.beta, abs=1e-12)
    assert rotated.u == pytest.approx(base.u, abs=1e-14)
    # ... and the raw phase stays visible when snapping is turned off:
    # beta is bilinear in the lift, so an e^{i pi/2} rotation flips its sign
    base_raw = invariants_report(lifts, z, h, phase=1)
    raw = invariants_report(np.exp(1j * np.pi / 2) * lifts, z, h, phase=1)
    assert raw.beta == pytest.approx(-base_raw.beta, abs=1e-12)
    assert base.beta == pytest.approx(abs(base_raw.beta), abs=1e-12)


def test_degenerate_map_is_rejected():
    with pytest.raises(DegeneracyError, match="degenerate"):
        invariants_report(diamond(lambda z: np.array([1.0, 1.0j, 0.0, 0.0]) / np.sqrt(2.0), 0.3, 1e-3), 0.3, 1e-3)


def test_metric_relation_guard():
    with pytest.raises(ConsistencyError, match="metric relation"):
        _u_hat_of(1.0, 2.0)


def test_sinh_gordon_residual_on_the_round_sphere():
    # alpha = 0 and e^u_hat = 2 e^u reduce the equation to Liouville's,
    # which the round metric solves: only the h^2 stencil error remains
    z, h = 0.5 + 0.1j, 1e-3
    u_hat = np.array([sphere_metric_exponent(z + (a + 1j * b) * h) + np.log(2.0) for a, b in CROSS])
    assert sinh_gordon_residual(u_hat, 0.0, h) < 1e-4
    # and a metric off the solution is caught
    u_hat[CROSS.index((0, 0))] += 1e-2
    assert sinh_gordon_residual(u_hat, 0.0, h) > 1e-2


def test_geometry_report_on_analytic_factors():
    z, h = 0.3 + 0.2j, 1e-3
    rep = geometry_report(diamond(analytic_pairs(sphere_frame), z, h), z, h)
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
    assert abs(rep.Theta - 2.0 * invariants_report(diamond(SPHERE, z, h), z, h).alpha) < 1e-4
    assert rep.jacobian_match < 1e-4


def test_cu_report_torus_with_factor_data():
    z, h = 0.3 + 0.6j, 1e-3
    rep = cu_report(diamond(TORUS, z, h), h, diamond(analytic_pairs(torus_frame), z, h))
    assert rep.C == pytest.approx(0.0, abs=1e-6)
    assert not rep.gauss_skipped
    assert rep.gauss_residual < 1e-4
    # Theta read off the second factor agrees with 2 alpha
    assert abs(rep.Theta - 2.0 * invariants_report(diamond(TORUS, z, h), z, h).alpha) < 1e-4
    assert rep.jacobian_match < 1e-4


def test_gauss_curvature_of_the_round_sphere():
    h = 1e-3
    assert analytic_cu_report(sphere_frame, 0.2 + 0.2j, h).K == pytest.approx(2.0, abs=1e-4)


@contextmanager
def counting(name: str, module=frames):
    """Record the calls of ``module.<name>`` (by default ``mlq.frames``) made inside the block."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, name, counted)
        yield calls


@settings(max_examples=10, deadline=None)
@given(
    r=st.floats(0.1, 0.9),
    t=st.floats(0.0, 2.0 * np.pi),
    h=st.floats(5e-4, 2e-3),
)
def test_node_report_is_one_frame_table(r, t, h):
    smap = SurfaceMap(make_potential(radial_spec(0.5, 1)), window=16,
                      ode=OdeOptions(tolerance=1e-12))
    z = complex(r * np.cos(t), r * np.sin(t))
    with counting("transport", holonomy) as transports, counting("iwasawa_twisted") as splits:
        inv, _, cu = node_report(smap, z, h)
    # one transport to the node, then one sweep from it of the 12 diamond
    # rows off the centre; one split of the node, then one of the 12 rows
    # radial nodes with |z| <= 0.9 are resolved at the start window
    assert len(transports) == 2 and [path.vertices[-1] for path in transports[0][1]] == [z]
    assert len(DIAMOND) == 13 and len(transports[1][1]) == 12
    assert {path.vertices[0] for path in transports[1][1]} == {z}
    assert inv.window == START_WINDOW
    assert [len(args[0]) for args in splits] == [1, len(DIAMOND) - 1]
    assert np.isfinite(cu.gauss_residual)


def test_a_stencil_point_at_a_pole_fails_only_its_node():
    # the trinoid node 1 + 0.0025i keeps 2.5e-3 from the pole z = 1, but its
    # stencil point 1 + 0.0005i does not: that node fails with the error it
    # gets alone, before any sweep, and the chunk's other nodes get the
    # tables and reports of the same chunk without it, bit for bit
    smap = SurfaceMap(make_potential(trinoid_spec(1j, 1.0, 1.0, 1.0)), 1j, window=16,
                      ode=OdeOptions(tolerance=1e-12))
    good = [0.5 + 0.45j, 0.56 + 0.47j, 0.62 + 0.4j, 0.7 + 0.3j]
    bad = 1 + 0.0025j
    chunk = good[:2] + [bad] + good[2:]
    reps, alone = node_reports(smap, chunk, 1e-3), node_reports(smap, good, 1e-3)
    assert isinstance(reps[2], PoleError) and "singular point (1+0j)" in str(reps[2])
    with pytest.raises(PoleError) as err:
        node_report(smap, bad, 1e-3)
    assert str(err.value) == str(reps[2])
    assert reps[:2] + reps[3:] == alone
    tables, ref = in_order(frame_tables(smap, chunk, 1e-3)), in_order(frame_tables(smap, good, 1e-3))
    assert all(np.array_equal(t.F, r.F) for t, r in zip(tables[:2] + tables[3:], ref))


def test_node_reports_pool_exact_cap_anchors_across_blocks(monkeypatch):
    # the equivariant 7x7 grid at N = 16 leaves six anchors unresolved at the
    # start window, five in its first block of 32 and one in its second; the
    # whole grid is one stream, so they are one 6-row split at the cap, as in
    # generate, and each node reads as it does alone, bit for bit; the map is
    # twisted, so its splits take the first 2N samples
    stacks = []
    split = frames.iwasawa_twisted
    monkeypatch.setattr(frames, "iwasawa_twisted", lambda values: stacks.append(values.shape[:2]) or split(values))
    smap = SurfaceMap(make_potential(equivariant_spec(0.75, 0.25)), window=16)
    nodes, h = GridSpec(0.25, 1.4, 7, -0.5, 0.5, 7).nodes(), 1e-3
    reps = node_reports(smap, nodes, h)
    assert [i for i, rep in enumerate(reps) if rep[0].window == 16] == [7, 14, 21, 22, 28, 35]
    assert [rows for rows, m in stacks if m == 2 * 16] == [6, 24, 24, 24] and len(stacks) == 28
    for z, rep in zip(nodes, reps):
        assert rep == node_report(smap, z, h)


def test_rotation_symmetry_of_radial_surfaces(radial_map):
    res = symmetry_check(
        radial_map, RotationSymmetry(k=1, ell=1), [0.4 + 0.1j, -0.3 + 0.5j]
    )
    assert res < 1e-8


def test_symmetry_check_rejects_unknown_transforms(radial_map):
    with pytest.raises(TypeError):
        symmetry_check(radial_map, "rotate please", [0.1])

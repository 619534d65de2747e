import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import eval_xi, loop_at

from mlq.cli import load_config
from mlq.holonomy import DomainPath, _series, _unplanes, transport
from mlq.potentials import (
    CustomTerm,
    PoleError,
    PotentialSpec,
    custom_spec,
    equivariant_spec,
    make_potential,
    radial_spec,
    sphere_spec,
    torus_spec,
    trinoid_h,
    trinoid_spec,
    xi_sampler,
)

ALL_SPECS = [
    sphere_spec(),
    torus_spec(),
    equivariant_spec(0.75, 0.25),
    equivariant_spec(1.0, 0.5, 0.25),
    radial_spec(0.5, 1),
    radial_spec(0.3 + 0.4j, 3),
    trinoid_spec(1j, 1.0, 1.0, 1.0),
    custom_spec(
        [CustomTerm(lam_power=-1, matrix=[[0, 1], [0, 0]], num=[1.0], den=[1.0, 1.0])],
        poles=[-1.0],
        base_point=0.0,
    ),
]

#: a custom potential with several rational weights, two sharing a lam-power
RATIONAL_CUSTOM = custom_spec(
    [
        CustomTerm(lam_power=-1, matrix=[[0, 1], [0, 0]]),
        CustomTerm(lam_power=0, matrix=[[0.5, 0], [0, -0.5]], num=[0.0, 1.0], den=[1.0, 1.0]),
        CustomTerm(lam_power=1, matrix=[[0, 2], [1j, 0]], den=[-1.0, 0.0, 1.0]),
        CustomTerm(lam_power=-1, matrix=[[0, 0], [3, 0]], num=[0.0, 0.0, 1.0]),
    ],
    poles=[-1.0, 1.0],
    base_point=0.0,
)


#: the ``potential`` object of a config for each spec of ALL_SPECS, in order
CONFIG_LITERALS = [
    '{"variant": "sphere"}',
    '{"variant": "torus"}',
    '{"variant": "equivariant", "a": 0.75, "b": 0.25}',
    '{"variant": "equivariant", "a": 1.0, "b": 0.5, "c": 0.25}',
    '{"variant": "radial", "c": [0.5, 0.0], "k": 1}',
    '{"variant": "radial", "c": [0.3, 0.4], "k": 3}',
    '{"variant": "trinoid", "lambda0": [0.0, 1.0], "v0": 1.0, "v1": 1.0, "vinf": 1.0}',
    '{"variant": "custom", "base_point": [0.0, 0.0], "poles": [[-1.0, 0.0]],'
    ' "terms": [{"lam_power": -1, "matrix": [[0, 1], [0, 0]], "num": [1.0], "den": [1.0, 1.0]}]}',
]


@pytest.mark.parametrize(
    "literal, spec", list(zip(CONFIG_LITERALS, ALL_SPECS)), ids=[s.variant for s in ALL_SPECS]
)
def test_spec_dict_round_trip(tmp_path, literal, spec):
    # a config literal, read as load_config reads it, is the constructor's potential
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema": 1, "potential": json.loads(literal), "grid": {
        "re_min": -0.4, "re_max": 0.4, "n_re": 3, "im_min": -0.4, "im_max": 0.4, "n_im": 3}}))
    back = load_config(path).spec
    assert back.variant == spec.variant
    pot = make_potential(spec)
    pot_back = make_potential(back)
    assert pot_back.singular_points == pot.singular_points
    assert pot_back.base_point == pot.base_point
    z = 0.4 + 0.3j
    back, orig = eval_xi(pot_back, z), eval_xi(pot, z)
    assert back.keys() == orig.keys()
    for k in orig:
        np.testing.assert_allclose(back[k], orig[k], atol=1e-15)


def test_singular_sets_and_base_points():
    assert make_potential(sphere_spec()).singular_points == ()
    assert make_potential(sphere_spec()).base_point == 0.0
    eq = make_potential(equivariant_spec(1.0, 0.5))
    assert eq.singular_points == (0.0 + 0.0j,)
    assert eq.base_point == 1.0
    tri = make_potential(trinoid_spec(1j, 1.0, 2.0, 3.0))
    assert tri.singular_points == (0.0 + 0.0j, 1.0 + 0.0j)
    assert tri.base_point == 0.5


def test_make_potential_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_potential(PotentialSpec("spiral"))
    with pytest.raises(TypeError):
        equivariant_spec(1.0 + 1.0j, 0.5)  # complex a dies at the spec already
    with pytest.raises(ValueError):
        make_potential(PotentialSpec("radial", {"c": 0.0 + 0.0j, "k": 1}))
    with pytest.raises(ValueError):
        make_potential(PotentialSpec("radial", {"c": 1.0 + 0.0j, "k": 1}))  # |c| = 1
    with pytest.raises(ValueError):
        make_potential(PotentialSpec("radial", {"c": 0.5 + 0.0j, "k": 0}))
    with pytest.raises(ValueError):
        make_potential(trinoid_spec(1.0, 1.0, 1.0, 1.0))  # lambda0 not +-i
    with pytest.raises(ValueError):
        make_potential(trinoid_spec(1j, 0.0, 1.0, 1.0))  # zero weight
    with pytest.raises(ValueError):
        make_potential(PotentialSpec("custom", {"terms": (), "base_point": 0.0}))


def test_custom_terms_must_lie_in_sl2():
    with pytest.raises(ValueError, match="2x2"):
        make_potential(custom_spec(
            [CustomTerm(lam_power=-1, matrix=[[0, 1, 0], [0, 0, 1], [0, 0, 0]])],
            poles=[], base_point=0.0,
        ))
    with pytest.raises(ValueError, match="trace free"):
        make_potential(custom_spec(
            [CustomTerm(lam_power=0, matrix=[[1, 0], [0, 0]])], poles=[], base_point=0.0,
        ))


def xi_rows(pot, lams, zs) -> np.ndarray:
    """xi(z, lam) at each z, shape (len(zs), M, 2, 2), through the integrator's
    own series: the t^0 coefficient s (D xi)(a) / D(a) on pieces from a = z
    with s = 1, expanded about the centre ``transport`` takes for z."""
    zs = np.asarray(zs, dtype=complex)
    return _unplanes(_series(xi_sampler(pot, lams), zs, np.ones(zs.size), pot.singular_points)[1][0])


@pytest.mark.parametrize("spec", ALL_SPECS + [RATIONAL_CUSTOM], ids=lambda s: s.variant)
@settings(max_examples=20, deadline=None)
@given(
    zs=st.lists(st.complex_numbers(max_magnitude=2.0), min_size=1, max_size=4),
    thetas=st.lists(st.floats(0.0, 2.0 * np.pi), min_size=1, max_size=5),
)
def test_xi_sampler_matches_eval_xi(spec, zs, thetas):
    pot = make_potential(spec)
    assume(all(abs(z - p) > 0.05 for z in zs for p in pot.singular_points))
    lams = np.exp(1j * np.array(thetas))
    singles = [xi_rows(pot, lams, [z])[0] for z in zs]
    for z, got in zip(zs, singles):
        np.testing.assert_allclose(got, loop_at(eval_xi(pot, z), lams), rtol=0, atol=1e-13)
    # a batch of z is the stack of single-z rows, row by row
    np.testing.assert_allclose(xi_rows(pot, lams, zs), np.stack(singles), rtol=1e-14, atol=1e-14)


def test_custom_base_point_must_avoid_poles():
    term = CustomTerm(lam_power=-1, matrix=[[0, 1], [0, 0]], num=[1.0], den=[1.0])
    with pytest.raises(ValueError):
        make_potential(custom_spec([term], poles=[0.5], base_point=0.5))


def test_xi_structure_sphere_torus_radial():
    z = 1.7 - 0.2j
    xs = eval_xi(make_potential(sphere_spec()), z)
    assert set(xs) == {-1}
    np.testing.assert_array_equal(xs[-1], [[0, 1], [0, 0]])

    xt = eval_xi(make_potential(torus_spec()), z)
    np.testing.assert_array_equal(xt[-1], [[0, 1], [1, 0]])

    xr = eval_xi(make_potential(radial_spec(0.5, 2)), z)
    np.testing.assert_allclose(xr[-1], [[0, 1], [0.5 * z**2, 0]], atol=1e-15)


def test_xi_equivariant_is_dz_over_z():
    pot = make_potential(equivariant_spec(0.75, 0.25, 0.1))
    z = 2.0 + 1.0j
    xi = eval_xi(pot, z)
    np.testing.assert_allclose(xi[-1] * z, [[0, 0.75], [0.25, 0]], atol=1e-15)
    np.testing.assert_allclose(xi[0] * z, [[0.1, 0], [0, -0.1]], atol=1e-15)
    np.testing.assert_allclose(xi[1] * z, [[0, 0.25], [0.75, 0]], atol=1e-15)


def twist_violation(spec, z: complex) -> float:
    """max over circle values of ||sigma_3 xi(z, -lam) sigma_3 - xi(z, lam)||."""
    lams = np.exp(1j * np.linspace(0.0, np.pi, 7))
    xi = xi_rows(make_potential(spec), np.concatenate((lams, -lams)), [z])[0]
    s3 = np.diag([1.0, -1.0])
    return float(np.abs(s3 @ xi[lams.size :] @ s3 - xi[: lams.size]).max())


def test_xi_twisted_for_the_twisted_families():
    # twisted: sigma_3 xi(-lam) sigma_3 = xi(lam)
    z = 0.9 + 0.4j
    for spec in (sphere_spec(), torus_spec(), equivariant_spec(1.0, 0.5), radial_spec(0.5, 1)):
        assert twist_violation(spec, z) < 1e-15
    assert twist_violation(trinoid_spec(1j, 1.0, 1.0, 1.0), 0.5) > 1e-3


def test_xi_raises_at_singular_points():
    # the sampler does not check poles; transport refuses to evaluate it there
    eye = np.eye(2)[None]
    with pytest.raises(PoleError):
        transport(make_potential(equivariant_spec(1.0, 0.5)), DomainPath.line(1.0, 0.0), eye, [1.0])
    with pytest.raises(PoleError):
        transport(make_potential(trinoid_spec(1j, 1.0, 1.0, 1.0)), DomainPath.line(0.5, 1.0), eye, [1.0])


def test_custom_weights_name_the_pole_in_an_array():
    # a rational weight's pole is in the singular set, so in a batch of routes
    # the one that runs into it gets an error naming it, and so does that
    # route alone; the other routes, summed to their pass's term count, end
    # as they do alone to within the default tolerance 1e-10 (7.9e-13 measured)
    pot = make_potential(custom_spec(ALL_SPECS[-1].params["terms"], poles=[], base_point=0.0))
    assert pot.singular_points == (-1.0,)
    paths = [DomainPath.line(0.0, z) for z in (0.5, -1.0, 0.25j)]
    got = transport(pot, paths, np.broadcast_to(np.eye(2), (3, 1, 2, 2)), [1.0])
    assert isinstance(got[1], PoleError) and "singular point (-1+0j)" in str(got[1])
    with pytest.raises(PoleError, match=r"singular point \(-1\+0j\)"):
        transport(pot, paths[1], np.eye(2)[None], [1.0])
    for k in (0, 2):
        np.testing.assert_allclose(got[k], transport(pot, paths[k], np.eye(2)[None], [1.0]), rtol=0, atol=1e-10)


def trinoid_q(z, v0: float, v1: float, vinf: float) -> complex:
    """q(z) = (vinf z^2 + (v1 - v0 - vinf) z + v0) / (16 z^2 (z - 1)^2)."""
    return (vinf * z**2 + (v1 - v0 - vinf) * z + v0) / (16.0 * z**2 * (z - 1.0) ** 2)


def test_trinoid_q_matches_rational_form():
    # the trinoid's lower-left weight is q as coefficient tuples, ascending
    v0, v1, vinf = 1.0, 2.0, 3.0
    num, den, _, _ = make_potential(trinoid_spec(1j, v0, v1, vinf)).terms[1]
    for z in (0.5, 0.3 + 0.8j, -1.2):
        z = complex(z)
        q = np.polyval(num[::-1], z) / np.polyval(den[::-1], z)
        assert q == pytest.approx(trinoid_q(z, v0, v1, vinf), rel=1e-14)


def test_trinoid_h_at_unit_arguments():
    # h(lam) = (lam - i)(lam + i)/lam at lambda0 = i: h(1) = 2, h(-1) = -2
    assert trinoid_h(1.0, 1j) == pytest.approx(2.0, abs=1e-15)
    assert trinoid_h(-1.0, 1j) == pytest.approx(-2.0, abs=1e-15)
    # and the defining zeros
    assert abs(trinoid_h(1j, 1j)) < 1e-15
    assert abs(trinoid_h(-1j, 1j)) < 1e-15


def test_trinoid_lam_h_is_quadratic():
    lam0 = 1j
    pot = make_potential(trinoid_spec(lam0, 1.0, 1.0, 1.0))
    xi = eval_xi(pot, 0.5)
    q = trinoid_q(0.5, 1.0, 1.0, 1.0)
    for lam in (np.exp(0.3j), np.exp(2.1j)):
        lower = loop_at(xi, [lam])[0, 1, 0]
        assert lower == pytest.approx(lam * trinoid_h(lam, lam0) * q, rel=1e-12)

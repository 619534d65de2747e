import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlq.closedform import (
    cylinder_closing,
    equivariant_frame,
    equivariant_profile,
    sphere_frame,
    torus_frame,
    trinoid_admissible,
    trinoid_loops,
    trinoid_monodromies,
)
from mlq.holonomy import DomainPath, OdeOptions, circle_path, monodromy
from mlq.potentials import make_potential, trinoid_h, trinoid_spec

SIGMA3 = np.diag([1.0, -1.0])
CIRCLE = [np.exp(1j * t) for t in (0.0, 0.4, 1.7, 2.8, -2.1, -0.9)]
# the equivariant frame's principal branches only cover arcs around lam = +-1
EQ_CIRCLE = [np.exp(1j * t) for t in (0.0, 0.4, -0.55, 2.8, -2.75)]


def assert_su2(m: np.ndarray, atol: float = 1e-12):
    np.testing.assert_allclose(m.conj().T @ m, np.eye(2), atol=atol)
    assert np.linalg.det(m) == pytest.approx(1.0, abs=atol)


@pytest.mark.parametrize("frame", [sphere_frame, torus_frame])
def test_explicit_frames_are_su2_on_the_circle(frame):
    for z in (0.0, 0.7 - 0.2j, -1.1 + 0.9j):
        for lam in CIRCLE:
            assert_su2(frame(z, lam))


@pytest.mark.parametrize("frame", [sphere_frame, torus_frame])
def test_explicit_frames_are_twisted(frame):
    z = 0.6 + 0.3j
    for lam in CIRCLE:
        np.testing.assert_allclose(
            frame(z, -lam), SIGMA3 @ frame(z, lam) @ SIGMA3, atol=1e-14
        )


def test_cylinder_closing_exponents():
    rep = cylinder_closing(0.75, 0.25, 0.0)
    assert rep.mu1 == pytest.approx(2.0, abs=1e-12)
    assert rep.mu2 == pytest.approx(1.0, abs=1e-12)
    assert rep.closes_q2 and not rep.closes_s3

    rep = cylinder_closing(1.0, 1.0, 0.0)
    assert (rep.mu1, rep.mu2) == pytest.approx((4.0, 0.0), abs=1e-12)
    assert rep.closes_q2 and not rep.closes_s3

    rep = cylinder_closing(1.0, 0.5, 0.0)
    assert (rep.mu1, rep.mu2) == pytest.approx((3.0, 1.0), abs=1e-12)
    assert rep.closes_q2 and rep.closes_s3

    rep = cylinder_closing(1.0, np.sqrt(2.0), 0.0)
    assert rep.mu1 == pytest.approx(2.0 + 2.0 * np.sqrt(2.0), abs=1e-12)
    assert not rep.closes_q2 and not rep.closes_s3


def test_cylinder_closing_depends_on_lambda0():
    # at lam0 = i the sum and difference exponents trade places
    rep = cylinder_closing(0.75, 0.25, 0.0, lambda0=1j)
    assert (rep.mu1, rep.mu2) == pytest.approx((1.0, 2.0), abs=1e-12)
    assert rep.closes_q2


def test_profile_initial_data_and_energy():
    prof = equivariant_profile(1.0, 0.5, x_max=1.5)
    assert prof.v[0] == pytest.approx(1.0, abs=1e-14)       # v(0) = 2b
    assert prof.v_prime[0] == 0.0
    assert prof.energy_residual() < 1e-9
    # the orbit oscillates between the turning values 2b and 2a
    assert prof.v.min() > 1.0 - 1e-8
    assert prof.v.max() < 2.0 + 1e-8
    assert prof.v_at(0.3) == pytest.approx(prof.v_at(-0.3), abs=1e-13)
    assert prof.vp_at(-0.3) == pytest.approx(-prof.vp_at(0.3), abs=1e-13)
    with pytest.raises(ValueError, match="outside profile range"):
        prof.v_at(2.0)


def test_profile_rejects_bad_parameters():
    with pytest.raises(ValueError):
        equivariant_profile(0.0, 0.5, x_max=1.0)
    with pytest.raises(ValueError):
        equivariant_profile(1.0, 0.5, x_max=-1.0)


def test_equivariant_frame_basic_properties():
    prof = equivariant_profile(1.0, 0.5, x_max=1.0)
    # based at the cylinder origin
    for lam in EQ_CIRCLE:
        np.testing.assert_allclose(
            equivariant_frame(1.0, 0.5, prof, 0.0, lam), np.eye(2), atol=1e-10
        )
    for w in (0.4, -0.35 + 0.8j, 0.7 + 2.0j):
        for lam in EQ_CIRCLE:
            assert_su2(equivariant_frame(1.0, 0.5, prof, w, lam), atol=1e-8)


def test_equivariant_frame_rejects_the_degenerate_arc():
    prof = equivariant_profile(1.0, 0.5, x_max=1.0)
    for lam in (np.exp(1.7j), np.exp(-1.44j), 1j):
        with pytest.raises(ValueError, match="invalid at lam|degenerates"):
            equivariant_frame(1.0, 0.5, prof, 0.4, lam)


def test_equivariant_frame_twist():
    prof = equivariant_profile(0.75, 0.25, x_max=1.0)
    w = 0.3 + 0.5j
    for lam in EQ_CIRCLE:
        np.testing.assert_allclose(
            equivariant_frame(0.75, 0.25, prof, w, -lam),
            SIGMA3 @ equivariant_frame(0.75, 0.25, prof, w, lam) @ SIGMA3,
            atol=1e-12,
        )


def test_equivariant_frame_translation_symmetry():
    # rotating the surface = translating the cylinder coordinate upward:
    # F(w + i theta, lam) = expm(i theta D(lam)) F(w, lam) with D the
    # constant coefficient of the potential in the cylinder coordinate
    from scipy.linalg import expm

    a, b = 1.0, 0.5
    prof = equivariant_profile(a, b, x_max=1.0)
    w, theta = 0.25 + 0.4j, 0.7
    for lam in (1.0, np.exp(0.4j), np.exp(-2.8j)):
        d = np.array([[0.0, a / lam + b * lam], [a * lam + b / lam, 0.0]])
        lhs = equivariant_frame(a, b, prof, w + 1j * theta, lam)
        rhs = expm(1j * theta * d) @ equivariant_frame(a, b, prof, w, lam)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_equivariant_frame_checks_profile_parameters():
    prof = equivariant_profile(1.0, 0.5, x_max=1.0)
    with pytest.raises(ValueError, match="different"):
        equivariant_frame(0.75, 0.25, prof, 0.1, 1.0)


def test_admissible_symmetric_trinoid():
    rep = trinoid_admissible(1j, 1.0, 1.0, 1.0)
    assert rep.admissible and rep.violated == []
    n_expect = (2.0 - np.sqrt(2.0)) / 4.0
    m_expect = (1.0 - np.sqrt(1.5)) / 2.0
    for k in range(3):
        assert rep.n[k] == pytest.approx(n_expect, abs=1e-14)
        assert rep.m[k] == pytest.approx(m_expect, abs=1e-14)


def test_inadmissible_trinoids():
    # weight so large the square root turns imaginary
    rep = trinoid_admissible(1j, 3.0, 1.0, 1.0)
    assert not rep.admissible
    assert any("precondition" in v for v in rep.violated)
    assert np.isnan(rep.n[0])

    # lopsided weights break the triangle inequality
    rep = trinoid_admissible(1j, 1.9, 0.1, 0.1)
    assert not rep.admissible
    assert any("<=" in v and "precondition" not in v for v in rep.violated)

    with pytest.raises(ValueError, match="must be"):
        trinoid_admissible(1.0, 1.0, 1.0, 1.0)


def test_trinoid_loops_are_closed_and_based():
    g0, g1, ginf = trinoid_loops()
    # one segment count, so the three loops ride in one batched transport
    assert len(g0.segments()) == len(g1.segments()) == len(ginf.segments())
    for g in (g0, g1, ginf):
        assert g.closed
        segs = g.segments()
        assert segs[-1][1] == segs[0][0]
    assert g0.vertices[0] == pytest.approx(0.5)
    assert g1.vertices[0] == pytest.approx(0.5)
    assert ginf.vertices[0] == pytest.approx(0.5)
    # punctures on the correct sides
    assert min(abs(v) for v in g0.vertices) < 1.0
    assert all(abs(v - 1.0) > 0.45 for v in g0.vertices)
    assert all(abs(v) > 0.45 for v in g1.vertices)


def test_trinoid_monodromy_at_lambda0_is_trivial():
    # h(lam0, lam0) = 0 kills the lower-triangular part, and the upper entry
    # integrates to zero around any closed loop
    pot = make_potential(trinoid_spec(1j, 1.0, 1.0, 1.0))
    for h in trinoid_monodromies(pot, [1j], OdeOptions(tolerance=1e-12))[0]:
        np.testing.assert_allclose(h, np.eye(2), atol=1e-12)


def test_trinoid_monodromy_product_is_trivial():
    pot = make_potential(trinoid_spec(1j, 1.0, 1.0, 1.0))
    h0, h1, hinf = trinoid_monodromies(pot, [1.0], OdeOptions(tolerance=1e-12))[0]
    for h in (h0, h1, hinf):
        assert np.abs(h - np.eye(2)).max() > 1e-3   # individually nontrivial
        assert np.linalg.det(h) == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(hinf @ h1 @ h0, np.eye(2), atol=1e-8)


def test_coarse_trinoid_loops_match_the_64_gons():
    # a monodromy depends only on the homotopy class of its loop, so the
    # batched coarse loops give the values of finely drawn ones; a loop that
    # winds the wrong way or misses a puncture would not
    lam0 = 1j
    pot = make_potential(trinoid_spec(lam0, 1.0, 1.0, 1.0))
    lams = [lam0, -1j * lam0, np.exp(0.07j * np.pi)]
    opts = OdeOptions(tolerance=1e-12)
    base, n, radius = 0.5 + 0.0j, 64, 2.5
    spur = base - 1j * radius
    big = [base + radius * np.exp(1j * (-np.pi / 2 - 2.0 * np.pi * k / n)) for k in range(1, n)]
    gons = (
        circle_path(0.0, 0.5, n=n),
        circle_path(1.0, 0.5, n=n, start_angle=np.pi),
        DomainPath((base, spur, *big, spur), closed=True),
    )
    batched = trinoid_monodromies(pot, lams, opts)
    for i, gon in enumerate(gons):
        np.testing.assert_allclose(batched[:, i], monodromy(pot, gon, lams, opts), rtol=0, atol=1e-10)


@settings(max_examples=10, deadline=None)
@given(
    lam0=st.sampled_from([1j, -1j]),
    weights=st.tuples(*(st.floats(0.8, 1.2) for _ in range(3))),
    angles=st.lists(st.floats(0.0, 2.0 * np.pi), min_size=2, max_size=4),
)
def test_batched_trinoid_monodromies_match_single_lambda_runs(lam0, weights, angles):
    pot = make_potential(trinoid_spec(lam0, *weights))
    lams = [np.exp(1j * t) for t in angles]
    opts = OdeOptions(tolerance=1e-12)
    batched = trinoid_monodromies(pot, lams, opts)
    assert batched.shape == (len(lams), 3, 2, 2)
    for lam, mats in zip(lams, batched):
        np.testing.assert_allclose(mats, trinoid_monodromies(pot, [lam], opts)[0], rtol=0, atol=1e-10)


@pytest.mark.parametrize("lam0, weights", [(1j, (1.0, 1.0, 1.0)), (-1j, (0.9, 1.15, 1.05)),
                                           (1j, (0.6, 1.7, 1.2))])
def test_trinoid_local_monodromies_have_the_closed_form_traces(lam0, weights):
    # around a pole with weight v the local exponents of the trinoid's
    # Fuchsian equation give tr H(lam) = -2 cos(pi sqrt(1 + v h(lam) / 4)),
    # for each generator of trinoid_loops and at lam on and off the circle;
    # this checks the integrator against closed form around the poles.  At
    # lam = -1 and 1 these are the admissibility exponents, tr H_k = 2 cos(2 pi n_k)
    # and 2 cos(2 pi m_k): the link between c10's weights and its monodromies
    pot = make_potential(trinoid_spec(lam0, *weights))
    lams = [1.0, 1j, np.exp(0.7j), 0.5 * np.exp(0.3j), 2.0, -1.0]
    traces = np.trace(trinoid_monodromies(pot, lams, OdeOptions(tolerance=1e-13)), axis1=-2, axis2=-1)
    for k, v in enumerate(weights):
        want = [-2.0 * np.cos(np.pi * np.sqrt(1.0 + v * trinoid_h(lam, lam0) / 4.0)) for lam in lams]
        np.testing.assert_allclose(traces[:, k], want, rtol=0, atol=1e-10)
    adm = trinoid_admissible(lam0, *weights)
    for lam, exponents in ((-1.0, adm.n), (1.0, adm.m)):
        want = 2.0 * np.cos(2.0 * np.pi * np.array(exponents))
        np.testing.assert_allclose(traces[lams.index(lam)], want, rtol=0, atol=1e-10)

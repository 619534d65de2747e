import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import loop_at
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from mlq.holonomy import (
    DomainPath,
    IntegrationError,
    OdeOptions,
    circle_path,
    monodromy,
    transport,
    unitarizing_gauge,
    validate_path,
    _dopri45,
    _planes,
    _segment_rhs,
)
from mlq.loops import coefficients, window_samples
from mlq.potentials import (
    PoleError,
    make_potential,
    radial_spec,
    sphere_spec,
    torus_spec,
    trinoid_spec,
    xi_sampler,
)

RNG = np.random.default_rng(99)


def at_lambda(pot, path, lam, opts):
    """The frame from the identity along path at one spectral value."""
    return transport(pot, path, np.eye(2)[None], [lam], opts)[0]


def frame_samples(pot, path, window, opts=OdeOptions()):
    """The frame from the identity along path, at the window's 4N roots of unity."""
    lams = window_samples(window)
    return transport(pot, path, np.broadcast_to(np.eye(2), (lams.size, 2, 2)), lams, opts)


def random_su2() -> np.ndarray:
    v = RNG.standard_normal(4)
    v /= np.linalg.norm(v)
    return np.array(
        [[v[0] + 1j * v[1], v[2] + 1j * v[3]], [-v[2] + 1j * v[3], v[0] - 1j * v[1]]]
    )


def test_path_construction_and_segments():
    p = DomainPath([0.0, 1.0, 1.0 + 1.0j])
    assert p.vertices == (0.0, 1.0, 1.0 + 1.0j)
    assert p.segments() == [(0.0, 1.0), (1.0, 1.0 + 1.0j)]
    closed = DomainPath((0.0, 1.0, 1.0j), closed=True)
    # a closed path ends where it starts, at its base vertex
    assert closed.segments()[-1] == (1.0j, 0.0)
    assert closed.segments()[-1][1] == closed.vertices[0]
    with pytest.raises(ValueError):
        DomainPath((0.0, 0.0))
    with pytest.raises(ValueError):
        DomainPath((), closed=False)


def test_circle_path_geometry():
    c = circle_path(1.0, 0.5, n=8, start_angle=np.pi)
    assert c.closed
    assert len(c.vertices) == 8
    assert c.vertices[0] == pytest.approx(0.5 + 0.0j)
    assert all(abs(abs(v - 1.0) - 0.5) < 1e-12 for v in c.vertices)
    with pytest.raises(ValueError):
        circle_path(0.0, -1.0)
    with pytest.raises(ValueError):
        circle_path(0.0, 1.0, n=2)


def test_validate_path_rejects_pole_crossing():
    tri = make_potential(trinoid_spec(1j, 1.0, 1.0, 1.0))
    with pytest.raises(PoleError):
        validate_path(DomainPath.line(-1.0, 2.0), tri)  # crosses both 0 and 1
    validate_path(DomainPath.line(0.5 - 1.0j, 0.5 + 1.0j), tri)  # between them


def test_ode_options_validated():
    with pytest.raises(ValueError):
        OdeOptions(tolerance=0.0)
    # the tolerance is the only option
    for removed in ("method", "step", "det_renormalize"):
        with pytest.raises(TypeError):
            OdeOptions(**{removed: 1})


def test_sphere_transport_is_exact_polynomial():
    # xi = lam^{-1} E12 dz is nilpotent: Phi(z) = I + (z/lam) E12 exactly
    pot = make_potential(sphere_spec())
    opts = OdeOptions(tolerance=1e-12)
    z = 0.7 - 0.4j
    for lam in (1.0, np.exp(0.6j), 1j):
        got = at_lambda(pot, DomainPath.line(0.0, z), lam, opts)
        expected = np.array([[1.0, z / lam], [0.0, 1.0]])
        np.testing.assert_allclose(got, expected, atol=1e-9)


def test_torus_transport_matches_matrix_exponential():
    pot = make_potential(torus_spec())
    opts = OdeOptions(tolerance=1e-12)
    z = 0.9 + 0.3j
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    for lam in (1.0, np.exp(1.1j)):
        got = at_lambda(pot, DomainPath.line(0.0, z), lam, opts)
        np.testing.assert_allclose(got, expm(z / lam * a), atol=1e-9)


def test_transport_composes_along_paths():
    pot = make_potential(torus_spec())
    opts = OdeOptions(tolerance=1e-12)
    lam = np.exp(0.4j)
    via = at_lambda(pot, DomainPath([0.0, 0.5j, 1.0]), lam, opts)
    direct = at_lambda(pot, DomainPath.line(0.0, 1.0), lam, opts)
    np.testing.assert_allclose(via, direct, atol=1e-9)


def test_monodromy_trivial_for_exact_forms():
    # constant-coefficient xi integrates to zero around any closed loop
    pot = make_potential(torus_spec())
    h = monodromy(pot, circle_path(0.3, 1.1, n=48), [np.exp(0.8j)], OdeOptions(tolerance=1e-12))[0]
    np.testing.assert_allclose(h, np.eye(2), atol=1e-9)
    with pytest.raises(ValueError):
        monodromy(pot, DomainPath.line(0.0, 1.0), [1.0])


def test_trinoid_monodromy_has_unit_determinant():
    pot = make_potential(trinoid_spec(1j, 1.0, 1.0, 1.0))
    h = monodromy(pot, circle_path(0.0, 0.5, n=64), [np.exp(0.3j)])[0]
    assert np.linalg.det(h) == pytest.approx(1.0, abs=1e-9)
    # a genuinely nontrivial singularity
    assert np.abs(h - np.eye(2)).max() > 1e-3


def test_integrate_frame_window_and_twist():
    pot = make_potential(sphere_spec())
    y = frame_samples(pot, DomainPath.line(0.0, 0.6 + 0.2j), 8)
    assert y.shape == (32, 2, 2)
    # twisted: sigma_3 Phi(-lam) sigma_3 = Phi(lam), and -lam is 2N samples on
    s3 = np.diag([1.0, -1.0])
    assert np.abs(s3 @ np.roll(y, -16, axis=0) @ s3 - y).max() < 1e-12
    np.testing.assert_allclose(np.linalg.det(y), 1.0, atol=1e-8)
    # Phi = I + (z/lam) E12: every other mode reads zero
    exact = np.zeros_like(y)
    exact[-1] = [[0, 0.6 + 0.2j], [0, 0]]  # lam^-1
    exact[0] = np.eye(2)  # lam^0
    np.testing.assert_allclose(coefficients(y), exact, rtol=0, atol=1e-14)


def test_transport_runs_every_spectral_value_at_once():
    pot = make_potential(torus_spec())
    path = DomainPath([0.0, 0.4j, 0.7 - 0.1j])
    lams = np.exp(1j * np.array([0.0, 0.9, 2.5]))
    opts = OdeOptions(tolerance=1e-12)
    y = transport(pot, path, np.broadcast_to(np.eye(2), (3, 2, 2)), lams, opts)
    for val, lam in zip(y, lams):
        np.testing.assert_allclose(val, at_lambda(pot, path, lam, opts), atol=1e-9)


def test_batched_transport_keeps_each_rows_accuracy():
    # one hard row near the trinoid's pole among 31 easy ones: the error norm
    # is taken per row, so the batch steps no coarser than the hard row alone
    # (an RMS over all rows would let the easy rows loosen its steps)
    pot = make_potential(trinoid_spec(1j, 1.0, 1.0, 1.0))
    lams = window_samples(4)
    hard = DomainPath.line(0.5, 0.05 + 0.02j)
    paths = [hard] + [DomainPath.line(0.5, 0.5 + 0.01j * (k + 1)) for k in range(31)]
    eye = np.broadcast_to(np.eye(2), (len(paths), lams.size, 2, 2))
    opts = OdeOptions(tolerance=1e-8)
    exact = transport(pot, hard, eye[0], lams, OdeOptions(tolerance=1e-13))
    alone = transport(pot, hard, eye[0], lams, opts)
    batch = transport(pot, paths, eye, lams, opts)
    assert np.abs(batch[0] - exact).max() <= 1.5 * np.abs(alone - exact).max()
    for path, row in zip(paths[1:], batch[1:]):
        np.testing.assert_allclose(row, transport(pot, path, eye[0], lams, opts), rtol=0, atol=1e-7)
    with pytest.raises(ValueError, match="same number of segments"):
        transport(pot, [hard, DomainPath([0.5, 0.6, 0.7])], eye[:2], lams, opts)


_spectral_angle = st.floats(0.0, 2.0 * np.pi)
_offset = st.complex_numbers(max_magnitude=1.0)


@st.composite
def _radial_segment(draw):
    c = draw(st.sampled_from([0.5, 0.3 + 0.4j, -0.7j, 1.6]))
    k = draw(st.integers(1, 3))
    return make_potential(radial_spec(c, k)), 0.8 * draw(_offset)


@st.composite
def _trinoid_segment(draw):
    lam0 = draw(st.sampled_from([1j, -1j]))
    v0, v1, vinf = (draw(st.floats(0.8, 1.2)) for _ in range(3))
    return make_potential(trinoid_spec(lam0, v0, v1, vinf)), 0.5 + 0.3 * draw(_offset)


@settings(max_examples=20, deadline=None)
@given(seg=st.one_of(_radial_segment(), _trinoid_segment()), theta=_spectral_angle)
def test_pointwise_frame_matches_the_loop_frame(seg, theta):
    pot, z = seg
    assume(abs(z - pot.base_point) > 1e-6)
    path = DomainPath.line(pot.base_point, z)
    lam = np.exp(1j * theta)
    opts = OdeOptions(tolerance=1e-12)
    c = coefficients(frame_samples(pot, path, 16, opts))
    loop = {k: c[k % 64] for k in range(-16, 17)}
    pointwise = at_lambda(pot, path, lam, opts)
    np.testing.assert_allclose(loop_at(loop, [lam])[0], pointwise, atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(
    seg=st.one_of(_radial_segment(), _trinoid_segment()),
    theta=_spectral_angle,
    m=st.sampled_from([1, 10, 64]),
    tol=st.sampled_from([1e-10, 1e-12]),
)
def test_dopri45_matches_scipy_rk45(seg, theta, m, tol):
    pot, z = seg
    assume(abs(z - pot.base_point) > 1e-6)
    a, dz = pot.base_point, z - pot.base_point
    rhs = _segment_rhs(xi_sampler(pot, np.exp(1j * (theta + 2.0 * np.pi * np.arange(m) / m))), a, dz)
    # one row of component planes: the per-row norm is scipy's whole-state norm
    y0 = _planes(np.broadcast_to(np.eye(2, dtype=np.complex128), (1, m, 2, 2)))
    got = _dopri45(rhs, y0, tol, lambda t: a + t * dz)
    sol = solve_ivp(
        lambda t, yr: rhs(t, yr.view(np.complex128).reshape(y0.shape)).ravel().view(np.float64),
        (0.0, 1.0),
        y0.ravel().view(np.float64),
        method="RK45",
        rtol=tol,
        atol=tol,
    )
    assert sol.success
    expected = sol.y[:, -1].copy().view(np.complex128).reshape(y0.shape)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13)


def test_dopri45_reports_a_blow_up():
    # y' = y^2 from y(0) = 2 blows up at t = 1/2
    with pytest.raises(IntegrationError, match="z = 0.5"):
        with np.errstate(over="ignore", invalid="ignore"):
            _dopri45(lambda t, y: y * y, np.full((1, 2, 2), 2.0 + 0j), 1e-10, lambda t: round(t, 3))


def test_integrate_frame_rejects_pole_paths():
    tri = make_potential(trinoid_spec(1j, 1.0, 1.0, 1.0))
    with pytest.raises(PoleError):
        frame_samples(tri, DomainPath.line(0.5, 0.0), 8)


def test_unitarizing_gauge_conjugates_back_to_su2():
    g = np.array([[1.4, 0.3 - 0.2j], [0.1j, 0.8]])
    g_inv = np.linalg.inv(g)
    mats = [g @ random_su2() @ g_inv for _ in range(4)]
    w = unitarizing_gauge(mats)
    w_inv = np.linalg.inv(w)
    for m in mats:
        d = w @ m @ w_inv
        np.testing.assert_allclose(d @ d.conj().T, np.eye(2), atol=1e-8)

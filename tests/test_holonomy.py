import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import eval_xi, loop_at
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from mlq import holonomy
from mlq.holonomy import (
    MAX_TERMS,
    DomainPath,
    IntegrationError,
    OdeCounts,
    OdeOptions,
    circle_path,
    monodromy,
    transport,
    unitarizing_gauge,
    validate_path,
    _series,
)
from mlq.loops import coefficients, window_samples
from mlq.potentials import (
    CustomTerm,
    PoleError,
    Potential,
    custom_spec,
    equivariant_spec,
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


def reference(pot, a, b, lams, xi_at=None):
    """The frame from the identity along the segment [a, b] by scipy's DOP853
    at rtol = atol = 1e-13 on xi_at(z), shape (M, 2, 2), by default xi read
    term by term (``eval_xi``)."""
    lams = np.asarray(lams, dtype=complex)
    shape = (lams.size, 2, 2)
    xi_at = xi_at or (lambda z: loop_at(eval_xi(pot, z), lams))

    def rhs(t, yr):
        y = yr.view(np.complex128).reshape(shape)
        return (y @ xi_at(a + t * (b - a)) * (b - a)).ravel().view(np.float64)

    y0 = np.broadcast_to(np.eye(2, dtype=complex), shape).ravel().view(np.float64)
    sol = solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853", rtol=1e-13, atol=1e-13)
    assert sol.success
    return sol.y[:, -1].copy().view(np.complex128).reshape(shape)


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


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), True], ids=["nan", "inf", "bool"])
def test_ode_tolerance_must_be_a_finite_positive_real(tolerance):
    # nan <= 0 is False, so a bare sign check lets NaN through
    with pytest.raises(ValueError, match="finite positive real"):
        OdeOptions(tolerance=tolerance)


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


def test_batched_monodromies_match_each_paths_own_run():
    pot = make_potential(trinoid_spec(1j, 1.0, 1.0, 1.0))
    lams = [1.0, np.exp(0.3j), -1j]
    opts = OdeOptions(tolerance=1e-12)
    paths = [circle_path(0.0, 0.5, n=8), circle_path(1.0, 0.4, n=8, start_angle=np.pi), circle_path(0.5, 0.2, n=8)]
    batched = monodromy(pot, paths, lams, opts)
    assert batched.shape == (3, 3, 2, 2)
    for path, h in zip(paths, batched):
        np.testing.assert_allclose(h, monodromy(pot, path, lams, opts), rtol=0, atol=1e-10)
    with pytest.raises(ValueError, match="closed path"):
        monodromy(pot, [paths[0], DomainPath(paths[1].vertices), paths[2]], lams)


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
    # one hard row near the trinoid's pole among 31 easy ones: the stop rule
    # is taken per row and lam, so the batch sums no fewer terms than the hard
    # row alone (a rule on the sum over all rows would let the easy rows stop it)
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


_coef = st.complex_numbers(max_magnitude=2.0)
#: the entries a lam-term of a drawn potential may fill: E12 alone leaves column 0 zero
_SHAPES = {"upper": ((0, 1),), "off-diagonal": ((0, 1), (1, 0)), "full": ((0, 0), (0, 1), (1, 0))}


@st.composite
def _custom_potential(draw):
    """A custom potential of 1-3 lam-terms, each with a rational weight whose
    poles lie outside |z| = 2.5, filling the entries of one shape (the (1, 1)
    entry of a full term is minus its (0, 0)), and with or without a lam^0
    diagonal term of weight 1."""
    shape = draw(st.sampled_from(sorted(_SHAPES)))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        mat = np.zeros((2, 2), dtype=complex)
        for ij in _SHAPES[shape]:
            mat[ij] = draw(_coef)
        mat[1, 1] = -mat[0, 0]
        num = draw(st.lists(_coef, min_size=1, max_size=3))
        # a coefficient below 0.1 in size would put the pole past |z| = 10, or overflow it
        den = [1.0, draw(st.just(0j) | st.complex_numbers(min_magnitude=0.1, max_magnitude=0.4))]
        terms.append(CustomTerm(draw(st.integers(-1, 1)), mat.tolist(), tuple(num), tuple(den)))
    pot = make_potential(custom_spec(terms, poles=[], base_point=0.0))
    if draw(st.booleans()):
        d = draw(_coef)
        extra = (((1.0 + 0j,), (1.0 + 0j,), None, {0: np.diag([d, -d])}),)
        pot = Potential(pot.spec, pot.singular_points, pot.base_point, pot.terms + extra)
    return pot


@st.composite
def _custom_segment(draw):
    return draw(_custom_potential()), 0.8 * draw(_offset)


@settings(max_examples=15, deadline=None)
@given(
    seg=st.one_of(_radial_segment(), _trinoid_segment(), _custom_segment()),
    theta=_spectral_angle,
    m=st.sampled_from([1, 3]),
    tol=st.sampled_from([1e-10, 1e-12]),
)
def test_transport_matches_scipy_dop853(seg, theta, m, tol):
    # an independent reference: scipy's DOP853 at 1e-13 on xi read term by term
    pot, z = seg
    assume(abs(z - pot.base_point) > 1e-6)
    lams = np.exp(1j * (theta + 2.0 * np.pi * np.arange(m) / m))
    got = transport(pot, DomainPath.line(pot.base_point, z), np.broadcast_to(np.eye(2), (m, 2, 2)), lams,
                    OdeOptions(tol))
    expected = reference(pot, pot.base_point, z, lams)
    assert np.abs(got - expected).max() <= 10 * tol * max(1.0, np.abs(expected).max())


@pytest.mark.parametrize("z", [0.8, 0.8j, 0.8 * np.exp(0.4j)])
def test_a_lacunary_series_runs_past_its_zero_terms(z):
    # radial (1.6, 3) from 0: xi's coefficients in t are C_0 (E12) and C_3
    # (E21) alone, so runs of the series' terms vanish; a rule that stopped on
    # two small terms in a row stopped here with an error of 1.9e-3
    pot = make_potential(radial_spec(1.6, 3))
    lams = np.exp(2j * np.pi * np.arange(4) / 4)
    counts = OdeCounts()
    got = transport(pot, DomainPath.line(0.0, z), np.broadcast_to(np.eye(2), (4, 2, 2)), lams, OdeOptions(1e-13),
                    counts)
    assert counts.terms > 8
    np.testing.assert_allclose(got, reference(pot, 0.0, z, lams), rtol=0, atol=1e-12)


def test_a_frame_near_a_double_pole_keeps_its_digits():
    # the trinoid's D = 16 z^2 (z - 1)^2 in monomials cancels near z = 1, so
    # each piece's polynomials are expanded about the pole (``_series``):
    # expanded about 0, the frame at 1 + 1.5e-3 i erred by 1.8e-11 of its size
    pot = make_potential(trinoid_spec(1j, 1.0, 1.0, 1.0))
    lams = np.exp(2j * np.pi * np.arange(4) / 4)

    def xi_at(z):
        # q in factored form, lam h(lam) = (lam - i)(lam + i)
        x = np.zeros((lams.size, 2, 2), dtype=complex)
        x[:, 0, 1] = 1.0 / lams
        x[:, 1, 0] = (lams - 1j) * (lams + 1j) * (z * z - z + 1.0) / (16.0 * z * z * (z - 1.0) ** 2)
        return x

    for z in (1.0 + 1.5e-3j, 1.0 - 2e-3):
        got = transport(pot, DomainPath.line(0.5, z), np.broadcast_to(np.eye(2), (lams.size, 2, 2)), lams,
                        OdeOptions(1e-13))
        expected = reference(pot, 0.5, z, lams, xi_at)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


@settings(max_examples=20, deadline=None)
@given(seg=st.one_of(_radial_segment(), _trinoid_segment(), _custom_segment()))
def test_a_row_gets_the_same_rhs_alone_and_in_a_batch(seg):
    # a row's ODE coefficients in t are its own, elementwise: a node's series
    # does not depend on the batch it rode in (up to the last bit, which
    # numpy's complex loops may round differently for one value and for many)
    pot, z = seg
    a, s = pot.base_point, z - pot.base_point
    xi = xi_sampler(pot, window_samples(4))
    starts = np.array([a, 0.5 * (a + z)])
    d1, c1 = _series(xi, starts[:1], np.array([s]), pot.singular_points)
    d2, c2 = _series(xi, starts, np.array([s, 0.5 * s]), pot.singular_points)
    np.testing.assert_allclose(d2[:, 0], d1[:, 0], rtol=1e-15, atol=0)
    np.testing.assert_allclose(c2[..., 0, :], c1[..., 0, :], rtol=1e-15, atol=0)


def test_transport_winds_around_the_equivariant_pole():
    # from the base point 1 once around 0 and on to z: the exact route's
    # winding-1 frame exp((log z + 2 pi i) A(lam)), at the window samples
    pot = make_potential(equivariant_spec(0.75, 0.25, 0.1))
    lams = window_samples(4)
    a = xi_sampler(pot, lams).exact[1]
    for z in (0.6 + 0.3j, -0.9 - 0.2j, 1.3j):
        phi = np.linspace(0.0, 2.0 * np.pi + np.angle(z), 24)
        path = DomainPath(np.linspace(1.0, abs(z), 24) * np.exp(1j * phi))
        got = transport(pot, path, np.broadcast_to(np.eye(2), (lams.size, 2, 2)), lams, OdeOptions(1e-12))
        expected = np.stack([expm((np.log(z) + 2j * np.pi) * m) for m in a])
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)


@st.composite
def _polygon(draw):
    """A radial or trinoid potential and a closed or open polygon of 2-12
    segments in a disk clear of its poles, with a start value in SL(2, C)."""
    if draw(st.booleans()):
        pot, centre, radius = draw(_radial_segment())[0], 0.0, 0.8
    else:
        pot, centre, radius = draw(_trinoid_segment())[0], 0.5 + draw(st.sampled_from([0.45j, -0.45j])), 0.3
    closed = draw(st.booleans())
    n = draw(st.integers(2, 12))
    verts = [centre + radius * draw(_offset) for _ in range(n if closed else n + 1)]
    ring = verts + verts[:1] if closed else verts
    assume(all(abs(u - v) > 1e-3 for u, v in zip(ring, ring[1:])))
    b = draw(_offset)
    return pot, DomainPath(verts, closed=closed), np.array([[1.0, b], [0.0, 1.0]]) @ expm(np.array([[0, b], [-b, 0]]))


@settings(max_examples=30, deadline=None)
@given(case=_polygon(), theta=_spectral_angle)
def test_a_polygon_is_the_chain_of_its_segments(case, theta):
    # the segments' pieces ride as rows of one pass and their propagators are
    # multiplied together; chaining one-segment transports gives the same frame
    pot, path, y0 = case
    lams = np.exp(1j * (theta + 2.0 * np.pi * np.arange(8) / 8))
    opts = OdeOptions(tolerance=1e-12)
    got = transport(pot, path, np.broadcast_to(y0, (lams.size, 2, 2)), lams, opts)
    chain = np.broadcast_to(y0, (lams.size, 2, 2))
    for a, b in path.segments():
        chain = transport(pot, DomainPath.line(a, b), chain, lams, opts)
    assert np.abs(got - chain).max() <= 1e-10 * np.abs(chain).max()
    assert np.abs(np.linalg.det(got) - 1.0).max() <= 1e-12


@pytest.mark.parametrize("n_paths", [1, 3])
@pytest.mark.parametrize("n_segments", [1, 2, 7, 12])
def test_any_segment_count_makes_one_sweep(monkeypatch, n_paths, n_segments):
    passes = []
    propagators = holonomy._propagators
    monkeypatch.setattr(holonomy, "_propagators", lambda *args: passes.append(args[0].shape[1]) or propagators(*args))
    pot = make_potential(trinoid_spec(1j, 1.0, 1.0, 1.0))
    arc = 0.2 * np.exp(2j * np.pi * np.arange(n_segments + 1) / 13)
    paths = [DomainPath(0.5 + 0.1j * k + arc) for k in range(n_paths)]
    counts = OdeCounts()
    transport(pot, paths, np.broadcast_to(np.eye(2), (n_paths, 4, 2, 2)), window_samples(1), counts=counts)
    assert all(len(p.segments()) == n_segments for p in paths)
    # every piece of every segment is a row of one pass
    assert passes == [counts.steps] and counts.steps >= n_paths * n_segments
    assert 0 < counts.terms <= MAX_TERMS


def test_a_non_finite_term_is_located():
    # the weight 1e300 z^3 is harmless on a piece of length 1e-100 from 0 and
    # overflows the series at once from 0.25: the error names that piece's start
    pot = make_potential(custom_spec(
        [CustomTerm(-1, [[0, 1], [0, 0]]), CustomTerm(1, [[0, 0], [1, 0]], num=(0, 0, 0, 1e300))],
        poles=[], base_point=0.0,
    ))
    paths = [DomainPath.line(0.0, 1e-100), DomainPath.line(0.25, 0.5)]
    eye = np.broadcast_to(np.eye(2), (2, 3, 2, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationError, match=r"not finite on the piece from z = \(0\.25\+0j\)$"):
            transport(pot, paths, eye, window_samples(1)[:3])
    transport(pot, paths[0], eye[0], window_samples(1)[:3])


def test_a_series_that_does_not_converge_stops_at_the_term_cap(monkeypatch):
    # the pole of 1/(z - 0.3) left out of the singular set: the piece from
    # 0.2i to 0.5 is longer than its series' radius, so the series diverges;
    # the cap is read when the pass runs, so it is lowered to 40 terms here
    spec = custom_spec(
        [CustomTerm(-1, [[0, 1], [0, 0]]), CustomTerm(1, [[0, 0], [1, 0]], den=[-0.3, 1.0])],
        poles=[], base_point=0.0,
    )
    pot = Potential(spec, (), 0.0, make_potential(spec).terms)
    monkeypatch.setattr(holonomy, "MAX_TERMS", 40)
    paths = [DomainPath.line(0.0, 0.1j), DomainPath.line(0.2j, 0.5)]
    counts = OdeCounts()
    with pytest.raises(IntegrationError, match=r"does not converge in 40 terms on the piece from z = 0\.2j$"):
        transport(pot, paths, np.broadcast_to(np.eye(2), (2, 4, 2, 2)), window_samples(1), counts=counts)
    assert counts.steps == 0


def _undeclared_pole(p: complex) -> Potential:
    """xi = (lam^-1 E12 + lam E21) / (z - p) with its pole at p left out of
    the singular set, so no path is refused and no piece is cut short."""
    spec = custom_spec(
        [CustomTerm(-1, [[0, 1], [0, 0]], den=[-p, 1.0]), CustomTerm(1, [[0, 0], [1, 0]], den=[-p, 1.0])],
        poles=[], base_point=0.0,
    )
    return Potential(spec, (), 0.0, make_potential(spec).terms)


def test_dop853_reports_a_blow_up():
    # A = lam^-1 E12 + lam E21 has A^2 = I, so the frame from 0 is
    # cosh(L) I + sinh(L) A with L = log(1 - z / 0.5): it blows up at z = 0.5;
    # short of it the pass follows it, and a pass that runs into it ends
    # with an error naming the piece instead of returning a frame
    pot = _undeclared_pole(0.5)
    lams = window_samples(1)
    eye = np.broadcast_to(np.eye(2), (lams.size, 2, 2))
    a = np.zeros((lams.size, 2, 2), dtype=complex)
    a[:, 0, 1], a[:, 1, 0] = 1.0 / lams, lams
    for z in (0.3, 0.4):
        log = np.log(1.0 - z / 0.5)
        got = transport(pot, DomainPath.line(0.0, z), eye, lams, OdeOptions(1e-12))
        expected = np.cosh(log) * eye + np.sinh(log) * a
        assert np.abs(got - expected).max() <= 1e-11 * np.abs(expected).max()
    assert np.abs(got).max() > 2.5
    counts = OdeCounts()
    with pytest.raises(IntegrationError, match=rf"does not converge in {MAX_TERMS} terms on the piece from z = 0j$"):
        transport(pot, DomainPath.line(0.0, 0.5), eye, lams, counts=counts)
    assert counts.steps == 0


def test_dop853_stops_where_the_right_hand_side_is_not_finite():
    lams = window_samples(1)
    eye = np.broadcast_to(np.eye(2), (lams.size, 2, 2))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # not finite everywhere: a NaN weight fails the first term of the first piece
        nan = make_potential(custom_spec(
            [CustomTerm(-1, [[0, 1], [0, 0]]), CustomTerm(1, [[0, 0], [1, 0]], num=(np.nan,))],
            poles=[], base_point=0.0,
        ))
        with pytest.raises(IntegrationError, match=r"not finite on the piece from z = 0j$"):
            transport(nan, DomainPath.line(0.0, 0.5), eye, lams)
        # not finite at 0.5 alone: the second segment starts on the undeclared
        # pole, and its piece is named though the other rows are finite
        pot = _undeclared_pole(0.5)
        counts = OdeCounts()
        with pytest.raises(IntegrationError, match=r"not finite on the piece from z = \(0\.5\+0j\)$"):
            transport(pot, [DomainPath.line(0.0, 0.3), DomainPath.line(0.5, 0.7j)],
                      np.broadcast_to(np.eye(2), (2, lams.size, 2, 2)), lams, counts=counts)
    assert counts.steps == 0


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

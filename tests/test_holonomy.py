import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import loop_at
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients
from scipy.linalg import expm

from mlq.holonomy import (
    DomainPath,
    IntegrationError,
    OdeCounts,
    OdeOptions,
    circle_path,
    monodromy,
    transport,
    unitarizing_gauge,
    validate_path,
    _A,
    _B,
    _C,
    _E,
    _dop853,
    _planes,
    _right_mul,
    _segment_rhs,
)
from mlq.loops import coefficients, window_samples
from mlq.potentials import (
    CustomTerm,
    PoleError,
    Potential,
    custom_spec,
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


def as_rhs(fun):
    """The integrator's right-hand side for y' = fun(t, y): ``rhs(ts)`` gives
    ``stage(s, y, out)``, which writes fun(ts[s], y) into out."""
    return lambda ts: lambda s, y, out: np.copyto(out, fun(ts[s], y))


def rhs_at(rhs, t, y):
    """A segment right-hand side at one time t and state y."""
    out = np.empty_like(y)
    rhs([t])(0, y, out)
    return out


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


def test_dop853_tableau_is_scipys():
    # 114 typed literals: each must be the double scipy parses, not a near miss
    d = dop853_coefficients
    n = d.N_STAGES
    assert len(_C) == len(_A) == _B.size == _E.shape[1] == n
    assert np.array_equal(_C, d.C[:n])
    for s in range(1, n):
        assert np.array_equal(_A[s], d.A[s, :s]), s
        assert sum(_A[s]) == pytest.approx(_C[s], rel=0, abs=1e-14), s
    assert np.array_equal(_B, d.B)
    assert _B.sum() == pytest.approx(1.0, rel=0, abs=1e-14)
    # scipy's estimators also weigh the next step's first stage, by zero
    assert d.E5[n] == d.E3[n] == 0.0
    assert np.array_equal(_E, np.stack([d.E5[:n], d.E3[:n]]))


@settings(max_examples=20, deadline=None)
@given(
    seg=st.one_of(_radial_segment(), _trinoid_segment()),
    theta=_spectral_angle,
    m=st.sampled_from([1, 10, 64]),
    tol=st.sampled_from([1e-10, 1e-12]),
)
def test_dop853_matches_scipy_dop853(seg, theta, m, tol):
    pot, z = seg
    assume(abs(z - pot.base_point) > 1e-6)
    a, dz = pot.base_point, z - pot.base_point
    rhs = _segment_rhs(xi_sampler(pot, np.exp(1j * (theta + 2.0 * np.pi * np.arange(m) / m))), a, dz)
    # one row of component planes: the per-row norm is scipy's whole-state norm
    y0 = _planes(np.broadcast_to(np.eye(2, dtype=np.complex128), (1, m, 2, 2)))
    got = _dop853(rhs, y0, tol, lambda t: a + t * dz)
    sol = solve_ivp(
        lambda t, yr: rhs_at(rhs, t, yr.view(np.complex128).reshape(y0.shape)).ravel().view(np.float64),
        (0.0, 1.0),
        y0.ravel().view(np.float64),
        method="DOP853",
        rtol=tol,
        atol=tol,
    )
    assert sol.success
    expected = sol.y[:, -1].copy().view(np.complex128).reshape(y0.shape)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13)


@settings(max_examples=20, deadline=None)
@given(seg=st.one_of(_radial_segment(), _trinoid_segment()), t=st.floats(0.0, 1.0))
def test_a_row_gets_the_same_rhs_alone_and_in_a_batch(seg, t):
    # every batch size evaluates the weights on one array path, so a node's
    # frame does not depend on whether its transport ran alone
    pot, z = seg
    a, dz = pot.base_point, z - pot.base_point
    xi = xi_sampler(pot, window_samples(4))
    rng = np.random.default_rng(7)
    y = rng.normal(size=(2, 2, 2, 16)) + 1j * rng.normal(size=(2, 2, 2, 16))
    alone = rhs_at(_segment_rhs(xi, [a], [dz]), t, y[:, :, :1])
    batch = rhs_at(_segment_rhs(xi, [a, a], [dz, 0.5 * dz]), t, y)
    assert np.array_equal(alone[:, :, 0], batch[:, :, 0])


def dense_rhs(xi, a, dz, t, y):
    """Y xi(z) dz at one t with xi folded densely, all four entries of every
    array, and Y xi as the full 2x2 product: the plain reading of the right-hand side."""
    z = (a + t * dz)[:, None]
    x = _planes(xi.const)[:, :, None] * dz[:, None]
    for w, vals in xi.weighted:
        x = x + w(z) * (_planes(vals)[:, :, None] * dz[:, None])
    return _right_mul(y, x)


_coef = st.complex_numbers(max_magnitude=2.0)
#: the entries a lam-term of a drawn potential may fill: E12 alone leaves column 0 zero
_SHAPES = {"upper": ((0, 1),), "off-diagonal": ((0, 1), (1, 0)), "full": ((0, 0), (0, 1), (1, 0))}


@st.composite
def _custom_potential(draw):
    """A custom potential of 1-3 lam-terms, each with a rational weight whose
    poles lie outside |z| = 2.5, filling the entries of one shape (the (1, 1)
    entry of a full term is minus its (0, 0)), and with or without an
    unweighted lam^0 diagonal term."""
    shape = draw(st.sampled_from(sorted(_SHAPES)))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        mat = np.zeros((2, 2), dtype=complex)
        for ij in _SHAPES[shape]:
            mat[ij] = draw(_coef)
        mat[1, 1] = -mat[0, 0]
        num = draw(st.lists(_coef, min_size=1, max_size=3))
        den = [1.0, draw(st.complex_numbers(max_magnitude=0.4))]
        terms.append(CustomTerm(draw(st.integers(-1, 1)), mat.tolist(), tuple(num), tuple(den)))
    pot = make_potential(custom_spec(terms, poles=[], base_point=0.0))
    if draw(st.booleans()):
        d = draw(_coef)
        extra = ((None, None, {0: np.diag([d, -d])}),)
        pot = Potential(pot.spec, pot.singular_points, pot.base_point, pot.terms + extra)
    return pot


@settings(max_examples=60, deadline=None)
@given(
    pot=_custom_potential(),
    rows=st.lists(st.tuples(st.complex_numbers(max_magnitude=0.5), st.complex_numbers(max_magnitude=0.5)),
                  min_size=1, max_size=3),
    ts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
    thetas=st.lists(_spectral_angle, min_size=2, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_stage_product_is_the_dense_product_bit_for_bit(pot, rows, ts, thetas, seed):
    # xi is folded only at its nonzero entries, and each stage multiplies only
    # those; every value is the dense fold's and the full 2x2 product's.  At
    # least two lam per row: a plane of one value (one row at one lam) sends
    # numpy's complex multiply down another inner loop, which can round the
    # fold's w(z) v differently in the last bit
    xi = xi_sampler(pot, np.exp(1j * np.array(thetas)))
    a, dz = (np.array(c, dtype=complex) for c in zip(*rows))
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(2, 2, len(rows), len(thetas))) + 1j * rng.normal(size=(2, 2, len(rows), len(thetas)))
    together = _segment_rhs(xi, a, dz)(ts)
    alone = _segment_rhs(xi, a[:1], dz[:1])(ts)
    for s, t in enumerate(ts):
        dense = dense_rhs(xi, a, dz, t, y)
        got, one, first = np.full_like(y, np.nan), np.full_like(y, np.nan), np.full_like(y[:, :, :1], np.nan)
        together(s, y, got)
        _segment_rhs(xi, a, dz)([t])(0, y, one)
        alone(s, y[:, :, :1], first)
        assert np.array_equal(got, dense)
        assert np.array_equal(one, dense)
        assert np.array_equal(first, dense[:, :, :1])


def test_a_step_calls_each_weight_once():
    # the weights see all of a step's 12 stage times in one call: one call per
    # attempted step, plus the first evaluation and the initial-step probe,
    # while each of the 12 stage products is still one right-hand-side call
    base = make_potential(custom_spec(
        [CustomTerm(-1, [[0, 1], [0, 0]]), CustomTerm(-1, [[0, 0], [1, 0]], num=(0.5, 0.0, 1.0), den=(1.0, 0.2))],
        poles=[-5.0], base_point=0.0,
    ))
    (w, _, lam_terms), *rest = base.terms[::-1]
    shapes = []

    def counted(z):
        shapes.append(z.shape)
        return w(z)

    pot = Potential(base.spec, base.singular_points, base.base_point, ((counted, None, lam_terms), *rest))
    counts = OdeCounts()
    paths = [DomainPath.line(0.0, 1.5 + 0.8j), DomainPath.line(0.0, -1.2j)]
    transport(pot, paths, np.broadcast_to(np.eye(2), (2, 8, 2, 2)), window_samples(2), OdeOptions(1e-12), counts)
    assert counts.steps > 1
    assert len(shapes) == 2 + counts.steps
    assert shapes == [(1, 2, 1)] * 2 + [(12, 2, 1)] * counts.steps
    assert counts.rhs_calls == 2 + 12 * counts.steps



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
    # the segments ride as rows of one sweep and their propagators are
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
def test_any_segment_count_makes_one_sweep(n_paths, n_segments):
    pot = make_potential(trinoid_spec(1j, 1.0, 1.0, 1.0))
    arc = 0.2 * np.exp(2j * np.pi * np.arange(n_segments + 1) / 13)
    paths = [DomainPath(0.5 + 0.1j * k + arc) for k in range(n_paths)]
    counts = OdeCounts()
    transport(pot, paths, np.broadcast_to(np.eye(2), (n_paths, 4, 2, 2)), window_samples(1), counts=counts)
    assert all(len(p.segments()) == n_segments for p in paths)
    # the first evaluation and the initial-step probe, then 12 per step: one sweep
    assert counts.steps > 0
    assert counts.rhs_calls == 2 + 12 * counts.steps


def test_dop853_reports_a_blow_up():
    # y' = y^2 from y(0) = 2 blows up at t = 1/2
    with pytest.raises(IntegrationError, match="z = 0.5"):
        with np.errstate(over="ignore", invalid="ignore"):
            _dop853(as_rhs(lambda t, y: y * y), np.full((1, 2, 2), 2.0 + 0j), 1e-10, lambda t: round(t, 3))


def test_dop853_stops_where_the_right_hand_side_is_not_finite():
    # a NaN step size survives min() and max() and fails every comparison, so
    # the underflow test never fired and the sweep never returned
    where = []

    def z_at(t):
        where.append(t)
        return t

    y0 = np.full((1, 2, 2), 1.0 + 0j)
    with np.errstate(over="ignore", invalid="ignore"):
        # not finite from the first evaluation: the initial step is NaN
        with pytest.raises(IntegrationError, match="z = 0.0: .*not finite"):
            _dop853(as_rhs(lambda t, y: y * np.nan), y0, 1e-10, z_at)
        # not finite from t = 0.3 on: the step that reaches past it fails at the last accepted t
        with pytest.raises(IntegrationError, match="not finite"):
            _dop853(as_rhs(lambda t, y: y if t < 0.3 else y * np.nan), y0, 1e-10, z_at)
    assert 0.0 < where[-1] < 0.3


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

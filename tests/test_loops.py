import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import loop_at

from mlq.loops import coefficients, ct2, eigvalsh2, inv2, mul2, plus_values, sqrth2, unitary_q2, window_samples
from mlq.verify import CENTRE, _jacobians

RNG = np.random.default_rng(1234)


def random_terms(k_min: int, k_max: int) -> dict[int, np.ndarray]:
    return {
        k: RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2)) for k in range(k_min, k_max + 1)
    }


def test_from_terms_and_coefficient():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[0.0, 1j], [-1j, 0.0]])
    c = coefficients(loop_at({-2: a, 1: b}, window_samples(2)))
    assert c.shape == (8, 2, 2)
    # entry k mod 8 holds the coefficient of lam^k
    np.testing.assert_allclose(c[6], a, atol=1e-15)
    np.testing.assert_allclose(c[1], b, atol=1e-15)
    np.testing.assert_allclose(c[[0, 2, 3, 4, 5, 7]], 0.0, atol=1e-15)


def test_identity_and_const():
    np.testing.assert_array_equal(plus_values(np.eye(2)[None], 8), np.broadcast_to(np.eye(2), (8, 2, 2)))
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(plus_values(m[None], 4), np.broadcast_to(m, (4, 2, 2)))


def test_bad_shapes_rejected():
    # a plus loop of degree >= M cannot be read exactly at M samples
    with pytest.raises(ValueError, match="cannot be read"):
        plus_values(np.zeros((9, 2, 2), dtype=complex), 8)


def test_eval_matches_power_sum():
    terms = random_terms(0, 5)
    b = np.array([terms[k] for k in range(6)])
    lams = window_samples(4)
    expected = [sum(terms[k] * lam**k for k in terms) for lam in lams]
    np.testing.assert_allclose(plus_values(b, 16), expected, atol=1e-13)
    # and back: the 16 samples resolve all six coefficients
    np.testing.assert_allclose(coefficients(plus_values(b, 16))[:6], b, atol=1e-14)


def test_projection_from_samples_recovers_coefficients():
    terms = random_terms(-3, 3)
    lams = window_samples(5)
    assert lams.size == 20
    c = coefficients(loop_at(terms, lams))
    for k in range(-3, 4):
        np.testing.assert_allclose(c[k % 20], terms[k], atol=1e-13)
    np.testing.assert_allclose(c[4:17], 0.0, atol=1e-13)


def test_modes_beyond_the_samples_alias():
    # 4 samples resolve the modes -1..2; mode k lands on k mod 4
    terms = random_terms(-3, 3)
    c = coefficients(loop_at(terms, window_samples(1)))
    np.testing.assert_allclose(c[0], terms[0], atol=1e-13)
    np.testing.assert_allclose(c[1], terms[-3] + terms[1], atol=1e-13)
    np.testing.assert_allclose(c[2], terms[-2] + terms[2], atol=1e-13)
    np.testing.assert_allclose(c[3], terms[-1] + terms[3], atol=1e-13)


EPS = np.finfo(float).eps


@st.composite
def stacks(draw):
    """1-8 complex 2x2 matrices: Gaussian at a scale 1e-3..1e3, or SL(2) frames
    U diag(s, 1/s) V whose P = Phi* Phi has condition number s^4 up to 1e8."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 8))
    gaussian = rng.standard_normal((3, k, 2, 2)) + 1j * rng.standard_normal((3, k, 2, 2))
    if draw(st.booleans()):
        return 10.0 ** draw(st.floats(-3.0, 3.0)) * gaussian[0]
    u, v = np.linalg.qr(gaussian[1])[0], np.linalg.qr(gaussian[2])[0]
    s = 10.0 ** draw(st.floats(0.0, 2.0))
    return u @ np.diag([s, 1 / s]) @ v


def norms(a: np.ndarray) -> np.ndarray:
    return np.linalg.norm(a, axis=(-2, -1))


@settings(max_examples=60, deadline=None)
@given(a=stacks(), b=stacks())
def test_mul2_is_matmul(a, b):
    k = min(len(a), len(b))
    a, b = a[:k], b[:k]
    for x, y in ((a, b), (ct2(a), a)):
        err = np.abs(mul2(x, y) - x @ y).max(axis=(-2, -1))
        assert (err <= 4 * EPS * norms(x) * norms(y)).all()
    assert np.array_equal(ct2(a), np.conj(np.swapaxes(a, -1, -2)))


@settings(max_examples=60, deadline=None)
@given(a=stacks())
def test_inv2_inverts(a):
    err = np.abs(mul2(inv2(a), a) - np.eye(2)).max(axis=(-2, -1))
    assert (err <= 4 * EPS * norms(a) * norms(np.linalg.inv(a))).all()


def exact_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian 2x2, from its diagonal and lower entry, at 40 digits."""
    with mpmath.workdps(40):
        a, d = mpmath.mpf(h[0, 0].real), mpmath.mpf(h[1, 1].real)
        b = mpmath.mpc(h[1, 0].real, h[1, 0].imag)
        mean, r = (a + d) / 2, mpmath.sqrt(((a - d) / 2) ** 2 + abs(b) ** 2)
        return np.array([float(mean - r), float(mean + r)])


@settings(max_examples=60, deadline=None)
@given(a=stacks())
def test_eigvalsh2_is_eigvalsh(a):
    # P = Phi* Phi as the split's precheck forms it, and the Gaussians' own Hermitian parts
    for h in (mul2(ct2(a), a), 0.5 * (a + ct2(a))):
        h = 0.5 * (h + ct2(h))
        got, size = eigvalsh2(h), np.abs(np.linalg.eigvalsh(h)).max(axis=-1, keepdims=True)
        exact = np.array([exact_eigenvalues(m) for m in h])
        assert (np.abs(got - exact) <= 2 * EPS * size).all()
        # LAPACK's own error reaches about 5.3 eps ||h|| on these stacks
        assert (np.abs(got - np.linalg.eigvalsh(h)) <= 8 * EPS * size).all()


@settings(max_examples=25, deadline=None)
@given(b=stacks())
def test_unitary_q2_is_the_normalized_qr_factor(b):
    q = unitary_q2(b)
    assert (np.abs(mul2(ct2(q), q) - np.eye(2)).max(axis=(-2, -1)) <= 8 * EPS).all()
    # Q* B is upper triangular with a real positive diagonal
    r, size = mul2(ct2(q), b), norms(b)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    assert (np.abs(r[..., 1, 0]) <= 4 * EPS * size).all()
    assert (diag.real > 0).all() and (np.abs(diag.imag).max(axis=-1) <= 4 * EPS * size).all()
    # LAPACK's Q, its columns turned by the phases of R's diagonal
    q0, r0 = np.linalg.qr(b)
    d = np.diagonal(r0, axis1=-2, axis2=-1)
    expected = q0 * (d / np.abs(d))[..., None, :]
    assert (np.abs(q - expected).max(axis=(-2, -1)) <= 1e-14 * np.linalg.cond(b)).all()


@settings(max_examples=25, deadline=None)
@given(b=stacks(), zero=st.lists(st.booleans(), min_size=8, max_size=8), singular=st.booleans())
def test_unitary_q2_of_a_zero_column_or_determinant_is_finite(b, zero, singular):
    # a zero first column, or a zero determinant, takes no division by zero (a RuntimeWarning is an error here)
    b = b.copy()
    b[np.array(zero[: len(b)]), :, 0] = 0.0
    if singular:
        b[..., :, 1] = 2.0 * b[..., :, 0]
    q = unitary_q2(b)
    assert np.isfinite(q).all()
    assert (np.abs(mul2(ct2(q), q) - np.eye(2)).max(axis=(-2, -1)) <= 8 * EPS).all()


@settings(max_examples=25, deadline=None)
@given(a=stacks())
def test_sqrth2_is_the_hermitian_positive_root(a):
    m = mul2(ct2(a), a)
    m = 0.5 * (m + ct2(m))
    s = sqrth2(m)
    assert np.array_equal(s, ct2(s))
    assert (np.linalg.eigvalsh(s)[..., 0] > 0).all()
    assert (np.abs(mul2(s, s) - m).max(axis=(-2, -1)) <= 1e-14 * norms(m)).all()
    # the root through LAPACK's eigenvectors, whose error grows like sqrt(cond M)
    w, v = np.linalg.eigh(m)
    expected = (v * np.sqrt(w)[..., None, :]) @ ct2(v)
    bound = 1e-14 * norms(s) * np.sqrt(np.linalg.cond(m))
    assert (np.abs(s - expected).max(axis=(-2, -1)) <= bound).all()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scales=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
def test_the_jacobian_triple_product_is_the_determinant(seed, scales):
    # det{m, m_x, m_y} as m . (m_x x m_y), each column at its own scale
    rng = np.random.default_rng(seed)
    m = np.zeros((13, 2, 3))
    m[CENTRE] = 10.0 ** scales[0] * rng.standard_normal((2, 3))
    mz = np.zeros((13, 2, 3), dtype=np.complex128)
    mx, my = (10.0**k * rng.standard_normal((2, 3)) for k in scales[1:])
    mz[0] = 0.5 * (mx - 1j * my)
    cols = np.stack([m[CENTRE], 2 * mz[0].real, -2 * mz[0].imag], axis=-1)
    scale = np.prod(np.linalg.norm(cols, axis=-2), axis=-1)
    assert (np.abs(_jacobians(m, mz) - np.linalg.det(cols)) <= 1e-14 * scale).all()

import numpy as np
import pytest
from oracles import loop_at

from mlq.loops import coefficients, plus_values, window_samples

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

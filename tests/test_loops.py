import numpy as np
import pytest

from mlq.loops import (
    LaurentLoop,
    loop_eval,
    loop_eval_many,
    loop_from_samples,
    loop_trim,
    twist_check,
    unitarity_error,
    window_samples,
)

RNG = np.random.default_rng(1234)


def random_loop(k_min: int, k_max: int) -> LaurentLoop:
    k = k_max - k_min + 1
    c = RNG.standard_normal((k, 2, 2)) + 1j * RNG.standard_normal((k, 2, 2))
    return LaurentLoop(c, k_min)


def circle(n: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(n) / n)


def test_from_terms_and_coefficient():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[0.0, 1j], [-1j, 0.0]])
    loop = LaurentLoop.from_terms({-2: a, 1: b})
    assert loop.k_min == -2
    assert loop.k_max == 1
    np.testing.assert_array_equal(loop.coefficient(-2), a)
    np.testing.assert_array_equal(loop.coefficient(1), b)
    np.testing.assert_array_equal(loop.coefficient(0), np.zeros((2, 2)))
    np.testing.assert_array_equal(loop.coefficient(5), np.zeros((2, 2)))


def test_identity_and_const():
    np.testing.assert_array_equal(loop_eval(LaurentLoop.identity(), 0.3 + 0.4j), np.eye(2))
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(loop_eval(LaurentLoop.from_const(m), -1.0), m)


def test_bad_shapes_rejected():
    with pytest.raises(ValueError):
        LaurentLoop(np.zeros((2, 3, 3)), 0)
    with pytest.raises(ValueError):
        LaurentLoop(np.zeros((0, 2, 2)), 0)
    with pytest.raises(ValueError):
        LaurentLoop.from_terms({})
    with pytest.raises(ValueError):
        LaurentLoop.from_const(np.zeros((3, 3)))


def test_eval_matches_power_sum():
    loop = random_loop(-3, 2)
    for lam in (1.0, 1j, np.exp(0.7j), 2.0 - 1.0j):
        expected = sum(
            loop.coefficient(k) * lam**k for k in range(loop.k_min, loop.k_max + 1)
        )
        np.testing.assert_allclose(loop_eval(loop, lam), expected, atol=1e-13)


def test_eval_at_zero_needs_nonnegative_powers():
    plus = random_loop(0, 3)
    np.testing.assert_allclose(loop_eval(plus, 0.0), plus.coefficient(0))
    with pytest.raises(ValueError):
        loop_eval(random_loop(-1, 1), 0.0)


def test_eval_many_consistent_with_eval():
    loop = random_loop(-2, 4)
    lams = circle(9)
    vals = loop_eval_many(loop, lams)
    for i, lam in enumerate(lams):
        np.testing.assert_allclose(vals[i], loop_eval(loop, lam), atol=1e-13)


def test_trim_drops_zero_blocks():
    coeffs = np.zeros((5, 2, 2), dtype=complex)
    coeffs[2] = np.eye(2)
    trimmed = loop_trim(LaurentLoop(coeffs, -3))
    assert trimmed.k_min == -1
    assert trimmed.k_max == -1
    np.testing.assert_array_equal(trimmed.coeffs[0], np.eye(2))


def test_twist_check_separates_parities():
    diag = np.diag([1.0, -2.0])
    offd = np.array([[0.0, 1.0], [0.5, 0.0]])
    twisted = LaurentLoop.from_terms({-2: diag, -1: offd, 0: diag, 1: offd})
    assert twist_check(twisted).max_violation == 0.0
    broken = LaurentLoop.from_terms({0: offd})
    rep = twist_check(broken)
    assert rep.max_even_offdiag == 1.0
    assert rep.max_odd_diag == 0.0


def test_unitarity_error_detects_nonunitary():
    u = LaurentLoop.from_const(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert unitarity_error(u) < 1e-14
    assert unitarity_error(LaurentLoop(2.0 * u.coeffs, 0)) > 1.0


def test_projection_from_samples_recovers_coefficients():
    loop = random_loop(-3, 3)
    lams = window_samples(5)
    assert lams.size == 20
    back = loop_from_samples(loop_eval_many(loop, lams), 5)
    assert back.k_min == -5 and back.k_max == 5
    np.testing.assert_allclose(back.coeffs[2:-2], loop.coeffs, atol=1e-13)
    np.testing.assert_allclose(back.coeffs[[0, 1, -2, -1]], 0.0, atol=1e-13)
    assert back.tail_norm < 1e-13


def test_projection_reports_the_dropped_mass():
    # 8 samples resolve modes -3..4 without aliasing; the window keeps -2..2
    loop = random_loop(-3, 3)
    back = loop_from_samples(loop_eval_many(loop, window_samples(2)), 2)
    np.testing.assert_allclose(back.coeffs, loop.coeffs[1:-1], atol=1e-13)
    dropped = np.linalg.norm(loop.coeffs[[0, -1]])
    assert back.tail_norm == pytest.approx(dropped, rel=1e-12)
    with pytest.raises(ValueError):
        loop_from_samples(loop_eval_many(loop, circle(4)), 2)

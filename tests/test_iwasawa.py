import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlq.closedform import sphere_frame, torus_frame
from mlq.holonomy import DomainPath, OdeOptions, transport
from mlq.iwasawa import (
    FactorizationError,
    IwasawaResult,
    iwasawa,
    spectral_factor_plus,
)
from mlq.loops import (
    LaurentLoop,
    loop_eval,
    loop_eval_many,
    loop_from_samples,
    twist_check,
    unitarity_error,
    window_samples,
)
from mlq.potentials import make_potential, sphere_spec, torus_spec

CIRCLE = np.exp(2j * np.pi * np.arange(16) / 16)


def frame_at(spec, z: complex, window: int = 12) -> np.ndarray:
    """Phi from the base point to z, at the window's 4N roots of unity."""
    pot = make_potential(spec)
    lams = window_samples(window)
    return transport(
        pot, DomainPath.line(pot.base_point, z), np.broadcast_to(np.eye(2), (lams.size, 2, 2)),
        lams, OdeOptions(tolerance=1e-12),
    )


def symbol(b: LaurentLoop) -> LaurentLoop:
    """P = B* B, read off its values on the circle."""
    vals = loop_eval_many(b, CIRCLE)
    return loop_from_samples(np.conj(vals.transpose(0, 2, 1)) @ vals, b.k_max)


def assert_normalized_splitting(res: IwasawaResult, phi: np.ndarray, tol: float):
    assert res.unitarity_error <= tol
    assert res.residual <= tol
    # B extends holomorphically inside the circle
    assert res.B.k_min == 0
    b0 = res.B.coefficient(0)
    assert abs(b0[1, 0]) <= tol
    assert b0[0, 0].real > 0 and b0[1, 1].real > 0
    assert abs(b0[0, 0].imag) <= tol and abs(b0[1, 1].imag) <= tol
    lams = window_samples(phi.shape[0] // 4)
    recon = loop_eval_many(res.F, lams) @ loop_eval_many(res.B, lams)
    np.testing.assert_allclose(recon, phi, atol=10 * tol)


def test_split_sphere_frame():
    phi = frame_at(sphere_spec(), 0.8 - 0.3j)
    res = iwasawa(phi, tol=1e-11)
    assert_normalized_splitting(res, phi, 1e-9)


def test_split_torus_frame():
    phi = frame_at(torus_spec(), -0.4 + 0.6j)
    res = iwasawa(phi, tol=1e-11)
    assert_normalized_splitting(res, phi, 1e-9)


def test_unitary_input_is_fixed_point():
    phi = frame_at(torus_spec(), 0.5 + 0.5j)
    f = iwasawa(phi, tol=1e-11).F
    res = iwasawa(loop_eval_many(f, window_samples(12)), tol=1e-11)
    # F is already unitary, so B must be the identity
    np.testing.assert_allclose(res.B.coefficient(0), np.eye(2), atol=1e-8)
    assert max(
        np.linalg.norm(res.B.coefficient(k)) for k in range(1, res.B.k_max + 1)
    ) < 1e-8


def test_unitary_factor_invariant_under_plus_multiplication():
    phi = frame_at(sphere_spec(), 0.6 + 0.1j, window=14)
    # twisted plus loop: even diagonal, odd off-diagonal
    p = LaurentLoop.from_terms(
        {
            0: np.array([[1.0, 0.0], [0.0, 2.0]]),
            1: np.array([[0.0, 0.3], [0.0, 0.0]]),
            2: np.array([[0.1, 0.0], [0.0, 0.0]]),
        }
    )
    f1 = iwasawa(phi, tol=1e-11).F
    f2 = iwasawa(phi @ loop_eval_many(p, window_samples(14)), tol=1e-11).F
    np.testing.assert_allclose(
        loop_eval_many(f1, CIRCLE), loop_eval_many(f2, CIRCLE), atol=1e-8
    )


def test_rejects_nonpositive_symbols():
    singular = LaurentLoop.from_const(np.diag([1.0, 0.0]))
    with pytest.raises(FactorizationError):
        spectral_factor_plus(singular)  # S* S = S
    not_hermitian = LaurentLoop.from_terms({1: np.eye(2)})
    with pytest.raises(FactorizationError):
        spectral_factor_plus(not_hermitian)


def test_window_must_be_positive():
    # Phi must come as 4N samples of 2x2 matrices, N >= 1
    for shape in ((0, 2, 2), (6, 2, 2), (8, 2), (8, 3, 3)):
        with pytest.raises(ValueError, match="4N"):
            iwasawa(np.ones(shape, dtype=complex))


def test_spectral_factor_reconstructs_symbol():
    b = LaurentLoop.from_terms(
        {0: np.array([[1.5, 0.4], [0.0, 0.9]]), 1: np.array([[0.2, 0.0], [0.3, 0.1]])}
    )
    p = symbol(b)
    b2 = spectral_factor_plus(p, tol=1e-11)
    np.testing.assert_allclose(
        loop_eval_many(symbol(b2), CIRCLE), loop_eval_many(p, CIRCLE), atol=1e-9
    )
    assert b2.k_min == 0
    assert abs(b2.coefficient(0)[1, 0]) < 1e-9


def test_factor_unitary_on_circle_only():
    # F is unitary on |lam| = 1 but genuinely non-constant in lam
    phi = frame_at(torus_spec(), 0.7)
    f = iwasawa(phi, tol=1e-11).F
    assert unitarity_error(f) < 1e-9
    inside = loop_eval(f, 0.5)
    assert np.abs(inside @ inside.conj().T - np.eye(2)).max() > 1e-3


def twisted_plus_loop(rng: np.random.Generator, degree: int) -> LaurentLoop:
    """Random twisted plus loop, B_0 diagonal positive, invertible on the closed disc."""
    coeffs = rng.standard_normal((degree + 1, 2, 2)) + 1j * rng.standard_normal((degree + 1, 2, 2))
    coeffs[0::2] *= np.eye(2)  # even powers diagonal
    coeffs[1::2] *= 1 - np.eye(2)  # odd powers off-diagonal
    coeffs[0] = np.diag(rng.uniform(0.5, 2.0, 2))
    # ||B_0^{-1}|| sum_k ||B_k|| < 1 keeps det B away from zero for |lam| <= 1
    higher = np.linalg.norm(coeffs[1:], ord=2, axis=(1, 2)).sum()
    coeffs[1:] *= rng.uniform(0.1, 0.6) * coeffs[0].diagonal().real.min() / higher
    return LaurentLoop(coeffs, 0)


@settings(max_examples=20, deadline=None)
@given(
    factors=st.lists(
        st.tuples(st.sampled_from([sphere_frame, torus_frame]), st.complex_numbers(max_magnitude=0.4)),
        min_size=1,
        max_size=3,
    ),
    degree=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_split_recovers_a_known_factorization(factors, degree, seed):
    n = 16
    lams = window_samples(n)
    f_true = np.broadcast_to(np.eye(2, dtype=complex), (lams.size, 2, 2))
    for frame, z in factors:
        f_true = f_true @ np.array([frame(z, lam) for lam in lams])
    b_true = twisted_plus_loop(np.random.default_rng(seed), degree)

    res = iwasawa(f_true @ loop_eval_many(b_true, lams), tol=1e-12)
    assert (res.F.k_min, res.F.k_max) == (-n, n)
    np.testing.assert_allclose(loop_eval_many(res.F, lams), f_true, rtol=0, atol=1e-12)
    np.testing.assert_allclose(res.B.coeffs[: degree + 1], b_true.coeffs, rtol=0, atol=1e-12)
    np.testing.assert_allclose(res.B.coeffs[degree + 1 :], 0.0, rtol=0, atol=1e-12)
    assert twist_check(res.F).max_violation < 1e-12

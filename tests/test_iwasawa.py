import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import loop_at

from mlq.closedform import sphere_frame, torus_frame
from mlq.holonomy import DomainPath, OdeOptions, transport
from mlq.iwasawa import (
    FactorizationError,
    IwasawaResult,
    _factor_residual,
    iwasawa,
    spectral_factor_plus,
)
from mlq.loops import coefficients, window_samples
from mlq.potentials import make_potential, sphere_spec, torus_spec

SIGMA3 = np.diag([1.0, -1.0])


def frame_at(spec, z: complex, window: int = 12) -> np.ndarray:
    """Phi from the base point to z, at the window's 4N roots of unity."""
    pot = make_potential(spec)
    lams = window_samples(window)
    return transport(
        pot, DomainPath.line(pot.base_point, z), np.broadcast_to(np.eye(2), (lams.size, 2, 2)),
        lams, OdeOptions(tolerance=1e-12),
    )


def symbol(b: np.ndarray, m: int) -> np.ndarray:
    """P = B* B at the m-th roots of unity, for B given by its coefficients B_0, B_1, ..."""
    vals = loop_at(dict(enumerate(b)), window_samples(m // 4))
    return np.conj(vals.transpose(0, 2, 1)) @ vals


def assert_normalized_splitting(res: IwasawaResult, phi: np.ndarray, tol: float):
    assert res.unitarity_error <= tol
    # B extends holomorphically inside the circle: coefficients B_0..B_{2N-1}
    assert res.B.shape == (phi.shape[0] // 2, 2, 2)
    b0 = res.B[0]
    assert abs(b0[1, 0]) <= tol
    assert b0[0, 0].real > 0 and b0[1, 1].real > 0
    assert abs(b0[0, 0].imag) <= tol and abs(b0[1, 1].imag) <= tol
    recon = res.F @ loop_at(dict(enumerate(res.B)), window_samples(phi.shape[0] // 4))
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
    res = iwasawa(f, tol=1e-11)
    # F is already unitary, so B must be the identity
    np.testing.assert_allclose(res.B[0], np.eye(2), atol=1e-8)
    assert np.linalg.norm(res.B[1:], axis=(1, 2)).max() < 1e-8


def test_unitary_factor_invariant_under_plus_multiplication():
    phi = frame_at(sphere_spec(), 0.6 + 0.1j, window=14)
    # twisted plus loop: even diagonal, odd off-diagonal
    p = {
        0: np.array([[1.0, 0.0], [0.0, 2.0]]),
        1: np.array([[0.0, 0.3], [0.0, 0.0]]),
        2: np.array([[0.1, 0.0], [0.0, 0.0]]),
    }
    f1 = iwasawa(phi, tol=1e-11).F
    f2 = iwasawa(phi @ loop_at(p, window_samples(14)), tol=1e-11).F
    np.testing.assert_allclose(f1, f2, atol=1e-8)


def test_rejects_nonpositive_symbols():
    singular = np.broadcast_to(np.diag([1.0, 0.0]), (16, 2, 2))
    with pytest.raises(FactorizationError):
        spectral_factor_plus(singular)  # S* S = S
    not_hermitian = loop_at({1: np.eye(2)}, window_samples(4))
    with pytest.raises(FactorizationError, match="Hermitian"):
        spectral_factor_plus(not_hermitian)


def test_window_must_be_positive():
    # Phi must come as 4N samples of 2x2 matrices, N >= 1
    for shape in ((0, 2, 2), (6, 2, 2), (8, 2), (8, 3, 3)):
        with pytest.raises(ValueError, match="4N"):
            iwasawa(np.ones(shape, dtype=complex))


def test_spectral_factor_reconstructs_symbol():
    b = np.array([[[1.5, 0.4], [0.0, 0.9]], [[0.2, 0.0], [0.3, 0.1]]])
    p = symbol(b, 16)
    b2 = spectral_factor_plus(p, tol=1e-11)
    assert b2.shape == (8, 2, 2)
    np.testing.assert_allclose(symbol(b2, 16), p, atol=1e-9)
    assert abs(b2[0][1, 0]) < 1e-9


def test_spectral_factor_drops_the_nyquist_mode():
    # 16 samples resolve P's modes |k| <= 7; the mode lam^8 (-1)^j is not factorized
    b = np.array([[[1.5, 0.4], [0.0, 0.9]], [[0.2, 0.0], [0.3, 0.1]]])
    p = symbol(b, 16)
    nyquist = 0.1 * (-1.0) ** np.arange(16)
    b2 = spectral_factor_plus(p + nyquist[:, None, None] * np.eye(2), tol=1e-11)
    np.testing.assert_allclose(symbol(b2, 16), p, atol=1e-9)


def test_factor_residual_resolves_every_mode():
    # at N = 16, i (mu^16 - mu^-16) vanishes on the 32nd roots of unity but
    # not on the 64 samples the residual runs on
    b = np.zeros((32, 2, 2), dtype=complex)
    b[0] = [[1.5, 0.4], [0.0, 0.9]]
    b[1] = [[0.0, 0.2], [0.3, 0.0]]
    eps = 1e-6
    mu = window_samples(16)
    bump = (1j * (mu**16 - mu**-16))[:, None, None] * np.eye(2)
    assert np.abs(bump[::2]).max() < 1e-12
    assert _factor_residual(b, symbol(b, 64) + eps * bump) >= eps
    assert _factor_residual(b, symbol(b, 64)) < 1e-13


def test_factor_unitary_on_circle_only():
    # F is unitary on |lam| = 1 but genuinely non-constant in lam
    phi = frame_at(torus_spec(), 0.7)
    res = iwasawa(phi, tol=1e-11)
    assert res.unitarity_error < 1e-9
    c = coefficients(res.F)
    inside = loop_at({k: c[k % 48] for k in range(-12, 13)}, [0.5])[0]
    assert np.abs(inside @ inside.conj().T - np.eye(2)).max() > 1e-3


def twisted_plus_loop(rng: np.random.Generator, degree: int) -> np.ndarray:
    """Random twisted plus loop, B_0 diagonal positive, invertible on the closed disc."""
    coeffs = rng.standard_normal((degree + 1, 2, 2)) + 1j * rng.standard_normal((degree + 1, 2, 2))
    coeffs[0::2] *= np.eye(2)  # even powers diagonal
    coeffs[1::2] *= 1 - np.eye(2)  # odd powers off-diagonal
    coeffs[0] = np.diag(rng.uniform(0.5, 2.0, 2))
    # ||B_0^{-1}|| sum_k ||B_k|| < 1 keeps det B away from zero for |lam| <= 1
    higher = np.linalg.norm(coeffs[1:], ord=2, axis=(1, 2)).sum()
    coeffs[1:] *= rng.uniform(0.1, 0.6) * coeffs[0].diagonal().real.min() / higher
    return coeffs


@settings(max_examples=20, deadline=None)
@given(
    factors=st.lists(
        st.tuples(st.sampled_from([sphere_frame, torus_frame]), st.complex_numbers(max_magnitude=0.4)),
        min_size=1,
        max_size=3,
    ),
    degree=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    theta=st.floats(0.0, 2.0 * np.pi),
)
def test_split_recovers_a_known_factorization(factors, degree, seed, theta):
    # Phi sampled on the circle rotated by lam0: the split of mu -> Phi(lam0 mu)
    # is F(lam0 mu) B(lam0 mu), so F comes back at the rotated points
    n = 16
    lam0 = np.exp(1j * theta)
    lams = lam0 * window_samples(n)
    f_true = np.broadcast_to(np.eye(2, dtype=complex), (lams.size, 2, 2))
    for frame, z in factors:
        f_true = f_true @ np.array([frame(z, lam) for lam in lams])
    b_true = twisted_plus_loop(np.random.default_rng(seed), degree)

    res = iwasawa(f_true @ loop_at(dict(enumerate(b_true)), lams), tol=1e-12)
    assert res.F.shape == (4 * n, 2, 2)
    np.testing.assert_allclose(res.F, f_true, rtol=0, atol=1e-12)
    b_rotated = b_true * (lam0 ** np.arange(degree + 1))[:, None, None]
    np.testing.assert_allclose(res.B[: degree + 1], b_rotated, rtol=0, atol=1e-12)
    np.testing.assert_allclose(res.B[degree + 1 :], 0.0, rtol=0, atol=1e-12)
    # twisted: sigma_3 F(-lam) sigma_3 = F(lam), and -lam is 2N samples on
    flipped = SIGMA3 @ np.roll(res.F, -2 * n, axis=0) @ SIGMA3
    assert np.linalg.norm(flipped - res.F, axis=(1, 2)).max() < 1e-12

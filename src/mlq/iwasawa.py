"""Loop-group Iwasawa decomposition Phi = F B.

F is unitary on the unit circle, B extends holomorphically inside with
B(0) upper triangular and positive diagonal.  Phi comes in as its values at
the 4N roots of unity, and the split works on those samples.  B is the
matrix spectral factor of the Hermitian positive loop P = Phi* Phi, formed
pointwise and read off by one FFT: a Bauer-type method assembles the
block-Toeplitz matrix of the Fourier coefficients of P, Cholesky-factorizes
a finite section, and reads the plus-factor coefficients off the last block
row.  The section size is grown until the factorization residual on circle
samples is below tolerance.  F = Phi B^{-1} is formed at the samples too;
coefficients appear only when F is projected onto the window [-N, N].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .loops import (
    LaurentLoop,
    loop_eval_many,
    loop_from_samples,
    loop_trim,
    unitarity_error,
    window_samples,
)

DEFAULT_TOL = 1e-9

_CIRCLE_SAMPLES = 32


class FactorizationError(RuntimeError):
    """The loop is not factorizable (not Hermitian / not positive definite)."""


class ConvergenceError(RuntimeError):
    """Bauer iteration failed to reach tolerance within the section budget."""


@dataclass
class IwasawaResult:
    """Normalized splitting Phi = F B with quality diagnostics.

    unitarity_error is max ||F(lam)^* F(lam) - I|| over circle samples;
    residual is max ||Phi(lam) - F(lam) B(lam)|| over the samples Phi was
    given at, for the projected F.
    """

    F: LaurentLoop
    B: LaurentLoop
    unitarity_error: float
    residual: float


def _circle(n: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(n) / n)


def _positivity_precheck(p: LaurentLoop) -> None:
    lams = _circle(_CIRCLE_SAMPLES)
    vals = loop_eval_many(p, lams)
    herm = np.linalg.norm(vals - np.conj(np.transpose(vals, (0, 2, 1))), axis=(1, 2))
    worst = int(np.argmax(herm))
    if herm[worst] > 1e-6 * max(1.0, float(np.abs(vals).max())):
        raise FactorizationError(
            f"loop is not Hermitian on the circle: deviation {herm[worst]:.3e} at lam = {lams[worst]:.6f}"
        )
    sym = 0.5 * (vals + np.conj(np.transpose(vals, (0, 2, 1))))
    eigs = np.linalg.eigvalsh(sym)
    if eigs.min() <= 0:
        bad = int(np.argmin(eigs.min(axis=1)))
        raise FactorizationError(
            f"loop is not positive definite at lam = {lams[bad]:.6f} "
            f"(min eigenvalue {eigs.min():.3e})"
        )


def _bauer_read(p: LaurentLoop, m: int, degree: int) -> LaurentLoop:
    """Cholesky of the (m+1)-block Toeplitz section; last row gives the factor."""
    size = 2 * (m + 1)
    # block (i, j) of the section is the coefficient P_{j-i}, read from P
    # padded onto [-m, m] in one gather
    padded = np.zeros((2 * m + 1, 2, 2), dtype=np.complex128)
    lo, hi = max(p.k_min, -m), min(p.k_max, m)
    if lo <= hi:
        padded[lo + m : hi + m + 1] = p.coeffs[lo - p.k_min : hi - p.k_min + 1]
    idx = np.arange(m + 1)
    t2 = padded[idx[None, :] - idx[:, None] + m].transpose(0, 2, 1, 3).reshape(size, size)
    t2 = 0.5 * (t2 + t2.conj().T)
    try:
        low = np.linalg.cholesky(t2)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"Toeplitz section of size {m + 1} is not positive definite: {exc}") from exc
    coeffs = np.empty((degree + 1, 2, 2), dtype=np.complex128)
    for n in range(degree + 1):
        j = m - n
        if j < 0:
            coeffs[n] = 0.0
            continue
        coeffs[n] = low[2 * m : 2 * m + 2, 2 * j : 2 * j + 2].conj().T
    return LaurentLoop(coeffs, 0)


def _factor_residual(b: LaurentLoop, p: LaurentLoop) -> float:
    lams = _circle(_CIRCLE_SAMPLES)
    bv = loop_eval_many(b, lams)
    diff = np.conj(bv.transpose(0, 2, 1)) @ bv - loop_eval_many(p, lams)
    return float(np.linalg.norm(diff, axis=(1, 2)).max())


def spectral_factor_plus(
    p: LaurentLoop,
    tol: float = DEFAULT_TOL,
    max_doublings: int = 6,
) -> LaurentLoop:
    """Plus-loop B with B* B = P on the circle, B(0) upper triangular positive.

    B has the polynomial degree of P (sufficient for positive Laurent
    polynomials by the matrix Fejer-Riesz theorem).  The Toeplitz section
    starts at 2x the degree of P and doubles until the residual on circle
    samples drops below tol.
    """
    p = loop_trim(p)
    _positivity_precheck(p)
    degree = max(p.k_max, 1)
    m = max(2 * degree, 8)
    last_residual = np.inf
    for _ in range(max_doublings + 1):
        b = _bauer_read(p, m, degree)
        last_residual = _factor_residual(b, p)
        if last_residual <= tol:
            return b
        m *= 2
    raise ConvergenceError(
        f"spectral factor residual {last_residual:.3e} > tol {tol:.1e} "
        f"after growing the Toeplitz section to {m // 2 + 1} blocks"
    )


def _qr_positive(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QR with the diagonal of R made real positive (phases moved into Q)."""
    q, r = np.linalg.qr(a)
    d = np.diagonal(r).copy()
    d = np.where(np.abs(d) < 1e-300, 1.0, d / np.abs(d))
    return q * d[None, :], r / d[:, None]


def iwasawa(values: np.ndarray, tol: float = DEFAULT_TOL) -> IwasawaResult:
    """Normalized Iwasawa splitting of a loop given at ``window_samples(N)``.

    ``values`` has shape (4N, 2, 2); N is read off its length.  B comes from
    the spectral factorization of Phi* Phi; a final constant QR correction
    pins B_0 exactly upper triangular with positive diagonal, absorbing the
    unitary part into F.  F = Phi B^{-1} is projected onto [-N, N], and its
    ``tail_norm`` is the mass that projection drops.
    """
    values = np.asarray(values, dtype=np.complex128)
    if values.ndim != 3 or values.shape[1:] != (2, 2) or values.shape[0] < 4 or values.shape[0] % 4:
        raise ValueError(f"need loop values at 4N roots of unity, shape (4N, 2, 2); got {values.shape}")
    n = values.shape[0] // 4
    # P at the samples; 4N of them resolve its modes |k| < 2N
    gram = np.conj(values.transpose(0, 2, 1)) @ values
    b = spectral_factor_plus(loop_from_samples(gram, 2 * n - 1), tol=tol)

    # constant correction: exact normalization of the constant term
    q, r0 = _qr_positive(b.coeffs[0])
    b_coeffs = np.einsum("ij,kjl->kil", q.conj().T, b.coeffs)
    b = LaurentLoop(b_coeffs, 0)
    b.coeffs[0] = np.triu(b.coeffs[0])
    b.coeffs[0].real[np.diag_indices(2)] = np.abs(b.coeffs[0].diagonal().real)
    b.coeffs[0].imag[np.diag_indices(2)] = 0.0

    lams = window_samples(n)
    b_vals = loop_eval_many(b, lams)
    f = loop_from_samples(values @ np.linalg.inv(b_vals), n)
    recon = loop_eval_many(f, lams) @ b_vals
    residual = float(np.linalg.norm(recon - values, axis=(1, 2)).max())
    return IwasawaResult(F=f, B=b, unitarity_error=unitarity_error(f), residual=residual)

"""Loop-group Iwasawa decomposition Phi = F B.

F is unitary on the unit circle, B extends holomorphically inside with
B(0) upper triangular and positive diagonal.  Phi comes in as its values at
4N equally spaced points of the circle, and the split works on those
samples as plain (4N, 2, 2) arrays.  B is the matrix spectral factor of the
Hermitian positive loop P = Phi* Phi, formed pointwise; one FFT gives its
coefficients P_k, |k| <= 2N - 1.  A Bauer-type method gathers them into a
block-Toeplitz section, Cholesky-factorizes it, and reads B's coefficients
B_0..B_{2N-1} off the last block row.  The same coefficients give P's
relative edge mass, the norm of its modes |k| >= 2N - 2 over that of P_0:
the measure of how far P is from being resolved on the 4N samples, which
``SurfaceMap`` reads to choose its window.  The section size is grown until
B* B - P, evaluated at the 4N samples, is at most ``SPLIT_TOL`` ||P||^2;
those samples resolve every mode of B* B - P, so the check misses no part
of it.  The truncation error falls geometrically in the section size, so a
doubling that fails to halve the residual has met rounding, and the split
stops.  B's values at the samples come from one zero-padded inverse FFT,
and F = Phi B^{-1} is formed and returned there: it is never projected onto
a coefficient window, so no Laurent mode of F is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .loops import coefficients, plus_values

#: the split accepts B once max_j ||B_j* B_j - P_j|| <= SPLIT_TOL max_j ||P_j||^2: the
#: residual's float64 floor is 1e-17 to 8e-16 of ||P||^2 (= cond P, as det P = 1), so
#: one relative bound decides every split by its input, not by the last bits of Phi
SPLIT_TOL = 1e-14

#: times the Toeplitz section may double before the split gives up
MAX_DOUBLINGS = 6


class FactorizationError(RuntimeError):
    """The loop is not factorizable (not Hermitian / not positive definite)."""


class ConvergenceError(RuntimeError):
    """Bauer iteration failed to reach tolerance within the section budget."""


@dataclass
class IwasawaResult:
    """Normalized splitting Phi = F B.

    F has shape (4N, 2, 2): F[j] = Phi[j] B(omega^j)^{-1} at the samples Phi
    was given at, so F B = Phi holds there by construction.  B has shape
    (2N, 2, 2): B[k] is the plus factor's coefficient of mu^k in the sample
    variable.  unitarity_error is max_j ||F[j]^* F[j] - I||.  edge_mass is
    P's relative edge mass, sum_{|k| >= 2N-2} ||P_k|| / ||P_0|| for
    P = Phi* Phi: the modes at and next to the Nyquist bin, where the
    aliasing of P's unresolved tail shows first.
    """

    F: np.ndarray
    B: np.ndarray
    unitarity_error: float
    edge_mass: float

    @property
    def window(self) -> int:
        """N of the samples: F holds the split at 4N points."""
        return self.F.shape[0] // 4


def _window(values: np.ndarray) -> int:
    """N of a loop given at the 4N roots of unity; ValueError for any other shape."""
    if values.ndim != 3 or values.shape[1:] != (2, 2) or values.shape[0] < 4 or values.shape[0] % 4:
        raise ValueError(f"need loop values at 4N roots of unity, shape (4N, 2, 2); got {values.shape}")
    return values.shape[0] // 4


def _positivity_precheck(vals: np.ndarray) -> float:
    """max_j ||P_j||, the largest eigenvalue of the loop at its samples;
    raise unless the loop is Hermitian positive there."""
    herm = np.linalg.norm(vals - np.conj(np.transpose(vals, (0, 2, 1))), axis=(1, 2))
    worst = int(np.argmax(herm))
    if herm[worst] > 1e-6 * max(1.0, float(np.abs(vals).max())):
        raise FactorizationError(
            f"loop is not Hermitian on the circle: deviation {herm[worst]:.3e} "
            f"at sample {worst} of {vals.shape[0]}"
        )
    sym = 0.5 * (vals + np.conj(np.transpose(vals, (0, 2, 1))))
    eigs = np.linalg.eigvalsh(sym)
    if eigs.min() <= 0:
        bad = int(np.argmin(eigs.min(axis=1)))
        raise FactorizationError(
            f"loop is not positive definite at sample {bad} of {vals.shape[0]} "
            f"(min eigenvalue {eigs.min():.3e})"
        )
    return float(eigs.max())


def _bauer_read(p: np.ndarray, m: int) -> np.ndarray:
    """Cholesky of the (m+1)-block Toeplitz section; last row gives the factor.

    ``p[k + d]`` is P_k for |k| <= d, d <= m; returns B_0..B_d.
    """
    d = p.shape[0] // 2
    size = 2 * (m + 1)
    # block (i, j) of the section is the coefficient P_{j-i}, read from P
    # padded onto [-m, m] in one gather
    padded = np.zeros((2 * m + 1, 2, 2), dtype=np.complex128)
    padded[m - d : m + d + 1] = p
    idx = np.arange(m + 1)
    t2 = padded[idx[None, :] - idx[:, None] + m].transpose(0, 2, 1, 3).reshape(size, size)
    t2 = 0.5 * (t2 + t2.conj().T)
    try:
        low = np.linalg.cholesky(t2)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"Toeplitz section of size {m + 1} is not positive definite: {exc}") from exc
    # B_n is the conjugate transpose of block m - n of the last block row
    row = low[2 * m : 2 * m + 2].reshape(2, m + 1, 2).transpose(1, 0, 2)
    return row[m - d :][::-1].conj().transpose(0, 2, 1)


def _factor_residual(b: np.ndarray, p_vals: np.ndarray) -> float:
    """max_j ||B(omega^j)^* B(omega^j) - P_j|| over the samples of P."""
    bv = plus_values(b, p_vals.shape[0])
    diff = np.conj(bv.transpose(0, 2, 1)) @ bv - p_vals
    return float(np.linalg.norm(diff, axis=(1, 2)).max())


def _edge_mass(c: np.ndarray) -> float:
    """sum_{|k| >= 2N-2} ||P_k|| / ||P_0|| of P's coefficients c at 4N samples."""
    n = c.shape[0] // 4
    # entries 2N-2..2N+2 hold k = 2N-2, 2N-1, the Nyquist mode, -(2N-1), -(2N-2)
    edge = c[2 * n - 2 : 2 * n + 3]
    return float(np.linalg.norm(edge, axis=(1, 2)).sum() / np.linalg.norm(c[0]))


def spectral_factor_plus(values: np.ndarray) -> tuple[np.ndarray, float]:
    """Plus loop B with B* B = P on the circle, B(0) upper triangular positive,
    and P's relative edge mass.

    P comes as its values at ``window_samples(N)``, shape (4N, 2, 2).  Its
    modes |k| <= 2N - 1 are factorized; the Nyquist mode k = 2N is dropped.
    B has the polynomial degree of P (sufficient for positive Laurent
    polynomials by the matrix Fejer-Riesz theorem) and is returned as its
    coefficients B_0..B_{2N-1}, shape (2N, 2, 2).  The Toeplitz section
    starts at 2x the degree of P and doubles until B* B - P, checked at the
    4N samples, is at most ``SPLIT_TOL`` max_j ||P_j||^2; ConvergenceError
    once a doubling fails to halve that residual, or after
    ``MAX_DOUBLINGS``.  The edge mass, sum_{|k| >= 2N-2} ||P_k|| / ||P_0||,
    is read off the same FFT: it measures how much of P the 4N samples
    leave unresolved.
    """
    values = np.asarray(values, dtype=np.complex128)
    n = _window(values)
    c = coefficients(values)
    # P at the samples, less its Nyquist mode: these resolve all of B* B - P
    p_vals = values - c[2 * n] * ((-1) ** np.arange(4 * n))[:, None, None]
    bound = SPLIT_TOL * _positivity_precheck(p_vals) ** 2
    degree = 2 * n - 1
    p = c[np.arange(-degree, degree + 1) % (4 * n)]
    m = max(2 * degree, 8)
    last_residual = np.inf
    for doubling in range(MAX_DOUBLINGS + 1):
        b = _bauer_read(p, m)
        residual = _factor_residual(b, p_vals)
        if residual <= bound:
            return b, _edge_mass(c)
        if doubling == MAX_DOUBLINGS or residual > 0.5 * last_residual:
            break
        last_residual = residual
        m *= 2
    raise ConvergenceError(
        f"spectral factor residual {residual:.3e} > {bound:.1e} = {SPLIT_TOL:.0e} ||P||^2 "
        f"with a Toeplitz section of {m + 1} blocks"
    )


def _qr_positive(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QR with the diagonal of R made real positive (phases moved into Q)."""
    q, r = np.linalg.qr(a)
    d = np.diagonal(r).copy()
    d = np.where(np.abs(d) < 1e-300, 1.0, d / np.abs(d))
    return q * d[None, :], r / d[:, None]


def iwasawa(values: np.ndarray) -> IwasawaResult:
    """Normalized Iwasawa splitting of a loop given at ``window_samples(N)``.

    ``values`` has shape (4N, 2, 2); N is read off its length, and
    ``values[j]`` is read as the loop at omega^j, omega = exp(2 pi i / 4N).
    B comes from the spectral factorization of Phi* Phi; a final constant QR
    correction pins B_0 exactly upper triangular with positive diagonal,
    absorbing the unitary part into F.  F = Phi B^{-1} stays at the samples.
    The result carries the relative edge mass of P = Phi* Phi from the
    coefficients the factorization already computed (``IwasawaResult``).

    Samples of Phi on a rotated circle, values[j] = Phi(lam0 omega^j) with
    |lam0| = 1, split as they are: mu -> Phi(lam0 mu) has the splitting
    F(lam0 mu) B(lam0 mu), which is normalized because B(lam0 * 0) = B(0),
    so by uniqueness F[j] = F(lam0 omega^j).
    """
    values = np.asarray(values, dtype=np.complex128)
    _window(values)
    gram = np.conj(values.transpose(0, 2, 1)) @ values
    b, edge_mass = spectral_factor_plus(gram)

    # constant correction: exact normalization of the constant term
    q, _ = _qr_positive(b[0])
    b = np.einsum("ij,kjl->kil", q.conj().T, b)
    b[0] = np.triu(b[0])
    b[0].real[np.diag_indices(2)] = np.abs(b[0].diagonal().real)
    b[0].imag[np.diag_indices(2)] = 0.0

    f = values @ np.linalg.inv(plus_values(b, values.shape[0]))
    gram_f = np.conj(f.transpose(0, 2, 1)) @ f - np.eye(2)
    unitarity = float(np.linalg.norm(gram_f, axis=(1, 2)).max())
    return IwasawaResult(F=f, B=b, unitarity_error=unitarity, edge_mass=edge_mass)

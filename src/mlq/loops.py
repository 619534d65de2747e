"""Matrix-valued Laurent polynomial loops.

A loop is a map from the unit circle into 2x2 complex matrices.  Frames are
integrated, and split into their Iwasawa factors, as their values at M = 4N
points of the circle (``window_samples``, rotated by lam0 where the surface
is read), one 2x2 matrix per point; the unitary factor never leaves that
form.  Coefficients on a finite window

    A(lam) = sum_{k = -N}^{N} A_k lam^k

appear only for the symbol P = Phi* Phi and the plus factor B of the split:
P is projected onto its window by FFT (``loop_from_samples``), and B is
read off a Toeplitz section as coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Default half-width of the coefficient window used by the pipeline.
DEFAULT_WINDOW_N = 16

_EYE2 = np.eye(2, dtype=np.complex128)


@dataclass
class LaurentLoop:
    """A 2x2 matrix Laurent polynomial.

    Attributes
    ----------
    coeffs:
        Array of shape (K, 2, 2); ``coeffs[j]`` is the coefficient of
        ``lam**(k_min + j)``.
    k_min:
        Exponent of the first stored coefficient.
    """

    coeffs: np.ndarray
    k_min: int

    def __post_init__(self) -> None:
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.ndim != 3 or self.coeffs.shape[1:] != (2, 2):
            raise ValueError(f"coeffs must have shape (K, 2, 2), got {self.coeffs.shape}")
        if self.coeffs.shape[0] == 0:
            raise ValueError("loop needs at least one coefficient")

    @property
    def k_max(self) -> int:
        return self.k_min + self.coeffs.shape[0] - 1

    @classmethod
    def identity(cls) -> "LaurentLoop":
        return cls(_EYE2.copy()[None, :, :], 0)

    @classmethod
    def from_const(cls, mat: np.ndarray) -> "LaurentLoop":
        mat = np.asarray(mat, dtype=np.complex128)
        if mat.shape != (2, 2):
            raise ValueError(f"constant term must be 2x2, got {mat.shape}")
        return cls(mat[None, :, :], 0)

    @classmethod
    def from_terms(cls, terms: dict[int, np.ndarray]) -> "LaurentLoop":
        """Build a loop from a ``{exponent: matrix}`` mapping."""
        if not terms:
            raise ValueError("need at least one term")
        k_min = min(terms)
        k_max = max(terms)
        coeffs = np.zeros((k_max - k_min + 1, 2, 2), dtype=np.complex128)
        for k, mat in terms.items():
            mat = np.asarray(mat, dtype=np.complex128)
            if mat.shape != (2, 2):
                raise ValueError(f"term {k} must be 2x2, got {mat.shape}")
            coeffs[k - k_min] = mat
        return cls(coeffs, k_min)

    def coefficient(self, k: int) -> np.ndarray:
        """Coefficient of lam**k (zero matrix outside the stored window)."""
        if self.k_min <= k <= self.k_max:
            return self.coeffs[k - self.k_min]
        return np.zeros((2, 2), dtype=np.complex128)


@dataclass
class ParityReport:
    """Deviation of a loop from the twisted (sigma_3-parity) condition.

    Twisted loops have even diagonal entries and odd off-diagonal entries in
    lam.  Both fields are zero exactly when the loop is twisted.
    """

    max_even_offdiag: float
    max_odd_diag: float

    @property
    def max_violation(self) -> float:
        return max(self.max_even_offdiag, self.max_odd_diag)


def loop_trim(a: LaurentLoop, tol: float = 0.0) -> LaurentLoop:
    """Drop leading/trailing coefficient blocks with norm <= tol."""
    norms = np.linalg.norm(a.coeffs.reshape(-1, 4), axis=1)
    keep = np.nonzero(norms > tol)[0]
    if keep.size == 0:
        return LaurentLoop(np.zeros((1, 2, 2), dtype=np.complex128), 0)
    lo, hi = keep[0], keep[-1]
    return LaurentLoop(a.coeffs[lo : hi + 1].copy(), a.k_min + lo)


def loop_eval_many(a: LaurentLoop, lams: np.ndarray) -> np.ndarray:
    """Evaluate at an array of spectral values; returns shape (len(lams), 2, 2)."""
    lams = np.asarray(lams, dtype=np.complex128)
    k = a.k_min + np.arange(a.coeffs.shape[0])
    powers = lams[:, None] ** k[None, :]
    return np.einsum("sk,kij->sij", powers, a.coeffs)


def window_samples(n: int) -> np.ndarray:
    """The M = 4n roots of unity at which frames on the window [-n, n] are carried."""
    m = 4 * n
    return np.exp(2j * np.pi * np.arange(m) / m)


def loop_from_samples(values: np.ndarray, n: int) -> LaurentLoop:
    """FFT projection of a loop's values at the M-th roots of unity onto [-n, n].

    ``values[j]`` is the loop at exp(2 pi i j / M), M > 2n.  Modes outside the
    window are dropped; modes beyond M/2 alias into the kept ones.
    """
    m = values.shape[0]
    if m <= 2 * n:
        raise ValueError(f"{m} samples cannot resolve the window [-{n}, {n}]")
    c = np.fft.fft(values, axis=0) / m
    return LaurentLoop(np.concatenate((c[m - n :], c[: n + 1])), -n)


def twist_check(a: LaurentLoop) -> ParityReport:
    """Measure deviation from the twisted condition.

    Twisted loops satisfy sigma_3 A(-lam) sigma_3 = A(lam): diagonal entries
    are even in lam, off-diagonal entries odd.
    """
    max_even_offdiag = 0.0
    max_odd_diag = 0.0
    for j in range(a.coeffs.shape[0]):
        k = a.k_min + j
        mat = a.coeffs[j]
        if k % 2 == 0:
            max_even_offdiag = max(max_even_offdiag, abs(mat[0, 1]), abs(mat[1, 0]))
        else:
            max_odd_diag = max(max_odd_diag, abs(mat[0, 0]), abs(mat[1, 1]))
    return ParityReport(max_even_offdiag, max_odd_diag)

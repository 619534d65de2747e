"""Loops as values at the 4N roots of unity.

A loop is a map from the unit circle into 2x2 complex matrices.  Frames are
integrated, and split into their Iwasawa factors, as their values at M = 4N
points of the circle (``window_samples``, rotated by lam0 where the surface
is read), one (M, 2, 2) array with one 2x2 matrix per point.  Coefficients

    A(lam) = sum_k A_k lam^k

appear only inside the split, and only through two FFT reads:
``coefficients`` takes the values to the modes (index k mod M holds A_k),
and ``plus_values`` takes the coefficients of a plus loop (k = 0..K-1,
K <= M) back to its values at the samples, exactly.
"""

from __future__ import annotations

import numpy as np

#: Default half-width of the coefficient window used by the pipeline.
DEFAULT_WINDOW_N = 16


def window_samples(n: int) -> np.ndarray:
    """The M = 4n roots of unity at which frames on the window [-n, n] are carried."""
    m = 4 * n
    return np.exp(2j * np.pi * np.arange(m) / m)


def coefficients(values: np.ndarray) -> np.ndarray:
    """Fourier coefficients of a loop given at the M-th roots of unity.

    ``values[j]`` is the loop at exp(2 pi i j / M); entry k mod M of the
    result is the coefficient of lam^k.  M samples resolve the modes
    -M/2 < k <= M/2; any mode beyond them aliases into k mod M.
    """
    return np.fft.fft(values, axis=0) / values.shape[0]


def plus_values(coeffs: np.ndarray, m: int) -> np.ndarray:
    """Values at the m-th roots of unity of sum_k coeffs[k] lam^k, k = 0..K-1.

    One zero-padded inverse FFT; exact (up to rounding) because K <= m.
    """
    if coeffs.shape[0] > m:
        raise ValueError(f"{coeffs.shape[0]} coefficients cannot be read at {m} samples")
    return np.fft.ifft(coeffs, n=m, axis=0, norm="forward")

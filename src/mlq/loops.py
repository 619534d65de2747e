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

The split and the readout work on stacks of 2x2 matrices, one per sample
and loop, and multiply, invert and diagonalize them entry by entry
(``mul2``, ``ct2``, ``det2``, ``inv2``, ``eigvalsh2``): numpy's stacked
``@``, ``inv`` and ``eigvalsh`` hand each 2x2 to BLAS or LAPACK on its
own, which costs more than the arithmetic.
"""

from __future__ import annotations

import numpy as np

#: Default cap on the window N (the half-width of the coefficient window)
#: that ``SurfaceMap`` grows an anchor to where P is unresolved at its start.
DEFAULT_WINDOW_N = 16


def window_samples(n: int) -> np.ndarray:
    """The M = 4n roots of unity at which frames on the window [-n, n] are carried."""
    m = 4 * n
    return np.exp(2j * np.pi * np.arange(m) / m)


def coefficients(values: np.ndarray) -> np.ndarray:
    """Fourier coefficients of a loop given at the M-th roots of unity.

    ``values[..., j, :, :]`` is the loop at exp(2 pi i j / M), for one loop
    or a stack; entry k mod M of the result is the coefficient of lam^k.
    M samples resolve the modes -M/2 < k <= M/2; any mode beyond them
    aliases into k mod M.
    """
    return np.fft.fft(values, axis=-3) / values.shape[-3]


def plus_values(coeffs: np.ndarray, m: int) -> np.ndarray:
    """Values at the m-th roots of unity of sum_k coeffs[..., k, :, :] lam^k, k = 0..K-1.

    One zero-padded inverse FFT; exact (up to rounding) because K <= m.
    """
    if coeffs.shape[-3] > m:
        raise ValueError(f"{coeffs.shape[-3]} coefficients cannot be read at {m} samples")
    return np.fft.ifft(coeffs, n=m, axis=-3, norm="forward")


def mul2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The products a b of 2x2 matrices stacked on (broadcast) leading axes."""
    return a[..., :, :1] * b[..., :1, :] + a[..., :, 1:] * b[..., 1:, :]


def ct2(a: np.ndarray) -> np.ndarray:
    """The conjugate transposes of 2x2 matrices stacked on the leading axes."""
    return np.conj(np.swapaxes(a, -1, -2))


def det2(a: np.ndarray) -> np.ndarray:
    """The determinants of 2x2 matrices stacked on the leading axes."""
    return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]


#: signs of the adjugate [[d, -b], [-c, a]] of [[a, b], [c, d]]
_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def inv2(a: np.ndarray) -> np.ndarray:
    """The inverses of 2x2 matrices stacked on the leading axes: adjugate over determinant."""
    return np.swapaxes(a[..., ::-1, ::-1], -1, -2) * (_ADJUGATE_SIGNS / det2(a)[..., None, None])


def eigvalsh2(h: np.ndarray) -> np.ndarray:
    """The eigenvalues, ascending on the last axis, of Hermitian 2x2 matrices
    stacked on the leading axes, read off the diagonal and the lower entry
    as ``np.linalg.eigvalsh`` reads them."""
    a, d = h[..., 0, 0].real, h[..., 1, 1].real
    mean, r = 0.5 * (a + d), np.hypot(0.5 * (a - d), np.abs(h[..., 1, 0]))
    return np.stack([mean - r, mean + r], axis=-1)

"""Loops as values at the 4N roots of unity.

A loop is a map from the unit circle into 2x2 complex matrices.  Frames are
integrated, and split into their Iwasawa factors, as their values at M = 4N
points of the circle (``window_samples``, rotated by lam0 where the surface
is read), or a twisted frame's at the first M = 2N of them, one (M, 2, 2)
array with one 2x2 matrix per point.  Coefficients

    A(lam) = sum_k A_k lam^k

appear only inside the split, and only through two FFT reads:
``coefficients`` takes the values to the modes (index k mod M holds A_k),
and ``plus_values`` takes the coefficients of a plus loop (k = 0..K-1,
K <= M) back to its values at the samples, exactly.

The split, the readout and closing's unitarizer multiply, invert,
diagonalize, QR-normalize and take square roots of 2x2 matrices stacked on
leading axes, one per sample and loop, entry by entry (``mul2``, ``ct2``,
``det2``, ``inv2``, ``eigvalsh2``, ``unitary_q2``, ``sqrth2``): numpy's
stacked ``@``, ``inv``, ``eigvalsh``, ``qr`` and ``eigh`` hand each 2x2 to
BLAS or LAPACK on its own, which costs more than the arithmetic, and the
first call of each routine pages its code in.  LAPACK runs only where the
problem is not 2x2: ``zpotrf`` factors the split's Toeplitz section, and
``dgesdd`` finds the unitarizer's form as a null vector of (4K, 4) systems.
The kernels index the last two axes and keep their operands' memory
layout, so the split hands them stacks laid out as component planes
(2, 2, rows, 4N) (``as_planes``): each entrywise term then runs over a
whole plane, not over runs of two.
"""

from __future__ import annotations

import numpy as np

#: Default cap on the window N (the half-width of the coefficient window)
#: that ``SurfaceMap`` grows an anchor to where P is unresolved at its start.
DEFAULT_WINDOW_N = 16


def window_samples(n: int) -> np.ndarray:
    """The M = 4n roots of unity at which frames on the window [-n, n] are carried (a twisted one at the first 2n)."""
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


def as_planes(a: np.ndarray) -> np.ndarray:
    """The stack a of 2x2 matrices (..., 2, 2) laid out as component planes (2, 2, ...): a itself if it is already."""
    lead = range(a.ndim - 2)
    return np.ascontiguousarray(a.transpose(-2, -1, *lead)).transpose(*(k + 2 for k in lead), 0, 1)


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
    """The inverses of 2x2 matrices stacked on the leading axes: adjugate over determinant, laid out as a is."""
    out = np.divide(_ADJUGATE_SIGNS, det2(a)[..., None, None], out=np.empty_like(a))
    return np.multiply(np.swapaxes(a[..., ::-1, ::-1], -1, -2), out, out=out)


def eigvalsh2(h: np.ndarray) -> np.ndarray:
    """The eigenvalues, ascending on the last axis, of Hermitian 2x2 matrices
    stacked on the leading axes, read off the diagonal and the lower entry
    as ``np.linalg.eigvalsh`` reads them."""
    a, d = h[..., 0, 0].real, h[..., 1, 1].real
    mean, r = 0.5 * (a + d), np.hypot(0.5 * (a - d), np.abs(h[..., 1, 0]))
    return np.stack([mean - r, mean + r], axis=-1)


def unitary_q2(a: np.ndarray) -> np.ndarray:
    """The unitary Q of a = Q R, R upper triangular with a real positive diagonal, of 2x2 matrices stacked on
    the leading axes: q_1 = a_1 / ||a_1||, q_2 = (-conj q_21, conj q_11) times the phase of det a.  A zero
    first column takes q_1 = e_1, and a zero determinant the phase 1."""
    col = a[..., :, :1]
    n = np.sqrt(np.sum(col.real**2 + col.imag**2, axis=-2, keepdims=True))
    q1 = np.divide(col, n, out=np.array([[1.0], [0.0]]) + np.zeros_like(col), where=n > 0)
    det = det2(a)[..., None, None]
    phase = np.divide(det, np.abs(det), out=np.ones_like(det), where=det != 0)
    return np.concatenate([q1, phase * np.conj(q1[..., ::-1, :]) * np.array([[-1.0], [1.0]])], axis=-1)


def sqrth2(h: np.ndarray) -> np.ndarray:
    """The Hermitian positive square roots of Hermitian positive 2x2 matrices stacked on the leading axes,
    (h + s I) / sqrt(tr h + 2 s) with s = sqrt(det h) (Higham, *Functions of Matrices*, SIAM 2008)."""
    s = np.sqrt(det2(h).real)[..., None, None]
    return (h + s * np.eye(2)) / np.sqrt(h[..., :1, :1].real + h[..., 1:, 1:].real + 2 * s)

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

A stack of loops, shape (B, 4N, 2, 2), is split in one pass, one stacked
Cholesky per section over the rows still doubling; each row keeps its own
checks and error, and the bits it gets alone, as a stack of one.  The 2x2
products, inverses and eigenvalues at the samples are formed entry by entry
(``loops.mul2`` and its kin), so a row's bits do not depend on its stack.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .loops import coefficients, ct2, eigvalsh2, inv2, mul2, plus_values

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


class IwasawaResult(NamedTuple):
    """Normalized splitting Phi = F B.

    F has shape (4N, 2, 2): F[j] = Phi[j] B(omega^j)^{-1} at the samples Phi
    was given at, so F B = Phi holds there by construction.  B has shape
    (2N, 2, 2): B[k] is the plus factor's coefficient of mu^k in the sample
    variable.  unitarity_error is max_j ||F[j]^* F[j] - I||.  edge_mass is
    P's relative edge mass, sum_{|k| >= 2N-2} ||P_k|| / ||P_0|| for
    P = Phi* Phi: the modes at and next to the Nyquist bin, where the
    aliasing of P's unresolved tail shows first.  split_residual is the
    accepted max_j ||B_j* B_j - P_j|| / max_j ||P_j||^2 (``SPLIT_TOL``).
    """

    F: np.ndarray
    B: np.ndarray
    unitarity_error: float
    edge_mass: float
    #: blocks in the Toeplitz section the split accepted
    section: int
    split_residual: float

    @property
    def window(self) -> int:
        """N of the samples: F holds the split at 4N points."""
        return self.F.shape[0] // 4


def _window(values: np.ndarray) -> int:
    """N of a loop, or a stack of loops, given at the 4N roots of unity; ValueError for any other shape."""
    if values.ndim not in (3, 4) or values.shape[-2:] != (2, 2) or values.shape[-3] < 4 or values.shape[-3] % 4:
        raise ValueError(f"need loop values at 4N roots of unity, shape ([B,] 4N, 2, 2); got {values.shape}")
    return values.shape[-3] // 4


def _single(rows: list):
    """The one row of a split called on a single loop: its result, or its error raised."""
    (row,) = rows
    if isinstance(row, Exception):
        raise row
    return row


def _positivity_precheck(vals: np.ndarray, finite: np.ndarray) -> list:
    """Each row's max_j ||P_j||, the largest eigenvalue of its loop at its
    samples, or its FactorizationError where that loop is not finite at the
    samples it was given (``finite``, shape (B, 4N)), or not Hermitian
    positive at its samples."""
    m = vals.shape[1]
    herm = np.linalg.norm(vals - ct2(vals), axis=(-2, -1))
    eigs = eigvalsh2(0.5 * (vals + ct2(vals)))
    worst, lowest = herm.argmax(axis=1), eigs[..., 0].argmin(axis=1)
    scale = np.maximum(1.0, np.abs(vals).max(axis=(1, 2, 3)))
    out = []
    for i, ok in enumerate(finite):
        dev, least = herm[i, worst[i]], eigs[i, lowest[i], 0]
        # NaN passes every comparison below, so a loop that is not finite stops here
        if not ok.all():
            out.append(FactorizationError(f"loop is not finite at sample {int(np.argmin(ok))} of {m}"))
        elif dev > 1e-6 * scale[i]:
            out.append(FactorizationError(
                f"loop is not Hermitian on the circle: deviation {dev:.3e} at sample {worst[i]} of {m}"))
        elif least <= 0:
            out.append(FactorizationError(f"loop is not positive definite at sample {lowest[i]} "
                                          f"of {m} (min eigenvalue {least:.3e})"))
        else:
            out.append(float(eigs[i, :, 1].max()))
    return out


def _bauer_read(p: np.ndarray, m: int) -> tuple[np.ndarray, dict]:
    """Cholesky of each row's (m+1)-block Toeplitz section; its last block
    row gives the factor.

    ``p[:, k + d]`` is a row's P_k for |k| <= d, d <= m; returns each row's
    B_0..B_d, and the FactorizationError of each row (by index) whose
    section is not positive definite.
    """
    d = p.shape[1] // 2
    size = 2 * (m + 1)
    # block (i, j) of the section is the coefficient P_{j-i}, read from P
    # padded onto [-m, m] in one gather
    padded = np.zeros((len(p), 2 * m + 1, 2, 2), dtype=np.complex128)
    padded[:, m - d : m + d + 1] = p
    idx = np.arange(m + 1)
    t2 = padded[:, idx[None, :] - idx[:, None] + m].transpose(0, 1, 3, 2, 4).reshape(-1, size, size)
    t2 += np.conj(np.swapaxes(t2, -1, -2))
    t2 *= 0.5
    failed = {}
    try:
        low = np.linalg.cholesky(t2)
    except np.linalg.LinAlgError:
        # some row is not positive definite: find it, one row at a time
        low = np.full_like(t2, np.nan)
        for i, t in enumerate(t2):
            try:
                low[i] = np.linalg.cholesky(t)
            except np.linalg.LinAlgError as exc:
                failed[i] = FactorizationError(f"Toeplitz section of size {m + 1} is not positive definite: {exc}")
    # B_n is the conjugate transpose of block m - n of the last block row
    row = low[:, 2 * m : 2 * m + 2].reshape(-1, 2, m + 1, 2).transpose(0, 2, 1, 3)
    return np.conj(np.swapaxes(row[:, m - d :][:, ::-1], -1, -2)), failed


def _factor_residual(b: np.ndarray, p_vals: np.ndarray) -> np.ndarray:
    """max_j ||B(omega^j)^* B(omega^j) - P_j|| over the samples of P, for each row of a stack."""
    bv = plus_values(b, p_vals.shape[-3])
    diff = mul2(ct2(bv), bv) - p_vals
    return np.linalg.norm(diff, axis=(-2, -1)).max(axis=-1)


def _edge_mass(c: np.ndarray) -> np.ndarray:
    """sum_{|k| >= 2N-2} ||P_k|| / ||P_0|| of each row's coefficients c at 4N samples."""
    n = c.shape[-3] // 4
    # entries 2N-2..2N+2 hold k = 2N-2, 2N-1, the Nyquist mode, -(2N-1), -(2N-2)
    edge = c[:, 2 * n - 2 : 2 * n + 3]
    return np.linalg.norm(edge, axis=(-2, -1)).sum(axis=-1) / np.linalg.norm(c[:, 0], axis=(-2, -1))


def spectral_factor_plus(values: np.ndarray):
    """Plus loop B with B* B = P on the circle, B(0) upper triangular positive,
    P's relative edge mass, and the blocks of the Toeplitz section accepted.

    P comes as its values at ``window_samples(N)``, shape (4N, 2, 2).  Its
    modes |k| <= 2N - 1 are factorized; the Nyquist mode k = 2N is dropped.
    B has the polynomial degree of P (sufficient for positive Laurent
    polynomials by the matrix Fejer-Riesz theorem) and is returned as its
    coefficients B_0..B_{2N-1}, shape (2N, 2, 2).  The Toeplitz section
    starts at P's degree, 2N blocks, and doubles until B* B - P, checked at
    the 4N samples, is at most ``SPLIT_TOL`` max_j ||P_j||^2;
    ConvergenceError once a doubling fails to halve that residual, or after
    ``MAX_DOUBLINGS``.  The edge mass, sum_{|k| >= 2N-2} ||P_k|| / ||P_0||,
    is read off the same FFT: it measures how much of P the 4N samples
    leave unresolved.  For a stack, shape (B, 4N, 2, 2), a list with each
    row's (B, edge mass, blocks, residual / max_j ||P_j||^2) or its error.
    """
    values = np.asarray(values, dtype=np.complex128)
    n = _window(values)
    if values.ndim == 3:
        return _single(spectral_factor_plus(values[None]))
    c = coefficients(values)
    # P at the samples, less its Nyquist mode: these resolve all of B* B - P
    p_vals = values - c[:, 2 * n, None] * ((-1) ** np.arange(4 * n))[:, None, None]
    tops = _positivity_precheck(p_vals, np.isfinite(values).all(axis=(-2, -1)))
    out, edge = list(tops), _edge_mass(c)
    degree = 2 * n - 1
    p = c[:, np.arange(-degree, degree + 1) % (4 * n)]
    # the rows still doubling, each with its last residual
    todo = {i: np.inf for i, top in enumerate(tops) if not isinstance(top, Exception)}
    m, doubling = degree, 0
    while todo:
        b, failed = _bauer_read(p[list(todo)], m)
        residual = _factor_residual(b, p_vals[list(todo)])
        going = {}
        for k, (i, last) in enumerate(todo.items()):
            bound = SPLIT_TOL * tops[i] ** 2
            if k in failed:
                out[i] = failed[k]
            elif residual[k] <= bound:
                out[i] = (b[k], float(edge[i]), m + 1, float(residual[k] / tops[i] ** 2))
            elif doubling == MAX_DOUBLINGS or residual[k] > 0.5 * last:
                out[i] = ConvergenceError(f"spectral factor residual {residual[k]:.3e} > {bound:.1e} = "
                                          f"{SPLIT_TOL:.0e} ||P||^2 with a Toeplitz section of {m + 1} blocks")
            else:
                going[i] = residual[k]
        todo, m, doubling = going, 2 * m, doubling + 1
    return out


def iwasawa(values: np.ndarray):
    """Normalized Iwasawa splitting of a loop given at ``window_samples(N)``.

    ``values`` has shape (4N, 2, 2); N is read off its length, and
    ``values[j]`` is read as the loop at omega^j, omega = exp(2 pi i / 4N).
    B comes from the spectral factorization of Phi* Phi; a final constant QR
    correction pins B_0 exactly upper triangular with positive diagonal,
    absorbing the unitary part into F.  F = Phi B^{-1} stays at the samples.
    The result carries the relative edge mass of P = Phi* Phi from the
    coefficients the factorization already computed, and the section and
    residual it accepted (``IwasawaResult``).  For a stack, shape
    (B, 4N, 2, 2), a list with each row's result or the error that stops it.

    Samples of Phi on a rotated circle, values[j] = Phi(lam0 omega^j) with
    |lam0| = 1, split as they are: mu -> Phi(lam0 mu) has the splitting
    F(lam0 mu) B(lam0 mu), which is normalized because B(lam0 * 0) = B(0),
    so by uniqueness F[j] = F(lam0 omega^j).
    """
    values = np.asarray(values, dtype=np.complex128)
    _window(values)
    if values.ndim == 3:
        return _single(iwasawa(values[None]))
    out = spectral_factor_plus(mul2(ct2(values), values))
    ok = [i for i, row in enumerate(out) if not isinstance(row, Exception)]
    if not ok:
        return out
    b = np.stack([out[i][0] for i in ok])
    # constant correction: exact normalization of the constant term, by the Q
    # of B_0 = Q R with R's diagonal made real positive
    q, r = np.linalg.qr(b[:, 0])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * np.where(np.abs(d) < 1e-300, 1.0, d / np.abs(d))[:, None, :]
    b = mul2(ct2(q)[:, None], b)
    b[:, 0] = np.triu(b[:, 0])
    diag = (slice(None), 0, [0, 1], [0, 1])
    b.real[diag] = np.abs(b.real[diag])
    b.imag[diag] = 0.0

    f = mul2(values[ok], inv2(plus_values(b, values.shape[-3])))
    gram_f = mul2(ct2(f), f) - np.eye(2)
    unitarity = np.linalg.norm(gram_f, axis=(-2, -1)).max(axis=-1)
    for k, i in enumerate(ok):
        out[i] = IwasawaResult(f[k], b[k], float(unitarity[k]), *out[i][1:])
    return out

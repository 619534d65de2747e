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

A twisted loop, Phi(-lam) = sigma_3 Phi(lam) sigma_3, comes at the first 2N
samples (``iwasawa_twisted``), and so do P, B and F, each as twisted; F's
other 2N samples are F(-lam) = sigma_3 F(lam) sigma_3, so every split returns
F at all 4N samples.  With D(lam) = diag(1, lam), P_Y = D P D^{-1} is a loop
in mu = lam^2 (Pressley & Segal, *Loop Groups*, 1986; Dorfmeister, Pedit &
Wu, Comm. Anal. Geom. 6, 1998), whose FFT at the 2N samples of mu holds P's
modes |k| <= 2N - 1.  They couple entries of like parity only, so P's section
falls into two parity classes, each a Toeplitz section of P_Y half its size:
the split factors those, and reads B, the edge mass and the residual as the
untwisted one.

A stack of loops, shape (B, 4N, 2, 2), is split in one pass, a section
size at a time over the rows still doubling, in stacked Choleskys of at
most ``SECTION_ENTRIES`` entries; each row keeps its own checks and error,
and the bits it gets alone, as a stack of one.  The 2x2 products, inverses
and eigenvalues at the samples are formed entry by entry (``loops.mul2``
and its kin) on component planes (2, 2, B, 4N) (``loops.as_planes``), so
a row's bits do not depend on its stack.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .loops import as_planes, coefficients, ct2, eigvalsh2, inv2, mul2, plus_values, unitary_q2, window_samples

#: the split accepts B once max_j ||B_j* B_j - P_j|| <= SPLIT_TOL max_j ||P_j||^2: the
#: residual's float64 floor is 1e-17 to 8e-16 of ||P||^2 (= cond P, as det P = 1), so
#: one relative bound decides every split by its input, not by the last bits of Phi
SPLIT_TOL = 1e-14

#: times the Toeplitz section may double before the split gives up
MAX_DOUBLINGS = 6

#: complex entries (64 KB) of the sections one stacked Cholesky takes: a larger stack lies past
#: malloc's mmap threshold (128 KB in glibc), so it and its factor are faulted in anew every call
SECTION_ENTRIES = 4096

#: sigma_3 M sigma_3 = M * _FLIP: a twisted F at sample j + 2N is F's at j times _FLIP, exactly
_FLIP = np.outer([1.0, -1.0], [1.0, -1.0])


class FactorizationError(RuntimeError):
    """The loop is not factorizable (not Hermitian / not positive definite)."""


class ConvergenceError(RuntimeError):
    """Bauer iteration failed to reach tolerance within the section budget."""


class IwasawaResult(NamedTuple):
    """Normalized splitting Phi = F B.

    F has shape (4N, 2, 2): F[j] = Phi[j] B(omega^j)^{-1} at the samples Phi was given
    at, so F B = Phi holds there by construction, and a twisted loop's F(-lam) =
    sigma_3 F(lam) sigma_3 at the rest.  N is window, kept by the split since its input
    came at 2N samples if twisted, else at 4N.
    B has shape (2N, 2, 2): B[k] is the plus factor's coefficient of mu^k in the sample
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
    window: int


def _window(values: np.ndarray, per: int = 4) -> int:
    """N of a loop, or a stack of loops, given at per N samples; ValueError for any other shape."""
    if values.ndim not in (3, 4) or values.shape[-2:] != (2, 2) or values.shape[-3] < per or values.shape[-3] % per:
        raise ValueError(f"need loop values at {per}N samples, shape ([B,] {per}N, 2, 2); got {values.shape}")
    return values.shape[-3] // per


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
    positive at its samples; the checks run on the whole stack, and only a
    failing row is read again for its message."""
    m = vals.shape[1]
    herm = np.linalg.norm(vals - ct2(vals), axis=(-2, -1))
    eigs = eigvalsh2(0.5 * (vals + ct2(vals)))
    dev, least, scale = herm.max(axis=1), eigs[..., 0].min(axis=1), np.maximum(1.0, np.abs(vals).max(axis=(1, 2, 3)))
    out = eigs[..., 1].max(axis=1).tolist()
    # NaN passes both comparisons, so a loop that is not finite fails on ``finite`` alone
    for i in np.flatnonzero(~finite.all(axis=1) | (dev > 1e-6 * scale) | (least <= 0)):
        if not finite[i].all():
            out[i] = FactorizationError(f"loop is not finite at sample {int(np.argmin(finite[i]))} of {m}")
        elif dev[i] > 1e-6 * scale[i]:
            out[i] = FactorizationError(
                f"loop is not Hermitian on the circle: deviation {dev[i]:.3e} at sample {herm[i].argmax()} of {m}")
        else:
            out[i] = FactorizationError(f"loop is not positive definite at sample {eigs[i, :, 0].argmin()} "
                                        f"of {m} (min eigenvalue {least[i]:.3e})")
    return out


@lru_cache(maxsize=8)
def _section_index(m: int, d: int) -> np.ndarray:
    """Where entry (u, v) of the (m+1)-block section, entry (u % 2, v % 2) of P_k with k = v // 2 - u // 2,
    sits in a row of the flattened P_-d..P_d, or the zero after them where |k| > d."""
    u, v = np.ogrid[: 2 * m + 2, : 2 * m + 2]
    k = v // 2 - u // 2
    return np.where(abs(k) <= d, 4 * (k + d) + 2 * (u % 2) + v % 2, 4 * (2 * d + 1))


def _bauer_read(p: np.ndarray, m: int, twisted: bool = False) -> tuple[np.ndarray, dict]:
    """Cholesky of each row's (m+1)-block Toeplitz section; its last block
    row gives the factor.

    ``p[:, k + d]`` is a row's P_k for |k| <= d, d <= m; returns each row's
    B_0..B_d, and the FactorizationError of each row (by index) whose
    section is not positive definite.  A twisted P couples entry (a, b) of
    P_k only where k + a + b is even, so its section is factorized as the
    two classes of scalars 2i + a with i + a of one parity: each half as large.
    """
    d = p.shape[1] // 2
    # block (i, j) of the Hermitian section (T + T^H) / 2 is (P_{j-i} + P_{i-j}^H) / 2: the
    # coefficients are symmetrized once, then read in one gather
    sym = np.zeros((len(p), 4 * (2 * d + 1) + 1), dtype=np.complex128)
    sym[:, :-1] = ((p + ct2(p[:, ::-1])) * 0.5).reshape(len(p), -1)
    index = _section_index(m, d)
    if twisted:
        # class c holds scalar 2i + (c - i) % 2 of each block i
        classes = 2 * np.arange(m + 1) + (np.array([[0], [1]]) - np.arange(m + 1)) % 2
        index = index[classes[:, :, None], classes[:, None, :]]
    last, failed = np.zeros((len(p), 2, 2 * m + 2), dtype=np.complex128), {}
    per = max(1, SECTION_ENTRIES // index.size)
    for first in range(0, len(p), per):
        t2 = np.take(sym[first : first + per], index, axis=1)
        try:
            low = np.linalg.cholesky(t2)
        except np.linalg.LinAlgError:
            # some row is not positive definite: find it, one row at a time
            low = np.full_like(t2, np.nan)
            for i, t in enumerate(t2, first):
                try:
                    low[i - first] = np.linalg.cholesky(t)
                except np.linalg.LinAlgError as exc:
                    failed[i] = FactorizationError(f"Toeplitz section of size {m + 1} is not positive definite: {exc}")
        if twisted:
            last[first : first + per, classes[:, -1:] - 2 * m, classes] = low[:, :, m]
        else:
            last[first : first + per] = low[:, 2 * m :]
    # B_n is the conjugate transpose of block m - n of the last block row
    row = last.reshape(-1, 2, m + 1, 2).transpose(0, 2, 1, 3)
    return np.conj(as_planes(np.swapaxes(row[:, m - d :][:, ::-1], -1, -2))), failed


def _factor_residual(b: np.ndarray, p_vals: np.ndarray) -> np.ndarray:
    """max_j ||B(omega^j)^* B(omega^j) - P_j|| over P's samples (if twisted, the first 2N of 4N), for each row."""
    bv = plus_values(b, 2 * b.shape[-3])[..., : p_vals.shape[-3], :, :]
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
    return _factor(values, False)


def _factor(values: np.ndarray, twisted: bool):
    """``spectral_factor_plus``, or, if twisted, of P at the first 2N samples: P's modes are read off the
    modes of P_Y = D P D^{-1} at the 2N samples of mu, and its section as two parity classes."""
    values = np.asarray(values, dtype=np.complex128)
    _window(values, 2 if twisted else 4)
    if values.ndim == 3:
        return _single(_factor(values[None], twisted))
    values = as_planes(values)
    m = values.shape[-3]
    if twisted:
        # entry (1, 2) of D P D^{-1} is P's over omega^j and entry (2, 1) P's times omega^j, so its mode
        # mu^q holds P's lam-mode 2q on the diagonal, 2q + 1 in entry (1, 2) and 2q - 1 in entry (2, 1)
        y = coefficients(values * window_samples(m // 2)[:m, None, None] ** np.array([[0, -1], [1, 0]]))
        c = np.zeros((len(y), 2 * m, 2, 2), dtype=np.complex128)
        c[:, ::2], c[:, 1::2, 0, 1], c[:, 1::2, 1, 0] = y * np.eye(2), y[:, :, 0, 1], np.roll(y[:, :, 1, 0], -1, axis=1)
    else:
        c = coefficients(values)
    n = c.shape[-3] // 4
    # P at the samples, less its Nyquist mode: these resolve all of B* B - P
    p_vals = np.subtract(values, c[:, 2 * n, None] * ((-1) ** np.arange(m))[:, None, None],
                         out=np.empty_like(values))
    tops = _positivity_precheck(p_vals, np.isfinite(values).all(axis=(-2, -1)))
    out, edge = list(tops), _edge_mass(c)
    degree = 2 * n - 1
    p = c[:, np.arange(-degree, degree + 1) % (4 * n)]
    # the rows still doubling, each with its last residual
    todo = {i: np.inf for i, top in enumerate(tops) if not isinstance(top, Exception)}
    m, doubling = degree, 0
    while todo:
        b, failed = _bauer_read(p[list(todo)], m, twisted)
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
    B comes from the spectral factorization of Phi* Phi; a final constant
    correction by the Q of B_0 = Q R (``loops.unitary_q2``) pins B_0 exactly
    upper triangular with positive diagonal,
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
    return _split(values, False)


def iwasawa_twisted(values: np.ndarray):
    """``iwasawa`` of a twisted loop, or a stack, given at the first 2N of the 4N samples: F comes back
    at all 4N, with the B, section, edge mass and residual the untwisted split reads off all 4N, its
    section factored as two parity halves.  mu -> Phi(lam0 mu) is twisted too, so a rotated circle's
    samples split as they are."""
    return _split(values, True)


def _split(values: np.ndarray, twisted: bool) -> list:
    """``iwasawa``, or, if twisted, ``iwasawa_twisted``."""
    values = np.asarray(values, dtype=np.complex128)
    n = _window(values, 2 if twisted else 4)
    if values.ndim == 3:
        return _single(_split(values[None], twisted))
    phi = as_planes(values)
    gram = mul2(ct2(phi), phi)
    out = _factor(gram, True) if twisted else spectral_factor_plus(gram)
    ok = [i for i, row in enumerate(out) if not isinstance(row, Exception)]
    if not ok:
        return out
    b = as_planes(np.stack([out[i][0] for i in ok]))
    # constant correction: exact normalization of the constant term, by the Q
    # of B_0 = Q R with R's diagonal real positive
    b = mul2(ct2(unitary_q2(b[:, 0]))[:, None], b)
    b[:, 0] = np.triu(b[:, 0])
    diag = (slice(None), 0, [0, 1], [0, 1])
    b.real[diag] = np.abs(b.real[diag])
    b.imag[diag] = 0.0

    f = mul2(as_planes(phi[ok]), inv2(plus_values(b, 2 * b.shape[-3])[..., : phi.shape[-3], :, :]))
    gram_f = mul2(ct2(f), f) - np.eye(2)
    unitarity = np.linalg.norm(gram_f, axis=(-2, -1)).max(axis=-1)
    f = np.concatenate([f, f * _FLIP], axis=-3) if twisted else f
    for k, i in enumerate(ok):
        out[i] = IwasawaResult(f[k], b[k], float(unitarity[k]), *out[i][1:], n)
    return out

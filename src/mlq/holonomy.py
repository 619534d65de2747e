"""Frame integration: solve dPhi = Phi xi along paths in the z-domain.

There is one integrator, ``transport``.  It carries a frame as its values at
a fixed set of spectral values lam_1..lam_M, one 2x2 matrix per value, and
advances all of them at once.  Every potential's z-weights are rational, so
dPhi = Phi xi dz is a linear ODE with rational coefficients, and its
solution is the sum of its Taylor series out to the nearest pole (Corliss
and Chang, ACM TOMS 8, 1982; Jorba and Zou, Exp. Math. 14, 2005).  Each
segment of a path is cut into pieces no longer than ``RATIO`` times the
distance from the piece's start to the nearest singular point, so each
piece's series converges at least like RATIO^j; an entire potential's
segment is one piece.  On a piece z = a + s t, t in [0, 1], with D the
potential's common denominator, D(a + s t) Y' = Y s (D xi)(a + s t) gives
the propagator's Taylor coefficients by a recurrence of fixed length (see
``_propagators``).  Every piece of every path is a row of one batched
pass, and each path's piece propagators are composed at the end:
Phi(z_end) = Phi(z_0) U_1 ... U_P.  A failing row fails only its own
path, in the pass it ran in: a batch comes back as a list of each path's
end values or its error, as ``iwasawa``'s rows do.  ``monodromy`` runs it
once around a closed path, or a batch of them, at every lam_m;
``SurfaceMap`` runs it at the M = 4N roots of unity rotated by lam0 (the
first 2N on a twisted potential), where
the Iwasawa split takes the values as they are, one batch per chunk of
grid nodes, each on one straight segment from the base point, and one
batch per block of whole finite-difference stencils, from each centre's
values to each of its points.  It never runs the one-term families
(sphere, torus, equivariant): their frame is exp(W A), and the route
records live in ``potentials``, so a one-term run never loads this module.

Internally the state is laid out as component planes (2, 2, rows, M); a
term of the recurrence multiplies only the entries of xi's coefficients
that are nonzero at some row and lam, and ``loops.mul2`` composes the
propagators on stacks in that layout, as the Iwasawa split multiplies.

Determinants: all potential families are trace free, so det U = 1 is exact
for the true flow and drifts only through truncation and roundoff.  The
drift is divided out of every piece's propagator, at every lam, using the
principal square root of det U, and ``OdeCounts`` keeps the largest
|det U - 1|.  ``unitarizing_gauge(mats)`` dresses K monodromies, or each
family of a stack (..., K, 2, 2), in one pass: gauges of shape (..., 2, 2).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .loops import as_planes, ct2, det2, eigvalsh2, mul2, sqrth2
from .potentials import (EPS_POLE, DomainPath, IntegrationError, OdeCounts, OdeOptions, PoleError, Potential,
                         XiSampler, raise_first, validate_path, xi_sampler)

#: smallest singular value, relative to the largest, that ``unitarizing_gauge``
#: still reads as an invariant Hermitian form
UNITARIZE_TOL = 1e-8

#: a piece is at most this fraction of the distance from its start to the nearest singular point
RATIO = 0.4

#: terms after which a row whose series has not converged fails with IntegrationError
MAX_TERMS = 200


def circle_path(center: complex, radius: float, n: int = 64, start_angle: float = 0.0) -> DomainPath:
    """Closed n-gon approximation of a circle, traversed counterclockwise."""
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if n < 3:
        raise ValueError(f"need at least 3 vertices, got {n}")
    angles = start_angle + 2.0 * np.pi * np.arange(n) / n
    verts = tuple(complex(center) + radius * np.exp(1j * angles))
    return DomainPath(verts, closed=True)


def _pieces(pot: Potential, segs: list[tuple[complex, complex]]):
    """Each segment cut into pieces of at most ``RATIO`` times the distance
    from their start to the nearest singular point: the start a and the step
    s of every piece z = a + s t, t in [0, 1], segment by segment and in
    order along each, and the number of pieces of each segment."""
    a, b = (np.array(ends, dtype=np.complex128) for ends in zip(*segs))
    poles = np.array(pot.singular_points, dtype=np.complex128)
    t = np.zeros(a.size)
    live = np.arange(a.size)
    owner, t0, t1 = [], [], []
    while live.size:
        z = a[live] + t[live] * (b - a)[live]
        reach = RATIO * np.abs(z[:, None] - poles).min(axis=1, initial=np.inf) / np.abs(b - a)[live]
        owner.append(live)
        t0.append(t[live])
        t[live] = np.minimum(1.0, t[live] + reach)
        t1.append(t[live])
        live = live[t[live] < 1.0]
    # a stable sort by segment keeps each segment's pieces in order
    order = np.argsort(np.concatenate(owner), kind="stable")
    seg, t0, t1 = (np.concatenate(x)[order] for x in (owner, t0, t1))
    return a[seg] + t0 * (b - a)[seg], (t1 - t0) * (b - a)[seg], np.bincount(seg, minlength=a.size)


def _shift(p: np.ndarray, a: np.ndarray, s) -> np.ndarray:
    """Coefficients in t of the polynomial p (ascending, one for all rows or
    one column per row) at z = a + s t, by Horner's rule, one column per
    row: shape (len(p), rows)."""
    out = np.zeros((len(p), a.size), dtype=np.complex128)
    for c in p[::-1]:
        out[1:] = out[1:] * a + out[:-1] * s
        out[0] = out[0] * a + c
    return out


def _series(xi: XiSampler, a: np.ndarray, s: np.ndarray, poles) -> tuple[np.ndarray, np.ndarray]:
    """The ODE D(t) Y' = Y C(t) of each piece z = a + s t as polynomials in t:
    d_i of D(a + s t), shape (nD, rows), and C_i of s (D xi)(a + s t) as
    planes (nC, 2, 2, rows, M), both divided by D(a), so d_0 = 1.  Each
    polynomial is first expanded about the nearest of 0 and the ``poles`` to
    a: D's monomial coefficients cancel near its roots (to 1e-11 of a frame
    near the trinoid's pole at 1), and in powers of z - centre at most
    3^deg D-fold."""
    near = np.append(np.array(poles, dtype=np.complex128), 0.0)
    centre = near[np.abs(a[:, None] - near).argmin(axis=1)]

    def shift(p):
        return _shift(_shift(p, centre, 1.0), a - centre, s)

    d = shift(xi.den)
    nums = [shift(num) for num, _ in xi.terms]
    c = np.zeros((max(map(len, nums)), 2, 2, a.size, xi.terms[0][1].shape[0]), dtype=np.complex128)
    for num, (_, vals) in zip(nums, xi.terms):
        c[: len(num)] += np.einsum("ir,mlj->iljrm", num * (s / d[0]), vals)
    return d / d[0], c


def _propagators(d: np.ndarray, c: np.ndarray, tol: float, starts: np.ndarray) -> tuple[np.ndarray, int, list]:
    """Y(1) of D(t) Y' = Y C(t), Y(0) = I, on every row (``_series``), the
    number of terms summed, and each row's IntegrationError or None.

    The coefficients of Y = sum_j Y_j t^j follow from the recurrence
    d_0 (j+1) Y_{j+1} = sum_i Y_{j-i} C_i - sum_{i>=1} d_i (j-i+1) Y_{j-i+1},
    so only the last max(nC, nD - 1) of them are kept.  C_i may vanish for
    a run of i (on a piece from 0, radial (c, k) has C_i = 0 for 0 < i < k),
    and then so do runs of terms, so the sum stops only after the last
    max(nC, nD) + 1 terms are all at most tol times the largest entry of
    the sum, at every row and lam.
    A row fails alone, with an error located at the start z of its piece in
    ``starts``: on a term that is not finite, its planes (and its rows of d
    and c, in place) are set to zero, so it drops out of the stop rule; a
    row whose last max(nC, nD) + 1 terms are not all small after ``MAX_TERMS``
    terms gets the cap error, even if its last term vanishes.
    """
    nz = [(i, l, j, c[i, l, j]) for i, l, j in zip(*np.nonzero(c.any(axis=(3, 4))))]
    total = np.zeros_like(c[0])
    total[0, 0] = total[1, 1] = 1.0
    window, keep = [total.copy()], max(len(c), len(d) - 1)
    quiet = np.zeros(starts.size, dtype=int)
    errors: list = [None] * starts.size
    for j in range(MAX_TERMS):
        term = np.zeros_like(total)
        for i, l, col, cij in nz:
            if i <= j:
                term[:, col] += window[-1 - i][:, l] * cij
        for i in range(1, min(len(d) - 1, j) + 1):
            term -= (j - i + 1) * d[i][:, None] * window[-i]
        term /= j + 1
        mag = np.abs(term).max(axis=(0, 1))
        if not np.isfinite(mag).all():
            bad = ~np.isfinite(mag).all(axis=1)
            for row in np.flatnonzero(bad):
                errors[row] = IntegrationError(
                    f"Taylor series of the frame is not finite on the piece from z = {starts[row]}")
            for planes in (term, total, *window):
                planes[:, :, bad] = 0.0
            c[:, :, :, bad] = 0.0
            d[:, bad] = 0.0
            mag[bad] = 0.0
        total += term
        window = (window + [term])[-keep:]
        small = mag <= tol * np.abs(total).max(axis=(0, 1))
        quiet = np.where(small.all(axis=1), quiet + 1, 0)
        if quiet.min() > max(len(c), len(d)):
            return total, j + 1, errors
    for row in np.flatnonzero(quiet <= max(len(c), len(d))):
        errors[row] = errors[row] or IntegrationError(
            f"Taylor series of the frame does not converge in {MAX_TERMS} terms on the piece from z = {starts[row]}")
    return total, MAX_TERMS, errors


def transport(
    pot: Potential,
    path: DomainPath | Sequence[DomainPath],
    y: np.ndarray,
    lams,
    opts: OdeOptions = OdeOptions(),
    counts: OdeCounts | None = None,
) -> np.ndarray | list:
    """Carry frame values y at the spectral values lams along a path, or a batch of paths.

    For one path, y has shape (M, 2, 2); its end values come back, or its
    error is raised.  For a sequence of B paths with the same number of
    segments, y has shape (B, M, 2, 2), row b moves along path b, and a list
    comes back with each path's (M, 2, 2) end values or its error.  A path
    that fails ``validate_path`` joins no pass.  Every piece (``_pieces``)
    of every other path is a row of one pass of Taylor sums
    (``_propagators``), each from the identity to its propagator U, divided
    by the principal square root of its determinant; path b ends at
    y[b] U_b1 ... U_bP, or with the error of its first failed piece (a
    vanishing determinant included).  ``counts``, when given, accumulates
    the pieces and terms of the pass and keeps the largest |det - 1| it
    divided out of a piece that did not fail.
    """
    single = isinstance(path, DomainPath)
    paths = [path] if single else list(path)
    segments = [p.segments() for p in paths]
    if len({len(segs) for segs in segments}) > 1:
        raise ValueError("batched paths must have the same number of segments")
    y = np.asarray(y, dtype=np.complex128)
    if single:
        y = y[None]
    if y.shape[0] != len(paths):
        raise ValueError(f"{len(paths)} paths for frame values of shape {y.shape}")
    out: list = list(y)
    live = []
    for b, p in enumerate(paths):
        try:
            validate_path(p, pot)
            live.append(b)
        except PoleError as exc:
            out[b] = exc
    if live and segments[0]:
        starts, steps, per_segment = _pieces(pot, [seg for b in live for seg in segments[b]])
        d, c = _series(xi_sampler(pot, lams), starts, steps, pot.singular_points)
        props, n_terms, errors = _propagators(d, c, opts.tolerance, starts)
        props[:, :, [e is not None for e in errors]] = np.eye(2)[:, :, None, None]
        det = props[0, 0] * props[1, 1] - props[0, 1] * props[1, 0]
        vanishing = (np.abs(det) < 1e-8).any(axis=1)
        for row in np.flatnonzero(vanishing):
            errors[row] = IntegrationError(
                f"frame determinant vanishes at z = {starts[row] + steps[row]}; cannot renormalize")
        det[vanishing] = 1.0
        if counts is not None:
            counts.add(starts.size, n_terms, float(np.abs(det - 1.0).max()))
        props /= np.sqrt(det)
        # y_b = y_b U_b1 ... U_bP: path b's pieces are the rows first[b] .. first[b] + n[b] - 1
        n = per_segment.reshape(len(live), -1).sum(axis=1)
        first = np.cumsum(n) - n
        props = props.transpose(2, 3, 0, 1)  # a stack (rows, M, 2, 2) in plane memory, as is the state
        state = mul2(as_planes(y[live]), props[first])
        for k in range(1, n.max()):
            has = np.flatnonzero(n > k)
            state[has] = mul2(state[has], props[first[has] + k])
        for b, f, k, end in zip(live, first, n, state):
            out[b] = next((e for e in errors[f : f + k] if e is not None), end)
    if single:
        raise_first(out)
    return out[0] if single else out


def monodromy(
    pot: Potential,
    gamma: DomainPath | Sequence[DomainPath],
    lams,
    opts: OdeOptions = OdeOptions(),
    counts: OdeCounts | None = None,
) -> np.ndarray:
    """Left monodromies H(gamma)(lam_m) around a closed path, shape (M, 2, 2),
    or around each of a batch of B closed paths, shape (B, M, 2, 2).

    The frame starts at the identity at the base point, so H is its value
    after one circuit, in one ``transport`` for every path and spectral value;
    the first error in the batch is raised.
    """
    single = isinstance(gamma, DomainPath)
    paths = [gamma] if single else list(gamma)
    if not all(p.closed for p in paths):
        raise ValueError("monodromy needs a closed path")
    lams = np.asarray(lams, dtype=np.complex128).reshape(-1)
    h = transport(pot, paths, np.broadcast_to(np.eye(2), (len(paths), lams.size, 2, 2)), lams, opts, counts)
    raise_first(h)
    return h[0] if single else np.stack(h)


def unitarizing_gauge(mats) -> np.ndarray:
    """Simultaneous unitarizer of a family of SL(2,C) monodromies, or of each of a stack of families.

    Finds C with C H C^{-1} in SU(2) for every H in ``mats``, when one
    exists.  The monodromies of a multiply-connected potential generically
    take values outside the unitary loop group in the default Phi(base) = id
    gauge; conjugating by a z-independent dressing matrix fixes this exactly
    when the group generated by the monodromies preserves a positive definite
    Hermitian form M (then C = M^{1/2}).  M is recovered as the nullspace of
    the stacked linear conditions H^* M H = M over Hermitian matrices.

    ``mats`` is a list of K matrices, or a stack (..., K, 2, 2) of families,
    and C has shape (..., 2, 2): the conditions of every family are formed
    entry by entry and solved in one stacked SVD, and M is scaled to det 1
    and rooted by ``loops.sqrth2``.

    Raises ValueError, for the first family of the stack that fails, if no
    invariant form exists (residual above ``UNITARIZE_TOL``) or if the form
    is indefinite, i.e. the representation is not unitarizable.
    """
    h = np.asarray(mats, dtype=np.complex128)
    if h.ndim < 3 or not h.shape[-3]:
        raise ValueError("need at least one matrix")
    # Hermitian M = x0 E00 + x1 E11 + x2 (E01 + E10) + x3 (i E01 - i E10)
    basis = np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [1, 0]], [[0, 1j], [-1j, 0]]])
    cols = mul2(mul2(ct2(h[..., None, :, :]), basis), h[..., None, :, :]) - basis
    # each condition is Hermitian: its 4 real components are 4 rows, one column per basis element
    rows = np.stack([cols[..., 0, 0].real, cols[..., 1, 1].real, cols[..., 0, 1].real, cols[..., 0, 1].imag], -2)
    _, svals, vt = np.linalg.svd(rows.reshape(*rows.shape[:-3], -1, 4), full_matrices=False)
    least = svals[..., -1].ravel()
    bad = np.flatnonzero(least > UNITARIZE_TOL * np.maximum(1.0, svals[..., 0].ravel()))
    if bad.size:
        raise ValueError(
            f"no common invariant Hermitian form (residual {least[bad[0]]:.2e}); "
            "monodromies are not simultaneously unitarizable"
        )
    m = np.sum(vt[..., -1, :, None, None] * basis, axis=-3)
    evals = eigvalsh2(m)
    sign = np.where(evals[..., 1] < 0, -1.0, 1.0)
    if ((sign[..., None] * evals).min(axis=-1) <= 0).any():
        raise ValueError("invariant form is indefinite; representation not unitarizable")
    m *= sign[..., None, None]
    return sqrth2(m / np.sqrt(det2(m).real)[..., None, None])

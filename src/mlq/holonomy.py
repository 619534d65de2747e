"""Frame integration: solve dPhi = Phi xi along paths in the z-domain.

There is one integrator, ``transport``.  It carries a frame as its values at
a fixed set of spectral values lam_1..lam_M, one 2x2 matrix per value, and
advances all of them at once with the right-hand side Y xi(z, lam_m) dz.
It carries a batch of B paths with a common segment count the same way, in
one state of B x M matrices; one path is the case B = 1.  ``monodromy``
runs it once around a closed path for every spectral value it is given;
``SurfaceMap`` runs it at the M = 4N roots of unity rotated by lam0, where
the Iwasawa split takes the values as they are, one batch per chunk of grid
nodes, each on one straight segment from the base point, and one batch per
finite-difference stencil, from its centre's values to each of its points.
It never runs the one-term families (sphere, torus, equivariant): their
frame is exp(W A).

The method is adaptive Dormand-Prince 5(4) with scipy's RK45 step control
(``_dopri45``), with the error norm taken per path and maximized over the
batch; it needs numpy only.  Internally the state is laid out as component
planes (2, 2, B, M), so each term of the 2x2 product runs over B*M
contiguous values.

Determinants: all potential families are trace free, so det Phi = 1 is exact
for the true flow and drifts only through integration error.  The drift is
divided out after every path segment, at every lam, using the principal
square root of det Phi.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .potentials import PoleError, Potential, XiSampler, xi_sampler

#: Paths must keep this distance from declared singular points.
EPS_POLE = 1e-3

#: smallest singular value, relative to the largest, that ``unitarizing_gauge``
#: still reads as an invariant Hermitian form
UNITARIZE_TOL = 1e-8


class IntegrationError(RuntimeError):
    """ODE solver failure; message carries the z-location of the failure."""


@dataclass(frozen=True)
class DomainPath:
    """Piecewise-linear path in the z-plane.

    ``closed`` appends the segment from the last vertex back to the first;
    the first vertex is the base point.
    """

    vertices: tuple[complex, ...]
    closed: bool = False

    def __post_init__(self) -> None:
        verts = tuple(complex(v) for v in self.vertices)
        object.__setattr__(self, "vertices", verts)
        if len(verts) < 1:
            raise ValueError("path needs at least one vertex")
        for u, v in zip(verts, verts[1:]):
            if u == v:
                raise ValueError(f"consecutive path vertices coincide at {u}")
        if self.closed and len(verts) >= 2 and verts[0] == verts[-1]:
            raise ValueError("closed path must not repeat the base vertex")

    @classmethod
    def line(cls, z0: complex, z1: complex) -> "DomainPath":
        return cls((complex(z0), complex(z1)))

    def segments(self) -> list[tuple[complex, complex]]:
        verts = self.vertices
        segs = list(zip(verts, verts[1:]))
        if self.closed and len(verts) >= 2:
            segs.append((verts[-1], verts[0]))
        return segs


def circle_path(center: complex, radius: float, n: int = 64, start_angle: float = 0.0) -> DomainPath:
    """Closed n-gon approximation of a circle, traversed counterclockwise."""
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if n < 3:
        raise ValueError(f"need at least 3 vertices, got {n}")
    angles = start_angle + 2.0 * np.pi * np.arange(n) / n
    verts = tuple(complex(center) + radius * np.exp(1j * angles))
    return DomainPath(verts, closed=True)


def _segment_pole_distance(a: complex, b: complex, p: complex) -> float:
    """Distance from point p to the segment [a, b]."""
    d = b - a
    t = ((p - a) * np.conj(d)).real / abs(d) ** 2
    t = min(1.0, max(0.0, t))
    return abs(a + t * d - p)


def validate_path(path: DomainPath, pot: Potential) -> None:
    """Reject paths that pass within ``EPS_POLE`` of a declared singular point."""
    for a, b in path.segments():
        for p in pot.singular_points:
            dist = _segment_pole_distance(a, b, p)
            if dist < EPS_POLE:
                raise PoleError(
                    f"path segment {a} -> {b} passes within {dist:.2e} of singular point {p}"
                )


@dataclass(frozen=True)
class OdeOptions:
    """Integrator configuration.

    The adaptive Dormand-Prince 5(4) steps run under scipy's RK45
    controller, with atol = rtol = tolerance on the real and imaginary parts
    of every entry.
    """

    tolerance: float = 1e-10

    def __post_init__(self) -> None:
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")


class OdeCounts:
    """Running totals of DOPRI steps (accepted and rejected) and right-hand-side
    evaluations; one instance may be shared between threads."""

    def __init__(self) -> None:
        self.steps = 0
        self.rhs_calls = 0
        self._lock = threading.Lock()

    def add(self, steps: int, rhs_calls: int) -> None:
        with self._lock:
            self.steps += steps
            self.rhs_calls += rhs_calls


def _planes(y: np.ndarray) -> np.ndarray:
    """Frame values of shape (B, M, 2, 2) as contiguous component planes (2, 2, B, M)."""
    return np.ascontiguousarray(np.moveaxis(y, (-2, -1), (0, 1)))


def _unplanes(y: np.ndarray) -> np.ndarray:
    """Inverse of ``_planes``."""
    return np.ascontiguousarray(np.moveaxis(y, (0, 1), (-2, -1)))


def _right_mul(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Stacked 2x2 products y x on component planes (2, 2, ...): each term
    runs over the B*M contiguous values of a plane, which is faster than
    matmul or broadcasting over stacks of many small matrices."""
    out = y[:, :1] * x[0]
    out += y[:, 1:] * x[1]
    return out


def _segment_rhs(xi: XiSampler, a, dz):
    """Right-hand side Y xi(z) dz of dY = Y xi dz on the segments z = a + t dz, t in [0, 1].

    ``a`` and ``dz`` hold one segment per batch row, shape (B,); the state
    is (2, 2, B, M) planes.  dz is folded into the sampler's arrays once,
    so a call scales each weighted array by w(z) dz per row.
    """
    a = np.asarray(a, dtype=np.complex128).reshape(-1)
    dz = np.asarray(dz, dtype=np.complex128).reshape(-1)
    const = _planes(xi.const)[:, :, None] * dz[:, None]
    weighted = [(w, _planes(vals)[:, :, None] * dz[:, None]) for w, vals in xi.weighted]
    if a.size == 1:
        # one row: a scalar z keeps the weights off numpy's per-call overhead
        a0, dz0 = complex(a[0]), complex(dz[0])

        def z_at(t: float):
            return a0 + t * dz0
    else:

        def z_at(t: float):
            return (a + t * dz)[:, None]

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        z = z_at(t)
        x = const
        for w, vals in weighted:
            x = x + w(z) * vals
        return _right_mul(y, x)

    return rhs


# Dormand-Prince 5(4) tableau (Hairer, Norsett, Wanner, Solving ODEs I,
# Sec. II.5), stored as scipy's RK45 stores it: row s of _DP_A combines the
# stages 0..s-1 into stage s, _DP_B gives the fifth-order solution and _DP_E
# the difference to the embedded fourth-order one over all seven stages.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = (
    None,
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
)
_DP_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_DP_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40])
# scipy's step-size controller
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1 / 5


def _where(z: np.ndarray):
    """A batch of z-locations for an error message: one z, or the list."""
    return complex(z[0]) if z.size == 1 else [complex(v) for v in z]


def _row_rms(x: np.ndarray) -> np.ndarray:
    """RMS of each row of a real array whose rows are its axis -2, shape (B,)."""
    x = x.reshape(-1, *x.shape[-2:])
    return np.sqrt(np.square(x).sum(axis=(0, 2)) / (x.shape[0] * x.shape[2]))


def _dopri45(rhs, y0: np.ndarray, tol: float, z_at, counts: OdeCounts | None = None) -> np.ndarray:
    """Adaptive Dormand-Prince 5(4) on y' = rhs(t, y), t in [0, 1].

    The state is complex; its axis -2 indexes independent rows (the nodes
    of a batch).  The step control is scipy's RK45 per row: Hairer's
    initial-step rule, local extrapolation, and the RMS norm of the error
    estimate over the row's float64 view, scaled by
    atol + rtol max(|y|, |y_new|) with atol = rtol = tol.  The rows share
    each step, so the initial step is the smallest any row would choose and
    a step is accepted only if every row's norm passes: no row gets a
    looser step than it would get alone.  Raises IntegrationError, located
    by ``z_at(t)``, when the step size underflows.  ``counts``, when given,
    gains the attempted steps and their right-hand-side evaluations.
    """
    y = np.ascontiguousarray(y0, dtype=np.complex128)
    shape = y.shape
    k = np.empty((7,) + shape, dtype=np.complex128)
    kf = k.reshape(7, -1)
    f = rhs(0.0, y)

    # initial step (Hairer, Norsett, Wanner, Sec. II.4), per row
    scale = tol + np.abs(y.view(np.float64)) * tol
    d0 = _row_rms(y.view(np.float64) / scale)
    d1 = _row_rms(f.view(np.float64) / scale)
    # each clamp sits at its branch's threshold, so the unused branch cannot overflow
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / np.maximum(d1, 1e-5))
    h0 = min(float(h0.min()), 1.0)
    f1 = rhs(h0, y + h0 * f)
    d2 = _row_rms((f1 - f).view(np.float64) / scale) / h0
    d12 = np.maximum(d1, d2)
    h1 = np.where(d12 <= 1e-15, max(1e-6, h0 * 1e-3), (0.01 / np.maximum(d12, 1e-15)) ** (1 / 5))
    h_abs = min(100 * h0, float(h1.min()), 1.0)

    t = 0.0
    n_steps = 0
    while t < 1.0:
        min_step = 10 * math.ulp(t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                if counts is not None:
                    counts.add(n_steps, 2 + 6 * n_steps)
                raise IntegrationError(
                    f"adaptive integrator failed near z = {z_at(t)}: "
                    "required step size is less than spacing between numbers"
                )
            t_new = min(t + h_abs, 1.0)
            h = t_new - t
            h_abs = abs(h)
            n_steps += 1
            k[0] = f
            # h scales the tableau rows, not the (B*M)-long stage combinations
            for s in range(1, 6):
                k[s] = rhs(t + _DP_C[s] * h, y + ((_DP_A[s] * h) @ kf[:s]).reshape(shape))
            y_new = y + ((_DP_B * h) @ kf[:6]).reshape(shape)
            k[6] = f_new = rhs(t_new, y_new)
            scale = tol + np.maximum(np.abs(y.view(np.float64)), np.abs(y_new.view(np.float64))) * tol
            err = float(_row_rms(((_DP_E * h) @ kf).view(np.float64).reshape(scale.shape) / scale).max())
            if err < 1:
                factor = _MAX_FACTOR if err == 0 else min(_MAX_FACTOR, _SAFETY * err**_ERROR_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err**_ERROR_EXPONENT)
            rejected = True
        t, y, f = t_new, y_new, f_new
    if counts is not None:
        counts.add(n_steps, 2 + 6 * n_steps)
    return y


def transport(
    pot: Potential,
    path: DomainPath | Sequence[DomainPath],
    y: np.ndarray,
    lams,
    opts: OdeOptions = OdeOptions(),
    counts: OdeCounts | None = None,
) -> np.ndarray:
    """Carry frame values y at the spectral values lams along a path, or a batch of paths.

    For one path, y has shape (M, 2, 2).  For a sequence of B paths with
    the same number of segments, y has shape (B, M, 2, 2) and row b moves
    along path b; the rows run segment by segment in one adaptive sweep
    whose error norm is taken per row (see ``_dopri45``).  Every value
    solves dY = Y xi(z, lam) dz and is divided by the principal square root
    of its determinant after every segment.  ``counts``, when given,
    accumulates the sweep's DOPRI steps and right-hand-side evaluations.
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
    for p in paths:
        validate_path(p, pot)
    xi = xi_sampler(pot, lams)
    state = _planes(y)
    for seg in zip(*segments):
        a = np.array([s[0] for s in seg])
        dz = np.array([s[1] for s in seg]) - a
        state = _dopri45(_segment_rhs(xi, a, dz), state, opts.tolerance, lambda t: _where(a + t * dz), counts)
        det = state[0, 0] * state[1, 1] - state[0, 1] * state[1, 0]
        vanishing = np.abs(det) < 1e-8
        if np.any(vanishing):
            end = seg[int(np.argmax(vanishing.any(axis=1)))][1]
            raise IntegrationError(f"frame determinant vanishes at z = {end}; cannot renormalize")
        state = state / np.sqrt(det)
    y = _unplanes(state)
    return y[0] if single else y


def monodromy(
    pot: Potential,
    gamma: DomainPath,
    lams,
    opts: OdeOptions = OdeOptions(),
) -> np.ndarray:
    """Left monodromies H(gamma)(lam_m) around a closed path, shape (M, 2, 2).

    The frame starts at the identity at the base point, so H is its value
    after one circuit.  Every spectral value in ``lams`` rides in one
    ``transport``.
    """
    if not gamma.closed:
        raise ValueError("monodromy needs a closed path")
    lams = np.asarray(lams, dtype=np.complex128).reshape(-1)
    return transport(pot, gamma, np.broadcast_to(np.eye(2), (lams.size, 2, 2)), lams, opts)


def unitarizing_gauge(mats) -> np.ndarray:
    """Simultaneous unitarizer of a family of SL(2,C) monodromies.

    Finds C with C H C^{-1} in SU(2) for every H in ``mats``, when one
    exists.  The monodromies of a multiply-connected potential generically
    take values outside the unitary loop group in the default Phi(base) = id
    gauge; conjugating by a z-independent dressing matrix fixes this exactly
    when the group generated by the monodromies preserves a positive definite
    Hermitian form M (then C = M^{1/2}).  M is recovered as the nullspace of
    the stacked linear conditions H^* M H = M over Hermitian matrices.

    Raises ValueError if no invariant form exists (residual above
    ``UNITARIZE_TOL``) or if the form is indefinite, i.e. the representation
    is not unitarizable.
    """
    mats = [np.asarray(m, dtype=np.complex128) for m in mats]
    if not mats:
        raise ValueError("need at least one matrix")

    # Hermitian M = x0*E00 + x1*E11 + x2*(E01+E10) + x3*(i E01 - i E10)
    basis = [
        np.array([[1, 0], [0, 0]], dtype=np.complex128),
        np.array([[0, 0], [0, 1]], dtype=np.complex128),
        np.array([[0, 1], [1, 0]], dtype=np.complex128),
        np.array([[0, 1j], [-1j, 0]], dtype=np.complex128),
    ]
    rows = []
    for h in mats:
        cols = [h.conj().T @ e @ h - e for e in basis]
        # each condition is Hermitian: record its 4 real components
        for comp in (
            lambda m: m[0, 0].real,
            lambda m: m[1, 1].real,
            lambda m: m[0, 1].real,
            lambda m: m[0, 1].imag,
        ):
            rows.append([comp(c) for c in cols])
    a = np.array(rows, dtype=np.float64)
    _, svals, vt = np.linalg.svd(a)
    if svals[-1] > UNITARIZE_TOL * max(1.0, svals[0]):
        raise ValueError(
            f"no common invariant Hermitian form (residual {svals[-1]:.2e}); "
            "monodromies are not simultaneously unitarizable"
        )
    x = vt[-1]
    m = sum(xi * e for xi, e in zip(x, basis))
    evals, evecs = np.linalg.eigh(m)
    if evals[0] < 0 and evals[-1] < 0:
        evals, m = -evals[::-1], -m
        evecs = evecs[:, ::-1]
    if evals[0] <= 0:
        raise ValueError("invariant form is indefinite; representation not unitarizable")
    m /= np.sqrt(np.linalg.det(m).real)
    evals, evecs = np.linalg.eigh(m)
    return (evecs * np.sqrt(evals)) @ evecs.conj().T

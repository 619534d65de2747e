"""Frame integration: solve dPhi = Phi xi along paths in the z-domain.

There is one integrator, ``transport``.  It carries a frame as its values at
a fixed set of spectral values lam_1..lam_M, one 2x2 matrix per value, and
advances all of them at once with the right-hand side Y xi(z, lam_m) dz.
``monodromy`` runs it once around a closed path for every spectral value it
is given; ``SurfaceMap`` runs it at the M = 4N roots of unity rotated by
lam0, where the Iwasawa split takes the values as they are.

The method is adaptive Dormand-Prince 5(4) with scipy's RK45 step control
(``_dopri45``); it needs numpy only.

Determinants: all potential families are trace free, so det Phi = 1 is exact
for the true flow and drifts only through integration error.  The drift is
divided out after every path segment, at every lam, using the principal
square root of det Phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .potentials import PoleError, Potential, xi_sampler

#: Paths must keep this distance from declared singular points.
EPS_POLE = 1e-3


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

    @classmethod
    def polyline(cls, points) -> "DomainPath":
        return cls(tuple(complex(p) for p in points))

    def segments(self) -> list[tuple[complex, complex]]:
        verts = self.vertices
        segs = list(zip(verts, verts[1:]))
        if self.closed and len(verts) >= 2:
            segs.append((verts[-1], verts[0]))
        return segs

    @property
    def base(self) -> complex:
        return self.vertices[0]

    @property
    def end(self) -> complex:
        return self.vertices[0] if self.closed else self.vertices[-1]


def circle_path(center: complex, radius: float, n: int = 64, start_angle: float = 0.0) -> DomainPath:
    """Closed n-gon approximation of a circle, traversed counterclockwise."""
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if n < 3:
        raise ValueError(f"need at least 3 vertices, got {n}")
    angles = start_angle + 2.0 * np.pi * np.arange(n) / n
    verts = tuple(complex(center) + radius * np.exp(1j * angles))
    return DomainPath(verts, closed=True)


def default_monodromy_circle(pot: Potential, singularity: complex, n: int = 64) -> DomainPath:
    """Circle around one singular point; radius is half the distance to the
    nearest other singularity (falling back to half the distance to the base
    point when the singular set is a single point)."""
    s = complex(singularity)
    others = [abs(p - s) for p in pot.singular_points if abs(p - s) > 1e-12]
    if others:
        radius = 0.5 * min(others)
    else:
        radius = 0.5 * abs(pot.base_point - s)
        if radius == 0.0:
            raise ValueError("cannot choose a default radius: base point sits on the singularity")
    return circle_path(s, radius, n=n)


def _segment_pole_distance(a: complex, b: complex, p: complex) -> float:
    """Distance from point p to the segment [a, b]."""
    d = b - a
    t = ((p - a) * np.conj(d)).real / abs(d) ** 2
    t = min(1.0, max(0.0, t))
    return abs(a + t * d - p)


def validate_path(path: DomainPath, pot: Potential, eps_pole: float = EPS_POLE) -> None:
    """Reject paths that pass within eps_pole of a declared singular point."""
    for a, b in path.segments():
        for p in pot.singular_points:
            dist = _segment_pole_distance(a, b, p)
            if dist < eps_pole:
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


def _right_mul(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Stacked 2x2 products y[m] @ x[m] by broadcasting (faster than matmul
    on stacks of many small matrices)."""
    return y[:, :, :1] * x[:, None, 0] + y[:, :, 1:] * x[:, None, 1]


def _segment_rhs(xi, a: complex, dz: complex):
    """Right-hand side Y xi(z) dz of dY = Y xi dz on the segment z = a + t dz, t in [0, 1]."""

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        return _right_mul(y, xi(a + t * dz) * dz)

    return rhs


def _rk4_fixed(rhs, y0: np.ndarray, n_steps: int) -> np.ndarray:
    """Classical RK4 on y' = rhs(t, y), t in [0, 1], complex array state."""
    y = y0.copy()
    h = 1.0 / n_steps
    t = 0.0
    for _ in range(n_steps):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return y


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


def _rms(x: np.ndarray) -> float:
    return float(np.linalg.norm(x)) / x.size**0.5


def _dopri45(rhs, y0: np.ndarray, tol: float, z_at) -> np.ndarray:
    """Adaptive Dormand-Prince 5(4) on y' = rhs(t, y), t in [0, 1].

    The step control is scipy's RK45: Hairer's initial-step rule, local
    extrapolation, and the RMS norm of the error estimate over the float64
    view of the complex state, scaled by atol + rtol max(|y|, |y_new|) with
    atol = rtol = tol.  Raises IntegrationError, located by ``z_at(t)``,
    when the step size underflows.
    """
    y = np.ascontiguousarray(y0, dtype=np.complex128)
    shape = y.shape
    k = np.empty((7,) + shape, dtype=np.complex128)
    kf = k.reshape(7, -1)
    f = rhs(0.0, y)

    # initial step (Hairer, Norsett, Wanner, Sec. II.4)
    scale = tol + np.abs(y.view(np.float64)) * tol
    d0 = _rms(y.view(np.float64) / scale)
    d1 = _rms(f.view(np.float64) / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, 1.0)
    f1 = rhs(h0, y + h0 * f)
    d2 = _rms((f1 - f).view(np.float64) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, 1.0)

    t = 0.0
    while t < 1.0:
        min_step = 10 * math.ulp(t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise IntegrationError(
                    f"adaptive integrator failed near z = {z_at(t)}: "
                    "required step size is less than spacing between numbers"
                )
            t_new = min(t + h_abs, 1.0)
            h = t_new - t
            h_abs = abs(h)
            k[0] = f
            for s in range(1, 6):
                k[s] = rhs(t + _DP_C[s] * h, y + (_DP_A[s] @ kf[:s]).reshape(shape) * h)
            y_new = y + h * (_DP_B @ kf[:6]).reshape(shape)
            k[6] = f_new = rhs(t_new, y_new)
            scale = tol + np.maximum(np.abs(y.view(np.float64)), np.abs(y_new.view(np.float64))) * tol
            err = _rms((_DP_E @ kf * h).view(np.float64) / scale.reshape(-1))
            if err < 1:
                factor = _MAX_FACTOR if err == 0 else min(_MAX_FACTOR, _SAFETY * err**_ERROR_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err**_ERROR_EXPONENT)
            rejected = True
        t, y, f = t_new, y_new, f_new
    return y


def transport(
    pot: Potential,
    path: DomainPath,
    y: np.ndarray,
    lams,
    opts: OdeOptions = OdeOptions(),
) -> np.ndarray:
    """Carry frame values y, shape (M, 2, 2), at the spectral values lams along the path.

    Every value solves dY = Y xi(z, lam) dz; the M systems share one ODE
    state, so the adaptive integrator takes common steps.  Each value is
    divided by the principal square root of its determinant after every
    segment.
    """
    validate_path(path, pot)
    xi = xi_sampler(pot, lams)
    y = np.array(y, dtype=np.complex128)
    for a, b in path.segments():
        dz = b - a
        y = _dopri45(_segment_rhs(xi, a, dz), y, opts.tolerance, lambda t, a=a, dz=dz: a + t * dz)
        det = np.linalg.det(y)
        if np.any(np.abs(det) < 1e-8):
            raise IntegrationError(f"frame determinant vanishes at z = {b}; cannot renormalize")
        y = y / np.sqrt(det)[:, None, None]
    return y


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


def unitarizing_gauge(mats, tol: float = 1e-8) -> np.ndarray:
    """Simultaneous unitarizer of a family of SL(2,C) monodromies.

    Finds C with C H C^{-1} in SU(2) for every H in ``mats``, when one
    exists.  The monodromies of a multiply-connected potential generically
    take values outside the unitary loop group in the default Phi(base) = id
    gauge; conjugating by a z-independent dressing matrix fixes this exactly
    when the group generated by the monodromies preserves a positive definite
    Hermitian form M (then C = M^{1/2}).  M is recovered as the nullspace of
    the stacked linear conditions H^* M H = M over Hermitian matrices.

    Raises ValueError if no invariant form exists (residual above tol) or if
    the form is indefinite, i.e. the representation is not unitarizable.
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
    if svals[-1] > tol * max(1.0, svals[0]):
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

"""From unitary frames to surfaces in Q2, S3 x S3 and S2 x S2.

``SurfaceMap`` carries the holomorphic frame Phi as its values at the 4N
points lam0 omega^j of the circle, omega = exp(2 pi i / 4N), and hands those
samples to the Iwasawa split; the unitary factor F comes back at the same
points.  The spectral pair (lam0, -i lam0) is samples j = 0 and j = 3N, so
a point of the surface is read off F there, with nothing evaluated or
projected, by forming

    X = F(lam0) F(-i lam0)^{-1},      Y = i F(lam0) sigma_3 F(-i lam0)^{-1},

and reading the homogeneous Q2 coordinate off the entries of X and Y.  A
``FramePointPair`` is checked to be special unitary within ``FRAME_TOL``
once, when it is built; the readouts take it as checked.  The
SU(2) x SU(2) -> SO(4) two-fold cover psi identifies matrix pairs with
rotations of R^4 = H via quaternion left/right multiplication; its component
conventions are locked by unit tests because every sign matters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .holonomy import DomainPath, OdeOptions, _rk4_fixed, _segment_rhs, transport, validate_path
from .iwasawa import IwasawaResult, iwasawa
from .loops import DEFAULT_WINDOW_N, window_samples
from .potentials import PoleError, Potential, xi_sampler

SIGMA3 = np.diag([1.0 + 0.0j, -1.0 + 0.0j])

#: fixed RK4 steps of one hop from a transported point to a nearby one
HOP_STEPS = 8

#: SU(2) gate on every frame pair read into a surface point
FRAME_TOL = 1e-6


def quat_components(m: np.ndarray) -> np.ndarray:
    """Quaternion coordinates (p0, p1, p2, p3) of an SU(2) matrix.

    Inverse of the identification p0 + p1 i + p2 j + p3 k <->
    [[p0 + p1 i, p2 + p3 i], [-p2 + p3 i, p0 - p1 i]].
    """
    return np.array([m[0, 0].real, m[0, 0].imag, m[0, 1].real, m[0, 1].imag])


def quat_matrix(p) -> np.ndarray:
    """SU(2) matrix of a unit quaternion (the k-map)."""
    p0, p1, p2, p3 = p
    return np.array(
        [[p0 + 1j * p1, p2 + 1j * p3], [-p2 + 1j * p3, p0 - 1j * p1]], dtype=np.complex128
    )


def _check_su2(m: np.ndarray, name: str, tol: float) -> None:
    err_u = np.abs(m.conj().T @ m - np.eye(2)).max()
    err_d = abs(np.linalg.det(m) - 1.0)
    if err_u > tol or err_d > tol:
        raise ValueError(
            f"{name} is not special unitary within tol {tol:.1e} "
            f"(unitarity {err_u:.2e}, det deviation {err_d:.2e})"
        )


def _left_mult(p) -> np.ndarray:
    p0, p1, p2, p3 = p
    return np.array(
        [
            [p0, -p1, -p2, -p3],
            [p1, p0, -p3, p2],
            [p2, p3, p0, -p1],
            [p3, -p2, p1, p0],
        ]
    )


def _right_mult(q) -> np.ndarray:
    q0, q1, q2, q3 = q
    return np.array(
        [
            [q0, q1, q2, q3],
            [-q1, q0, -q3, q2],
            [-q2, q3, q0, -q1],
            [-q3, -q2, q1, q0],
        ]
    )


def psi_so4(p: np.ndarray, q: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """The two-fold cover SU(2) x SU(2) -> SO(4).

    psi(p, q) acts on the quaternion coordinate vector of X as x -> p x q^{-1},
    so psi(P, Q) @ quat_components(X) = quat_components(P X Q^{-1}) for
    SU(2) matrices.  psi(-p, -q) = psi(p, q) exactly.
    """
    p = np.asarray(p, dtype=np.complex128)
    q = np.asarray(q, dtype=np.complex128)
    _check_su2(p, "first psi argument", tol)
    _check_su2(q, "second psi argument", tol)
    return _left_mult(quat_components(p)) @ _right_mult(quat_components(q))


@dataclass(frozen=True)
class FramePointPair:
    """Unitary frame evaluated at the spectral pair (lam0, -i lam0).

    Both matrices must be special unitary within ``FRAME_TOL``; a pair is
    checked once, when it is built.
    """

    F1: np.ndarray
    F2: np.ndarray
    lambda0: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        object.__setattr__(self, "F1", np.asarray(self.F1, dtype=np.complex128))
        object.__setattr__(self, "F2", np.asarray(self.F2, dtype=np.complex128))
        if abs(abs(complex(self.lambda0)) - 1.0) > 1e-9:
            raise ValueError(f"lambda0 must lie on the unit circle, got {self.lambda0}")
        _check_su2(self.F1, "F1", FRAME_TOL)
        _check_su2(self.F2, "F2", FRAME_TOL)


def xy_matrices(fp: FramePointPair) -> tuple[np.ndarray, np.ndarray]:
    """X = F1 F2^{-1} and Y = i F1 sigma_3 F2^{-1}; both special unitary."""
    f2_inv = np.linalg.inv(fp.F2)
    return fp.F1 @ f2_inv, 1j * fp.F1 @ SIGMA3 @ f2_inv


def q2_point(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Homogeneous Q2 coordinate built from the entries of X and Y.

    The returned lift has Hermitian norm sqrt(2); it satisfies the bilinear
    quadric condition sum(v_i^2) = 0.
    """
    return np.array(
        [
            x[0, 0].real + 1j * y[0, 0].real,
            x[0, 0].imag + 1j * y[0, 0].imag,
            x[0, 1].real + 1j * y[0, 1].real,
            x[0, 1].imag + 1j * y[0, 1].imag,
        ]
    )


def normalize_q2(v: np.ndarray) -> np.ndarray:
    """Deterministic unit-norm representative of a homogeneous Q2 point.

    Scales to unit Hermitian norm and flips the overall sign so the first
    coordinate of magnitude > 1e-9 has argument in (-pi/2, pi/2].
    """
    v = np.asarray(v, dtype=np.complex128)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    w = v / norm
    for c in w:
        if abs(c) > 1e-9:
            if c.real < 0 or (c.real == 0 and c.imag < 0):
                w = -w
            break
    return w


def projective_distance(v: np.ndarray, w: np.ndarray) -> float:
    """Chordal distance between homogeneous vectors: min over phases of
    || v/|v| - e^{i theta} w/|w| ||, evaluated at the optimal phase (stable
    near zero, unlike the 2(1 - |<v,w>|) form)."""
    v = np.asarray(v, dtype=np.complex128)
    w = np.asarray(w, dtype=np.complex128)
    nv = np.linalg.norm(v)
    nw = np.linalg.norm(w)
    if nv == 0 or nw == 0:
        raise ValueError("projective distance of a zero vector")
    inner = np.vdot(w, v)
    phase = 1.0 if inner == 0 else inner / abs(inner)
    return float(np.linalg.norm(v / nv - phase * w / nw))


def s3_pair(fp: FramePointPair) -> tuple[np.ndarray, np.ndarray]:
    """The S3 x S3 pair (f_min, N): quaternion components of X and Y.

    Consistent with the Q2 lift: f_min = sqrt(2) Re(v) and N = sqrt(2) Im(v)
    for the unit lift v = q2_point(X, Y)/sqrt(2).
    """
    x, y = xy_matrices(fp)
    return quat_components(x), quat_components(y)


def pauli_components(m: np.ndarray) -> np.ndarray:
    """Components (m1, m2, m3) of a trace-free Hermitian matrix sum m_i sigma_i."""
    return np.array([m[0, 1].real, -m[0, 1].imag, m[0, 0].real])


def sphere_pair(fp: FramePointPair) -> tuple[np.ndarray, np.ndarray]:
    """The S2 x S2 immersion factors (Pauli vectors of F_j sigma_3 F_j^{-1}).

    The second factor is read through the conjugate (opposite-orientation)
    identification: with both factors read in the same orientation the pair
    satisfies Jac(phi) = +Jac(psi) and is Lagrangian only for the difference
    of the area forms; conjugating the second matrix flips that sign, so the
    product Lagrangian condition det{phi,.} + det{psi,.} = 0 and the
    associated-Jacobian identity Jac(phi) = -Jac(psi) hold literally.
    """
    phi = fp.F1 @ SIGMA3 @ fp.F1.conj().T
    psi = fp.F2 @ SIGMA3 @ fp.F2.conj().T
    return pauli_components(phi), pauli_components(psi.conj())


@dataclass(frozen=True)
class GridSpec:
    """Rectangular z-grid, ordered row-major (imaginary axis outer)."""

    re_min: float
    re_max: float
    n_re: int
    im_min: float
    im_max: float
    n_im: int

    def __post_init__(self) -> None:
        if self.n_re < 1 or self.n_im < 1:
            raise ValueError("grid needs at least one node per axis")
        if self.re_max < self.re_min or self.im_max < self.im_min:
            raise ValueError("grid bounds are inverted")

    def nodes(self) -> list[complex]:
        xs = np.linspace(self.re_min, self.re_max, self.n_re)
        ys = np.linspace(self.im_min, self.im_max, self.n_im)
        return [complex(x, y) for y in ys for x in xs]


@dataclass
class SurfaceSample:
    """One evaluated surface point with all of its representations."""

    z: complex
    q2_hom: np.ndarray | None = None
    s2_pair: tuple[np.ndarray, np.ndarray] | None = None
    s3_pair: tuple[np.ndarray, np.ndarray] | None = None
    diagnostics: object | None = None
    valid: bool = True
    error: str | None = None


class SurfaceMap:
    """Evaluate the surface pipeline at arbitrary domain points.

    Frames are carried as their values at the 4N roots of unity rotated by
    lam0 (N the window) and split there by ``iwasawa``; the frame pair is
    read off the unitary factor at samples 0 and 3N.  A point is reached by
    one adaptive transport from the base point.  ``frame_pairs`` evaluates
    a cluster of points near z from one transport to z: each point is one
    deterministic fixed-step RK4 hop from z and one split, so
    finite-difference stencils see a smooth function limited only by
    roundoff, not by adaptive step placement.  Nothing is cached, so a map
    may be shared between threads.
    """

    def __init__(
        self,
        pot: Potential,
        lambda0: complex = 1.0,
        window: int | None = None,
        ode: OdeOptions | None = None,
        iwasawa_tol: float = 1e-9,
    ) -> None:
        self.pot = pot
        self.lambda0 = complex(lambda0)
        self.window = DEFAULT_WINDOW_N if window is None else int(window)
        self.ode = ode if ode is not None else OdeOptions()
        self.iwasawa_tol = float(iwasawa_tol)
        # lam0 and -i lam0 are samples 0 and 3N
        self._lams = self.lambda0 * window_samples(self.window)
        self._xi = xi_sampler(pot, self._lams)

    # -- path planning ------------------------------------------------------

    def _route(self, z: complex, winding: int = 0) -> DomainPath:
        base = self.pot.base_point
        if self.pot.variant == "equivariant":
            # the domain is the universal cover of C \ {0}: travel in log z
            la = np.log(complex(base))
            lb = np.log(complex(z)) + 2j * np.pi * winding
            n_seg = max(1, int(np.ceil(abs(lb - la) / 0.15)))
            pts = [np.exp(la + (lb - la) * t) for t in np.linspace(0.0, 1.0, n_seg + 1)]
            pts[0] = base
            pts[-1] = z
            dedup = [pts[0]]
            for p in pts[1:]:
                if p != dedup[-1]:
                    dedup.append(p)
            return DomainPath.polyline(dedup)
        if winding != 0:
            raise ValueError(f"winding paths are only defined for the equivariant family")
        if z == base:
            raise ValueError("route requested to the base point itself")
        return DomainPath.line(base, z)

    # -- frame evaluation ---------------------------------------------------

    def _transport_to(self, z: complex, winding: int) -> np.ndarray:
        """Frame values at the window's roots of unity, integrated to z."""
        state = np.broadcast_to(np.eye(2, dtype=np.complex128), (self._lams.size, 2, 2))
        if z != self.pot.base_point or winding != 0:
            state = transport(self.pot, self._route(z, winding), state, self._lams, self.ode)
        return state

    def _hop(self, state: np.ndarray, a: complex, b: complex) -> np.ndarray:
        """Fixed-step RK4 transport of the frame values from a to b."""
        if a == b:
            return state
        validate_path(DomainPath.line(a, b), self.pot)
        return _rk4_fixed(_segment_rhs(self._xi, a, b - a), state, HOP_STEPS)

    def _pair(self, res: IwasawaResult) -> FramePointPair:
        return FramePointPair(res.F[0], res.F[3 * self.window], self.lambda0)

    def unitary_frame(self, z: complex, winding: int = 0) -> IwasawaResult:
        """Iwasawa split of the frame values at z, integrated from the base point."""
        return iwasawa(self._transport_to(complex(z), winding), tol=self.iwasawa_tol)

    def frame_pair(self, z: complex, winding: int = 0) -> FramePointPair:
        """The unitary frame at (lam0, -i lam0)."""
        return self._pair(self.unitary_frame(z, winding))

    def frame_pairs(self, z: complex, points, winding: int = 0) -> list[FramePointPair]:
        """Frame pairs at points near z: one transport to z, then one RK4 hop
        from z and one split per point."""
        z = complex(z)
        state = self._transport_to(z, winding)
        return [
            self._pair(iwasawa(self._hop(state, z, complex(p)), tol=self.iwasawa_tol)) for p in points
        ]

    def lift(self, z: complex, winding: int = 0) -> np.ndarray:
        """Unit-norm Q2 lift (raw lift / sqrt(2)); smooth in z by construction."""
        x, y = xy_matrices(self.frame_pair(z, winding))
        return q2_point(x, y) / np.sqrt(2.0)

    def sample(self, z: complex, winding: int = 0) -> SurfaceSample:
        try:
            res = self.unitary_frame(z, winding)
            fp = self._pair(res)
            x, y = xy_matrices(fp)
            return SurfaceSample(
                z=complex(z),
                q2_hom=q2_point(x, y),
                s2_pair=sphere_pair(fp),
                s3_pair=(quat_components(x), quat_components(y)),
                diagnostics={"unitarity_error": res.unitarity_error},
            )
        except (PoleError, ValueError, RuntimeError) as exc:
            return SurfaceSample(z=complex(z), valid=False, error=str(exc))


def build_surface(
    pot: Potential,
    grid: GridSpec | list[complex],
    lambda0: complex = 1.0,
    window: int | None = None,
    ode: OdeOptions | None = None,
) -> list[SurfaceSample]:
    """Run the full pipeline on every grid node.

    Node failures (paths hitting poles, factorization breakdowns) produce
    invalid samples carrying the error message; the rest of the grid is
    still computed.
    """
    nodes = grid.nodes() if isinstance(grid, GridSpec) else [complex(z) for z in grid]
    smap = SurfaceMap(pot, lambda0=lambda0, window=window, ode=ode)
    return [smap.sample(z) for z in nodes]

"""From unitary frames to surfaces in Q2, S3 x S3 and S2 x S2.

``SurfaceMap`` carries the holomorphic frame Phi as its values at the 4N
roots of unity and hands those samples to the Iwasawa split; the unitary
factor F comes back as its Laurent coefficients on [-N, N].  A point of the
surface is produced by evaluating F at the spectral pair (lam0, -i lam0),
forming

    X = F(lam0) F(-i lam0)^{-1},      Y = i F(lam0) sigma_3 F(-i lam0)^{-1},

and reading the homogeneous Q2 coordinate off the entries of X and Y.  The
SU(2) x SU(2) -> SO(4) two-fold cover psi identifies matrix pairs with
rotations of R^4 = H via quaternion left/right multiplication; its component
conventions are locked by unit tests because every sign matters.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .holonomy import DomainPath, OdeOptions, _right_mul, _rk4_fixed, transport, validate_path
from .iwasawa import IwasawaResult, iwasawa
from .loops import DEFAULT_WINDOW_N, LaurentLoop, loop_eval, window_samples
from .potentials import PoleError, Potential, xi_sampler

SIGMA3 = np.diag([1.0 + 0.0j, -1.0 + 0.0j])

#: fixed RK4 steps of one hop from an anchor to a nearby point
HOP_STEPS = 8

#: anchors a SurfaceMap keeps; the least recently used one is evicted first
ANCHOR_CACHE = 8


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
    """Unitary frame evaluated at the spectral pair (lam0, -i lam0)."""

    F1: np.ndarray
    F2: np.ndarray
    lambda0: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        object.__setattr__(self, "F1", np.asarray(self.F1, dtype=np.complex128))
        object.__setattr__(self, "F2", np.asarray(self.F2, dtype=np.complex128))
        if abs(abs(complex(self.lambda0)) - 1.0) > 1e-9:
            raise ValueError(f"lambda0 must lie on the unit circle, got {self.lambda0}")

    def validate(self, tol: float = 1e-6) -> None:
        _check_su2(self.F1, "F1", tol)
        _check_su2(self.F2, "F2", tol)


def frame_pair_at(f: LaurentLoop, lambda0: complex) -> FramePointPair:
    """Evaluate a frame loop at (lam0, -i lam0)."""
    lam0 = complex(lambda0)
    return FramePointPair(loop_eval(f, lam0), loop_eval(f, -1j * lam0), lam0)


def xy_matrices(fp: FramePointPair, tol: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """X = F1 F2^{-1} and Y = i F1 sigma_3 F2^{-1}; both special unitary."""
    fp.validate(tol)
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


def s3_pair(fp: FramePointPair, tol: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """The S3 x S3 pair (f_min, N): quaternion components of X and Y.

    Consistent with the Q2 lift: f_min = sqrt(2) Re(v) and N = sqrt(2) Im(v)
    for the unit lift v = q2_point(X, Y)/sqrt(2).
    """
    x, y = xy_matrices(fp, tol)
    return quat_components(x), quat_components(y)


def pauli_components(m: np.ndarray) -> np.ndarray:
    """Components (m1, m2, m3) of a trace-free Hermitian matrix sum m_i sigma_i."""
    return np.array([m[0, 1].real, -m[0, 1].imag, m[0, 0].real])


def sphere_pair(fp: FramePointPair, tol: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """The S2 x S2 immersion factors (Pauli vectors of F_j sigma_3 F_j^{-1}).

    The second factor is read through the conjugate (opposite-orientation)
    identification: with both factors read in the same orientation the pair
    satisfies Jac(phi) = +Jac(psi) and is Lagrangian only for the difference
    of the area forms; conjugating the second matrix flips that sign, so the
    product Lagrangian condition det{phi,.} + det{psi,.} = 0 and the
    associated-Jacobian identity Jac(phi) = -Jac(psi) hold literally.
    """
    fp.validate(tol)
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
    """Evaluate the surface pipeline at arbitrary domain points, with caching.

    Frames are carried as their values at the 4N roots of unity (N the
    window) and split there by ``iwasawa``.  Anchors (expensively integrated
    frames from the base point, adaptive integrator) are cached, the
    ``ANCHOR_CACHE`` most recently used ones; nearby evaluations hop from the
    closest anchor with a deterministic fixed-step RK4 so that
    finite-difference stencils see a smooth function limited only by
    roundoff, not by adaptive step placement.  An anchor is a deterministic
    function of its key, so eviction never changes a result.
    """

    def __init__(
        self,
        pot: Potential,
        lambda0: complex = 1.0,
        window: int | None = None,
        ode: OdeOptions | None = None,
        iwasawa_tol: float = 1e-9,
        frame_tol: float = 1e-6,
    ) -> None:
        self.pot = pot
        self.lambda0 = complex(lambda0)
        self.window = DEFAULT_WINDOW_N if window is None else int(window)
        self.ode = ode if ode is not None else OdeOptions()
        self.iwasawa_tol = float(iwasawa_tol)
        # acceptance gate on the unitary factor; loosen for wound frames
        # whose Laurent tails beyond the window degrade unitarity without
        # breaking residual *measurements* at that scale
        self.frame_tol = float(frame_tol)
        self._lams = window_samples(self.window)
        self._xi = xi_sampler(pot, self._lams)
        self._anchors: OrderedDict[tuple[float, float, int], np.ndarray] = OrderedDict()
        self._anchors_lock = threading.Lock()

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

    def _anchor_state(self, center: complex, winding: int) -> np.ndarray:
        """Frame values at the window's roots of unity, integrated to center."""
        key = (float(center.real), float(center.imag), winding)
        with self._anchors_lock:
            state = self._anchors.get(key)
            if state is not None:
                self._anchors.move_to_end(key)
                return state
        state = np.broadcast_to(np.eye(2, dtype=np.complex128), (self._lams.size, 2, 2))
        if center != self.pot.base_point or winding != 0:
            route = self._route(center, winding)
            state = transport(self.pot, route, state, self._lams, self.ode)
        with self._anchors_lock:
            self._anchors[key] = state
            if len(self._anchors) > ANCHOR_CACHE:
                self._anchors.popitem(last=False)
        return state

    def _hop(self, state: np.ndarray, a: complex, b: complex) -> np.ndarray:
        """Fixed-step RK4 transport of the frame values from a to b."""
        if a == b:
            return state
        validate_path(DomainPath.line(a, b), self.pot)
        dz = b - a

        def rhs(t: float, y: np.ndarray) -> np.ndarray:
            return _right_mul(y, self._xi(a + t * dz) * dz)

        return _rk4_fixed(rhs, state, HOP_STEPS)

    def unitary_frame(self, z: complex, anchor: complex | None = None, winding: int = 0) -> IwasawaResult:
        """Iwasawa split of the frame values at z, hopped from an anchor
        (z itself by default) that was integrated from the base point."""
        z = complex(z)
        if anchor is None:
            anchor = z
        anchor = complex(anchor)
        state = self._hop(self._anchor_state(anchor, winding), anchor, z)
        return iwasawa(state, tol=self.iwasawa_tol)

    def frame_pair(self, z: complex, anchor: complex | None = None, winding: int = 0) -> FramePointPair:
        res = self.unitary_frame(z, anchor, winding)
        return frame_pair_at(res.F, self.lambda0)

    def lift(self, z: complex, anchor: complex | None = None, winding: int = 0) -> np.ndarray:
        """Unit-norm Q2 lift (raw lift / sqrt(2)); smooth in z by construction."""
        x, y = xy_matrices(self.frame_pair(z, anchor, winding), tol=self.frame_tol)
        return q2_point(x, y) / np.sqrt(2.0)

    def sample(self, z: complex, anchor: complex | None = None, winding: int = 0) -> SurfaceSample:
        try:
            res = self.unitary_frame(z, anchor, winding)
            fp = frame_pair_at(res.F, self.lambda0)
            x, y = xy_matrices(fp)
            return SurfaceSample(
                z=complex(z),
                q2_hom=q2_point(x, y),
                s2_pair=sphere_pair(fp),
                s3_pair=(quat_components(x), quat_components(y)),
                diagnostics={
                    "tail_norm": res.F.tail_norm,
                    "iwasawa_residual": float(res.residual),
                    "unitarity_error": float(res.unitarity_error),
                },
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

"""From unitary frames to surfaces in Q2, S3 x S3 and S2 x S2.

``SurfaceMap`` carries the holomorphic frame Phi as its values at the 4N
points lam0 omega^j of the circle, omega = exp(2 pi i / 4N), and hands those
samples to the Iwasawa split; the unitary factor F comes back at the same
points.  Each anchor starts at N = ``START_WINDOW`` and is read again at the
cap N = ``window`` only where P = Phi* Phi is unresolved on the samples
(relative edge mass above ``EDGE_TOL``).  A grid is integrated
``NODE_CHUNK`` nodes at a time, each chunk in one adaptive sweep of the
batched ``transport``; the points of a finite-difference stencil are hopped
from one transport to its node in one fixed-step RK4 batch
(``frame_pairs``).  The spectral pair (lam0, -i lam0)
is samples j = 0 and j = 3N, so a point of the surface is read off F there,
with nothing evaluated or projected, by forming

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

from .holonomy import DomainPath, OdeCounts, OdeOptions, transport, validate_path
from .holonomy import _planes, _rk4_fixed, _segment_rhs, _unplanes
from .iwasawa import IwasawaResult, iwasawa
from .loops import DEFAULT_WINDOW_N, window_samples
from .potentials import PoleError, Potential, xi_sampler

SIGMA3 = np.diag([1.0 + 0.0j, -1.0 + 0.0j])

#: fixed RK4 steps of one hop from a transported point to a nearby one
HOP_STEPS = 8

#: SU(2) gate on every frame pair read into a surface point
FRAME_TOL = 1e-6

#: window every anchor is first transported and split at (or ``window``, if smaller)
START_WINDOW = 8

#: relative edge mass of P = Phi* Phi above which an anchor is read again at
#: the cap window; far below the split tolerance, because the readout error
#: follows the edge mass and the quadric and |v| checks see it directly
EDGE_TOL = 1e-13

#: largest log-z length of one segment of an equivariant route
LOG_STEP = 0.15

#: nodes per adaptive sweep in ``SurfaceMap.samples``; fixed, so a node's
#: chunk (and its bytes) never depends on how the chunks are scheduled
NODE_CHUNK = 32

#: errors that make one surface node invalid rather than stopping the grid
_NODE_ERRORS = (PoleError, ValueError, RuntimeError)


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


def _check_su2(m: np.ndarray, name: str) -> None:
    err_u = np.abs(m.conj().T @ m - np.eye(2)).max()
    err_d = abs(np.linalg.det(m) - 1.0)
    if err_u > FRAME_TOL or err_d > FRAME_TOL:
        raise ValueError(
            f"{name} is not special unitary within tol {FRAME_TOL:.1e} "
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


def psi_so4(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The two-fold cover SU(2) x SU(2) -> SO(4).

    psi(p, q) acts on the quaternion coordinate vector of X as x -> p x q^{-1},
    so psi(P, Q) @ quat_components(X) = quat_components(P X Q^{-1}) for
    SU(2) matrices, each special unitary within ``FRAME_TOL``.
    psi(-p, -q) = psi(p, q) exactly.
    """
    p = np.asarray(p, dtype=np.complex128)
    q = np.asarray(q, dtype=np.complex128)
    _check_su2(p, "first psi argument")
    _check_su2(q, "second psi argument")
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
    #: window N the pair was read at; None for a pair built from closed-form frames
    window: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "F1", np.asarray(self.F1, dtype=np.complex128))
        object.__setattr__(self, "F2", np.asarray(self.F2, dtype=np.complex128))
        if abs(abs(complex(self.lambda0)) - 1.0) > 1e-9:
            raise ValueError(f"lambda0 must lie on the unit circle, got {self.lambda0}")
        _check_su2(self.F1, "F1")
        _check_su2(self.F2, "F2")


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
    lam0 and split there by ``iwasawa``; the frame pair is read off the
    unitary factor at samples 0 and 3N.  The window N is chosen per anchor
    (a grid node, or the centre of a stencil) by one rule: the anchor is
    transported and split at the start window min(``START_WINDOW``,
    ``window``), and where P = Phi* Phi leaves a relative edge mass above
    ``EDGE_TOL`` there, or the split fails, it is transported and split
    again at the cap, ``window``.  A point is reached by one adaptive
    transport from the base point.  ``samples`` runs the nodes of a grid
    ``NODE_CHUNK`` at a time, each chunk as one batched transport whose
    error norm is the maximum over its nodes of each node's RMS, so no node
    gets a looser step than it would get alone; the chunk's nodes that are
    unresolved at the start window run again together, as one batch at the
    cap.  ``sample(z)`` is a chunk of one.  A node whose route fails
    validation, or whose chunk's sweep fails and whose rerun alone fails,
    is invalid and carries its own error.  ``ode_counts`` totals the DOPRI
    steps and right-hand-side evaluations of every transport the map ran.
    ``frame_pairs`` evaluates a cluster of points near z from one transport
    to z, at z's window: all points are hopped from z by one deterministic
    fixed-step RK4 sweep over a batch with one row per point, then split one
    by one, so finite-difference stencils see a smooth function at one
    truncation, limited only by roundoff, not by adaptive step placement.
    Nothing is cached and the counts are locked, so a map may be shared
    between threads.
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
        #: the cap: the window of a node whose P is unresolved at the start window
        self.window = DEFAULT_WINDOW_N if window is None else int(window)
        self.start_window = min(START_WINDOW, self.window)
        self.ode = ode if ode is not None else OdeOptions()
        self.iwasawa_tol = float(iwasawa_tol)
        # lam0 and -i lam0 are samples 0 and 3N at either window
        self._lams = {n: self.lambda0 * window_samples(n) for n in (self.start_window, self.window)}
        self._xi = {n: xi_sampler(pot, lams) for n, lams in self._lams.items()}
        #: DOPRI steps and right-hand-side evaluations of every transport this map ran
        self.ode_counts = OdeCounts()

    # -- path planning ------------------------------------------------------

    def _log_ends(self, z: complex, winding: int) -> tuple[complex, complex]:
        """Ends of the equivariant route to z in log z: the domain is the
        universal cover of C \\ {0}."""
        if z == 0:
            raise PoleError("no log-z route reaches the singular point z = 0")
        return np.log(complex(self.pot.base_point)), np.log(complex(z)) + 2j * np.pi * winding

    def _n_segments(self, z: complex, winding: int) -> int:
        """Segment count of the route to z, without building it: one per
        ``LOG_STEP`` of log-z length for the equivariant family, else one."""
        if self.pot.variant == "equivariant":
            la, lb = self._log_ends(z, winding)
            return max(1, int(np.ceil(abs(lb - la) / LOG_STEP)))
        if winding != 0:
            raise ValueError("winding paths are only defined for the equivariant family")
        return 1

    def _route(self, z: complex, winding: int = 0, min_segments: int = 1) -> DomainPath:
        base = self.pot.base_point
        n_seg = max(min_segments, self._n_segments(z, winding))
        if self.pot.variant == "equivariant":
            la, lb = self._log_ends(z, winding)
            pts = [np.exp(la + (lb - la) * t) for t in np.linspace(0.0, 1.0, n_seg + 1)]
            pts[0] = base
            pts[-1] = z
            dedup = [pts[0]]
            for p in pts[1:]:
                if p != dedup[-1]:
                    dedup.append(p)
            return DomainPath.polyline(dedup)
        if z == base:
            raise ValueError("route requested to the base point itself")
        return DomainPath.line(base, z)

    # -- frame evaluation ---------------------------------------------------

    def _identity(self, n: int, rows: int = 1) -> np.ndarray:
        return np.broadcast_to(np.eye(2, dtype=np.complex128), (rows, 4 * n, 2, 2))

    def _transport_to(self, z: complex, winding: int, n: int) -> np.ndarray:
        """Frame values at window n's roots of unity, integrated to z."""
        state = self._identity(n)[0]
        if z != self.pot.base_point or winding != 0:
            state = transport(self.pot, self._route(z, winding), state, self._lams[n], self.ode, self.ode_counts)
        return state

    def _transport_chunk(self, zs: list[complex], winding: int, n: int) -> list:
        """Frame values at window n for each z from one adaptive sweep, or the
        error that stops that node.

        Every node's route is validated before the sweep runs, so a route
        into a pole fails its own node, not the sweep.  Equivariant routes
        are subdivided to the chunk's largest segment count, counted from
        the log-z lengths, so all rows share their segment count; the other
        families' routes are one segment each.  If the sweep fails, each
        node is rerun alone, so the error lands on the node that caused it.
        """
        out: list = [self._identity(n)[0]] * len(zs)
        n_segs: dict[int, int] = {}
        for i, z in enumerate(zs):
            if z != self.pot.base_point or winding != 0:
                try:
                    n_segs[i] = self._n_segments(z, winding)
                except ValueError as exc:
                    out[i] = exc
        n_seg = max(n_segs.values(), default=1)
        routes: dict[int, DomainPath] = {}
        for i in n_segs:
            route = self._route(zs[i], winding, n_seg)
            try:
                validate_path(route, self.pot)
                routes[i] = route
            except PoleError as exc:
                out[i] = exc
        if not routes:
            return out
        try:
            states = transport(
                self.pot, list(routes.values()), self._identity(n, len(routes)), self._lams[n], self.ode,
                self.ode_counts,
            )
        except _NODE_ERRORS as exc:
            if len(routes) == 1:
                states = [exc]
            else:
                states = [self._transport_chunk([zs[i]], winding, n)[0] for i in routes]
        for i, state in zip(routes, states):
            out[i] = state
        return out

    def _split(self, state):
        """The split of a node's frame values, the error that stops the node,
        or None where the node is read again at the cap: below the cap, a
        split that fails or leaves P an edge mass above ``EDGE_TOL``."""
        if isinstance(state, Exception):
            return state
        try:
            res = iwasawa(state, tol=self.iwasawa_tol)
        except _NODE_ERRORS as exc:
            res = exc
        if state.shape[0] < 4 * self.window and (isinstance(res, Exception) or res.edge_mass > EDGE_TOL):
            return None
        return res

    def _anchor(self, z: complex, winding: int) -> tuple[np.ndarray, IwasawaResult]:
        """Frame values at z and their split, at the window the rule chooses for z."""
        state = self._transport_to(z, winding, self.start_window)
        res = self._split(state)
        if res is None:
            state = self._transport_to(z, winding, self.window)
            res = self._split(state)
        if isinstance(res, Exception):
            raise res
        return state, res

    def _pair(self, res: IwasawaResult) -> FramePointPair:
        return FramePointPair(res.F[0], res.F[3 * res.window], self.lambda0, res.window)

    def unitary_frame(self, z: complex, winding: int = 0) -> IwasawaResult:
        """Iwasawa split of the frame values at z, integrated from the base
        point, at the window the rule chooses for z."""
        return self._anchor(complex(z), winding)[1]

    def frame_pair(self, z: complex, winding: int = 0) -> FramePointPair:
        """The unitary frame at (lam0, -i lam0)."""
        return self._pair(self.unitary_frame(z, winding))

    def frame_pairs(self, z: complex, points, winding: int = 0) -> list[FramePointPair]:
        """Frame pairs at points near z: one transport to z, one fixed-step
        RK4 hop from z to every point as one row batch, and one split per point.

        The window is chosen once, from z's own split, so every point shares
        z's truncation.  A point equal to z is a zero-length row, whose
        values are z's: its pair is read off z's split, so it equals
        ``frame_pair(z)`` bit for bit.
        """
        z = complex(z)
        points = np.array(points, dtype=np.complex128)
        state, anchor = self._anchor(z, winding)
        for p in points[points != z]:
            validate_path(DomainPath.line(z, p), self.pot)
        rhs = _segment_rhs(self._xi[anchor.window], np.full(points.size, z), points - z)
        rows = np.broadcast_to(state, (points.size, *state.shape))
        hopped = _unplanes(_rk4_fixed(rhs, _planes(rows), HOP_STEPS))
        return [self._pair(anchor if p == z else iwasawa(y, tol=self.iwasawa_tol)) for p, y in zip(points, hopped)]

    def lift(self, z: complex, winding: int = 0) -> np.ndarray:
        """Unit-norm Q2 lift (raw lift / sqrt(2)); smooth in z by construction."""
        x, y = xy_matrices(self.frame_pair(z, winding))
        return q2_point(x, y) / np.sqrt(2.0)

    def _read(self, z: complex, res) -> SurfaceSample:
        """Read the surface point off the split at z, or record the error that stopped the node."""
        if isinstance(res, Exception):
            return SurfaceSample(z=z, valid=False, error=str(res))
        try:
            fp = self._pair(res)
            x, y = xy_matrices(fp)
            return SurfaceSample(
                z=z,
                q2_hom=q2_point(x, y),
                s2_pair=sphere_pair(fp),
                s3_pair=(quat_components(x), quat_components(y)),
                diagnostics={"unitarity_error": res.unitarity_error, "window": res.window,
                             "edge_mass": res.edge_mass},
            )
        except _NODE_ERRORS as exc:
            return SurfaceSample(z=z, valid=False, error=str(exc))

    def samples(self, nodes, winding: int = 0) -> list[SurfaceSample]:
        """Surface samples at every node, in order.

        The nodes are integrated ``NODE_CHUNK`` at a time, each chunk in one
        adaptive sweep at the start window; the chunk's nodes that are
        unresolved there run again in one sweep at the cap.  A node that
        fails is invalid and carries its error, the rest are still computed.
        """
        zs = [complex(z) for z in nodes]
        out = []
        for chunk in node_chunks(zs):
            splits = [self._split(s) for s in self._transport_chunk(chunk, winding, self.start_window)]
            again = [i for i, res in enumerate(splits) if res is None]
            for i, state in zip(again, self._transport_chunk([chunk[i] for i in again], winding, self.window)):
                splits[i] = self._split(state)
            out += [self._read(z, res) for z, res in zip(chunk, splits)]
        return out

    def sample(self, z: complex, winding: int = 0) -> SurfaceSample:
        return self.samples([z], winding)[0]


def node_chunks(nodes: list) -> list[list]:
    """The nodes cut into consecutive chunks of ``NODE_CHUNK``."""
    return [nodes[i : i + NODE_CHUNK] for i in range(0, len(nodes), NODE_CHUNK)]


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
    return SurfaceMap(pot, lambda0=lambda0, window=window, ode=ode).samples(nodes)

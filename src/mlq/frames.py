"""From unitary frames to surfaces in Q2, S3 x S3 and S2 x S2.

``SurfaceMap`` carries the holomorphic frame Phi as its values at the 4N
points lam0 omega^j of the circle, omega = exp(2 pi i / 4N), and hands those
samples to the Iwasawa split; the unitary factor F comes back at the same
points.  Each anchor starts at N = ``START_WINDOW`` and is read again at the
cap N = ``window`` only where P = Phi* Phi is unresolved on the samples
(relative edge mass above ``EDGE_TOL``).  Sphere, torus and equivariant
have one xi term w(z) A(lam), so Phi = exp(W(z) A(lam)) exactly, at every
node and stencil point.  Every other family is integrated ``NODE_CHUNK``
nodes at a time, each chunk in one adaptive sweep of the batched
``transport`` along straight segments from the base point, and a
finite-difference stencil rides in one more sweep, from its node to each
of its points (``frame_pairs``).  The spectral pair (lam0, -i lam0) is samples
j = 0 and j = 3N, so a point of the surface is read off F there, with
nothing evaluated or projected, by forming

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

from .holonomy import EPS_POLE, DomainPath, OdeCounts, OdeOptions, transport, validate_path
from .iwasawa import IwasawaResult, iwasawa
from .loops import DEFAULT_WINDOW_N, window_samples
from .potentials import PoleError, Potential, xi_sampler

SIGMA3 = np.diag([1.0 + 0.0j, -1.0 + 0.0j])

#: SU(2) gate on every frame pair read into a surface point
FRAME_TOL = 1e-6

#: window every anchor is first computed and split at (or ``window``, if smaller)
START_WINDOW = 8

#: relative edge mass of P = Phi* Phi above which an anchor is read again at
#: the cap window; far below the split tolerance, because the readout error
#: follows the edge mass and the quadric and |v| checks see it directly
EDGE_TOL = 1e-13

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


def _expm(m: np.ndarray) -> np.ndarray:
    """exp of trace-free 2x2 matrices stacked on the leading axes:
    cosh(s) I + sinh(s)/s m, with s^2 = -det m (sinh(s)/s = 1 at s = 0)."""
    s = np.sqrt(m[..., 0, 0] ** 2 + m[..., 0, 1] * m[..., 1, 0])
    ratio = np.divide(np.sinh(s), s, out=np.ones_like(s), where=s != 0)
    return np.cosh(s)[..., None, None] * np.eye(2) + ratio[..., None, None] * m


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
    computed and split at the start window min(``START_WINDOW``, ``window``),
    and again at the cap, ``window``, where P = Phi* Phi leaves a relative
    edge mass above ``EDGE_TOL`` or the split fails.  A one-term potential
    (sphere, torus, equivariant) has the exact frame exp(W A), evaluated at
    all nodes of a chunk at once; a node within ``EPS_POLE`` of its pole is
    invalid.  Any other potential is integrated by ``transport`` along one
    straight segment from the base point, one adaptive sweep per chunk,
    whose error norm is the maximum over its nodes of each node's RMS, so
    no node gets a looser step than it would get alone.  ``samples`` runs a
    grid ``NODE_CHUNK`` nodes at a time and reruns a chunk's unresolved
    nodes together at the cap; ``sample(z)`` and every anchor are a chunk
    of one.  A node whose route fails validation, or whose sweep fails
    again when rerun alone, is invalid and carries its own error.
    ``ode_counts`` totals the DOPRI steps and right-hand-side evaluations
    of every transport the map ran.  ``frame_pairs`` evaluates a stencil at
    its centre's window by the same ``_frames``, started from the centre's
    values, so finite differences see a smooth function limited only by
    roundoff.  Nothing is cached and the counts are locked, so a map may
    be shared between threads.
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

    # -- frame evaluation ---------------------------------------------------

    def _frames(self, zs: list[complex], winding: int, n: int, start=None) -> list:
        """Frame values at window n for each z, or the error that stops that
        node, carried from ``start`` = (z0, values at z0), by default the
        identity at the base point: exp(W A) for a one-term potential, with W
        continued from z0 along the straight segment to each z, else
        ``_transport_chunk``."""
        if winding != 0 and self.pot.variant != "equivariant":
            raise ValueError("winding paths are only defined for the equivariant family")
        base = self.pot.base_point
        if start is None:
            start = (base, np.broadcast_to(np.eye(2, dtype=np.complex128), (4 * n, 2, 2)))
        if self._xi[n].exact is None:
            return self._transport_chunk(zs, n, start)
        antiderivative, a = self._xi[n].exact
        z0 = start[0]
        near = [any(abs(z - p) < EPS_POLE for p in self.pot.singular_points) for z in zs]
        w = antiderivative(base, z0, winding) + antiderivative(z0, np.where(near, z0, zs), 0)
        return [PoleError("no log-z route reaches the singular point z = 0") if bad else v
                for bad, v in zip(near, _expm(np.multiply.outer(w, a)))]

    def _transport_chunk(self, zs: list[complex], n: int, start) -> list:
        """Frame values at window n for each z, or the error that stops that
        node, from one adaptive sweep along straight segments from
        ``start`` = (z0, values at z0); a z equal to z0 keeps z0's values.

        Each route is validated before the sweep, so a route into a pole
        fails its own node; if the sweep fails, each node is rerun alone to
        locate the error.
        """
        z0, y0 = start
        out: list = [y0] * len(zs)
        routes: dict[int, DomainPath] = {}
        for i, z in enumerate(zs):
            if z != z0:
                route = DomainPath.line(z0, z)
                try:
                    validate_path(route, self.pot)
                    routes[i] = route
                except PoleError as exc:
                    out[i] = exc
        if not routes:
            return out
        rows = np.broadcast_to(y0, (len(routes), *y0.shape))
        try:
            states = transport(self.pot, list(routes.values()), rows, self._lams[n], self.ode, self.ode_counts)
        except _NODE_ERRORS as exc:
            states = [exc] if len(routes) == 1 else [self._transport_chunk([zs[i]], n, start)[0] for i in routes]
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

    def _anchors(self, zs: list[complex], winding: int) -> tuple[list, list]:
        """Frame values and their split, or the error that stops the node, at
        each z, at the window the rule chooses for it."""
        states = self._frames(zs, winding, self.start_window)
        splits = [self._split(state) for state in states]
        again = [i for i, res in enumerate(splits) if res is None]
        for i, state in zip(again, self._frames([zs[i] for i in again], winding, self.window)):
            states[i], splits[i] = state, self._split(state)
        return states, splits

    def _anchor(self, z: complex, winding: int) -> tuple[np.ndarray, IwasawaResult]:
        """Frame values at z and their split, at the window the rule chooses for z."""
        (state,), (res,) = self._anchors([z], winding)
        if isinstance(res, Exception):
            raise res
        return state, res

    def _pair(self, res: IwasawaResult) -> FramePointPair:
        return FramePointPair(res.F[0], res.F[3 * res.window], self.lambda0, res.window)

    def unitary_frame(self, z: complex, winding: int = 0) -> IwasawaResult:
        """Iwasawa split of the frame values at z, at the window the rule chooses for z."""
        return self._anchor(complex(z), winding)[1]

    def frame_pair(self, z: complex, winding: int = 0) -> FramePointPair:
        """The unitary frame at (lam0, -i lam0)."""
        return self._pair(self.unitary_frame(z, winding))

    def frame_pairs(self, z: complex, points, winding: int = 0) -> list[FramePointPair]:
        """Frame pairs at points near z, all at z's window, one split per point.

        The window is chosen once, from z's own split, so every point shares
        z's truncation.  The points' values are carried from z's by
        ``_frames`` along straight segments from z: exactly for a one-term
        potential, else as the rows of one adaptive transport, which share
        every step, so finite differences see one smooth function.  A point
        equal to z is read off z's split, so its pair equals
        ``frame_pair(z)`` bit for bit.
        """
        z = complex(z)
        points = [complex(p) for p in points]
        state, anchor = self._anchor(z, winding)
        for p in points:
            if p != z:
                validate_path(DomainPath.line(z, p), self.pot)
        values = self._frames(points, winding, anchor.window, (z, state))
        for y in values:
            if isinstance(y, Exception):
                raise y
        return [self._pair(anchor if p == z else iwasawa(y, tol=self.iwasawa_tol)) for p, y in zip(points, values)]

    def lift(self, z: complex, winding: int = 0) -> np.ndarray:
        """Unit-norm Q2 lift (raw lift / sqrt(2)); smooth in z by construction."""
        x, y = xy_matrices(self.frame_pair(z, winding))
        return q2_point(x, y) / np.sqrt(2.0)

    def _read(self, z: complex, res) -> SurfaceSample:
        """Read the surface point off the split at z, or record the error that
        stopped the node; a readout that fails on a P left unresolved (edge
        mass above ``EDGE_TOL``) names the window and the edge mass first."""
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
            error = str(exc)
            if res.edge_mass > EDGE_TOL:
                error = f"P is unresolved at window N = {res.window} (edge mass {res.edge_mass:.2e}): {error}"
            return SurfaceSample(z=z, valid=False, error=error)

    def samples(self, nodes, winding: int = 0) -> list[SurfaceSample]:
        """Surface samples at every node, in order.

        The nodes run ``NODE_CHUNK`` at a time, each chunk at the start
        window; the chunk's nodes that are unresolved there run again
        together at the cap.  A node that fails is invalid and carries its
        error, the rest are still computed.
        """
        zs = [complex(z) for z in nodes]
        out = []
        for chunk in node_chunks(zs):
            out += [self._read(z, res) for z, res in zip(chunk, self._anchors(chunk, winding)[1])]
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

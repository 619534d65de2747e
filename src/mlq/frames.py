"""From unitary frames to surfaces in Q2, S3 x S3 and S2 x S2.

``SurfaceMap`` carries the holomorphic frame Phi as its values at the 4N
points lam0 omega^j of the circle, omega = exp(2 pi i / 4N), and hands those
samples to the Iwasawa split; the unitary factor F comes back at the same
points.  Each anchor starts at N = ``START_WINDOW`` and is read again at the
cap N = ``window`` only where P = Phi* Phi is unresolved on the samples
(relative edge mass above ``EDGE_TOL``).  Sphere, torus and equivariant
have one xi term w(z) A(lam), so Phi = exp(W(z) A(lam)) exactly, at every
node and stencil point.  Every other family is integrated ``NODE_CHUNK``
nodes at a time, each chunk in one pass of Taylor sums of the batched
``transport`` along straight segments from the base point, and its
finite-difference stencils ride in a pass per ``NODE_CHUNK`` points, from
each node to its points (``frame_tables``); a failing row fails only its
own node, in the pass it ran in.  The spectral pair (lam0, -i lam0) is
samples j = 0 and j = 3N, so a point of the surface is read off F there, with
nothing evaluated or projected, by forming

    X = F(lam0) F(-i lam0)^{-1},      Y = i F(lam0) sigma_3 F(-i lam0)^{-1},

and reading the homogeneous Q2 coordinate off the entries of X and Y.  A
``FramePointPair`` (a pair or a stack, read off a ``FrameTable`` for a stencil)
is checked special unitary within ``FRAME_TOL`` once, when it is built.  The
SU(2) x SU(2) -> SO(4) two-fold cover psi identifies matrix pairs with
rotations of R^4 = H via quaternion left/right multiplication; its component
conventions are locked by unit tests because every sign matters.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .holonomy import EPS_POLE, DomainPath, OdeCounts, OdeOptions, raise_first, transport, validate_path
from .iwasawa import IwasawaResult, iwasawa
from .loops import DEFAULT_WINDOW_N, coefficients, ct2, det2, inv2, mul2, window_samples
from .potentials import FrozenRecord, PoleError, Potential, xi_sampler

SIGMA3 = np.diag([1.0 + 0.0j, -1.0 + 0.0j])

#: SU(2) gate on every frame pair read into a surface point
FRAME_TOL = 1e-6

#: window every anchor is first computed and split at (or ``window``, if smaller)
START_WINDOW = 8

#: relative edge mass of P = Phi* Phi above which an anchor is read again at
#: the cap window; it is set by the readout, not by the split, because the
#: readout error follows the edge mass and the quadric and |v| checks see it
EDGE_TOL = 1e-13

#: rows per transport pass and batched split (nodes, anchors, or the points of
#: whole stencils); fixed, so a node's chunk never depends on the scheduling
NODE_CHUNK = 32


def quat_components(m: np.ndarray) -> np.ndarray:
    """Quaternion coordinates (p0, p1, p2, p3) of an SU(2) matrix, or of each
    of a stack (..., 2, 2) on the last axis.

    Inverse of the identification p0 + p1 i + p2 j + p3 k <->
    [[p0 + p1 i, p2 + p3 i], [-p2 + p3 i, p0 - p1 i]].
    """
    return np.stack([m[..., 0, 0].real, m[..., 0, 0].imag, m[..., 0, 1].real, m[..., 0, 1].imag], axis=-1)


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


def _check_su2(m: np.ndarray, name: str) -> list:
    """For each matrix of m, one 2x2 or a stack (B, 2, 2), the ValueError it
    fails if it is not special unitary within ``FRAME_TOL``, else None."""
    m = m.reshape(-1, 2, 2)
    err_u = np.abs(mul2(ct2(m), m) - np.eye(2)).max(axis=(-2, -1))
    err_d = np.abs(det2(m) - 1.0)
    return [ValueError(f"{name} is not special unitary within tol {FRAME_TOL:.1e} "
                       f"(unitarity {u:.2e}, det deviation {d:.2e})") if u > FRAME_TOL or d > FRAME_TOL else None
            for u, d in zip(err_u, err_d)]


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
    raise_first(_check_su2(p, "first psi argument") + _check_su2(q, "second psi argument"))
    return _left_mult(quat_components(p)) @ _right_mult(quat_components(q))


class FramePointPair(FrozenRecord):
    """Unitary frame evaluated at the spectral pair (lam0, -i lam0), or a
    stack of such pairs (F1 and F2 of shape (B, 2, 2)).

    Every matrix must be special unitary within ``FRAME_TOL``; a pair is
    checked once, when it is built.
    """

    __slots__ = ("F1", "F2")
    F1: np.ndarray
    F2: np.ndarray

    def __init__(self, F1: np.ndarray, F2: np.ndarray) -> None:
        F1, F2 = np.asarray(F1, dtype=np.complex128), np.asarray(F2, dtype=np.complex128)
        raise_first(_check_su2(F1, "F1") + _check_su2(F2, "F2"))
        super().__init__(F1, F2)


class FrameTable(NamedTuple):
    """A stencil's unitary frames at the 4N samples lam0 omega^j, F of shape
    (P, 4N, 2, 2), at the window N, section and edge mass of its centre's split,
    with the largest relative split residual of its points' splits."""

    F: np.ndarray
    window: int
    section: int
    edge_mass: float
    split_residual: float

    def pair(self) -> FramePointPair:
        """The points' pairs at samples 0 and 3N, (lam0, -i lam0), as one stack."""
        return FramePointPair(self.F[:, 0], self.F[:, 3 * self.window])

    def rotated(self, mus) -> list[FramePointPair]:
        """For each mu, |mu| = 1, the points' pairs a map at lam0 mu reads: the
        split is unique under rotation of the circle, so F at lam0 mu omega^j
        is F's trigonometric interpolant on its 4N samples, each mode k turned
        by mu^k (the Nyquist mode by (mu^2N + mu^-2N) / 2), and its samples 0
        and 3N are two phase-weighted sums over the modes of one FFT, the
        second weighted by omega^(3N k) = (-i)^k."""
        m = 4 * self.window
        k = np.fft.fftfreq(m, 1 / m).astype(int)
        mus = np.asarray(mus, dtype=np.complex128).reshape(-1, 1)
        phase = mus**k
        phase[:, m // 2] = 0.5 * (phase[:, m // 2] + mus[:, 0] ** (m // 2))
        modes = coefficients(self.F)
        f1, f2 = (np.tensordot(w, modes, axes=(1, 1)) for w in (phase, phase * (-1j) ** k))
        return [FramePointPair(a, b) for a, b in zip(f1, f2)]


def xy_matrices(fp: FramePointPair) -> tuple[np.ndarray, np.ndarray]:
    """X = F1 F2^{-1} and Y = i F1 sigma_3 F2^{-1}; both special unitary.
    Stacked like the pair."""
    f2_inv = inv2(fp.F2)
    return mul2(fp.F1, f2_inv), 1j * mul2(mul2(fp.F1, SIGMA3), f2_inv)


def q2_point(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Homogeneous Q2 coordinate built from the entries of X and Y, on the
    last axis for stacks (..., 2, 2).

    The returned lift has Hermitian norm sqrt(2); it satisfies the bilinear
    quadric condition sum(v_i^2) = 0.
    """
    return np.stack(
        [
            x[..., 0, 0].real + 1j * y[..., 0, 0].real,
            x[..., 0, 0].imag + 1j * y[..., 0, 0].imag,
            x[..., 0, 1].real + 1j * y[..., 0, 1].real,
            x[..., 0, 1].imag + 1j * y[..., 0, 1].imag,
        ],
        axis=-1,
    )


def unit_lift(fp: FramePointPair) -> np.ndarray:
    """Unit-norm Q2 lift of a pair, ``q2_point`` / sqrt(2); stacked like the pair."""
    return q2_point(*xy_matrices(fp)) / np.sqrt(2.0)


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
    """Components (m1, m2, m3) of a trace-free Hermitian matrix sum m_i sigma_i,
    on the last axis for stacks (..., 2, 2)."""
    return np.stack([m[..., 0, 1].real, -m[..., 0, 1].imag, m[..., 0, 0].real], axis=-1)


def sphere_pair(fp: FramePointPair) -> tuple[np.ndarray, np.ndarray]:
    """The S2 x S2 immersion factors (Pauli vectors of F_j sigma_3 F_j^{-1}).

    The second factor is read through the conjugate (opposite-orientation)
    identification: with both factors read in the same orientation the pair
    satisfies Jac(phi) = +Jac(psi) and is Lagrangian only for the difference
    of the area forms; conjugating the second matrix flips that sign, so the
    product Lagrangian condition det{phi,.} + det{psi,.} = 0 and the
    associated-Jacobian identity Jac(phi) = -Jac(psi) hold literally.
    Stacked like the pair.
    """
    phi = mul2(mul2(fp.F1, SIGMA3), ct2(fp.F1))
    psi = mul2(mul2(fp.F2, SIGMA3), ct2(fp.F2))
    return pauli_components(phi), pauli_components(psi.conj())


class GridSpec(FrozenRecord):
    """Rectangular z-grid, ordered row-major (imaginary axis outer)."""

    __slots__ = ("re_min", "re_max", "n_re", "im_min", "im_max", "n_im")
    re_min: float
    re_max: float
    n_re: int
    im_min: float
    im_max: float
    n_im: int

    def __init__(self, re_min: float, re_max: float, n_re: int, im_min: float, im_max: float, n_im: int) -> None:
        if n_re < 1 or n_im < 1:
            raise ValueError("grid needs at least one node per axis")
        if re_max < re_min or im_max < im_min:
            raise ValueError("grid bounds are inverted")
        super().__init__(re_min, re_max, n_re, im_min, im_max, n_im)

    def nodes(self) -> list[complex]:
        xs = np.linspace(self.re_min, self.re_max, self.n_re)
        ys = np.linspace(self.im_min, self.im_max, self.n_im)
        return [complex(x, y) for y in ys for x in xs]


class SurfaceSample(NamedTuple):
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
    lam0, which must lie on the unit circle (ValueError at construction
    otherwise), and split there by ``iwasawa``; the frame pair is read off the
    unitary factor at samples 0 and 3N.  The window N is chosen per anchor
    (a grid node, or the centre of a stencil) by one rule: the anchor is
    computed and split at the start window min(``START_WINDOW``, ``window``),
    and again at the cap, ``window``, where P = Phi* Phi leaves a relative
    edge mass above ``EDGE_TOL`` or the split fails.  A one-term potential
    (sphere, torus, equivariant) has the exact frame exp(W A), evaluated at
    all nodes of a chunk at once; a node within ``EPS_POLE`` of its pole is
    invalid.  Any other potential is integrated by ``transport`` along one
    straight segment from the base point, one pass per chunk, whose series
    stop only where every node's has converged, so no node is summed to
    fewer terms than it would be alone.  ``samples`` runs a
    grid ``NODE_CHUNK`` nodes at a time and reruns a chunk's unresolved
    nodes together at the cap; each pass is split by one batched
    ``iwasawa`` call, the chunk's points are read off one stack of frame
    pairs, and ``sample(z)`` and every anchor are a chunk of one.  A node
    whose route, row or split fails is invalid and carries its own error: a
    failing row fails only its own node, in the pass it ran in.
    ``ode_counts`` totals the Taylor pieces and terms of every transport the
    map ran, with their largest det drift.
    ``frame_tables`` evaluates stencils at their centres' windows by the same
    ``_frames``, started from the centres' values, one ``FrameTable`` each, so
    finite differences see a smooth function limited only by roundoff.
    Nothing is cached and the counts are locked, so a map may be shared
    between threads.
    """

    def __init__(
        self,
        pot: Potential,
        lambda0: complex = 1.0,
        window: int | None = None,
        ode: OdeOptions | None = None,
    ) -> None:
        self.pot = pot
        self.lambda0 = complex(lambda0)
        if not abs(abs(self.lambda0) - 1.0) <= 1e-9:
            raise ValueError(f"lambda0 must lie on the unit circle, got {self.lambda0}")
        #: the cap: the window of a node whose P is unresolved at the start window
        self.window = DEFAULT_WINDOW_N if window is None else int(window)
        self.start_window = min(START_WINDOW, self.window)
        self.ode = ode if ode is not None else OdeOptions()
        # lam0 and -i lam0 are samples 0 and 3N at either window
        self._lams = {n: self.lambda0 * window_samples(n) for n in (self.start_window, self.window)}
        self._xi = {n: xi_sampler(pot, lams) for n, lams in self._lams.items()}
        #: Taylor pieces, terms and det drift of every transport this map ran
        self.ode_counts = OdeCounts()

    # -- frame evaluation ---------------------------------------------------

    def _frames(self, zs: list[complex], winding: int, n: int, starts=None) -> list:
        """Frame values at window n for each z, or the error that stops that
        node, each carried from its own start (z0, values at z0), by default
        the identity at the base point: exp(W A) for a one-term potential,
        with W continued from z0 along the straight segment to z, else one
        ``transport`` of the rows whose z differs from their z0 along those
        segments, in which a failing row fails only its own node; a z equal
        to its z0 keeps z0's values."""
        if winding != 0 and self.pot.variant != "equivariant":
            raise ValueError("winding paths are only defined for the equivariant family")
        base = self.pot.base_point
        if starts is None:
            starts = [(base, np.broadcast_to(np.eye(2, dtype=np.complex128), (4 * n, 2, 2)))] * len(zs)
        if self._xi[n].exact is None:
            moved = [i for i, (z, (z0, _)) in enumerate(zip(zs, starts)) if z != z0]
            routes = [DomainPath.line(starts[i][0], zs[i]) for i in moved]
            ends = iter(transport(self.pot, routes, np.stack([starts[i][1] for i in moved]), self._lams[n], self.ode,
                                  self.ode_counts) if moved else [])
            return [next(ends) if z != z0 else y0 for z, (z0, y0) in zip(zs, starts)]
        antiderivative, a = self._xi[n].exact
        z0 = np.array([start[0] for start in starts], dtype=np.complex128)
        near = [any(abs(z - p) < EPS_POLE for p in self.pot.singular_points) for z in zs]
        w = antiderivative(base, z0, winding) + antiderivative(z0, np.where(near, z0, zs), 0)
        return [PoleError("no log-z route reaches the singular point z = 0") if bad else v
                for bad, v in zip(near, _expm(np.multiply.outer(w, a)))]

    def _anchors(self, zs: list[complex], winding: int) -> tuple[list, list]:
        """Frame values and their split, or the error that stops the node, at
        each z, at the window the rule chooses for it; one split per window."""
        states = self._frames(zs, winding, self.start_window)
        splits = _split_rows(states)
        # below the cap, a split that fails or leaves P an edge mass above EDGE_TOL is read again there
        again = [i for i, (state, res) in enumerate(zip(states, splits))
                 if self.start_window < self.window and not isinstance(state, Exception)
                 and (isinstance(res, Exception) or res.edge_mass > EDGE_TOL)]
        capped = self._frames([zs[i] for i in again], winding, self.window)
        for i, state, res in zip(again, capped, _split_rows(capped)):
            states[i], splits[i] = state, res
        return states, splits

    def unitary_frame(self, z: complex, winding: int = 0) -> IwasawaResult:
        """Iwasawa split of the frame values at z, at the window the rule chooses for z."""
        (res,) = self._anchors([complex(z)], winding)[1]
        raise_first([res])
        return res

    def frame_pair(self, z: complex, winding: int = 0) -> FramePointPair:
        """The unitary frame at (lam0, -i lam0)."""
        res = self.unitary_frame(z, winding)
        return FramePointPair(res.F[0], res.F[3 * res.window])

    def frame_tables(self, centres, points) -> list:
        """For each centre z, the frames at its points near z as one ``FrameTable``
        at z's window, or the error that stops z.

        A centre with a route to a point past a pole fails with that error,
        unless its split fails first, and joins no pass.  The others are the
        anchors of one ``_anchors`` pass per ``NODE_CHUNK``, which chooses each
        window once.  Their points are carried from the centres' values by
        ``_frames``, whole stencils at one window and NODE_CHUNK // (points a
        stencil) stencils a block, one pass and one split a block, in which
        a failing row fails only its own stencil.  A point equal to its centre
        is read off the centre's split: for one centre, ``frame_pair(z)`` bit
        for bit.
        """
        zs = [complex(z) for z in centres]
        pts = [[complex(p) for p in ps] for ps in points]
        out: list = [None] * len(zs)
        for i, (z, ps) in enumerate(zip(zs, pts)):
            try:
                for p in (p for p in ps if p != z):
                    validate_path(DomainPath.line(z, p), self.pot)
            except PoleError as exc:
                out[i] = exc
        anchors, windows = {}, {}
        # the centres that failed a route are split apart, so their own split's error comes first
        failed = [i for i, res in enumerate(out) if res is not None]
        for ids in [failed, *node_chunks([i for i, res in enumerate(out) if res is None])]:
            for i, (state, res) in zip(ids, zip(*self._anchors([zs[i] for i in ids], 0))):
                if isinstance(res, Exception):
                    out[i] = res
                elif out[i] is None:
                    anchors[i] = state, res
                    windows.setdefault(res.window, []).append(i)
        per = max(1, NODE_CHUNK // max(map(len, pts), default=1))
        for n, block in [(n, ids[k : k + per]) for n, ids in windows.items() for k in range(0, len(ids), per)]:
            carried = [(p, (zs[i], anchors[i][0])) for i in block for p in pts[i] if p != zs[i]]
            off = iter(_split_rows(self._frames([p for p, _ in carried], 0, n, [start for _, start in carried])))
            for i in block:
                anchor = anchors[i][1]
                splits = [anchor if p == zs[i] else next(off) for p in pts[i]]
                out[i] = next((res for res in splits if isinstance(res, Exception)), None) or FrameTable(
                    np.stack([res.F for res in splits]), anchor.window, anchor.section, anchor.edge_mass,
                    max(res.split_residual for res in splits))
        return out

    def lift(self, z: complex, winding: int = 0) -> np.ndarray:
        """Unit-norm Q2 lift (``unit_lift``); smooth in z by construction."""
        return unit_lift(self.frame_pair(z, winding))

    def samples(self, nodes) -> list[SurfaceSample]:
        """Surface samples at every node, in order.

        The nodes run ``NODE_CHUNK`` at a time, each chunk at the start
        window; the chunk's nodes that are unresolved there run again
        together at the cap, and the chunk is read off one stack
        (``_read_chunk``).  A node that fails is invalid and carries its
        error, the rest are still computed.
        """
        zs = [complex(z) for z in nodes]
        out = []
        for chunk in node_chunks(zs):
            out += _read_chunk(chunk, self._anchors(chunk, 0)[1])
        return out

    def sample(self, z: complex) -> SurfaceSample:
        return self.samples([z])[0]


def _split_rows(states: list) -> list:
    """The split of each frame in ``states`` by one ``iwasawa`` call, or the
    error that stops it; an error in ``states`` keeps its slot."""
    rows = [i for i, state in enumerate(states) if not isinstance(state, Exception)]
    out = list(states)
    if rows:
        for i, res in zip(rows, iwasawa(np.stack([states[i] for i in rows]))):
            out[i] = res
    return out


def _read_chunk(zs: list[complex], splits: list) -> list[SurfaceSample]:
    """The surface sample at each z, read off its split with the chunk's
    other nodes as one stack of frame pairs, or the error that stopped the
    node.  A pair that fails the SU(2) gate fails its node only; on a P left
    unresolved (edge mass above ``EDGE_TOL``) its error names the window and
    the edge mass first."""
    out = [SurfaceSample(z=z, valid=False, error=str(res)) if isinstance(res, Exception) else None
           for z, res in zip(zs, splits)]
    rows = [i for i, sample in enumerate(out) if sample is None]
    if not rows:
        return out
    f1 = np.stack([splits[i].F[0] for i in rows])
    f2 = np.stack([splits[i].F[3 * splits[i].window] for i in rows])
    gate = [e1 or e2 for e1, e2 in zip(_check_su2(f1, "F1"), _check_su2(f2, "F2"))]
    for i, exc in zip(rows, gate):
        if exc is not None:
            res = splits[i]
            error = str(exc)
            if res.edge_mass > EDGE_TOL:
                error = f"P is unresolved at window N = {res.window} (edge mass {res.edge_mass:.2e}): {error}"
            out[i] = SurfaceSample(z=zs[i], valid=False, error=error)
    good = [k for k, exc in enumerate(gate) if exc is None]
    # every row of the pair passed the gate above: it is built without a second check
    fp = object.__new__(FramePointPair)
    FrozenRecord.__init__(fp, f1[good], f2[good])
    x, y = xy_matrices(fp)
    q2, (s2a, s2b), s3x, s3y = q2_point(x, y), sphere_pair(fp), quat_components(x), quat_components(y)
    for j, k in enumerate(good):
        i = rows[k]
        res = splits[i]
        out[i] = SurfaceSample(z=zs[i], q2_hom=q2[j], s2_pair=(s2a[j], s2b[j]), s3_pair=(s3x[j], s3y[j]),
                               diagnostics={"unitarity_error": res.unitarity_error, "window": res.window,
                                            "edge_mass": res.edge_mass, "section": res.section,
                                            "split_residual": res.split_residual})
    return out


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

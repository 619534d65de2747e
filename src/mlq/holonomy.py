"""Frame integration: solve dPhi = Phi xi along paths in the z-domain.

There is one integrator, ``transport``.  It carries a frame as its values at
a fixed set of spectral values lam_1..lam_M, one 2x2 matrix per value, and
advances all of them at once with the right-hand side Y xi(z, lam_m) dz.
It carries a batch of B paths of S segments each in one sweep whose B*S
rows are the segments: the flow is linear, so Phi(z_S) = Phi(z_0) U_1 ... U_S,
each path's first row starts from its values and every other from the
identity, and the segment propagators are composed at the end.  ``monodromy``
runs it once around a closed path, or a batch of them, at every lam_m;
``SurfaceMap`` runs it at the M = 4N roots of unity rotated by lam0, where
the Iwasawa split takes the values as they are, one batch per chunk of grid
nodes, each on one straight segment from the base point, and one batch per
block of whole finite-difference stencils, from each centre's values to
each of its points.
It never runs the one-term families (sphere, torus, equivariant): their
frame is exp(W A).

The method is adaptive Dormand-Prince 8(5,3) with scipy's DOP853 step
control (``_dop853``), with the error norm taken per row and maximized over
the rows; it needs numpy only.  Internally the state is laid out as component
planes (2, 2, rows, M).  A step evaluates xi once, for all of its stage times,
and a stage's Y xi is one product over rows*M values per nonzero entry of xi.

Determinants: all potential families are trace free, so det U = 1 is exact
for the true flow and drifts only through integration error.  The drift is
divided out of every segment's propagator, at every lam, using the principal
square root of det U, and ``OdeCounts`` keeps the largest |det U - 1|.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Sequence

import numpy as np

from .potentials import FrozenRecord, PoleError, Potential, XiSampler, xi_sampler

#: Paths must keep this distance from declared singular points.
EPS_POLE = 1e-3

#: smallest singular value, relative to the largest, that ``unitarizing_gauge``
#: still reads as an invariant Hermitian form
UNITARIZE_TOL = 1e-8

#: attempted steps after which a sweep ends with IntegrationError
MAX_STEPS = 10_000

#: a step shorter than this many ulp(t) ends a sweep: rounding t + c h puts a stage
#: node up to 0.05% of h off (scipy's 10 allows 5%, and let one sweep into an
#: undeclared pole crawl 6,850 steps in rounding noise; 1000 ends it after 273)
MIN_STEP_ULPS = 1000


class IntegrationError(RuntimeError):
    """ODE solver failure; message carries the z-location of the failure."""


class DomainPath(FrozenRecord):
    """Piecewise-linear path in the z-plane.

    ``closed`` appends the segment from the last vertex back to the first;
    the first vertex is the base point.
    """

    __slots__ = ("vertices", "closed")
    vertices: tuple[complex, ...]
    closed: bool

    def __init__(self, vertices: Sequence[complex], closed: bool = False) -> None:
        verts = tuple(complex(v) for v in vertices)
        if len(verts) < 1:
            raise ValueError("path needs at least one vertex")
        for u, v in zip(verts, verts[1:]):
            if u == v:
                raise ValueError(f"consecutive path vertices coincide at {u}")
        if closed and len(verts) >= 2 and verts[0] == verts[-1]:
            raise ValueError("closed path must not repeat the base vertex")
        super().__init__(verts, closed)

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


class OdeOptions(FrozenRecord):
    """Integrator configuration.

    The adaptive Dormand-Prince 8(5,3) steps run under scipy's DOP853
    controller, with atol = rtol = tolerance on the real and imaginary parts
    of every entry.
    """

    __slots__ = ("tolerance",)
    tolerance: float

    def __init__(self, tolerance: float = 1e-10) -> None:
        if isinstance(tolerance, bool) or not 0 < tolerance < math.inf:
            raise ValueError(f"tolerance must be a finite positive real, got {tolerance!r}")
        super().__init__(tolerance)


class OdeCounts:
    """Running totals of DOP853 steps (accepted and rejected) and right-hand-side
    evaluations, and the largest |det U - 1| of any segment propagator U before
    it was divided out; one instance may be shared between threads."""

    def __init__(self) -> None:
        self.steps = 0
        self.rhs_calls = 0
        self.det_drift = 0.0
        self._lock = threading.Lock()

    def add(self, steps: int, rhs_calls: int, det_drift: float = 0.0) -> None:
        with self._lock:
            self.steps += steps
            self.rhs_calls += rhs_calls
            self.det_drift = max(self.det_drift, det_drift)


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
    is (2, 2, B, M) planes, and dz is folded into the sampler's arrays once.
    ``rhs(ts)`` calls each weight once, on all the times ts, and gives
    ``stage(s, y, out)``, which writes Y xi(ts[s]) dz into out: one product of
    row l of Y into column j per entry (l, j) of xi nonzero at some lam.
    """
    a = np.asarray(a, dtype=np.complex128).reshape(-1)
    dz = np.asarray(dz, dtype=np.complex128).reshape(-1)
    arrays = [xi.const] + [vals for _, vals in xi.weighted]
    # nz[n, l, j]: arrays[n] is nonzero at (l, j) for some lam; a zero column keeps const's zero entry (0, j)
    nz = np.array([vals.any(axis=0) for vals in arrays])
    nz[0, 0] |= ~nz.any(axis=(0, 1))
    columns = [[(l, [(n, _planes(arrays[n])[l, j] * dz[:, None]) for n in np.flatnonzero(nz[:, l, j])])
                for l in (0, 1) if nz[:, l, j].any()] for j in (0, 1)]

    def rhs(ts):
        ws = [None] + [w((a + np.multiply.outer(ts, dz))[..., None]) for w, _ in xi.weighted]
        terms = [[(l, [v if n == 0 else ws[n] * v for n, v in parts]) for l, parts in col] for col in columns]
        # an entry of const alone is one (B, M) array at every time
        xs = [[(l, x if x.ndim == 3 else [x] * len(ts)) for l, x in ((l, sum(t[1:], t[0])) for l, t in col)]
              for col in terms]

        def stage(s: int, y: np.ndarray, out: np.ndarray) -> None:
            for j, ((l, x), *rest) in enumerate(xs):
                np.multiply(y[:, l], x[s], out=out[:, j])
                for l, x in rest:
                    out[:, j] += y[:, l] * x[s]

        return stage

    return rhs


# Dormand-Prince 8(5,3) tableau (Hairer, Norsett, Wanner, Solving ODEs I,
# Sec. II.10), as scipy's DOP853 stores it: row s of _A combines the stages
# 0..s-1 into stage s, _B gives the eighth-order solution, and the rows of _E
# are the fifth- and third-order error estimators E5 and E3 over the stages.
_C = np.array([0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
               0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571, 1.0])
_A = (
    None,
    np.array([0.05260015195876773]),
    np.array([0.0197250569845379, 0.0591751709536137]),
    np.array([0.02958758547680685, 0, 0.08876275643042054]),
    np.array([0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792]),
    np.array([0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242]),
    np.array([0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125]),
    np.array([0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
              0.008273789163814023]),
    np.array([0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
              20.154067550477894, -43.48988418106996]),
    np.array([0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
              15.279233632882423, -33.28821096898486, -0.020331201708508627]),
    np.array([-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
              -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196]),
    np.array([2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
              27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303, 0.6433927460157636]),
)
_B = np.array([0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
               0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259])
_E = np.array([
    [0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
     -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294],
    [-0.18980075407240762, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
     -0.4226823213237919, -0.1521609496625161, 0.20136540080403034, 0.02265179219836082],
])
# scipy's step-size controller
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0


def _where(z: np.ndarray):
    """A batch of z-locations for an error message: one z, or the list."""
    return complex(z[0]) if z.size == 1 else [complex(v) for v in z]


def _row_ms(x: np.ndarray) -> np.ndarray:
    """Mean square of each row of a real array whose rows are its axis -2, shape (B,)."""
    x = x.reshape(-1, *x.shape[-2:])
    return np.square(x).sum(axis=(0, 2)) / (x.shape[0] * x.shape[2])


def _dop853(rhs, y0: np.ndarray, tol: float, z_at, counts: OdeCounts | None = None) -> np.ndarray:
    """Adaptive Dormand-Prince 8(5,3) on y' = f(t, y), t in [0, 1].

    ``rhs(ts)`` gives ``stage(s, y, out)``, which writes f(ts[s], y) into
    out; it is asked once per attempted step, for its 11 later stage times
    and t_new.  The state is complex; its axis -2 indexes independent rows
    (the nodes of a batch).  The step control is scipy's DOP853 per row:
    Hairer's initial-step rule for an error estimator of order 7, local
    extrapolation, and the error norm h |e5|^2 / sqrt((|e5|^2 + 0.01 |e3|^2) n)
    of the fifth- and third-order estimates over the row's n float64 values,
    each scaled by atol + rtol max(|y|, |y_new|) with atol = rtol = tol.  The
    rows share each step, so the initial step is the smallest any row would
    choose and a step is accepted only if every row's norm passes: no row
    gets a looser step than it would get alone.  Raises IntegrationError,
    located by ``z_at(t)``, when the step falls below ``MIN_STEP_ULPS``
    ulp(t), a step size or error norm is not finite (an overflowed
    right-hand side), or after ``MAX_STEPS`` steps.  ``counts``, when
    given, gains the attempted steps and their ``stage`` calls.
    """
    y = np.ascontiguousarray(y0, dtype=np.complex128)
    shape = y.shape
    k = np.empty((len(_C),) + shape, dtype=np.complex128)
    kf = k.reshape(len(_C), -1)
    f, f_new = np.empty_like(y), np.empty_like(y)
    rhs([0.0])(0, y, f)

    # initial step (Hairer, Norsett, Wanner, Sec. II.4), per row
    scale = tol + np.abs(y.view(np.float64)) * tol
    d0 = np.sqrt(_row_ms(y.view(np.float64) / scale))
    d1 = np.sqrt(_row_ms(f.view(np.float64) / scale))
    # each clamp sits at its branch's threshold, so the unused branch cannot overflow
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / np.maximum(d1, 1e-5))
    h0 = min(float(h0.min()), 1.0)
    rhs([h0])(0, y + h0 * f, f_new)
    d2 = np.sqrt(_row_ms((f_new - f).view(np.float64) / scale)) / h0
    d12 = np.maximum(d1, d2)
    h1 = np.where(d12 <= 1e-15, max(1e-6, h0 * 1e-3), (0.01 / np.maximum(d12, 1e-15)) ** (1 / 8))
    h_abs = min(100 * h0, float(h1.min()), 1.0)

    t = 0.0
    n_steps = 0
    try:
        while t < 1.0:
            min_step = MIN_STEP_ULPS * math.ulp(t)
            h_abs = max(h_abs, min_step)
            rejected = False
            while True:
                # a NaN step fails here too: every comparison with NaN is false
                if not (h_abs >= min_step and n_steps < MAX_STEPS):
                    raise IntegrationError(
                        f"adaptive integrator failed near z = {z_at(t)}: " + (
                            f"no end after {MAX_STEPS} steps" if n_steps >= MAX_STEPS
                            else f"required step size is less than {MIN_STEP_ULPS} ulp(t)" if h_abs < min_step
                            else "the step size or its error estimate is not finite")
                    )
                t_new = min(t + h_abs, 1.0)
                h = t_new - t
                h_abs = abs(h)
                n_steps += 1
                # xi once per step: stage s > 0 reads its value at t + c_s h, and f_new at t_new
                stage = rhs(np.append(t + _C[1:] * h, t_new))
                k[0] = f
                # h scales the tableau rows, not the (B*M)-long stage combinations
                for s in range(1, len(_C)):
                    stage(s - 1, y + ((_A[s] * h) @ kf[:s]).reshape(shape), k[s])
                y_new = y + ((_B * h) @ kf).reshape(shape)
                stage(len(_C) - 1, y_new, f_new)
                scale = tol + np.maximum(np.abs(y.view(np.float64)), np.abs(y_new.view(np.float64))) * tol
                # in mean squares over a row, the n of the docstring's norm cancels
                e5, e3 = (_row_ms(e.view(np.float64).reshape(scale.shape) / scale) for e in _E @ kf)
                # a row whose estimates are both 0 reads 0; one that is not finite stays so
                err = float((h * e5 / np.sqrt(np.where(e5 + e3 == 0, 1.0, e5 + 0.01 * e3))).max())
                if err < 1:
                    factor = _MAX_FACTOR if err == 0 else min(_MAX_FACTOR, _SAFETY * err ** (-1 / 8))
                    if rejected:
                        factor = min(1.0, factor)
                    h_abs *= factor
                    break
                # an error norm that is not finite (an overflowed stage) ends the sweep at the loop head
                h_abs = h_abs * max(_MIN_FACTOR, _SAFETY * err ** (-1 / 8)) if math.isfinite(err) else math.nan
                rejected = True
            t, y, f, f_new = t_new, y_new, f_new, f
    finally:
        if counts is not None:
            # the first evaluation and the initial-step probe, then one per stage of every step
            counts.add(n_steps, 2 + len(_C) * n_steps)
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
    the same number S of segments, y has shape (B, M, 2, 2) and row b moves
    along path b.  All B*S segments run as the rows of one adaptive sweep
    whose error norm is taken per row (see ``_dop853``): segment 0 of path b
    from y[b] to Y_b0, every later one from the identity to its propagator
    U_bs, each solving dY = Y xi(z, lam) dz and divided by the principal
    square root of its determinant; path b ends at Y_b0 U_b1 ... U_b(S-1).
    ``counts``, when given, accumulates the sweep's steps and right-hand-side
    evaluations and keeps the largest |det - 1| it divided out.
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
    # row s * B + b carries segment s of path b
    segs = [seg for column in zip(*segments) for seg in column]
    if not segs:
        return y[0] if single else y
    a = np.array([s[0] for s in segs])
    dz = np.array([s[1] for s in segs]) - a
    state = _planes(np.concatenate([y, np.broadcast_to(np.eye(2), (len(segs) - len(paths), *y.shape[1:]))]))
    state = _dop853(_segment_rhs(xi, a, dz), state, opts.tolerance, lambda t: _where(a + t * dz), counts)
    det = state[0, 0] * state[1, 1] - state[0, 1] * state[1, 0]
    vanishing = np.abs(det) < 1e-8
    if np.any(vanishing):
        end = segs[int(np.argmax(vanishing.any(axis=1)))][1]
        raise IntegrationError(f"frame determinant vanishes at z = {end}; cannot renormalize")
    if counts is not None:
        counts.add(0, 0, float(np.abs(det - 1.0).max()))
    # y_b = Y_b0 U_b1 ... U_b(S-1), each factor divided by the square root of its determinant
    props = (state / np.sqrt(det)).reshape(2, 2, len(segments[0]), len(paths), -1)
    state = props[:, :, 0]
    for s in range(1, props.shape[2]):
        state = _right_mul(state, props[:, :, s])
    y = _unplanes(state)
    return y[0] if single else y


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
    after one circuit, in one ``transport`` for every path and spectral value.
    """
    single = isinstance(gamma, DomainPath)
    paths = [gamma] if single else list(gamma)
    if not all(p.closed for p in paths):
        raise ValueError("monodromy needs a closed path")
    lams = np.asarray(lams, dtype=np.complex128).reshape(-1)
    h = transport(pot, paths, np.broadcast_to(np.eye(2), (len(paths), lams.size, 2, 2)), lams, opts, counts)
    return h[0] if single else h


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

"""Pointwise numerical verification of the geometric claims.

Every quantity the construction is supposed to satisfy — conformality,
the Lagrangian condition, minimality, holomorphy of the quadratic
differential, the sinh-Gordon equation, the factor-map correspondence —
is estimated here by central finite differences of the surface lift and
reported as a residual.  Residuals are reported, never asserted; thresholds
belong to the caller.

The FD engine evaluates the frames on the 13-point diamond {|a| + |b| <= 2}
around each node once, as one table at the node's window, for a chunk of
nodes at a time (``frame_tables``: the exact frame of a one-term potential,
else one transport to all the nodes and one from them per two stencils, 24
rows), reads each node's pairs off its table once, as one checked stack, and
reads the lift, the S2 x S2 factors and every report off that stack
(``node_reports``).  Every table is an array in ``DIAMOND`` order, (13, ...),
and every difference is a row of one weight matrix, ``FD_WEIGHTS``: the
order-2 central d_x and d_y at the five ``CROSS`` points and the 5-point
Laplacian at the centre, so every smooth residual shrinks like h^2.  The
outer points of the diamond serve the rows at the cross neighbours, where
u, alpha and beta are read for the nested derivatives; those apply the
centre rows (``CENTRE_WEIGHTS``) to the five cross values.
Derivative convention throughout: d_z = (d_x - i d_y)/2.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple

import numpy as np

from .frames import FramePointPair, FrameTable, SurfaceMap, psi_so4, q2_point, sphere_pair, xy_matrices

#: stencil offsets (a, b) ~ z + (a + ib) h used by the FD engine
DIAMOND = tuple(
    (a, b) for a in range(-2, 3) for b in range(-2, 3) if abs(a) + abs(b) <= 2
)
CROSS = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))
CENTRE = DIAMOND.index((0, 0))


def _row(p: tuple[int, int]) -> np.ndarray:
    """The weight row over DIAMOND that reads the value at offset p."""
    return np.array([q == p for q in DIAMOND], dtype=float)


#: order-2 central weights over DIAMOND for h = 1: d_x at the CROSS points, d_y there, the centre Laplacian
FD_WEIGHTS = np.array(
    [0.5 * (_row((a + 1, b)) - _row((a - 1, b))) for a, b in CROSS]
    + [0.5 * (_row((a, b + 1)) - _row((a, b - 1))) for a, b in CROSS]
    + [sum(_row(p) for p in CROSS[1:]) - 4.0 * _row((0, 0))]
)
#: the centre rows (d_x, d_y, Laplacian) over values in CROSS order, for the nested derivatives
CENTRE_WEIGHTS = FD_WEIGHTS[[0, 5, 10]][:, [DIAMOND.index(p) for p in CROSS]]

DEGENERACY_EPS = 1e-12

#: e^2u - |alpha|^2 below -METRIC_RELATION_TOL max(e^2u, 1) violates the metric relation
METRIC_RELATION_TOL = 1e-8


class DegeneracyError(ValueError):
    """The sampled map is not an immersion at this node (e^u ~ 0)."""


class ConsistencyError(ValueError):
    """Invariant relations violated beyond tolerance (bad input data)."""


def _bilinear(v: np.ndarray, w: np.ndarray) -> complex:
    return complex(np.sum(v * w))


def frame_table(smap: SurfaceMap, z: complex, h: float) -> FrameTable:
    """The frames on the diamond around z, all at z's window (``SurfaceMap.frame_pairs``)."""
    return smap.frame_pairs(z, [z + (a + 1j * b) * h for a, b in DIAMOND])


def frame_tables(smap: SurfaceMap, zs: list[complex], h: float) -> list:
    """``frame_table`` at each z, or the error that stops z, from one ``SurfaceMap.frame_tables``."""
    return smap.frame_tables(zs, [[z + (a + 1j * b) * h for a, b in DIAMOND] for z in zs])


def _lift_table(pairs: FramePointPair) -> np.ndarray:
    """(13, 4) unit Q2 lifts of a frame table's stacked pairs, read as SurfaceMap.lift reads one pair."""
    return q2_point(*xy_matrices(pairs)) / np.sqrt(2.0)


def _s2_table(pairs: FramePointPair) -> np.ndarray:
    """(13, 2, 3) factor pairs (phi, psi) of a frame table's stacked pairs."""
    return np.stack(sphere_pair(pairs), axis=1)


def _eval_stencil(fn: Callable, z: complex, h: float, dtype) -> np.ndarray:
    """Values of a plain callable on the diamond around z, as a (13, ...) array.

    The callable must itself be smooth in z: a sign-normalized
    representative would break the differences.
    """
    z = complex(z)
    return np.array([fn(z + (a + 1j * b) * h) for a, b in DIAMOND], dtype=dtype)


def _apply(vals: np.ndarray, h: float, weights: np.ndarray = FD_WEIGHTS):
    """(f_z, f_zbar, Laplacian) of a table along its first axis: the d_x rows,
    the d_y rows and the last row of ``weights`` in one einsum, at step h."""
    d = np.einsum("ij,j...->i...", weights, vals)
    n = len(weights) // 2
    fx, fy = d[:n] / h, d[n:-1] / h
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy), d[-1] / (h * h)


def _jacobians(m: np.ndarray, mz: np.ndarray) -> np.ndarray:
    """det{m, m_x, m_y} at the centre of each factor of a (13, 2, 3) table, read
    off its d_z rows as m_x = 2 Re m_z and m_y = -2 Im m_z."""
    return np.linalg.det(np.stack([m[CENTRE], 2 * mz[0].real, -2 * mz[0].imag], axis=-1))


class InvariantReport(NamedTuple):
    """First-order invariants of the lift at one node, with residuals.

    u is the conformal exponent of the induced metric 2 e^u dz dzbar,
    alpha = <f_z, f_z> the quadratic-differential coefficient (bilinear),
    beta = <f_z, f_zbar>, phi_inv = e^{-u} <f_zzbar, conj(f_zbar)> the
    minimality 1-form coefficient, and u_hat the sinh-Gordon potential
    e^{u_hat} = e^u + sqrt(e^{2u} - |alpha|^2).  alpha and beta are reported
    in the quarter-turn-normalized lift phase (beta real >= 0, see
    _quarter_turn_phase); u, u_hat, phi_inv and all residuals are
    phase-invariant.  Every derivative is a row of ``FD_WEIGHTS`` applied to
    the (13, 4) lift table; alpha_holomorphy and sinh_gordon apply the centre
    rows to alpha and u_hat at the five CROSS points.

    residuals keys: alpha_holomorphy, beta_phase, phi_norm, quadric,
    horizontality, sinh_gordon, metric_identity, relation_e2u.  window is
    the truncation window N the frame table was read at, section the blocks
    of the Toeplitz section its centre's split accepted, edge_mass the
    relative edge mass of P that split left, and split_residual the largest
    relative residual of the table's splits (all None for stacked pairs or
    a plain callable).
    """

    z: complex
    u: float
    alpha: complex
    beta: complex
    phi_inv: complex
    u_hat: float
    residuals: dict[str, float]
    window: int | None = None
    section: int | None = None
    edge_mass: float | None = None
    split_residual: float | None = None


def _point_invariants(fz: np.ndarray, fzb: np.ndarray):
    """(e^u, alpha, beta) at the five CROSS points from f_z and f_zbar there."""
    return np.sum(fz * np.conj(fz), axis=-1).real, np.sum(fz * fz, axis=-1), np.sum(fz * fzb, axis=-1)


def _u_hat_of(eu: float, alpha: complex) -> float:
    disc = eu * eu - abs(alpha) ** 2
    scale = max(eu * eu, 1.0)
    if disc < -METRIC_RELATION_TOL * scale:
        raise ConsistencyError(
            f"e^2u - |alpha|^2 = {disc:.3e} < 0; metric relation violated"
        )
    # the flat torus sits exactly on the branch point e^2u = |alpha|^2, where
    # the square root would turn roundoff in disc into O(sqrt(eps)) noise in
    # u_hat; snap anything at roundoff scale onto the branch point instead
    if disc < 1e-12 * scale:
        disc = 0.0
    return float(np.log(eu + np.sqrt(disc)))


def _quarter_turn_phase(alpha: complex, beta: complex, eu: float) -> complex:
    """Constant re-phase of the lift, snapped to the nearest quarter turn.

    The horizontal lift is unique up to a constant phase e^{i theta}, under
    which alpha and beta both pick up e^{2 i theta}.  We fix the phase so the
    reported beta is real >= 0 (the beta-hat convention); when beta vanishes
    (totally geodesic torus) the fallback convention is alpha real >= 0,
    which keeps the correspondence Theta = 2 alpha (Theta read on the second
    factor) consistent across fixtures.  Restricting to quarter turns keeps
    the choice exact and leaves genuine phase drift visible in the
    beta_phase residual.
    """
    for w in (beta, alpha):
        if abs(w) > 1e-9 * eu:
            return (-1j) ** int(round(np.angle(w) / (np.pi / 2)))
    return 1.0 + 0.0j


def sinh_gordon_residual(
    u_hat: Mapping[tuple[int, int], float] | np.ndarray, alpha: complex, h: float
) -> float:
    """sinh-Gordon residual |Lap(u_hat)/4 + e^u_hat - |alpha|^2 e^{-u_hat}|.

    ``u_hat`` maps the five cross offsets (0,0), (+-1,0), (0,+-1) to u_hat
    values at spacing h, or lists them in CROSS order; ``alpha`` is the
    quadratic-differential coefficient at the centre.
    """
    uh = np.array([u_hat[p] for p in CROSS] if isinstance(u_hat, Mapping) else u_hat, dtype=float)
    lap = _apply(uh, h, CENTRE_WEIGHTS)[2]
    return float(abs(lap / 4 + np.exp(uh[0]) - abs(alpha) ** 2 * np.exp(-uh[0])))


def _invariants(
    vals: np.ndarray, z: complex, h: float, phase: complex | None = None, table: FrameTable | None = None
) -> InvariantReport:
    """InvariantReport from a (13, 4) lift table on the diamond around z, recording
    the window, section, edge mass and split residual of its frame ``table``."""
    f0 = vals[CENTRE]
    fz, fzb, lap = _apply(vals, h)
    eus, alphas, betas = _point_invariants(fz, fzb)
    eu = float(eus[0])
    if eu < DEGENERACY_EPS:
        raise DegeneracyError(f"degenerate immersion at z = {z} (e^u = {eu:.3e})")
    u = float(np.log(eu))
    alpha, beta = complex(alphas[0]), complex(betas[0])
    if phase is None:
        phase = _quarter_turn_phase(alpha, beta, eu)
    alpha *= phase
    beta *= phase
    phi = _bilinear(0.25 * lap, np.conj(fzb[0])) / eu
    # u_hat at the cross points and d_zbar alpha for the nested derivatives;
    # both are invariant under the constant phase
    uh = np.array([_u_hat_of(float(e), a) for e, a in zip(eus, alphas)])
    dzbar_alpha = _apply(alphas, h, CENTRE_WEIGHTS)[1]

    residuals = {
        "alpha_holomorphy": abs(dzbar_alpha[0]),
        "beta_phase": abs(beta.imag) + max(0.0, -beta.real),
        "phi_norm": abs(phi),
        "quadric": abs(_bilinear(f0, f0)),
        "horizontality": abs(complex(np.sum(fz[0] * np.conj(f0)))),
        "sinh_gordon": sinh_gordon_residual(uh, alpha, h),
        "metric_identity": abs(2 * eu - np.exp(uh[0]) - abs(alpha) ** 2 * np.exp(-uh[0])),
        "relation_e2u": abs(eu * eu - abs(beta) ** 2 - abs(alpha) ** 2),
    }
    return InvariantReport(
        z=z, u=u, alpha=alpha, beta=beta, phi_inv=phi, u_hat=float(uh[0]), residuals=residuals,
        **({} if table is None else {"window": table.window, "section": table.section, "edge_mass": table.edge_mass,
                                     "split_residual": table.split_residual}),
    )


def invariants_report(
    surface: SurfaceMap | FramePointPair | Callable[[complex], np.ndarray],
    z: complex,
    h: float = 1e-3,
    phase: complex | None = None,
) -> InvariantReport:
    """Estimate the invariants of the lifted surface at z by central FD.

    ``surface`` is a SurfaceMap (its ``frame_table``), the stacked pairs a
    frame table around z reads, or a plain smooth callable z -> unit 4-vector.
    ``phase`` overrides the automatic quarter-turn lift re-phasing (pass 1
    to see the raw alpha/beta of the lift as evaluated; the associated-family
    relation alpha(lam0) = lam0^-2 alpha(1) holds for the raw phase, since
    per-member re-phasing would snap the rotation away).
    """
    table = frame_table(surface, z, h) if isinstance(surface, SurfaceMap) else None
    pairs = surface if table is None else table.pair(0)
    vals = _lift_table(pairs) if isinstance(pairs, FramePointPair) else _eval_stencil(surface, z, h, np.complex128)
    return _invariants(vals, z, h, phase, table)


# ---------------------------------------------------------------------------
# S^2 x S^2 side


class PointGeometryReport(NamedTuple):
    """Residuals of the harmonic/Lagrangian structure of the factor maps."""

    conformal_residual: float
    lagrangian_residual: float
    harmonic_residual: float
    jacobian_sum: float


def _geometry(s2: np.ndarray, z: complex, h: float) -> PointGeometryReport:
    """PointGeometryReport from a (13, 2, 3) table of (phi, psi) factor pairs around z."""
    mz, _, lap = _apply(s2, h)
    norms = np.sum(mz[0] * np.conj(mz[0]), axis=-1).real
    res_h = float(np.sum(np.linalg.norm(0.25 * lap + norms[:, None] * s2[CENTRE], axis=-1)))
    eu = float(np.mean(norms / 2.0))
    if eu < DEGENERACY_EPS:
        raise DegeneracyError(f"degenerate factor maps at z = {z} (e^u = {eu:.3e})")
    bil = np.sum(mz[0] * mz[0], axis=-1)
    res_c = abs(norms[0] - norms[1]) + abs(bil[0] + bil[1])
    jac = float(abs(np.sum(_jacobians(s2, mz))))
    return PointGeometryReport(
        conformal_residual=float(res_c),
        lagrangian_residual=jac,
        harmonic_residual=res_h,
        jacobian_sum=jac / (8 * eu),
    )


def geometry_report(
    surface: SurfaceMap | Callable[[complex], tuple],
    z: complex,
    h: float = 1e-3,
) -> PointGeometryReport:
    """FD residuals of the S^2 x S^2 factor maps (phi, psi) at z.

    conformal: | |phi_z|^2 - |psi_z|^2 | + |<Phi_z, Phi_z>| (bilinear on R^6);
    lagrangian: |det{phi, phi_x, phi_y} + det{psi, psi_x, psi_y}|;
    harmonic: each factor satisfies m_zzbar + |m_z|^2 m = 0;
    jacobian_sum: |Jac(phi) + Jac(psi)| with Jac = det{m, m_x, m_y}/(8 e^u).
    """
    s2 = (_s2_table(frame_table(surface, z, h).pair(0)) if isinstance(surface, SurfaceMap)
          else _eval_stencil(surface, z, h, np.float64))
    return _geometry(s2, z, h)


# ---------------------------------------------------------------------------
# correspondence with the two S2 factor maps


class CUReport(NamedTuple):
    """Factor-map correspondence quantities at a node.

    Theta is the associated Hopf differential coefficient, read from the
    second factor as <psi_z, psi_z> (the first factor carries the opposite
    sign); under the correspondence Theta = 2 alpha.
    C is the associated Jacobian C = e^{-u}|beta|/2, and gauss_residual the
    Gauss equation
    |u_zzbar + 8 e^u C^2 - 4|C_z|^2/(1 - 4C^2)|; at C = 1/2 the last term has
    a removable singularity and the residual is skipped and flagged.
    K = -e^{-u} u_zzbar is the Gauss curvature of the induced metric
    2 e^u dz dzbar, from the same u_zzbar.
    jacobian_match compares C with the measured factor Jacobians
    (orientation-free).
    """

    C: float
    Theta: complex
    gauss_residual: float
    jacobian_match: float
    K: float
    gauss_skipped: bool = False


def cu_report(lifts: np.ndarray, h: float, s2: np.ndarray) -> CUReport:
    """Factor-map correspondence residuals from a (13, 4) lift table and a
    (13, 2, 3) table of (phi, psi) factor pairs, both in DIAMOND order.

    u and |beta| at the cross points come from the rows of ``FD_WEIGHTS`` and
    their centre derivatives from ``CENTRE_WEIGHTS``, as in the sinh-Gordon
    term of invariants_report; Theta and the factor Jacobians from ``s2``.
    """
    eus, _, betas = _point_invariants(*_apply(lifts, h)[:2])
    u = np.log(eus)
    c = 0.5 * np.exp(-u) * np.abs(betas)
    eu = float(np.exp(u[0]))
    C = float(c[0])
    cz = _apply(c, h, CENTRE_WEIGHTS)[0][0]
    u_zzb = _apply(u, h, CENTRE_WEIGHTS)[2] / 4
    one_minus = 1.0 - 4.0 * C * C
    skipped = one_minus <= 1e-6
    gauss = abs(u_zzb + 8 * eu * C * C - (0.0 if skipped else 4 * abs(cz) ** 2 / one_minus))

    sz = _apply(s2, h)[0]
    jacs = _jacobians(s2, sz) / (8 * eu)
    jac_match = min(max(abs(s * jacs[0] - C), abs(s * jacs[1] + C)) for s in (1.0, -1.0))
    return CUReport(
        C=C, Theta=_bilinear(sz[0, 1], sz[0, 1]), gauss_residual=float(gauss), jacobian_match=float(jac_match),
        K=float(-np.exp(-u[0]) * u_zzb), gauss_skipped=skipped,
    )


def node_reports(smap: SurfaceMap, zs, h: float = 1e-3) -> list:
    """All three reports at each z, or the error that stops z, from its table of
    one ``frame_tables`` call: the lifts and the factor pairs are both read off
    its pairs at sample 0, and the invariant report records its window."""
    out = []
    for z, table in zip(zs, frame_tables(smap, zs, h)):
        try:
            if isinstance(table, Exception):
                raise table
            pairs = table.pair(0)
            lifts, s2 = _lift_table(pairs), _s2_table(pairs)
            out.append((_invariants(lifts, z, h, table=table), _geometry(s2, z, h), cu_report(lifts, h, s2)))
        except (ValueError, RuntimeError) as exc:
            out.append(exc)
    return out


def node_report(
    smap: SurfaceMap, z: complex, h: float = 1e-3
) -> tuple[InvariantReport, PointGeometryReport, CUReport]:
    """All three reports at z: ``node_reports`` for one node, its error raised."""
    (rep,) = node_reports(smap, [z], h)
    if isinstance(rep, Exception):
        raise rep
    return rep


# ---------------------------------------------------------------------------
# Symmetry and closing checks


class RotationSymmetry(NamedTuple):
    """z -> e^{2 pi i l/(k+2)} z symmetry of the radial potential family."""

    k: int
    ell: int

    @property
    def angle(self) -> float:
        return 2.0 * np.pi * self.ell / (self.k + 2)

    def matrix(self) -> np.ndarray:
        w = np.exp(1j * np.pi * self.ell / (self.k + 2))
        a = np.diag([w, np.conj(w)])
        return psi_so4(a, a)


class DeckTransform(NamedTuple):
    """z -> e^{2 pi i} z on the universal cover (one full turn)."""


def symmetry_check(surface: SurfaceMap, transform, samples) -> float:
    """Max residual of a symmetry/closing relation over sample points.

    For RotationSymmetry: || unit(f(e^{i th} z)) - unit(A f(z)) || with the
    block rotation A acting componentwise on the C^4 lift.  For
    DeckTransform: min over signs of || unit(f(e^{2 pi i} z)) -+ unit(f(z)) ||,
    the projective closing residual.
    """

    def unit(v: np.ndarray) -> np.ndarray:
        return v / np.linalg.norm(v)

    worst = 0.0
    if isinstance(transform, RotationSymmetry):
        mat = transform.matrix()
        rot = np.exp(1j * transform.angle)
        for z in samples:
            lhs = unit(surface.lift(rot * complex(z)))
            rhs = unit(mat @ surface.lift(complex(z)))
            worst = max(worst, float(min(np.linalg.norm(lhs - rhs), np.linalg.norm(lhs + rhs))))
    elif isinstance(transform, DeckTransform):
        for z in samples:
            lhs = unit(surface.lift(complex(z), winding=1))
            rhs = unit(surface.lift(complex(z)))
            worst = max(worst, float(min(np.linalg.norm(lhs - rhs), np.linalg.norm(lhs + rhs))))
    else:
        raise TypeError(f"unsupported transform {transform!r}")
    return worst

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
(``node_reports``).  First derivatives and Laplacians use the
order-2 central stencils (the classic 5-point cross), so every smooth
residual shrinks like h^2; the outer points of the diamond serve the nested
derivatives (u, alpha and beta at the cross neighbours).
Derivative convention throughout: d_z = (d_x - i d_y)/2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .frames import FramePointPair, FrameTable, SurfaceMap, psi_so4, q2_point, sphere_pair, xy_matrices

#: stencil offsets (a, b) ~ z + (a + ib) h used by the FD engine
DIAMOND = tuple(
    (a, b) for a in range(-2, 3) for b in range(-2, 3) if abs(a) + abs(b) <= 2
)
CROSS = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))

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


def _lift_table(pairs: FramePointPair) -> dict:
    """Unit Q2 lifts of a frame table's stacked pairs, read as SurfaceMap.lift reads one pair."""
    return dict(zip(DIAMOND, q2_point(*xy_matrices(pairs)) / np.sqrt(2.0)))


def _s2_table(pairs: FramePointPair) -> dict:
    return dict(zip(DIAMOND, zip(*sphere_pair(pairs))))


def _eval_stencil(fn: Callable, z: complex, h: float, dtype) -> dict:
    """Values of a plain callable on the diamond around z.

    The callable must itself be smooth in z: a sign-normalized
    representative would break the differences.
    """
    z = complex(z)
    return {(a, b): np.asarray(fn(z + (a + 1j * b) * h), dtype=dtype) for a, b in DIAMOND}


def _partials(vals: Mapping, h: float, at=(0, 0)):
    """(f_x, f_y) by order-2 central differences."""
    a, b = at
    fx = (vals[(a + 1, b)] - vals[(a - 1, b)]) / (2 * h)
    fy = (vals[(a, b + 1)] - vals[(a, b - 1)]) / (2 * h)
    return fx, fy


def _first_derivs(vals: Mapping, h: float, at=(0, 0)):
    """(f_z, f_zbar) by order-2 central differences."""
    fx, fy = _partials(vals, h, at)
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


def _laplacian(vals: Mapping, h: float):
    """Laplacian at the centre of a scalar or vector table (the 5-point cross)."""
    return (
        vals[(1, 0)] + vals[(-1, 0)] + vals[(0, 1)] + vals[(0, -1)] - 4 * vals[(0, 0)]
    ) / (h * h)


def _jacobian(m: Mapping, h: float) -> float:
    """det{m, m_x, m_y} of an R^3-valued factor-map table at the centre."""
    return float(np.linalg.det(np.column_stack([m[(0, 0)], *_partials(m, h)])))


@dataclass
class InvariantReport:
    """First-order invariants of the lift at one node, with residuals.

    u is the conformal exponent of the induced metric 2 e^u dz dzbar,
    alpha = <f_z, f_z> the quadratic-differential coefficient (bilinear),
    beta = <f_z, f_zbar>, phi_inv = e^{-u} <f_zzbar, conj(f_zbar)> the
    minimality 1-form coefficient, and u_hat the sinh-Gordon potential
    e^{u_hat} = e^u + sqrt(e^{2u} - |alpha|^2).  alpha and beta are reported
    in the quarter-turn-normalized lift phase (beta real >= 0, see
    _quarter_turn_phase); u, u_hat, phi_inv and all residuals are
    phase-invariant.

    residuals keys: alpha_holomorphy, beta_phase, phi_norm, quadric,
    horizontality, sinh_gordon, metric_identity, relation_e2u.  window is
    the truncation window N the frame table was read at, section the blocks
    of the Toeplitz section its centre's split accepted, and edge_mass the
    relative edge mass of P that split left (all None for stacked pairs or
    a plain callable).
    """

    z: complex
    u: float
    alpha: complex
    beta: complex
    phi_inv: complex
    u_hat: float
    residuals: dict[str, float] = field(default_factory=dict)
    window: int | None = None
    section: int | None = None
    edge_mass: float | None = None


def _point_invariants(vals: Mapping, h: float, at):
    """(e^u, alpha, beta) from the stencil around one interior point."""
    fz, fzb = _first_derivs(vals, h, at)
    eu = float(np.sum(fz * np.conj(fz)).real)
    return eu, _bilinear(fz, fz), _bilinear(fz, fzb)


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


def sinh_gordon_residual(u_hat: Mapping[tuple[int, int], float], alpha: complex, h: float) -> float:
    """sinh-Gordon residual |Lap(u_hat)/4 + e^u_hat - |alpha|^2 e^{-u_hat}|.

    ``u_hat`` maps the five cross offsets (0,0), (+-1,0), (0,+-1) to u_hat
    values at spacing h; ``alpha`` is the quadratic-differential
    coefficient at the centre.
    """
    uh = u_hat[(0, 0)]
    return float(abs(_laplacian(u_hat, h) / 4 + np.exp(uh) - abs(alpha) ** 2 * np.exp(-uh)))


def _invariants(
    vals: Mapping, z: complex, h: float, phase: complex | None = None, table: FrameTable | None = None
) -> InvariantReport:
    """InvariantReport from a lift table on the diamond around z, recording the
    window, section and edge mass of the frame ``table`` it was read from."""
    f0 = vals[(0, 0)]
    fz, fzb = _first_derivs(vals, h)
    eu = float(np.sum(fz * np.conj(fz)).real)
    if eu < DEGENERACY_EPS:
        raise DegeneracyError(f"degenerate immersion at z = {z} (e^u = {eu:.3e})")
    u = float(np.log(eu))
    alpha = _bilinear(fz, fz)
    beta = _bilinear(fz, fzb)
    if phase is None:
        phase = _quarter_turn_phase(alpha, beta, eu)
    alpha *= phase
    beta *= phase
    fzzb = 0.25 * _laplacian(vals, h)
    phi = _bilinear(fzzb, np.conj(fzb)) / eu
    u_hat = _u_hat_of(eu, alpha)

    # nested invariants at the cross neighbours for the z-derivatives
    nb = {at: _point_invariants(vals, h, at) for at in CROSS[1:]}
    _, dzbar_alpha = _first_derivs({at: v[1] for at, v in nb.items()}, h)
    uh = {at: _u_hat_of(v[0], v[1]) for at, v in nb.items()}
    uh[(0, 0)] = u_hat

    residuals = {
        "alpha_holomorphy": abs(dzbar_alpha),
        "beta_phase": abs(beta.imag) + max(0.0, -beta.real),
        "phi_norm": abs(phi),
        "quadric": abs(_bilinear(f0, f0)),
        "horizontality": abs(complex(np.sum(fz * np.conj(f0)))),
        "sinh_gordon": sinh_gordon_residual(uh, alpha, h),
        "metric_identity": abs(2 * eu - np.exp(u_hat) - abs(alpha) ** 2 * np.exp(-u_hat)),
        "relation_e2u": abs(eu * eu - abs(beta) ** 2 - abs(alpha) ** 2),
    }
    return InvariantReport(
        z=z, u=u, alpha=alpha, beta=beta, phi_inv=phi, u_hat=u_hat, residuals=residuals,
        **({} if table is None else {"window": table.window, "section": table.section, "edge_mass": table.edge_mass}),
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
    if isinstance(surface, SurfaceMap):
        table = frame_table(surface, z, h)
        return _invariants(_lift_table(table.pair(0)), z, h, phase, table)
    if isinstance(surface, FramePointPair):
        return _invariants(_lift_table(surface), z, h, phase)
    return _invariants(_eval_stencil(surface, z, h, np.complex128), z, h, phase)


# ---------------------------------------------------------------------------
# S^2 x S^2 side


@dataclass
class PointGeometryReport:
    """Residuals of the harmonic/Lagrangian structure of the factor maps."""

    conformal_residual: float
    lagrangian_residual: float
    harmonic_residual: float
    jacobian_sum: float


def _geometry(pairs: Mapping, z: complex, h: float) -> PointGeometryReport:
    """PointGeometryReport from a table of (phi, psi) factor pairs around z."""
    res_h = 0.0
    mzs, norms, jacs = [], [], []
    for i in (0, 1):
        m = {k: v[i] for k, v in pairs.items()}
        mz, _ = _first_derivs(m, h)
        nz2 = float(np.sum(mz * np.conj(mz)).real)
        res_h += float(np.linalg.norm(0.25 * _laplacian(m, h) + nz2 * m[(0, 0)]))
        mzs.append(mz)
        norms.append(nz2)
        jacs.append(_jacobian(m, h))

    eu = float(np.mean([n / 2.0 for n in norms]))
    if eu < DEGENERACY_EPS:
        raise DegeneracyError(f"degenerate factor maps at z = {z} (e^u = {eu:.3e})")

    phz, psz = mzs
    res_c = abs(norms[0] - norms[1]) + abs(_bilinear(phz, phz) + _bilinear(psz, psz))
    return PointGeometryReport(
        conformal_residual=float(res_c),
        lagrangian_residual=float(abs(jacs[0] + jacs[1])),
        harmonic_residual=float(res_h),
        jacobian_sum=float(abs(jacs[0] + jacs[1]) / (8 * eu)),
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
    if isinstance(surface, SurfaceMap):
        return _geometry(_s2_table(frame_table(surface, z, h).pair(0)), z, h)
    return _geometry(_eval_stencil(surface, z, h, np.float64), z, h)


# ---------------------------------------------------------------------------
# correspondence with the two S2 factor maps


@dataclass
class CUReport:
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


def cu_report(
    lifts: Mapping[tuple[int, int], np.ndarray],
    h: float,
    s2: Mapping[tuple[int, int], tuple],
) -> CUReport:
    """Factor-map correspondence residuals from a lift table on the diamond.

    u and |beta| at the cross neighbours are nested central differences of
    the same table, as in the sinh-Gordon term of invariants_report.  ``s2``
    maps at least the cross offsets to (phi, psi) factor pairs; Theta and
    the factor Jacobians are read off it.
    """
    pts = {at: _point_invariants(lifts, h, at) for at in CROSS}
    u = {at: float(np.log(p[0])) for at, p in pts.items()}
    c = {at: 0.5 * np.exp(-u[at]) * abs(p[2]) for at, p in pts.items()}
    eu = float(np.exp(u[(0, 0)]))
    C = c[(0, 0)]
    cz, _ = _first_derivs(c, h)
    u_zzb = _laplacian(u, h) / 4

    one_minus = 1.0 - 4.0 * C * C
    if one_minus <= 1e-6:
        gauss = abs(u_zzb + 8 * eu * C * C)
        skipped = True
    else:
        gauss = abs(u_zzb + 8 * eu * C * C - 4 * abs(cz) ** 2 / one_minus)
        skipped = False

    psz, _ = _first_derivs({k: v[1] for k, v in s2.items()}, h)
    jacs = [_jacobian({k: v[i] for k, v in s2.items()}, h) / (8 * eu) for i in (0, 1)]
    jac_match = min(max(abs(s * jacs[0] - C), abs(s * jacs[1] + C)) for s in (1.0, -1.0))
    return CUReport(
        C=float(C), Theta=_bilinear(psz, psz), gauss_residual=float(gauss),
        jacobian_match=jac_match, K=float(-np.exp(-u[(0, 0)]) * u_zzb),
        gauss_skipped=skipped,
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


@dataclass(frozen=True)
class RotationSymmetry:
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


@dataclass(frozen=True)
class DeckTransform:
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

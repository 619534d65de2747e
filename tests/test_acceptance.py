"""End-to-end acceptance gates, one test per published claim of the library.

Every test enforces a stated tolerance and prints the measured margin next
to it, so a failing run shows how far the pipeline drifted, not just that
it did.  Wall-clock budgets are part of the contract and are asserted.
"""

import json
import time

import numpy as np
from oracles import sphere_metric_exponent
from scipy.linalg import expm

from mlq.cli import main
from mlq.closedform import (
    cylinder_closing,
    equivariant_frame,
    equivariant_profile,
    sphere_frame,
    torus_frame,
    trinoid_admissible,
    trinoid_monodromies,
)
from mlq.frames import (
    FramePointPair,
    GridSpec,
    SurfaceMap,
    build_surface,
    projective_distance,
    psi_so4,
    q2_point,
    quat_matrix,
    unit_lift,
    xy_matrices,
)
from mlq.holonomy import OdeOptions, unitarizing_gauge
from mlq.potentials import (
    equivariant_spec,
    make_potential,
    sphere_spec,
    torus_spec,
    trinoid_spec,
)
from mlq.verify import (
    CROSS,
    DeckTransform,
    frame_tables,
    invariants_report,
    node_report,
    sinh_gordon_residual,
    symmetry_check,
)

GRID25 = GridSpec(-0.6, 0.6, 5, -0.6, 0.6, 5).nodes()
RING25 = [
    r * np.exp(1j * t)
    for r in (0.85, 0.9, 1.0, 1.1, 1.2)
    for t in (0.3, 1.5, 2.9, 4.2, 5.5)
]
CIRCLE8 = np.exp(1j * np.pi * np.arange(8) / 4)


def _tight_map(spec, lambda0=1.0 + 0.0j, **kwargs):
    return SurfaceMap(
        make_potential(spec),
        lambda0,
        window=kwargs.pop("window", 16),
        ode=OdeOptions(tolerance=1e-12),
        **kwargs,
    )


# -- 1, 2: closed-form frame oracles ----------------------------------------


def _frame_oracle_sup(spec, frame_fn):
    smap = SurfaceMap(make_potential(spec), window=16, ode=OdeOptions(tolerance=1e-10))
    worst = 0.0
    for x in np.linspace(-1.05, 1.05, 5):
        for y in np.linspace(-1.05, 1.05, 5):
            z = complex(x, y)  # corner |z| = 1.485 <= 1.5
            res = smap.unitary_frame(z)
            for k, lam in enumerate(CIRCLE8):
                # window N carries F at the 4N-th roots of unity: lam is sample k N / 2
                err = np.abs(res.F[k * res.window // 2] - frame_fn(z, lam)).max()
                worst = max(worst, float(err))
    return worst


def test_c01_sphere_frame_oracle():
    t0 = time.perf_counter()
    worst = _frame_oracle_sup(sphere_spec(), sphere_frame)
    dt = time.perf_counter() - t0
    print(f"[c01] sphere frame sup-error {worst:.2e} (gate 1e-8), {dt:.1f}s of 10")
    assert worst <= 1e-8
    assert dt < 10.0


def test_c02_torus_frame_oracle():
    t0 = time.perf_counter()
    worst = _frame_oracle_sup(torus_spec(), torus_frame)
    dt = time.perf_counter() - t0
    print(f"[c02] torus frame sup-error {worst:.2e} (gate 1e-8), {dt:.1f}s of 10")
    assert worst <= 1e-8
    assert dt < 10.0


# -- 3: displayed surface vectors and the quadric condition -----------------


def _displayed_sphere(z, lam):
    zb = np.conj(z)
    return np.array(
        [
            1.0 - 1j * abs(z) ** 2,
            -(abs(z) ** 2) + 1j,
            z / lam + 1j * zb * lam,
            -zb * lam - 1j * z / lam,
        ]
    )


def _displayed_torus(z, lam):
    plus = z / lam + np.conj(z) * lam
    minus = z / lam - np.conj(z) * lam
    return np.array(
        [
            np.cos(plus + 1j * minus),
            1j * np.cos(plus - 1j * minus),
            1j * np.sin(plus - 1j * minus),
            -np.sin(plus + 1j * minus),
        ]
    )


def test_c03_surface_formula_fixtures():
    worst = 0.0
    quad = 0.0
    cases = ((sphere_frame, _displayed_sphere), (torus_frame, _displayed_torus))
    for frame_fn, displayed in cases:
        for z in (0.3 - 0.8j, 1.1 + 0.4j, -0.7 + 0.2j, 0.05 + 0.6j):
            for lam in (1.0 + 0.0j, np.exp(0.4j), 1j, np.exp(-2.1j)):
                fp = FramePointPair(frame_fn(z, lam), frame_fn(z, -1j * lam))
                v = q2_point(*xy_matrices(fp))
                worst = max(worst, projective_distance(v, displayed(z, lam)))
                quad = max(quad, abs(np.sum(v * v)))
    # every point the default pipeline emits satisfies the quadric too
    for spec in (sphere_spec(), torus_spec()):
        for s in build_surface(make_potential(spec), GridSpec(-0.9, 0.9, 4, -0.9, 0.9, 4)):
            assert s.valid, s.error
            quad = max(quad, abs(np.sum(s.q2_hom * s.q2_hom)))
    print(f"[c03] displayed-vector distance {worst:.2e}, quadric residual {quad:.2e} (gates 1e-8)")
    assert worst <= 1e-8
    assert quad <= 1e-8


# -- 4: geometry residuals with an FD-order check ----------------------------

C4_GATED = ("conformal", "lagrangian", "phi_norm", "alpha_holomorphy", "beta_phase")
#: below this a residual is eps/h^2 roundoff, not h^2 truncation, and halving
#: h amplifies it instead of shrinking it.  Measured maxima at h=1e-3 split
#: into two classes three decades apart: <= 5.9e-10 (every torus key -- the
#: flat lift cancels FD bias in all five residuals -- plus sphere
#: lagrangian/beta) and >= 3.2e-7 (everything with a genuine h^2 signal).
C4_FLOOR = 1e-8


def _residual_maxima(smap, nodes, h):
    out = dict.fromkeys(C4_GATED, 0.0)
    for z in nodes:
        inv, geo, _ = node_report(smap, z, h)
        out["conformal"] = max(out["conformal"], geo.conformal_residual)
        out["lagrangian"] = max(out["lagrangian"], geo.lagrangian_residual)
        for key in ("phi_norm", "alpha_holomorphy", "beta_phase"):
            out[key] = max(out[key], inv.residuals[key])
    return out


def _fixture_table(sphere_map, torus_map, equivariant_map, radial_map):
    return (
        ("sphere", sphere_map, GRID25),
        ("torus", torus_map, GRID25),
        ("equivariant", equivariant_map, RING25),
        ("radial", radial_map, RING25),
    )


def test_c04_geometry_residuals(sphere_map, torus_map, equivariant_map, radial_map):
    t0 = time.perf_counter()
    summary = []
    for name, smap, nodes in _fixture_table(sphere_map, torus_map, equivariant_map, radial_map):
        coarse = _residual_maxima(smap, nodes, 1e-3)
        fine = _residual_maxima(smap, nodes, 5e-4)
        for key, val in coarse.items():
            assert val <= 1e-4, f"{name} {key} = {val:.2e} at h=1e-3"
            if val > C4_FLOOR:
                ratio = val / fine[key]
                assert ratio >= 3.0, f"{name} {key}: halving h gave factor {ratio:.2f}"
        summary.append(f"{name} {max(coarse.values()):.1e}")
    dt = time.perf_counter() - t0
    print(f"[c04] residual maxima at h=1e-3: {', '.join(summary)}; order-2 confirmed ({dt:.0f}s of 60)")
    assert dt < 60.0


# -- 5: sinh-Gordon and metric identity --------------------------------------


def test_c05_sinh_gordon_and_metric_identity(sphere_map, torus_map, equivariant_map, radial_map):
    worst_sg = 0.0
    worst_mi = 0.0
    sphere_u_err = 0.0
    for name, smap, nodes in _fixture_table(sphere_map, torus_map, equivariant_map, radial_map):
        for z in nodes:
            rep = node_report(smap, z, 1e-3)[0]
            worst_sg = max(worst_sg, rep.residuals["sinh_gordon"])
            worst_mi = max(worst_mi, rep.residuals["metric_identity"])
            if name == "sphere":
                sphere_u_err = max(sphere_u_err, abs(rep.u - sphere_metric_exponent(z)))
    assert worst_sg <= 1e-3
    assert worst_mi <= 1e-3

    # analytic torus route: the constant solution u = u_hat = log 2, alpha = 2
    # satisfies the equation identically
    exact_torus = sinh_gordon_residual(np.full(len(CROSS), np.log(2.0)), 2.0 + 0.0j, 1e-3)
    assert exact_torus <= 1e-9

    # analytic sphere route: Liouville reduction u_zzbar = -2 e^u holds
    # identically for e^u = (1 + |z|^2)^{-2} ...
    exact_sphere = 0.0
    for z in GRID25:
        eu = (1.0 + abs(z) ** 2) ** -2.0
        u_zzbar = -2.0 / (1.0 + abs(z) ** 2) ** 2
        exact_sphere = max(exact_sphere, abs(u_zzbar + 2.0 * eu))
    assert exact_sphere <= 1e-9
    # ... and the pipeline metric sits on that analytic solution
    assert sphere_u_err <= 1e-4
    print(
        f"[c05] FD sinh-Gordon {worst_sg:.2e}, metric identity {worst_mi:.2e} (gates 1e-3); "
        f"analytic routes {max(exact_torus, exact_sphere):.2e} (gate 1e-9), "
        f"sphere u vs Liouville {sphere_u_err:.2e}"
    )


# -- 6: associated family -----------------------------------------------------


def test_c06_associated_family():
    spec = equivariant_spec(0.75, 0.25)
    lam0s = (1.0 + 0.0j, np.exp(1j * np.pi / 4), 1j, np.exp(3j * np.pi / 4))
    nodes = (1.1 + 0.3j, 0.8 - 0.45j)
    maps = {lam0: _tight_map(spec, lambda0=lam0) for lam0 in lam0s}
    h = 1e-4

    def raw_invariants(lam0, z):
        # the node's table as node_report reads it, at the raw lift phase:
        # per-member quarter-turn snapping would rotate the alpha comparison away
        (table,) = frame_tables(maps[lam0], [z], h)
        return invariants_report(unit_lift(table.pair()), z, h, phase=1, table=table)

    reps = {(lam0, z): raw_invariants(lam0, z) for lam0 in lam0s for z in nodes}
    worst_u = max(
        abs(reps[(lam0, z)].u - reps[(1.0 + 0.0j, z)].u) for lam0 in lam0s for z in nodes
    )
    worst_a = max(
        abs(reps[(lam0, z)].alpha - reps[(1.0 + 0.0j, z)].alpha / lam0**2)
        for lam0 in lam0s
        for z in nodes
    )
    print(f"[c06] family isometry |du| {worst_u:.2e}, rotation |da| {worst_a:.2e} (gates 1e-6)")
    assert worst_u <= 1e-6
    assert worst_a <= 1e-6


# -- 7: the SO(4) double cover ------------------------------------------------


def test_c07_psi_homomorphism():
    rng = np.random.default_rng(20260815)

    def rand_su2():
        q = rng.normal(size=4)
        return quat_matrix(q / np.linalg.norm(q))

    worst_hom = 0.0
    worst_orth = 0.0
    for _ in range(1000):
        p1, q1, p2, q2 = (rand_su2() for _ in range(4))
        m1 = psi_so4(p1, q1)
        worst_orth = max(worst_orth, float(np.abs(m1.T @ m1 - np.eye(4)).max()))
        hom = np.abs(psi_so4(p1 @ p2, q1 @ q2) - m1 @ psi_so4(p2, q2)).max()
        worst_hom = max(worst_hom, float(hom))
    assert worst_hom <= 1e-12
    assert worst_orth <= 1e-12

    p, q = rand_su2(), rand_su2()
    assert np.array_equal(psi_so4(-p, -q), psi_so4(p, q))

    eye = np.eye(2, dtype=complex)
    i_sigma3 = np.diag([1j, -1j])
    assert np.array_equal(psi_so4(eye, eye), np.eye(4))
    left = np.array([[0.0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    right = np.array([[0.0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    assert np.array_equal(psi_so4(i_sigma3, eye), left)
    assert np.array_equal(psi_so4(eye, i_sigma3), right)
    p45 = (eye + 1j * np.diag([1.0, -1.0])) / np.sqrt(2.0)
    both = np.array([[1.0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    assert np.allclose(psi_so4(p45, p45), both, atol=1e-15)
    print(f"[c07] 1000 pairs: homomorphism {worst_hom:.2e}, orthogonality {worst_orth:.2e} (gates 1e-12)")


# -- 8: explicit equivariant frame ---------------------------------------------


def test_c08_equivariant_closed_form():
    a, b = 1.0, 0.5
    profile = equivariant_profile(a, b, x_max=1.0)
    assert profile.energy_residual() <= 1e-9

    smap = _tight_map(equivariant_spec(a, b))
    worst = 0.0
    for x in np.linspace(-0.3, 0.3, 5):
        for y in np.linspace(0.2, 2.9, 5):  # Im w < pi keeps log e^w principal
            w = complex(x, y)
            closed = equivariant_frame(a, b, profile, w, 1.0)
            piped = smap.frame_pair(np.exp(w)).F1
            worst = max(worst, float(np.abs(piped - closed).max()))
    assert worst <= 1e-6

    # translation symmetry F(w + i th) = exp(i th D) F(w)
    w0, th = 0.25 + 0.4j, 0.7
    worst_sym = 0.0
    for lam in (1.0 + 0.0j, np.exp(0.4j), np.exp(-2.8j)):
        d = np.array([[0.0, a / lam + b * lam], [a * lam + b / lam, 0.0]])
        lhs = equivariant_frame(a, b, profile, w0 + 1j * th, lam)
        rhs = expm(1j * th * d) @ equivariant_frame(a, b, profile, w0, lam)
        worst_sym = max(worst_sym, float(np.abs(lhs - rhs).max()))
    print(
        f"[c08] closed form vs pipeline {worst:.2e}, symmetry {worst_sym:.2e} (gates 1e-6), "
        f"profile energy {profile.energy_residual():.2e} (gate 1e-9)"
    )
    assert worst_sym <= 1e-6


# -- 9: cylinder closing and its negative control ------------------------------


def test_c09_cylinder_closing():
    samples = (0.8 + 0.2j, 1.1 - 0.4j, -0.6 + 0.9j)

    report = cylinder_closing(0.75, 0.25, 0.0)
    assert report.closes_q2
    closed = _tight_map(equivariant_spec(0.75, 0.25), window=24)
    res = symmetry_check(closed, DeckTransform(), samples)
    assert res <= 1e-6

    report_bad = cylinder_closing(1.0, np.sqrt(2.0), 0.0)
    assert not report_bad.closes_q2
    open_map = _tight_map(equivariant_spec(1.0, np.sqrt(2.0)), window=32)
    res_bad = symmetry_check(open_map, DeckTransform(), samples)
    print(f"[c09] deck residual {res:.2e} (gate 1e-6); control {res_bad:.2e} (must exceed 1e-2)")
    assert res_bad > 1e-2


# -- 10: trinoid admissibility, monodromy, unitarizability ----------------------


def test_c10_trinoid():
    t0 = time.perf_counter()
    rep = trinoid_admissible(1j, 1.0, 1.0, 1.0)
    assert rep.admissible
    n_exact = (2.0 - np.sqrt(2.0)) / 4.0
    m_exact = (1.0 - np.sqrt(1.5)) / 2.0
    for nk, mk in zip(rep.n, rep.m):
        assert abs(nk - n_exact) <= 1e-10
        assert abs(mk - m_exact) <= 1e-10

    pot = make_potential(trinoid_spec(1j, 1.0, 1.0, 1.0))
    opts = OdeOptions(tolerance=1e-12)
    worst_prod = 0.0
    # lambda0 and -i lambda0
    for h0, h1, hinf in trinoid_monodromies(pot, [1j, 1.0 + 0.0j], opts=opts):
        worst_prod = max(worst_prod, float(np.abs(hinf @ h1 @ h0 - np.eye(2)).max()))
    assert worst_prod <= 1e-6

    # the monodromy representation is unitarizable: conjugate by the
    # invariant-form dressing at each sample and check unitarity there
    worst_unit = 0.0
    circle = [np.exp(1j * np.pi * (k / 4 + 0.07)) for k in range(8)]
    for mats in trinoid_monodromies(pot, circle, opts=opts):
        gauge = unitarizing_gauge(mats)
        inv_gauge = np.linalg.inv(gauge)
        for h in mats:
            u = gauge @ h @ inv_gauge
            worst_unit = max(worst_unit, float(np.abs(u @ u.conj().T - np.eye(2)).max()))
    dt = time.perf_counter() - t0
    print(
        f"[c10] weights exact, monodromy product {worst_prod:.2e}, dressed unitarity "
        f"{worst_unit:.2e} (gates 1e-6), {dt:.0f}s of 60"
    )
    assert worst_unit <= 1e-6
    assert dt < 60.0


# -- 11: the S^2 x S^2 correspondence -------------------------------------------


def test_c11_factor_map_correspondence(sphere_map, torus_map, equivariant_map):
    h = 1e-4
    fixtures = (
        ("sphere", sphere_map, 0.25 - 0.45j),
        ("torus", torus_map, 0.2 + 0.7j),
        ("equivariant", equivariant_map, 1.05 * np.exp(0.3j)),
    )
    worst_theta = 0.0
    worst_jac = 0.0
    worst_jsum = 0.0
    for name, smap, z in fixtures:
        inv, _, rep = node_report(smap, z, h)
        worst_theta = max(worst_theta, abs(rep.Theta - 2.0 * inv.alpha))
        worst_jac = max(worst_jac, rep.jacobian_match)
        worst_jsum = max(worst_jsum, node_report(smap, z, 1e-3)[1].jacobian_sum)
        if name == "sphere":
            # complex-point case: C = 1/2 and the Gauss identity degenerates
            assert rep.gauss_skipped
            assert abs(rep.C - 0.5) <= 1e-6
    assert worst_theta <= 1e-6
    assert worst_jac <= 1e-6
    assert worst_jsum <= 1e-4

    worst_gauss = 0.0
    for z in (0.9 * np.exp(1.5j), np.exp(2.9j), 1.1 * np.exp(0.3j)):
        _, _, rep = node_report(equivariant_map, z, 1e-3)
        assert not rep.gauss_skipped
        worst_gauss = max(worst_gauss, rep.gauss_residual)
    assert worst_gauss <= 1e-3

    k_sphere = node_report(sphere_map, 0.25 - 0.45j, 1e-3)[2].K
    k_torus = node_report(torus_map, 0.2 + 0.7j, 1e-3)[2].K
    print(
        f"[c11] Theta=2a {worst_theta:.2e}, jacobian match {worst_jac:.2e} (gates 1e-6), "
        f"jac sum {worst_jsum:.2e}, gauss {worst_gauss:.2e}, K sphere {k_sphere:.6f}, K torus {k_torus:.2e}"
    )
    assert abs(k_sphere - 2.0) <= 1e-4
    assert abs(k_torus) <= 1e-4


# -- 12: deterministic CLI output ------------------------------------------------


def test_c12_cli_determinism(tmp_path):
    cfg = {
        "schema": 1,
        "potential": {"variant": "sphere"},
        "grid": {
            "re_min": -0.4, "re_max": 0.4, "n_re": 3,
            "im_min": -0.4, "im_max": 0.4, "n_im": 3,
        },
        "truncation_N": 10,
    }
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps(cfg))
    outs = []
    for run in ("first", "second"):
        out = tmp_path / run
        assert main(["generate", "--config", str(path), "--out", str(out), "--jobs", "2"]) == 0
        outs.append(out)
    for fname in ("surface.csv", "meta.json", "factor1.obj", "factor2.obj"):
        pair = [(o / fname).read_bytes() for o in outs]
        assert pair[0] == pair[1], f"{fname} differs between identical runs"
    print("[c12] two generate runs byte-identical (surface.csv, meta.json, factor1.obj, factor2.obj)")

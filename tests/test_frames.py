import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from oracles import analytic_surface

from mlq.cli import _CLOSING_SAMPLES
from mlq.closedform import sphere_frame
from mlq.frames import (
    ANCHOR_CACHE,
    FramePointPair,
    GridSpec,
    SurfaceMap,
    build_surface,
    normalize_q2,
    pauli_components,
    projective_distance,
    psi_so4,
    q2_point,
    quat_components,
    quat_matrix,
    s3_pair,
    sphere_pair,
    xy_matrices,
)
from mlq.potentials import equivariant_spec, make_potential, sphere_spec, trinoid_spec

rng = np.random.default_rng(4242)


def random_su2() -> np.ndarray:
    p = rng.normal(size=4)
    return quat_matrix(p / np.linalg.norm(p))


def test_quaternion_round_trip():
    for _ in range(20):
        m = random_su2()
        np.testing.assert_allclose(quat_matrix(quat_components(m)), m, atol=1e-15)


def test_psi_is_the_quaternion_action():
    for _ in range(50):
        p, q, x = random_su2(), random_su2(), random_su2()
        lhs = psi_so4(p, q) @ quat_components(x)
        rhs = quat_components(p @ x @ np.linalg.inv(q))
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_psi_lands_in_so4():
    for _ in range(20):
        r = psi_so4(random_su2(), random_su2())
        np.testing.assert_allclose(r.T @ r, np.eye(4), atol=1e-13)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_psi_kernel_is_minus_identity():
    p, q = random_su2(), random_su2()
    assert np.array_equal(psi_so4(-p, -q), psi_so4(p, q))


def test_psi_rejects_non_unitary():
    with pytest.raises(ValueError, match="special unitary"):
        psi_so4(np.diag([2.0, 0.5]), np.eye(2))


def sphere_point_pair(z: complex) -> FramePointPair:
    return FramePointPair(sphere_frame(z, 1.0), sphere_frame(z, -1j), 1.0)


def test_q2_point_on_quadric_with_norm_sqrt2():
    for z in (0.3 - 0.4j, 1.1 + 0.2j, -0.7j):
        v = q2_point(*xy_matrices(sphere_point_pair(z)))
        assert np.linalg.norm(v) == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert abs(np.sum(v * v)) < 1e-12


def test_frame_pair_rejects_off_circle_lambda0():
    with pytest.raises(ValueError, match="unit circle"):
        FramePointPair(np.eye(2), np.eye(2), 1.2)


def test_normalize_q2():
    v = q2_point(*xy_matrices(sphere_point_pair(0.5 + 0.1j)))
    w = normalize_q2(v)
    assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(normalize_q2(w), w, atol=1e-14)
    # representative is scale- and sign-independent
    np.testing.assert_allclose(normalize_q2(-3.7 * v), w, atol=1e-14)
    # leading near-zero entries are skipped when fixing the sign
    u = normalize_q2(np.array([1e-12, -1.0, 0.0, 0.0]))
    assert u[1].real > 0
    with pytest.raises(ValueError):
        normalize_q2(np.zeros(4))


def test_projective_distance_ignores_scale_and_phase():
    v = q2_point(*xy_matrices(sphere_point_pair(0.2 - 0.9j)))
    w = np.exp(0.77j) * 2.5 * v
    assert projective_distance(v, w) < 1e-14
    assert projective_distance(v, v + 1e-6 * np.array([1, 1j, 0, 0])) < 1e-5
    with pytest.raises(ValueError):
        projective_distance(v, np.zeros(4))


def test_s3_pair_matches_the_lift():
    fp = sphere_point_pair(-0.6 + 0.8j)
    f, n = s3_pair(fp)
    v = q2_point(*xy_matrices(fp)) / np.sqrt(2.0)
    np.testing.assert_allclose(f, np.sqrt(2.0) * v.real, atol=1e-14)
    np.testing.assert_allclose(n, np.sqrt(2.0) * v.imag, atol=1e-14)
    assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-12)


def test_pauli_components():
    m = 0.3 * np.array([[0, 1], [1, 0]]) - 1.2 * np.array([[0, -1j], [1j, 0]]) + 0.7 * np.diag([1, -1])
    np.testing.assert_allclose(pauli_components(m), [0.3, -1.2, 0.7], atol=1e-15)


def test_sphere_pair_unit_vectors():
    a, b = sphere_pair(sphere_point_pair(0.4 + 0.4j))
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(b) == pytest.approx(1.0, abs=1e-12)
    assert np.abs(a.imag).max() < 1e-14 and np.abs(b.imag).max() < 1e-14


def test_grid_spec_ordering():
    nodes = GridSpec(0.0, 1.0, 2, 0.0, 1.0, 2).nodes()
    assert nodes == [0.0 + 0.0j, 1.0 + 0.0j, 0.0 + 1.0j, 1.0 + 1.0j]
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 0, 0.0, 1.0, 2)
    with pytest.raises(ValueError):
        GridSpec(1.0, 0.0, 2, 0.0, 1.0, 2)


def test_pipeline_lift_matches_analytic_sphere(sphere_map):
    oracle = analytic_surface(sphere_frame)
    for z in (0.25 + 0.1j, -0.8 + 0.45j, 1.3 - 0.2j):
        np.testing.assert_allclose(sphere_map.lift(z), oracle(z), atol=1e-9)


def test_lift_is_anchor_independent(sphere_map):
    z = 0.31 + 0.22j
    direct = sphere_map.lift(z)
    hopped = sphere_map.lift(z, anchor=0.25 + 0.2j)
    np.testing.assert_allclose(hopped, direct, atol=1e-9)


def test_sample_diagnostics(sphere_map):
    s = sphere_map.sample(0.5 - 0.3j)
    assert s.valid
    assert set(s.diagnostics) == {"tail_norm", "iwasawa_residual", "unitarity_error"}
    assert s.diagnostics["iwasawa_residual"] < 1e-10
    assert s.q2_hom is not None and s.s2_pair is not None and s.s3_pair is not None


def test_tail_norm_is_the_mass_beyond_the_window():
    # wound equivariant frames spread over more Laurent modes than N = 16 holds
    pot = make_potential(equivariant_spec(0.75, 0.25))
    narrow, wide = SurfaceMap(pot, window=16), SurfaceMap(pot, window=24)
    tails = {
        n: max(smap.unitary_frame(z, winding=1).F.tail_norm for z in _CLOSING_SAMPLES)
        for n, smap in ((16, narrow), (24, wide))
    }
    assert tails[16] >= 1e-6
    assert tails[24] <= 1e-10
    z = _CLOSING_SAMPLES[0]
    s = wide.sample(z, winding=1)
    assert s.diagnostics["tail_norm"] == wide.unitary_frame(z, winding=1).F.tail_norm


def test_anchor_cache_is_bounded_and_eviction_keeps_results():
    smap = SurfaceMap(make_potential(sphere_spec()), window=8)
    nodes = [0.05 * (k + 1) * (1 + 1j) for k in range(ANCHOR_CACHE + 3)]
    first = [smap.sample(z).q2_hom for z in nodes]
    assert len(smap._anchors) == ANCHOR_CACHE
    # the first node's anchor was evicted; recomputing it gives the same bytes
    assert np.array_equal(smap.sample(nodes[0]).q2_hom, first[0])
    assert len(smap._anchors) == ANCHOR_CACHE


def test_anchor_cache_under_threads():
    pot = make_potential(sphere_spec())
    nodes = [0.04 * (k + 1) * (1 - 0.5j) for k in range(3 * ANCHOR_CACHE)]
    serial = [SurfaceMap(pot, window=8).sample(z).q2_hom for z in nodes]
    smap = SurfaceMap(pot, window=8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(smap.sample, z) for z in nodes * 3]
            got = [f.result(timeout=60).q2_hom for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(smap._anchors) <= ANCHOR_CACHE
    for i, q in enumerate(got):
        assert np.array_equal(q, serial[i % len(nodes)])


def test_sample_at_puncture_is_invalid():
    pot = make_potential(trinoid_spec(1j, 1.0, 1.0, 1.0))
    bad = build_surface(pot, [0.0 + 0.0j, 0.5 + 0.5j], lambda0=1j, window=10)
    assert not bad[0].valid
    assert bad[0].error is not None and bad[0].q2_hom is None
    assert bad[1].valid


def test_build_surface_covers_grid():
    samples = build_surface(
        make_potential(sphere_spec()), GridSpec(-0.4, 0.4, 3, -0.4, 0.4, 3), window=10
    )
    assert len(samples) == 9
    assert all(s.valid for s in samples)

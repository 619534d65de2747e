import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from conftest import tight_map
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import analytic_surface

from mlq.cli import _CLOSING_SAMPLES
from mlq.closedform import sphere_frame, torus_frame
from mlq.frames import (
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
from mlq.potentials import equivariant_spec, make_potential, sphere_spec, torus_spec, trinoid_spec

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


_su2 = (
    st.tuples(*[st.floats(-1.0, 1.0)] * 4)
    .filter(lambda p: np.linalg.norm(p) > 0.1)
    .map(lambda p: quat_matrix(np.array(p) / np.linalg.norm(p)))
)


@settings(max_examples=50, deadline=None)
@given(p1=_su2, q1=_su2, p2=_su2, q2=_su2)
def test_psi_is_a_homomorphism(p1, q1, p2, q2):
    np.testing.assert_allclose(
        psi_so4(p1 @ p2, q1 @ q2), psi_so4(p1, q1) @ psi_so4(p2, q2), rtol=0, atol=1e-13
    )


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


def test_frame_pair_rejects_non_unitary_frames():
    with pytest.raises(ValueError, match="special unitary"):
        FramePointPair(np.diag([2.0, 0.5]), np.eye(2))
    with pytest.raises(ValueError, match="special unitary"):
        FramePointPair(np.eye(2), np.diag([1j, 1j]))  # unitary, det -1


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
    # a point hopped from a transport to a nearby z gives the lift of a direct transport
    z = 0.31 + 0.22j
    direct = sphere_map.lift(z)
    fp = sphere_map.frame_pairs(0.25 + 0.2j, [z])[0]
    np.testing.assert_allclose(q2_point(*xy_matrices(fp)) / np.sqrt(2.0), direct, atol=1e-9)


def test_sample_diagnostics(sphere_map):
    s = sphere_map.sample(0.5 - 0.3j)
    assert s.valid
    assert set(s.diagnostics) == {"unitarity_error"}
    assert s.diagnostics["unitarity_error"] < 1e-10
    assert s.q2_hom is not None and s.s2_pair is not None and s.s3_pair is not None


def test_frame_pair_off_the_roots_of_unity_is_read_at_samples():
    # lam0 and -i lam0 are samples of the rotated circle, so N = 8 reads the
    # torus corner to 1e-9; a frame projected onto [-8, 8] was off by 1.5e-4
    z, lam0 = 1.05 + 1.05j, np.exp(0.3j)
    got = tight_map(torus_spec(), lam0, window=8).frame_pair(z)
    assert np.abs(got.F1 - torus_frame(z, lam0)).max() < 1e-9
    assert np.abs(got.F2 - torus_frame(z, -1j * lam0)).max() < 1e-9


def test_wound_frames_pass_the_default_gate_at_a_small_window():
    # winding multiplies Phi by a unitary factor, so its Laurent tail sits in F
    # alone, which is never projected: N = 8 passes the 1e-6 SU(2) gate
    spec = equivariant_spec(0.75, 0.25)
    narrow, ref = tight_map(spec, window=8), tight_map(spec, window=44)
    for z in _CLOSING_SAMPLES:
        np.testing.assert_allclose(narrow.lift(z, winding=1), ref.lift(z, winding=1), rtol=0, atol=1e-12)


def test_anchor_cache_under_threads():
    # one map shared by threads gives a serial map's bytes
    pot = make_potential(sphere_spec())
    nodes = [0.04 * (k + 1) * (1 - 0.5j) for k in range(24)]
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

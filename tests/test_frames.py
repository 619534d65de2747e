import importlib
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from conftest import TIGHT_ODE, in_order, tight_map
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import analytic_surface

from mlq import frames, holonomy
from mlq.cli import _CLOSING_SAMPLES
from mlq.closedform import sphere_frame, torus_frame
from mlq.frames import (
    EDGE_TOL,
    NODE_CHUNK,
    START_WINDOW,
    FramePointPair,
    GridSpec,
    SurfaceMap,
    build_surface,
    pauli_components,
    projective_distance,
    psi_so4,
    q2_point,
    quat_components,
    quat_matrix,
    sphere_pair,
    xy_matrices,
)
from mlq.holonomy import MAX_TERMS, DomainPath, IntegrationError, OdeOptions, transport
from mlq.iwasawa import SPLIT_TOL, ConvergenceError, iwasawa
from mlq.loops import window_samples
from mlq.potentials import (
    CustomTerm,
    PoleError,
    Potential,
    custom_spec,
    equivariant_spec,
    make_potential,
    radial_spec,
    sphere_spec,
    torus_spec,
    trinoid_spec,
)
from mlq.verify import DIAMOND

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


def frame_table(smap: SurfaceMap, z: complex, points) -> frames.FrameTable:
    """The table of ``smap.frame_tables`` for the one centre z, its error raised."""
    ((_, table),) = smap.frame_tables([z], [points])
    if isinstance(table, Exception):
        raise table
    return table


def sphere_point_pair(z: complex) -> FramePointPair:
    return FramePointPair(sphere_frame(z, 1.0), sphere_frame(z, -1j))


def test_q2_point_on_quadric_with_norm_sqrt2():
    for z in (0.3 - 0.4j, 1.1 + 0.2j, -0.7j):
        v = q2_point(*xy_matrices(sphere_point_pair(z)))
        assert np.linalg.norm(v) == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert abs(np.sum(v * v)) < 1e-12


def test_surface_map_rejects_off_circle_lambda0():
    # lambda0 is checked once, where it enters; 0 and NaN used to reach the integrator
    for lam0 in (1.2, 0.0, complex("nan")):
        with pytest.raises(ValueError, match="unit circle"):
            SurfaceMap(make_potential(radial_spec(0.5, 1)), lambda0=lam0)


def test_frame_pair_rejects_non_unitary_frames():
    with pytest.raises(ValueError, match="special unitary"):
        FramePointPair(np.diag([2.0, 0.5]), np.eye(2))
    with pytest.raises(ValueError, match="special unitary"):
        FramePointPair(np.eye(2), np.diag([1j, 1j]))  # unitary, det -1


def test_projective_distance_ignores_scale_and_phase():
    v = q2_point(*xy_matrices(sphere_point_pair(0.2 - 0.9j)))
    w = np.exp(0.77j) * 2.5 * v
    assert projective_distance(v, w) < 1e-14
    assert projective_distance(v, v + 1e-6 * np.array([1, 1j, 0, 0])) < 1e-5
    with pytest.raises(ValueError):
        projective_distance(v, np.zeros(4))


def test_s3_pair_matches_the_lift(sphere_map):
    # the CSV's s3f_*/s3n_* columns are the real and imaginary parts of q2_hom
    s = sphere_map.sample(-0.6 + 0.8j)
    f, n = s.s3_pair
    assert np.array_equal(f, s.q2_hom.real) and np.array_equal(n, s.q2_hom.imag)
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


@pytest.mark.parametrize(
    "family, z0, z",
    [("sphere", 0.25 + 0.2j, 0.31 + 0.22j), ("radial", 0.25 + 0.2j, 0.31 + 0.22j),
     ("trinoid", 0.5 + 0.45j, 0.56 + 0.47j)],
    ids=["sphere", "radial", "trinoid"],
)
def test_lift_is_anchor_independent(family, z0, z):
    # a stencil point carried from a nearby centre z0 gives the lift of its
    # own frame from the base point
    spec, lam0 = _FAMILIES[family]
    smap = tight_map(spec, lam0)
    fp = frame_table(smap, z0, [z]).pair()
    np.testing.assert_allclose(q2_point(*xy_matrices(fp))[0] / np.sqrt(2.0), smap.lift(z), atol=1e-9)


@pytest.mark.parametrize(
    "family, z",
    [("sphere", 0.3 + 0.2j), ("radial", 0.3 + 0.2j), ("equivariant", 0.9 + 0.2j), ("trinoid", 0.5 + 0.45j)],
    ids=["sphere", "radial", "equivariant", "trinoid"],
)
def test_stencil_centre_is_the_frame_pair(family, z):
    # the centre is not carried anywhere: it keeps its own values, so its
    # pair is frame_pair's bit for bit
    spec, lam0 = _FAMILIES[family]
    smap = tight_map(spec, lam0, window=8)
    pairs = frame_table(smap, z, [z, z + 1e-3]).pair()
    single = smap.frame_pair(z)
    assert np.array_equal(pairs.F1[0], single.F1) and np.array_equal(pairs.F2[0], single.F2)


@pytest.mark.parametrize("z", [0.3, 1.2], ids=["cap", "start"])
def test_stencil_centre_is_the_frame_pair_at_either_window(z):
    # z = 0.3 is read at the cap, z = 1.2 at the start window: either way the
    # whole stencil shares the centre's window and the centre is frame_pair's;
    # the map is twisted, so the table holds the first 2N samples
    smap = tight_map(equivariant_spec(0.75, 0.25), window=16)
    table = frame_table(smap, z, [z, z + 1e-3, z - 1e-3j])
    single = smap.frame_pair(z)
    assert table.F.shape == (3, 2 * smap.unitary_frame(z).window, 2, 2)
    assert np.array_equal(table.pair().F1[0], single.F1) and np.array_equal(table.pair().F2[0], single.F2)


@pytest.mark.parametrize("sweep", [8, 7, 6, 5], ids=["sweep8", "sweep7", "sweep6", "sweep5"])
@pytest.mark.parametrize(
    "spec, z, window",
    [(radial_spec(0.5, 1), 0.3 + 0.2j, START_WINDOW), (radial_spec(0.5, 1), 1.5, 16),
     (equivariant_spec(0.75, 0.25), 0.9 - 0.3j, START_WINDOW), (equivariant_spec(0.75, 0.25), 0.4, 16)],
    ids=["radial", "radial-cap", "equivariant", "equivariant-cap"],
)
def test_a_sweep_member_is_read_off_a_shared_table(spec, z, window, sweep):
    # member k of the sweep lam_k = exp(i pi k / sweep) is read off the lam0 = 1
    # table rotated by lam_k, at the start window or the cap, whether lam_k is
    # one of its samples or not: the normalized split is unique, so the rotated
    # pairs are the ones member k's own map reads
    pot = make_potential(spec)
    points = [z + (a + 1j * b) * 1e-3 for a, b in DIAMOND]
    table = frame_table(SurfaceMap(pot, window=16, ode=TIGHT_ODE), z, points)
    assert table.window == window
    lams = [np.exp(1j * np.pi * k / sweep) for k in range(sweep)]
    for lam, pair in zip(lams, table.rotated(lams), strict=True):
        own = frame_table(SurfaceMap(pot, lam, window=16, ode=TIGHT_ODE), z, points)
        assert own.window == window
        assert np.abs(pair.F1 - own.pair().F1).max() <= 1e-14 and np.abs(pair.F2 - own.pair().F2).max() <= 1e-14


@pytest.mark.parametrize("z, window", [(0.3, 16), (0.4, 16), (1.2, START_WINDOW)])
def test_the_window_grows_where_p_is_unresolved(z, window):
    # near the pole the equivariant P leaves an edge mass above EDGE_TOL at
    # N = 8 (1.4e-11 at 0.3, 4.5e-13 at 0.4), so those nodes are read at the cap
    smap = tight_map(equivariant_spec(0.75, 0.25), window=16)
    s = smap.sample(z)
    res = smap.unitary_frame(z)
    assert s.diagnostics["window"] == res.window == window
    assert s.diagnostics["edge_mass"] == res.edge_mass <= EDGE_TOL
    assert frame_table(smap, z, [z]).window == window


@pytest.mark.parametrize(
    "spec, z, window",
    [(equivariant_spec(0.75, 0.25), 0.02, 8), (torus_spec(), 2.8 + 2.8j, 16)],
    ids=["equivariant", "torus"],
)
def test_a_split_at_its_rounding_floor_stops_doubling(monkeypatch, spec, z, window):
    # ||P|| ~ 2.5e3 on both nodes, so the residual floor is ~2e-9 absolute.
    # Against the bound relative to ||P||^2 the torus converges on its first
    # section and the equivariant node (at N = 8) on its fourth, 121 blocks;
    # neither may run on to a Toeplitz section of thousands of blocks
    # (seconds per node)
    iwasawa_module = importlib.import_module("mlq.iwasawa")
    sections = []
    bauer_read = iwasawa_module._bauer_read

    def counted(p, m, *twisted):
        sections.append(m)
        return bauer_read(p, m, *twisted)

    monkeypatch.setattr(iwasawa_module, "_bauer_read", counted)
    SurfaceMap(make_potential(spec), window=window).sample(z)
    assert 0 < len(sections) <= 5


def test_a_split_that_fails_below_the_cap_is_read_at_the_cap(monkeypatch):
    # a start-window split that fails, as the torus split at 2.8+2.8i does at
    # N = 8, sends the node to the cap; a stand-in failure lets the test use a
    # node that reads fine there
    split = frames.iwasawa_twisted

    def failing(values):
        # SurfaceMap splits a stack of frames per call, a twisted one at 2N
        # samples; each row gets its own error
        if values.shape[-3] == 2 * START_WINDOW:
            return [ConvergenceError("stand-in") for _ in values]
        return split(values)

    monkeypatch.setattr(frames, "iwasawa_twisted", failing)
    z = 1.2
    smap = tight_map(equivariant_spec(0.75, 0.25), window=16)
    s = smap.sample(z)
    assert s.valid and s.diagnostics["window"] == 16
    assert frame_table(smap, z, [z, z + 1e-3]).F.shape == (2, 2 * 16, 2, 2)
    # at the cap the failure is the node's own error
    capped = tight_map(equivariant_spec(0.75, 0.25), window=START_WINDOW)
    assert capped.sample(z).error == "stand-in"
    with pytest.raises(ConvergenceError, match="stand-in"):
        capped.frame_pair(z)


def test_a_map_capped_at_the_start_window_never_grows(monkeypatch):
    sizes = []
    transport = holonomy.transport

    def counted(*args):
        sizes.append(args[3].size)
        return transport(*args)

    monkeypatch.setattr(holonomy, "transport", counted)
    for cap in (6, 8):
        # radial z = 1.5 would be read at 16: its edge mass at N = 8 is 2e-12
        smap = tight_map(radial_spec(0.5, 1), window=cap)
        res = smap.unitary_frame(1.5)
        assert res.window == cap and res.edge_mass > EDGE_TOL
        assert smap.sample(1.5).diagnostics["window"] == cap
    # one transport per readout, each at the first 2N of the cap's 4N samples (radial is twisted)
    assert sizes == [12, 12, 16, 16]


def test_a_window_that_is_not_a_positive_integer_is_refused():
    # each used to fail deep in numpy, or (2.5) to be read silently at N = 2
    for window in (0, -3, 2.5):
        with pytest.raises(ValueError, match=rf"^window must be an integer >= 1, got {window}$"):
            SurfaceMap(make_potential(sphere_spec()), window=window)


def test_unresolved_nodes_wait_for_pooled_cap_stacks(monkeypatch):
    # the 12 nodes at Re z = 0.3 that the start window leaves unresolved sit
    # in four chunks; an exact frame's row splits as it does alone, so they
    # wait, as indices, and run at the cap in one stack, not in one pass a
    # chunk, and each reads off it as it does alone, diagnostics included
    # (the map is twisted: its splits take the first 2N samples)
    stacks = []
    split = frames.iwasawa_twisted
    monkeypatch.setattr(frames, "iwasawa_twisted", lambda values: stacks.append(values.shape[:2]) or split(values))
    smap = SurfaceMap(make_potential(equivariant_spec(0.75, 0.25)), window=16)
    zs = [complex(x, y) for y in np.linspace(-0.6, 0.6, 24) for x in np.linspace(0.3, 1.5, 8)]
    got = smap.samples(zs)
    capped = [i for i, s in enumerate(got) if s.diagnostics["window"] == 16]
    assert len(capped) == 12 and len({i // NODE_CHUNK for i in capped}) >= 3
    assert [rows for rows, m in stacks if m == 2 * 16] == [12]
    assert [rows for rows, m in stacks if m == 2 * START_WINDOW] == [NODE_CHUNK] * 6
    for z, s in zip(zs, got):
        alone = smap.sample(z)
        assert s.valid and alone.valid and s.diagnostics == alone.diagnostics
        assert all(np.array_equal(a, b) for a, b in zip((s.q2_hom, *s.s2_pair, *s.s3_pair),
                                                        (alone.q2_hom, *alone.s2_pair, *alone.s3_pair)))



def test_an_integrated_chunk_reads_its_unresolved_nodes_again_in_a_pass_of_its_own(monkeypatch):
    # radial nodes out to |z| = 1.5 leave P unresolved at the start window in
    # all three chunks; a Taylor pass's shared stop rule ties a row's last bits
    # to the rows it runs with, so each chunk's capped nodes run in one cap
    # pass right after its start pass, and the grid reads as its chunks do alone;
    # alone, a node's sums and so its window may differ, its point only to the
    # ODE tolerance
    passes = []
    transport = holonomy.transport
    monkeypatch.setattr(holonomy, "transport", lambda pot, paths, y0, lams, *args: passes.append(
        (len(paths), lams.size)) or transport(pot, paths, y0, lams, *args))
    smap = SurfaceMap(make_potential(radial_spec(0.5, 1)), window=16)
    zs = [complex(x, y) for y in np.linspace(-1.5, 1.5, 12) for x in np.linspace(-1.5, 1.5, 8)]
    got = smap.samples(zs)
    capped = [sum(s.diagnostics["window"] == 16 for s in got[k : k + NODE_CHUNK]) for k in range(0, 96, NODE_CHUNK)]
    assert capped == [20, 8, 20]
    # radial is twisted: each pass runs at the first 2N samples
    assert passes == [p for c in capped for p in ((NODE_CHUNK, 2 * START_WINDOW), (c, 2 * 16))]
    for k in range(0, 96, NODE_CHUNK):
        for s, alone in zip(got[k : k + NODE_CHUNK], smap.samples(zs[k : k + NODE_CHUNK])):
            assert s.diagnostics == alone.diagnostics and np.array_equal(s.q2_hom, alone.q2_hom)
    for z, s in zip(zs, got):
        alone = smap.sample(z)
        assert s.valid and alone.valid
        np.testing.assert_allclose(s.q2_hom, alone.q2_hom, rtol=0, atol=OdeOptions().tolerance)

def test_an_unresolved_readout_names_its_window():
    # at a cap of 8 the split of z = 0.02 converges, but P keeps an edge mass
    # of 6e-6 there and F is far from unitary: the error names the window
    s = SurfaceMap(make_potential(equivariant_spec(0.75, 0.25)), window=START_WINDOW).sample(0.02)
    assert not s.valid
    assert s.error.startswith(f"P is unresolved at window N = {START_WINDOW} (edge mass 6.")
    assert "F1 is not special unitary" in s.error


def _fixed_window_pair(smap: SurfaceMap, z: complex, n: int = 16) -> FramePointPair:
    """The frame pair of a fixed-window-n transport and split, built from the layers."""
    pot = smap.pot
    if pot.variant == "equivariant":
        pts = np.exp(np.linspace(np.log(pot.base_point), np.log(z), 24))
        pts[0], pts[-1] = pot.base_point, z
        path = DomainPath(pts)
    else:
        path = DomainPath.line(pot.base_point, z)
    lams = smap.lambda0 * window_samples(n)
    phi = transport(pot, path, np.broadcast_to(np.eye(2), (4 * n, 2, 2)), lams, TIGHT_ODE)
    f = iwasawa(phi).F
    return FramePointPair(f[0], f[3 * n])


#: (centre, half-width) of a box of each family's domain, clear of its poles
_READ_BOXES = {
    "sphere": (0.0, 1.0),
    "torus": (0.0, 1.05),
    "radial": (0.0, 0.6),
    "equivariant": (0.9, 0.6),
    "trinoid": (0.5 + 0.45j, 0.3),
}


@pytest.mark.parametrize("family", list(_READ_BOXES))
@settings(max_examples=4, deadline=None)
@given(x=st.floats(-1.0, 1.0), y=st.floats(-1.0, 1.0))
def test_adaptive_readout_matches_a_fixed_window(family, x, y):
    spec, lam0 = _FAMILIES[family]
    centre, half = _READ_BOXES[family]
    z = centre + half * complex(x, y)
    smap = tight_map(spec, lam0, window=16)
    assume(z != smap.pot.base_point)
    ref = _fixed_window_pair(smap, z)
    s = smap.sample(z)
    np.testing.assert_allclose(s.q2_hom, q2_point(*xy_matrices(ref)), rtol=0, atol=1e-10)
    np.testing.assert_allclose(np.concatenate(s.s2_pair), np.concatenate(sphere_pair(ref)), rtol=0, atol=1e-10)
    np.testing.assert_allclose(smap.lift(z), q2_point(*xy_matrices(ref)) / np.sqrt(2.0), rtol=0, atol=1e-10)


@pytest.mark.parametrize("family", ["sphere", "torus", "equivariant"])
@settings(max_examples=5, deadline=None)
@given(x=st.floats(-1.0, 1.0), y=st.floats(-1.0, 1.0), winding=st.sampled_from([0, 1]))
def test_closed_form_frames_match_transport(family, x, y, winding):
    # a one-term potential's frame is exp(W A); transport along a route in
    # the same homotopy class (a log-z polyline, wound around the pole) agrees
    spec, lam0 = _FAMILIES[family]
    centre, half = _READ_BOXES[family]
    z = centre + half * complex(x, y)
    smap = tight_map(spec, lam0, window=8)
    base = smap.pot.base_point
    if winding and family != "equivariant":
        with pytest.raises(ValueError, match="only defined for the equivariant family"):
            smap.frame_pair(z, winding)
        return
    assume(z != base or winding)
    if family == "equivariant":
        pts = np.exp(np.linspace(np.log(base), np.log(z) + 2j * np.pi * winding, 32))
        pts[0], pts[-1] = base, z
        path = DomainPath(pts)
    else:
        path = DomainPath.line(base, z)
    # every family here is twisted: the map carries the first 2N = 16 samples
    ref = transport(smap.pot, path, np.broadcast_to(np.eye(2), (16, 2, 2)), smap._lams[8], TIGHT_ODE)
    exact = smap._frames([z], winding, 8)[0]
    assert np.abs(exact - ref).max() <= 1e-10 * np.abs(ref).max()


def test_a_stencil_across_the_log_branch_cut_stays_on_its_sheet():
    # above the negative real axis, the stencil continues log z across it:
    # the point below reads as the principal point wound once
    smap = tight_map(equivariant_spec(0.75, 0.25), window=16)
    z, below = -0.8 + 1e-4j, -0.8 - 1e-3j
    hopped = frame_table(smap, z, [below]).pair()
    wound = smap.frame_pair(below, winding=1)
    np.testing.assert_allclose(hopped.F1[0], wound.F1, rtol=0, atol=1e-12)
    np.testing.assert_allclose(hopped.F2[0], wound.F2, rtol=0, atol=1e-12)


@pytest.mark.parametrize("family", ["equivariant", "custom"])
def test_a_stencil_segment_past_a_pole_raises(family):
    # centre and point both keep 1.5e-3 from the pole, but the segment
    # between them runs through it: exact (equivariant) and transported
    # (custom) frames alike refuse it
    if family == "equivariant":
        spec, pole = equivariant_spec(0.1, 0.05), 0.0
    else:
        spec, pole = custom_spec(
            [CustomTerm(lam_power=-1, matrix=[[0, 1], [0, 0]]),
             CustomTerm(lam_power=1, matrix=[[0, 0], [1, 0]], den=[-0.3, 1.0])],
            poles=[0.3], base_point=0.0,
        ), 0.3
    smap = SurfaceMap(make_potential(spec))
    z = pole + 1.5e-3j
    with pytest.raises(PoleError, match="passes within 0.00e"):
        frame_table(smap, z, [z, z + 1e-3, pole - 1.5e-3j])


def test_sample_diagnostics(sphere_map):
    s = sphere_map.sample(0.5 - 0.3j)
    assert s.valid
    assert set(s.diagnostics) == {"unitarity_error", "window", "edge_mass", "section", "split_residual"}
    assert s.diagnostics["unitarity_error"] < 1e-10
    assert 0 <= s.diagnostics["split_residual"] <= SPLIT_TOL
    # the sphere's P is a Laurent polynomial of low degree: resolved at the start
    # window, on the first Toeplitz section of 2N blocks
    assert s.diagnostics["window"] == START_WINDOW and s.diagnostics["edge_mass"] <= EDGE_TOL
    assert s.diagnostics["section"] == 2 * START_WINDOW
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


def _diamonds(zs: list[complex], h: float = 1e-3) -> list[list[complex]]:
    return [[z + (a + 1j * b) * h for a, b in DIAMOND] for z in zs]


@pytest.mark.parametrize("family", ["radial", "trinoid", "sphere", "equivariant"])
def test_frame_tables_match_one_table_per_centre(family):
    # a centre's table from one anchor pass over the chunk and blocks of two
    # stencils is the table frame_tables reads for it alone: bit for bit where
    # the frame is exact (exp(W A) elementwise, then a split whose rows keep
    # their bits), within 1e-12 where the rows of a transport share their
    # steps (1.2e-13 radial, 1.3e-13 trinoid measured at ODE tolerance 1e-12)
    spec, lam0 = _FAMILIES[family]
    smap = tight_map(spec, lam0)
    # the equivariant P is unresolved at N = 8 near its pole: 0.3 is read at the cap
    zs = [0.9 - 0.3j, 0.3, 1.2 + 0.1j, 0.8 + 0.2j, 1.0] if family == "equivariant" else _grid_nodes(family, 0.0, 5)
    tables = in_order(smap.frame_tables(zs, _diamonds(zs)))
    for z, points, table in zip(zs, _diamonds(zs), tables):
        alone = frame_table(smap, z, points)
        assert (table.window, table.section) == (alone.window, alone.section)
        if family in ("sphere", "equivariant"):
            assert np.array_equal(table.F, alone.F) and table.edge_mass == alone.edge_mass
        else:
            assert np.abs(table.F - alone.F).max() <= 1e-12
    if family == "equivariant":
        assert [t.window for t in tables] == [8, 16, 8, 8, 8]


def test_frame_tables_sweep_whole_stencils_at_most_node_chunk_rows_at_a_time(monkeypatch):
    # the anchors of the chunk run in one sweep and one split; the 12 points
    # off each centre follow in blocks of two stencils (24 rows), each one
    # sweep and one split, and the fifth stencil alone
    rows = []
    transport, split = holonomy.transport, frames.iwasawa_twisted
    monkeypatch.setattr(holonomy, "transport", lambda pot, paths, *args: rows.append(("sweep", len(paths)))
                        or transport(pot, paths, *args))
    monkeypatch.setattr(frames, "iwasawa_twisted", lambda values: rows.append(("split", len(values))) or split(values))
    smap = tight_map(radial_spec(0.5, 1))
    zs = _grid_nodes("radial", 0.0, 5)
    assert all(isinstance(t, frames.FrameTable) for t in in_order(smap.frame_tables(zs, _diamonds(zs))))
    assert rows == [("sweep", 5), ("split", 5)] + [("sweep", 24), ("split", 24)] * 2 + [("sweep", 12), ("split", 12)]
    assert 2 * 12 <= NODE_CHUNK < 3 * 12


def test_the_stream_holds_one_block(monkeypatch):
    # 40 centres are two anchor blocks, 32 and 8: the first block's stencils
    # run, two a pass, and their tables are yielded before the second block's
    # anchors run, and each table is the one its block's centres get alone
    rows = []
    transport, split = holonomy.transport, frames.iwasawa_twisted
    monkeypatch.setattr(holonomy, "transport", lambda pot, paths, *args: rows.append(("sweep", len(paths)))
                        or transport(pot, paths, *args))
    monkeypatch.setattr(frames, "iwasawa_twisted", lambda values: rows.append(("split", len(values))) or split(values))
    smap = tight_map(radial_spec(0.5, 1))
    zs = _grid_nodes("radial", 0.0, 40)
    stream = smap.frame_tables(zs, _diamonds(zs))
    assert rows == []
    got = [next(stream)]
    assert rows == [("sweep", 32), ("split", 32), ("sweep", 24), ("split", 24)]
    got += stream
    assert [i for i, _ in got] == list(range(40))
    assert rows == ([("sweep", 32), ("split", 32)] + [("sweep", 24), ("split", 24)] * 16
                    + [("sweep", 8), ("split", 8)] + [("sweep", 24), ("split", 24)] * 4)
    alone = [table for block in (zs[:32], zs[32:]) for table in in_order(smap.frame_tables(block, _diamonds(block)))]
    for (_, table), want in zip(got, alone):
        assert np.array_equal(table.F, want.F) and table[1:] == want[1:]


def test_a_table_does_not_depend_on_the_thread_that_ran_its_chunk():
    smap = tight_map(radial_spec(0.5, 1))
    chunks = [_grid_nodes("radial", 0.03 * k, 3) for k in range(4)]
    serial = [in_order(smap.frame_tables(chunk, _diamonds(chunk))) for chunk in chunks]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(lambda chunk: in_order(smap.frame_tables(chunk, _diamonds(chunk))),
                                     chunks * 2))
    finally:
        sys.setswitchinterval(interval)
    for i, tables in enumerate(threaded):
        assert all(np.array_equal(t.F, want.F) for t, want in zip(tables, serial[i % len(chunks)]))


def test_shared_map_under_threads():
    # one map shared by threads, node by node and chunk by chunk, gives a
    # serial map's bytes and its step counts
    pot = make_potential(sphere_spec())
    nodes = [0.04 * (k + 1) * (1 - 0.5j) for k in range(24)]
    chunks = [nodes[i : i + 5] for i in range(0, len(nodes), 5)]
    ref = SurfaceMap(pot, window=8)
    serial = [ref.sample(z).q2_hom for z in nodes]
    serial_chunks = [[s.q2_hom for s in ref.samples(c)] for c in chunks]
    smap = SurfaceMap(pot, window=8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            singles = [pool.submit(smap.sample, z) for z in nodes * 3]
            chunked = [pool.submit(smap.samples, c) for c in chunks * 3]
            got = [f.result(timeout=60).q2_hom for f in singles]
            got_chunks = [[s.q2_hom for s in f.result(timeout=60)] for f in chunked]
    finally:
        sys.setswitchinterval(interval)
    for i, q in enumerate(got):
        assert np.array_equal(q, serial[i % len(nodes)])
    for i, qs in enumerate(got_chunks):
        assert all(np.array_equal(q, want) for q, want in zip(qs, serial_chunks[i % len(chunks)]))
    assert smap.ode_counts.steps == 3 * ref.ode_counts.steps
    assert smap.ode_counts.terms == 3 * ref.ode_counts.terms


def test_sample_at_puncture_is_invalid():
    pot = make_potential(trinoid_spec(1j, 1.0, 1.0, 1.0))
    bad = build_surface(pot, [0.0 + 0.0j, 0.5 + 0.5j], lambda0=1j, window=10)
    assert not bad[0].valid
    assert bad[0].error is not None and bad[0].q2_hom is None
    assert bad[1].valid


def test_the_equivariant_pole_is_an_invalid_node():
    bad = build_surface(make_potential(equivariant_spec(0.75, 0.25)), [0.0, 1.2 + 0.1j], window=8)
    assert not bad[0].valid and "z = 0" in bad[0].error
    assert bad[1].valid


def test_a_puncture_in_a_chunk_fails_only_its_node():
    # the puncture sits mid-chunk; its route fails validation before the sweep runs
    smap = SurfaceMap(make_potential(trinoid_spec(1j, 1.0, 1.0, 1.0)), 1j, window=8)
    nodes = [0.3 + 0.05j * k for k in range(NODE_CHUNK + 4)]
    nodes[5] = 0.0
    got = smap.samples(nodes)
    alone = smap.sample(0.0)
    assert not got[5].valid and got[5].q2_hom is None
    assert got[5].error == alone.error and "singular point" in alone.error
    assert all(s.valid for i, s in enumerate(got) if i != 5)


#: a custom potential whose weight 1/(z - 0.3) has a pole at 0.3
POLE_AT_0_3 = custom_spec(
    [CustomTerm(lam_power=-1, matrix=[[0, 1], [0, 0]]),
     CustomTerm(lam_power=1, matrix=[[0, 0], [1, 0]], den=[-0.3, 1.0])],
    poles=[], base_point=0.0,
)


def _unguarded(spec, base: complex = 0.0) -> Potential:
    """spec's potential at base with an empty singular set, so no route
    validation sees its pole and a sweep runs into it."""
    return Potential(spec, (), complex(base), make_potential(spec).terms)


def test_a_denominator_zero_is_a_pole_of_the_custom_potential():
    # the pole at 0.3 is not declared, but it is in the singular set: the
    # stencil of 0.301 + 0.001i passes within 1e-3 of it and fails before any
    # sweep, and the other two stencils run the steps they run without it
    assert make_potential(POLE_AT_0_3).singular_points == (0.3,)
    with pytest.raises(ValueError, match=r"coincides with pole \(0\.3\+0j\)"):
        make_potential(custom_spec(POLE_AT_0_3.params["terms"], poles=[], base_point=0.3))
    zs = [0.1 + 0.1j, 0.301 + 0.001j, 0.15 - 0.1j]
    smap, alone = SurfaceMap(make_potential(POLE_AT_0_3), window=2), SurfaceMap(make_potential(POLE_AT_0_3), window=2)
    tables = in_order(smap.frame_tables(zs, _diamonds(zs)))
    assert isinstance(tables[1], PoleError) and "of singular point (0.3+0j)" in str(tables[1])
    good = in_order(alone.frame_tables(zs[::2], _diamonds(zs[::2])))
    assert all(np.array_equal(a.F, b.F) for a, b in zip(tables[::2], good))
    assert (smap.ode_counts.steps, smap.ode_counts.terms) == (alone.ode_counts.steps, alone.ode_counts.terms)
    assert smap.ode_counts.steps > 0


def test_a_route_into_an_undeclared_pole_fails_only_its_own_node():
    # with its pole left out of the singular set, the route to 0.3 passes
    # validation as one Taylor piece from 0, whose series does not converge
    # at the pole; in the chunk's one pass that row alone fails, with the
    # error located at its own node
    spec = POLE_AT_0_3
    smap = SurfaceMap(_unguarded(spec), window=8)
    nodes = [0.1j + 0.02 * k for k in range(10)] + [0.3] + [-0.1j - 0.02 * k for k in range(10)]
    got = smap.samples(nodes)
    alone = smap.sample(0.3)
    assert not got[10].valid and got[10].error == alone.error
    assert alone.error == f"Taylor series of the frame does not converge in {MAX_TERMS} terms on the piece from z = 0j"
    assert all(s.valid for i, s in enumerate(got) if i != 10)
    for z, s in zip(nodes[:3], got):
        np.testing.assert_allclose(s.q2_hom, smap.sample(z).q2_hom, rtol=0, atol=1e-9)
    # based at that pole, the series' first term is not finite on every row
    based = SurfaceMap(_unguarded(spec, 0.3), window=8)
    with np.errstate(divide="ignore", invalid="ignore"):
        got = based.samples(nodes[:4])
        assert [s.error for s in got] == [based.sample(z).error for z in nodes[:4]]
    assert all(s.error == "Taylor series of the frame is not finite on the piece from z = (0.3+0j)" for s in got)


def test_a_stencil_point_past_an_undeclared_pole_fails_only_its_own_stencil():
    # the stencil of 0.3015 runs through the pole 0.3, left out of the
    # singular set, so in the pass of its block, shared with 0.1 + 0.1i, its
    # rows that reach the pole fail: the stencil fails with an error located
    # at one z, and the other stays valid
    smap = SurfaceMap(_unguarded(POLE_AT_0_3), window=2)
    zs = [0.1 + 0.1j, 0.3015, 0.15 - 0.1j]
    tables = in_order(smap.frame_tables(zs, _diamonds(zs)))
    assert isinstance(tables[1], IntegrationError)
    assert str(tables[1]) == (
        f"Taylor series of the frame does not converge in {MAX_TERMS} terms on the piece from z = 0j")
    # the good stencils' rows are summed to MAX_TERMS in the shared pass, so
    # they are compared with tables at ODE tolerance 1e-14 (6.8e-16 measured)
    ref = SurfaceMap(_unguarded(POLE_AT_0_3), window=2, ode=OdeOptions(1e-14))
    for z, points, table in zip(zs[::2], _diamonds(zs)[::2], tables[::2]):
        assert np.abs(table.F - frame_table(ref, z, points).F).max() <= 1e-12


def test_far_nodes_that_cannot_converge_fail_only_their_own_rows():
    # radial (0.5, 1) is entire, so the route from 0 to 40 or to 60 + i is one
    # piece, whose series has not converged after MAX_TERMS terms; the chunk's
    # 32 rows ride in one pass to the cap, each far node fails with the error
    # it fails with alone, and the near nodes keep their digits
    smap = SurfaceMap(make_potential(radial_spec(0.5, 1)), window=8)
    near = [0.02 * k * np.exp(0.7j * k) for k in range(1, 31)]
    got = smap.samples(near + [40.0, 60.0 + 1j])
    assert (smap.ode_counts.steps, smap.ode_counts.terms) == (32, MAX_TERMS)
    for s in got[30:]:
        assert not s.valid and s.error == smap.sample(s.z).error
    ref = SurfaceMap(make_potential(radial_spec(0.5, 1)), window=8, ode=OdeOptions(1e-14))
    for s, want in zip(got, ref.samples(near)):
        assert s.valid and np.abs(s.q2_hom - want.q2_hom).max() <= 1e-12


def _grid_nodes(family: str, shift: complex, n: int) -> list[complex]:
    """n nodes on a small grid of the family's domain, clear of its poles."""
    centre = {"equivariant": 0.9 + 0.0j, "trinoid": 0.5 + 0.45j}.get(family, 0.0j)
    side = int(np.ceil(np.sqrt(n)))
    grid = [centre + shift + 0.6 * complex(i / side - 0.5, j / side - 0.5)
            for j in range(side) for i in range(side)]
    return grid[:n]


_FAMILIES = {
    "sphere": (sphere_spec(), 1.0),
    "torus": (torus_spec(), 1.0),
    "radial": (radial_spec(0.5, 1), 1.0),
    "equivariant": (equivariant_spec(0.75, 0.25), 1.0),
    "trinoid": (trinoid_spec(1j, 1.0, 1.0, 1.0), 1j),
}


@pytest.mark.parametrize("family", list(_FAMILIES))
@settings(max_examples=3, deadline=None)
@given(
    shift=st.complex_numbers(max_magnitude=0.1),
    extra=st.integers(1, NODE_CHUNK),
)
def test_batched_samples_match_single_nodes(family, shift, extra):
    spec, lam0 = _FAMILIES[family]
    smap = SurfaceMap(make_potential(spec), lam0, window=8)
    nodes = _grid_nodes(family, shift, NODE_CHUNK + extra)
    for s in smap.samples(nodes):
        one = smap.sample(s.z)
        assert s.valid and one.valid
        np.testing.assert_allclose(s.q2_hom, one.q2_hom, rtol=0, atol=1e-9)
        np.testing.assert_allclose(np.concatenate(s.s2_pair), np.concatenate(one.s2_pair), rtol=0, atol=1e-9)
        np.testing.assert_allclose(np.concatenate(s.s3_pair), np.concatenate(one.s3_pair), rtol=0, atol=1e-9)


def test_build_surface_covers_grid():
    samples = build_surface(
        make_potential(sphere_spec()), GridSpec(-0.4, 0.4, 3, -0.4, 0.4, 3), window=10
    )
    assert len(samples) == 9
    assert all(s.valid for s in samples)


def test_an_untwisted_map_carries_all_4n_samples():
    # a lam^0 E_21 term breaks the twist: frames, tables and splits keep all 4N
    # samples, where the twisted map (radial) carries the first 2N; both read
    # F at all 4N through unitary_frame, on a first section of 2N blocks
    e12, e21 = [[0, 1], [0, 0]], [[0, 0], [1, 0]]
    untwisted = make_potential(custom_spec([CustomTerm(-1, e12), CustomTerm(0, e21)], [], 0.0))
    assert not untwisted.twisted and make_potential(radial_spec(0.5, 1)).twisted
    for pot, samples in ((untwisted, 32), (make_potential(radial_spec(0.5, 1)), 16)):
        smap = SurfaceMap(pot, window=8)
        assert smap._lams[8].shape == (samples,)
        assert frame_table(smap, 0.3, [0.3, 0.301]).F.shape == (2, samples, 2, 2)
        res = smap.unitary_frame(0.3)
        assert res.F.shape == (32, 2, 2) and res.window == 8 and res.section == 16
        assert smap.sample(0.3).diagnostics["section"] == 16

import importlib
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import loop_at, mp_frame_pair

from mlq.closedform import sphere_frame, torus_frame
from mlq.holonomy import DomainPath, OdeOptions, transport
from mlq.iwasawa import (
    ConvergenceError,
    FactorizationError,
    IwasawaResult,
    _bauer_read,
    _factor_residual,
    _positivity_precheck,
    iwasawa,
    spectral_factor_plus,
)
from mlq.loops import coefficients, window_samples
from mlq.frames import EDGE_TOL, FRAME_TOL, SurfaceMap
from mlq.potentials import equivariant_spec, make_potential, radial_spec, sphere_spec, torus_spec

SIGMA3 = np.diag([1.0, -1.0])


def frame_at(spec, z: complex, window: int = 12) -> np.ndarray:
    """Phi from the base point to z, at the window's 4N roots of unity."""
    pot = make_potential(spec)
    lams = window_samples(window)
    return transport(
        pot, DomainPath.line(pot.base_point, z), np.broadcast_to(np.eye(2), (lams.size, 2, 2)),
        lams, OdeOptions(tolerance=1e-12),
    )


def symbol(b: np.ndarray, m: int) -> np.ndarray:
    """P = B* B at the m-th roots of unity, for B given by its coefficients B_0, B_1, ..."""
    vals = loop_at(dict(enumerate(b)), window_samples(m // 4))
    return np.conj(vals.transpose(0, 2, 1)) @ vals


def assert_normalized_splitting(res: IwasawaResult, phi: np.ndarray, tol: float):
    assert res.unitarity_error <= tol
    # B extends holomorphically inside the circle: coefficients B_0..B_{2N-1}
    assert res.B.shape == (phi.shape[0] // 2, 2, 2)
    b0 = res.B[0]
    assert abs(b0[1, 0]) <= tol
    assert b0[0, 0].real > 0 and b0[1, 1].real > 0
    assert abs(b0[0, 0].imag) <= tol and abs(b0[1, 1].imag) <= tol
    recon = res.F @ loop_at(dict(enumerate(res.B)), window_samples(phi.shape[0] // 4))
    np.testing.assert_allclose(recon, phi, atol=10 * tol)


def test_split_sphere_frame():
    phi = frame_at(sphere_spec(), 0.8 - 0.3j)
    res = iwasawa(phi)
    assert_normalized_splitting(res, phi, 1e-9)


def test_split_torus_frame():
    phi = frame_at(torus_spec(), -0.4 + 0.6j)
    res = iwasawa(phi)
    assert_normalized_splitting(res, phi, 1e-9)


def test_unitary_input_is_fixed_point():
    phi = frame_at(torus_spec(), 0.5 + 0.5j)
    f = iwasawa(phi).F
    res = iwasawa(f)
    # F is already unitary, so B must be the identity
    np.testing.assert_allclose(res.B[0], np.eye(2), atol=1e-8)
    assert np.linalg.norm(res.B[1:], axis=(1, 2)).max() < 1e-8


def test_unitary_factor_invariant_under_plus_multiplication():
    phi = frame_at(sphere_spec(), 0.6 + 0.1j, window=14)
    # twisted plus loop: even diagonal, odd off-diagonal
    p = {
        0: np.array([[1.0, 0.0], [0.0, 2.0]]),
        1: np.array([[0.0, 0.3], [0.0, 0.0]]),
        2: np.array([[0.1, 0.0], [0.0, 0.0]]),
    }
    f1 = iwasawa(phi).F
    f2 = iwasawa(phi @ loop_at(p, window_samples(14))).F
    np.testing.assert_allclose(f1, f2, atol=1e-8)


def test_rejects_nonpositive_symbols():
    singular = np.broadcast_to(np.diag([1.0, 0.0]), (16, 2, 2))
    with pytest.raises(FactorizationError):
        spectral_factor_plus(singular)  # S* S = S
    not_hermitian = loop_at({1: np.eye(2)}, window_samples(4))
    with pytest.raises(FactorizationError, match="Hermitian"):
        spectral_factor_plus(not_hermitian)


def test_window_must_be_positive():
    # Phi must come as 4N samples of 2x2 matrices, N >= 1
    for shape in ((0, 2, 2), (6, 2, 2), (8, 2), (8, 3, 3)):
        with pytest.raises(ValueError, match="4N"):
            iwasawa(np.ones(shape, dtype=complex))


def test_spectral_factor_reconstructs_symbol():
    b = np.array([[[1.5, 0.4], [0.0, 0.9]], [[0.2, 0.0], [0.3, 0.1]]])
    p = symbol(b, 16)
    b2 = spectral_factor_plus(p)[0]
    assert b2.shape == (8, 2, 2)
    np.testing.assert_allclose(symbol(b2, 16), p, atol=1e-9)
    assert abs(b2[0][1, 0]) < 1e-9


def test_spectral_factor_drops_the_nyquist_mode():
    # 16 samples resolve P's modes |k| <= 7; the mode lam^8 (-1)^j is not factorized
    b = np.array([[[1.5, 0.4], [0.0, 0.9]], [[0.2, 0.0], [0.3, 0.1]]])
    p = symbol(b, 16)
    nyquist = 0.1 * (-1.0) ** np.arange(16)
    b2 = spectral_factor_plus(p + nyquist[:, None, None] * np.eye(2))[0]
    np.testing.assert_allclose(symbol(b2, 16), p, atol=1e-9)


def test_factor_residual_resolves_every_mode():
    # at N = 16, i (mu^16 - mu^-16) vanishes on the 32nd roots of unity but
    # not on the 64 samples the residual runs on
    b = np.zeros((32, 2, 2), dtype=complex)
    b[0] = [[1.5, 0.4], [0.0, 0.9]]
    b[1] = [[0.0, 0.2], [0.3, 0.0]]
    eps = 1e-6
    mu = window_samples(16)
    bump = (1j * (mu**16 - mu**-16))[:, None, None] * np.eye(2)
    assert np.abs(bump[::2]).max() < 1e-12
    assert _factor_residual(b, symbol(b, 64) + eps * bump) >= eps
    assert _factor_residual(b, symbol(b, 64)) < 1e-13


def test_a_stalled_residual_stops_after_two_sections(monkeypatch):
    # a residual that a doubling fails to halve has met rounding: the split
    # raises on the second section instead of doubling on; the first section
    # is P's degree, 2N - 1 = 23 at N = 12
    sections = counted_sections(monkeypatch)
    iwasawa_module = importlib.import_module("mlq.iwasawa")
    monkeypatch.setattr(iwasawa_module, "_factor_residual", lambda b, p_vals: np.full(len(b), 1e-3))
    with pytest.raises(ConvergenceError, match="spectral factor residual 1.000e-03"):
        iwasawa(frame_at(torus_spec(), 0.7))
    assert sections == [23, 46]


def counted_sections(monkeypatch) -> list:
    """The section size m of every ``_bauer_read`` call made after this one."""
    iwasawa_module = importlib.import_module("mlq.iwasawa")
    sections = []
    bauer_read = iwasawa_module._bauer_read

    def counted(p, m):
        sections.append(m)
        return bauer_read(p, m)

    monkeypatch.setattr(iwasawa_module, "_bauer_read", counted)
    return sections


def test_the_torus_corner_doubles_its_section_once(monkeypatch):
    # at N = 8 the torus corner leaves a residual of 3.4e-8 on the first
    # section, P's degree 2N - 1 = 15; one doubling reaches 30, the section
    # the split used to start at, and reads the F the 40-digit oracle reads there
    sections = counted_sections(monkeypatch)
    phi = SurfaceMap(make_potential(torus_spec()), window=8)._frames([1.05 + 1.05j], 0, 8)[0]
    res = iwasawa(phi)
    assert sections == [15, 30] and res.section == 31
    pair, _ = mp_frame_pair(phi)
    np.testing.assert_allclose(res.F[[0, 24]], np.array(pair), rtol=0, atol=1e-13)
    # stacked with a near-pole node, ||P|| ~ 2.5e3, whose bound would accept
    # 3.4e-8, the corner keeps its own bound, its doubling and its bits
    near_pole = SurfaceMap(make_potential(equivariant_spec(0.75, 0.25)), window=8)._frames([0.02], 0, 8)[0]
    stacked = iwasawa(np.stack([near_pole, phi]))[1]
    assert stacked.section == 31 and np.array_equal(stacked.F, res.F)


#: (spec, centre, half-width) of a box of each family's domain, clear of its poles
BOXES = {
    "sphere": (sphere_spec(), 0.0, 1.0),
    "torus": (torus_spec(), 0.0, 1.05),
    "radial": (radial_spec(0.5, 1), 0.0, 0.6),
    "equivariant": (equivariant_spec(0.75, 0.25), 0.9, 0.6),
}


def split_alone(split, values):
    """split(values) of one loop, or the error it raises."""
    try:
        return split(values)
    except (FactorizationError, ConvergenceError) as exc:
        return exc


def assert_same_row(row, alone):
    """A row of a stacked split is bit for bit its split alone, or has the same error."""
    if isinstance(alone, Exception):
        assert type(row) is type(alone) and str(row) == str(alone)
    elif isinstance(alone, IwasawaResult):
        assert np.array_equal(row.F, alone.F) and np.array_equal(row.B, alone.B)
        scalars = ("unitarity_error", "edge_mass", "section")
        assert [getattr(row, k) for k in scalars] == [getattr(alone, k) for k in scalars]
    else:
        assert np.array_equal(row[0], alone[0]) and row[1:] == alone[1:]


@settings(max_examples=16, deadline=None)
@given(
    family=st.sampled_from(sorted(BOXES)),
    n=st.sampled_from([8, 16]),
    offsets=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=2, max_size=6),
)
def test_a_row_splits_the_same_in_any_stack(family, n, offsets):
    # a node's bytes never depend on the chunk or stencil it is split with
    spec, centre, half = BOXES[family]
    zs = [centre + half * complex(x, y) for x, y in offsets]
    phis = SurfaceMap(make_potential(spec), window=n)._frames(zs, 0, n)
    phis = [phi for phi in phis if not isinstance(phi, Exception)]
    assume(phis)
    for phi, row in zip(phis, iwasawa(np.stack(phis))):
        assert_same_row(row, split_alone(iwasawa, phi))


def test_a_failing_row_keeps_its_error_and_spares_the_rest():
    # a non-Hermitian and a non-positive loop amid good ones, N = 8: each gets
    # the error it gets alone, and the good rows the bits they get alone
    good = [symbol(twisted_plus_loop(np.random.default_rng(seed), 2), 32) for seed in range(4)]
    not_hermitian = loop_at({1: np.eye(2)}, window_samples(8))
    singular = np.broadcast_to(np.diag([1.0, 0.0]), (32, 2, 2))
    stack = np.stack([good[0], not_hermitian, good[1], singular, good[2], good[3]])
    rows = spectral_factor_plus(stack)
    assert "not Hermitian" in str(rows[1]) and "not positive definite" in str(rows[3])
    for values, row in zip(stack, rows):
        assert_same_row(row, split_alone(spectral_factor_plus, values))
    # the same through iwasawa: a singular Phi amid torus frames
    phis = SurfaceMap(make_potential(torus_spec()), window=8)._frames([0.3, 0.5j, -0.7], 0, 8)
    stack = np.stack([phis[0], phis[1], singular, phis[2]])
    rows = iwasawa(stack)
    assert isinstance(rows[2], FactorizationError)
    for values, row in zip(stack, rows):
        assert_same_row(row, split_alone(iwasawa, values))


def test_a_row_that_is_not_finite_fails_at_once_and_spares_the_rest():
    # NaN passes every comparison of the precheck and of the halving stop, so
    # such a row used to double its section to MAX_DOUBLINGS (seconds at N = 16);
    # now it gets its own error, naming the sample, and the rows around it
    # the bits they get alone
    n = 16
    phis = SurfaceMap(make_potential(torus_spec()), window=n)._frames([0.3, 0.5j, -0.7], 0, n)
    identity = np.tile(np.eye(2, dtype=complex), (4 * n, 1, 1))
    identity[5, 0, 1] = np.nan
    stack = np.stack([phis[0], phis[1], identity, phis[2]])
    start = time.perf_counter()
    rows = iwasawa(stack)
    assert time.perf_counter() - start < 1.0
    assert isinstance(rows[2], FactorizationError)
    assert str(rows[2]) == f"loop is not finite at sample 5 of {4 * n}"
    for values, row in zip(stack, rows):
        assert_same_row(row, split_alone(iwasawa, values))


def test_a_loop_with_one_non_positive_sample_fails_the_precheck():
    # the 2x2 eigenvalues are formed entry by entry; the error names the
    # sample and its least eigenvalue, and a positive row reads its largest
    positive = np.tile(np.diag([2.0, 0.5]).astype(complex), (16, 1, 1))
    indefinite = positive.copy()
    indefinite[5] = [[1.0, 0.5j], [-0.5j, -0.25]]
    stack = np.stack([positive, indefinite])
    top, error = _positivity_precheck(stack, np.isfinite(stack).all(axis=(-2, -1)))
    assert top == 2.0
    assert isinstance(error, FactorizationError)
    least = np.linalg.eigvalsh(indefinite[5])[0]
    assert str(error) == f"loop is not positive definite at sample 5 of 16 (min eigenvalue {least:.3e})"


def test_an_indefinite_section_fails_its_own_row():
    # the stacked Cholesky raises for the whole stack; its rows are then
    # factored one at a time, so only the indefinite section fails
    d = 7
    good = [coefficients(symbol(twisted_plus_loop(np.random.default_rng(seed), 2), 16))[np.arange(-d, d + 1) % 16]
            for seed in range(2)]
    indefinite = np.zeros_like(good[0])
    indefinite[d] = np.diag([1.0, -1.0])
    p = np.stack([good[0], indefinite, good[1]])
    b, failed = _bauer_read(p, d)
    assert list(failed) == [1]
    assert str(failed[1]) == "Toeplitz section of size 8 is not positive definite: Matrix is not positive definite"
    for i in (0, 2):
        assert np.array_equal(b[i], _bauer_read(p[i : i + 1], d)[0][0])


def ulp_perturbed(phi: np.ndarray, seed: int) -> np.ndarray:
    """phi with every real and imaginary part moved one ulp up or down, at random."""
    rng = np.random.default_rng(seed)

    def nudge(x):
        return np.nextafter(x, np.where(rng.random(x.shape) < 0.5, -np.inf, np.inf))

    return nudge(phi.real) + 1j * nudge(phi.imag)


@pytest.mark.parametrize(
    "spec, z",
    [(equivariant_spec(0.75, 0.25), 0.02), (torus_spec(), 2.8 + 2.8j)],
    ids=["equivariant", "torus"],
)
def test_the_split_outcome_does_not_depend_on_the_last_bits(spec, z):
    # ||P|| ~ 2.5e3 at both nodes: against an absolute bound near the residual
    # floor (~2e-9), 1-ulp changes of Phi would flip the split between
    # converging and ConvergenceError; relative to ||P||^2 every one converges
    phi = SurfaceMap(make_potential(spec), window=16)._frames([z], 0, 16)[0]
    for seed in range(12):
        res = iwasawa(ulp_perturbed(phi, seed))
        assert res.unitarity_error < FRAME_TOL


def test_factor_unitary_on_circle_only():
    # F is unitary on |lam| = 1 but genuinely non-constant in lam
    phi = frame_at(torus_spec(), 0.7)
    res = iwasawa(phi)
    assert res.unitarity_error < 1e-9
    c = coefficients(res.F)
    inside = loop_at({k: c[k % 48] for k in range(-12, 13)}, [0.5])[0]
    assert np.abs(inside @ inside.conj().T - np.eye(2)).max() > 1e-3


def twisted_plus_loop(rng: np.random.Generator, degree: int) -> np.ndarray:
    """Random twisted plus loop, B_0 diagonal positive, invertible on the closed disc."""
    coeffs = rng.standard_normal((degree + 1, 2, 2)) + 1j * rng.standard_normal((degree + 1, 2, 2))
    coeffs[0::2] *= np.eye(2)  # even powers diagonal
    coeffs[1::2] *= 1 - np.eye(2)  # odd powers off-diagonal
    coeffs[0] = np.diag(rng.uniform(0.5, 2.0, 2))
    # ||B_0^{-1}|| sum_k ||B_k|| < 1 keeps det B away from zero for |lam| <= 1
    higher = np.linalg.norm(coeffs[1:], ord=2, axis=(1, 2)).sum()
    coeffs[1:] *= rng.uniform(0.1, 0.6) * coeffs[0].diagonal().real.min() / higher
    return coeffs


@settings(max_examples=20, deadline=None)
@given(
    factors=st.lists(
        st.tuples(st.sampled_from([sphere_frame, torus_frame]), st.complex_numbers(max_magnitude=0.4)),
        min_size=1,
        max_size=3,
    ),
    degree=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    theta=st.floats(0.0, 2.0 * np.pi),
)
def test_split_recovers_a_known_factorization(factors, degree, seed, theta):
    # Phi sampled on the circle rotated by lam0: the split of mu -> Phi(lam0 mu)
    # is F(lam0 mu) B(lam0 mu), so F comes back at the rotated points
    n = 16
    lam0 = np.exp(1j * theta)
    lams = lam0 * window_samples(n)
    f_true = np.broadcast_to(np.eye(2, dtype=complex), (lams.size, 2, 2))
    for frame, z in factors:
        f_true = f_true @ np.array([frame(z, lam) for lam in lams])
    b_true = twisted_plus_loop(np.random.default_rng(seed), degree)

    res = iwasawa(f_true @ loop_at(dict(enumerate(b_true)), lams))
    assert res.F.shape == (4 * n, 2, 2)
    np.testing.assert_allclose(res.F, f_true, rtol=0, atol=1e-12)
    b_rotated = b_true * (lam0 ** np.arange(degree + 1))[:, None, None]
    np.testing.assert_allclose(res.B[: degree + 1], b_rotated, rtol=0, atol=1e-12)
    np.testing.assert_allclose(res.B[degree + 1 :], 0.0, rtol=0, atol=1e-12)
    # twisted: sigma_3 F(-lam) sigma_3 = F(lam), and -lam is 2N samples on
    flipped = SIGMA3 @ np.roll(res.F, -2 * n, axis=0) @ SIGMA3
    assert np.linalg.norm(flipped - res.F, axis=(1, 2)).max() < 1e-12


def test_split_matches_the_mpmath_oracle():
    # the float64 split against the same Bauer method at 40 digits, at the
    # start window N = 8 and the default cap N = 16; P is resolved at N = 8
    # here, so both windows read the same frame pair
    z = 0.9 - 0.3j
    pairs = {}
    for n in (8, 16):
        phi = frame_at(equivariant_spec(0.75, 0.25), z, window=n)
        res = iwasawa(phi)
        pairs[n], residual = mp_frame_pair(phi)
        assert residual < 1e-30
        assert res.edge_mass <= EDGE_TOL
        np.testing.assert_allclose(res.F[[0, 3 * n]], np.array(pairs[n]), rtol=0, atol=1e-13)
    np.testing.assert_allclose(np.array(pairs[8]), np.array(pairs[16]), rtol=0, atol=1e-14)

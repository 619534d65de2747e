"""Closed-form frames and closing/admissibility arithmetic.

Everything the surface pipeline can be cross-checked against lives here:
the explicit sphere/torus frames, the equivariant (Delaunay-type) frame
driven by an elliptic profile function, the rotational-closing arithmetic
for equivariant cylinders, and the trinoid monodromy bookkeeping.

The equivariant frame is expressed in the cylinder coordinate w (the
potential D(lam) dz/z becomes the constant form D(lam) dw under w = log z),
so closed-form values at w correspond to pipeline values at z = e^w with
base point z = 1.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .holonomy import DomainPath, OdeCounts, OdeOptions, circle_path, monodromy
from .potentials import Potential, trinoid_h

#: distance from +-id (and of H_inf H_1 H_0 from id) within which a trinoid
#: monodromy counts as closed
CLOSING_TOL = 1e-6

#: segments of each trinoid generator loop, and the radius of gamma_inf's polygon
LOOP_SEGMENTS = 10
INF_RADIUS = 2.5


def sphere_frame(z: complex, lam: complex) -> np.ndarray:
    """Unitary frame of the totally geodesic sphere family."""
    z = complex(z)
    lam = complex(lam)
    return np.array(
        [[1.0, z / lam], [-np.conj(z) * lam, 1.0]], dtype=np.complex128
    ) / np.sqrt(1.0 + abs(z) ** 2)


def torus_frame(z: complex, lam: complex) -> np.ndarray:
    """Unitary frame of the totally geodesic torus family."""
    z = complex(z)
    lam = complex(lam)
    w = z / lam - np.conj(z) * lam
    return np.array(
        [[np.cosh(w), np.sinh(w)], [np.sinh(w), np.cosh(w)]], dtype=np.complex128
    )


# ---------------------------------------------------------------------------
# Equivariant family


class EquivariantProfile(NamedTuple):
    """Elliptic profile v(x) with v'^2 = -(v^2 - 4a^2)(v^2 - 4b^2), v(0) = 2b.

    Stored on a uniform grid over [0, x_max]; v extends to negative x as an
    even function (v' odd).  `energy_residual` measures conservation of the
    quartic first integral along the grid.
    """

    a: float
    b: float
    x: np.ndarray
    v: np.ndarray
    v_prime: np.ndarray

    @property
    def step(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def x_max(self) -> float:
        return float(self.x[-1])

    def energy_residual(self) -> float:
        e = self.v_prime**2 + (self.v**2 - 4 * self.a**2) * (self.v**2 - 4 * self.b**2)
        return float(np.abs(e).max())

    def v_at(self, x: float) -> float:
        ax = abs(float(x))
        if ax > self.x_max + 1e-9:
            raise ValueError(f"x = {x} outside profile range [-{self.x_max}, {self.x_max}]")
        if len(self.x) < 4:
            raise ValueError("profile grid too coarse for cubic interpolation")
        return float(_lagrange4(self.x, self.v, min(ax, self.x_max)))

    def vp_at(self, x: float) -> float:
        x = float(x)
        ax = abs(x)
        if ax > self.x_max + 1e-9:
            raise ValueError(f"x = {x} outside profile range [-{self.x_max}, {self.x_max}]")
        if len(self.x) < 4:
            raise ValueError("profile grid too coarse for cubic interpolation")
        val = float(_lagrange4(self.x, self.v_prime, min(ax, self.x_max)))
        return val if x >= 0 else -val


def equivariant_profile(a: float, b: float, x_max: float, step: float = 1e-3) -> EquivariantProfile:
    """Integrate the profile ODE v'' = -2 v^3 + 4(a^2 + b^2) v on [0, x_max].

    This oracle uses scipy's ``solve_ivp``, independent of the pipeline's own
    integrator; scipy is imported here so the pipeline does not load it.
    """
    from scipy.integrate import solve_ivp

    a = float(a)
    b = float(b)
    if a == 0 or b == 0:
        raise ValueError("profile parameters a, b must be nonzero")
    if x_max <= 0 or step <= 0:
        raise ValueError("x_max and step must be positive")
    n = int(round(x_max / step))
    xs = np.linspace(0.0, n * step, n + 1)

    def rhs(_x, y):
        v, vp = y
        return [vp, -2.0 * v**3 + 4.0 * (a * a + b * b) * v]

    sol = solve_ivp(
        rhs, (0.0, xs[-1]), [2.0 * b, 0.0], t_eval=xs, method="RK45", rtol=1e-12, atol=1e-12
    )
    if not sol.success:
        raise RuntimeError(f"profile integration failed: {sol.message}")
    return EquivariantProfile(a=a, b=b, x=xs, v=sol.y[0], v_prime=sol.y[1])


def _cumulative_simpson(g: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral of uniformly sampled values, O(h^4) at every node."""
    n = len(g)
    out = np.zeros(n, dtype=np.result_type(g.dtype, np.float64))
    if n < 2:
        return out
    if n == 2:
        out[1] = 0.5 * h * (g[0] + g[1])
        return out
    # even nodes by composite Simpson, odd nodes by the quadratic through the
    # three nearest samples
    out[2::2] = np.cumsum(h / 3.0 * (g[0:-2:2] + 4.0 * g[1:-1:2] + g[2::2]))
    out[1] = h / 12.0 * (5.0 * g[0] + 8.0 * g[1] - g[2])
    odd = np.arange(3, n, 2)
    out[odd] = out[odd - 1] + h / 12.0 * (-g[odd - 2] + 8.0 * g[odd - 1] + 5.0 * g[odd])
    return out


def _lagrange4(xs: np.ndarray, ys: np.ndarray, x: float):
    """Evaluate the cubic through four consecutive grid nodes nearest x."""
    h = xs[1] - xs[0]
    i = int(np.floor(x / h)) - 1
    i = min(max(i, 0), len(xs) - 4)
    xi = xs[i : i + 4]
    yi = ys[i : i + 4]
    out = 0.0 * yi[0]
    for j in range(4):
        lj = 1.0
        for m in range(4):
            if m != j:
                lj *= (x - xi[m]) / (xi[j] - xi[m])
        out += yi[j] * lj
    return out


def equivariant_frame(
    a: float, b: float, profile: EquivariantProfile, z: complex, lam: complex
) -> np.ndarray:
    """Explicit extended frame of the equivariant family (c = 0).

    ``z`` is the cylinder coordinate (z = 0 is the base point; the pipeline
    point is e^z).  All square roots are principal, which restricts lam to
    the arcs around +-1 where every radicand keeps positive real part; on
    the arcs around +-i (where 4 a b lam^2 + v^2 reaches zero and the
    surfaces genuinely degenerate) a ValueError is raised rather than
    returning values off the wrong branch.
    """
    z = complex(z)
    lam = complex(lam)
    if lam.real < 0:
        # the displayed radicals use principal branches valid on the Re(lam)>0
        # arc; the other arc follows from the twist F(-lam) = s3 F(lam) s3
        s3 = np.diag([1.0, -1.0])
        return s3 @ equivariant_frame(a, b, profile, z, -lam) @ s3
    x = z.real
    v = profile.v_at(x)
    vp = profile.vp_at(x)
    aa, bb = profile.a, profile.b
    if (abs(aa - a) > 1e-12) or (abs(bb - b) > 1e-12):
        raise ValueError("profile was computed for different (a, b)")

    lam2 = lam * lam
    disc = 4.0 * a * b * lam2 + v * v
    # the cumulative integral below passes through every profile value, so
    # the radicands must stay in the right half plane along the whole grid
    vmin2 = float((profile.v**2).min())
    if (
        vmin2 + 4.0 * a * b * lam2.real <= 0
        or (a * lam2 + b).real <= 0
        or (a + b * lam2).real <= 0
    ):
        raise ValueError(
            f"principal-branch frame formula is invalid at lam = {lam}: "
            "a radicand leaves the right half plane (lam too close to +-i)"
        )
    if abs(disc) < 1e-12:
        raise ValueError(f"frame formula degenerates at lam = {lam} (4ab lam^2 + v^2 ~ 0)")

    # f(x) = int_0^x 8 a b lam^2 / (4 a b lam^2 + v^2) dt, odd in x
    integrand = 8.0 * a * b * lam2 / (4.0 * a * b * lam2 + profile.v**2)
    cum = _cumulative_simpson(integrand, profile.step)
    fval = _lagrange4(profile.x, cum, min(abs(x), profile.x_max))
    if x < 0:
        fval = -fval

    t = np.sqrt((a * lam + b / lam) * (a / lam + b * lam))
    arg = t * z - t * fval
    ch, sh = np.cosh(arg), np.sinh(arg)
    r1 = np.sqrt(disc / (2.0 * v * (a * lam2 + b)))
    r2 = np.sqrt(2.0 * v * (a + b * lam2) / disc)
    r3 = np.sqrt(disc / (2.0 * v * (a + b * lam2)))
    r4 = np.sqrt(2.0 * v * (a * lam2 + b) / disc)
    s1 = lam * vp / np.sqrt(2.0 * v * (a * lam2 + b) * disc)
    s2 = lam * vp / np.sqrt(2.0 * v * (a + b * lam2) * disc)
    return np.array(
        [[r1 * ch, s1 * ch + r2 * sh], [r3 * sh, s2 * sh + r4 * ch]], dtype=np.complex128
    )


class ClosingReport(NamedTuple):
    """Rotational/translational closing data.

    For equivariant cylinders mu1/mu2 are the monodromy exponents
    2 sqrt(c^2 + |lam0 a +- lam0^{-1} b|^2); the surface closes in Q2 when
    both are nonnegative integers and in S3 when both are odd (eigenvalues
    half-integers).  For trinoid checks mu1/mu2 instead carry the maximal
    deviation of the monodromies from +-id at the two spectral values and
    product_residual carries || H_inf H_1 H_0 - id ||.
    """

    mu1: float
    mu2: float
    closes_q2: bool
    closes_s3: bool
    product_residual: float | None = None


def cylinder_closing(a: float, b: float, c: float, lambda0: complex = 1.0) -> ClosingReport:
    """Closing exponents of the equivariant family at spectral value lambda0."""
    lam0 = complex(lambda0)
    mu1 = 2.0 * np.sqrt(c * c + abs(lam0 * a + b / lam0) ** 2)
    mu2 = 2.0 * np.sqrt(c * c + abs(lam0 * a - b / lam0) ** 2)
    tol = 1e-9
    int1 = abs(mu1 - round(mu1)) <= tol
    int2 = abs(mu2 - round(mu2)) <= tol
    closes_q2 = bool(int1 and int2)
    odd1 = int1 and round(mu1) % 2 == 1
    odd2 = int2 and round(mu2) % 2 == 1
    return ClosingReport(float(mu1), float(mu2), closes_q2, bool(odd1 and odd2))


# ---------------------------------------------------------------------------
# Trinoids


class AdmissibilityReport(NamedTuple):
    """Trinoid admissibility: weights n_k, m_k and the triangle inequalities."""

    n: tuple[float, float, float]
    m: tuple[float, float, float]
    admissible: bool
    violated: list[str]


def trinoid_admissible(lambda0: complex, v0: float, v1: float, vinf: float) -> AdmissibilityReport:
    """Evaluate the trinoid admissibility inequalities.

    n_k = 1/2 - 1/2 sqrt(1 + v_k h(-1)/4) and m_k likewise with h(1); the
    configuration is admissible when |n_0|+|n_1|+|n_inf| <= 1, each |n_i| is
    at most the sum of the other two, and the same holds for m.
    """
    lam0 = complex(lambda0)
    if abs(lam0 - 1j) > 1e-12 and abs(lam0 + 1j) > 1e-12:
        raise ValueError(f"lambda0 must be +i or -i, got {lam0}")
    h1 = complex(trinoid_h(1.0, lam0))
    hm1 = complex(trinoid_h(-1.0, lam0))
    if abs(h1.imag) > 1e-12 or abs(hm1.imag) > 1e-12:
        raise ValueError("h(+-1) should be real for lambda0 = +-i")
    vs = (float(v0), float(v1), float(vinf))
    names = ("0", "1", "inf")
    violated: list[str] = []
    n: list[float] = []
    m: list[float] = []
    for vk, nm in zip(vs, names):
        rad_n = 1.0 + vk * hm1.real / 4.0
        rad_m = 1.0 + vk * h1.real / 4.0
        if rad_n < 0:
            violated.append(f"precondition 1 + v_{nm} h(-1)/4 >= 0")
            n.append(np.nan)
        else:
            n.append(0.5 - 0.5 * np.sqrt(rad_n))
        if rad_m < 0:
            violated.append(f"precondition 1 + v_{nm} h(1)/4 >= 0")
            m.append(np.nan)
        else:
            m.append(0.5 - 0.5 * np.sqrt(rad_m))
    if not violated:
        for label, w in (("n", n), ("m", m)):
            s = sum(abs(x) for x in w)
            if s > 1.0 + 1e-12:
                violated.append(f"|{label}_0|+|{label}_1|+|{label}_inf| <= 1")
            for i in range(3):
                j, k = (i + 1) % 3, (i + 2) % 3
                if abs(w[i]) > abs(w[j]) + abs(w[k]) + 1e-12:
                    violated.append(f"|{label}_{names[i]}| <= |{label}_{names[j]}|+|{label}_{names[k]}|")
    return AdmissibilityReport(
        n=(n[0], n[1], n[2]), m=(m[0], m[1], m[2]),
        admissible=not violated, violated=violated,
    )


def trinoid_closing_check(
    h0: tuple[np.ndarray, np.ndarray],
    h1: tuple[np.ndarray, np.ndarray],
    hinf: tuple[np.ndarray, np.ndarray],
) -> ClosingReport:
    """Check the descent conditions on trinoid monodromies.

    Each argument is the pair (H at lambda0, H at -i lambda0) for one
    generator.  closes_q2 requires every matrix within ``CLOSING_TOL`` of
    +-id and the product H_inf H_1 H_0 within it of id at both spectral values;
    closes_s3 additionally requires the matrices be +id (not -id).
    """
    worst = [0.0, 0.0]
    all_pm = True
    all_plus = True
    for pair in (h0, h1, hinf):
        for side in (0, 1):
            m = np.asarray(pair[side], dtype=np.complex128)
            d_plus = float(np.abs(m - np.eye(2)).max())
            dev = min(d_plus, float(np.abs(m + np.eye(2)).max()))
            worst[side] = max(worst[side], dev)
            all_pm = all_pm and dev <= CLOSING_TOL
            all_plus = all_plus and d_plus <= CLOSING_TOL
    prod_res = 0.0
    for side in (0, 1):
        prod = np.asarray(hinf[side]) @ np.asarray(h1[side]) @ np.asarray(h0[side])
        prod_res = max(prod_res, float(np.abs(prod - np.eye(2)).max()))
    closes = all_pm and prod_res <= CLOSING_TOL
    return ClosingReport(
        mu1=worst[0], mu2=worst[1],
        closes_q2=bool(closes), closes_s3=bool(closes and all_plus),
        product_residual=prod_res,
    )


def trinoid_loops() -> tuple[DomainPath, DomainPath, DomainPath]:
    """Generators of the fundamental group of C \\ {0, 1} based at 1/2.

    gamma0 and gamma1 circle 0 and 1 counterclockwise; gamma_inf is a large
    clockwise loop around both, reached by a spur down the imaginary
    direction.  With left monodromies H(gamma) = Phi_end Phi_start^{-1} the
    product H(gamma_inf) H(gamma_1) H(gamma_0) is the transport around
    "gamma_inf after gamma_1 after gamma_0", which is trivial in homotopy.
    A monodromy depends only on the homotopy class of its loop, so each loop is a
    polygon of ``LOOP_SEGMENTS`` segments, and the three ride in one ``transport``.
    """
    base = 0.5 + 0.0j
    g0 = circle_path(0.0, 0.5, n=LOOP_SEGMENTS, start_angle=0.0)       # starts at 0.5
    g1 = circle_path(1.0, 0.5, n=LOOP_SEGMENTS, start_angle=np.pi)     # starts at 0.5
    # the big polygon clockwise from its vertex A = 0.5 - i*INF_RADIUS, the end of the spur
    a_pt, *ccw = circle_path(base, INF_RADIUS, n=LOOP_SEGMENTS - 2, start_angle=-np.pi / 2).vertices
    ginf = DomainPath((base, a_pt, *ccw[::-1], a_pt), closed=True)
    return g0, g1, ginf


def trinoid_monodromies(
    pot: Potential,
    lams,
    opts: OdeOptions = OdeOptions(),
    counts: OdeCounts | None = None,
) -> np.ndarray:
    """Monodromies of a trinoid potential, shape (M, 3, 2, 2).

    Entry [m, i] is the monodromy around generator i of ``trinoid_loops``
    (gamma0, gamma1, gamma_inf) at the spectral value lams[m].  One
    ``transport`` carries the three loops and every value, and fills ``counts``.
    """
    return np.swapaxes(monodromy(pot, trinoid_loops(), lams, opts, counts), 0, 1)

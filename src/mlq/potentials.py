"""Holomorphic potential families.

Each potential is a matrix-valued 1-form xi(z) dz whose coefficient matrix is
a trace-free Laurent polynomial in the spectral parameter lam.  Every family
is defined once, by its branch of ``make_potential``, which validates the
parameters and gives the singular set, the base point and the xi terms: a
rational z-weight num(z) / den(z) as two coefficient tuples, its
antiderivative W where the frame is read in closed form, and constant
lam-terms.  ``xi_sampler`` puts the weights over one common denominator D
and sums the lam-terms at a fixed set of spectral values, so D xi is a
polynomial in z: that is what the integrator's Taylor steps read.  Sphere,
torus and equivariant are one term w(z) A(lam), so xi(z) commutes with
xi(z') and the frame is exp(W A).  A config's ``potential`` object holds a
family's ``*_spec`` parameters; ``cli.load_config`` reads it, and nothing
here reads JSON.  ``GridSpec``, the config's z-grid, is defined here too, so
reading a config runs no pipeline layer, and so are the route records a
one-term run shares with the integrator (``DomainPath``, ``validate_path``,
``EPS_POLE``, ``OdeOptions``, ``OdeCounts``, ``IntegrationError``), so it
never loads ``holonomy``.

Families
--------
sphere       lam^{-1} E_12, entire, base 0
torus        lam^{-1} (E_12 + E_21), entire, base 0
equivariant  D(lam)/z with D = [[c, a lam^{-1} + b lam], [a lam + b lam^{-1}, -c]],
             simple pole at 0, base 1
radial       lam^{-1} [[0, 1], [c z^k, 0]], entire, base 0
trinoid      [[0, lam^{-1}], [lam h(lam) q(z), 0]] with
             h(lam) = lam^{-1}(lam - lam0)(lam - lam0^{-1}) and
             q(z) = (vinf z^2 + (v1 - v0 - vinf) z + v0) / (16 z^2 (z-1)^2),
             poles at 0, 1 (and infinity), base 1/2; untwisted
custom       finite sum of lam^k terms with rational z-coefficients, poles
             declared or at a denominator's zeros; caller supplies the base point
"""

from __future__ import annotations

import math
import threading
from functools import reduce
from types import MappingProxyType
from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np


class PoleError(ValueError):
    """Raised when a potential is evaluated at (or a path runs into) a pole."""


class IntegrationError(RuntimeError):
    """ODE solver failure; message carries the z-location of the failure."""


#: Paths must keep this distance from declared singular points.
EPS_POLE = 1e-3

_E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
_E21 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.complex128)

_VARIANTS = ("sphere", "torus", "equivariant", "radial", "trinoid", "custom")

#: the z-weight 1, as (num, den) coefficient tuples
_ONE = ((1.0,), (1.0,))

#: one xi term: the weight's numerator and denominator coefficients in ascending
#: order, its antiderivative W or None, and the lam-terms {k: A_k}
Term = tuple[tuple[complex, ...], tuple[complex, ...], Callable | None, dict[int, np.ndarray]]


class FrozenRecord:
    """Base of the records that validate (the others are NamedTuples): a subclass's
    ``__init__`` checks its values and hands them here in ``__slots__`` order.
    Immutable; equal and hashed by ``_key()``, every field unless overridden."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, *_) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{n}={v!r}' for n, v in zip(self.__slots__, self._key()))})"


class CustomTerm(NamedTuple):
    """One lam^k term of a custom potential with a rational z-coefficient.

    ``num`` and ``den`` are polynomial coefficients in ascending order, so the
    matrix coefficient of lam^k is  (num_ij(z) / den_ij(z))  entrywise; here a
    single rational scalar multiplies a constant matrix.
    """

    lam_power: int
    matrix: tuple[tuple[complex, complex], tuple[complex, complex]]
    num: tuple[complex, ...] = (1.0 + 0.0j,)
    den: tuple[complex, ...] = (1.0 + 0.0j,)


class PotentialSpec(NamedTuple):
    """Declarative description of a potential; validated by make_potential."""

    variant: str
    params: Mapping[str, Any] = MappingProxyType({})


class Potential(FrozenRecord):
    """A validated potential: spec, singular set, base point and the xi
    terms (num, den, W, {k: A_k}) that ``make_potential`` writes for its family;
    two potentials are equal when their spec, singular set and base point are.
    ``twisted`` is derived from the terms: every odd lam-power off-diagonal and
    every even one diagonal, so xi(-lam) = sigma_3 xi(lam) sigma_3."""

    __slots__ = ("spec", "singular_points", "base_point", "terms", "twisted")
    spec: PotentialSpec
    singular_points: tuple[complex, ...]
    base_point: complex
    terms: tuple[Term, ...]
    twisted: bool

    def __init__(self, spec: PotentialSpec, singular_points: tuple[complex, ...], base_point: complex,
                 terms: tuple[Term, ...]) -> None:
        twisted = not any(np.any(a * (np.eye(2) if k % 2 else 1 - np.eye(2))) for *_, t in terms for k, a in t.items())
        super().__init__(spec, singular_points, base_point, terms, twisted)

    def _key(self) -> tuple:
        return self.spec, self.singular_points, self.base_point

    @property
    def variant(self) -> str:
        return self.spec.variant


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

    A piece's Taylor series is summed until its last terms are below
    tolerance times the largest entry of the sum, at every row and lam
    (see ``_propagators``).
    """

    __slots__ = ("tolerance",)
    tolerance: float

    def __init__(self, tolerance: float = 1e-10) -> None:
        if isinstance(tolerance, bool) or not 0 < tolerance < math.inf:
            raise ValueError(f"tolerance must be a finite positive real, got {tolerance!r}")
        super().__init__(tolerance)


class OdeCounts:
    """Running totals of Taylor pieces (``steps``) and of the terms their
    passes summed, and the largest |det U - 1| of any piece propagator U
    before it was divided out; one instance may be shared between threads."""

    def __init__(self) -> None:
        self.steps = 0
        self.terms = 0
        self.det_drift = 0.0
        self._lock = threading.Lock()

    def add(self, steps: int, terms: int, det_drift: float) -> None:
        with self._lock:
            self.steps += steps
            self.terms += terms
            self.det_drift = max(self.det_drift, det_drift)


def raise_first(rows: list) -> None:
    for row in rows:
        if isinstance(row, Exception):
            raise row


def sphere_spec() -> PotentialSpec:
    return PotentialSpec("sphere")


def torus_spec() -> PotentialSpec:
    return PotentialSpec("torus")


def equivariant_spec(a: float, b: float, c: float = 0.0) -> PotentialSpec:
    return PotentialSpec("equivariant", {"a": float(a), "b": float(b), "c": float(c)})


def radial_spec(c: complex, k: int) -> PotentialSpec:
    return PotentialSpec("radial", {"c": complex(c), "k": int(k)})


def trinoid_spec(lambda0: complex, v0: float, v1: float, vinf: float) -> PotentialSpec:
    return PotentialSpec(
        "trinoid",
        {"lambda0": complex(lambda0), "v0": float(v0), "v1": float(v1), "vinf": float(vinf)},
    )


def custom_spec(
    terms: list[CustomTerm],
    poles: list[complex],
    base_point: complex,
) -> PotentialSpec:
    return PotentialSpec(
        "custom",
        {
            "terms": tuple(terms),
            "poles": tuple(complex(p) for p in poles),
            "base_point": complex(base_point),
        },
    )


def make_potential(spec: PotentialSpec) -> Potential:
    """The one definition of each family: validate a spec and give its
    singular set, base point and xi terms.

    The terms are (num, den, W, {k: A_k}) with xi(z, lam) = sum over terms
    of num(z) / den(z) sum_k A_k lam^k, num and den coefficient tuples in
    ascending order.  W(z0, z1, winding), given for the one-term families
    and elementwise on arrays of z1, integrates the weight along the
    straight segment from z0 to z1 and ``winding`` loops around its pole.
    Raises ValueError naming the violated constraint for invalid parameters.
    """
    v = spec.variant
    p = spec.params
    if v not in _VARIANTS:
        raise ValueError(f"unknown potential variant {v!r}; expected one of {_VARIANTS}")
    if v == "sphere":
        return Potential(spec, (), 0.0 + 0.0j, ((*_ONE, _difference, {-1: _E12}),))
    if v == "torus":
        return Potential(spec, (), 0.0 + 0.0j, ((*_ONE, _difference, {-1: _E12 + _E21}),))
    if v == "equivariant":
        a, b, c = p["a"], p["b"], p["c"]
        for name, val in (("a", a), ("b", b), ("c", c)):
            if not np.isreal(val):
                raise ValueError(f"equivariant parameter {name} must be real, got {val!r}")
        return Potential(spec, (0.0 + 0.0j,), 1.0 + 0.0j, ((
            (1.0,), (0.0, 1.0),
            lambda z0, z1, winding: np.log(z1 / z0) + 2j * np.pi * winding,
            {
                -1: np.array([[0, a], [b, 0]], dtype=np.complex128),
                0: np.array([[c, 0], [0, -c]], dtype=np.complex128),
                1: np.array([[0, b], [a, 0]], dtype=np.complex128),
            },
        ),))
    if v == "radial":
        c, k = complex(p["c"]), p["k"]
        if c == 0 or abs(abs(c) - 1.0) < 1e-12:
            raise ValueError(f"radial parameter c must avoid the unit circle and 0, got {c}")
        if not isinstance(k, int) or k < 1:
            raise ValueError(f"radial exponent k must be a positive integer, got {k!r}")
        return Potential(spec, (), 0.0 + 0.0j, ((*_ONE, None, {-1: _E12}), ((0,) * k + (c,), (1.0,), None, {-1: _E21})))
    if v == "trinoid":
        lam0 = complex(p["lambda0"])
        if abs(lam0 - 1j) > 1e-12 and abs(lam0 + 1j) > 1e-12:
            raise ValueError(f"trinoid lambda0 must be +i or -i, got {lam0}")
        v0, v1, vinf = p["v0"], p["v1"], p["vinf"]
        for name, val in (("v0", v0), ("v1", v1), ("vinf", vinf)):
            if not np.isreal(val) or val == 0:
                raise ValueError(f"trinoid weight {name} must be real and nonzero, got {val!r}")
        # lam * h(lam) = (lam - lam0)(lam - 1/lam0) = lam^2 - (lam0 + 1/lam0) lam + 1, and
        # q(z) = (vinf z^2 + (v1 - v0 - vinf) z + v0) / (16 z^2 (z - 1)^2)
        s = lam0 + 1.0 / lam0
        return Potential(spec, (0.0 + 0.0j, 1.0 + 0.0j), 0.5 + 0.0j, (
            (*_ONE, None, {-1: _E12}),
            ((v0, v1 - v0 - vinf, vinf), (0, 0, 16, -32, 16), None, {0: _E21, 1: -s * _E21, 2: _E21}),
        ))
    # custom
    if not p.get("terms"):
        raise ValueError("custom potential needs at least one term")
    terms = []
    for t in p["terms"]:
        if len(t.num) == 0 or all(abs(c) == 0 for c in t.den):
            raise ValueError("custom term needs a numerator and a nonzero denominator polynomial")
        mat = np.asarray(t.matrix, dtype=np.complex128)
        if mat.shape != (2, 2):
            raise ValueError(f"custom term matrix must be 2x2, got shape {mat.shape}")
        # the potentials take values in sl(2, C); det renormalization assumes it
        if abs(np.trace(mat)) > 1e-12:
            raise ValueError(f"custom term matrix must be trace free, got trace {np.trace(mat)}")
        terms.append((tuple(t.num), tuple(t.den), None, {t.lam_power: mat}))
    base = complex(p["base_point"])
    poles = [complex(q) for q in p.get("poles", ())]
    for q in (complex(r) + 0j for t in p["terms"] for r in np.roots(np.asarray(t.den, dtype=np.complex128)[::-1])):
        if all(abs(q - known) >= 1e-9 for known in poles):
            poles.append(q)
    for q in poles:
        if abs(base - q) < 1e-9:
            raise ValueError(f"custom base point {base} coincides with pole {q}")
    return Potential(spec, tuple(poles), base, tuple(terms))


def _difference(z0, z1, winding: int):
    """The antiderivative of the weight 1, which has no pole to wind around."""
    return z1 - z0


class XiSampler(NamedTuple):
    """xi(z, lam) at fixed spectral values lam_1..lam_M, over one denominator.

    ``den`` holds the coefficients of D, the product of the terms' distinct
    denominators, and ``terms`` pairs each term's numerator over D (its num
    times the other denominators) with the sum of its lam-terms, shape
    (M, 2, 2): D xi = sum over terms of num_D(z) vals, a polynomial in z.
    ``exact`` is (W, A) for a potential of one term w(z) A(lam) whose
    antiderivative W is known, with A of shape (M, 2, 2): its frame from z0
    to z1 is exp(W(z0, z1, winding) A).  It is None for any other potential.
    """

    den: np.ndarray
    terms: list[tuple[np.ndarray, np.ndarray]]
    exact: tuple | None


def xi_sampler(pot: Potential, lams) -> XiSampler:
    """xi(., lam) at every spectral value in ``lams``.

    The lam-powers are evaluated once.  Poles are not checked here: callers
    validate their paths first.
    """
    lams = np.asarray(lams, dtype=np.complex128).reshape(-1)
    dens = list(dict.fromkeys(den for _, den, _, _ in pot.terms))
    terms = []
    for num, den, _, lam_terms in pot.terms:
        vals = sum(np.multiply.outer(lams**k, mat) for k, mat in lam_terms.items())
        terms.append((reduce(np.convolve, [d for d in dens if d != den], np.asarray(num)), vals))
    w = pot.terms[0][2]
    return XiSampler(reduce(np.convolve, dens, np.ones(1)), terms,
                     (w, vals) if len(pot.terms) == 1 and w is not None else None)


def trinoid_h(lam: complex, lambda0: complex) -> complex:
    """h(lam) = lam^{-1} (lam - lam0)(lam - lam0^{-1})."""
    lam = complex(lam)
    lam0 = complex(lambda0)
    return (lam - lam0) * (lam - 1.0 / lam0) / lam

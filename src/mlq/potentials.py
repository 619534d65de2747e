"""Holomorphic potential families.

Each potential is a matrix-valued 1-form xi(z) dz whose coefficient matrix is
a trace-free Laurent polynomial in the spectral parameter lam.  Every family
is defined once, by its branch of ``make_potential``, which validates the
parameters and gives the singular set, the base point and the xi terms: a
scalar z-weight, its antiderivative W where the frame is read in closed
form, and constant lam-terms.  ``xi_sampler`` folds the terms at a fixed
set of spectral values, which is what the integrator reads; every weight
takes an array of z as well as one z.  Sphere, torus and equivariant are
one term w(z) A(lam), so xi(z) commutes with xi(z') and the frame is
exp(W A).  A config's ``potential`` object holds a family's ``*_spec``
parameters; ``cli.load_config`` reads it, and nothing here reads JSON.

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
custom       finite sum of lam^k terms with rational z-coefficients and
             explicitly declared poles; caller supplies the base point
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, Mapping, NamedTuple

import numpy as np


class PoleError(ValueError):
    """Raised when a potential is evaluated at (or a path runs into) a pole."""


_E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
_E21 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.complex128)

_VARIANTS = ("sphere", "torus", "equivariant", "radial", "trinoid", "custom")

#: scalar z-weight of a group of lam-terms, elementwise on arrays of z; None means 1
Weight = Callable[[complex], complex] | None


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
    terms (w, W, {k: A_k}) that ``make_potential`` writes for its family;
    two potentials are equal when their spec, singular set and base point are."""

    __slots__ = ("spec", "singular_points", "base_point", "terms")
    spec: PotentialSpec
    singular_points: tuple[complex, ...]
    base_point: complex
    terms: tuple[tuple[Weight, Callable | None, dict[int, np.ndarray]], ...]

    def __init__(self, spec: PotentialSpec, singular_points: tuple[complex, ...], base_point: complex,
                 terms: tuple[tuple[Weight, Callable | None, dict[int, np.ndarray]], ...]) -> None:
        super().__init__(spec, singular_points, base_point, terms)

    def _key(self) -> tuple:
        return self.spec, self.singular_points, self.base_point

    @property
    def variant(self) -> str:
        return self.spec.variant


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

    The terms are triples (w, W, {k: A_k}) with xi(z, lam) = sum over terms
    of w(z) sum_k A_k lam^k; a weight of None means 1.  W(z0, z1, winding),
    given for the one-term families and elementwise on arrays of z1,
    integrates w along the straight segment from z0 to z1 and ``winding``
    loops around its pole.  Raises ValueError naming the violated constraint
    for invalid parameters.
    """
    v = spec.variant
    p = spec.params
    if v not in _VARIANTS:
        raise ValueError(f"unknown potential variant {v!r}; expected one of {_VARIANTS}")
    if v == "sphere":
        return Potential(spec, (), 0.0 + 0.0j, ((None, _difference, {-1: _E12}),))
    if v == "torus":
        return Potential(spec, (), 0.0 + 0.0j, ((None, _difference, {-1: _E12 + _E21}),))
    if v == "equivariant":
        a, b, c = p["a"], p["b"], p["c"]
        for name, val in (("a", a), ("b", b), ("c", c)):
            if not np.isreal(val):
                raise ValueError(f"equivariant parameter {name} must be real, got {val!r}")
        return Potential(spec, (0.0 + 0.0j,), 1.0 + 0.0j, ((
            lambda z: 1.0 / z,
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
        return Potential(spec, (), 0.0 + 0.0j, ((None, None, {-1: _E12}), (lambda z: c * z**k, None, {-1: _E21})))
    if v == "trinoid":
        lam0 = complex(p["lambda0"])
        if abs(lam0 - 1j) > 1e-12 and abs(lam0 + 1j) > 1e-12:
            raise ValueError(f"trinoid lambda0 must be +i or -i, got {lam0}")
        v0, v1, vinf = p["v0"], p["v1"], p["vinf"]
        for name, val in (("v0", v0), ("v1", v1), ("vinf", vinf)):
            if not np.isreal(val) or val == 0:
                raise ValueError(f"trinoid weight {name} must be real and nonzero, got {val!r}")
        # lam * h(lam) = (lam - lam0)(lam - 1/lam0) = lam^2 - (lam0 + 1/lam0) lam + 1
        s = lam0 + 1.0 / lam0
        return Potential(spec, (0.0 + 0.0j, 1.0 + 0.0j), 0.5 + 0.0j, (
            (None, None, {-1: _E12}),
            (lambda z: trinoid_q(z, v0, v1, vinf), None, {0: _E21, 1: -s * _E21, 2: _E21}),
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
        terms.append((_rational(t.num, t.den), None, {t.lam_power: mat}))
    base = complex(p["base_point"])
    poles = tuple(complex(q) for q in p.get("poles", ()))
    for q in poles:
        if abs(base - q) < 1e-9:
            raise ValueError(f"custom base point {base} coincides with declared pole {q}")
    return Potential(spec, poles, base, tuple(terms))


def _rational(num, den) -> Callable[[complex], complex]:
    from numpy.polynomial import polynomial as npp

    num = np.asarray(num, dtype=np.complex128)
    den = np.asarray(den, dtype=np.complex128)

    def weight(z):
        d = npp.polyval(z, den)
        at_pole = np.abs(d) < 1e-14
        if np.any(at_pole):
            raise PoleError(f"custom term denominator vanishes at z = {complex(np.extract(at_pole, z)[0])}")
        return npp.polyval(z, num) / d

    return weight


def _difference(z0, z1, winding: int):
    """The antiderivative of the weight 1, which has no pole to wind around."""
    return z1 - z0


class XiSampler:
    """z -> xi(z, lam) at fixed spectral values lam_1..lam_M.

    xi(z) = const + sum over pairs of w(z) vals: all unweighted terms are
    folded into ``const`` and each weighted pair into one array ``vals``,
    all of shape (M, 2, 2), so an evaluation costs one weight and one axpy
    per weighted pair.  ``exact`` is (W, A) for a potential of one term
    w(z) A(lam) whose antiderivative W is known, with A of shape (M, 2, 2):
    its frame from z0 to z1 is exp(W(z0, z1, winding) A).  It is None for
    any other potential.
    """

    def __init__(self, const: np.ndarray, weighted: list[tuple[Callable, np.ndarray]], exact=None) -> None:
        self.const = const
        self.weighted = weighted
        self.exact = exact


def xi_sampler(pot: Potential, lams) -> XiSampler:
    """xi(., lam) at every spectral value in ``lams``.

    The lam-powers are evaluated once.  Poles are not checked here: callers
    validate their paths first.
    """
    lams = np.asarray(lams, dtype=np.complex128).reshape(-1)
    const = np.zeros((lams.size, 2, 2), dtype=np.complex128)
    weighted = []
    terms = pot.terms
    for w, _, lam_terms in terms:
        vals = sum(np.multiply.outer(lams**k, mat) for k, mat in lam_terms.items())
        if w is None:
            const = const + vals
        else:
            weighted.append((w, vals))
    exact = (terms[0][1], vals) if len(terms) == 1 and terms[0][1] is not None else None
    return XiSampler(const, weighted, exact)


def trinoid_q(z, v0: float, v1: float, vinf: float):
    """The rational weight q(z) of the trinoid potential, elementwise on arrays of z."""
    return (vinf * z**2 + (v1 - v0 - vinf) * z + v0) / (16.0 * z**2 * (z - 1.0) ** 2)


def trinoid_h(lam: complex, lambda0: complex) -> complex:
    """h(lam) = lam^{-1} (lam - lam0)(lam - lam0^{-1})."""
    lam = complex(lam)
    lam0 = complex(lambda0)
    return (lam - lam0) * (lam - 1.0 / lam0) / lam

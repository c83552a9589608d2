"""Exact heights on the open orbit of the catalog models.

A rational point of the open orbit is stored as a primitive integer vector
(Z, X1, ..., Xn) with Z >= 1 and gcd(Z, X1, ..., Xn) = 1; the affine
coordinates are x_i = X_i / Z.  For each generator system G with integer
linear sections l (one of which is always Z), put

    M_G(x) = max_l |l(Z, X)|        (a positive integer),
    g_G(x) = gcd_l l(Z, X)          (a positive integer dividing M_G),
    h_G(x) = M_G(x) / g_G(x)        (a positive integer).

The height attached to a Picard vector lambda with generator exponents
m_G(lambda) factors over places of Q as

    H(x; lambda) = prod_G h_G^{m_G}
                 = [prod_G M_G^{m_G}] * [prod_G g_G^{-m_G}]
                 = (archimedean part) * (finite part),

because the sup over sections of the p-adic metric on a primitive vector is
|g_G|_p = p^{-v_p(g_G)}.  The finite part is therefore prod_p H_p(x) with

    H_p(x; lambda) = p^{- sum_G m_G * v_p(g_G(x))},

which local_height computes directly.  The metric implicit in M_G is the max
metric on the section values; it is smooth away from ties but that never
affects exact point counts or the local densities computed elsewhere.

Exactness: whenever every net prime exponent is an integer (in particular
for every integer Picard vector, so for all catalog anticanonical work) the
finite part is an exact Fraction.  For fractional exponents a prime-power
factor p^{e} with non-integer e is irrational, so finite_height_part raises
ValueError.  Bounded-height comparisons never form H: they apply
_util.height_test to the generator heights, exact at every rational
exponent.  H(x; lambda) itself, split into its archimedean and finite
parts, is an oracle of the tests and lives in tests/conftest.py.

Worked anticanonical examples used by the tests: on P1 the point with
(Z, X) = (2, 3) has H = 3^2 = 9; on BlP2-1 the point (2, 1, 3) has H = 27
and the point (3, 2, 6) has finite part 1/3 (all of it at p = 3); the origin
(1, 0, 0) has height 1 for every lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import geometry
from ._util import as_fraction, factorize, is_prime, vp
from .geometry import VarietyModel


@dataclass(frozen=True)
class RationalPoint:
    """Primitive homogeneous coordinates (Z, X1..Xn) with Z >= 1, gcd = 1."""

    coords: tuple

    def __post_init__(self):
        c = tuple(int(v) for v in self.coords)
        if len(c) < 2:
            raise ValueError("need at least (Z, X1)")
        if c[0] < 1:
            raise ValueError(f"Z must be >= 1, got {c[0]}")
        if math.gcd(*c) != 1:
            raise ValueError(f"coordinates {c} are not primitive")
        object.__setattr__(self, "coords", c)

    @classmethod
    def from_affine(cls, xs: Iterable) -> "RationalPoint":
        """Build the primitive vector for affine rational coordinates."""
        vals = [as_fraction(x) for x in xs]
        z = math.lcm(*(v.denominator for v in vals)) if vals else 1
        raw = [z] + [int(v * z) for v in vals]
        g = math.gcd(*raw)
        return cls(tuple(v // g for v in raw))

    def affine(self) -> tuple:
        """Affine coordinates x_i = X_i / Z as exact Fractions."""
        z = self.coords[0]
        return tuple(Fraction(x, z) for x in self.coords[1:])


def section_value(section: Sequence[int], coords: Sequence[int]) -> int:
    return sum(c * x for c, x in zip(section, coords))


def _section_stats(model: VarietyModel, coords: Sequence[int]):
    """Per generator system: (max |l(x)|, gcd of the l(x))."""
    if len(coords) - 1 != model.dim:
        raise ValueError(
            f"point has dim {len(coords) - 1}, model {model.id} has {model.dim}")
    stats = []
    for gen in model.generators:
        vals = [section_value(s, coords) for s in gen.sections]
        stats.append((max(map(abs, vals)), math.gcd(*vals)))
    return stats


def generator_heights(model: VarietyModel, coords: Sequence[int]) -> tuple:
    """The positive integers h_G = max|l(x)| / gcd(l(x)), one per system, of
    the primitive vector coords = (Z, X1, ..., Xn)."""
    return tuple([m // g for m, g in _section_stats(model, coords)])


def _prime_factor_exponents(bases_and_exps) -> dict:
    """Net Fraction exponent of each prime in prod base^exp (bases >= 1)."""
    out: dict = {}
    for base, exp in bases_and_exps:
        if exp == 0 or base == 1:
            continue
        for p, k in factorize(base).items():
            out[p] = out.get(p, Fraction(0)) + exp * k
    return {p: e for p, e in out.items() if e != 0}


def _exact_prime_product(exponents: dict) -> Fraction:
    """prod p^e as an exact Fraction; ValueError if some e is non-integer."""
    out = Fraction(1)
    for p, e in exponents.items():
        if e.denominator != 1:
            raise ValueError(
                f"height factor {p}^{e} is irrational; no exact rational value"
            )
        out *= Fraction(p) ** int(e)
    return out


def finite_height_part(model: VarietyModel, point: RationalPoint, lam) -> Fraction:
    """Exact finite part prod_G gcd_G^{-m_G} = prod_p H_p(x; lambda).

    Raises ValueError when some net prime exponent is a non-integer rational,
    because the value is then irrational (see module docstring).
    """
    m = geometry.generator_exponents(model, lam)
    stats = _section_stats(model, point.coords)
    return _exact_prime_product(
        _prime_factor_exponents((g, -e) for (_, g), e in zip(stats, m))
    )


def local_height(model: VarietyModel, point: RationalPoint, p: int, lam) -> Fraction:
    """H_p(x; lambda) = p^{- sum_G m_G * v_p(gcd_G)}, exact.

    Defined at every prime including the small ones; only closed-form
    density formulas elsewhere refuse p in {2, 3}.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    m = geometry.generator_exponents(model, lam)
    stats = _section_stats(model, point.coords)
    e = sum(em * vp(g, p) for (_, g), em in zip(stats, m))
    if e.denominator != 1:
        raise ValueError(f"local height {p}^{-e} is irrational")
    return Fraction(p) ** int(-e)

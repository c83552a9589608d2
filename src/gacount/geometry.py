"""Variety catalog and Picard-lattice arithmetic.

The catalog holds six equivariant compactifications of the additive group
G_a^n over Q:

    P1, P2, P3       projective n-space compactifying affine n-space,
    BlP2-1/2/3       the plane blown up in 1, 2 or 3 rational points on the
                     line at infinity.

Homogeneous coordinates are ordered (Z, X), (Z, X, Y), (Z, X, Y, W); the open
orbit is the chart Z != 0 with affine coordinates x_i = X_i / Z.  Blow-up
centers are recorded as (u, v) for the point (u : v : 0) at infinity in the
classical (X : Y : Z) ordering; the fixed centers (1,0), (0,1), (1,1) have
pairwise distinct reductions modulo every prime (all pairwise determinants
are +-1), so every prime p >= 5 is good for every model.  The primes 2 and 3
are globally designated small and all closed-form local formulas refuse them.

Boundary components are D1, the strict transform of the hyperplane at
infinity, and E1..Er, the exceptional curves.  The anticanonical class is
(n+1) D1 on P^n and 3 D1 + 2(E1 + ... + Er) on the blow-ups; every
multiplicity rho_alpha is >= 2 (validated at load).

Each boundary class is written in a basis of globally generated classes
("generator systems") that carry max-of-sections metrics:

    P^n      H  with sections {Z, X1..Xn}
    BlP2-r   H  with sections {Z, X, Y} and, for each center i, the pencil
             Fi of lines through center i with sections {l_i, Z} where
             l_1 = Y, l_2 = X, l_3 = X - Y.

In Picard terms Fi = H - Ei and D1 = H - E1 - ... - Er.  The change of basis
pic_to_gen (rows indexed by boundary components, columns by generator
systems) is unimodular; downstream height code only ever sees generator
exponents m_G(lambda) = sum_alpha lambda_alpha * pic_to_gen[alpha][G].

Boundary strata: for a subset A of components, D_A^o is the locally closed
stratum of points lying on exactly the components in A.  stratum_polys stores
the F_p point count of each nonempty stratum as a polynomial in p; A = ()
denotes the open orbit itself (count p^n).  brute_stratum_count recomputes
the same counts from first principles by enumerating P^n(F_p) and gluing in
the exceptional lines by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from ._util import as_fraction

SMALL_PRIMES = frozenset({2, 3})


class GeneratorSystem(NamedTuple):
    """A globally generated class with its integer linear sections.

    Each section is a coefficient tuple over the homogeneous coordinates
    (Z, X1, ..., Xn).  Every catalog system contains the section Z, which
    takes the value 1 on affine points (1, x); heights and local integrals
    rely on that.
    """

    name: str
    sections: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class VarietyModel:
    """One catalog entry; immutable."""

    id: str
    dim: int
    components: tuple[str, ...]
    rho: tuple[int, ...]
    generators: tuple[GeneratorSystem, ...]
    pic_to_gen: tuple[tuple[int, ...], ...]
    centers: tuple[tuple[int, int], ...]
    stratum_polys: dict

    @property
    def rank(self) -> int:
        """Picard rank = number of boundary components."""
        return len(self.components)

    @property
    def small_primes(self) -> frozenset:
        return SMALL_PRIMES


class DivisorData(NamedTuple):
    """Multiplicities of the boundary components in div(f_a) pole part."""

    d: tuple[int, ...]
    a0: tuple[str, ...]  # components with d_alpha = 0
    a1: tuple[str, ...]  # components with d_alpha = 1


def _poly(*coeffs: int) -> tuple[int, ...]:
    """Polynomial in p as ascending coefficient tuple."""
    return tuple(coeffs)


def _eval_poly(coeffs: Sequence[int], p: int) -> int:
    return sum(c * p**k for k, c in enumerate(coeffs))


def _projective_space(n: int) -> VarietyModel:
    sections = tuple(
        tuple(1 if j == i else 0 for j in range(n + 1)) for i in range(n + 1)
    )
    strata = {
        frozenset(): _poly(*([0] * n + [1])),           # open orbit: p^n
        frozenset({"D1"}): _poly(*([1] * n)),           # P^(n-1): 1+p+...+p^(n-1)
    }
    return VarietyModel(
        id=f"P{n}",
        dim=n,
        components=("D1",),
        rho=(n + 1,),
        generators=(GeneratorSystem("H", sections),),
        pic_to_gen=((1,),),
        centers=(),
        stratum_polys=strata,
    )


# Pencil sections {l_i, Z} on (Z, X, Y) for centers (1,0), (0,1), (1,1):
# l_1 = Y, l_2 = X, l_3 = X - Y; the line through center (u:v:0) with
# direction form l vanishes to order 1 on the corresponding fiber class.
_PENCILS = {
    (1, 0): GeneratorSystem("F1", ((0, 0, 1), (1, 0, 0))),
    (0, 1): GeneratorSystem("F2", ((0, 1, 0), (1, 0, 0))),
    (1, 1): GeneratorSystem("F3", ((0, 1, -1), (1, 0, 0))),
}


def _blowup(r: int) -> VarietyModel:
    centers = ((1, 0), (0, 1), (1, 1))[:r]
    h = GeneratorSystem("H", ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    gens = (h,) + tuple(_PENCILS[c] for c in centers)
    # D1 = H - sum Ei = (1-r) H + sum Fi, Ei = H - Fi in the (H, F*) basis.
    d1_row = (1 - r,) + (1,) * r
    e_rows = tuple(
        (1,) + tuple(-1 if j == i else 0 for j in range(r)) for i in range(r)
    )
    strata = {frozenset(): _poly(0, 0, 1), frozenset({"D1"}): _poly(1 - r, 1)}
    for i in range(1, r + 1):
        strata[frozenset({f"E{i}"})] = _poly(0, 1)
        strata[frozenset({"D1", f"E{i}"})] = _poly(1)
    return VarietyModel(
        id=f"BlP2-{r}",
        dim=2,
        components=("D1",) + tuple(f"E{i}" for i in range(1, r + 1)),
        rho=(3,) + (2,) * r,
        generators=gens,
        pic_to_gen=(d1_row,) + e_rows,
        centers=centers,
        stratum_polys=strata,
    )


def _int_det(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a small integer matrix by Laplace expansion."""
    k = len(m)
    if k == 1:
        return m[0][0]
    det = 0
    for j in range(k):
        minor = [row[:j] + row[j + 1 :] for row in list(m)[1:]]
        det += (-1) ** j * m[0][j] * _int_det(minor)
    return det


def _validate(model: VarietyModel) -> VarietyModel:
    """Check the invariants the rest of the package relies on; raise
    ValueError on a malformed model."""
    if not all(r >= 2 for r in model.rho):
        raise ValueError(f"{model.id}: some rho_alpha < 2")
    rows = [list(r) for r in model.pic_to_gen]
    if abs(_int_det(rows)) != 1:
        raise ValueError(f"{model.id}: pic_to_gen not unimodular")
    # Centers pairwise distinct mod every prime: projective determinant +-1.
    for i, (u1, v1) in enumerate(model.centers):
        for u2, v2 in model.centers[i + 1 :]:
            if abs(u1 * v2 - u2 * v1) != 1:
                raise ValueError(f"{model.id}: centers meet mod some prime")
    # Every system must contain the constant section Z (value 1 on (1, x)).
    for g in model.generators:
        consts = [s for s in g.sections if not any(s[1:])]
        if not consts or not all(abs(s[0]) == 1 for s in consts):
            raise ValueError(f"{model.id}: {g.name} lacks a unit constant section")
    return model


_CATALOG = {
    m.id: _validate(m)
    for m in (
        _projective_space(1),
        _projective_space(2),
        _projective_space(3),
        _blowup(1),
        _blowup(2),
        _blowup(3),
    )
}

MODEL_IDS = tuple(_CATALOG)


def load_model(model_id: str) -> VarietyModel:
    """Look up a catalog entry by id (P1, P2, P3, BlP2-1, BlP2-2, BlP2-3)."""
    try:
        return _CATALOG[model_id]
    except KeyError:
        raise ValueError(
            f"unknown model {model_id!r}; known: {', '.join(MODEL_IDS)}"
        ) from None


def coerce_picard(model: VarietyModel, lam) -> tuple[Fraction, ...]:
    """Coerce lam to a tuple of Fractions in boundary-component order."""
    if isinstance(lam, dict):
        missing = set(model.components) - set(lam)
        extra = set(lam) - set(model.components)
        if missing or extra:
            raise ValueError(f"bad component names: missing {missing}, extra {extra}")
        lam = [lam[c] for c in model.components]
    vals = tuple(as_fraction(v) for v in lam)
    if len(vals) != model.rank:
        raise ValueError(
            f"{model.id} expects {model.rank} Picard coordinates, got {len(vals)}"
        )
    return vals


def rho_vector(model: VarietyModel) -> tuple[Fraction, ...]:
    """Anticanonical class in the boundary-component basis."""
    return tuple(Fraction(r) for r in model.rho)


def generator_exponents(model: VarietyModel, lam) -> tuple[Fraction, ...]:
    """Exponents of lam on the generator systems via the unimodular basis change."""
    vals = coerce_picard(model, lam)
    ncols = len(model.generators)
    return tuple(
        sum(vals[a] * model.pic_to_gen[a][j] for a in range(model.rank))
        for j in range(ncols)
    )


def require_interior(model: VarietyModel, lam) -> tuple[Fraction, ...]:
    """Validate lam lies in the interior of the effective cone (all > 0)."""
    vals = coerce_picard(model, lam)
    if any(v <= 0 for v in vals):
        raise ValueError(f"lambda must have all positive coordinates, got {vals}")
    return vals


def a_exponent(model: VarietyModel, lam) -> Fraction:
    """Growth exponent a(lambda) = max_alpha rho_alpha / lambda_alpha."""
    vals = require_interior(model, lam)
    return max(Fraction(r) / v for r, v in zip(model.rho, vals))


def b_set(model: VarietyModel, lam) -> tuple[str, ...]:
    """Components achieving the max in a(lambda); its size is the log power b."""
    vals = require_interior(model, lam)
    a = a_exponent(model, lam)
    return tuple(
        c for c, r, v in zip(model.components, model.rho, vals) if Fraction(r) == a * v
    )


def c_coeff(model: VarietyModel, lam) -> Fraction:
    """Combinatorial leading coefficient prod of 1/lambda_alpha over b_set."""
    vals = require_interior(model, lam)
    a = a_exponent(model, lam)
    out = Fraction(1)
    for r, v in zip(model.rho, vals):
        if Fraction(r) == a * v:
            out /= v
    return out


def divisor_multiplicities(model: VarietyModel, a: Sequence[int]) -> DivisorData:
    """Pole multiplicities of the linear form f_a = a.x along the boundary.

    Over Q, f_a has a pole of order rho_alpha - deg-ish 1 along D1 and order
    1 along E_i unless the affine line {f_a = 0} passes through center i,
    i.e. a1*u_i + a2*v_i = 0, in which case d_{E_i} = 0.  For P^n every
    component has d = 1.  Scaling a by a nonzero rational leaves d unchanged.

    Args:
        a: nonzero integer (or rational) vector of length dim.

    Returns:
        DivisorData(d, a0, a1) with a0/a1 the component names with d = 0 / 1.
    """
    avec = tuple(as_fraction(x) for x in a)
    if len(avec) != model.dim:
        raise ValueError(f"{model.id} expects a of length {model.dim}")
    if all(x == 0 for x in avec):
        raise ValueError("a must be nonzero")
    d = [1]
    if model.centers:
        a1, a2 = avec
        for u, v in model.centers:
            d.append(0 if a1 * u + a2 * v == 0 else 1)
    names = model.components
    dd = tuple(d)
    return DivisorData(
        d=dd,
        a0=tuple(n for n, k in zip(names, dd) if k == 0),
        a1=tuple(n for n, k in zip(names, dd) if k == 1),
    )


def _check_good_prime(model: VarietyModel, p: int) -> None:
    if p in SMALL_PRIMES:
        raise ValueError(f"p = {p} is a designated small prime; use brute force")
    if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
        raise ValueError(f"p = {p} is not prime")


def stratum_count(model: VarietyModel, subset: Iterable[str], p: int) -> int:
    """#D_A^o(F_p) from the catalog polynomials; A = () is the open orbit."""
    _check_good_prime(model, p)
    names = frozenset(subset)
    unknown = names - set(model.components)
    if unknown:
        raise ValueError(f"unknown components {unknown}")
    poly = model.stratum_polys.get(names)
    return _eval_poly(poly, p) if poly is not None else 0


def brute_stratum_count(model: VarietyModel, subset: Iterable[str], p: int) -> int:
    """#D_A^o(F_p) recomputed from first principles.

    P^n(F_p) is enumerated as normalized tuples and points are classified by
    Z = 0 or not.  For the blow-ups, each center at infinity is replaced by
    the p+1 points of its exceptional line: one lies on the strict transform
    of the line at infinity (stratum {D1, Ei}), the other p lie on Ei alone.
    """
    _check_good_prime(model, p)
    names = frozenset(subset)
    unknown = names - set(model.components)
    if unknown:
        raise ValueError(f"unknown components {unknown}")
    counts: dict = {}
    if not model.centers:
        n = model.dim
        affine = p**n
        at_infinity = sum(p**k for k in range(n))  # number of (0 : x) points
        counts[frozenset()] = affine
        counts[frozenset({"D1"})] = at_infinity
    else:
        counts[frozenset()] = p * p
        # Points at infinity in (X : Y : Z) ordering: (1 : t : 0) and (0 : 1 : 0).
        infinity_points = [(1, t) for t in range(p)] + [(0, 1)]
        centers_mod = [(u % p, v % p) for u, v in model.centers]
        d1_only = 0
        for pt in infinity_points:
            if pt in centers_mod:
                i = centers_mod.index(pt) + 1
                counts[frozenset({f"E{i}"})] = p
                counts[frozenset({"D1", f"E{i}"})] = 1
            else:
                d1_only += 1
        counts[frozenset({"D1"})] = d1_only
    return counts.get(names, 0)


def total_point_count(model: VarietyModel, p: int) -> int:
    """Closed-form #X(F_p): (p^(n+1)-1)/(p-1) for P^n, p^2+(r+1)p+1 for BlP2-r."""
    if not model.centers:
        return (p ** (model.dim + 1) - 1) // (p - 1)
    r = len(model.centers)
    return p * p + (r + 1) * p + 1

"""Variety catalog and Picard-lattice arithmetic.

The catalog holds six equivariant compactifications of the additive group
G_a^n over Q:

    P1, P2, P3       projective n-space compactifying affine n-space,
    BlP2-1/2/3       the plane blown up in 1, 2 or 3 rational points on the
                     line at infinity.

Every module that branches on the family reads VarietyModel.kind: "pn" for
projective n-space, "fiber" for the plane blown up at (1 : 0 : 0) alone,
"torsor" for the plane blown up at (1 : 0 : 0) and (0 : 1 : 0), in either
order (toric, counted on its universal torsor), and "box" for the plane
blown up at any other two or three of the centers below.  The kind
is derived once per entry from its data, never from its name: it is the
family whose constructor (_projective_space(n), or _blowup for the entry's
centers) builds exactly the entry's dim, components, rho, generator systems,
pic_to_gen, stratum polynomials and box slack.  An entry that no family
builds has no kind: _validate rejects it at load with a ValueError, and a
hand-built one raises that ValueError at the first function that asks for
its kind.

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
multiplicity rho_alpha is >= 2.

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
the exceptional lines by hand; both take A through one check.  The index a
of a character psi_a(x) = e^(2 pi i <a, x>) is checked and coerced to
model.dim Fractions in one place, character_index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from ._util import as_fraction, is_prime

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
    """One catalog entry; immutable and hashable (the stratum table, a dict,
    is left out of the hash)."""

    id: str
    dim: int
    components: tuple[str, ...]
    rho: tuple[int, ...]
    generators: tuple[GeneratorSystem, ...]
    pic_to_gen: tuple[tuple[int, ...], ...]
    centers: tuple[tuple[int, int], ...]
    # Stratum -> #D_A^o(F_p) as a tuple of ascending coefficients in p.
    stratum_polys: dict = field(hash=False)
    # Indices (i, j) of two boundary components whose heights can each dip
    # below 1 while H_i * H_j >= 1; the sound box of the box scan then widens
    # by 2^|lambda_i - lambda_j|.  Empty when every H_alpha >= 1.
    box_slack: tuple[int, ...] = ()

    @property
    def rank(self) -> int:
        """Picard rank = number of boundary components."""
        return len(self.components)

    @cached_property
    def kind(self) -> str:
        """The catalog family of the entry (module docstring): "pn", "fiber",
        "torsor" or "box", derived once from its data; ValueError if it has
        none."""
        r = len(self.centers)
        family = None
        if r == 0:
            kind, family = "pn", _projective_space(self.dim)
        elif len(set(self.centers) & set(_PENCILS)) == r and (r > 1 or (1, 0) in self.centers):
            family = _blowup(self.centers)
            kind = ("fiber" if r == 1 else
                    "torsor" if set(self.centers) == {(1, 0), (0, 1)} else "box")
        if family is None or any(getattr(self, f) != getattr(family, f) for f in _FAMILY_DATA):
            raise ValueError(f"{self.id}: its data are those of no catalog family")
        return kind


class DivisorData(NamedTuple):
    """Multiplicities of the boundary components in div(f_a) pole part."""

    d: tuple[int, ...]
    a0: tuple[str, ...]  # components with d_alpha = 0


def _eval_poly(coeffs: Sequence[int], p: int) -> int:
    return sum(c * p**k for k, c in enumerate(coeffs))


def _projective_space(n: int) -> VarietyModel:
    sections = tuple(
        tuple(1 if j == i else 0 for j in range(n + 1)) for i in range(n + 1)
    )
    strata = {
        frozenset(): (0,) * n + (1,),           # open orbit: p^n
        frozenset({"D1"}): (1,) * n,            # P^(n-1): 1+p+...+p^(n-1)
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
# The data a family's constructor fixes, which VarietyModel.kind compares.
_FAMILY_DATA = ("dim", "components", "rho", "generators", "pic_to_gen", "stratum_polys",
                "box_slack")


def _blowup(centers: tuple) -> VarietyModel:
    r = len(centers)
    h = GeneratorSystem("H", ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    gens = (h,) + tuple(_PENCILS[c] for c in centers)
    # D1 = H - sum Ei = (1-r) H + sum Fi, Ei = H - Fi in the (H, F*) basis.
    d1_row = (1 - r,) + (1,) * r
    e_rows = tuple(
        (1,) + tuple(-1 if j == i else 0 for j in range(r)) for i in range(r)
    )
    strata = {frozenset(): (0, 0, 1), frozenset({"D1"}): (1 - r, 1)}
    for i in range(1, r + 1):
        strata[frozenset({f"E{i}"})] = (0, 1)
        strata[frozenset({"D1", f"E{i}"})] = (1,)
    return VarietyModel(
        id=f"BlP2-{r}",
        dim=2,
        components=("D1",) + tuple(f"E{i}" for i in range(1, r + 1)),
        rho=(3,) + (2,) * r,
        generators=gens,
        pic_to_gen=(d1_row,) + e_rows,
        centers=centers,
        stratum_polys=strata,
        # On BlP2-3, H_D1 and H_E3 reach 1/2 at (Z, X, Y) = (1, 2, 1) but
        # H_D1 * H_E3 = h_F1 h_F2 / h_H >= 1 (enumeration module docstring).
        box_slack=(0, 3) if r == 3 else (),
    )


def _validate(model: VarietyModel) -> VarietyModel:
    """Raise the ValueError of VarietyModel.kind on an entry that no family
    builds.  Every family member keeps the invariants the package relies on:
    rho_alpha >= 2, a unimodular pic_to_gen, centers distinct modulo every
    prime, a unit constant section in every system and a box_slack naming two
    components (tests/test_geometry.py checks each constructor for them)."""
    model.kind
    return model


_CATALOG = {
    m.id: _validate(m)
    for m in (
        _projective_space(1),
        _projective_space(2),
        _projective_space(3),
        _blowup(((1, 0),)),
        _blowup(((1, 0), (0, 1))),
        _blowup(((1, 0), (0, 1), (1, 1))),
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
    """Coerce the sequence lam to a tuple of Fractions, one per boundary
    component in model.components order."""
    vals = tuple(as_fraction(v) for v in lam)
    if len(vals) != model.rank:
        raise ValueError(
            f"{model.id} expects {model.rank} Picard coordinates, got {len(vals)}"
        )
    return vals


def convergence_beta(model: VarietyModel, s) -> tuple:
    """(s, beta): s coerced and beta_alpha = 1 + s_alpha - rho_alpha, the
    exponents of the local height transforms, which converge exactly when
    every beta_alpha > 0 (ValueError otherwise)."""
    s = coerce_picard(model, s)
    beta = tuple(1 + sa - r for sa, r in zip(s, model.rho))
    if any(b <= 0 for b in beta):
        raise ValueError("s outside the convergence domain:"
                         " need s_alpha > rho_alpha - 1 everywhere")
    return s, beta


def character_index(model: VarietyModel, a) -> tuple[Fraction, ...]:
    """The index a of the character psi_a(x) = e^(2 pi i <a, x>) as a tuple
    of model.dim Fractions; a scalar is a one-entry index.  The one check of
    its length for every transform and local factor at psi_a."""
    if isinstance(a, (int, Fraction, float, str)):
        a = (a,)
    vals = tuple(as_fraction(x) for x in a)
    if len(vals) != model.dim:
        raise ValueError("character index has wrong length")
    return vals


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
        DivisorData(d, a0) with a0 the component names with d = 0.
    """
    a = character_index(model, a)
    if not any(a):
        raise ValueError("a must be nonzero")
    d = (1,)
    if model.kind != "pn":
        d += tuple(int(a[0] * u + a[1] * v != 0) for u, v in model.centers)
    return DivisorData(d, tuple(c for c, k in zip(model.components, d) if k == 0))


def _check_good_prime(model: VarietyModel, p: int) -> None:
    if p in SMALL_PRIMES:
        raise ValueError(f"p = {p} is a designated small prime; use brute force")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")


def _stratum_subset(model: VarietyModel, subset: Iterable[str], p: int) -> frozenset:
    """A as a frozenset, after the checks of stratum_count and
    brute_stratum_count: p a good prime and A a set of the model's components."""
    _check_good_prime(model, p)
    names = frozenset(subset)
    if not names <= set(model.components):
        raise ValueError(f"unknown components {names - set(model.components)}")
    return names


def stratum_count(model: VarietyModel, subset: Iterable[str], p: int) -> int:
    """#D_A^o(F_p) from the catalog polynomials; A = () is the open orbit."""
    names = _stratum_subset(model, subset, p)
    poly = model.stratum_polys.get(names)
    return _eval_poly(poly, p) if poly is not None else 0


def brute_stratum_count(model: VarietyModel, subset: Iterable[str], p: int) -> int:
    """#D_A^o(F_p) recomputed from first principles.

    P^n(F_p) is enumerated as normalized tuples and points are classified by
    Z = 0 or not.  For the blow-ups, each center at infinity is replaced by
    the p+1 points of its exceptional line: one lies on the strict transform
    of the line at infinity (stratum {D1, Ei}), the other p lie on Ei alone.
    """
    names = _stratum_subset(model, subset, p)
    counts: dict = {}
    if model.kind == "pn":
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


"""Catalog integrity, Picard arithmetic, and stratum-count oracles."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from itertools import chain, combinations, permutations

import numpy as np
import pytest

from gacount import enumeration, fourier, geometry, tamagawa
from gacount._util import factorize, is_prime, prime_factors, primes_upto
from conftest import closed_form_point_count

GOOD_PRIMES_31 = [p for p in primes_upto(31) if p >= 5]


def test_catalog_shape():
    assert list(geometry.MODEL_IDS) == ["P1", "P2", "P3", "BlP2-1", "BlP2-2", "BlP2-3"]
    expect = {
        "P1": (1, 1, ("D1",), (2,)),
        "P2": (2, 1, ("D1",), (3,)),
        "P3": (3, 1, ("D1",), (4,)),
        "BlP2-1": (2, 2, ("D1", "E1"), (3, 2)),
        "BlP2-2": (2, 3, ("D1", "E1", "E2"), (3, 2, 2)),
        "BlP2-3": (2, 4, ("D1", "E1", "E2", "E3"), (3, 2, 2, 2)),
    }
    for mid, (dim, rank, comps, rho) in expect.items():
        m = geometry.load_model(mid)
        assert (m.dim, m.rank) == (dim, rank)
        assert m.components == comps
        assert tuple(m.rho) == tuple(Fraction(r) for r in rho)
    assert geometry.SMALL_PRIMES == frozenset({2, 3})


def test_load_model_unknown():
    with pytest.raises(ValueError):
        geometry.load_model("P4")


def test_rho_at_least_two(model):
    assert all(r >= 2 for r in model.rho)


def test_anticanonical_abc(model):
    # At the anticanonical class the growth exponent is 1, every component is
    # critical, and the combinatorial constant is the product of 1/rho_alpha.
    assert geometry.a_exponent(model, model.rho) == 1
    assert set(geometry.b_set(model, model.rho)) == set(model.components)
    expect = Fraction(1)
    for r in model.rho:
        expect /= r
    assert geometry.c_coeff(model, model.rho) == expect


def test_exponent_examples():
    m = geometry.load_model("BlP2-1")
    assert geometry.a_exponent(m, (1, 1)) == 3
    assert geometry.b_set(m, (1, 1)) == ("D1",)
    p1 = geometry.load_model("P1")
    assert geometry.a_exponent(p1, (1,)) == 2
    assert geometry.a_exponent(p1, (2,)) == 1


def test_c_coeff_scaling(model, rng):
    # c(t lambda) = t^(-b) c(lambda) with the same critical set.
    for _ in range(20):
        lam = tuple(int(v) for v in rng.integers(1, 6, size=model.rank))
        t = Fraction(int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        scaled = tuple(t * v for v in lam)
        assert geometry.b_set(model, scaled) == geometry.b_set(model, lam)
        b = len(geometry.b_set(model, lam))
        assert geometry.c_coeff(model, scaled) == geometry.c_coeff(model, lam) / t**b


def test_require_interior_rejects_boundary(model):
    bad = (0,) + (1,) * (model.rank - 1)
    with pytest.raises(ValueError):
        geometry.require_interior(model, bad)
    with pytest.raises(ValueError):
        geometry.coerce_picard(model, (1,) * (model.rank + 1))


@pytest.mark.parametrize("p", GOOD_PRIMES_31)
def test_stratum_oracle(model, p):
    names = model.components
    subsets = chain.from_iterable(combinations(names, k) for k in range(len(names) + 1))
    for subset in subsets:
        assert geometry.stratum_count(model, subset, p) == \
            geometry.brute_stratum_count(model, subset, p), (model.id, subset, p)


@pytest.mark.parametrize("p", GOOD_PRIMES_31)
def test_strata_partition_total(model, p):
    names = model.components
    subsets = chain.from_iterable(combinations(names, k) for k in range(len(names) + 1))
    total = sum(geometry.stratum_count(model, s, p) for s in subsets)
    assert total == closed_form_point_count(model, p)


def test_stratum_count_rejects_small_primes():
    m = geometry.load_model("P1")
    for p in (2, 3):
        with pytest.raises(ValueError):
            geometry.stratum_count(m, (), p)
    with pytest.raises(ValueError):
        geometry.stratum_count(m, ("Z9",), 7)
    with pytest.raises(ValueError):
        geometry.stratum_count(m, (), 9)


def test_divisor_multiplicities_examples():
    m = geometry.load_model("BlP2-1")
    # The linear form y vanishes on the direction (1 : 0 : 0), so its polar
    # divisor misses the exceptional curve over that center.
    dm = geometry.divisor_multiplicities(m, (0, 1))
    assert dm.a0 == ("E1",)
    assert dm.d == (1, 0)
    dm = geometry.divisor_multiplicities(m, (1, 0))
    assert dm.a0 == ()
    assert dm.d == (1, 1)
    m3 = geometry.load_model("BlP2-3")
    dm = geometry.divisor_multiplicities(m3, (1, -1))
    assert dm.a0 == ("E3",)  # center (1, 1) pairs to zero with (1, -1)
    assert geometry.divisor_multiplicities(m3, (1, 0)).a0 == ("E2",)
    assert geometry.divisor_multiplicities(m3, (1, 1)).a0 == ()


def test_divisor_multiplicities_scale_invariant(model, rng):
    for _ in range(20):
        a = tuple(int(v) for v in rng.integers(-5, 6, size=model.dim))
        if not any(a):
            continue
        t = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        scaled = tuple(t * x for x in a)
        assert geometry.divisor_multiplicities(model, a) == \
            geometry.divisor_multiplicities(model, scaled)
    with pytest.raises(ValueError):
        geometry.divisor_multiplicities(model, (0,) * model.dim)


def test_d1_multiplicity_always_one(model, rng):
    # The hyperplane at infinity is polar for every nonzero linear form.
    for _ in range(10):
        a = tuple(int(v) for v in rng.integers(-4, 5, size=model.dim))
        if not any(a):
            continue
        dm = geometry.divisor_multiplicities(model, a)
        assert dm.d[0] == 1
        assert all(k in (0, 1) for k in dm.d)


def test_blowup_centers_distinct_modulo_every_prime():
    # (1:0), (0:1), (1:1) stay pairwise distinct in P^1(F_p) for every p,
    # which is what makes all p >= 5 good for the whole catalog.
    m = geometry.load_model("BlP2-3")
    assert m.centers == ((1, 0), (0, 1), (1, 1))
    for p in primes_upto(31):
        seen = {(u % p, v % p) for u, v in m.centers}
        assert len(seen) == 3


_H2 = geometry.GeneratorSystem("H", ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


@pytest.mark.parametrize("mid,field,value", [
    ("P2", "rho", (1,)),
    ("BlP2-1", "pic_to_gen", ((2, 0), (0, 1))),
    ("BlP2-2", "centers", ((1, 0), (1, 2))),
    ("BlP2-1", "generators",
     (_H2, geometry.GeneratorSystem("F1", ((0, 0, 1), (2, 0, 0))))),
    ("BlP2-1", "generators", (_H2, geometry.GeneratorSystem("F1", ((0, 0, 1),)))),
    ("BlP2-3", "box_slack", (0, 4)),
    ("BlP2-3", "box_slack", (0,)),
])
def test_validate_rejects_malformed_model(mid, field, value):
    # The catalog invariants raise ValueError, also under python -O.
    good = geometry.load_model(mid)
    assert geometry._validate(good) is good
    bad = dataclasses.replace(good, id="bad", **{field: value})
    with pytest.raises(ValueError):
        geometry._validate(bad)


def _int_det(m):
    """Exact determinant of a small integer matrix by Laplace expansion."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _int_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def test_family_constructors_keep_the_catalog_invariants():
    # _validate accepts exactly the members of the families, so the
    # invariants the package relies on are checked here, on every
    # constructor output: P^1..P^3 and the plane blown up at every ordered
    # choice of the catalog centers.
    members = [geometry._projective_space(n) for n in (1, 2, 3)] + [
        geometry._blowup(c) for r in (1, 2, 3)
        for c in permutations(geometry._PENCILS, r)]
    for m in members:
        assert all(r >= 2 for r in m.rho), m.id
        assert abs(_int_det([list(r) for r in m.pic_to_gen])) == 1, m.id
        # Centers pairwise distinct mod every prime: projective determinant +-1.
        for (u1, v1), (u2, v2) in combinations(m.centers, 2):
            assert abs(u1 * v2 - u2 * v1) == 1, m.id
        # Every system contains the constant section Z (value 1 on (1, x)).
        for g in m.generators:
            consts = [sec for sec in g.sections if not any(sec[1:])]
            assert consts and all(abs(sec[0]) == 1 for sec in consts), (m.id, g.name)
        slack = m.box_slack
        assert not slack or (len(slack) == 2 and all(0 <= i < m.rank for i in slack))


def test_every_generator_system_holds_the_section_z():
    # The box kernel reads the gcd of a system's section values at (Z, X),
    # gcd(Z, gcd of the other sections at X), from one gcd table per
    # Z-slice: each system is the section Z = (1, 0, ..., 0) and forms in
    # the X_i alone.
    members = [geometry.load_model(mid) for mid in geometry.MODEL_IDS] + [
        geometry._blowup(c) for r in (1, 2, 3) for c in permutations(geometry._PENCILS, r)]
    for m in members:
        unit_z = (1,) + (0,) * m.dim
        for g in m.generators:
            assert unit_z in g.sections, (m.id, g.name)
            assert not any(sec[0] for sec in g.sections if sec != unit_z), (m.id, g.name)


def test_prime_factors():
    assert prime_factors(1) == ()
    assert prime_factors(-12) == (2, 3)
    assert prime_factors(2 * 3**4 * 101**2) == (2, 3, 101)
    assert prime_factors(9973) == (9973,)
    with pytest.raises(ValueError):
        prime_factors(0)
    for n in range(1, 300):
        want = tuple(p for p in primes_upto(n) if n % p == 0)
        assert prime_factors(n) == want, n


def test_factorize_against_brute_product():
    # One trial-division loop serves the package; its exponents multiply
    # back to n over ascending primes for every n <= 10^4.
    for n in range(1, 10**4 + 1):
        f = factorize(n)
        assert list(f) == sorted(f), n
        assert all(is_prime(p) and e >= 1 for p, e in f.items()), n
        assert math.prod(p**e for p, e in f.items()) == n, n
        assert factorize(-n) == f
        assert prime_factors(n) == tuple(f)
    with pytest.raises(ValueError):
        factorize(0)


def test_box_slack_catalog():
    # Only BlP2-3 widens its sound box: D1 and E3 can each dip to 1/2.
    slack = {mid: geometry.load_model(mid).box_slack for mid in geometry.MODEL_IDS}
    assert slack == {"P1": (), "P2": (), "P3": (), "BlP2-1": (), "BlP2-2": (),
                     "BlP2-3": (0, 3)}


# ---------------------------------------------------------------------------
# The kind of a catalog entry.

def test_catalog_kinds():
    kinds = {mid: geometry.load_model(mid).kind for mid in geometry.MODEL_IDS}
    assert kinds == {"P1": "pn", "P2": "pn", "P3": "pn", "BlP2-1": "fiber",
                     "BlP2-2": "box", "BlP2-3": "box"}


def test_kind_is_derived_once_and_survives_renaming(monkeypatch):
    # The catalog derived each kind at load; asking again builds no family,
    # and a renamed copy derives the same kind from the same data.
    def refuse(*args):
        raise AssertionError("family rebuilt")

    models = [geometry.load_model(mid) for mid in geometry.MODEL_IDS]
    monkeypatch.setattr(geometry, "_projective_space", refuse)
    monkeypatch.setattr(geometry, "_blowup", refuse)
    kinds = [m.kind for m in models]
    monkeypatch.undo()
    assert [dataclasses.replace(m, id="renamed").kind for m in models] == kinds


def test_box_kind_at_any_two_catalog_centers():
    # Two or three of the catalog centers make a box, in any choice; one
    # center other than (1, 0) matches no family.
    for centers in (((0, 1), (1, 1)), ((1, 1), (1, 0)), ((1, 1), (0, 1), (1, 0))):
        assert geometry._validate(geometry._blowup(centers)).kind == "box"
    with pytest.raises(ValueError, match="no catalog family"):
        geometry._validate(geometry._blowup(((0, 1),)))


def _p1xp1():
    # P1 x P1 as a G_a^2 compactification: systems {X, Z} and {Y, Z}, each
    # boundary component D_i their own class.  Not a catalog family.
    return geometry.VarietyModel(
        id="P1xP1", dim=2, components=("D1", "D2"), rho=(2, 2),
        generators=(geometry.GeneratorSystem("H1", ((0, 1, 0), (1, 0, 0))),
                    geometry.GeneratorSystem("H2", ((0, 0, 1), (1, 0, 0)))),
        pic_to_gen=((1, 0), (0, 1)), centers=(),
        stratum_polys={frozenset(): (0, 0, 1), frozenset({"D1"}): (0, 1),
                       frozenset({"D2"}): (0, 1), frozenset({"D1", "D2"}): (1,)},
    )


def test_entry_of_no_family_rejected_at_load():
    with pytest.raises(ValueError, match="no catalog family"):
        geometry._validate(_p1xp1())
    # BlP2-1 with its center moved to (0, 1) but the pencil of (1, 0) kept.
    b1 = geometry.load_model("BlP2-1")
    with pytest.raises(ValueError, match="no catalog family"):
        geometry._validate(dataclasses.replace(b1, centers=((0, 1),)))


@pytest.mark.parametrize("call", [
    lambda m: enumeration.count_points(m, m.rho, 100),
    lambda m: tamagawa.tamagawa_number(m, p_max=100),
    lambda m: fourier.global_fourier(m, (1, 2), (3, 3)),
    lambda m: geometry.divisor_multiplicities(m, (1, 2)),
    lambda m: geometry.brute_stratum_count(m, ("D1",), 5),
], ids=["count_points", "tamagawa_number", "global_fourier",
        "divisor_multiplicities", "brute_stratum_count"])
def test_entry_of_no_family_raises_when_asked_for_its_kind(call):
    # Read as P^n, P1 x P1 would count 129 points at B = 10 (the true
    # count is 81), get tau = 4.43 (16 / zeta(2)^2 = 5.91), a global
    # transform off the P^2 kernel and d = (1,) for a rank-2 model.
    with pytest.raises(ValueError, match="no catalog family"):
        call(_p1xp1())

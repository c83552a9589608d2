"""Catalog integrity, Picard arithmetic, and stratum-count oracles."""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from itertools import chain, combinations

import numpy as np
import pytest

from gacount import geometry
from gacount._util import prime_factors, primes_upto

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
        assert m.small_primes == geometry.SMALL_PRIMES == frozenset({2, 3})


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
    assert total == geometry.total_point_count(model, p)


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
    assert dm.a1 == ("D1",)
    dm = geometry.divisor_multiplicities(m, (1, 0))
    assert dm.a0 == ()
    assert set(dm.a1) == {"D1", "E1"}
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
])
def test_validate_rejects_malformed_model(mid, field, value):
    # The catalog invariants raise ValueError, also under python -O.
    good = geometry.load_model(mid)
    assert geometry._validate(good) is good
    bad = dataclasses.replace(good, id="bad", **{field: value})
    with pytest.raises(ValueError):
        geometry._validate(bad)


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

"""Shared fixtures: catalog models and seeded random point generators, and
the oracles the tests compare the package with."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Union

import numpy as np
import pytest

from gacount import enumeration, geometry, heights
from gacount.acceptance import _random_interior as random_interior  # noqa: F401
from gacount.acceptance import _random_point as random_point  # noqa: F401

ALL_MODEL_IDS = list(geometry.MODEL_IDS)


@pytest.fixture(params=ALL_MODEL_IDS)
def model(request):
    return geometry.load_model(request.param)


@pytest.fixture
def rng():
    return np.random.default_rng(91604)


def closed_form_point_count(model, p: int) -> int:
    """#X(F_p): (p^(n+1) - 1)/(p - 1) on P^n, p^2 + (r+1) p + 1 on BlP2-r."""
    if model.kind == "pn":
        return (p ** (model.dim + 1) - 1) // (p - 1)
    return p * p + (len(model.centers) + 1) * p + 1


class HeightValue(NamedTuple):
    """A global height split into its archimedean and finite parts."""

    arch_part: Union[Fraction, float]
    finite_part: Fraction
    total: Union[Fraction, float]


def archimedean_height(model, point, lam) -> Union[Fraction, float]:
    """prod_G (max_l |l(x)|)^{m_G}; exact Fraction for integer exponents."""
    m = geometry.generator_exponents(model, lam)
    stats = heights._section_stats(model, point.coords)
    if all(e.denominator == 1 for e in m):
        out = Fraction(1)
        for (mx, _), e in zip(stats, m):
            out *= Fraction(mx) ** int(e)
        return out
    return math.prod(mx ** float(e) for (mx, _), e in zip(stats, m))


def global_height(model, point, lam) -> HeightValue:
    """H(x; lambda) = prod_G h_G^{m_G} with its place decomposition (see the
    heights module docstring)."""
    arch = archimedean_height(model, point, lam)
    fin = heights.finite_height_part(model, point, lam)
    if isinstance(arch, Fraction):
        return HeightValue(arch, fin, arch * fin)
    return HeightValue(arch, fin, arch * float(fin))


def pn_shell_sum(model, lam, s: float, B) -> tuple:
    """(math.fsum of the P^n shell terms w_F F^-c, c = lambda_1 s, over the
    shells F <= T = floor(B^(1/lambda_1)), the number of points): w_F the
    points of enumerate_points with max(Z, |X_i|) = F, and every F^-c from
    one NumPy pass.  zeta_partial gives this sum when it stops at T."""
    lam = geometry.require_interior(model, lam)
    T = enumeration.height_radius(Fraction(B), lam[0])
    w = [0] * T
    for pt in enumeration.enumerate_points(model, lam, B):
        w[max(map(abs, pt.coords)) - 1] += 1
    terms = np.array(w) * np.arange(1, T + 1, dtype=float) ** -(float(lam[0]) * s)
    return math.fsum(terms.tolist()), sum(w)

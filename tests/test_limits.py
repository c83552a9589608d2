"""The table of limits: every refusal of planned work, at its limit and one
past it.

Each row is a call, its input at the limit, its input one past the limit,
and what the call runs first once its guards let it through (an allocator
or the loop), which is patched to raise _Reached.  At the limit the call
must reach it; one past the limit the call must raise CapabilityError from
_util.refuse_past, naming the limit, before it.  Where no input meets a
limit exactly, the row sets the limit itself to the planned work of a fixed
input (at) and one below it (past).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from gacount import acceptance, enumeration, fourier, geometry, tamagawa
from gacount._util import CapabilityError

P1, P3 = geometry.load_model("P1"), geometry.load_model("P3")
BLP21, BLP22, BLP23 = (geometry.load_model(m) for m in ("BlP2-1", "BlP2-2", "BlP2-3"))


class _Reached(Exception):
    """Raised by a patched allocator or loop: the guards let the call through."""


def _reached(*args, **kwargs):
    raise _Reached()


def _with(call, *patches):
    """call(x) with each (module, name, value) of patches set while it runs;
    a value None is x itself (the row's input is that limit)."""
    def run(x):
        with pytest.MonkeyPatch.context() as mp:
            for module, name, value in patches:
                mp.setattr(module, name, x if value is None else value)
            return call(x)
    return run


def _count(model, lam):
    return lambda B: enumeration.count_points(model, lam, B)


TENTH_OF_D = (Fraction(10), Fraction(1), Fraction(1))  # BlP2-2: k <= B^(1/10), R = B

LIMITS = [
    # enumeration: the box scans.
    pytest.param(_count(BLP23, BLP23.rho), 26681, 26912, (enumeration, "_box_kernel"),
                 "candidates .* 50000000 \\(time", id="KERNEL_CANDIDATE_BUDGET"),
    pytest.param(lambda B: next(enumeration.enumerate_points(BLP22, BLP22.rho, B)), 11449, 11664,
                 (enumeration, "_box_scan"), "candidates .* 5000000 \\(time",
                 id="DEFAULT_CANDIDATE_BUDGET"),
    pytest.param(lambda R: next(enumeration._box_kernel(BLP23, BLP23.rho, Fraction(10), R)),
                 2**62 - 1, 2**62, (np, "indices"), "section value .* \\(int64",
                 id="box-kernel-int64"),
    # enumeration: the Moebius, fiber and torsor sums.
    pytest.param(_count(P1, P1.rho), (2**36) ** 2, (2**36 + 1) ** 2,
                 (enumeration, "mertens_quotients"), "T passes the limit 2\\^36", id="_PN_T_LIMIT-P1"),
    pytest.param(_count(P3, P3.rho), (2**36) ** 4, (2**36 + 1) ** 4,
                 (enumeration, "mertens_quotients"), "T passes the limit 2\\^36", id="_PN_T_LIMIT-P3"),
    pytest.param(_count(BLP21, (1, 1)), 2**24, 2**24 + 1, (np, "arange"),
                 "f_max passes the limit 2\\^24", id="_FIBER_LIMIT"),
    pytest.param(_count(BLP21, BLP21.rho), 2**54, (2**27 + 1) ** 2, (np, "arange"),
                 "G_1 passes the limit 2\\^27", id="_SEGMENT_LIMIT"),
    pytest.param(_count(BLP22, TENTH_OF_D), 2**30 - 1, 2**30, (np, "arange"),
                 "R \\+ 1 passes the limit 2\\^30", id="_T_LIMIT-torsor"),
    pytest.param(_count(BLP22, BLP22.rho), 2**54, (2**18 + 1) ** 3, (np, "arange"),
                 "number of k passes the limit 2\\^18", id="_TORSOR_TABLE_LIMIT"),
    pytest.param(_with(lambda _: enumeration.count_points(BLP22, BLP22.rho, 10**4),
                       (enumeration, "_TORSOR_ROW_LIMIT", None)),
                 10661, 10660, (enumeration, "_squarefree_divisors"), "rows .* \\(time",
                 id="_TORSOR_ROW_LIMIT"),
    # enumeration: the zeta loops; P1 plans f_max fibers at s = 0, the stop
    # rule's fibers at s = 1.97 and 1.969 (2^24.98 and 2^25.01).
    pytest.param(lambda B: enumeration.zeta_partial(P1, P1.rho, 0.0, B), 2**50, (2**25 + 1) ** 2,
                 (enumeration, "_fiber_weights"), "fibers .* 2\\^25 \\(time",
                 id="_ZETA_STEP_LIMIT-P1"),
    pytest.param(lambda s: enumeration.zeta_partial(P1, P1.rho, s, 10**30), 1.97, 1.969,
                 (enumeration, "_fiber_weights"), "fibers .* 2\\^25 \\(time",
                 id="_ZETA_STEP_LIMIT-P1-stop"),
    pytest.param(_with(lambda _: enumeration.zeta_partial(BLP21, BLP21.rho, 2.0, 10**4),
                       (enumeration, "_ZETA_STEP_LIMIT", None)),
                 15600, 15599, (enumeration, "prime_factors"), "steps .* \\(time",
                 id="_ZETA_STEP_LIMIT-BlP2-1"),
    # fourier: character sums, brute force and the Poisson check.
    pytest.param(lambda n: fourier.character_sum(5, 1, n, 1, force_direct=True), 9, 10,
                 (np, "arange"), "modulus p\\^10 passes the limit 8000000 \\(time",
                 id="CHARACTER_SUM_DIRECT_LIMIT"),
    pytest.param(lambda depth: fourier.brute_padic_fourier(P1, 5, (0,), (3,), depth=depth),
                 441, 442, (fourier, "_checked"), "scale p\\^442 \\+ 1 passes the limit 2\\^1024",
                 id="brute-scale"),
    pytest.param(lambda p: fourier.brute_padic_fourier(P1, p, (0,), (3,), depth=1),
                 4194301, 4194319, (fourier, "_checked"), "cube stack .* 2\\^22 \\(memory",
                 id="BRUTE_STACK_LIMIT"),
    pytest.param(lambda depth: fourier.brute_padic_fourier(BLP21, 5, (0, 0), BLP21.rho, depth),
                 8, 9, (fourier, "_checked"), "cubes .* 2\\^22 \\(time", id="BRUTE_CUBE_LIMIT"),
    # A gcd past the primes up to 2^20: 1048573^2 is divided out in the
    # second segment, 1048583 * 1048589 needs a third.
    pytest.param(lambda g: fourier._pn_characters(P1, Fraction(4), np.array([[g]])),
                 1048573**2, 1048583 * 1048589, (tamagawa, "_tate_factor"),
                 "primes to divide out of a gcd passes the limit 2\\^20 \\(time",
                 id="_GCD_PRIME_LIMIT"),
    pytest.param(lambda a_cut: fourier.poisson_check(P1, P1.rho, 3.0, 10, a_cut),
                 2**22 - 1, 2**22, (fourier, "_pn_characters"), "characters .* 2\\^22 \\(time",
                 id="_CHARACTER_LIMIT"),
    # acceptance and tamagawa.
    pytest.param(lambda n: acceptance.charsum_cases((5,), n, 1), 9, 10,
                 (acceptance.fourier, "character_sum"), "cases .* 2\\^22 \\(time",
                 id="CHARSUM_CASE_LIMIT"),
    pytest.param(lambda p_max: tamagawa.tamagawa_number(P1, p_max=p_max), 10**8, 10**8 + 1,
                 (tamagawa, "prime_sieve"), "p_max passes the limit 10\\^8 \\(memory",
                 id="P_MAX_LIMIT-tamagawa_number"),
    pytest.param(lambda p_max: fourier.global_fourier(BLP21, (0, 0), (6, 4), p_max=p_max),
                 10**8, 10**8 + 1, (tamagawa, "prime_sieve"),
                 "p_max passes the limit 10\\^8 \\(memory", id="P_MAX_LIMIT-global_fourier"),
]


@pytest.mark.parametrize("call, at, past, reached, match", LIMITS)
def test_limit_table(monkeypatch, call, at, past, reached, match):
    monkeypatch.setattr(*reached, _reached)
    with pytest.raises(_Reached):
        call(at)
    with pytest.raises(CapabilityError, match=match):
        call(past)

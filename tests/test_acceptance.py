"""One test per acceptance criterion, plus the honest red line for A3."""

from __future__ import annotations

import math
import time

import pytest

from gacount import acceptance, enumeration, geometry, tamagawa
from gacount._util import CapabilityError


def test_a1_p1_constant():
    r = acceptance.a1()
    assert r.passed, r.detail


def test_a2_p2_schanuel():
    r = acceptance.a2()
    assert r.passed, r.detail


def test_a3_blp21_stated_target_fails_honestly():
    # The stated target 432/(6 pi^4) assumes an archimedean density of 12
    # for BlP2-1, but the max-norm metric carried by this package integrates
    # to 16 (see tamagawa.archimedean_density), so the true constant is
    # 16 * 36/pi^4 / 6 = 96/pi^4 and the check must come out red on both
    # clauses.  This test pins the failure and the honest values.
    r = acceptance.a3()
    assert r.passed is False
    assert "fit lead" in r.detail

    honest = 96.0 / math.pi**4
    model = geometry.load_model("BlP2-1")
    ladder = enumeration.count_ladder(
        model, model.rho,
        [10**3, 3 * 10**3, 10**4, 3 * 10**4, 10**5, 3 * 10**5, 10**6],
    )
    coeffs, _ = enumeration.fit_leading(ladder, 1, 2)
    assert abs(coeffs[-1] / honest - 1.0) <= 0.10
    predicted = tamagawa.predicted_constant(model, p_max=4000)
    assert abs(predicted - honest) <= 1e-3
    stated = 432.0 / (6.0 * math.pi**4)
    assert abs(predicted - stated) > 1e-6


def test_a4_exponent_discrimination():
    r = acceptance.a4()
    assert r.passed, r.detail


def test_a5_brute_vs_denef():
    r = acceptance.a5()
    assert r.passed, r.detail


def test_a6_character_sums():
    r = acceptance.a6()
    assert r.passed, r.detail


def test_a7_twisted_closed_forms():
    r = acceptance.a7()
    assert r.passed, r.detail


def test_a8_poisson_identity():
    r = acceptance.a8()
    assert r.passed, r.detail


def test_a9_height_properties():
    r = acceptance.a9()
    assert r.passed, r.detail


def test_a10_enumeration_completeness():
    r = acceptance.a10()
    assert r.passed, r.detail


def test_run_all_subset_case_insensitive():
    results = acceptance.run_all(["a4"])
    assert len(results) == 1
    assert results[0].criterion == "A4"
    line = results[0].line()
    assert line.startswith("A4")
    assert "PASS" in line


def test_run_all_unknown_criterion():
    with pytest.raises(ValueError):
        acceptance.run_all(["A99"])


def test_result_applies_the_budget():
    t0 = time.perf_counter()
    assert acceptance._result("A0", t0, True, "d", budget_s=60.0).passed
    assert not acceptance._result("A0", t0 - 61.0, True, "d", budget_s=60.0).passed
    assert not acceptance._result("A0", t0, False, "d", budget_s=60.0).passed
    late = acceptance._result("A0", t0 - 61.0, True, "d")
    assert late.passed and late.detail == "d" and late.elapsed_s >= 61.0


def test_charsum_cases_counts_before_it_runs(monkeypatch):
    # The case count is summed in closed form; a grid past
    # CHARSUM_CASE_LIMIT is refused before any character sum runs.
    n_cases, worst = acceptance.charsum_cases((5, 7), 2, 5)
    assert n_cases == sum(1 for p in (5, 7) for n in (1, 2) for d in range(min(5, p - 1) + 1)
                          for u in range(1, p**n) if u % p)
    assert worst <= 1e-9

    def refuse(*args, **kwargs):
        raise AssertionError("a case ran")

    monkeypatch.setattr(acceptance.fourier, "character_sum", refuse)
    with pytest.raises(CapabilityError, match="cases .* passes the limit 2\\^22"):
        acceptance.charsum_cases((1009,), 3, 3)

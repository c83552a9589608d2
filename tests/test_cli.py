"""End-to-end drives of the command line interface through main(argv)."""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import resource
import subprocess
import sys
from fractions import Fraction

import pytest

import gacount
from gacount import cli, enumeration, geometry, tamagawa
from gacount import __version__

P1 = geometry.load_model("P1")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_models(capsys):
    code, out, _ = run(capsys, "list-models")
    assert code == 0
    models = json.loads(out)
    assert len(models) == 6
    ids = {m["id"] for m in models}
    assert ids == {"P1", "P2", "P3", "BlP2-1", "BlP2-2", "BlP2-3"}
    for m in models:
        assert m["small_primes"] == [2, 3]
        assert len(m["rho"]) == m["rank"]


def test_count_csv_and_stdout(capsys, tmp_path):
    out_path = tmp_path / "counts.csv"
    code, out, _ = run(
        capsys, "count", "--model", "P1", "--bound", "1000",
        "--ladder", "4", "--out", str(out_path),
    )
    assert code == 0
    assert "B,N,elapsed_ms" in out
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "B,N,elapsed_ms"
    assert len(lines) == 5
    model = geometry.load_model("P1")
    for line in lines[1:]:
        b_txt, n_txt, ms_txt = line.split(",")
        assert float(ms_txt) >= 0.0
        expected = enumeration.count_points(model, model.rho, int(b_txt))
        assert int(n_txt) == expected
    assert lines[-1].split(",")[0] == "1000"


def test_count_custom_lambda(capsys):
    code, out, _ = run(
        capsys, "count", "--model", "BlP2-1", "--lambda", "3,2",
        "--bound", "500", "--ladder", "3",
    )
    assert code == 0
    assert "lambda = (3, 2)" in out
    b1 = geometry.load_model("BlP2-1")
    last = [l for l in out.splitlines() if l and l[0].isdigit()][-1]
    assert int(last.split(",")[1]) == enumeration.count_points(b1, (3, 2), 500)


def test_count_threads_match(capsys, tmp_path):
    # --threads is accepted, checked and reported; every count runs in one
    # process, so the rows are those of the default run.
    report_path = tmp_path / "count.json"
    code1, out1, _ = run(capsys, "count", "--model", "P2", "--bound", "200",
                         "--ladder", "3")
    code2, out2, _ = run(capsys, "count", "--model", "P2", "--bound", "200",
                         "--ladder", "3", "--threads", "4", "--json", str(report_path))
    assert code1 == code2 == 0
    rows1 = [l.split(",")[:2] for l in out1.splitlines() if l and l[0].isdigit()]
    rows2 = [l.split(",")[:2] for l in out2.splitlines() if l and l[0].isdigit()]
    assert rows1 == rows2
    assert json.loads(report_path.read_text())["parameters"]["threads"] == 4
    code, _, err = run(capsys, "count", "--model", "P2", "--bound", "200",
                       "--threads", "0")
    assert code == 2
    assert "usage error" in err


def test_count_p1_at_1e16(capsys, tmp_path):
    # T = 10^8 on P1: the Moebius strategy never sieves up to T.
    report_path = tmp_path / "count.json"
    code, _, _ = run(capsys, "count", "--model", "P1", "--bound", "1e16",
                     "--json", str(report_path))
    assert code == 0
    last = json.loads(report_path.read_text())["results"]["rows"][-1]
    assert last["B"] == 1e16
    assert last["N"] == enumeration.count_points(P1, P1.rho, 10**16)


def test_count_blp21_at_1e13(capsys, tmp_path):
    # G_1 = T_1 = 3162277 on BlP2-1 at rho: the fiber sum split at E0.
    report_path = tmp_path / "count.json"
    code, _, _ = run(capsys, "count", "--model", "BlP2-1", "--bound", "1e13",
                     "--json", str(report_path))
    assert code == 0
    last = json.loads(report_path.read_text())["results"]["rows"][-1]
    assert last["B"] == 1e13
    assert last["N"] == 319663790798793


@pytest.mark.parametrize("bound", ["-5", "0"])
def test_count_bound_below_one_is_usage_error(capsys, bound):
    code, _, err = run(capsys, "count", "--model", "P1", "--bound", bound)
    assert code == 2
    assert "ladder bounds must be >= 1" in err


@pytest.mark.parametrize("argv", [
    ("count", "--model", "P1", "--bound", "1" + "0" * 400),
    ("count", "--model", "P1", "--bound", "1e400"),
    ("fit", "--model", "P1", "--bmax", "1" + "0" * 400, "--no-predict"),
])
def test_bound_past_float_range_is_usage_error(capsys, argv):
    # The ladder spaces its rungs in floats, so a bound needs one: exit 2,
    # not a traceback.
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "usage error" in err


@pytest.mark.parametrize("argv", [
    ("--model", "P1", "--bound", "1e25"),
    ("--model", "BlP2-1", "--lambda", "1,1", "--bound", "1e8"),
])
def test_count_past_memory_limit_is_capability_error(capsys, monkeypatch, argv):
    # Refused before the mu sieve or the fiber table is allocated.
    def refuse(*args):
        raise AssertionError("table allocated")

    for name in ("mertens_quotients", "mu_segment", "phi_segment", "mu_sieve"):
        monkeypatch.setattr(enumeration, name, refuse)
    code, _, err = run(capsys, "count", *argv, "--ladder", "1")
    assert code == 3
    assert "capability error" in err


def test_fit_no_predict_with_plot_data(capsys, tmp_path):
    plot = tmp_path / "plot.dat"
    code, out, _ = run(
        capsys, "fit", "--model", "P1", "--bmin", "100", "--bmax", "100000",
        "--ladder", "6", "--no-predict", "--plot-data", str(plot),
    )
    assert code == 0
    assert "fitted leading constant" in out
    assert "predicted constant" not in out
    text = plot.read_text()
    assert "# prediction" not in text
    assert len(text.strip().splitlines()) == 6


def test_fit_with_prediction_json(capsys, tmp_path):
    plot = tmp_path / "plot.dat"
    report_path = tmp_path / "fit.json"
    code, out, _ = run(
        capsys, "fit", "--model", "P1", "--bmin", "1000", "--bmax", "1000000",
        "--ladder", "6", "--pmax", "2000",
        "--plot-data", str(plot), "--json", str(report_path),
    )
    assert code == 0
    assert "predicted constant" in out
    assert plot.read_text().strip().splitlines()[-1].startswith("# prediction")
    report = json.loads(report_path.read_text())
    assert report["artifact_version"] == __version__
    assert report["command"] == "fit"
    assert report["model"] == "P1"
    res = report["results"]
    assert abs(res["predicted_constant"] - 12.0 / 3.14159265**2) < 1e-2
    assert abs(res["fitted_constant"] / res["predicted_constant"] - 1.0) < 0.05
    assert res["a_hat"] is not None


def test_fit_prediction_follows_lambda(capsys, tmp_path):
    # At lambda = 1 = rho/2 on P1 the constant is c_rho (b = 1); BlP2-1 at
    # (1, 1) is no multiple of rho, so no constant and no gap is reported.
    report_path = tmp_path / "fit.json"
    code, out, _ = run(
        capsys, "fit", "--model", "P1", "--lambda", "1", "--bmin", "100",
        "--bmax", "100000", "--ladder", "6", "--pmax", "2000",
        "--json", str(report_path),
    )
    assert code == 0
    res = json.loads(report_path.read_text())["results"]
    assert abs(res["fitted_constant"] / res["predicted_constant"] - 1.0) < 0.05
    code, out, _ = run(
        capsys, "fit", "--model", "BlP2-1", "--lambda", "1,1", "--bmin", "100",
        "--bmax", "10000", "--ladder", "4", "--json", str(report_path),
    )
    assert code == 0
    assert "relative gap" not in out
    res = json.loads(report_path.read_text())["results"]
    assert res["predicted_constant"] is None
    assert res["fitted_constant"] > 0


def test_emit_plot_data_empty_ladder(tmp_path):
    path = tmp_path / "empty.dat"
    ladder = enumeration.CountLadder(P1, (Fraction(2),), ())
    cli.emit_plot_data(ladder, None, str(path))
    assert path.read_text() == ""


def test_emit_plot_data_renamed_model(tmp_path):
    # The ladder carries its model, so plot data needs no catalog lookup.
    renamed = dataclasses.replace(P1, id="renamed")
    paths = []
    for m in (P1, renamed):
        paths.append(tmp_path / f"{m.id}.dat")
        ladder = enumeration.count_ladder(m, m.rho, [10, 100, 1000])
        cli.emit_plot_data(ladder, 1.2, str(paths[-1]))
    assert paths[0].read_text() == paths[1].read_text()
    assert len(paths[1].read_text().splitlines()) == 4


def test_constant_out_payload(capsys, tmp_path):
    out_path = tmp_path / "constant.json"
    code, out, _ = run(
        capsys, "constant", "--model", "P2", "--pmax", "300",
        "--small-depth", "8", "--out", str(out_path),
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert sorted(payload) == sorted(
        ["model", "arch_density", "euler_partial", "tail_bound",
         "tamagawa", "rank", "rho", "predicted_constant"]
    )
    assert payload["model"] == "P2"
    assert payload["rank"] == 1
    assert payload["rho"] == ["3"]
    assert payload["arch_density"] == 12.0
    assert abs(payload["predicted_constant"] - payload["tamagawa"] / 3.0) < 1e-12


def test_constant_pmax_past_limit_is_capability_error(capsys, monkeypatch):
    # Refused before the prime sieve, whose memory grows linearly in p_max.
    def refuse(*args):
        raise AssertionError("primes sieved")

    monkeypatch.setattr(tamagawa, "prime_sieve", refuse)
    code, _, err = run(capsys, "constant", "--model", "P1", "--pmax", "100000000000")
    assert code == 3
    assert "capability error" in err and "10^8" in err


def test_verify_denef_pass(capsys):
    code, out, _ = run(capsys, "verify-denef", "--model", "P2", "--p", "5,7")
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out


def test_verify_denef_prime_range(capsys):
    code, out, _ = run(capsys, "verify-denef", "--model", "P1", "--p", "5..13")
    assert code == 0
    for p in (5, 7, 11, 13):
        assert f" {p} " in out or f"p={p}" in out or str(p) in out


def test_verify_denef_small_primes(capsys):
    # p = 2 and 3 are checked against exact_local_density, which the
    # stratum-count local factor cannot serve there.
    code, out, _ = run(capsys, "verify-denef", "--p", "2..7")
    assert code == 0
    rows = {line.split(":")[0]: line for line in out.splitlines() if "s=rho+" in line}
    for mid in geometry.MODEL_IDS:
        for p in (2, 3):
            for shift in (1, 2):
                assert rows[f"{mid:<7} p={p:<3} s=rho+{shift}"].endswith("PASS")
    assert "verify-denef: 48/48 pass" in out


@pytest.mark.parametrize("depth", ["442", "500"])
def test_verify_denef_depth_past_float_range_is_capability_error(capsys, depth):
    # 5^442 >= 2^1024: brute_padic_fourier refuses before it allocates, so
    # the command exits 3 (500 was an OverflowError traceback).
    code, out, err = run(capsys, "verify-denef", "--model", "P1", "--p", "5",
                         "--depth", depth)
    assert code == 3
    assert "capability error" in err and "passes the limit 2^1024" in err


def run_capped(*argv):
    """The command line in a fresh interpreter under a 1 GiB address-space
    cap, one BLAS thread and a 30 s timeout: a guard that stops working
    fails fast with a MemoryError, and cannot exhaust the machine."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(pathlib.Path(gacount.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "gacount.cli", *argv], env=env,
                          preexec_fn=cap, capture_output=True, text=True, timeout=30)


@pytest.mark.parametrize("argv, code", [
    # depth * p^n past fourier.BRUTE_STACK_LIMIT: refused before the cubes.
    (("verify-denef", "--model", "P2", "--p", "10007"), 3),
    (("verify-denef", "--model", "P1", "--p", "1398107"), 3),
    # Past acceptance.CHARSUM_CASE_LIMIT: refused before the first case.
    (("verify-charsum", "--p", "1009", "--nmax", "3"), 3),
    # Past tamagawa.P_MAX_LIMIT: refused before the sieve or a primality test.
    (("verify-denef", "--model", "P1", "--p", "1000000007"), 2),
    (("verify-denef", "--model", "P1", "--p", "5..10000000000"), 2),
    (("verify-charsum", "--p", "1000000000000000000000007"), 2),
    # Past fourier.BRUTE_CUBE_LIMIT, though under the stack limit: refused
    # before the first cube (the refinement would run for hours).
    (("verify-denef", "--model", "BlP2-1", "--p", "5", "--depth", "12"), 3),
    # Past acceptance.CHARSUM_CASE_LIMIT at n = 9 of 4000: refused at once.
    (("verify-charsum", "--nmax", "4000"), 3),
    # T, the fiber bounds, the box radius and the box candidates of B = 1e300
    # at lambda = 1/100 are numbers of about 30000 digits, which no message
    # prints.
    (("count", "--model", "P2", "--lambda", "1/100", "--bound", "1e300", "--ladder", "1"), 3),
    (("count", "--model", "BlP2-1", "--lambda", "1/100,1/100", "--bound", "1e300",
      "--ladder", "1"), 3),
    (("count", "--model", "BlP2-2", "--lambda", "1/100,1/100,1/100", "--bound", "1e300",
      "--ladder", "1"), 3),
    (("count", "--model", "BlP2-3", "--lambda", "1/100,1/100,1/100,1/100", "--bound", "1e300",
      "--ladder", "1"), 3),
    # P1's zeta loop past 2^25 planned fibers: 10^15 at s = 1.25 (about
    # 0.1 us a fiber, so years), 7.5e14 at lambda s = 3.
    (("zeta-check", "--model", "P1", "--s", "1.25", "--bcut", "1e30"), 3),
    (("zeta-check", "--model", "P1", "--lambda", "1/100", "--s", "300", "--bcut", "1e300"), 3),
    # Past fourier._CHARACTER_LIMIT characters (hours: 2.8 us a character
    # up to 2^22, more past it).
    (("zeta-check", "--model", "P1", "--s", "3", "--bcut", "1e4", "--acut", "1000000000"), 3),
])
def test_memory_guards_refuse_before_allocating(argv, code):
    proc = run_capped(*argv)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert ("capability error" if code == 3 else "usage error") in proc.stderr
    # No message prints a number past Python's int-to-string digit limit.
    assert "4300 digits" not in proc.stderr


def test_zeta_check_past_the_count_limit(tmp_path):
    # P1's zeta sum stops once the tail past its fiber is below the float
    # bound of the sum and counts the points it summed: B = 1e40 (T = 1e20,
    # past the Moebius count's 2^36) gives the lhs of B = 1e20.
    lhs = []
    for bcut in ("1e20", "1e40"):
        report = tmp_path / f"{bcut}.json"
        proc = run_capped("zeta-check", "--s", "3", "--bcut", bcut, "--json", str(report))
        assert proc.returncode == 0, proc.stderr
        lhs.append(json.loads(report.read_text())["results"]["lhs"])
    assert lhs[0] == lhs[1]


def test_zeta_check_tail_past_float_range():
    # f_max = 10^30000: the tail bound is taken at the fiber where the sum
    # stopped (an OverflowError traceback once), and the check ends with
    # its verdict.
    proc = run_capped("zeta-check", "--model", "P1", "--lambda", "1/100", "--s", "600",
                      "--bcut", "1e300")
    assert proc.returncode in (0, 1), proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.splitlines()[-1] in ("PASS", "FAIL")


def test_verify_charsum_pass_and_fail(capsys):
    code, out, _ = run(capsys, "verify-charsum", "--p", "5,7", "--nmax", "2",
                       "--dmax", "2")
    assert code == 0
    assert "FAIL" not in out
    code, out, _ = run(capsys, "verify-charsum", "--p", "5", "--nmax", "1",
                       "--dmax", "1", "--tol", "0")
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("flag, value", [("--nmax", "0"), ("--dmax", "-1")])
def test_verify_charsum_empty_grid_is_usage_error(capsys, flag, value):
    # No case to check is no verification: exit 2, not a PASS.
    code, out, err = run(capsys, "verify-charsum", flag, value)
    assert code == 2
    assert "PASS" not in out
    assert "usage error" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_verify_charsum_bad_tol_is_usage_error(capsys, tol):
    # A tolerance that no difference can meet, or that any difference meets,
    # is no verification: exit 2, not a FAIL or a PASS.
    code, out, err = run(capsys, "verify-charsum", "--tol", tol)
    assert code == 2
    assert "FAIL" not in out
    assert "usage error" in err


def test_zeta_check_exit_codes(capsys):
    code, out, _ = run(capsys, "zeta-check", "--model", "P1", "--s", "3.0",
                       "--bcut", "2000", "--acut", "10", "--pmax", "200")
    assert code == 0
    assert "PASS" in out
    code, _, err = run(capsys, "zeta-check", "--model", "P2", "--s", "4.0",
                       "--bcut", "100")
    assert code == 3
    assert "capability" in err.lower()


def test_zeta_check_bcut_below_one_usage(capsys):
    # No point lies below b_cut < 1: exit 2, not a FAIL.
    code, out, err = run(capsys, "zeta-check", "--model", "P1", "--s", "3",
                         "--bcut", "0.5")
    assert code == 2
    assert "FAIL" not in out
    assert "usage error" in err


def test_zeta_check_bad_lambda_usage(capsys):
    code, _, err = run(capsys, "zeta-check", "--model", "P1",
                       "--lambda", "2,2", "--s", "3.0", "--bcut", "100")
    assert code == 2
    assert "usage error" in err


@pytest.mark.parametrize("s", ["inf", "nan"])
def test_zeta_check_non_finite_s_usage(capsys, s):
    code, _, err = run(capsys, "zeta-check", "--s", s, "--bcut", "100")
    assert code == 2
    assert "usage error" in err


def test_all_acceptance_subset(capsys):
    code, out, _ = run(capsys, "all-acceptance", "--only", "A4")
    assert code == 0
    assert out.count("PASS") == 1
    assert "acceptance: 1/1 criteria pass" in out


def test_all_acceptance_unknown_id(capsys):
    code, _, err = run(capsys, "all-acceptance", "--only", "A99")
    assert code == 2
    assert "usage error" in err


def test_unknown_model_rejected():
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "--model", "P9", "--bound", "100"])
    assert exc.value.code == 2


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        cli.main(["list-models", "--badflag"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out

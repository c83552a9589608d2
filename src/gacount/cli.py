"""Command line front end for the verification laboratory.

Subcommands map one-to-one onto the module operations:

    list-models      catalog summary as JSON
    count            bounded-height point counts along a ladder (CSV/JSON)
    fit              exponent estimates and leading-constant fit for a ladder
    constant         Tamagawa number and predicted leading constant
    verify-denef     brute p-adic integration vs stratum-count local factors
    verify-charsum   unit character sums vs the closed-form trichotomy
    zeta-check       truncated height zeta sum vs its character expansion
    all-acceptance   the ten acceptance criteria, one verdict line each

Exit codes: 0 success, 1 verification or acceptance failure, 2 usage error,
3 capability error (a request the implementation honestly cannot serve).

Every run prints a human-readable report; ``--json PATH`` additionally writes
a machine-readable report with stable key order that contains the full
parameter block needed to reproduce the run.  Each subcommand returns an
_Outcome and main writes that report from it.  No configuration files, no
environment variables, no network.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from . import __version__, enumeration, fourier, geometry, tamagawa
from ._util import CapabilityError, as_fraction, is_prime, primes_upto

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_CAPABILITY = 3


# ---------------------------------------------------------------------------
# argument parsing helpers


def _parse_lambda(text: str) -> tuple:
    """Parse a Picard vector: "2", "3,2", or rational entries like "5/2,2"."""
    try:
        vals = tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse lambda {text!r}: {exc}") from None
    if not vals:
        raise ValueError("empty lambda")
    return vals


def _parse_bound(text: str) -> Fraction:
    """Parse a height bound; integers stay exact, otherwise float notation.
    A bound past the float range is refused: the ladder spaces its rungs in
    floats and the reports print it as one."""
    try:
        B = Fraction(int(text))
    except ValueError:
        B = None
    try:
        B = as_fraction(float(text)) if B is None else B
        float(B)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"cannot parse bound {text!r}: {exc}") from None
    return B


def _parse_primes(text: str) -> list:
    """Parse "5,7,11" as listed primes or "5..31" as all primes in a range.
    A number past tamagawa.P_MAX_LIMIT is refused before any sieve or
    primality test."""
    lo, ranged, hi = text.strip().partition("..")
    values = [int(lo), int(hi)] if ranged else [int(v) for v in lo.split(",")]
    if max(values) > tamagawa.P_MAX_LIMIT:
        raise ValueError(f"primes must not pass {tamagawa.P_MAX_LIMIT}, got {max(values)}")
    if ranged:
        ps = [p for p in primes_upto(values[1]) if p >= values[0]]
        if not ps:
            raise ValueError(f"no primes in [{values[0]}, {values[1]}]")
        return ps
    for v in values:
        if not is_prime(v):
            raise ValueError(f"{v} is not prime")
    return values


def _ladder_bounds(bmin, bmax, rungs: int) -> list:
    """Geometrically spaced integer rungs from bmin to bmax inclusive."""
    if rungs < 1:
        raise ValueError("ladder needs at least one rung")
    lo, hi = float(bmin), float(bmax)
    if not lo >= 1:
        raise ValueError("ladder bounds must be >= 1")
    if lo > hi:
        raise ValueError("bmin must not exceed the bound")
    if rungs == 1 or lo == hi:
        return [as_fraction(bmax)]
    out = []
    for k in range(rungs - 1):
        t = lo * (hi / lo) ** (k / (rungs - 1))
        v = Fraction(max(1, round(t)))
        if not out or v > out[-1]:
            out.append(v)
    top = as_fraction(bmax)
    if not out or top > out[-1]:
        out.append(top)
    return out


# ---------------------------------------------------------------------------
# reporting helpers


def _frac_str(x) -> str:
    return str(as_fraction(x))


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


class _Outcome(NamedTuple):
    """A subcommand's exit code and the body of its --json report."""

    code: int
    model: Optional[str]
    parameters: dict
    results: dict
    verdicts: Sequence[dict] = ()


def _bound_str(B) -> str:
    """A height bound as printed: integers exactly, others as floats."""
    B = as_fraction(B)
    return str(int(B)) if B.denominator == 1 else str(float(B))


def emit_plot_data(ladder: enumeration.CountLadder,
                   prediction: Optional[float], path: str) -> None:
    """Write two-column plot data: log B against N / (B^a (log B)^(b-1)).

    The exponents (a, b) come from the ladder's own Picard class, so a
    correct-count ladder flattens onto the predicted constant.  A trailing
    comment line records the horizontal prediction to draw; rungs whose
    normalizer vanishes (log B = 0 with b > 1) are skipped.  An empty ladder
    produces an empty file.
    """
    a = geometry.a_exponent(ladder.model, ladder.lam)
    b = len(geometry.b_set(ladder.model, ladder.lam))
    lines = []
    for B, n in ladder.rows:
        fb = float(B)
        norm = fb ** float(a) * math.log(fb) ** (b - 1)
        if norm == 0:
            continue
        lines.append(f"{math.log(fb):.10g} {n / norm:.10g}")
    with open(path, "w", encoding="utf-8") as fh:
        if not ladder.rows:
            return
        for line in lines:
            fh.write(line + "\n")
        if prediction is not None:
            fh.write(f"# prediction {prediction:.10g}\n")


def _csv_lines(ladder: enumeration.CountLadder) -> list:
    """The ladder as CSV lines, header first: the rows count prints and
    --out writes."""
    return ["B,N,elapsed_ms"] + [f"{_bound_str(B)},{n},{ms:.3f}"
                                 for (B, n), ms in zip(ladder.rows, ladder.elapsed_ms)]


def _write_csv(path: str, ladder: enumeration.CountLadder) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in _csv_lines(ladder))


def _ladder_rows_json(ladder: enumeration.CountLadder) -> list:
    return [
        {"B": float(B), "N": n, "elapsed_ms": ms}
        for (B, n), ms in zip(ladder.rows, ladder.elapsed_ms)
    ]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_list_models(args) -> _Outcome:
    models = []
    for mid in geometry.MODEL_IDS:
        m = geometry.load_model(mid)
        models.append({
            "id": m.id,
            "dim": m.dim,
            "rank": m.rank,
            "components": list(m.components),
            "rho": [_frac_str(r) for r in m.rho],
            "small_primes": sorted(geometry.SMALL_PRIMES),
            "generator_systems": len(m.generators),
        })
    print(json.dumps(models, sort_keys=True, indent=2))
    return _Outcome(EXIT_OK, None, {}, {"models": models})


def _count_ladder(args, bmin: Optional[str], bmax: str) -> tuple:
    """(model, lam, bmin, bmax, a, b, ladder) of count and fit: the model,
    --lambda (default rho), the ladder's bounds (bmin defaults to
    min(bmax, max(10, ceil(bmax^(1/3))))), a(lambda), b(lambda) and the
    counts along --ladder rungs."""
    if args.threads < 1:
        raise ValueError("threads must be >= 1")
    model = geometry.load_model(args.model)
    lam = _parse_lambda(args.lam) if args.lam else model.rho
    bmax = _parse_bound(bmax)
    if bmax < 1:
        raise ValueError("ladder bounds must be >= 1")
    bmin = _parse_bound(bmin) if bmin else min(
        bmax, Fraction(max(10, math.ceil(float(bmax) ** (1.0 / 3.0))))
    )
    bounds = _ladder_bounds(bmin, bmax, args.ladder)
    ladder = enumeration.count_ladder(model, lam, bounds)
    a = geometry.a_exponent(model, lam)
    b = len(geometry.b_set(model, lam))
    return model, lam, bmin, bmax, a, b, ladder


def _cmd_count(args) -> _Outcome:
    model, lam, bmin, bound, a, b, ladder = _count_ladder(args, args.bmin, args.bound)
    fitted = None
    if len(ladder.rows) >= b + 2:
        coeffs, _ = enumeration.fit_leading(ladder, a, b)
        fitted = coeffs[-1]

    print(f"model {model.id}, lambda = ({', '.join(_frac_str(v) for v in lam)}),"
          f" a = {_frac_str(a)}, b = {b}")
    print("\n".join(_csv_lines(ladder)))
    if fitted is not None:
        print(f"fitted leading constant: {fitted:.6f}")
    if args.out:
        _write_csv(args.out, ladder)
        print(f"wrote {args.out}")
    return _Outcome(
        EXIT_OK, model.id,
        {"lambda": [_frac_str(v) for v in lam], "bound": float(bound),
         "bmin": float(bmin), "ladder": args.ladder, "threads": args.threads},
        {"rows": _ladder_rows_json(ladder), "a_exponent": _frac_str(a),
         "b_power": b, "fitted_constant": fitted},
    )


def _cmd_fit(args) -> _Outcome:
    model, lam, bmin, bmax, a, b, ladder = _count_ladder(args, args.bmin, args.bmax)
    coeffs, resid = enumeration.fit_leading(ladder, a, b)
    fitted = coeffs[-1]
    try:
        a_hat, b_hat = enumeration.estimate_exponents(ladder)
    except ValueError as exc:
        a_hat = b_hat = None
        print(f"exponent regression skipped: {exc}")

    prediction = None
    if not args.no_predict:
        try:
            prediction = tamagawa.predicted_constant(model, p_max=args.pmax, lam=lam)
        except CapabilityError as exc:
            print(f"prediction skipped: {exc}")

    print(f"model {model.id}, lambda = ({', '.join(_frac_str(v) for v in lam)})")
    print(f"exact picard arithmetic: a = {_frac_str(a)}, b = {b}")
    if a_hat is not None:
        print(f"regression estimates:    a_hat = {a_hat:.4f}, b_hat = {b_hat:.4f}")
    print(f"fitted leading constant: {fitted:.6f} (residual {resid:.3g})")
    if prediction is not None:
        print(f"predicted constant:      {prediction:.6f}")
        rel = abs(fitted / prediction - 1.0) if prediction else float("inf")
        print(f"fit/prediction relative gap: {rel:.4f}")
    if args.plot_data:
        emit_plot_data(ladder, prediction, args.plot_data)
        print(f"wrote {args.plot_data}")
    if args.out:
        _write_csv(args.out, ladder)
        print(f"wrote {args.out}")
    return _Outcome(
        EXIT_OK, model.id,
        {"lambda": [_frac_str(v) for v in lam], "bmin": float(bmin),
         "bmax": float(bmax), "ladder": args.ladder, "threads": args.threads,
         "pmax": args.pmax, "no_predict": bool(args.no_predict)},
        {"rows": _ladder_rows_json(ladder), "a_exponent": _frac_str(a),
         "b_power": b, "fitted_constant": fitted, "fit_residual": resid,
         "a_hat": a_hat, "b_hat": b_hat, "predicted_constant": prediction},
    )


def _cmd_constant(args) -> _Outcome:
    model = geometry.load_model(args.model)
    res = tamagawa.tamagawa_number(model, p_max=args.pmax,
                                   small_depth=args.small_depth)
    predicted = tamagawa.predicted_constant(model, result=res)
    payload = {
        "model": model.id,
        "rank": res.rank,
        "rho": [_frac_str(r) for r in model.rho],
        "arch_density": res.arch_density,
        "euler_partial": res.partial_product,
        "tamagawa": res.tamagawa,
        "tail_bound": res.tail_bound + res.small_prime_error,
        "predicted_constant": predicted,
    }
    print(f"model {model.id} (rank {res.rank}, p_max {res.p_max})")
    print(f"archimedean density:  {res.arch_density:.9f}")
    print(f"euler partial:        {res.partial_product:.9f}")
    print(f"tamagawa number:      {res.tamagawa:.9f}"
          f"  (|error| <= {payload['tail_bound']:.2e})")
    print(f"predicted constant:   {predicted:.9f}")
    if args.out:
        _write_json(args.out, payload)
        print(f"wrote {args.out}")
    return _Outcome(EXIT_OK, model.id,
                    {"pmax": args.pmax, "small_depth": args.small_depth}, payload)


def _cmd_verify_denef(args) -> _Outcome:
    from . import acceptance  # imported here, as in all-acceptance

    mids = list(geometry.MODEL_IDS) if args.model == "all" else [args.model]
    primes = _parse_primes(args.p)
    rows = acceptance.denef_cases(mids, primes, args.depth)
    for r in rows:
        print(f"{r['model']:<7} p={r['p']:<3} s=rho+{r['shift']}: |diff| ="
              f" {r['diff']:.3e} bound = {r['bound']:.3e}"
              f" {'PASS' if r['pass'] else 'FAIL'}")
    all_ok = all(r["pass"] for r in rows)
    print(f"verify-denef: {sum(r['pass'] for r in rows)}/{len(rows)} pass")
    return _Outcome(
        EXIT_OK if all_ok else EXIT_FAILURE, args.model,
        {"p": primes, "depth": args.depth}, {"cases": rows},
        [{"check": "brute vs stratum-count local factor", "pass": all_ok}],
    )


def _cmd_verify_charsum(args) -> _Outcome:
    from . import acceptance  # imported here, as in all-acceptance

    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, not {args.tol}")
    primes = _parse_primes(args.p)
    n_cases, worst = acceptance.charsum_cases(primes, args.nmax, args.dmax,
                                              args.force_direct)
    ok = worst <= args.tol
    print(f"verify-charsum: {n_cases} cases over p in {primes},"
          f" n <= {args.nmax}, d <= {args.dmax}")
    print(f"worst |evaluator - closed form| = {worst:.3e}"
          f" (tol {args.tol:.0e}) {'PASS' if ok else 'FAIL'}")
    return _Outcome(
        EXIT_OK if ok else EXIT_FAILURE, None,
        {"p": primes, "nmax": args.nmax, "dmax": args.dmax,
         "tol": args.tol, "force_direct": bool(args.force_direct)},
        {"cases": n_cases, "worst_diff": worst},
        [{"check": "character-sum trichotomy", "pass": ok}],
    )


def _cmd_zeta_check(args) -> _Outcome:
    model = geometry.load_model(args.model)
    lam = _parse_lambda(args.lam) if args.lam else model.rho
    r = fourier.poisson_check(model, lam, args.s, _parse_bound(args.bcut),
                              args.acut, p_max=args.pmax)
    print(f"model {model.id}, lambda = ({', '.join(_frac_str(v) for v in lam)}),"
          f" s = {args.s:g}, B <= {float(args.bcut):g}, |a| <= {args.acut}")
    print(f"point side (truncated zeta): {r['lhs']:.9f}")
    print(f"character side:              {r['rhs']:.9f}")
    print(f"|difference| = {r['abs_diff']:.3e} combined bound = "
          f"{r['combined_bound']:.3e} relative = {r['rel_diff']:.3e}")
    print("PASS" if r["pass"] else "FAIL")
    return _Outcome(
        EXIT_OK if r["pass"] else EXIT_FAILURE, model.id,
        {"lambda": [_frac_str(v) for v in lam], "s": args.s,
         "bcut": float(_parse_bound(args.bcut)), "acut": args.acut,
         "pmax": args.pmax},
        {k: r[k] for k in ("lhs", "rhs", "abs_diff", "combined_bound",
                           "rel_diff")},
        [{"check": "truncated height zeta vs character sum",
          "pass": bool(r["pass"])}],
    )


def _cmd_all_acceptance(args) -> _Outcome:
    from . import acceptance  # imported here: no other command needs it

    only = [s.strip() for s in args.only.split(",")] if args.only else None
    results = acceptance.run_all(only)
    for r in results:
        print(r.line())
    n_pass = sum(r.passed for r in results)
    print(f"acceptance: {n_pass}/{len(results)} criteria pass")
    return _Outcome(
        EXIT_OK if n_pass == len(results) else EXIT_FAILURE, None,
        {"only": only},
        {"criteria": [
            {"criterion": r.criterion, "pass": r.passed,
             "detail": r.detail, "elapsed_s": r.elapsed_s}
            for r in results
        ]},
        [{"check": r.criterion, "pass": r.passed} for r in results],
    )


# ---------------------------------------------------------------------------
# parser assembly


def _add_json_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", metavar="PATH",
                   help="also write a machine-readable report to PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gacount",
        description="Verification lab for point counts of bounded height on"
                    " additive-group compactifications over Q.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list-models", help="catalog summary as JSON")
    _add_json_flag(p)
    p.set_defaults(func=_cmd_list_models)

    p = sub.add_parser("count", help="bounded-height counts along a ladder")
    p.add_argument("--model", required=True, choices=geometry.MODEL_IDS)
    p.add_argument("--lambda", dest="lam", metavar="L",
                   help='Picard vector, e.g. "2" or "3,2" (default: rho)')
    p.add_argument("--bound", required=True, help="top height bound B")
    p.add_argument("--bmin", help="bottom rung (default: max(10, B^(1/3)))")
    p.add_argument("--ladder", type=int, default=8, metavar="K",
                   help="number of rungs (default 8)")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; counts run in one process")
    p.add_argument("--out", metavar="PATH", help="write the ladder as CSV")
    _add_json_flag(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("fit", help="exponent estimates and constant fit")
    p.add_argument("--model", required=True, choices=geometry.MODEL_IDS)
    p.add_argument("--lambda", dest="lam", metavar="L",
                   help="Picard vector (default: rho)")
    p.add_argument("--bmin", default="1e3")
    p.add_argument("--bmax", default="1e6")
    p.add_argument("--ladder", type=int, default=7, metavar="K")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; counts run in one process")
    p.add_argument("--pmax", type=int, default=10_000,
                   help="Euler product cutoff for the prediction")
    p.add_argument("--no-predict", action="store_true",
                   help="skip the predicted-constant computation")
    p.add_argument("--plot-data", metavar="PATH",
                   help="write normalized plot data (log B vs N/B^a(log B)^(b-1))")
    p.add_argument("--out", metavar="PATH", help="write the ladder as CSV")
    _add_json_flag(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("constant", help="Tamagawa number and predicted constant")
    p.add_argument("--model", required=True, choices=geometry.MODEL_IDS)
    p.add_argument("--pmax", type=int, default=10_000)
    p.add_argument("--small-depth", type=int, default=None,
                   help="accepted for compatibility; p = 2, 3 are exact")
    p.add_argument("--out", metavar="PATH",
                   help="write the constant block as bare JSON")
    _add_json_flag(p)
    p.set_defaults(func=_cmd_constant)

    p = sub.add_parser("verify-denef",
                       help="brute p-adic integrals vs closed local factors")
    p.add_argument("--model", default="all",
                   choices=("all",) + tuple(geometry.MODEL_IDS))
    p.add_argument("--p", default="5,7,11",
                   help='primes, listed "5,7,11" or ranged "5..31"')
    p.add_argument("--depth", type=int, default=3)
    _add_json_flag(p)
    p.set_defaults(func=_cmd_verify_denef)

    p = sub.add_parser("verify-charsum",
                       help="character sums vs the closed-form trichotomy")
    p.add_argument("--p", default="5..13")
    p.add_argument("--nmax", type=int, default=3)
    p.add_argument("--dmax", type=int, default=3)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--force-direct", action="store_true",
                   help="always sum directly (moduli must stay modest)")
    _add_json_flag(p)
    p.set_defaults(func=_cmd_verify_charsum)

    p = sub.add_parser("zeta-check",
                       help="truncated height zeta vs character expansion")
    p.add_argument("--model", default="P1", choices=geometry.MODEL_IDS)
    p.add_argument("--lambda", dest="lam", metavar="L",
                   help="Picard vector (default: rho)")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--bcut", required=True, help="height cutoff for the sum")
    p.add_argument("--acut", type=int, default=50,
                   help="character cutoff (pairs +-a)")
    p.add_argument("--pmax", type=int, default=1000)
    _add_json_flag(p)
    p.set_defaults(func=_cmd_zeta_check)

    p = sub.add_parser("all-acceptance", help="run the acceptance suite")
    p.add_argument("--only", metavar="IDS",
                   help='comma-separated criteria, e.g. "A1,A5"')
    _add_json_flag(p)
    p.set_defaults(func=_cmd_all_acceptance)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        out = args.func(args)
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        _write_json(args.json, {
            "artifact_version": __version__,
            "command": args.command,
            "model": out.model,
            "parameters": out.parameters,
            "results": out.results,
            "verdicts": list(out.verdicts),
            "elapsed_ms": 1000.0 * (time.perf_counter() - t0),
        })
    return out.code


if __name__ == "__main__":
    sys.exit(main())

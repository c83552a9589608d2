"""Source checks on the package's computational modules."""

from __future__ import annotations

import ast
import inspect
import json
import os
import pathlib
import re
import subprocess
import sys
import textwrap
from collections import Counter

import pytest

import gacount
from gacount import enumeration

SRC = pathlib.Path(gacount.__file__).parent
# geometry, cli and acceptance turn model names into models; these modules
# take a VarietyModel and must read everything they need from its data.
COMPUTATIONAL = ("_util", "enumeration", "fourier", "heights", "tamagawa")
NAME_LOOKUP = re.compile(r"load_model\(|\[model\.id\]|model\.id\s*[!=]=")
# A module-level SciPy import: every gacount process would pay for it.
SCIPY_IMPORT = re.compile(r"^(import scipy|from scipy)\b")
# mpmath at any level: the package evaluates zeta itself (_util.zeta).
MPMATH_IMPORT = re.compile(r"^\s*(import mpmath|from mpmath)\b")
# A process pool by any route: every count runs in the calling process.
POOL_NAME = re.compile(r"concurrent\.futures|ProcessPoolExecutor|multiprocessing")


@pytest.mark.parametrize("module", COMPUTATIONAL)
def test_no_model_resolved_by_name(module):
    path = SRC / f"{module}.py"
    hits = [f"{path.name}:{i}: {line.strip()}"
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if NAME_LOOKUP.search(line)]
    assert hits == []


def _centers_read_as_kind(tree) -> list:
    """Lines where some .centers is a truth value (not, bool(...), an if,
    while, and/or operand) or an operand of == or !=."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.While, ast.IfExp)):
            tested = [node.test]
        elif isinstance(node, ast.comprehension):
            tested = node.ifs
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            tested = [node.operand]
        elif isinstance(node, ast.BoolOp):
            tested = node.values
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "bool":
            tested = node.args
        elif isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            tested = [node.left, *node.comparators]
        else:
            continue
        hits += [n.lineno for n in tested
                 if isinstance(n, ast.Attribute) and n.attr == "centers"]
    return hits


def test_no_kind_read_off_the_centers():
    # The model's family is VarietyModel.kind; its centers are read for
    # their coordinates or their number, never to guess the family.
    hits = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
            for line in _centers_read_as_kind(ast.parse(path.read_text()))]
    assert hits == []


def test_no_module_level_scipy_import():
    hits = [f"{path.name}:{i}: {line}"
            for path in sorted(SRC.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if SCIPY_IMPORT.match(line)]
    assert hits == []


def test_no_mpmath_import():
    hits = [f"{path.name}:{i}: {line.strip()}"
            for path in sorted(SRC.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if MPMATH_IMPORT.match(line)]
    assert hits == []


def test_no_process_pool():
    hits = [f"{path.name}:{i}: {line.strip()}"
            for path in sorted(SRC.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if POOL_NAME.search(line)]
    assert hits == []
    for fn in (enumeration.count_points, enumeration.count_ladder):
        assert "workers" not in inspect.signature(fn).parameters, fn.__name__


def test_no_assert_statements():
    # python -O strips assert statements, so an invariant of the package
    # raises an exception instead.
    hits = [f"{path.name}:{node.lineno}"
            for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Assert)]
    assert hits == []


# The memoized functions of the package (ROADMAP aim 2: no module-level
# mutable caches): zeta values and the (model, p) checks of
# exact_local_density.  Another cache is a reviewed decision.
ALLOWED_CACHES = {"_util.zeta", "tamagawa._system_data"}


def _is_cache_decorator(node) -> bool:
    """lru_cache or cache, bare or called, by name or as functools.<name>."""
    if isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in ("lru_cache", "cache")


def test_cached_functions_are_the_allowed_ones():
    cached = {f"{path.stem}.{node.name}"
              for path in sorted(SRC.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and any(_is_cache_decorator(d) for d in node.decorator_list)}
    assert cached == ALLOWED_CACHES


# Public module-level names that nothing in the package refers to.
# fourier.global_fourier: the spectral benchmark workload and the tests
# call it.
UNREFERENCED_OK = {"fourier.global_fourier"}


def _used_names(node) -> list:
    """The names a node refers to: a loaded or stored name, an attribute,
    or the names of a from-import."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.ImportFrom):
        return [alias.name for alias in node.names]
    return []


def test_every_public_name_is_used_in_the_package():
    # ROADMAP aim 2: no public API that only the tests use.  A module-level
    # public function or class must be referred to somewhere in the package
    # outside its own definition (a command, an acceptance check or another
    # function reaches it); test oracles live in tests/conftest.py.
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = Counter(name for tree in trees.values() for node in ast.walk(tree)
                   for name in _used_names(node))
    unused = set()
    for stem, tree in trees.items():
        for defn in tree.body:
            if (isinstance(defn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not defn.name.startswith("_")):
                own = sum(name == defn.name for node in ast.walk(defn)
                          for name in _used_names(node))
                if uses[defn.name] == own:
                    unused.add(f"{stem}.{defn.name}")
    assert unused == UNREFERENCED_OK


COLD_START = textwrap.dedent("""
    import json
    import sys

    import gacount.cli
    from gacount import enumeration, fourier, geometry, tamagawa

    def scipy_modules():
        return sorted(k for k in sys.modules if k.startswith("scipy"))

    def deferred_modules():
        return sorted(k for k in sys.modules
                      if k.split(".")[0] in ("mpmath", "multiprocessing")
                      or k in ("concurrent.futures.process", "gacount.acceptance"))

    models = {mid: geometry.load_model(mid) for mid in geometry.MODEL_IDS}
    tamagawa.tamagawa_number(models["BlP2-3"], p_max=10**4)
    b2 = models["BlP2-2"]
    enumeration.count_points(b2, b2.rho, 200)
    for mid, a in (("P1", (3,)), ("P2", (1, 2)), ("P3", (1, 2, 4))):
        model = models[mid]
        fourier.arch_fourier(model, a, tuple(r + 1 for r in model.rho))
    p1 = models["P1"]
    check = fourier.poisson_check(p1, p1.rho, 3.0, 1000, 10)
    fourier.zeta_truncated(models["P2"], models["P2"].rho, 3.0, 100)
    before = scipy_modules()
    deferred = deferred_modules()
    b1 = models["BlP2-1"]
    out = fourier.arch_fourier(b1, (1, 2), tuple(r + 1 for r in b1.rho))
    print(json.dumps({"before": before, "deferred": deferred,
                      "after": scipy_modules(),
                      "pass": check["pass"], "blp21": out.value.real}))
""")


def test_cold_start_loads_no_scipy():
    # A fresh interpreter runs what the count, constant and spectral
    # commands run on P^n and the blow-ups' point side: no SciPy module is
    # loaded until BlP2-1's twisted archimedean transform needs QUADPACK.
    # Nor is mpmath (zeta is _util.zeta), multiprocessing, or the acceptance
    # suite.
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", COLD_START], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    out = json.loads(proc.stdout)
    assert out["before"] == []
    assert out["deferred"] == []
    assert out["pass"]
    assert "scipy.integrate" in out["after"]
    assert 0 < abs(out["blp21"]) < 16


def test_fourier_uses_no_private_enumeration_name():
    # The point-side sums are enumeration.zeta_partial; fourier keeps the
    # tail alone and reaches into none of enumeration's internals.
    text = (SRC / "fourier.py").read_text()
    hits = [f"fourier.py:{i}: {line.strip()}"
            for i, line in enumerate(text.splitlines(), 1)
            if re.search(r"\benumeration\._", line)]
    assert hits == []


# Wordings of the convergence-domain error, past and present.
DOMAIN_MESSAGE = re.compile(r"convergence domain|rho_alpha - 1|rho_a - 1")
# Wordings of the character-index length error, past and present.
INDEX_MESSAGE = re.compile(r"character index has wrong length|expects a of length")
# Wordings of the refusal of Tate's factor on a model with valuation cones.
CONE_MESSAGE = re.compile(r"valuation cones")


def _raisers(exc_name: str, message) -> list:
    """The functions of the package that raise exc_name(...) with message
    text (its string constants, f-string parts included) matching message."""
    def raises(node) -> bool:
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) == exc_name):
            return False
        text = " ".join(n.value for n in ast.walk(node.exc)
                        if isinstance(n, ast.Constant) and isinstance(n.value, str))
        return bool(message.search(text))

    return sorted(f"{path.stem}.{fn.name}"
                  for path in sorted(SRC.glob("*.py"))
                  for fn in ast.walk(ast.parse(path.read_text()))
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and any(raises(n) for n in ast.walk(fn)))


def test_one_function_owns_the_convergence_domain_error():
    # Every transform checks 1 + s_alpha - rho_alpha > 0 through
    # geometry.convergence_beta; a second raiser is a restated copy.
    assert _raisers("ValueError", DOMAIN_MESSAGE) == ["geometry.convergence_beta"]


def test_one_function_owns_the_character_index_error():
    # Every transform, local factor and divisor computation at psi_a
    # coerces and length-checks a through geometry.character_index.
    assert _raisers("ValueError", INDEX_MESSAGE) == ["geometry.character_index"]


def test_one_function_owns_the_tate_cone_check():
    # exact_local_density and the P^n batch kernel of fourier take Tate's
    # shell sum through tamagawa._tate_factor, which checks the cones.
    assert _raisers("CapabilityError", CONE_MESSAGE) == ["tamagawa._tate_factor"]


def test_one_function_owns_the_fiber_weights():
    # The shell counts w_n(F) (w_1 = 3, w_F = 4 phi(F) at n = 1): BlP2-1's
    # fiber table and the shell zeta sum of P^n and BlP2-1's central fiber
    # read them from enumeration._fiber_weights.  The one totient sieve,
    # _util.jordan_segment, has two more readers: the coprime counts of
    # BlP2-1's zeta plateaus and of BlP2-2's torsor plateaus.
    readers = sorted(f"{path.stem}.{fn.name}" for path in sorted(SRC.glob("*.py"))
                     for fn in ast.walk(ast.parse(path.read_text()))
                     if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and "jordan_segment" in (name for node in ast.walk(fn)
                                              for name in _used_names(node)))
    assert readers == ["enumeration._blp21_zeta_partial", "enumeration._fiber_weights",
                       "enumeration._torsor_count"]


def test_zeta_partial_counts_in_its_own_pass():
    # zeta_partial counts the points of the pass that sums them and never
    # calls count_points; BlP2-1's count and zeta sum read the one fiber
    # table of enumeration._blp21_fibers, the only reader of the float
    # fiber bounds.
    def names(fn) -> set:
        return {name for node in ast.walk(fn) for name in _used_names(node)}

    assert "count_points" not in names(_functions("enumeration")["zeta_partial"])
    readers = sorted(f"{path.stem}.{fn.name}" for path in sorted(SRC.glob("*.py"))
                     for fn in ast.walk(ast.parse(path.read_text()))
                     if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and fn.name != "_blp21_fiber_bounds"
                     and "_blp21_fiber_bounds" in names(fn))
    assert readers == ["enumeration._blp21_fibers"]


def test_one_float_root_in_enumeration():
    # BlP2-1's fiber bounds and BlP2-2's band and enumeration ends are all
    # the float root of c t^e = B with one margin proof: exactly one
    # function of enumeration calls np.exp, enumeration._float_root.
    callers = sorted(fn.name for fn in _functions("enumeration").values()
                     for node in ast.walk(fn)
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                     and node.func.attr == "exp" and _used_names(node.func.value) == ["np"])
    assert callers == ["_float_root"]


def test_one_reader_of_each_mertens_table():
    # BlP2-1's central fiber is P1, counted by P1's Moebius sum: in
    # enumeration only _pn_count reads the Mertens quotient table.  The
    # fibers F >= 2 read mu from one segment, in _blp21_count (with its
    # running sums) and in _blp21_zeta_partial (the rows' mu(g) and M_c),
    # and the torsor's divisor table is the only other mu sieve; in _util
    # the segment feeds the Mertens table alone, with no list form beside
    # it.
    def readers(module, name):
        return sorted(fn.name for fn in _functions(module).values()
                      if fn.name != name
                      and name in (n for node in ast.walk(fn) for n in _used_names(node)))

    assert readers("enumeration", "mertens_quotients") == ["_pn_count"]
    assert readers("enumeration", "mu_segment") == ["_blp21_count", "_blp21_zeta_partial",
                                                    "_squarefree_divisors"]
    assert readers("_util", "mu_segment") == ["mertens_quotients"]


def test_one_shell_zeta_sum():
    # P^n's zeta sum and BlP2-1's central fiber (three copies of P1) sum the
    # primitive shells by one function with one stop, one pair of guards
    # and one math.fsum: enumeration._shell_zeta, read by these two alone.
    readers = sorted(f"{path.stem}.{fn.name}" for path in sorted(SRC.glob("*.py"))
                     for fn in ast.walk(ast.parse(path.read_text()))
                     if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and fn.name != "_shell_zeta"
                     and "_shell_zeta" in (name for node in ast.walk(fn)
                                           for name in _used_names(node)))
    assert readers == ["enumeration._blp21_zeta_partial", "enumeration.zeta_partial"]


def test_blp21_zeta_sum_has_no_point_loop():
    # BlP2-1's fibers F >= 2 are one NumPy pass over the rows (F, g): every
    # loop of _blp21_zeta_partial (for, while, comprehension, map or
    # starmap) runs over the parts of _util.ragged, and it takes no gcd.
    fn = _functions("enumeration")["_blp21_zeta_partial"]

    def over_ragged(node) -> bool:
        return isinstance(node, ast.Call) and _used_names(node.func) == ["ragged"]

    loops = [node.iter for node in ast.walk(fn)
             if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension))]
    loops += [node.args[-1] for node in ast.walk(fn)
              if isinstance(node, ast.Call) and _used_names(node.func) in (["map"], ["starmap"])]
    assert loops and all(map(over_ragged, loops))
    assert not any(isinstance(node, ast.While) for node in ast.walk(fn))
    assert "gcd" not in (name for node in ast.walk(fn) for name in _used_names(node))


def test_one_ragged_layout():
    # The Mertens table's passes, BlP2-1's quotient blocks and BlP2-2's
    # torsor rows are all laid out row after row by one function: exactly
    # one function of the package calls np.repeat, _util.ragged (its part
    # builder is nested in it).
    callers = sorted(f"{path.stem}.{fn.name}" for path in sorted(SRC.glob("*.py"))
                     for fn in ast.parse(path.read_text()).body
                     if isinstance(fn, ast.FunctionDef)
                     for node in ast.walk(fn)
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                     and node.func.attr == "repeat" and _used_names(node.func.value) == ["np"])
    assert callers == ["_util.ragged"]


def _functions(module: str) -> dict:
    """name -> FunctionDef node of every function defined in a module."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return {fn.name: fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}


def test_one_horner_pass_over_the_good_primes():
    # The NumPy Horner pass over all good primes is written once, in
    # tamagawa._good_prime_product; tau and the trivial character of the
    # adelic transform both call it.
    hits = [(path.stem, i) for path in sorted(SRC.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if "acc * u + c" in line]
    assert len(hits) == 1, hits
    module, line = hits[0]
    helper = _functions("tamagawa")["_good_prime_product"]
    assert module == "tamagawa" and helper.lineno <= line <= helper.end_lineno
    for module, name in (("tamagawa", "tamagawa_number"), ("fourier", "global_fourier")):
        calls = [node for node in ast.walk(_functions(module)[name])
                 if isinstance(node, ast.Call)
                 and _used_names(node.func) == ["_good_prime_product"]]
        assert len(calls) == 1, name


def test_one_zeta_completion_body():
    # zeta(b) prod_p (1 - p^(-b)) is tamagawa._completion_body, which tau and
    # the generic assembly of the adelic transform both call.
    for module, name in (("tamagawa", "tamagawa_number"), ("fourier", "global_fourier")):
        calls = [node for node in ast.walk(_functions(module)[name])
                 if isinstance(node, ast.Call)
                 and _used_names(node.func) == ["_completion_body"]]
        assert len(calls) == 1, name


def test_completion_body_has_no_prime_loop():
    # The zeta completion is one NumPy pass over a (pairs x primes) array:
    # every loop of _completion_body (for, comprehension or map) runs over
    # the pairs (b, e_b), never the primes, it multiplies no math.prod, and
    # tamagawa_number hands it the prime array without a .tolist().
    fn = _functions("tamagawa")["_completion_body"]
    loops = [node.iter for node in ast.walk(fn)
             if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension))]
    loops += [arg for node in ast.walk(fn)
              if isinstance(node, ast.Call) and _used_names(node.func) in (["map"], ["starmap"])
              for arg in node.args[1:]]
    names = [{name for node in ast.walk(it) for name in _used_names(node)} for it in loops]
    assert loops and all("pairs" in used and "primes" not in used for used in names)
    assert "prod" not in {name for node in ast.walk(fn) for name in _used_names(node)}
    tolist = [node.lineno for node in ast.walk(_functions("tamagawa")["tamagawa_number"])
              if isinstance(node, ast.Call) and _used_names(node.func) == ["tolist"]]
    assert tolist == []


def _is_signed_binomial(node) -> bool:
    """A signed binomial coefficient of (1 - u^k)^m: the ratio step
    -c (m - j) // (j + 1), or comb(...) times a power (of -1)."""
    if not isinstance(node, ast.BinOp):
        return False
    if isinstance(node.op, ast.FloorDiv):
        right = node.right
        return (isinstance(right, ast.BinOp) and isinstance(right.op, ast.Add)
                and isinstance(right.right, ast.Constant) and right.right.value == 1
                and any(isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.USub)
                        for n in ast.walk(node.left)))
    sides = (node.left, node.right)
    return (isinstance(node.op, ast.Mult)
            and any(isinstance(n, ast.Call) and _used_names(n.func) == ["comb"] for n in sides)
            and any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow) for n in sides))


def test_one_binomial_expansion():
    # (1 - u^k)^m is expanded by tamagawa._mul_binomial alone, and every
    # pass of the zeta peel hands it a degree cap, so no peel expands num
    # and den in full past _PEEL_CAP.
    hits = sorted(f"{path.stem}.{fn.name}" for path in sorted(SRC.glob("*.py"))
                  for fn in ast.parse(path.read_text()).body
                  if isinstance(fn, ast.FunctionDef)
                  and any(_is_signed_binomial(node) for node in ast.walk(fn)))
    assert hits == ["tamagawa._mul_binomial"]
    calls = [node for node in ast.walk(_functions("tamagawa")["_peel_data"])
             if isinstance(node, ast.Call) and _used_names(node.func) == ["_mul_binomial"]]
    assert calls
    for call in calls:
        cap = call.args[3:] + [kw.value for kw in call.keywords if kw.arg == "top"]
        assert len(cap) == 1 and not (isinstance(cap[0], ast.Constant)
                                      and cap[0].value is None), ast.unparse(call)


# A limit constant of the package: its name ends in _LIMIT or _BUDGET.
LIMIT_NAME = re.compile(r"_(LIMIT|BUDGET)$")


def test_limit_refusals_come_from_refuse_past():
    # Every refusal of planned work past a limit is _util.refuse_past, with
    # its one message shape: no other function both reads a limit constant
    # and builds a CapabilityError of its own.
    hits = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = {name for node in ast.walk(fn) for name in _used_names(node)}
            raises = any(isinstance(node, ast.Call) and _used_names(node.func) == ["CapabilityError"]
                         for node in ast.walk(fn))
            if raises and any(LIMIT_NAME.search(name) for name in names):
                hits.append(f"{path.stem}.{fn.name}")
    assert hits == []


def _is_midpoint(node) -> bool:
    """A bisection midpoint: (a sum) // 2."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)
            and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Add)
            and isinstance(node.right, ast.Constant) and node.right.value == 2)


def test_one_bisection_loop():
    # Integer roots, the int64 split points of the Moebius sum and the
    # torsor's exact band ends all bisect through _util.last_true.
    loops = [(path.stem, loop.lineno) for path in sorted(SRC.glob("*.py"))
             for loop in ast.walk(ast.parse(path.read_text()))
             if isinstance(loop, ast.While) and any(map(_is_midpoint, ast.walk(loop)))]
    assert len(loops) == 1, loops
    module, line = loops[0]
    helper = _functions("_util")["last_true"]
    assert module == "_util" and helper.lineno <= line <= helper.end_lineno

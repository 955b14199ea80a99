"""Command-line surface for the verification and classification engine.

Exit codes: 0 verified/success, 1 checked-and-refuted, 2 usage or input
error, 3 numeric domain error (for einstein-check: the metric is
degenerate at the origin).  Polynomials and potentials are read from
files (or standard input with "-") in the shared JSON schema.

Each ``cmd_*`` function maps the parsed arguments to
``(exit_code, inputs, verdict, human)`` and prints nothing; ``main`` is
the one place that times a command, turns its exceptions into exit codes
(UsageError and ValueError 2, DomainError 3) and prints the human line or
the canonical JSON report.

Every command runs in a fresh process, which compiles each module it
imports, so a module that only some commands run is imported inside
them: geometry by einstein-check, catalog by catalog (and by
ma_engine.search_n2), and einstein by the decisions that use it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import re
import sys
import time
from fractions import Fraction

from toricpke import ma_engine
from toricpke.algebra import DomainError, MultiPoly, fraction_to_str, json_int

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

# Largest --k, --k-max or continue --bound: the continuation's work grows faster
# than linearly in the order, and not with r.  At 32 (in-process, best of 3,
# 2 cores, Python 3.11) scan-k --k-max 32 takes 0.01 s, and continue --bound
# 32 at most 0.13 s, at k = 1, where every order divides; verifying the image
# of a 4,000-digit --r adds at most 0.06 s.
MAX_ORDER = 32
# Largest catalog dimension (--max-n, or the sum of --partition), largest
# --K, and most terms in one record's potential: a record's work grows
# with its term count, which grows like K^n.  At these limits no catalog
# command takes a second.
MAX_CATALOG_N = 6
MAX_CATALOG_K = 32
MAX_CATALOG_TERMS = 10_000
# Most einstein-check --points: the sample is built before the float
# cross-check starts, which takes one metric and one determinant per point;
# at 100 points the 112-term catalog potential of (5,1) takes 0.02 s.
MAX_POINTS = 100
# Most variables and terms of an einstein-check potential.  The exact
# check's point test grows like terms*n^2 (one inverse modulo a prime,
# then one quadratic form per term) and runs only when a block refutes or
# needs its symbolic left side, the cross-check grows like
# points*terms*n^2, and the linear-form blocks of every catalog potential
# are decided by their binomial profiles, with no point test and no
# polynomial product: the largest catalog potentials within the limit,
# (2,1,1) at K = 3 (2,695 terms), (3,) at K = 24 (2,925) and (4,) at
# K = 13 (2,380), take at most 0.05 s at 5 points and 0.23 s at 100, and
# a random 3,000-term potential in 6 variables of degree at most 4 in
# each is refuted in 0.03 s (2 cores, Python 3.11).  Every catalog
# potential up to dimension 4 with K <= 3 fits.  A block that is not a
# linear form needs its symbolic left side, metered within
# algebra.MAX_SYMBOLIC_PAIRS kernel term pairs.
MAX_EINSTEIN_NVARS = 6
MAX_EINSTEIN_TERMS = 3_000
# Most variables of a polynomial read by verify, classify-flat, axis or
# report: work grows with nvars even when the polynomial has few or no
# terms, as verify's point test has an Euler matrix of (nvars+1)^2
# entries and the linear coefficients are nvars exponents of nvars
# entries each.  In 600 variables classify-flat takes at most 0.13 s on
# x1 + ... + x600, with or without x1*x2, and verify 0.09 s on a 10-term
# sparse cubic; at 32 each of the four commands takes at most 0.015 s on
# an empty and on a 10-term sparse input (2 cores, Python 3.11).
MAX_NVARS = 32
# Most digits of an --r or --grid value: every integer of the value, the
# denominator 10^d of a decimal included, stays within the 4,300 digits
# that Fraction and str convert by default; classify-n1 squares r, no
# more.
MAX_R_DIGITS = 4_000


class UsageError(Exception):
    pass


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _read_json(path: str, what: str, from_json_dict):
    # json.loads raises RecursionError on deeply nested arrays
    try:
        return from_json_dict(json.loads(_read_text(path)))
    except (ValueError, KeyError, TypeError, ZeroDivisionError,
            RecursionError) as exc:
        raise UsageError(f"malformed {what} JSON in {path}: {exc}") from exc


def _read_poly(path: str, nvars=None) -> MultiPoly:
    p = _read_json(path, "polynomial", MultiPoly.from_json_dict)
    if p.nvars > MAX_NVARS:
        raise UsageError(f"polynomial in {p.nvars} variables exceeds "
                         f"MAX_NVARS = {MAX_NVARS}")
    if nvars is not None and nvars != p.nvars:
        raise UsageError(f"--n {nvars} does not match polynomial nvars {p.nvars}")
    return p


def _read_potential(path: str):
    from toricpke.geometry import ToricPotential

    def read(data):
        # building the potential reads P(0), an exponent of nvars zeros,
        # so the limit on nvars holds before it is built
        nvars = json_int(data["P"]["nvars"])
        if nvars > MAX_EINSTEIN_NVARS:
            raise UsageError(f"potential in {nvars} variables exceeds "
                             f"MAX_EINSTEIN_NVARS = {MAX_EINSTEIN_NVARS}")
        return ToricPotential.from_json_dict(data)

    return _read_json(path, "potential", read)


_RATIONAL = re.compile(r"[+-]?(\d+(/\d+)?|\d+\.\d*|\.\d+)")


def _parse_r(token: str, what: str) -> Fraction:
    """A nonzero r given as an integer, p/q or a plain decimal.

    Exponent notation and more than MAX_R_DIGITS digits are rejected,
    so the value costs work bounded by the length of the token.
    """
    text = token.strip()
    if not _RATIONAL.fullmatch(text):
        raise UsageError(f"bad {what} {token!r:.40}: expected an integer, "
                         "p/q or a plain decimal")
    digits = sum(ch.isdigit() for ch in text)
    if digits > MAX_R_DIGITS:
        raise UsageError(f"bad {what}: {digits} digits exceed MAX_R_DIGITS = {MAX_R_DIGITS}")
    try:
        value = Fraction(text)
    except ZeroDivisionError as exc:
        raise UsageError(f"bad {what} {token!r:.40}: {exc}") from exc
    if value == 0:
        raise UsageError(f"bad {what} {token!r:.40}: r must be nonzero")
    return value


def _parse_grid(text: str) -> list:
    values = [_parse_r(tok, "grid value") for tok in text.split(",") if tok.strip()]
    if not values:
        raise UsageError("empty grid")
    return values


def _int_at_most(limit: int, name: str):
    """argparse type: an integer no larger than the limit called name.

    Lower bounds stay with the engine, which names the one it needs.
    """
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value > limit:
            raise argparse.ArgumentTypeError(f"{value} exceeds {name} = {limit}")
        return value

    return parse


_order = _int_at_most(MAX_ORDER, "MAX_ORDER")


def _tol(text: str) -> float:
    """argparse type: a finite float above 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"{text!r:.40} is not a finite float > 0")
    return value


def _sample_points(n: int, count: int, seed: int) -> list:
    rng = random.Random(seed)
    pts = []
    for _ in range(count):
        xi = [rng.uniform(-0.08, 0.08) for _ in range(n)]
        eta = [rng.uniform(-0.08, 0.08) for _ in range(n)]
        pts.append((xi, eta))
    return pts


def cmd_verify(args):
    p = _read_poly(args.poly, args.n)
    result = ma_engine.verify_ma_star(p)
    sign = {1: "+", -1: "-", None: None}[result.sign]
    cert = result.refuted_at
    verdict = {
        "is_solution": result.is_solution,
        "sign": sign,
        "refuted_at": None if cert is None else cert.to_json_dict(),
    }
    if args.witness:
        from toricpke import einstein

        verdict["witness"] = einstein.star_witness(p, result.sign).to_json_dict()
    human = (
        f"solution (sign {sign})" if result.is_solution else "not a solution"
    )
    return (EXIT_OK if result.is_solution else EXIT_REFUTED,
            {"n": p.nvars, "poly": p.to_json_dict()}, verdict, human)


def cmd_classify_flat(args):
    p = _read_poly(args.poly, args.n)
    result = ma_engine.classify_flat(p)
    if result.is_solution:
        verdict = {
            "is_solution": True,
            "coeffs": [fraction_to_str(c) for c in result.coeffs],
            "coeff_product": fraction_to_str(result.coeff_product),
        }
        human = "linear solution, coefficients " + ", ".join(
            fraction_to_str(c) for c in result.coeffs
        )
    else:
        verdict = {"is_solution": False}
        human = "not a flat solution"
    return (EXIT_OK if result.is_solution else EXIT_REFUTED,
            {"n": p.nvars, "poly": p.to_json_dict()}, verdict, human)


def cmd_axis(args):
    p = _read_poly(args.poly)
    inputs = {"axis": args.axis, "poly": p.to_json_dict()}
    try:
        prof = ma_engine.axis_profile_check(p, args.axis - 1)
    except IndexError as exc:
        raise UsageError(str(exc)) from exc
    except ma_engine.ProfileMismatchError as exc:
        return (EXIT_REFUTED, inputs, {"matches": False, "reason": str(exc)},
                f"profile mismatch: {exc}")
    verdict = {
        "matches": True,
        "epsilon": prof.epsilon,
        "r": fraction_to_str(prof.r),
        "k": prof.k,
    }
    return (EXIT_OK, inputs, verdict,
            f"axis {args.axis}: epsilon={prof.epsilon} r={fraction_to_str(prof.r)} "
            f"k={prof.k}")


def cmd_continue(args):
    cd = ma_engine.cauchy_data(args.epsilon, args.sigma, _parse_r(args.r, "--r"),
                               args.k)
    p = ma_engine.taylor_continue_n2(cd, args.bound)
    inputs = {
        "k": args.k,
        "r": args.r,
        "epsilon": args.epsilon,
        "sigma": args.sigma,
        "bound": args.bound,
    }
    if p is None:
        return (EXIT_REFUTED, inputs, {"consistent": False},
                "inconsistent: no polynomial solution with this Cauchy data")
    return (EXIT_OK, inputs, {"consistent": True, "solution": p.to_json_dict()},
            f"reconstructed solution: {p}")


def cmd_scan_k(args):
    ks = sorted(ma_engine.feasible_k_scan_n2(args.k_max))
    return (EXIT_OK, {"k_max": args.k_max}, {"feasible_k": ks}, f"feasible k: {ks}")


def cmd_classify_n1(args):
    grid = _parse_grid(args.grid)
    sols = ma_engine.classify_n1(grid)
    return (EXIT_OK, {"grid": [str(g) for g in grid]},
            {"solutions": [p.to_json_dict() for p in sols]},
            "\n".join(str(p) for p in sols) or "no solutions on this grid")


def cmd_search_n2(args):
    grid = _parse_grid(args.grid)
    sols = ma_engine.search_n2(grid)
    return (EXIT_OK, {"grid": [str(g) for g in grid]},
            {"solutions": [p.to_json_dict() for p in sols]},
            "\n".join(str(p) for p in sols) or "no solutions on this grid")


def _parse_partition(text: str) -> tuple:
    try:
        part = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise UsageError(f"bad partition {text!r}") from exc
    if not part or any(v < 1 for v in part):
        raise UsageError(f"bad partition {text!r}")
    if sum(part) > MAX_CATALOG_N:
        raise UsageError(f"partition of {sum(part)} exceeds MAX_CATALOG_N = "
                         f"{MAX_CATALOG_N}")
    return part


def _check_terms(part: tuple, K: int) -> None:
    from toricpke.catalog import potential_terms

    terms = potential_terms(part, K)
    if terms > MAX_CATALOG_TERMS:
        raise UsageError(f"the potential of {part} at K={K} has {terms} terms, "
                         f"exceeding MAX_CATALOG_TERMS = {MAX_CATALOG_TERMS}")


def cmd_catalog(args):
    from toricpke import catalog as cat

    if args.action == "list":
        for n in range(1, args.max_n + 1):
            for part in cat.partitions(n):
                _check_terms(part, args.K)
        records = cat.standard_catalog(args.max_n, args.K)
    else:
        if not args.partition:
            raise UsageError("catalog gen requires --partition")
        part = _parse_partition(args.partition)
        _check_terms(part, args.K)
        records = [cat.solution_record(part, args.K)]
    human = "\n".join(
        f"{r.name}: n={r.n} h={r.h} min_embedding_dim={r.min_embedding_dim}  P = {r.P}"
        for r in records
    )
    return (EXIT_OK, {"action": args.action, "K": args.K},
            {"records": [r.to_json_dict() for r in records]}, human)


def cmd_einstein_check(args):
    potential = _read_potential(args.potential)
    terms = len(potential.P.integer_terms[1])
    if terms > MAX_EINSTEIN_TERMS:
        raise UsageError(f"potential of {terms} terms exceeds "
                         f"MAX_EINSTEIN_TERMS = {MAX_EINSTEIN_TERMS}")
    if args.points < 3:
        raise UsageError("einstein-check needs at least 3 sample points")
    inputs = {"potential": potential.to_json_dict(), "points": args.points,
              "seed": args.seed}
    from toricpke import geometry
    from toricpke.einstein import einstein_exponent

    found = einstein_exponent(potential.P, potential.kind)
    if found.e is None:
        cert = found.refuted_at
        verdict = {"einstein": False, "lambda": None, "lambda_exact": None,
                   "refuted_at": None if cert is None else cert.to_json_dict(),
                   "max_residual": None, "tol": args.tol, "cross_check_error": None}
        where = "at the test point" if cert else "symbolically"
        return EXIT_REFUTED, inputs, verdict, f"not Einstein (refuted {where})"
    n = potential.nvars
    lam = (n + 1 - found.e) / potential.k if potential.kind == "log" else Fraction(0)
    # the float cross-check reports, and never changes the verdict
    points = _sample_points(n, args.points, args.seed)
    try:
        resid, error = geometry.einstein_residual(potential, lam, found.C, points), None
    except ArithmeticError as exc:
        resid, error = None, str(exc)
    try:
        lam_float = float(lam)
    except OverflowError:  # a tiny k; lambda_exact still holds the value
        lam_float = None
    verdict = {"einstein": True, "lambda": lam_float,
               "lambda_exact": fraction_to_str(lam), "refuted_at": None,
               "max_residual": resid, "tol": args.tol, "cross_check_error": error}
    if error is not None:
        check = f"float cross-check failed: {error}"
    else:
        within = "within" if resid < args.tol else "exceeds"
        check = f"cross-check max residual {resid:.3e} ({within} tol {args.tol:g})"
    return (EXIT_OK, inputs, verdict,
            f"Einstein, lambda = {fraction_to_str(lam)}; {check}")


def cmd_report(args):
    p = _read_poly(args.poly)
    return EXIT_OK, {"poly": p.to_json_dict()}, {"poly": p.to_json_dict()}, str(p)


# Built once per process: an argument parser is a web of reference cycles,
# so each rebuilt one waits for the cyclic garbage collector, and that runs
# only after enough other allocations; when the engine allocates little,
# discarded parsers pile up.
@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    # no abbreviated options: "--gri -1/2" would escape _attach_negative_values
    parser = argparse.ArgumentParser(
        prog="toricpke",
        description="Exact verification and classification of toric "
        "para-Kahler-Einstein Monge-Ampere solutions.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text):
        sp = sub.add_parser(name, help=help_text, allow_abbrev=False)
        sp.set_defaults(func=func)
        return sp

    sp = command("verify", cmd_verify, "exact Monge-Ampere solution check")
    sp.add_argument("--poly", required=True, help="polynomial JSON file or -")
    sp.add_argument("--n", type=int, help="expected number of variables")
    sp.add_argument("--witness", action="store_true",
                    help="report the symbolic left side as the witness")

    sp = command("classify-flat", cmd_classify_flat, "flat-type classification")
    sp.add_argument("--poly", required=True)
    sp.add_argument("--n", type=int)

    sp = command("axis", cmd_axis, "axis binomial-profile check")
    sp.add_argument("--poly", required=True)
    sp.add_argument("--axis", type=int, default=1, help="1-based axis index")

    sp = command("continue", cmd_continue, "two-variable Cauchy continuation")
    sp.add_argument("--k", type=_order, required=True)
    sp.add_argument("--r", required=True)
    sp.add_argument("--epsilon", type=int, default=1, choices=(1, -1))
    sp.add_argument("--sigma", type=int, default=1, choices=(1, -1))
    sp.add_argument("--bound", type=_order, default=6)

    sp = command("scan-k", cmd_scan_k, "feasible exponent scan (n=2)")
    sp.add_argument("--k-max", type=_order, default=6)

    sp = command("classify-n1", cmd_classify_n1, "one-variable classification")
    sp.add_argument("--grid", required=True)

    sp = command("search-n2", cmd_search_n2, "two-variable search over a grid")
    sp.add_argument("--grid", required=True)

    sp = command("catalog", cmd_catalog, "known solution families")
    sp.add_argument("action", choices=("list", "gen"))
    sp.add_argument("--partition", help="comma-separated block dimensions")
    sp.add_argument("--K", type=_int_at_most(MAX_CATALOG_K, "MAX_CATALOG_K"),
                    default=1)
    sp.add_argument("--max-n", type=_int_at_most(MAX_CATALOG_N, "MAX_CATALOG_N"),
                    default=3)

    sp = command("einstein-check", cmd_einstein_check,
                 "exact Einstein check, with a float cross-check")
    sp.add_argument("--potential", required=True, help="potential JSON file or -")
    sp.add_argument("--points", type=_int_at_most(MAX_POINTS, "MAX_POINTS"),
                    default=5)
    sp.add_argument("--tol", type=_tol, default=1e-6)
    sp.add_argument("--seed", type=int, default=0)

    sp = command("report", cmd_report, "echo mode: canonical round trip")
    sp.add_argument("--poly", required=True)

    for sp in sub.choices.values():
        sp.add_argument("--json", action="store_true",
                        help="emit the canonical JSON report")
        sp.add_argument("--timings", action="store_true",
                        help="report the command's wall-clock time in ms")

    return parser


def _attach_negative_values(argv: list) -> list:
    """Rewrite "--r -1/2" as "--r=-1/2", and likewise for --grid.

    argparse before Python 3.13 takes "-1/2" or "-1/2,3" for an option.
    """
    out = []
    for tok in argv:
        if out and out[-1] in ("--r", "--grid") and re.match(r"-[\d.]", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(_attach_negative_values(argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    start = time.perf_counter()
    try:
        code, inputs, verdict, human = args.func(args)
    # ValueError is how the engine rejects its arguments
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"numeric domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    ms = round((time.perf_counter() - start) * 1000.0, 3)
    if args.json:
        doc = {
            "command": args.command,
            "inputs": inputs,
            "verdict": verdict,
            "timings": {args.command: ms} if args.timings else {},
        }
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    else:
        print(human)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface for the verification and classification engine.

Exit codes: 0 verified/success, 1 checked-and-refuted, 2 usage or input
error, 3 numeric domain error.  Polynomials and potentials are read from
files (or standard input with "-") in the shared JSON schema.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import random
import re
import sys
import time
from fractions import Fraction

from toricpke import catalog as cat
from toricpke import geometry, ma_engine
from toricpke.algebra import MultiPoly, fraction_to_str
from toricpke.geometry import DomainError, ToricPotential

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


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
    if nvars is not None and nvars != p.nvars:
        raise UsageError(f"--n {nvars} does not match polynomial nvars {p.nvars}")
    return p


def _read_potential(path: str) -> ToricPotential:
    return _read_json(path, "potential", ToricPotential.from_json_dict)


def _parse_grid(text: str) -> list:
    try:
        values = [Fraction(tok) for tok in text.split(",") if tok.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad grid {text!r}: {exc}") from exc
    if not values:
        raise UsageError("empty grid")
    return values


def _report(command: str, inputs: dict, verdict: dict, timings, as_json: bool,
            human: str) -> None:
    if as_json:
        doc = {
            "command": command,
            "inputs": inputs,
            "verdict": verdict,
            "timings": timings,
        }
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    else:
        print(human)


def _sample_points(n: int, count: int, seed: int) -> list:
    rng = random.Random(seed)
    pts = []
    for _ in range(count):
        xi = [rng.uniform(-0.08, 0.08) for _ in range(n)]
        eta = [rng.uniform(-0.08, 0.08) for _ in range(n)]
        pts.append((xi, eta))
    return pts


def _timer(enabled: bool):
    start = time.perf_counter()

    def phases(name, acc={}):
        nonlocal start
        now = time.perf_counter()
        acc[name] = round((now - start) * 1000.0, 3)
        start = now
        return acc if enabled else {}

    return phases


@contextlib.contextmanager
def _engine_arguments():
    """Report the engine's argument checks (ValueError) as usage errors."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_verify(args) -> int:
    p = _read_poly(args.poly, args.n)
    phase = _timer(args.timings)
    with _engine_arguments():
        result = ma_engine.verify_ma_star(p)
    timings = phase("verify")
    sign = {1: "+", -1: "-", None: None}[result.sign]
    verdict = {
        "is_solution": result.is_solution,
        "sign": sign,
        "witness": result.witness.to_json_dict(),
    }
    human = (
        f"solution (sign {sign})" if result.is_solution else "not a solution"
    )
    _report("verify", {"n": p.nvars, "poly": p.to_json_dict()}, verdict,
            timings, args.json, human)
    return EXIT_OK if result.is_solution else EXIT_REFUTED


def cmd_classify_flat(args) -> int:
    p = _read_poly(args.poly, args.n)
    phase = _timer(args.timings)
    result = ma_engine.classify_flat(p)
    timings = phase("classify")
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
    _report("classify-flat", {"n": p.nvars, "poly": p.to_json_dict()}, verdict,
            timings, args.json, human)
    return EXIT_OK if result.is_solution else EXIT_REFUTED


def cmd_axis(args) -> int:
    p = _read_poly(args.poly)
    phase = _timer(args.timings)
    try:
        prof = ma_engine.axis_profile_check(p, args.axis - 1)
    except IndexError as exc:
        raise UsageError(str(exc)) from exc
    except ma_engine.ProfileMismatchError as exc:
        timings = phase("axis")
        _report("axis", {"axis": args.axis, "poly": p.to_json_dict()},
                {"matches": False, "reason": str(exc)}, timings, args.json,
                f"profile mismatch: {exc}")
        return EXIT_REFUTED
    timings = phase("axis")
    verdict = {
        "matches": True,
        "epsilon": prof.epsilon,
        "r": fraction_to_str(prof.r),
        "k": prof.k,
    }
    _report("axis", {"axis": args.axis, "poly": p.to_json_dict()}, verdict,
            timings, args.json,
            f"axis {args.axis}: epsilon={prof.epsilon} r={fraction_to_str(prof.r)} "
            f"k={prof.k}")
    return EXIT_OK


def cmd_continue(args) -> int:
    try:
        r = Fraction(args.r)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad --r {args.r!r}: {exc}") from exc
    phase = _timer(args.timings)
    with _engine_arguments():
        cd = ma_engine.cauchy_data(args.epsilon, args.sigma, r, args.k)
        p = ma_engine.taylor_continue_n2(cd, args.bound)
    timings = phase("continue")
    inputs = {
        "k": args.k,
        "r": args.r,
        "epsilon": args.epsilon,
        "sigma": args.sigma,
        "bound": args.bound,
    }
    if p is None:
        _report("continue", inputs, {"consistent": False}, timings, args.json,
                "inconsistent: no polynomial solution with this Cauchy data")
        return EXIT_REFUTED
    verdict = {"consistent": True, "solution": p.to_json_dict()}
    _report("continue", inputs, verdict, timings, args.json,
            f"reconstructed solution: {p}")
    return EXIT_OK


def cmd_scan_k(args) -> int:
    grid = _parse_grid(args.grid) if args.grid else list(ma_engine.DEFAULT_SCAN_GRID)
    phase = _timer(args.timings)
    with _engine_arguments():
        ks = sorted(ma_engine.feasible_k_scan_n2(args.k_max, grid))
    timings = phase("scan")
    verdict = {"feasible_k": ks}
    _report("scan-k", {"k_max": args.k_max, "grid": [str(g) for g in grid]},
            verdict, timings, args.json, f"feasible k: {ks}")
    return EXIT_OK


def cmd_classify_n1(args) -> int:
    grid = _parse_grid(args.grid)
    phase = _timer(args.timings)
    with _engine_arguments():
        sols = ma_engine.classify_n1(args.k_max, grid)
    timings = phase("classify")
    verdict = {"solutions": [p.to_json_dict() for p in sols]}
    human = "\n".join(str(p) for p in sols) or "no solutions on this grid"
    _report("classify-n1", {"k_max": args.k_max, "grid": [str(g) for g in grid]},
            verdict, timings, args.json, human)
    return EXIT_OK


def cmd_search_n2(args) -> int:
    grid = _parse_grid(args.grid)
    phase = _timer(args.timings)
    with _engine_arguments():
        sols = ma_engine.search_n2(grid, args.bound)
    timings = phase("search")
    verdict = {"solutions": [p.to_json_dict() for p in sols]}
    human = "\n".join(str(p) for p in sols) or "no solutions on this grid"
    _report("search-n2", {"grid": [str(g) for g in grid], "bound": args.bound},
            verdict, timings, args.json, human)
    return EXIT_OK


def _parse_partition(text: str) -> tuple:
    try:
        part = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise UsageError(f"bad partition {text!r}") from exc
    if not part or any(v < 1 for v in part):
        raise UsageError(f"bad partition {text!r}")
    return part


def cmd_catalog(args) -> int:
    phase = _timer(args.timings)
    if args.action == "list":
        with _engine_arguments():
            records = cat.standard_catalog(args.max_n, args.K)
    else:
        if not args.partition:
            raise UsageError("catalog gen requires --partition")
        part = _parse_partition(args.partition)
        with _engine_arguments():
            records = [cat.solution_record(part, args.K)]
    timings = phase("catalog")
    verdict = {"records": [r.to_json_dict() for r in records]}
    human = "\n".join(
        f"{r.name}: n={r.n} h={r.h} min_embedding_dim={r.min_embedding_dim}  P = {r.P}"
        for r in records
    )
    _report("catalog", {"action": args.action, "K": args.K}, verdict, timings,
            args.json, human)
    return EXIT_OK


def cmd_einstein_check(args) -> int:
    if not args.step > 0:
        raise UsageError(f"--step must be positive, got {args.step}")
    potential = _read_potential(args.potential)
    points = _sample_points(potential.nvars, args.points, args.seed)
    phase = _timer(args.timings)
    with _engine_arguments():
        fit = geometry.einstein_fit(potential, points, args.step)
    timings = phase("fit")
    passed = fit.max_residual < args.tol
    verdict = {
        "lambda": fit.lam,
        "max_residual": fit.max_residual,
        "tol": args.tol,
        "einstein": passed,
    }
    human = (
        f"lambda = {fit.lam:.9g}, max residual = {fit.max_residual:.3e} "
        f"({'within' if passed else 'exceeds'} tol {args.tol:g})"
    )
    _report("einstein-check", {"potential": potential.to_json_dict(),
                               "points": args.points, "step": args.step,
                               "seed": args.seed},
            verdict, timings, args.json, human)
    return EXIT_OK if passed else EXIT_REFUTED


def cmd_report(args) -> int:
    p = _read_poly(args.poly)
    phase = _timer(args.timings)
    timings = phase("echo")
    _report("report", {"poly": p.to_json_dict()},
            {"poly": p.to_json_dict()}, timings, args.json, str(p))
    return EXIT_OK


# Built once per process: an argument parser is a web of reference cycles,
# so each rebuilt one waits for the cyclic garbage collector, and that runs
# only after enough other allocations; when the engine allocates little,
# discarded parsers pile up.
@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricpke",
        description="Exact verification and classification of toric "
        "para-Kahler-Einstein Monge-Ampere solutions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true",
                        help="emit the canonical JSON report")
        sp.add_argument("--timings", action="store_true",
                        help="include wall-clock timings in the report")

    sp = sub.add_parser("verify", help="exact Monge-Ampere solution check")
    sp.add_argument("--poly", required=True, help="polynomial JSON file or -")
    sp.add_argument("--n", type=int, help="expected number of variables")
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("classify-flat", help="flat-type classification")
    sp.add_argument("--poly", required=True)
    sp.add_argument("--n", type=int)
    common(sp)
    sp.set_defaults(func=cmd_classify_flat)

    sp = sub.add_parser("axis", help="axis binomial-profile check")
    sp.add_argument("--poly", required=True)
    sp.add_argument("--axis", type=int, default=1, help="1-based axis index")
    common(sp)
    sp.set_defaults(func=cmd_axis)

    sp = sub.add_parser("continue", help="two-variable Cauchy continuation")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--r", required=True)
    sp.add_argument("--epsilon", type=int, default=1, choices=(1, -1))
    sp.add_argument("--sigma", type=int, default=1, choices=(1, -1))
    sp.add_argument("--bound", type=int, default=6)
    common(sp)
    sp.set_defaults(func=cmd_continue)

    sp = sub.add_parser("scan-k", help="feasible exponent scan (n=2)")
    sp.add_argument("--k-max", type=int, default=6)
    sp.add_argument("--grid", help="comma-separated rationals")
    common(sp)
    sp.set_defaults(func=cmd_scan_k)

    sp = sub.add_parser("classify-n1", help="one-variable classification")
    sp.add_argument("--k-max", type=int, default=6)
    sp.add_argument("--grid", required=True)
    common(sp)
    sp.set_defaults(func=cmd_classify_n1)

    sp = sub.add_parser("search-n2", help="two-variable search over a grid")
    sp.add_argument("--grid", required=True)
    sp.add_argument("--bound", type=int, default=6)
    common(sp)
    sp.set_defaults(func=cmd_search_n2)

    sp = sub.add_parser("catalog", help="known solution families")
    sp.add_argument("action", choices=("list", "gen"))
    sp.add_argument("--partition", help="comma-separated block dimensions")
    sp.add_argument("--K", type=int, default=1)
    sp.add_argument("--max-n", type=int, default=3)
    common(sp)
    sp.set_defaults(func=cmd_catalog)

    sp = sub.add_parser("einstein-check", help="numeric Einstein fit")
    sp.add_argument("--potential", required=True, help="potential JSON file or -")
    sp.add_argument("--points", type=int, default=5)
    sp.add_argument("--step", type=float, default=1e-3)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--seed", type=int, default=0)
    common(sp)
    sp.set_defaults(func=cmd_einstein_check)

    sp = sub.add_parser("report", help="echo mode: canonical round trip")
    sp.add_argument("--poly", required=True)
    common(sp)
    sp.set_defaults(func=cmd_report)

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
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"numeric domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())

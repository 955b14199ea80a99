"""Seeded job generators for the four benchmark workloads.

A job is a JSON-serialisable dict: the argv handed to ``toricpke.cli.main``
and the answer expected from it.  Every input polynomial is built here with
plain ``Fraction`` dictionaries, independently of the package's multiply
kernel, and written to a JSON file in the package's schema.  Expected
answers come from rules that share no code with the program under test:

* a product solution under x_i -> s_i * y_pi(i) stays a solution, with
  the sign of the equation multiplied by prod(s_i);
* a candidate with one coefficient bumped is refuted (certified later
  by the sympy oracle);
* the n=2 scan finds k in {2, 3}; the search finds, for each |r| on its
  grid, exactly the product solutions of (1,1) and (2) rescaled to the
  Cauchy data of r (each also re-verified by the oracle);
* the K=1 potential of a partition is Einstein with lambda = h.

Pass sizes are fitted to a run of tens of seconds on two cores: the n=4
verifications cost 5-11 s each at the seed commit, so each verify
workload carries one fixed n=4 partition (a fixed one, so that a pass
costs the same for every seed) next to all smaller partitions.
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction

WORKLOADS = ("verify-catalog", "refute-perturbed", "n2-classify", "einstein-fit")

# The n=4 partition each verify workload carries.  (2,1,1) verifies in
# about 6 s; (1,1,1,1) refutes in about 6 s for every bump, while the
# refutation cost of (2,1,1) and (2,2) depends on which term is bumped.
VERIFY_N4 = (2, 1, 1)
REFUTE_N4 = (1, 1, 1, 1)

# Nonzero rationals the n2-classify search grid is drawn from.
R_POOL = tuple(
    Fraction(v)
    for v in ("1", "-1", "2", "-2", "3", "-3", "1/2", "-1/2", "3/2", "-3/2",
              "2/3", "-2/3")
)

EINSTEIN_POINTS = 6
EINSTEIN_TOL = 1e-6


def partitions(n: int):
    """Partitions of n as non-increasing tuples, largest first part first."""
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in partitions(n - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


# -- term-map arithmetic, independent of toricpke.algebra ---------------

def _mul(a: dict, b: dict) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


def _block_power(n: int, block, denominator: int, power: int) -> dict:
    base = {(0,) * n: Fraction(1)}
    for j in block:
        exp = tuple(1 if i == j else 0 for i in range(n))
        base[exp] = Fraction(1, denominator)
    out = {(0,) * n: Fraction(1)}
    for _ in range(power):
        out = _mul(out, base)
    return out


def product_poly(partition, K: int = 0) -> dict:
    """prod_i (1 + (block i sum)/(n_i+1))^e_i on consecutive blocks.

    e_i = n_i + 1 gives the product solution; K >= 1 gives the folded
    potential polynomial with e_i = K(n_i+1)/h, h = gcd(n_i + 1).
    """
    n = sum(partition)
    h = math.gcd(*(ni + 1 for ni in partition))
    out = {(0,) * n: Fraction(1)}
    start = 0
    for ni in partition:
        power = ni + 1 if K == 0 else K * (ni + 1) // h
        out = _mul(out, _block_power(n, range(start, start + ni), ni + 1, power))
        start += ni
    return out


def transform(terms: dict, perm, flips) -> dict:
    """Substitute x_i -> flips[perm[i]] * y_perm[i]."""
    out = {}
    for exp, c in terms.items():
        new = [0] * len(exp)
        for i, e in enumerate(exp):
            new[perm[i]] = e
            if e % 2 and flips[perm[i]] < 0:
                c = -c
        out[tuple(new)] = c
    return out


def rescale(terms: dict, factors) -> dict:
    """Substitute x_i -> factors[i] * x_i."""
    return {e: c * math.prod(f**k for f, k in zip(factors, e)) for e, c in terms.items()}


def n2_solutions(grid) -> list:
    """The canonical n=2 solutions the search must report for the grid.

    The Cauchy data eps*(1+x1/r)^k on the axis, with first x2-derivative
    sigma*(r/k)*(1+x1/r)^2, continue to (1+x1/r)^2 (1+sigma*r*x2/4)^2 for
    k=2 and to (1+x1/r+sigma*r*x2/9)^3 for k=3, up to the overall sign
    eps.  The canonical form (P(0) = 1, linear coefficients >= 0) replaces
    r by |r|, so r and -r give the same two solutions.
    """
    out = {}
    for r in grid:
        r = abs(Fraction(r))
        for part, factors in (((1, 1), (2 / r, r / 2)), ((2,), (3 / r, r / 3))):
            terms = rescale(product_poly(part), factors)
            out[frozenset(terms.items())] = terms
    return list(out.values())


def poly_json(terms: dict) -> dict:
    nvars = len(next(iter(terms)))
    return {
        "nvars": nvars,
        "terms": [
            {"exp": list(e), "num": str(c.numerator), "den": str(c.denominator)}
            for e, c in sorted(terms.items(), key=lambda t: (sum(t[0]), t[0]))
        ],
    }


def terms_from_json(doc: dict) -> dict:
    return {
        tuple(int(v) for v in t["exp"]): Fraction(int(t["num"]), int(t["den"]))
        for t in doc["terms"]
    }


def _write(workdir: str, name: str, doc: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
    return path


def _variant(rng: random.Random, partition):
    n = sum(partition)
    perm = rng.sample(range(n), n)
    flips = [rng.choice((1, -1)) for _ in range(n)]
    return transform(product_poly(partition), perm, flips), math.prod(flips)


def _bump(rng: random.Random) -> Fraction:
    # denominators coprime to the catalog's, so a bump never cancels a term
    return rng.choice((1, -1)) * Fraction(rng.randint(1, 3), rng.choice((7, 11, 13)))


def _label(partition) -> str:
    return "(" + ",".join(map(str, partition)) + ")"


def gen_verify_catalog(rng, workdir):
    jobs = []
    parts = [p for n in (1, 2, 3) for p in partitions(n)] + [VERIFY_N4]
    for part in parts:
        terms, sign = _variant(rng, part)
        path = _write(workdir, f"verify-{len(jobs)}.json", poly_json(terms))
        jobs.append({
            "label": "verify " + _label(part),
            "argv": ["verify", "--poly", path, "--json"],
            "expect": {"kind": "verify", "codes": [0], "is_solution": True,
                       "sign": "+" if sign > 0 else "-"},
        })
    return jobs


def gen_refute_perturbed(rng, workdir):
    jobs = []
    small = [p for n in (2, 3) for p in partitions(n)]
    for part in small + [REFUTE_N4]:
        terms, _ = _variant(rng, part)
        exp = rng.choice(sorted(e for e in terms if sum(e)))
        terms[exp] += _bump(rng)
        path = _write(workdir, f"refute-{len(jobs)}.json", poly_json(terms))
        jobs.append({
            "label": "refute " + _label(part),
            "argv": ["verify", "--poly", path, "--json"],
            "expect": {"kind": "verify", "codes": [1], "is_solution": False},
        })
    # P(0) != +-1: the only acceptable answers are "refuted" and "bad input"
    part = rng.choice(small)
    terms, _ = _variant(rng, part)
    terms[(0,) * sum(part)] += _bump(rng)
    path = _write(workdir, f"refute-{len(jobs)}.json", poly_json(terms))
    jobs.append({
        "label": "refute-constant " + _label(part),
        "argv": ["verify", "--poly", path, "--json"],
        "expect": {"kind": "verify", "codes": [1, 2], "is_solution": False,
                   "may_fail": True},
    })
    return jobs


def gen_n2_classify(rng, workdir):
    r1, r2 = rng.sample(R_POOL, 2)
    return [
        {"label": "scan-k 6", "argv": ["scan-k", "--k-max", "6", "--json"],
         "expect": {"kind": "scan-k", "codes": [0], "feasible_k": [2, 3]}},
        {"label": f"search-n2 {r1},{r2}",
         "argv": ["search-n2", f"--grid={r1},{r2}", "--json"],
         "expect": {"kind": "search-n2", "codes": [0],
                    "solutions": [poly_json(t) for t in n2_solutions((r1, r2))]}},
    ]


def gen_einstein_fit(rng, workdir):
    jobs = []
    for n in (1, 2, 3, 4):
        for part in partitions(n):
            doc = {"kind": "log", "P": poly_json(product_poly(part, K=1)),
                   "k_num": 1, "k_den": 1}
            path = _write(workdir, f"einstein-{len(jobs)}.json", doc)
            h = math.gcd(*(ni + 1 for ni in part))
            jobs.append({
                "label": "einstein " + _label(part),
                "argv": ["einstein-check", "--potential", path,
                         "--points", str(EINSTEIN_POINTS),
                         "--seed", str(rng.randrange(2**31)),
                         "--tol", repr(EINSTEIN_TOL), "--json"],
                "expect": {"kind": "einstein", "codes": [0], "lambda": h,
                           "tol": EINSTEIN_TOL},
            })
    return jobs


GENERATORS = {
    "verify-catalog": gen_verify_catalog,
    "refute-perturbed": gen_refute_perturbed,
    "n2-classify": gen_n2_classify,
    "einstein-fit": gen_einstein_fit,
}


def generate(workload: str, seed: int, workdir: str) -> list:
    """Write the workload's input files into workdir and return its jobs."""
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng, workdir)

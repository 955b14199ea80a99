"""Shared helpers: reference oracles and random polynomial builders.

The naive oracle multiplies term maps with plain dictionary loops and
Fraction arithmetic, fully independent of the packed-kernel code path, so
it can serve as a cross-check for every derived expansion in the tests.
The direct log-type oracle expands the full determinant of the log-type
matrix and divides by Q^(n-1), a route the engine itself does not take.
"""

import random
from fractions import Fraction

from toricpke.algebra import MultiPoly, determinant, exact_divide
from toricpke.ma_engine import log_ma_matrix


def naive_mul(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Reference product computed without the multiplication kernel."""
    acc = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            exp = tuple(x + y for x, y in zip(ea, eb))
            acc[exp] = acc.get(exp, Fraction(0)) + ca * cb
    return MultiPoly(a.nvars, acc)


def direct_lhs_log(q: MultiPoly) -> MultiPoly:
    """Log-type left side det M/Q^(n-1) by Bareiss elimination of M itself."""
    return exact_divide(determinant(log_ma_matrix(q)), q ** (q.nvars - 1))


def n2_residual(p: MultiPoly, eq_sign: int) -> MultiPoly:
    """det M - eq_sign*P^3 for the two-variable log-type equation."""
    m = log_ma_matrix(p)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return det - eq_sign * p**3


def naive_pow(a: MultiPoly, k: int) -> MultiPoly:
    out = MultiPoly.one(a.nvars)
    for _ in range(k):
        out = naive_mul(out, a)
    return out


COEFF_POOL = [
    Fraction(v)
    for v in (-3, -2, -1, 1, 2, 3)
] + [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(2, 3)]


def random_poly(rng: random.Random, nvars: int, max_degree: int,
                max_terms: int = 5) -> MultiPoly:
    """Random sparse polynomial with small rational coefficients."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = [0] * nvars
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            exp[rng.randrange(nvars)] += 1
        terms[tuple(exp)] = rng.choice(COEFF_POOL)
    return MultiPoly(nvars, terms)


def random_nonzero_poly(rng: random.Random, nvars: int, max_degree: int,
                        max_terms: int = 5) -> MultiPoly:
    while True:
        p = random_poly(rng, nvars, max_degree, max_terms)
        if not p.is_zero():
            return p

"""Shared helpers: reference oracles and random polynomial builders.

The naive oracle multiplies term maps with plain dictionary loops and
Fraction arithmetic, fully independent of the packed-kernel code path, so
it can serve as a cross-check for every derived expansion in the tests.
The direct log-type oracle expands the full determinant of the log-type
matrix and divides by Q^(n-1), a route the engine itself does not take.
The metric oracle builds every derivative of P as a polynomial and
evaluates each on its own, where eval_metric fills one monomial table;
derivative_rows gives those polynomials' terms, against which the
metric's plan, read off P's integer numerators, is checked.
count_term_pairs wraps the kernel entry to count the work handed to it,
independently of algebra's own meter.  euler_by_terms and dlog_by_terms
build the point test's Euler matrix and log-derivatives one term at a
time, where einstein sums them over columns of exponents.
point_first_exponent decides L = C*(eps*P)^e in the order where the
point test always runs first, against which einstein_exponent's lazy
point test is checked.
"""

import math
import operator
import random
from fractions import Fraction

from toricpke import algebra, einstein
from toricpke.algebra import DomainError, MultiPoly, determinant, exact_divide
from toricpke.einstein import _TEST_PRIME, EinsteinExponent, _eliminate
from toricpke.ma_engine import log_ma_matrix


def count_term_pairs(monkeypatch) -> list:
    """Count the term pairs the kernel is handed, over every item of every sum.

    Returns a one-element list that each kernel call adds its pairs to; a
    plain addend (s, a, None) multiplies no term pair.
    """
    pairs = [0]
    dot_terms = algebra.dot_terms

    def counting(items):
        pairs[0] += sum(len(a) * len(b) for _, a, b in items if b is not None)
        return dot_terms(items)

    monkeypatch.setattr(algebra, "dot_terms", counting)
    return pairs


def point_first_exponent(p: MultiPoly) -> EinsteinExponent:
    """einstein_exponent of kind "log" with the point test run first.

    The point test refutes with its certificate, or its e (None where it
    is inconclusive) is the one _block_loop tries on every block, with no
    point hook; einstein_exponent runs the test only when a block refutes
    or before the first symbolic block.
    """
    den, values, euler = einstein._front_end(p)
    c = einstein.origin_value(p)
    if not c:
        raise DomainError("metric degenerate at the origin")
    refuted_at, e = einstein._exponent_at_point(p, den, values, euler)
    if refuted_at is not None:
        return EinsteinExponent(None, None, refuted_at)
    e = einstein._block_loop(p.nvars, einstein._product_blocks(p, euler)[1], e)
    return EinsteinExponent(None, None) if e is None else EinsteinExponent(c, e)


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


def derivative_metric(potential, xi, eta) -> list:
    """g_ij = d^2 Phi/(d xi_i d eta_j) from derivative polynomials of P.

    f_ij*xi_j*eta_i + f_i*delta_ij with f = P or f = k*log P, whose
    derivatives are k*P_i/P and k*(P_ij/P - P_i*P_j/P^2); each P_i and
    P_ij is a partial_derivative, evaluated by MultiPoly.evaluate.
    """
    n = potential.nvars
    x = [a * b for a, b in zip(xi, eta)]
    grad = [potential.P.partial_derivative(i) for i in range(n)]
    f1 = [d.evaluate(x) for d in grad]
    f2 = [[d.partial_derivative(j).evaluate(x) for j in range(n)] for d in grad]
    if potential.kind == "log":
        p = potential.P.evaluate(x)
        k = potential.k if isinstance(p, Fraction) else float(potential.k)
        f2 = [[k * (f2[i][j] / p - f1[i] * f1[j] / (p * p)) for j in range(n)]
              for i in range(n)]
        f1 = [k * v / p for v in f1]
    return [[f2[i][j] * xi[j] * eta[i] + (f1[i] if i == j else 0) for j in range(n)]
            for i in range(n)]


def derivative_rows(potential) -> list:
    """P (kind "log" only), each P_i, then each P_ij (j >= i), as term lists.

    Each derivative is a partial_derivative polynomial; its terms are
    (exponent, Fraction) pairs in storage order.
    """
    n = potential.nvars
    grad = [potential.P.partial_derivative(i) for i in range(n)]
    hess = [grad[i].partial_derivative(j) for i in range(n) for j in range(i, n)]
    return [list(d.terms.items())
            for d in [potential.P] * (potential.kind == "log") + grad + hess]


def euler_by_terms(p: MultiPoly):
    """(den, [(e, v)], E): the terms of Q = den*P, their values v at the
    test point and E = sum v*w*w^T, w = (e, 1), modulo the test prime,
    one term at a time."""
    q = _TEST_PRIME
    n = p.nvars
    point = [pow(2 * i + 3, -1, q) for i in range(n)]
    den, numerators = p.integer_terms
    values = [(e, c * math.prod(pow(x, k, q) for x, k in zip(point, e)) % q)
              for e, c in numerators.items()]
    w = [list(e) + [1] for e, _ in values]
    rows = [[sum(wt[i] * wt[j] * v for wt, (_, v) in zip(w, values)) % q
             for j in range(n + 1)] for i in range(n + 1)]
    return den, values, rows


def dlog_by_terms(values: list, rows: list):
    """sum e_i*v*(w^T*rows^-1*w) - 1 for each i, w = (e, 1), one term at a
    time, or None where rows is singular."""
    q = _TEST_PRIME
    inv = _eliminate(rows, inverse=True)[1]
    if inv is None:
        return None
    n = len(values[0][0])
    acc = [-1] * n
    for e, v in values:
        w = [k % q for k in e] + [1]
        form = sum(wa * sum(map(operator.mul, row, w)) for wa, row in zip(w, inv))
        for i in range(n):
            acc[i] += w[i] * v * form
    return [a % q for a in acc]


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

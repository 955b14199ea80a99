"""Independent sympy checks of the answers the benchmark expects.

Nothing here imports toricpke: the log-type Monge-Ampere matrix
M_ab = (P P_ab - P_a P_b) x_a + P P_a delta_ab is rebuilt from sympy
polynomials, and a candidate P in n variables solves the equation with
sign eps exactly when det M = eps * P^(n-1) * P^n.
"""

from __future__ import annotations

from fractions import Fraction

import sympy

# Rational points tried, in order, for a refutation certificate.
POINTS = (
    (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)),
    (Fraction(-2, 3), Fraction(3, 5), Fraction(-5, 7), Fraction(7, 11)),
    (Fraction(3, 4), Fraction(-1, 6), Fraction(2, 9), Fraction(-4, 13)),
)


def _poly(terms: dict):
    n = len(next(iter(terms)))
    gens = sympy.symbols(f"x1:{n + 1}")
    data = {e: sympy.Rational(c.numerator, c.denominator) for e, c in terms.items()}
    return sympy.Poly.from_dict(data, *gens, domain=sympy.QQ), gens


def _ma_entries(p, gens):
    n = len(gens)
    grad = [p.diff(g) for g in gens]
    rows = []
    for a in range(n):
        xa = sympy.Poly(gens[a], *gens, domain=sympy.QQ)
        row = []
        for b in range(n):
            entry = (p * grad[a].diff(gens[b]) - grad[a] * grad[b]) * xa
            if a == b:
                entry = entry + p * grad[a]
            row.append(entry)
        rows.append(row)
    return rows


def _det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = rows[0][j] * _det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def solution_sign(terms: dict):
    """+1 or -1 when P solves the log-type equation with that sign, else None."""
    p, gens = _poly(terms)
    n = len(gens)
    det = _det(_ma_entries(p, gens))
    rhs = p ** (2 * n - 1)
    if det == rhs:
        return 1
    if det == -rhs:
        return -1
    return None


def refutation_point(terms: dict):
    """A rational point where det M - eps*P^(2n-1) is nonzero for both eps.

    Such a point certifies that P is not a solution of either sign.
    Returns None when none of the fixed points certifies it.
    """
    p, gens = _poly(terms)
    n = len(gens)
    grad = [p.diff(g) for g in gens]
    hess = [[ga.diff(g) for g in gens] for ga in grad]
    for point in POINTS:
        pt = [sympy.Rational(v.numerator, v.denominator) for v in point[:n]]
        pv = p.eval(dict(zip(gens, pt)))
        gv = [g.eval(dict(zip(gens, pt))) for g in grad]
        m = sympy.Matrix(n, n, lambda a, b: (
            (pv * hess[a][b].eval(dict(zip(gens, pt))) - gv[a] * gv[b]) * pt[a]
            + (pv * gv[a] if a == b else 0)
        ))
        det = m.det()
        rhs = pv ** (2 * n - 1)
        if det - rhs != 0 and det + rhs != 0:
            return tuple(point[:n])
    return None

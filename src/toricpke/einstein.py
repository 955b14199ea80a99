"""Exact decision whether a toric potential is Einstein.

For Phi = k*log P, det g = k^n*L/P^(n+1) with L = ma_lhs_log(P), a
function of x alone, and Ric = lambda*g holds exactly when log|det g| +
lambda*Phi is pluriharmonic, which for a toric function smooth at 0
means constant: L = C*(eps*P)^e with eps = P(0), C = L(0) and lambda =
(n+1-e)/k.  For Phi = P, det g = ma_lhs_flat(P), and Ric = lambda*g
holds exactly when that is a nonzero constant C, with lambda = 0.  At
the origin L is P(0)*prod a_i, resp. prod a_i, for the linear
coefficients a_i of P, so a zero a_i means the metric is degenerate
there.

einstein_exponent works at ma_engine's test point first, modulo the
prime 2^61 - 1.  By Jacobi's formula theta_i log L = tr(E^-1*theta_i E)
- 1 for the Euler matrix E of ma_engine._euler_matrix, where
theta_i E holds the same term sums with one more factor e_i: the vectors
theta log L and theta log P must be proportional, with a ratio that
rational reconstruction turns into an e in [0, n+1], or the point
refutes with a certificate.  ma_engine's blocks then reduce L = C*P^e to
L_b = C_b*P_b^(e-n+n_b) per block.  A block that is a linear form
f(<a, x>) is checked in one variable, any other through ma_lhs_log,
and either by a power-free identity, metered by algebra.symbolic_budget.
The same block check, at e = n_b, decides ma_engine.verify_ma_star, and the
kind "poly" decision decides ma_engine.classify_flat.  ma_engine imports
this module when those run, as this module imports ma_engine.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import NamedTuple, Optional

from toricpke import ma_engine
from toricpke.algebra import DomainError, MultiPoly, fraction_to_str, symbolic_budget
from toricpke.algebra import MAX_SYMBOLIC_PAIRS, SymbolicLimitError  # noqa: F401  re-exported
from toricpke.ma_engine import (
    _TEST_PRIME,
    _euler_rows,
    _linear_coefficients,
    _product_blocks,
    _term_residues,
    _test_point,
)


class DlogRefutation(NamedTuple):
    """Residues of theta_i log L and theta_i log P at the test point.

    L = C*P^e makes theta_i log L = e*theta_i log P for every i, and
    e = deg L/deg P is a rational in [0, n+1] whose denominator is at most
    deg P.  The residues, modulo a prime that divides no denominator
    involved, certify that no such e exists: the two vectors are not
    proportional, or their ratio is no such rational.  For the flat-type
    left side e is 0, so any nonzero dlog_lhs certifies, and dlog_p is
    None.
    """

    point: tuple  # Fractions
    modulus: int
    dlog_lhs: tuple
    dlog_p: Optional[tuple]

    def to_json_dict(self) -> dict:
        return {
            "point": [fraction_to_str(v) for v in self.point],
            "modulus": str(self.modulus),
            "dlog_lhs": [str(v) for v in self.dlog_lhs],
            "dlog_p": None if self.dlog_p is None else [str(v) for v in self.dlog_p],
        }


class EinsteinExponent(NamedTuple):
    """L = C*(eps*P)^e exactly, with eps = P(0) and C = L(0); or a refutation.

    C and e are None on a refutation, and refuted_at is its certificate
    when the point test found it.  For the flat-type left side e is 0.
    """

    C: Optional[Fraction]
    e: Optional[Fraction]
    refuted_at: Optional[DlogRefutation] = None


def _inverse_mod(rows: list, q: int) -> Optional[list]:
    """Inverse of an integer matrix modulo the prime q, or None if singular."""
    n = len(rows)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k] % q), None)
        if piv is None:
            return None
        a[k], a[piv] = a[piv], a[k]
        inv = pow(a[k][k], -1, q)
        a[k] = [v * inv % q for v in a[k]]
        for i in range(n):
            f = a[i][k]
            if i != k and f:
                a[i] = [(u - f * w) % q for u, w in zip(a[i], a[k])]
    return [row[n:] for row in a]


def _dlog_lhs(values: list, rows: list) -> Optional[list]:
    """theta_i log L at the test point, i = 1..n, or None where L is 0 there.

    rows is sum v*w*w^T over the term values (e, v) of _term_residues,
    with w = (e, 1) for the Euler matrix E or w = e for its block T, and
    its determinant is x_1*...*x_n times a constant times the left side L,
    log-type for E and flat-type for T.  theta_i rows = sum e_i*v*w*w^T,
    one more factor e_i per term, so by Jacobi's formula theta_i log L =
    tr(rows^-1*theta_i rows) - 1 = sum e_i*v*(w^T*rows^-1*w) - 1, one
    pass over the terms.
    """
    q = _TEST_PRIME
    inv = _inverse_mod(rows, q)
    if inv is None:
        return None
    n = len(values[0][0])
    acc = [-1] * n
    for e, v in values:
        w = [k % q for k in e] + [1] * (len(rows) - n)
        form = sum(wa * sum(map(operator.mul, row, w)) for wa, row in zip(w, inv))
        vf = v * form % q
        for i in range(n):
            acc[i] += w[i] * vf
    return [a % q for a in acc]


def _rational_reconstruction(r: int, q: int, num_bound: int, den_bound: int):
    """The a/b = r modulo q with |a| <= num_bound and 0 < b <= den_bound, or None.

    Such a fraction is unique when 2*num_bound*den_bound < q, and the
    extended Euclidean algorithm on (q, r), stopped at the first remainder
    within num_bound, finds it (von zur Gathen and Gerhard, Modern
    Computer Algebra, section 5.10).
    """
    r0, s0, r1, s1 = q, 0, r % q, 1
    while r1 > num_bound:
        k = r0 // r1
        r0, r1 = r1, r0 - k * r1
        s0, s1 = s1, s0 - k * s1
    if not 0 < abs(s1) <= den_bound:
        return None
    return Fraction(r1, s1)


def _exponent_at_point(p: MultiPoly, den: int, values: list, euler: list):
    """(certificate, e): a DlogRefutation, or the exponent the point allows.

    At the test point theta_i log L comes from the Euler matrix E (see
    _dlog_lhs), and theta_i log P = U_i/V.  When the
    two vectors are proportional their ratio is e, found by rational
    reconstruction with the bounds of DlogRefutation; e is None when the
    test is inconclusive: the prime divides den, P(pt) or L(pt) reads
    zero, theta log P reads zero, or deg P is too large for the
    reconstruction to be unique.
    """
    q = _TEST_PRIME
    n = p.nvars
    v = euler[n][n]
    if den % q == 0 or not v:
        return None, None
    dlog_l = _dlog_lhs(values, euler)
    if dlog_l is None:
        return None, None
    v_inv = pow(v, -1, q)
    dlog_p = [euler[i][n] * v_inv % q for i in range(n)]
    pivot = next((i for i in range(n) if dlog_p[i]), None)
    ratio = 0 if pivot is None else dlog_l[pivot] * pow(dlog_p[pivot], -1, q) % q
    if all((l - ratio * d) % q == 0 for l, d in zip(dlog_l, dlog_p)):
        deg = p.degree()
        if pivot is None or 2 * (n + 1) * deg * deg >= q:
            return None, None
        e = _rational_reconstruction(ratio, q, (n + 1) * deg, deg)
        if e is not None and 0 <= e <= n + 1:
            return None, e
    return DlogRefutation(_test_point(n), q, tuple(dlog_l), tuple(dlog_p)), None


def _linear_form(f: MultiPoly) -> Optional[tuple]:
    """(u, g) with f = u(<a, x>) and ma_lhs_log(f) = g(<a, x>), or None.

    a_i is the coefficient of x_i, each nonzero.  f is u(<a, x>), with
    u(t) = f(t/a_1, 0, ..., 0), exactly when a_1*d_i f = a_i*d_1 f for
    every i: a test with no product.  Then ma_lhs_log(f) is
    prod(a_i)*[u'^(n-1)*L_1(u)](<a, x>), L_1 the one-variable left side.
    """
    n = f.nvars
    a = _linear_coefficients(f)
    d0 = f.partial_derivative(0)
    if not all(a[0] * f.partial_derivative(i) == a[i] * d0 for i in range(1, n)):
        return None
    u = f.restrict((0,)).scale_vars([1 / a[0]])
    scale = math.prod(a, start=Fraction(1))
    return u, scale * u.partial_derivative(0) ** (n - 1) * ma_engine.ma_lhs_log(u)


def _block_exponent(f: MultiPoly, e: Optional[Fraction]) -> Optional[Fraction]:
    """The e with ma_lhs_log(f) = C*(eps*f)^e, or None; e, if given, is the only one tried.

    Every linear coefficient of f must be nonzero.  A linear form
    u(<a, x>) in two or more variables is checked in one variable, as
    g = C*u^e for its univariate left side g (see _linear_form); any other
    f, one variable included (its rescaling to u would cost the size of
    its exponents), as g = C*f^e for g = ma_lhs_log(f), both metered
    within MAX_SYMBOLIC_PAIRS kernel term pairs.
    """
    pair = _linear_form(f) if f.nvars > 1 else None
    if pair is not None:
        return _power_exponent(*pair, e)
    with symbolic_budget():
        return _power_exponent(f, ma_engine.ma_lhs_log(f), e)


def _power_exponent(u: MultiPoly, g: MultiPoly, e: Optional[Fraction]) -> Optional[Fraction]:
    """The e with g = C*u^e, or None: with e = s/q, by default deg g/deg u,
    exactly when q*u*d_i g = s*g*d_i u for every i, so no power is taken."""
    if e is None:
        e = Fraction(g.degree(), u.degree())
    s, q = e.numerator, e.denominator
    for i in range(u.nvars):
        if q * u * g.partial_derivative(i) != s * g * u.partial_derivative(i):
            return None
    return e


def einstein_exponent(p: MultiPoly, kind: str = "log") -> EinsteinExponent:
    """Decide exactly whether the left side L of P is C*(eps*P)^e, eps = P(0).

    For Phi = k*log P, det g = k^n*L/P^(n+1) with L = ma_lhs_log(P), and
    Ric = lambda*g holds exactly when L = C*(eps*P)^e, lambda =
    (n+1-e)/k.  For Phi = P (kind "poly"), det g = ma_lhs_flat(P), and Ric
    = lambda*g holds exactly when that is a nonzero constant C, lambda = 0.
    At the origin L is P(0)*prod a_i, resp. prod a_i, for the linear
    coefficients a_i of P; DomainError when it is 0 (the metric is
    degenerate there).

    Kind "log": the point test (_exponent_at_point) refutes with a
    certificate, or proposes e.  P's blocks (_product_blocks) then give
    L = eps^((m-1)(n+1))*prod L_b*P_b^(n-n_b), so L = C*(eps*P)^e exactly
    when every block has L_b = C_b*(eps*P_b)^(e-n+n_b), each checked by
    _block_exponent; with no e from the point, the first block's degrees
    give it.  Kind "poly": an affine P needs no determinant; otherwise
    the point test on the block T of the Euler matrix (det T =
    x_1*...*x_n*den^n*det A) refutes unless theta_i log det A reads zero
    for every i, and ma_lhs_flat(P), metered likewise, decides.
    """
    n = p.nvars
    c = math.prod(_linear_coefficients(p), start=Fraction(1))
    if kind == "log":
        eps = p.constant_term()
        if eps not in (1, -1):
            raise ValueError("log-type candidate needs constant term +-1")
        c *= eps
    elif kind != "poly":
        raise ValueError(f"unknown potential kind {kind!r}")
    if not c:
        raise DomainError("metric degenerate at the origin")
    if kind == "poly" and p.degree() <= 1:
        return EinsteinExponent(c, Fraction(0))
    den, values = _term_residues(p)
    euler = _euler_rows(n, values)
    if kind == "poly":
        block = [row[:n] for row in euler[:n]]
        dlog = None if den % _TEST_PRIME == 0 else _dlog_lhs(values, block)
        if dlog is not None and any(dlog):
            return EinsteinExponent(None, None, DlogRefutation(
                _test_point(n), _TEST_PRIME, tuple(dlog), None))
        with symbolic_budget():
            flat = ma_engine.ma_lhs_flat(p)
        if flat.is_constant():
            return EinsteinExponent(c, Fraction(0))
        return EinsteinExponent(None, None)
    refuted_at, e = _exponent_at_point(p, den, values, euler)
    if refuted_at is not None:
        return EinsteinExponent(None, None, refuted_at)
    blocks, factors = _product_blocks(p, euler)
    for b, f in zip(blocks, factors):
        eb = _block_exponent(f, None if e is None else e - n + len(b))
        if eb is None:
            return EinsteinExponent(None, None)
        e = eb + n - len(b)
    return EinsteinExponent(c, e)

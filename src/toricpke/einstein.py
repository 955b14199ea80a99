"""The exact decision whether the left side L of P is C*(eps*P)^e.

Every verdict on a potential is a case of this one decision, with
L = ma_engine.ma_lhs_log(P) and eps = P(0) = +-1.  For Phi = k*log P,
det g = k^n*L/P^(n+1), a function of x alone, and Ric = lambda*g holds
exactly when log|det g| + lambda*Phi is pluriharmonic, which for a toric
function smooth at 0 means constant: L = C*(eps*P)^e with lambda =
(n+1-e)/k (einstein_exponent).  The normalized equation L = +-P^n is the
case e = n with C*eps^n = +-1 (star_decision, which decides
ma_engine.verify_ma_star; star_witness builds L itself, from the blocks
below, for verify --witness).  For Phi = P, det g = ma_lhs_flat(P), and
Ric = lambda*g holds exactly when that is a nonzero constant C, with
lambda = 0 (kind "poly"): by the theorem below, exactly when P is affine.

  Theorem.  If every linear coefficient a_i of P is nonzero, A =
  ma_lhs_flat(P) is constant exactly when P is affine, and then A =
  prod a_i.

  Proof.  Over the terms c_s*x^s of P, d_j(theta_i P) is entry (i, j)
  of H*diag(1/x), H = sum c_s*s*s^T*x^s, so A = det H/(x_1*...*x_n), and
  by Cauchy-Binet det H = sum_S det[S]^2*prod_S c_s*x^s over the n-sets
  S of exponents.  Weigh s by w.s, w = 1 + delta*u, u generic and delta
  small: the weights are distinct and order the exponents by total
  degree first.  The exponents span, holding e_1, ..., e_n, so they have
  a unique heaviest basis B (greedy, Edmonds 1971); an S with sum_S s =
  sum_B s weighs as much as B, so S = B, and x^(sum_B s) has the
  coefficient det[B]^2*prod_B c_s != 0 in det H.  Greedy first takes an
  exponent of degree deg P, the other n - 1 have degree >= 1, so deg P >=
  2 makes |sum_B s| > n: det H has a monomial other than x_1*...*x_n,
  and A is not constant.  Affine P has A = det diag(a).  []

The value at the origin.  L(0) is eps*prod a_i, and the flat-type left
side prod a_i, over the linear coefficients a_i of P (origin_value).
That is C, the sign of the normalized equation is eps^n*L(0), and a zero
a_i makes the metric degenerate at the origin.

The Euler matrix.  Let Q = den*P over P's common denominator den and
theta_i = x_i*d/dx_i.  At a point x with nonzero coordinates, column
j <= n of ma_lhs_log's bordered matrix, times x_j, is (T_.j, U_j) in
E = [[T, U], [U^T, V]], with V = Q(x), U_i = x_i*Q_i and T_ij =
x_i*x_j*Q_ij + delta_ij*U_i: the rows of the generators theta_1 Q, ...,
theta_n Q, Q with theta_j in place of d_j.  L has degree n+1 in P, so
det E = x_1*...*x_n*den^(n+1)*L(x).  Over the term values v = c*x^e of
Q these are V = sum v, U_i = sum e_i*v and T_ij = sum e_i*e_j*v, so
E = sum v*w*w^T with w = (e, 1) and needs no polynomial product.  It is
taken at the test point x_i = 1/(2i+3), i = 0..n-1, modulo the prime
2^61 - 1, where a term costs the bit length of its exponents rather than
their size (a term x^(10^40) has a 10^40-digit value there).

The point certificates.  For e = n, residues of L(pt) and P(pt)^n = (V/den)^n
that are neither equal nor opposite refute (PointRefutation).  For a
free e, Jacobi's formula gives theta_i log L = tr(E^-1*theta_i E) - 1,
where theta_i E holds the same term sums with one more factor e_i, so
L = C*P^e needs the vectors theta log L and theta log P = U/V to be
proportional, with a ratio that rational reconstruction turns into an e
in [0, n+1]; the residues refute otherwise (DlogRefutation).  By the
Schwartz-Zippel lemma a nonzero polynomial rarely vanishes at a point;
a test that reads zero, or a prime that divides den, leaves the
decision to the symbolic check.  Both tests are sound: on a solution
the residues for e = n are equal or opposite, and on an Einstein P the
test for a free e can only propose the one e = deg L/deg P that the
blocks derive.  So both decisions run their test only where it adds
something: to supply the certificate once the blocks have refuted, and
before the first block that needs the symbolic check, which it may
refute or, for a free e, whose e it fixes.

The blocks.  If P*P_ij - P_i*P_j (P^2 times the mixed partial of log P)
vanishes for every i and j in different blocks, then P =
eps^(1-m)*prod P_b over its m blocks, P_b the restriction of P to block
b (the other variables set to 0), and L = eps^((m-1)(n+1))*prod
L_b*P_b^(n-n_b), L_b the left side of P_b in its n_b variables.  So
L = C*(eps*P)^e exactly when every block has L_b = C_b*(eps*P_b)^(e-n+n_b);
for e = n these are L_b = c_b*P_b^(n_b), c_b = L_b(0)/eps^(n_b), and the
sign eps^(m-1)*prod c_b must be +-1, which refutes before any
determinant.  At the test point x_i*x_j*(Q*Q_ij - Q_i*Q_j) is
V*T_ij - U_i*U_j for i != j: a nonzero residue certifies a coupling, a
zero one may be an accident, so the split is certified by comparing P
with eps^(1-m)*prod P_b exactly, and falls back to one block of all
variables when the comparison fails or P vanishes at the point.  The
factors have disjoint variables and nonzero coefficients, so their
product has exactly prod |P_b| terms: the comparison first counts
terms, and takes the product, then of |P| terms, only when the counts
agree.

The block check.  Let f be a block of N variables with f(0) = eps and
nonzero linear coefficients a_i.  It is a linear form f = u(<a, x>)
exactly when a_1*d_i f = a_i*d_1 f for every i (tested term by term);
with N = 1 it is one, u = f.  Then ma_lhs_log(f) = prod(a_i)*g(<a, x>)
with g = u'^(N-1)*L_1(u) and L_1(u) = u*(u' + t*u'') - t*u'^2 the
one-variable left side, so the block holds with e = s/q exactly when
q*u*g' = s*g*u', and:

  Theorem.  With u(0) = eps = +-1, u'(0) != 0 and N >= 1, q*u*g' =
  s*g*u' holds with e = s/q exactly when u = eps*(1 + t/r)^k for a
  rational r, and then e = (k-1)(N+1)/k.

  Proof.  Over the complex numbers u = eps*prod_j (1 - t/alpha_j)^(m_j)
  with d distinct roots alpha_j != 0 and D = sum m_j = deg u >= 1.  As
  t*L_1 = u^2*theta^2 log u, L_1 = u^2*sum_j -m_j*alpha_j/(t - alpha_j)^2
  vanishes to order exactly 2*m_j - 2 at alpha_j, where u' vanishes to
  order m_j - 1.  The identity says g^q/u^s has zero derivative, so
  g^q = K*u^s with K != 0, and g has no root off the roots of u.  If
  N >= 2, u' divides g, so the D - 1 roots of u' (with multiplicity) are
  among the sum_j (m_j - 1) = D - d it has at the roots of u: d = 1.  If
  N = 1, g = L_1 = K'*prod_j (t - alpha_j)^(2*m_j - 2), so sum_j
  m_j*alpha_j/(t - alpha_j)^2 = K''/prod_j (t - alpha_j)^2; at t = oo the
  left side is sum_(i>=1) i*(sum_j m_j*alpha_j^i)/t^(i+1) and the right
  side is O(t^(-2d)), so sum_j m_j*alpha_j^i = 0 for i = 1..2d-2.  For
  d >= 2 that covers i = 1..d, and the Vandermonde matrix (alpha_j^i),
  nonsingular as the alpha_j are distinct and nonzero, forces every
  m_j = 0, which is impossible: d = 1.  So u = eps*(1 + t/r)^k with
  k = D, and r = eps*k/u'(0) is rational.  Then u' and L_1 are constant
  multiples of (1 + t/r)^(k-1) and (1 + t/r)^(2k-2), g of
  (1 + t/r)^((k-1)(N+1)), and the identity holds with e = (k-1)(N+1)/k
  and no other e.  []

So a linear-form block is decided by algebra.binomial_profile of f with
the variables but x_1 set to 0, which rescales t and so keeps k: a
NotBinomialPowerError refutes, and otherwise e_b = (k-1)(N+1)/k, with no
product.  Any other block is decided by that identity for f and
ma_lhs_log(f) themselves, metered by algebra.symbolic_budget.  One loop
over the blocks serves both decisions (_block_loop).  It decides the
one-variable and linear-form blocks first, so a product of such blocks,
every catalog product and potential among them, is decided with no
point test and no product past the split's, and the point test of
either decision runs, at most once, only when the blocks refute (a
sign of L = +-P^n off +-1 included) or before the first symbolic
block.  ma_engine imports this module inside the functions that
use it, as this module imports ma_engine.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import NamedTuple, Optional

from toricpke import ma_engine
from toricpke.algebra import (
    DomainError,
    MultiPoly,
    NotBinomialPowerError,
    binomial_profile,
    fraction_to_str,
    symbolic_budget,
)

# The modulus of the point tests (see the module docstring).
_TEST_PRIME = 2**61 - 1


def _test_point(n: int) -> tuple:
    return tuple(Fraction(1, 2 * i + 3) for i in range(n))


class PointRefutation(NamedTuple):
    """Residues of L(pt) and P(pt)^n modulo a prime, neither equal nor opposite.

    Reduction modulo a prime is a ring map on the rationals whose
    denominators it does not divide, so L(pt) != +-P(pt)^n, and P solves
    the equation with neither sign.
    """

    point: tuple  # Fractions
    modulus: int
    lhs: int
    rhs: int

    def to_json_dict(self) -> dict:
        return {
            "point": [fraction_to_str(v) for v in self.point],
            "modulus": str(self.modulus),
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
        }


class DlogRefutation(NamedTuple):
    """Residues of theta_i log L and theta_i log P at the test point.

    L = C*P^e makes theta_i log L = e*theta_i log P for every i, and
    e = deg L/deg P is a rational in [0, n+1] whose denominator is at most
    deg P.  The residues, modulo a prime that divides no denominator
    involved, certify that no such e exists: the two vectors are not
    proportional, or their ratio is no such rational.
    """

    point: tuple  # Fractions
    modulus: int
    dlog_lhs: tuple
    dlog_p: tuple

    def to_json_dict(self) -> dict:
        return {
            "point": [fraction_to_str(v) for v in self.point],
            "modulus": str(self.modulus),
            "dlog_lhs": [str(v) for v in self.dlog_lhs],
            "dlog_p": [str(v) for v in self.dlog_p],
        }


class EinsteinExponent(NamedTuple):
    """L = C*(eps*P)^e exactly, with eps = P(0) and C = L(0); or a refutation.

    C and e are None on a refutation, and refuted_at is its certificate
    when the point test found it.  For the flat-type left side e is 0.
    """

    C: Optional[Fraction]
    e: Optional[Fraction]
    refuted_at: Optional[DlogRefutation] = None


def linear_coefficients(p: MultiPoly) -> list:
    n = p.nvars
    return [p.coefficient(tuple(int(j == i) for j in range(n))) for i in range(n)]


def origin_value(p: MultiPoly, kind: str = "log") -> Fraction:
    """L(0): eps*prod a_i for kind "log", eps = P(0), and prod a_i for "poly".

    The product is taken over P's integer numerators, with one division.
    """
    n = p.nvars
    den, c = p.integer_terms
    factors = [c.get(tuple(int(j == i) for j in range(n)), 0) for i in range(n)]
    if kind == "log":
        factors.append(c.get((0,) * n, 0))
    return Fraction(math.prod(factors), den ** len(factors))


def _euler(p: MultiPoly):
    """(den, (columns, values), E) for the terms c*x^e of Q = den*P.

    columns[i] holds the exponents e_i and values the values c*x^e at the
    test point, both in Q's term order, and E = sum v*w*w^T, w = (e, 1),
    is Q's Euler matrix; values and E are modulo the test prime.
    """
    q = _TEST_PRIME
    n = p.nvars
    den, numerators = p.integer_terms
    columns = list(zip(*numerators))
    values = list(numerators.values())
    for column, x in zip(columns, _test_point(n)):
        x = x.numerator * pow(x.denominator, -1, q) % q
        power = {k: pow(x, k, q) for k in set(column)}
        values = list(map(operator.mul, values, map(power.__getitem__, column)))
    values = [v % q for v in values]
    weighted = [list(map(operator.mul, column, values)) for column in columns]
    euler = [sum(w) % q for w in weighted]
    rows = [[0] * n + [u] for u in euler]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = sum(map(operator.mul, columns[j], weighted[i])) % q
    rows.append(euler + [sum(values) % q])
    return den, (columns, values), rows


def _front_end(p: MultiPoly):
    """(den, values, E) of P (see _euler), once P(0) = +-1 holds."""
    if p.constant_term() not in (1, -1):
        raise ValueError("log-type candidate needs constant term +-1")
    return _euler(p)


def _eliminate(rows: list, inverse: bool = False):
    """(det, inv) of an integer matrix modulo the test prime.

    Forward elimination gives the determinant.  When the inverse is asked
    for, the rows also carry the identity and each pivot row is
    normalized, and back-substitution then leaves the inverse in place of
    the identity; otherwise, and when the matrix is singular, inv is None.
    """
    q = _TEST_PRIME
    n = len(rows)
    a = [list(row) + ([int(i == j) for j in range(n)] if inverse else [])
         for i, row in enumerate(rows)]
    det = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k] % q), None)
        if piv is None:
            return 0, None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det = det * a[k][k] % q
        inv = pow(a[k][k], -1, q)
        if inverse:
            a[k] = [v * inv % q for v in a[k]]
            inv = 1
        for i in range(k + 1, n):
            f = a[i][k] * inv % q
            if f:
                a[i] = [(u - f * w) % q for u, w in zip(a[i], a[k])]
    if not inverse:
        return det % q, None
    for k in reversed(range(n)):
        for i in range(k):
            f = a[i][k]
            if f:
                a[i] = [(u - f * w) % q for u, w in zip(a[i], a[k])]
    return det % q, [row[n:] for row in a]


def _point_refutation(den: int, euler: list) -> Optional[PointRefutation]:
    """Refute L = +-P^n at the test point from P's Euler matrix, or return None.

    None when the prime divides den, or when the residues are equal or
    opposite: for a non-solution both L - P^n and L + P^n are nonzero.
    """
    q = _TEST_PRIME
    if den % q == 0:
        return None
    n = len(euler) - 1
    point = _test_point(n)
    lhs = _eliminate(euler)[0] * pow(den, -(n + 1), q) % q
    for x in point:
        lhs = lhs * x.denominator * pow(x.numerator, -1, q) % q  # 1/x_i
    rhs = pow(euler[n][n] * pow(den, -1, q), n, q)
    if lhs in (rhs, -rhs % q):
        return None
    return PointRefutation(point, q, lhs, rhs)


def _dlog_lhs(terms: tuple, rows: list) -> Optional[list]:
    """theta_i log L at the test point, i = 1..n, or None where L is 0 there.

    rows is the Euler matrix E = sum v*w*w^T, w = (e, 1), over the terms
    (columns, values) of _euler, and det E is x_1*...*x_n times a
    constant times L.  theta_i E = sum e_i*v*w*w^T, one more factor e_i
    per term, so by Jacobi's formula theta_i log L = tr(E^-1*theta_i E) -
    1 = sum e_i*v*(w^T*E^-1*w) - 1.  The forms w^T*E^-1*w are summed over
    the pairs a <= b of columns of w.
    """
    q = _TEST_PRIME
    inv = _eliminate(rows, inverse=True)[1]
    if inv is None:
        return None
    columns, values = terms
    n = len(columns)
    w = [[k % q for k in column] for column in columns] + [[1] * len(values)]
    form = [0] * len(values)
    for a, wa in enumerate(w):
        for b in range(a, len(w)):
            c = inv[a][b] if a == b else inv[a][b] + inv[b][a]
            if c:
                form = [f + c * x * y for f, x, y in zip(form, wa, w[b])]
    vf = [v * f % q for v, f in zip(values, form)]
    return [(sum(map(operator.mul, wi, vf)) - 1) % q for wi in w[:n]]


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

    When theta log L (see _dlog_lhs) and theta log P = U/V are
    proportional their ratio is e, found by rational reconstruction with
    the bounds of DlogRefutation; e is None when the test is
    inconclusive: the prime divides den, P(pt) or L(pt) reads zero,
    theta log P reads zero, or deg P is too large for the reconstruction
    to be unique.
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


def _coupling_blocks(euler: list) -> list:
    """Candidate blocks: the classes of the pairs of variables whose
    V*T_ij - U_i*U_j reads nonzero in P's Euler matrix; where P vanishes,
    the one block of all variables."""
    n = len(euler) - 1
    value = euler[n][n]
    if not value:
        return [tuple(range(n))]
    # union-find in its quick-find form: label[i] names x_i's class
    label = list(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if label[i] == label[j]:
                continue
            if (value * euler[i][j] - euler[i][n] * euler[j][n]) % _TEST_PRIME:
                old = label[j]
                label = [label[i] if lab == old else lab for lab in label]
    blocks = {}
    for i, lab in enumerate(label):
        blocks.setdefault(lab, []).append(i)
    return [tuple(b) for b in blocks.values()]


def disjoint_product(n: int, blocks: list, factors: list) -> MultiPoly:
    """The product of factors[b], each a polynomial in the variables blocks[b]."""
    return functools.reduce(
        operator.mul, (f.embed(n, b) for f, b in zip(factors, blocks))
    )


def _product_blocks(p: MultiPoly, euler: list):
    """Blocks b and factors P_b with P = eps^(1-m)*prod P_b exactly.

    P_b is P with the variables outside b set to 0, in b's own variables,
    eps = P(0) must be +-1, and euler is P's Euler matrix.  When the
    coupling test finds one block, or the product does not reproduce P,
    the one block of all variables is returned; the product is taken
    only when it has as many terms as P (see the module docstring).
    """
    n = p.nvars
    blocks = _coupling_blocks(euler)
    if len(blocks) == 1:
        return blocks, [p]
    factors = [p.restrict(b) for b in blocks]
    # eps^(1-m)*prod P_b = P  <=>  prod P_b = eps^(m-1)*P, as eps = +-1
    target = p if p.constant_term() ** (len(blocks) - 1) == 1 else -p
    if (len(p.integer_terms[1]) != math.prod(len(f.integer_terms[1]) for f in factors)
            or disjoint_product(n, blocks, factors) != target):
        return [tuple(range(n))], [p]
    return blocks, factors


def _is_linear_form(f: MultiPoly) -> bool:
    """Whether f = u(<a, x>), a_i the coefficient of x_i, each nonzero.

    That holds exactly when a_1*d_i f = a_i*d_1 f for every i, checked on
    f's numerators c_e with no derivative built: the monomial m = e - 1_i
    of a term with e_i > 0 has the coefficient a_1*e_i*c_e on the left
    and a_i*(m_1 + 1)*c_(m + 1_1) on the right, and when these match for
    every such term, the two sides are equal exactly when as many terms
    have e_i > 0 as have e_1 > 0.
    """
    n = f.nvars
    _, c = f.integer_terms
    a = [c.get(tuple(int(j == i) for j in range(n)), 0) for i in range(n)]
    first = sum(1 for e in c if e[0])
    for i in range(1, n):
        if sum(1 for e in c if e[i]) != first:
            return False
        for e, v in c.items():
            if e[i] and a[0] * e[i] * v != a[i] * (e[0] + 1) * c.get(
                    (e[0] + 1,) + e[1:i] + (e[i] - 1,) + e[i + 1:], 0):
                return False
    return True


def _profile_exponent(f: MultiPoly) -> Optional[Fraction]:
    """The e with ma_lhs_log(f) = C*(eps*f)^e of a one-variable or linear-form f, or None.

    By the theorem of the module docstring it exists exactly when f
    restricted to x_1 is a binomial power eps*(1 + t/r)^k, and is then
    (k-1)(N+1)/k, with k read off the coefficients by binomial_profile,
    which rejects on the count of terms first.  Every linear coefficient
    of f must be nonzero.
    """
    n = f.nvars
    try:
        k = binomial_profile(f if n == 1 else f.restrict((0,))).k
    except NotBinomialPowerError:
        return None
    return Fraction((k - 1) * (n + 1), k)


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


def _block_loop(n: int, factors: list, e: Optional[Fraction], point) -> Optional[Fraction]:
    """The e with L = C*(eps*P)^e over P's blocks, or None; e, if given, is the only one tried.

    Each block must have L_b = C_b*(eps*P_b)^(e-n+n_b); with no e given,
    the first block gives it.  Equal factors have equal n_b, so one check
    decides them all.  One-variable and linear-form factors come first,
    decided by their binomial profiles (_profile_exponent); any other
    factor f by g = C*f^(e-n+n_b) for g = ma_lhs_log(f), metered within
    MAX_SYMBOLIC_PAIRS kernel term pairs (_power_exponent).  point, a
    cached hook, is called before each such factor and returns the point
    test's (refuted_at, e): a refutation decides, and an e it proposes is
    the only one tried.  Every linear coefficient of P must be nonzero.
    """
    closed = {f: f.nvars == 1 or _is_linear_form(f) for f in dict.fromkeys(factors)}
    for f in sorted(closed, key=lambda f: not closed[f]):
        nb = f.nvars
        if closed[f]:
            eb = _profile_exponent(f)
            if e is not None and eb != e - n + nb:
                return None
        else:
            refuted_at, proposed = point()
            if refuted_at is not None:
                return None
            if proposed is not None:
                if e not in (None, proposed):
                    return None
                e = proposed
            with symbolic_budget():
                eb = _power_exponent(f, ma_engine.ma_lhs_log(f),
                                     None if e is None else e - n + nb)
        if eb is None:
            return None
        e = eb + n - nb
    return e


def star_decision(p: MultiPoly):
    """(sign, refuted_at) for L = sign*P^n, the case e = n of einstein_exponent's order.

    sign is eps^n*L(0) when that is +-1 and the blocks hold at e = n
    (_block_loop), else None.  The determinant point test
    (_point_refutation) runs only when the blocks need it, before the
    first symbolic block or after a refutation, a sign off +-1 included;
    refuted_at is its PointRefutation, when it found one.  ValueError
    when P(0) is not +-1.
    """
    den, _, euler = _front_end(p)
    n = p.nvars
    sign = p.constant_term() ** n * origin_value(p)
    point = functools.cache(lambda: (_point_refutation(den, euler), None))
    # a +-1 sign makes every linear coefficient nonzero
    if sign in (1, -1) and _block_loop(
            n, _product_blocks(p, euler)[1], Fraction(n), point) is not None:
        return int(sign), None
    return None, point()[0]


def star_witness(p: MultiPoly, sign: Optional[int]) -> MultiPoly:
    """The left side L of P, given the sign star_decision found for it.

    L is sign*P^n when P solves with that sign, and otherwise
    eps^((m-1)(n+1))*prod L_b*P_b^(n-n_b) over P's m blocks (see the
    module docstring), L_b = ma_lhs_log(P_b); either is metered as a
    whole within MAX_SYMBOLIC_PAIRS kernel term pairs.
    """
    n = p.nvars
    if sign is not None:
        with symbolic_budget():
            return sign * p ** n
    blocks, factors = _product_blocks(p, _front_end(p)[2])
    with symbolic_budget():
        lhs = disjoint_product(n, blocks, [
            ma_engine.ma_lhs_log(f) * f ** (n - len(b)) if len(b) < n
            else ma_engine.ma_lhs_log(f) for f, b in zip(factors, blocks)])
    return -lhs if p.constant_term() ** ((len(blocks) - 1) * (n + 1)) == -1 else lhs


def einstein_exponent(p: MultiPoly, kind: str = "log") -> EinsteinExponent:
    """Decide exactly whether the left side L of P is C*(eps*P)^e, eps = P(0).

    C = L(0) (see origin_value); DomainError when it is 0, as the metric
    is degenerate there.  Kind "log": the blocks decide (_block_loop),
    and the point test (_exponent_at_point) runs only when they need it,
    before the first symbolic block, where it refutes with a certificate
    or proposes e, or after a refutation, for its certificate;
    star_decision is the case e = n in the same order.  Kind "poly": the
    degree decides, by the module docstring's theorem.
    """
    if kind == "log":
        den, values, euler = _front_end(p)
    elif kind != "poly":
        raise ValueError(f"unknown potential kind {kind!r}")
    c = origin_value(p, kind)
    if not c:
        raise DomainError("metric degenerate at the origin")
    if kind == "poly":
        if p.degree() > 1:
            return EinsteinExponent(None, None)
        return EinsteinExponent(c, Fraction(0))
    point = functools.cache(lambda: _exponent_at_point(p, den, values, euler))
    e = _block_loop(p.nvars, _product_blocks(p, euler)[1], None, point)
    return EinsteinExponent(None, None, point()[0]) if e is None else EinsteinExponent(c, e)

"""Monge-Ampere operators, exact verifiers and classification drivers.

The flat-type operator is det[(d^2 D0/dx_i dx_j)x_i + (d D0/dx_j)d_ij];
the log-type operator divides the analogous determinant built from
Q*Q_ab - Q_a*Q_b by Q^(n-1), which ma_lhs_log does without a division,
as one bordered cofactor determinant.  Both matrices are made of
derivatives of generators, with theta_i = x_i*d/dx_i: row i of the
flat-type matrix is (d_1 G, ..., d_n G) for G = theta_i D0, and the
bordered matrix has the rows (d_1 G, ..., d_n G, G) for G = theta_1 Q,
..., theta_n Q, Q, so no entry costs a polynomial product.  A
polynomial P with P(0) = +-1 is a solution of the normalized equation
when the log-type left side equals +-P^n exactly.

verify_ma_star first tests the equation at one rational point, modulo
the prime 2^61 - 1, in the Euler form of the bordered matrix.  For x with
nonzero coordinates, x_1*...*x_n*L(x) = det[[T, U], [U^T, P]] with
U_i = x_i*P_i = sum e_i*v and T_ij = x_i*x_j*P_ij + delta_ij*U_i =
sum e_i*e_j*v over the term values v = c*x^e of P: column j <= n of the
bordered matrix is (T_.j, U_j)/x_j.  One pass over P's terms and one
(n+1)x(n+1) determinant modulo the prime give L(pt) and P(pt)^n there,
and residues neither equal nor opposite certify that P is not a
solution, with no polynomial product.  Otherwise (a residue that reads
zero for one sign, or a denominator the prime divides), and whenever the
symbolic left side is asked for as the witness, the check is symbolic.

The symbolic check runs one variable-disjoint block at a time.
If P*P_ij - P_i*P_j (P^2 times the mixed partial of log P) vanishes for
every i and j in different blocks, then P = eps^(1-m)*prod P_b over its
m blocks, with eps = P(0) and P_b the restriction of P to block b (the
other variables set to 0), and the left side is
L = eps^((m-1)(n+1))*prod L_b*P_b^(n-n_b), with L_b the left side of P_b
in its n_b variables.  So P solves exactly when L_b = c_b*P_b^(n_b) for
every b, with c_b = L_b(0)/eps^(n_b), and eps^(m-1)*prod c_b = +-1; that
product is the sign.  L_b(0) is eps times the product of b's linear
coefficients, so the sign is eps^(n+1) times the product of all of P's,
and a sign other than +-1 refutes before any determinant.  Candidate
blocks come from testing each pair of variables at the same point, in
the same Euler form, where a nonzero value certifies the coupling
without a polynomial product.  The split is then certified by comparing
P with eps^(1-m)*prod P_b exactly, and falls back to one block of all
variables when the comparison fails or P vanishes at the point.  Each
block is decided by toricpke.einstein's block check at the exponent n_b,
which decides L = C*P^e, the Einstein condition, on the same blocks: a
block that is a linear form f(<a, x>) is checked in one variable, any
other through ma_lhs_log, both by a power-free identity.  Every symbolic
left side, and the witness as a whole, runs in algebra.symbolic_budget,
which raises SymbolicLimitError before the kernel product that would
pass MAX_SYMBOLIC_PAIRS term pairs.  classify_flat likewise reads the
product of the linear coefficients, the flat-type left side at the
origin, and leaves the rest to einstein_exponent.

Classification in one and two variables proceeds exactly: axis
restrictions are matched against binomial powers, admissible exponents
are found by attempting Taylor continuation off the x2 = 0 axis, and
the continuation accepts a candidate only through verify_ma_star, so
every produced candidate is verified symbolically.

The n=2 drivers continue one Cauchy datum per exponent k, eps = sigma =
r = 1.  The data fix the equation's sign, and every datum of one k is an
image of that one, P_{eps,sigma,r}(x1, x2) = eps*P_{1,1,1}(x1/r,
eps*sigma*r*x2), failures included: under x -> (l1*x1, l2*x2) the
bordered determinant of ma_lhs_log gains the factor l1*l2, which is 1
here.  The search verifies the image for each r on its grid and runs no
feasibility scan first.  The continuation never expands the
two-variable left side while it runs.  It writes P = sum_h P_h*x2^h in
the Euler form above, where x2*d/dx2 multiplies the x2^h coefficient by
h, so the x2^(h+1) coefficient of det[[T, U], [U^T, P]] -
sigma*x1*x2*P^2, x1 times the x2^h coefficient of L - sigma*P^2, is a
sum of products of univariate coefficients, built in one accumulator
by one call of algebra's _dot; the products of pairs of lower
coefficients are taken once and kept between orders, and each sum over
them is again one call.  It is affine in P_{h+1}, with
a slope computed once from the axis data, so P_{h+1} follows by one
exact division.  Every rejection is a certificate; acceptance requires
verify_ma_star to give the candidate the sign sigma.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import NamedTuple, Optional

from toricpke.algebra import (
    BinomialProfile,
    DomainError,
    MultiPoly,
    NoExactRootError,
    NotBinomialPowerError,
    NotDivisibleError,
    PolyMatrix,
    Scalar,
    _dot,
    adjugate,  # noqa: F401  re-bound by perfbench/tracing.py
    binomial_power,
    binomial_profile,
    determinant,  # noqa: F401  re-bound by perfbench/tracing.py
    determinant_cofactor,
    exact_divide,
    fraction_to_str,
    symbolic_budget,
    toric_hessian_matrix,
)


class ProfileMismatchError(ArithmeticError):
    """An axis restriction fails the binomial-power or companion check."""


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


class MAResult(NamedTuple):
    is_solution: bool
    sign: Optional[int]  # +1 or -1 when is_solution
    refuted_at: Optional[PointRefutation] = None  # set when the point test refutes
    witness: Optional[MultiPoly] = None  # the left side, when asked for


class AxisProfile(NamedTuple):
    axis: int
    epsilon: int
    r: Scalar
    k: int


class CauchyData(NamedTuple):
    """Axis data P(x1,0), dP/dx2(x1,0) plus the sign/shape parameters."""

    P0: MultiPoly
    P1: MultiPoly
    epsilon: int
    sigma: int
    r: Scalar
    k: int


class ExponentRatio(NamedTuple):
    """The positive rational s/q with gcd(s, q) = 1."""

    s: int
    q: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.s, self.q)


class FlatClassification(NamedTuple):
    is_solution: bool
    coeffs: Optional[tuple]  # linear coefficients k_i when accepted
    coeff_product: Optional[Scalar]


def ma_lhs_flat(d0: MultiPoly) -> MultiPoly:
    """Exact determinant of the flat-type Monge-Ampere matrix."""
    return determinant_cofactor(toric_hessian_matrix(d0))


def _linear_coefficients(p: MultiPoly) -> list:
    n = p.nvars
    return [p.coefficient(tuple(int(j == i) for j in range(n))) for i in range(n)]


def classify_flat(d0: MultiPoly) -> FlatClassification:
    """Accept exactly the d0 whose flat-type left side is +-1.

    The left side at the origin is the product of d0's linear
    coefficients, so a product other than +-1 refutes with no
    determinant; otherwise einstein_exponent(d0, "poly") decides whether
    the left side is that constant, with no determinant for an affine d0.
    """
    from toricpke.einstein import einstein_exponent

    coeffs = tuple(_linear_coefficients(d0))
    product = math.prod(coeffs, start=Fraction(1))
    if product not in (1, -1) or einstein_exponent(d0, "poly").e is None:
        return FlatClassification(False, None, None)
    return FlatClassification(True, coeffs, product)


def log_ma_matrix(q: MultiPoly) -> PolyMatrix:
    """Matrix (Q Q_ab - Q_a Q_b)x_a + Q Q_a delta_ab."""
    n = q.nvars
    grad = [q.partial_derivative(i) for i in range(n)]
    rows = []
    for a in range(n):
        xa = MultiPoly.variable(n, a)
        row = []
        for b in range(n):
            hess = grad[a].partial_derivative(b)
            entry = (q * hess - grad[a] * grad[b]) * xa
            if a == b:
                entry = entry + q * grad[a]
            row.append(entry)
        rows.append(row)
    return PolyMatrix(rows)


def ma_lhs_log(q: MultiPoly) -> MultiPoly:
    """The log-type left side det M/Q^(n-1), exact, with M = log_ma_matrix(Q).

    M = Q*A - c*g^T with A the flat-type matrix of Q (toric_hessian_matrix),
    g the gradient of Q and c = x o g, so det M = Q^(n-1)*(Q*det A -
    g^T*adj(A)*c) for every Q, singular A included.  By the Schur
    complement the bracket is the determinant of A bordered by the column
    c and the row (g^T, Q), so the left side needs neither M's
    determinant nor a division.  Its rows are (d_1 G, ..., d_n G, G) for
    the generators G = theta_1 Q, ..., theta_n Q, Q, theta_i = x_i*d/dx_i,
    so no entry costs a polynomial product.
    """
    if q.constant_term() not in (1, -1):
        raise ValueError("log-type candidate needs constant term +-1")
    n = q.nvars
    generators = [q.euler_derivative(i) for i in range(n)] + [q]
    rows = [[g.partial_derivative(j) for j in range(n)] + [g] for g in generators]
    return determinant_cofactor(PolyMatrix(rows))


# The point tests evaluate at the test point x_i = 1/(2i+3), i = 0..n-1,
# modulo this prime, so that their work grows with the bit length of P's
# exponents rather than with the exponents themselves.
_TEST_PRIME = 2**61 - 1


def _test_point(n: int) -> tuple:
    return tuple(Fraction(1, 2 * i + 3) for i in range(n))


def _term_residues(p: MultiPoly):
    """(den, values): P's common denominator, and (e, v) for each term of den*P.

    v is the value c*x^e of the term c*x^e at the test point, modulo the
    test prime: the exact value would cost the size of the exponents (a
    term x^(10^40) has a 10^40-digit value there), the residue costs
    their bit length.
    """
    q = _TEST_PRIME
    point = [pow(2 * i + 3, -1, q) for i in range(p.nvars)]
    den, numerators = p.integer_terms
    values = [(e, c * math.prod(pow(x, k, q) for x, k in zip(point, e)) % q)
              for e, c in numerators.items()]
    return den, values


def _euler_matrix(p: MultiPoly):
    """(den, E): P's common denominator, and the Euler matrix of den*P.

    For Q = den*P at the test point x, E = [[T, U], [U^T, V]] with
    V = Q(x), U_i = x_i*Q_i and T_ij = x_i*x_j*Q_ij + delta_ij*U_i: the
    rows of ma_lhs_log's generators theta_1 Q, ..., theta_n Q, Q, with
    theta_j in place of d_j, at the point.  Over the term values
    v = c*x^e of Q these are V = sum v, U_i = sum e_i*v and
    T_ij = sum e_i*e_j*v, so E = sum v*w*w^T with w = (e, 1), and E
    needs no polynomial product.  Its entries are residues modulo the
    test prime (see _term_residues).
    """
    den, values = _term_residues(p)
    return den, _euler_rows(p.nvars, values)


def _euler_rows(n: int, values: list) -> list:
    q = _TEST_PRIME
    euler = [sum(e[i] * v for e, v in values) % q for i in range(n)]
    rows = [[0] * n + [u] for u in euler]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = sum(e[i] * e[j] * v for e, v in values) % q
    rows.append(euler + [sum(v for _, v in values) % q])
    return rows


def _det_mod(rows: list, q: int) -> int:
    """Determinant of an integer matrix modulo the prime q, by elimination."""
    a = [list(row) for row in rows]
    n = len(a)
    det = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k] % q), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det = det * a[k][k] % q
        inv = pow(a[k][k], -1, q)
        for i in range(k + 1, n):
            f = a[i][k] * inv % q
            if f:
                a[i] = [(u - f * w) % q for u, w in zip(a[i], a[k])]
    return det % q


def _point_refutation(den: int, euler: list) -> Optional[PointRefutation]:
    """Refute L = +-P^n at the test point, or return None.

    Column j <= n of ma_lhs_log's bordered matrix, times x_j, is
    (T_.j, U_j), so x_1*...*x_n*L(x) = det E for the Euler matrix E of
    Q = den*P (see _euler_matrix); L has degree n+1 in P, so
    L(x) = det E/(x_1*...*x_n*den^(n+1)) and P(x)^n = (V/den)^n.  None
    when the prime divides den, or when the residues are equal or
    opposite: for a non-solution both L - P^n and L + P^n are nonzero
    polynomials, and by the Schwartz-Zippel lemma such a polynomial
    rarely vanishes at a point.
    """
    q = _TEST_PRIME
    if den % q == 0:
        return None
    n = len(euler) - 1
    lhs = _det_mod(euler, q) * pow(den, -(n + 1), q) % q
    for i in range(n):
        lhs = lhs * (2 * i + 3) % q  # 1/x_i
    rhs = pow(euler[n][n] * pow(den, -1, q), n, q)
    if lhs in (rhs, -rhs % q):
        return None
    return PointRefutation(_test_point(n), q, lhs, rhs)


def _coupling_blocks(euler: list) -> list:
    """Candidate blocks: the classes of the pairs of variables found coupled.

    x_i and x_j are coupled where P*P_ij - P_i*P_j, P^2 times the mixed
    partial of log P, is nonzero.  At the test point x_i*x_j times that
    value, for Q = den*P, is V*T_ij - U_i*U_j in the Euler matrix E of Q
    (see _euler_matrix): a nonzero residue certifies the coupling, while
    a zero one may be an accident of the point or the prime, so the
    caller certifies the split.  Where P vanishes most pairs read zero,
    and the one block of all variables is returned.
    """
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


def _disjoint_product(n: int, blocks: list, factors: list) -> MultiPoly:
    """The product of factors[b], each a polynomial in the variables blocks[b]."""
    return functools.reduce(
        operator.mul, (f.embed(n, b) for f, b in zip(factors, blocks))
    )


def _product_blocks(p: MultiPoly, euler: list):
    """Blocks b and factors P_b with P = eps^(1-m)*prod P_b exactly.

    P_b is P with the variables outside b set to 0, in b's own variables,
    eps = P(0) must be +-1, and euler is P's Euler matrix (see
    _euler_matrix).  When the coupling test finds one block, or the
    product does not reproduce P, the one block of all variables is
    returned.
    """
    n = p.nvars
    blocks = _coupling_blocks(euler)
    if len(blocks) == 1:
        return blocks, [p]
    factors = [p.restrict(b) for b in blocks]
    # eps^(1-m)*prod P_b = P  <=>  prod P_b = eps^(m-1)*P, as eps = +-1
    target = p if p.constant_term() ** (len(blocks) - 1) == 1 else -p
    if _disjoint_product(n, blocks, factors) != target:
        return [tuple(range(n))], [p]
    return blocks, factors


def verify_ma_star(p: MultiPoly, witness: bool = False) -> MAResult:
    """Exact check that the log-type left side L equals +-P^n.

    The test point refutes most non-solutions first, with a certificate
    and no polynomial product (see _point_refutation).  With blocks b of
    n_b variables and factors P_b (see _product_blocks), P is a solution
    exactly when its sign eps^(m-1)*prod c_b, c_b = L_b(0)/eps^(n_b), is
    +-1 and L_b = c_b*P_b^(n_b) for every b.  As L_b(0) = eps*prod a_i
    over b's linear coefficients a_i, the sign is eps^(n+1)*prod a_i,
    read before any determinant; each block is then decided by
    toricpke.einstein's block check at the exponent n_b.  The witness is
    the full left side: sign*P^n on acceptance, and on a refutation
    eps^((m-1)(n+1))*prod L_b*P_b^(n-n_b) with L_b = ma_lhs_log(P_b).
    Each block's symbolic left side, and the witness as a whole, is
    metered within MAX_SYMBOLIC_PAIRS kernel term pairs.
    """
    from toricpke.einstein import _block_exponent

    eps = p.constant_term()
    if eps not in (1, -1):
        raise ValueError("log-type candidate needs constant term +-1")
    den, euler = _euler_matrix(p)
    refuted_at = _point_refutation(den, euler)
    if refuted_at is not None and not witness:
        return MAResult(False, None, refuted_at)
    n = p.nvars
    sign = eps ** (n + 1) * math.prod(_linear_coefficients(p), start=Fraction(1))
    solved = refuted_at is None and sign in (1, -1)
    if solved or witness:
        blocks, factors = _product_blocks(p, euler)
        # a +-1 sign makes every linear coefficient nonzero, as the block
        # check needs
        solved = solved and all(_block_exponent(f, Fraction(len(b))) is not None
                                for b, f in zip(blocks, factors))
    full = None
    if witness:
        with symbolic_budget():
            full = sign * p ** n if solved else _disjoint_product(n, blocks, [
                ma_lhs_log(f) * f ** (n - len(b)) if len(b) < n else ma_lhs_log(f)
                for f, b in zip(factors, blocks)])
    if solved:
        return MAResult(True, int(sign), None, full)
    if full is not None and eps ** ((len(blocks) - 1) * (n + 1)) == -1:
        full = -full
    return MAResult(False, None, refuted_at, full)


def exponent_scan(q: MultiPoly) -> Optional[ExponentRatio]:
    """Find the exponent ratio 4*lambda/c = s/q from the log-type left side.

    When the left side equals +-Q^e for a rational e >= 0 the ratio is
    n + 1 - e, decided by einstein_exponent with C = +-1.  Returns None
    when the left side is not +-Q^e (a degenerate Q included) or the ratio
    is not positive.
    """
    from toricpke.einstein import einstein_exponent

    if q.constant_term() != 1:
        raise ValueError("exponent scan expects constant term 1")
    try:
        found = einstein_exponent(q)
    except DomainError:
        return None
    if found.e is None or found.C not in (1, -1):
        return None
    ratio = q.nvars + 1 - found.e
    if ratio <= 0:
        return None
    return ExponentRatio(ratio.numerator, ratio.denominator)


def reduce_power(q: MultiPoly, ratio: ExponentRatio) -> MultiPoly:
    """Reduce Q = R(x/q)^q to the candidate P = R(x/s)^s.

    Raises NoExactRootError when Q is not an exact q-th power after the
    coordinate rescaling.
    """
    from toricpke.algebra import nth_root

    if q.constant_term() != 1:
        raise ValueError("reduce_power expects constant term 1")
    n = q.nvars
    r = nth_root(q.scale_vars([Fraction(ratio.q)] * n), ratio.q)
    return r.scale_vars([Fraction(1, ratio.s)] * n) ** ratio.s


def axis_profile_check(p: MultiPoly, axis: int) -> AxisProfile:
    """Certify the axis restriction eps*(1 + t/r)^k and its companion.

    For n >= 2 the restriction of prod_{j != axis} dP/dx_j to the axis
    must equal +-eps^(n-2)*(r/k)*(1 + t/r)^(k(n-2)+2) exactly: k/r times
    it must have the binomial profile (+-1, r, k(n-2)+2).  Neither power
    is built.
    """
    n = p.nvars
    if not 0 <= axis < n:
        raise IndexError("axis out of range")
    pt = p.restrict((axis,))
    try:
        prof = binomial_profile(pt)
    except NotBinomialPowerError as exc:
        raise ProfileMismatchError(str(exc)) from exc
    if n >= 2:
        qt = MultiPoly.one(1)
        for j in range(n):
            if j != axis:
                qt = qt * p.partial_derivative(j).restrict((axis,))
        r, k = prof.r, prof.k
        try:
            companion = binomial_profile(qt * (k / r))[1:]
        except NotBinomialPowerError:
            companion = None
        if companion != (r, k * (n - 2) + 2):
            raise ProfileMismatchError(
                f"companion restriction on axis {axis} does not match"
            )
    return AxisProfile(axis, prof.epsilon, prof.r, prof.k)


def cauchy_data(epsilon: int, sigma: int, r, k: int) -> CauchyData:
    """Axis data P0 = eps*(1+x1/r)^k, P1 = sigma*(r/k)*(1+x1/r)^2."""
    if epsilon not in (1, -1) or sigma not in (1, -1):
        raise ValueError("epsilon and sigma must be +-1")
    r = Fraction(r)
    if r == 0:
        raise ValueError("r must be nonzero")
    if k < 1:
        raise ValueError("k must be a positive integer")
    p0 = binomial_power(epsilon, r, k)
    p1 = sigma * (r / k) * binomial_power(1, r, 2)
    return CauchyData(p0, p1, epsilon, sigma, r, k)


class _EulerSeries:
    """x2-coefficients of det E - eq_sign*x1*x2*P^2 for P = sum_h p[h]*x2^h.

    E is the Euler matrix of P (see _euler_matrix), so det E = x1*x2*L
    with L = ma_lhs_log(P).  x2*d/dx2 multiplies the x2^h coefficient by
    h, so with theta = x1*d/dx1, U_h = theta(P_h) and T_h = theta(U_h)
    the x2^m coefficient of det E is
        sum_{i+r=m} T_i*R_r - P_i*((2i^2 - i*m)*S_r + W_r),
    where R_r, S_r and W_r sum (l-s)^2/2*P_l*P_s, U_l*U_s and
    l*s*U_l*U_s over ordered l + s = r.  Coefficients past the end of the
    list count as zero, and the list only grows, so R_r and the products
    P_l*P_s and U_l*U_s of l + s = r read P_0..P_r only and are final,
    and kept, once P_r exists.
    """

    def __init__(self, coeffs: list, eq_sign: int):
        self.p, self.u, self.t = [], [], []
        self.eq_sign = eq_sign
        self._pairs = {}
        for c in coeffs:
            self.append(c)

    def append(self, c: MultiPoly):
        self.p.append(c)
        self.u.append(c.euler_derivative(0))
        self.t.append(self.u[-1].euler_derivative(0))

    def probe(self) -> MultiPoly:
        """T_0*P_0 - U_0^2, the slope of order(h) in P_(h+1) over (h+1)^2.

        P_(h+1) enters order(h) only through T_0*R_(h+1) and
        P_(h+1)*S_0.  For P_0 = eps*(1 + x1/r)^k this is
        (k/r)*x1*(1 + x1/r)^(2k-2), never zero.
        """
        return self.t[0] * self.p[0] - self.u[0] ** 2

    def _pair_products(self, r: int) -> tuple:
        """(R_r, [(c, (j-l)^2, P_l*P_j)], [(c, l*j, U_l*U_j)]), l <= j = r - l.

        c = 2 counts both orders of a pair, 1 the square.  Each product is
        taken once; a pair with P_l or P_j zero adds nothing and is skipped.
        """
        found = self._pairs.get(r)
        if found is None:
            pp, uu = [], []
            for l in range(max(0, r - len(self.p) + 1), r // 2 + 1):
                j = r - l
                if not (self.p[l].is_zero() or self.p[j].is_zero()):
                    c = 1 if l == j else 2
                    pp.append((c, (j - l) ** 2, self.p[l] * self.p[j]))
                    uu.append((c, l * j, self.u[l] * self.u[j]))
            found = (_dot(1, [(d, p, None) for _, d, p in pp]), pp, uu)
            if r < len(self.p):
                self._pairs[r] = found
        return found

    def order(self, h: int) -> MultiPoly:
        """The x2^(h+1) coefficient, x1*[L - eq_sign*P^2]_h, exact.

        One sum of products, with [P^2]_h as plain addends, and each
        (2i^2 - i*m)*S_r + W_r one sum built from the products U_l*U_j.
        """
        m = h + 1
        items = [(-self.eq_sign * c, p.shift((1,)), None)
                 for c, _, p in self._pair_products(h)[1]]
        for i in range(min(m, len(self.p) - 1) + 1):
            if not self.p[i].is_zero():
                big_r, _, uu = self._pair_products(m - i)
                combo = _dot(1, [(c * (2 * i * i - i * m + lj), u, None)
                                 for c, lj, u in uu])
                items += [(1, self.t[i], big_r), (-1, self.p[i], combo)]
        return _dot(1, items)


def taylor_continue_n2(cd: CauchyData, degree_bound: int = 6) -> Optional[MultiPoly]:
    """Reconstruct the two-variable solution from its Cauchy data.

    The solution is written as sum_h P_h(x1)*x2^h, and L - sigma*P^2 is
    forced to vanish order by order in x2, on the Euler form of the
    bordered determinant (see _EulerSeries); the sign is sigma because
    the x2^0 coefficient of x1*(L - s*P^2) is x1*(sigma - s)*(1 + x1/r)^(2k).
    Order h is t + (h+1)^2*m*P_(h+1), with t read from P_0..P_h and m the
    series' probe, so P_(h+1) is one exact division by m.  Returns None
    when a division fails, when the first unforced x2^bound coefficient
    is nonzero, or when verify_ma_star does not give the candidate the
    sign sigma: each is a certificate.  A returned candidate is verified.
    The branches are images of one, P_{eps,sigma}(x1, x2) =
    eps*P_{1,1}(x1, eps*sigma*x2), failures included.
    """
    if degree_bound < max(2, cd.k):
        raise ValueError("degree_bound must be at least max(2, k)")
    series = _EulerSeries([cd.P0, cd.P1], cd.sigma)
    probe = series.probe()
    for h in range(1, degree_bound):
        try:
            nxt = exact_divide(series.order(h), probe) * Fraction(-1, (h + 1) ** 2)
        except NotDivisibleError:
            return None
        series.append(nxt)
    # x2^bound is the first order the loop does not force; the candidate
    # has no x2^(bound+1) term, so this coefficient is final for it
    if not series.order(degree_bound).is_zero():
        return None
    candidate = MultiPoly(2, {
        (e[0], h): c for h, ph in enumerate(series.p) for e, c in ph.terms.items()
    })
    if verify_ma_star(candidate).sign != cd.sigma:
        return None
    return candidate


def _consistent_continuations(k_max: int):
    """(k, P) for each k = 1..k_max whose datum eps = sigma = r = 1 continues.

    Every datum of k is an image of this one, failures included (see the
    module docstring); it is continued to degree max(6, k).
    """
    for k in range(1, k_max + 1):
        p = taylor_continue_n2(cauchy_data(1, 1, 1, k), max(6, k))
        if p is not None:
            yield k, p


def feasible_k_scan_n2(k_max: int) -> set:
    """Exponents k whose Cauchy data admits a consistent continuation."""
    if k_max < 1:
        raise ValueError("k_max must be positive")
    return {k for k, _ in _consistent_continuations(k_max)}


def classify_n1(k_max: int, r_grid) -> list:
    """All univariate solutions eps*(1 + x/r)^k over the given grid."""
    if k_max < 1:
        raise ValueError("k_max must be positive")
    found = []
    for k in range(1, k_max + 1):
        for r in r_grid:
            r = Fraction(r)
            if r == 0:
                continue
            # for n = 1 the left side is quadratic in P, so -P solves,
            # with the opposite sign, exactly when P does
            p = binomial_power(1, r, k)
            if verify_ma_star(p).is_solution:
                for q in (p, -p):
                    if q not in found:
                        found.append(q)
    return sorted(found, key=_poly_sort_key)


def _poly_sort_key(p: MultiPoly):
    return (p.degree(), sorted(p.terms.items()))


SEARCH_K_MAX = 6


def search_n2(r_grid) -> list:
    """Two-variable solutions reachable from the Cauchy families.

    Continues the datum eps = sigma = r = 1 once for every k =
    1..SEARCH_K_MAX, with no feasibility scan first, and reports for each
    nonzero r on the grid its image under (x1, x2) -> (x1/r, r*x2), the
    datum of r, once verify_ma_star gives it the sign +1.  The other sign
    branches are images under P -> -P and x2 -> -x2, which the catalog
    module's canonicalize maps back to the same representative.  A grid
    without a nonzero value continues nothing.
    """
    from toricpke.catalog import canonicalize

    rs = [r for r in map(Fraction, r_grid) if r != 0]
    if not rs:
        return []
    reps = set()
    for _, p in _consistent_continuations(SEARCH_K_MAX):
        for r in rs:
            image = p.scale_vars([1 / r, r])
            if verify_ma_star(image).sign == 1:
                reps.add(canonicalize(image))
    return sorted(reps, key=_poly_sort_key)

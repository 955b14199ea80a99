"""Monge-Ampere operators, exact verifiers and classification drivers.

The flat-type operator is det[(d^2 D0/dx_i dx_j)x_i + (d D0/dx_j)d_ij];
the log-type operator divides the analogous determinant built from
Q*Q_ab - Q_a*Q_b by Q^(n-1).  A polynomial P with P(0) = +-1 is a
solution of the normalized equation when the log-type left side equals
+-P^n exactly.

Classification in one and two variables proceeds exactly: axis
restrictions are matched against binomial powers, admissible exponents
are found by attempting Taylor continuation off the x2 = 0 axis, and
the continuation accepts a candidate only through verify_ma_star, so
every produced candidate is verified symbolically, once.

The continuation never expands the full two-variable residual while it
runs.  Order h needs only the x2^h coefficient of the residual, which
comes from x2-series products truncated at degree h (lower-order
coefficients are kept between orders), and P_{h+1} follows from it by
one exact division by a closed-form probe factor of the axis data.  A
branch is rejected early only on a coefficient that no later order can
change, so the early rejection is itself a certificate; acceptance still
requires the full symbolic left side to equal the signed P^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from toricpke.algebra import (
    BinomialProfile,
    MultiPoly,
    NoExactRootError,
    NotBinomialPowerError,
    NotDivisibleError,
    PolyMatrix,
    Scalar,
    adjugate,
    binomial_power,
    binomial_profile,
    determinant,
    determinant_cofactor,
    exact_divide,
)
from toricpke.geometry import toric_hessian_matrix


class ProfileMismatchError(ArithmeticError):
    """An axis restriction fails the binomial-power or companion check."""


@dataclass(frozen=True)
class MAResult:
    is_solution: bool
    sign: Optional[int]  # +1 or -1 when is_solution
    witness: MultiPoly  # the computed left-hand side


@dataclass(frozen=True)
class AxisProfile:
    axis: int
    epsilon: int
    r: Scalar
    k: int


@dataclass(frozen=True)
class CauchyData:
    """Axis data P(x1,0), dP/dx2(x1,0) plus the sign/shape parameters."""

    P0: MultiPoly
    P1: MultiPoly
    epsilon: int
    sigma: int
    r: Scalar
    k: int


@dataclass(frozen=True)
class ExponentRatio:
    """The positive rational s/q with gcd(s, q) = 1."""

    s: int
    q: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.s, self.q)


@dataclass(frozen=True)
class FlatClassification:
    is_solution: bool
    coeffs: Optional[tuple]  # linear coefficients k_i when accepted
    coeff_product: Optional[Scalar]


def ma_lhs_flat(d0: MultiPoly) -> MultiPoly:
    """Exact determinant of the flat-type Monge-Ampere matrix."""
    return determinant(toric_hessian_matrix(d0))


def classify_flat(d0: MultiPoly) -> FlatClassification:
    """Accept exactly the affine d0 whose linear coefficients multiply to +-1."""
    n = d0.nvars
    lhs = ma_lhs_flat(d0)
    if lhs != 1 and lhs != -1:
        return FlatClassification(False, None, None)
    # accepted solutions are affine with coefficient product +-1
    assert d0.degree() <= 1, "flat solution with determinant +-1 must be affine"
    coeffs = tuple(
        d0.coefficient(tuple(1 if j == i else 0 for j in range(n)))
        for i in range(n)
    )
    product = math.prod(coeffs, start=Fraction(1))
    assert product in (1, -1)
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
    g the gradient of Q and c = x o g, so the matrix determinant lemma gives
    det M = Q^(n-1)*(Q*det A - g^T*adj(A)*c) for every Q, singular A
    included.  The left side is the bracket, which needs neither M's
    determinant nor a division.
    """
    if q.constant_term() not in (1, -1):
        raise ValueError("log-type candidate needs constant term +-1")
    n = q.nvars
    a = toric_hessian_matrix(q)
    # entries of A have low degree; cofactor expansion avoids the term
    # swell of fraction-free intermediates here
    det_a = determinant_cofactor(a)
    adj_a = adjugate(a)
    grad = [q.partial_derivative(i) for i in range(n)]
    # sum_alpha (sum_beta grad_beta*adj[beta, alpha]) * (x_alpha*grad_alpha):
    # one large product per column instead of one per entry
    correction = MultiPoly.zero(n)
    for alpha in range(n):
        row = MultiPoly.zero(n)
        for beta in range(n):
            row = row + grad[beta] * adj_a[beta, alpha]
        correction = correction + row * (MultiPoly.variable(n, alpha) * grad[alpha])
    return q * det_a - correction


def verify_ma_star(p: MultiPoly) -> MAResult:
    """Exact check that the log-type left side equals +-P^n."""
    lhs = ma_lhs_log(p)
    rhs = p**p.nvars
    if lhs == rhs:
        return MAResult(True, 1, lhs)
    if lhs == -rhs:
        return MAResult(True, -1, lhs)
    return MAResult(False, None, lhs)


def exponent_scan(q: MultiPoly) -> Optional[ExponentRatio]:
    """Find the exponent ratio 4*lambda/c = s/q from the log-type left side.

    When the left side equals +-Q^e for a rational e >= 0 the ratio is
    n + 1 - e; the candidate exponent is read off the degrees and the
    power identity lhs^b = +-Q^a is checked exactly.  Returns None when
    the left side is not a rational power of Q or the ratio is not
    positive.
    """
    if q.constant_term() != 1:
        raise ValueError("exponent scan expects constant term 1")
    n = q.nvars
    lhs = ma_lhs_log(q)
    if lhs.is_zero():
        return None
    dq = q.degree()
    dl = lhs.degree()
    if dq <= 0:
        return None
    if dl == 0:
        if lhs not in (1, -1):
            return None
        e = Fraction(0)
    else:
        e = Fraction(int(dl), int(dq))
    a, b = e.numerator, e.denominator
    power = q**a
    if lhs**b != power and lhs**b != -power:
        return None
    ratio = Fraction(n + 1) - e
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
    must equal +-eps^(n-2)*(r/k)*(1 + t/r)^(k(n-2)+2) exactly.
    """
    n = p.nvars
    if not 0 <= axis < n:
        raise IndexError("axis out of range")
    pt = p.restrict_to_axis(axis)
    try:
        prof = binomial_profile(pt)
    except NotBinomialPowerError as exc:
        raise ProfileMismatchError(str(exc)) from exc
    if n >= 2:
        qt = MultiPoly.one(1)
        for j in range(n):
            if j != axis:
                qt = qt * p.partial_derivative(j).restrict_to_axis(axis)
        eps, r, k = prof
        expected = (
            Fraction(eps) ** (n - 2)
            * (r / k)
            * (MultiPoly.one(1) + MultiPoly.variable(1, 0) * (1 / r)) ** (k * (n - 2) + 2)
        )
        if qt != expected and qt != -expected:
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
    p0 = binomial_power(1, 0, epsilon, r, k)
    p1 = sigma * (r / k) * (MultiPoly.one(1) + MultiPoly.variable(1, 0) * (1 / r)) ** 2
    return CauchyData(p0, p1, epsilon, sigma, r, k)


def _lift_univariate(p: MultiPoly, x2_power: int) -> MultiPoly:
    """Embed a univariate polynomial in x1 as a 2-variable one times x2^h."""
    return MultiPoly(2, {(e[0], x2_power): c for e, c in p.terms.items()})


def _convolve(f, g, i: int) -> MultiPoly:
    """x2^i coefficient of the product of two x2-series.

    A series is given by a function from the x2-exponent to the
    coefficient, a univariate polynomial in x1.
    """
    total = MultiPoly.zero(1)
    for j in range(i + 1):
        a = f(j)
        if not a.is_zero():
            b = g(i - j)
            if not b.is_zero():
                total = total + a * b
    return total


def _convolve_square(f, i: int) -> MultiPoly:
    """x2^i coefficient of the square of an x2-series."""
    total = MultiPoly.zero(1)
    for j in range((i + 1) // 2):
        a = f(j)
        if not a.is_zero():
            b = f(i - j)
            if not b.is_zero():
                total = total + a * b
    total = total + total
    if i % 2 == 0:
        mid = f(i // 2)
        if not mid.is_zero():
            total = total + mid * mid
    return total


def _series(lookahead: int):
    """Memoize entry i of a derived series once P_0..P_{i+lookahead} exist."""

    def wrap(compute):
        def entry(self, i):
            memo = self._memo.setdefault(compute.__name__, {})
            value = memo.get(i)
            if value is None:
                value = compute(self, i)
                if i + lookahead < len(self.coeffs):
                    memo[i] = value
            return value

        return entry

    return wrap


class _ResidualSeries:
    """x2-coefficients of det M - eq_sign*P^3 for P = sum_j coeffs[j]*x2^j.

    With M the log-type matrix of P (see log_ma_matrix) the residual is
    M11*M22 - x1*x2*N^2 - eq_sign*P^3, where
    M11 = x1*(P*P_11 - P_1^2) + P*P_1, M22 = x2*(P*P_22 - P_2^2) + P*P_2
    and N = P*P_12 - P_1*P_2 (subscripts 1, 2 are partials in x1, x2).
    Every product is truncated at the x2-degree asked for.  Coefficients
    past the end of the list count as zero, and the list only grows, so
    an entry of a derived series is final, and kept, once every P_j it
    reads is present: the x2^h coefficient then costs O(h) univariate
    products on top of those kept from lower orders.
    """

    def __init__(self, coeffs: list, eq_sign: int):
        self.coeffs = list(coeffs)
        self.eq_sign = eq_sign
        self._memo = {}

    def p(self, i: int) -> MultiPoly:
        return self.coeffs[i] if i < len(self.coeffs) else MultiPoly.zero(1)

    @_series(lookahead=0)
    def p_1(self, i):
        return self.p(i).partial_derivative(0)

    @_series(lookahead=0)
    def p_11(self, i):
        return self.p_1(i).partial_derivative(0)

    @_series(lookahead=1)
    def p_2(self, i):
        return self.p(i + 1) * (i + 1)

    @_series(lookahead=2)
    def p_22(self, i):
        return self.p(i + 2) * ((i + 1) * (i + 2))

    @_series(lookahead=1)
    def p_12(self, i):
        return self.p_1(i + 1) * (i + 1)

    @_series(lookahead=0)
    def m11(self, i):
        x1 = MultiPoly.variable(1, 0)
        hess = _convolve(self.p, self.p_11, i) - _convolve_square(self.p_1, i)
        return x1 * hess + _convolve(self.p, self.p_1, i)

    @_series(lookahead=1)
    def m22(self, i):
        entry = _convolve(self.p, self.p_2, i)
        if i:
            # the factor x2 of x2*(P*P_22 - P_2^2) shifts its index by one
            entry = (
                entry
                + _convolve(self.p, self.p_22, i - 1)
                - _convolve_square(self.p_2, i - 1)
            )
        return entry

    @_series(lookahead=1)
    def n(self, i):
        return _convolve(self.p, self.p_12, i) - _convolve(self.p_1, self.p_2, i)

    @_series(lookahead=0)
    def square(self, i):
        return _convolve_square(self.p, i)

    def order(self, h: int) -> MultiPoly:
        """The x2^h coefficient of the residual, exact."""
        cube = _convolve(self.square, self.p, h)
        residual = _convolve(self.m11, self.m22, h) - self.eq_sign * cube
        if h:
            x1 = MultiPoly.variable(1, 0)
            residual = residual - x1 * _convolve_square(self.n, h - 1)
        return residual


def _probe_factor(p0: MultiPoly) -> MultiPoly:
    """m = P0*[(P0*P0'' - P0'^2)*x1 + P0*P0'] for the axis polynomial P0.

    For h >= 1 the x2^h coefficient of the residual is affine in P_{h+1}
    with linear coefficient (h+1)^2*m: P_{h+1} enters at that order only
    through P*P_2 and x2*P*P_22 inside M22, multiplied by the x2-free
    part of M11.
    """
    d1 = p0.partial_derivative(0)
    d2 = d1.partial_derivative(0)
    x1 = MultiPoly.variable(1, 0)
    return p0 * ((p0 * d2 - d1 * d1) * x1 + p0 * d1)


def _continue_with_sign(
    cd: CauchyData, degree_bound: int, eq_sign: int, probe: MultiPoly
) -> Optional[MultiPoly]:
    series = _ResidualSeries([cd.P0, cd.P1], eq_sign)
    # the x2^0 coefficient involves only P0 and P1, so no later order can
    # cancel it: a nonzero value certifies that this sign is inconsistent
    if not series.order(0).is_zero():
        return None
    degree_cap = 3 * degree_bound + 6
    for h in range(1, degree_bound):
        t = series.order(h)
        if probe.is_zero():
            if not t.is_zero():
                return None
            nxt = MultiPoly.zero(1)
        else:
            try:
                nxt = exact_divide(-t, probe) * Fraction(1, (h + 1) ** 2)
            except NotDivisibleError:
                return None
        if nxt.degree() > degree_cap:
            return None
        series.coeffs.append(nxt)
    # x2^bound is the first order the loop does not force; the candidate
    # has no x2^(bound+1) term, so this coefficient is final for it
    if not series.order(degree_bound).is_zero():
        return None
    candidate = sum(
        (_lift_univariate(c, j) for j, c in enumerate(series.coeffs)),
        MultiPoly.zero(2),
    )
    if verify_ma_star(candidate).sign != eq_sign:
        return None
    return candidate


def taylor_continue_n2(cd: CauchyData, degree_bound: int = 6) -> Optional[MultiPoly]:
    """Reconstruct the two-variable solution from its Cauchy data.

    The solution is written as sum_h P_h(x1)*x2^h and the residual of
    the equation is forced to vanish order by order in x2.  Order h
    needs only the x2^h coefficient of the residual, computed from
    products truncated at x2-degree h, and it is t + (h+1)^2*m*P_{h+1}
    with m the closed-form probe factor of P0; so each order determines
    P_{h+1} by one exact division by m, shared by both signs of the
    equation.  A candidate is returned only when verify_ma_star gives it
    the sign its orders were forced for, so callers need not verify it
    again.  Returns None (inconsistent) when a division fails, when the
    x2^0 coefficient (fixed by P0, P1 alone) or the first unforced
    x2^bound coefficient is nonzero, or when verify_ma_star rejects the
    candidate.  The two early rejections are certificates: each is a
    coefficient of the candidate's residual det M - eq_sign*P^3.
    """
    if degree_bound < max(2, cd.k):
        raise ValueError("degree_bound must be at least max(2, k)")
    probe = _probe_factor(cd.P0)
    for eq_sign in (1, -1):
        result = _continue_with_sign(cd, degree_bound, eq_sign, probe)
        if result is not None:
            return result
    return None


DEFAULT_SCAN_GRID = (
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(3),
    Fraction(-3),
)


def feasible_k_scan_n2(k_max: int, r_grid=DEFAULT_SCAN_GRID) -> set:
    """Exponents k whose Cauchy data admits a consistent continuation.

    Every sign branch and every grid value of r is attempted; a k is
    feasible when at least one branch continues to a verified polynomial
    solution.
    """
    if k_max < 1:
        raise ValueError("k_max must be positive")
    feasible = set()
    for k in range(1, k_max + 1):
        bound = max(6, k + 2)
        found = False
        for r in r_grid:
            for epsilon in (1, -1):
                for sigma in (1, -1):
                    cd = cauchy_data(epsilon, sigma, r, k)
                    if taylor_continue_n2(cd, bound) is not None:
                        found = True
                        break
                if found:
                    break
            if found:
                break
        if found:
            feasible.add(k)
    return feasible


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
            for epsilon in (1, -1):
                p = binomial_power(1, 0, epsilon, r, k)
                if verify_ma_star(p).is_solution and p not in found:
                    found.append(p)
    return sorted(found, key=_poly_sort_key)


def _poly_sort_key(p: MultiPoly):
    return (p.degree(), sorted(p.terms.items()))


def search_n2(r_grid, degree_bound: int = 6, k_max: int = 6) -> list:
    """Two-variable solutions reachable from the Cauchy families.

    Composes the feasibility scan and the Taylor continuation, which
    verifies what it returns, over the grid; results are deduplicated
    up to the sign normalizations of the catalog module.
    """
    from toricpke.catalog import canonicalize

    ks = sorted(feasible_k_scan_n2(k_max))
    reps = {}
    for r in r_grid:
        r = Fraction(r)
        if r == 0:
            continue
        for k in ks:
            for epsilon in (1, -1):
                for sigma in (1, -1):
                    cd = cauchy_data(epsilon, sigma, r, k)
                    p = taylor_continue_n2(cd, degree_bound)
                    if p is None:
                        continue
                    rep = canonicalize(p)
                    reps.setdefault(rep, rep)
    return sorted(reps, key=_poly_sort_key)

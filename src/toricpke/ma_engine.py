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

verify_ma_star is a case of the one decision whether the left side is
C*(eps*P)^e, which toricpke.einstein owns: its module docstring derives
the value at the origin, the Euler matrix of P at the test point, the
point certificates, the blocks, the block check and the theorem by
which classify_flat decides from the degree.

Classification in one and two variables proceeds exactly, and every
produced candidate is verified by verify_ma_star.  In one variable the
binomial-profile theorem of toricpke.einstein leaves the exponent k = 2
alone, so classify_n1 verifies (1 + x/r)^2 once per r.  In two, axis
restrictions are matched against binomial powers and admissible
exponents are found by attempting Taylor continuation off the x2 = 0
axis.

taylor_continue_n2 continues one Cauchy datum per exponent k, eps =
sigma = r = 1.  The data fix the equation's sign, and every datum of one
k is an image of that one, P_{eps,sigma,r}(x1, x2) =
eps*P_{1,1,1}(x1/r, eps*sigma*r*x2), failures included: under x -> (l1*x1, l2*x2) the
bordered determinant of ma_lhs_log gains the factor l1*l2, which is 1
here.  So the work of a continuation does not grow with r, and the
search continues each k once and verifies the image for each r on its
grid, with no feasibility scan first.  The continuation never expands
the two-variable left side while it runs.  It writes P = sum_h P_h*x2^h
in the Euler form of toricpke.einstein, where x2*d/dx2 multiplies the
x2^h coefficient by h, so the x2^(h+1) coefficient of det[[T, U], [U^T,
P]] - x1*x2*P^2, x1 times the x2^h coefficient of L - P^2, is a sum of
products of univariate coefficients, built in one accumulator
by one call of algebra's _dot; the products of pairs of lower
coefficients are taken once and kept between orders, and each sum over
them is again one call.  It is affine in P_{h+1}, with
a slope computed once from the axis data, so P_{h+1} follows by one
exact division.  Every rejection is a certificate; acceptance requires
verify_ma_star to give the image the sign sigma.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from toricpke.algebra import (
    BinomialProfile,
    DomainError,
    MultiPoly,
    NotBinomialPowerError,
    NotDivisibleError,
    Scalar,
    _dot,
    adjugate,  # noqa: F401  re-bound by perfbench/tracing.py
    binomial_power,
    binomial_profile,
    determinant,  # noqa: F401  re-bound by perfbench/tracing.py
    determinant_cofactor,
    exact_divide,
    toric_hessian_matrix,
)


class ProfileMismatchError(ArithmeticError):
    """An axis restriction fails the binomial-power or companion check."""


class MAResult(NamedTuple):
    is_solution: bool
    sign: Optional[int]  # +1 or -1 when is_solution
    refuted_at: Optional[tuple] = None  # einstein.PointRefutation, when the point refutes


class CauchyData(NamedTuple):
    """The axis data P(x1, 0) = eps*(1 + x1/r)^k and
    dP/dx2(x1, 0) = sigma*(r/k)*(1 + x1/r)^2."""

    epsilon: int
    sigma: int
    r: Scalar
    k: int


class FlatClassification(NamedTuple):
    is_solution: bool
    coeffs: Optional[tuple]  # linear coefficients k_i when accepted
    coeff_product: Optional[Scalar]


def ma_lhs_flat(d0: MultiPoly) -> MultiPoly:
    """Exact determinant of the flat-type Monge-Ampere matrix (the tests' oracle)."""
    return determinant_cofactor(toric_hessian_matrix(d0))


def classify_flat(d0: MultiPoly) -> FlatClassification:
    """Accept exactly the d0 whose flat-type left side is +-1.

    Its value at the origin is the product of the linear coefficients,
    which must be +-1, and by the theorem of toricpke.einstein it is
    constant exactly when d0 is affine, so no determinant is taken.
    """
    from toricpke import einstein

    product = einstein.origin_value(d0, "poly")
    if product not in (1, -1) or d0.degree() > 1:
        return FlatClassification(False, None, None)
    return FlatClassification(True, tuple(einstein.linear_coefficients(d0)), product)


def log_ma_matrix(q: MultiPoly) -> list:
    """Rows of (Q Q_ab - Q_a Q_b)x_a + Q Q_a delta_ab."""
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
    return rows


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
    return determinant_cofactor(rows)


def verify_ma_star(p: MultiPoly) -> MAResult:
    """Exact check that the log-type left side L equals +-P^n.

    The case e = n of toricpke.einstein's decision (see star_decision);
    einstein.star_witness builds L itself.
    """
    from toricpke import einstein

    sign, refuted_at = einstein.star_decision(p)
    return MAResult(sign is not None, sign, refuted_at)


def exponent_scan(q: MultiPoly) -> Optional[Fraction]:
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
    return ratio if ratio > 0 else None


def reduce_power(q: MultiPoly, ratio: Fraction) -> MultiPoly:
    """Reduce Q = R(x/d)^d to the candidate P = R(x/s)^s, ratio = s/d.

    Raises NoExactRootError when Q is not an exact d-th power after the
    coordinate rescaling.
    """
    from toricpke.algebra import nth_root

    if q.constant_term() != 1:
        raise ValueError("reduce_power expects constant term 1")
    n, s, d = q.nvars, ratio.numerator, ratio.denominator
    r = nth_root(q.scale_vars([Fraction(d)] * n), d)
    return r.scale_vars([Fraction(1, s)] * n) ** s


def axis_profile_check(p: MultiPoly, axis: int) -> BinomialProfile:
    """Certify the axis restriction eps*(1 + t/r)^k and its companion.

    For n >= 2 the restriction of prod_{j != axis} dP/dx_j to the axis
    must equal +-eps^(n-2)*(r/k)*(1 + t/r)^(k(n-2)+2) exactly.  As 1 + t/r
    is irreducible, that holds exactly when each factor f_j is
    f_j(0)*(1 + t/r)^(m_j), f_j(0) != 0, with sum m_j = k(n-2) + 2 and
    (k/r)*prod f_j(0) = +-1, so neither the product nor a power is built.
    """
    n = p.nvars
    if not 0 <= axis < n:
        raise IndexError("axis out of range")
    try:
        prof = binomial_profile(p.restrict((axis,)))
    except NotBinomialPowerError as exc:
        raise ProfileMismatchError(str(exc)) from exc
    if n >= 2 and not _companion_matches(p, axis, prof.r, prof.k):
        raise ProfileMismatchError(
            f"companion restriction on axis {axis} does not match"
        )
    return prof


def _companion_matches(p: MultiPoly, axis: int, r: Fraction, k: int) -> bool:
    lead, total = k / r, 0
    for j in range(p.nvars):
        if j == axis:
            continue
        f = p.partial_derivative(j).restrict((axis,))
        c0 = f.constant_term()
        if not c0:
            return False
        lead *= c0
        if not f.is_constant():
            try:
                prof = binomial_profile(f * (1 / c0))
            except NotBinomialPowerError:
                return False
            if prof.r != r:
                return False
            total += prof.k
    return total == k * (p.nvars - 2) + 2 and lead in (1, -1)


def cauchy_data(epsilon: int, sigma: int, r, k: int) -> CauchyData:
    """The datum of (eps, sigma, r, k), once they are checked."""
    if epsilon not in (1, -1) or sigma not in (1, -1):
        raise ValueError("epsilon and sigma must be +-1")
    r = Fraction(r)
    if r == 0:
        raise ValueError("r must be nonzero")
    if k < 1:
        raise ValueError("k must be a positive integer")
    return CauchyData(epsilon, sigma, r, k)


class _EulerSeries:
    """x2-coefficients of det E - x1*x2*P^2 for P = sum_h p[h]*x2^h.

    E is the Euler matrix of P (see toricpke.einstein), so det E = x1*x2*L
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

    def __init__(self, coeffs: list):
        self.p, self.u, self.t = [], [], []
        self._pairs = {}
        for c in coeffs:
            self.append(c)

    def append(self, c: MultiPoly):
        self.p.append(c)
        self.u.append(c.euler_derivative(0))
        self.t.append(self.u[-1].euler_derivative(0))

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
        """The x2^(h+1) coefficient, x1*[L - P^2]_h, exact.

        One sum of products, with [P^2]_h as plain addends, and each
        (2i^2 - i*m)*S_r + W_r one sum built from the products U_l*U_j.
        """
        m = h + 1
        items = [(-c, p.shift((1,)), None)
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

    Only the datum eps = sigma = r = 1 of cd.k is continued, P_0 = (1 +
    x1)^k and P_1 = (1 + x1)^2/k, and the solution of cd is its image
    (_datum_image), failures included.  The solution is written as
    sum_h P_h(x1)*x2^h, and L - P^2 is forced to vanish order by order in
    x2, on the Euler form of the bordered determinant (see _EulerSeries);
    the sign is 1 because the x2^0 coefficient of x1*(L - s*P^2) is
    x1*(1 - s)*(1 + x1)^(2k).  Order h is t + (h+1)^2*m*P_(h+1), with t
    read from P_0..P_h and the slope m = T_0*P_0 - U_0^2, as P_(h+1)
    enters order(h) only through T_0*R_(h+1) and P_(h+1)*S_0; that is
    k*x1*(1 + x1)^(2k-2), never zero, so P_(h+1) is one exact division
    by m.  Returns None when a division fails, when the first unforced
    x2^bound coefficient is nonzero, or when verify_ma_star does not give
    the image the sign sigma: each is a certificate.  A returned
    candidate is verified.
    """
    k = cd.k
    if degree_bound < max(2, k):
        raise ValueError("degree_bound must be at least max(2, k)")
    series = _EulerSeries([binomial_power(1, 1, k),
                           Fraction(1, k) * binomial_power(1, 1, 2)])
    slope = k * binomial_power(1, 1, 2 * k - 2).shift((1,))
    for h in range(1, degree_bound):
        try:
            nxt = exact_divide(series.order(h), slope) * Fraction(-1, (h + 1) ** 2)
        except NotDivisibleError:
            return None
        series.append(nxt)
    # x2^bound is the first order the loop does not force; the candidate
    # has no x2^(bound+1) term, so this coefficient is final for it
    if not series.order(degree_bound).is_zero():
        return None
    candidate = _datum_image(MultiPoly(2, {
        (e[0], h): c for h, ph in enumerate(series.p) for e, c in ph.terms.items()
    }), cd.epsilon, cd.sigma, cd.r)
    if verify_ma_star(candidate).sign != cd.sigma:
        return None
    return candidate


def _datum_image(p: MultiPoly, epsilon: int, sigma: int, r) -> MultiPoly:
    """eps*P(x1/r, eps*sigma*r*x2): for P continued from the datum eps =
    sigma = r = 1, the continuation of the datum (eps, sigma, r) of the
    same k (see the module docstring)."""
    if epsilon == sigma == r == 1:
        return p
    image = p.scale_vars([1 / r, epsilon * sigma * r])
    return -image if epsilon == -1 else image


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


def classify_n1(r_grid) -> list:
    """All univariate solutions eps*(1 + x/r)^k over the given grid.

    By the theorem in toricpke.einstein's docstring, eps*(1 + t/r)^k has
    L = C*(eps*P)^e only at e = 2(k - 1)/k, so L = +-P needs k = 2, and
    each nonzero r is verified at k = 2 alone.  For n = 1 the left side is
    quadratic in P, so -P solves, with the opposite sign, exactly when P
    does.
    """
    found = set()
    for r in map(Fraction, r_grid):
        if r != 0:
            p = binomial_power(1, r, 2)
            if verify_ma_star(p).is_solution:
                found.update((p, -p))
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
            image = _datum_image(p, 1, 1, r)
            if verify_ma_star(image).sign == 1:
                reps.add(canonicalize(image))
    return sorted(reps, key=_poly_sort_key)

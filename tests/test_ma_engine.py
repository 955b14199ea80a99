"""Monge-Ampere operators, classification drivers, and continuation."""

import random
from fractions import Fraction

import pytest

from conftest import COEFF_POOL, direct_lhs_log, n2_residual, random_poly
from toricpke import algebra
from toricpke.algebra import (
    MultiPoly,
    NoExactRootError,
    binomial_power,
)
from toricpke.catalog import canonicalize, partitions, product_solution
from toricpke.ma_engine import (
    ExponentRatio,
    ProfileMismatchError,
    _probe_factor,
    _ResidualSeries,
    axis_profile_check,
    cauchy_data,
    classify_flat,
    classify_n1,
    exponent_scan,
    feasible_k_scan_n2,
    ma_lhs_flat,
    ma_lhs_log,
    reduce_power,
    search_n2,
    taylor_continue_n2,
    verify_ma_star,
)

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def x(nvars, i):
    return MultiPoly.variable(nvars, i)


def symmetric_cube():
    return (MultiPoly.one(2) + x(2, 0) * THIRD + x(2, 1) * THIRD) ** 3


def split_square():
    return ((MultiPoly.one(2) + x(2, 0) * HALF) ** 2
            * (MultiPoly.one(2) + x(2, 1) * HALF) ** 2)


# ---------------------------------------------------------------------------
# flat-type operator and classification


def test_flat_lhs_of_reciprocal_diagonal():
    d0 = x(2, 0) * 2 + x(2, 1) * HALF
    assert ma_lhs_flat(d0) == MultiPoly.one(2)


def test_flat_lhs_univariate_linear():
    assert ma_lhs_flat(x(1, 0)) == MultiPoly.one(1)


def test_flat_lhs_with_cross_term():
    d0 = x(2, 0) + x(2, 1) + x(2, 0) * x(2, 1)
    assert ma_lhs_flat(d0) == MultiPoly.one(2) + x(2, 0) + x(2, 1)


def test_classify_flat_accepts_reciprocal_pair():
    result = classify_flat(x(2, 0) * 2 + x(2, 1) * HALF)
    assert result.is_solution
    assert result.coeffs == (Fraction(2), HALF)
    assert result.coeff_product == 1


def test_classify_flat_rejects_wrong_product():
    assert not classify_flat(x(2, 0) + x(2, 1) * 2).is_solution


def test_classify_flat_rejects_cross_term():
    assert not classify_flat(
        x(2, 0) + x(2, 1) + x(2, 0) * x(2, 1)
    ).is_solution


def test_classify_flat_rejects_constant():
    assert not classify_flat(MultiPoly.constant(2, 5)).is_solution


def test_flat_degree_inequality():
    # deg LHS <= (n+1) deg D0 - n for non-constant D0
    rng = random.Random(13)
    for _ in range(30):
        d0 = random_poly(rng, 2, 3)
        if d0.is_constant():
            continue
        lhs = ma_lhs_flat(d0)
        if lhs.is_zero():
            continue
        assert lhs.degree() <= 3 * d0.degree() - 2


# ---------------------------------------------------------------------------
# log-type operator


def test_log_lhs_fixed_point_plus():
    q = (MultiPoly.one(1) + x(1, 0) * HALF) ** 2
    assert ma_lhs_log(q) == q


def test_log_lhs_fixed_point_minus():
    q = (MultiPoly.one(1) - x(1, 0) * HALF) ** 2
    assert ma_lhs_log(q) == -q


def test_log_lhs_affine_gives_constant():
    q = MultiPoly.one(1) + x(1, 0) * 2
    assert ma_lhs_log(q) == MultiPoly.constant(1, 2)


def random_log_candidate(rng, nvars):
    """Random Q with Q(0) = +-1 and a linear term in every variable.

    A Q free of some variable has a zero log-type left side, so the
    linear terms keep most samples from being trivial.
    """
    p = random_poly(rng, nvars, 3 if nvars <= 2 else 2, 2 * nvars)
    q = p - MultiPoly.constant(nvars, p.constant_term())
    q = q + MultiPoly.constant(nvars, rng.choice((1, -1)))
    for i in range(nvars):
        q = q + x(nvars, i) * rng.choice(COEFF_POOL)
    return q


def test_log_lhs_direct_and_rank1_agree():
    rng = random.Random(19)
    for nvars in (1, 2, 3, 4):
        for _ in range(10):
            q = random_log_candidate(rng, nvars)
            assert ma_lhs_log(q) == direct_lhs_log(q)
    for q in (symmetric_cube(), split_square(), product_solution((2, 1))):
        assert ma_lhs_log(q) == direct_lhs_log(q)


def test_log_lhs_matches_sympy_determinant():
    import sympy

    rng = random.Random(23)
    for nvars in (1, 2, 3):
        xs = sympy.symbols(f"x1:{nvars + 1}")
        for _ in range(4):
            q = random_log_candidate(rng, nvars)
            qs = sum(
                sympy.Rational(c.numerator, c.denominator)
                * sympy.prod([v**e for v, e in zip(xs, exp)])
                for exp, c in q.terms.items()
            )
            m = sympy.Matrix(nvars, nvars, lambda a, b: (
                (qs * sympy.diff(qs, xs[a], xs[b])
                 - sympy.diff(qs, xs[a]) * sympy.diff(qs, xs[b])) * xs[a]
                + (qs * sympy.diff(qs, xs[a]) if a == b else 0)
            ))
            quotient, remainder = sympy.div(
                sympy.expand(m.det()), sympy.expand(qs ** (nvars - 1)), *xs
            )
            assert remainder == 0
            expected = MultiPoly(nvars, {
                exp: Fraction(int(c.p), int(c.q))
                for exp, c in sympy.Poly(quotient, *xs).terms()
            })
            assert ma_lhs_log(q) == expected


# ---------------------------------------------------------------------------
# MA-star verification


def test_verify_n1_solution_sign_plus():
    res = verify_ma_star((MultiPoly.one(1) + x(1, 0) * HALF) ** 2)
    assert res.is_solution and res.sign == 1


def test_verify_n1_solution_sign_minus():
    res = verify_ma_star((MultiPoly.one(1) - x(1, 0) * HALF) ** 2)
    assert res.is_solution and res.sign == -1


def test_verify_n2_cubic_solution():
    assert verify_ma_star(symmetric_cube()).is_solution


def test_verify_rejects_perturbed_cubic():
    perturbed = symmetric_cube() + x(2, 0) * Fraction(1, 100)
    assert not verify_ma_star(perturbed).is_solution


def test_sign_covariance_under_variable_negation():
    rng = random.Random(29)
    candidates = [symmetric_cube(), split_square()]
    for _ in range(5):
        candidates.append(MultiPoly.one(2) + random_poly(rng, 2, 2, 3))
    for p in candidates:
        if p.constant_term() not in (1, -1):
            continue
        flipped = p.scale_vars([Fraction(-1), Fraction(-1)])
        assert (
            verify_ma_star(p).is_solution
            == verify_ma_star(flipped).is_solution
        )


# ---------------------------------------------------------------------------
# exponent scan and power reduction


def test_scan_fixed_point_has_unit_ratio():
    q = (MultiPoly.one(1) + x(1, 0) * HALF) ** 2
    assert exponent_scan(q) == ExponentRatio(1, 1)


def test_scan_fourth_power_has_half_ratio():
    q = (MultiPoly.one(1) + x(1, 0) * Fraction(1, 4)) ** 4
    ratio = exponent_scan(q)
    assert ratio == ExponentRatio(1, 2)
    assert ratio.ratio == HALF


def test_scan_of_affine_two_variable_reduces_to_the_cubic():
    # the affine candidate has LHS identically 1 = Q^0, so the exponent
    # ratio is (n+1) and the reduction lands on the symmetric cubic
    q = MultiPoly.one(2) + x(2, 0) + x(2, 1)
    ratio = exponent_scan(q)
    assert ratio == ExponentRatio(3, 1)
    assert reduce_power(q, ratio) == symmetric_cube()


def test_scan_rejects_non_power_lhs():
    q = MultiPoly.one(1) + x(1, 0) + x(1, 0) ** 2
    assert exponent_scan(q) is None


def test_reduce_fourth_power():
    q = (MultiPoly.one(1) + x(1, 0) * Fraction(1, 4)) ** 4
    p = reduce_power(q, ExponentRatio(1, 2))
    assert p == (MultiPoly.one(1) + x(1, 0) * HALF) ** 2
    assert verify_ma_star(p).is_solution


def test_reduce_identity_ratio():
    q = (MultiPoly.one(1) + x(1, 0) * HALF) ** 2
    assert reduce_power(q, ExponentRatio(1, 1)) == q


def test_reduce_rejects_incompatible_power():
    with pytest.raises(NoExactRootError):
        reduce_power((MultiPoly.one(1) + x(1, 0)) ** 2, ExponentRatio(1, 3))


def test_reduce_then_verify_on_catalog():
    for n in (1, 2, 3):
        for part in partitions(n):
            q = product_solution(part)
            ratio = exponent_scan(q)
            assert ratio is not None
            p = reduce_power(q, ratio)
            assert verify_ma_star(p).is_solution


# ---------------------------------------------------------------------------
# axis profiles


def test_axis_profile_of_cubic():
    prof = axis_profile_check(symmetric_cube(), 0)
    assert (prof.epsilon, prof.r, prof.k) == (1, Fraction(3), 3)


def test_axis_profile_of_split_square():
    prof = axis_profile_check(split_square(), 0)
    assert (prof.epsilon, prof.r, prof.k) == (1, Fraction(2), 2)


def test_axis_profile_mismatch():
    p = (MultiPoly.one(2) + x(2, 0)) * (
        MultiPoly.one(2) + x(2, 1) ** 2 + x(2, 1)
    )
    with pytest.raises(ProfileMismatchError):
        axis_profile_check(p, 1)


def test_axis_profile_on_all_catalog_axes():
    for n in (2, 3):
        for part in partitions(n):
            p = product_solution(part)
            for axis in range(n):
                axis_profile_check(p, axis)


# ---------------------------------------------------------------------------
# Cauchy continuation


def test_continuation_reconstructs_cubic_with_intermediates():
    cd = cauchy_data(1, 1, Fraction(3), 3)
    p = taylor_continue_n2(cd, 6)
    expected = (MultiPoly.one(2) + x(2, 0) * THIRD + x(2, 1) * THIRD) ** 3
    assert p == expected
    # x2-slice coefficients of the reconstruction
    p2 = {(e[0],): c for e, c in p.terms.items() if e[1] == 2}
    p3 = {(e[0],): c for e, c in p.terms.items() if e[1] == 3}
    assert MultiPoly(1, p2) == (MultiPoly.one(1) + x(1, 0) * THIRD) * THIRD
    assert MultiPoly(1, p3) == MultiPoly.constant(1, Fraction(1, 27))


def test_continuation_reconstructs_split_square():
    cd = cauchy_data(1, 1, Fraction(2), 2)
    assert taylor_continue_n2(cd, 6) == split_square()


def test_continuation_rejects_k1():
    assert taylor_continue_n2(cauchy_data(1, 1, Fraction(2), 1), 6) is None


def test_continuation_stable_under_degree_bound():
    for eps, sig, r, k in ((1, 1, Fraction(3), 3), (1, 1, Fraction(2), 2)):
        cd = cauchy_data(eps, sig, r, k)
        results = {taylor_continue_n2(cd, b) for b in (6, 8, 10)}
        assert len(results) == 1


def x2_slice(p, h):
    """Coefficient of x2^h of a two-variable polynomial, as a poly in x1."""
    return MultiPoly(1, {(e[0],): c for e, c in p.terms.items() if e[1] == h})


def lift(coeffs):
    """sum_j coeffs[j](x1) * x2^j as a two-variable polynomial."""
    return MultiPoly(2, {
        (e[0], j): c for j, p in enumerate(coeffs) for e, c in p.terms.items()
    })


def sympy_residual_coefficients(coeffs, eq_sign, upto):
    """x2^h coefficients, h <= upto, of det M - eq_sign*P^3 via sympy."""
    import sympy

    x1, x2 = sympy.symbols("x1 x2")
    p = sum(
        sympy.Rational(c.numerator, c.denominator) * x1 ** e[0] * x2 ** j
        for j, cj in enumerate(coeffs)
        for e, c in cj.terms.items()
    )
    xs = (x1, x2)
    m = sympy.Matrix(2, 2, lambda a, b: (
        (p * sympy.diff(p, xs[a], xs[b]) - sympy.diff(p, xs[a]) * sympy.diff(p, xs[b]))
        * xs[a]
        + (p * sympy.diff(p, xs[a]) if a == b else 0)
    ))
    residual = sympy.Poly(sympy.expand(m.det() - eq_sign * p**3), x1, x2)
    out = []
    for h in range(upto + 1):
        terms = {}
        for (e1, e2), c in residual.terms():
            if e2 == h:
                terms[(e1,)] = Fraction(int(c.p), int(c.q))
        out.append(MultiPoly(1, terms))
    return out


def test_order_coefficient_matches_sympy_expansion():
    # the series grows one coefficient at a time, as in the continuation,
    # and every order up to the bound is checked after each step, so
    # entries kept from a shorter list are checked too
    rng = random.Random(53)
    bound = 5
    for eps, sig, r, k in ((1, 1, 3, 3), (-1, 1, 2, 2), (1, -1, HALF, 4),
                           (-1, -1, Fraction(-3, 2), 1)):
        cd = cauchy_data(eps, sig, Fraction(r), k)
        extra = [random_poly(rng, 1, 3, 3) for _ in range(2)]
        for eq_sign in (1, -1):
            series = _ResidualSeries([cd.P0, cd.P1], eq_sign)
            for step in range(len(extra) + 1):
                if step:
                    series.coeffs.append(extra[step - 1])
                expected = sympy_residual_coefficients(series.coeffs, eq_sign, bound)
                for h in range(bound + 1):
                    assert series.order(h) == expected[h]


def test_order_zero_fixes_the_equation_sign():
    # the x2^0 coefficient is eps*(sigma - eq_sign)*(1 + x1/r)^(3k)
    for eps in (1, -1):
        for sig in (1, -1):
            cd = cauchy_data(eps, sig, Fraction(-2, 3), 3)
            for eq_sign in (1, -1):
                order0 = _ResidualSeries([cd.P0, cd.P1], eq_sign).order(0)
                assert order0.is_zero() == (eq_sign == sig)


def test_closed_form_probe_matches_full_expansion():
    for eps, sig, r, k in ((1, 1, 3, 3), (-1, 1, HALF, 2), (1, -1, -2, 1),
                           (-1, -1, Fraction(2, 3), 5)):
        cd = cauchy_data(eps, sig, Fraction(r), k)
        m = _probe_factor(cd.P0)
        for h in range(1, 9):
            probe = lift([cd.P0] + [MultiPoly.zero(1)] * h + [MultiPoly.one(1)])
            for eq_sign in (1, -1):
                full = x2_slice(n2_residual(probe, eq_sign), h)
                assert m * (h + 1) ** 2 == full


CONTINUATION_GRID = [
    Fraction(s) * v
    for v in (1, 2, 3, HALF, Fraction(3, 2), Fraction(2, 3))
    for s in (1, -1)
]


def test_continuation_succeeds_exactly_for_k2_and_k3():
    for k in range(1, 7):
        for r in CONTINUATION_GRID:
            for eps in (1, -1):
                for sig in (1, -1):
                    p = taylor_continue_n2(cauchy_data(eps, sig, r, k), max(6, k + 2))
                    # dP/dx2 on the axis is sigma*(r/k)*(1 + x1/r)^2, so
                    # the x2 coefficient inside the power carries eps*sigma
                    s = eps * sig
                    if k == 2:
                        expected = eps * (
                            (MultiPoly.one(2) + x(2, 0) * (1 / r)) ** 2
                            * (MultiPoly.one(2) + x(2, 1) * (s * r / 4)) ** 2
                        )
                    elif k == 3:
                        expected = eps * (
                            MultiPoly.one(2) + x(2, 0) * (1 / r) + x(2, 1) * (s * r / 9)
                        ) ** 3
                    else:
                        expected = None
                    assert p == expected, (k, r, eps, sig)


def test_feasible_scan_term_pair_budget(monkeypatch):
    # deterministic work gate: the truncated continuation multiplies
    # about 0.16M term pairs here; expanding the whole residual at every
    # order took 3.1M
    pairs = [0]
    mul_terms = algebra.mul_terms

    def counting(a, b):
        pairs[0] += len(a) * len(b)
        return mul_terms(a, b)

    monkeypatch.setattr(algebra, "mul_terms", counting)
    assert feasible_k_scan_n2(6) == {2, 3}
    assert 0 < pairs[0] <= 600_000


def test_rank_one_correction_term_pair_budget(monkeypatch):
    # deterministic work gate: summing grad_beta*adj[beta, alpha] over beta
    # before the product with x_alpha*grad_alpha multiplies about 3.2M
    # term pairs on (2,1,1); one product per matrix entry took 5.6M
    p = product_solution((2, 1, 1))
    expected = (p ** 3 * p).terms
    pairs = [0]
    mul_terms = algebra.mul_terms

    def counting(a, b):
        pairs[0] += len(a) * len(b)
        return mul_terms(a, b)

    monkeypatch.setattr(algebra, "mul_terms", counting)
    assert ma_lhs_log(p).terms == expected
    assert 0 < pairs[0] <= 3_400_000


# ---------------------------------------------------------------------------
# scans and searches


def test_feasible_k_scan():
    assert feasible_k_scan_n2(6) == {2, 3}


def test_feasible_k_scan_below_threshold():
    assert feasible_k_scan_n2(1) == set()


def test_k4_is_infeasible():
    assert 4 not in feasible_k_scan_n2(4)


def test_classify_n1_finds_only_the_quadratics():
    grid = [Fraction(v) for v in (1, -1, 2, -2, 3, -3)] + [HALF, -HALF]
    sols = classify_n1(6, grid)
    expected = {
        binomial_power(1, 0, eps, Fraction(s * 2), 2)
        for eps in (1, -1)
        for s in (1, -1)
    }
    assert set(sols) == expected


def test_classify_n1_empty_without_admissible_r():
    assert classify_n1(6, [Fraction(1), Fraction(3)]) == []


def test_search_n2_returns_both_families():
    grid = [Fraction(v) for v in (2, 3)]
    sols = search_n2(grid)
    expected = set()
    for r in grid:
        cubic = (
            MultiPoly.one(2) + x(2, 0) * (1 / r) + x(2, 1) * (r / 9)
        ) ** 3
        quartic = (MultiPoly.one(2) + x(2, 0) * (1 / r)) ** 2 * (
            MultiPoly.one(2) + x(2, 1) * (r / 4)
        ) ** 2
        expected.add(canonicalize(cubic))
        expected.add(canonicalize(quartic))
    assert set(sols) == expected
    for p in sols:
        assert verify_ma_star(p).is_solution


def test_search_n2_empty_grid():
    assert search_n2([]) == []

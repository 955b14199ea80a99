"""Monge-Ampere operators, classification drivers, and continuation."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    COEFF_POOL,
    count_term_pairs,
    direct_lhs_log,
    dlog_by_terms,
    euler_by_terms,
    point_first_exponent,
    naive_pow,
    random_poly,
)
from toricpke import algebra, einstein, ma_engine
from toricpke.algebra import (
    MAX_SYMBOLIC_PAIRS,
    MultiPoly,
    NoExactRootError,
    SymbolicLimitError,
    binomial_power,
)
from toricpke.catalog import (
    canonicalize,
    partitions,
    potential_for_power,
    product_solution,
)
from toricpke.einstein import (
    _TEST_PRIME,
    EinsteinExponent,
    _block_loop,
    _coupling_blocks,
    _dlog_lhs,
    _eliminate,
    _euler,
    _is_linear_form,
    _point_refutation,
    _power_exponent,
    _product_blocks,
    _profile_exponent,
    _rational_reconstruction,
    einstein_exponent,
    linear_coefficients,
    star_witness,
)
from toricpke.geometry import DomainError
from toricpke.ma_engine import (
    CauchyData,
    FlatClassification,
    MAResult,
    ProfileMismatchError,
    _EulerSeries,
    _poly_sort_key,
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


def sympy_flat_det(d0):
    """det[x_i*d^2 D0/dx_i dx_j + delta_ij*dD0/dx_j] expanded by sympy."""
    import sympy

    xs = sympy.symbols(f"x1:{d0.nvars + 1}")
    f = sum(sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(v ** k for v, k in zip(xs, e))) for e, c in d0.terms.items())
    n = d0.nvars
    a = sympy.Matrix(n, n, lambda i, j: xs[i] * sympy.diff(f, xs[i], xs[j])
                     + (sympy.diff(f, xs[j]) if i == j else 0))
    return sympy.expand(a.det())


def test_classify_flat_matches_a_sympy_determinant():
    # random D0 whose linear coefficients mostly multiply to +-1, half of
    # them affine; the flat-type left side 1 - (15/8)*(x1 + x2) of the
    # last one vanishes at the test point
    rng = random.Random(17)
    cases = []
    for _ in range(40):
        n = rng.randint(1, 3)
        d0 = MultiPoly.constant(n, rng.choice(COEFF_POOL))
        if rng.random() < 0.5:
            d0 = d0 + random_poly(rng, n, 3, 4)
        a = [rng.choice(COEFF_POOL) for _ in range(n - 1)]
        if rng.random() < 0.8:
            a.append(rng.choice((1, -1)) / math.prod(a, start=Fraction(1)))
        else:
            a.append(rng.choice(COEFF_POOL))
        for i, c in enumerate(a):
            e = tuple(int(j == i) for j in range(n))
            d0 = d0 + MultiPoly(n, {e: c - d0.coefficient(e)})
        cases.append(d0)
    cases.append(x(2, 0) + x(2, 1) - Fraction(15, 8) * x(2, 0) * x(2, 1))
    accepted = 0
    for d0 in cases:
        det = sympy_flat_det(d0)
        result = classify_flat(d0)
        assert result.is_solution == (det in (1, -1)), d0
        if result.is_solution:
            assert result.coeff_product == det
            assert result.coeffs == tuple(linear_coefficients(d0))
            accepted += 1
    assert 5 < accepted < len(cases) - 5


def test_only_affine_flat_left_sides_are_constant():
    import sympy

    # the flat theorem of toricpke.einstein against sympy: with every
    # linear coefficient nonzero, a D0 of degree >= 2 has a nonconstant
    # flat-type left side, and kind "poly" refutes it.  On x1 + x2 + x3 +
    # c_200*x1^2 + c_011*x2*x3 + c_110*x1*x2 + c_101*x1*x3 the bases
    # {200, 011, 010}, {110, 101, 010} and {110, 011, 100} share one sum,
    # and with c = (1, 1, -2, 1) their terms, x1*x2 in the left side,
    # cancel
    rng = random.Random(29)
    cases = []
    for _ in range(40):
        n = rng.randint(1, 3)
        quadratic = [0] * n
        quadratic[rng.randrange(n)] += 1
        quadratic[rng.randrange(n)] += 1
        d0 = random_poly(rng, n, 3, 4)
        for e in [tuple(int(j == i) for j in range(n)) for i in range(n)] + [tuple(quadratic)]:
            d0 = d0 + MultiPoly(n, {e: rng.choice(COEFF_POOL) - d0.coefficient(e)})
        cases.append(d0)
    shared = [(2, 0, 0), (0, 1, 1), (1, 1, 0), (1, 0, 1)]
    for coeffs in ((1, 1, 1, 1), (1, 1, -2, 1), (1, -4, 2, 2), (3, -1, 1, -3)):
        cases.append(MultiPoly(3, {**{tuple(int(j == i) for j in range(3)): 1
                                      for i in range(3)}, **dict(zip(shared, coeffs))}))
    xs = sympy.symbols("x1:4")
    assert sympy.Poly(sympy_flat_det(cases[-3]), *xs).coeff_monomial(xs[0] * xs[1]) == 0
    for d0 in cases:
        assert d0.degree() >= 2 and all(linear_coefficients(d0)), d0
        assert sympy_flat_det(d0).free_symbols, d0
        assert einstein_exponent(d0, "poly") == EinsteinExponent(None, None), d0
        assert not classify_flat(d0).is_solution, d0


def test_classify_flat_with_a_zero_linear_coefficient_is_refuted():
    # the flat-type left side is 0 at the origin, a refutation and not a
    # degenerate metric
    assert classify_flat(x(2, 0) + x(2, 0) * x(2, 1)) == FlatClassification(False, None, None)


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


def test_log_lhs_rows_multiply_no_polynomials(monkeypatch):
    # deterministic work gate: row i of the bordered matrix is
    # (d_1 G, ..., d_n G, G) for G = theta_i Q, and the last row is the
    # same for G = Q, so no product precedes the determinant; the flat-type
    # matrix and the border x_i*Q_i took up to n^2 + n kernel calls
    products = [product_solution(part) for n in range(1, 5) for part in partitions(n)]
    # [[A, x o grad Q], [grad Q^T, Q]], built the long way round
    want = []
    for q in products:
        n = q.nvars
        grad = [q.partial_derivative(i) for i in range(n)]
        want.append([[grad[j].partial_derivative(i) * x(n, i)
                      + (grad[i] if i == j else 0) for j in range(n)]
                     + [x(n, i) * grad[i]] for i in range(n)] + [grad + [q]])
    got = []
    pairs = count_term_pairs(monkeypatch)
    monkeypatch.setattr(ma_engine, "determinant_cofactor",
                        lambda m: got.append(m))
    for q in products:
        ma_lhs_log(q)
    assert pairs == [0]
    assert got == want


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
# block route of verify_ma_star against the whole route


def whole_route(p):
    """(is_solution, sign, witness) from the whole bordered determinant."""
    lhs = ma_lhs_log(p)
    rhs = p ** p.nvars
    sign = 1 if lhs == rhs else -1 if lhs == -rhs else None
    return sign is not None, sign, lhs


def assert_routes_agree(p):
    res = verify_ma_star(p)
    assert (res.is_solution, res.sign, star_witness(p, res.sign)) == whole_route(p), p
    return res


def blocks_of(p):
    return _product_blocks(p, _euler(p)[2])


def coupling_of(p):
    return _coupling_blocks(_euler(p)[2])


def seeded_image(p, rng):
    """p under a seeded permutation of its variables and sign flips."""
    n = p.nvars
    perm = list(range(n))
    rng.shuffle(perm)
    flips = [rng.choice((1, -1)) for _ in range(n)]
    moved = MultiPoly(n, {
        tuple(e[perm[i]] for i in range(n)): c for e, c in p.terms.items()
    })
    return moved.scale_vars([Fraction(f) for f in flips])


def product_of(factors):
    """The product of factors, each in its own consecutive variables."""
    n = sum(f.nvars for f in factors)
    out, start = MultiPoly.one(n), 0
    for f in factors:
        out = out * f.embed(n, range(start, start + f.nvars))
        start += f.nvars
    return out


def test_block_route_matches_whole_route_on_catalog_images():
    # (4,) is one block, a linear form, which the block route checks in
    # one variable and the whole route through the bordered determinant
    rng = random.Random(61)
    for n in (1, 2, 3, 4):
        for part in partitions(n):
            p = seeded_image(product_solution(part), rng)
            blocks, _ = blocks_of(p)
            assert sorted(map(len, blocks)) == sorted(part), part
            for q in (p, -p):
                assert assert_routes_agree(q).is_solution, part


def test_block_route_matches_whole_route_on_rescaled_products():
    # each block's constant c_b differs from +-1, and only the product
    # eps^(m-1)*prod c_b decides the sign
    rng = random.Random(67)
    for part in ((1, 1), (2, 1), (1, 1, 1), (1, 2)):
        p = product_solution(part)
        scales = [rng.choice((Fraction(2), Fraction(3), HALF, Fraction(-1, 3)))
                  for _ in range(p.nvars)]
        for last in (1 / math.prod(scales[:-1]), 2 / math.prod(scales[:-1])):
            q = p.scale_vars(scales[:-1] + [last])
            assert len(blocks_of(q)[0]) == len(part)
            assert_routes_agree(q)
            assert_routes_agree(-q)


def test_block_route_matches_whole_route_on_random_products():
    rng = random.Random(71)
    shapes = [(1, 1), (2, 1), (1, 1, 1), (2, 2), (3, 1), (2, 1, 1)]
    for shape in shapes:
        for _ in range(2 if sum(shape) < 4 else 1):
            factors = [random_log_candidate(rng, k) for k in shape]
            p = product_of(factors)
            assert len(blocks_of(p)[0]) == len(shape), shape
            assert_routes_agree(p)


def test_block_route_matches_whole_route_on_perturbed_products():
    rng = random.Random(73)
    for part in ((1, 1), (2, 1), (1, 1, 1), (1, 1, 1, 1)):
        p = product_solution(part)
        exps = sorted(e for e in p.terms if any(e))
        for e in rng.sample(exps, 2 if p.nvars < 4 else 1):
            q = p + MultiPoly(p.nvars, {e: Fraction(1, 7)})
            assert_routes_agree(q)
            assert_routes_agree(-q)


def test_a_product_vanishing_at_the_test_point_is_one_block():
    # (1 - 3*x1)^2 vanishes at the test point (1/3, 1/5), and with it
    # every pair value
    point = [THIRD, Fraction(1, 5)]
    p = (MultiPoly.one(2) - 3 * x(2, 0)) ** 2 * (MultiPoly.one(2) + x(2, 1) * HALF) ** 2
    assert p.evaluate(point) == 0
    assert coupling_of(p) == [(0, 1)]
    assert_routes_agree(p)


def test_a_split_the_product_does_not_reproduce_falls_back_to_one_block():
    # P = (1 + x1)(1 + x2) + b*x1*x2*(x1 + x2) couples x1 and x2 for
    # b != 0, and P*P_12 - P_1*P_2 at the test point is b*(g1 + g2*b): at
    # b = -g1/g2 the pair test reads zero, and only the product check
    # sees the coupling
    point = [THIRD, Fraction(1, 5)]
    base = (MultiPoly.one(2) + x(2, 0)) * (MultiPoly.one(2) + x(2, 1))
    bump = x(2, 0) * x(2, 1) * (x(2, 0) + x(2, 1))

    def pair_value(b):
        p = base + bump * b
        d1, d2 = p.partial_derivative(0), p.partial_derivative(1)
        return (p * d1.partial_derivative(1) - d1 * d2).evaluate(point)

    g2 = (pair_value(1) + pair_value(-1)) / 2
    g1 = (pair_value(1) - pair_value(-1)) / 2
    p = base + bump * (-g1 / g2)
    assert pair_value(-g1 / g2) == 0
    assert coupling_of(p) == [(0,), (1,)]
    assert blocks_of(p) == ([(0, 1)], [p])
    assert_routes_agree(p)


def test_a_variable_absent_from_p_is_its_own_block():
    # a block that P does not depend on has L_b = 0, so c_b = 0
    p = product_solution((1,)).embed(2, (0,))
    assert blocks_of(p)[0] == [(0,), (1,)]
    res = verify_ma_star(p)
    assert not res.is_solution and star_witness(p, res.sign).is_zero()
    assert_routes_agree(p)


def test_the_pair_test_handles_huge_exponents():
    # the exact value at x2 = 1/5 would have a 10^40-digit denominator;
    # the residue modulo the test prime costs the exponent's bit length
    p = split_square().restrict((0,)).embed(2, (0,)) * (
        MultiPoly.one(2) + MultiPoly(2, {(0, 10**40): 1}))
    assert blocks_of(p)[0] == [(0,), (1,)]
    assert_routes_agree(p)


def test_block_route_term_pair_budget(monkeypatch):
    # deterministic work gate: the blocks, linear forms, are decided by
    # their binomial profiles, so the only products are those of the
    # split, 120 term pairs on (2,1,1) and 105 on (3,1); checked in one
    # variable the blocks made it 248 and 347, with ma_lhs_log of every
    # block and P_b**n_b 919 and 43,801, and the whole route took
    # 2,043,003 and 2,987,316
    products = [(part, product_solution(part), budget)
                for part, budget in (((2, 1, 1), 120), ((3, 1), 105))]
    pairs = count_term_pairs(monkeypatch)
    for part, p, budget in products:
        pairs[0] = 0
        assert verify_ma_star(p).sign == 1
        assert pairs == [budget], part


def test_one_block_catalog_term_pair_budget(monkeypatch):
    # deterministic work gate: (4,), (5,) and (6,) are one block each, a
    # linear form decided by its binomial profile with no term pair;
    # checked in one variable they took 472, 883 and 1,545, and
    # ma_lhs_log of (4,) alone 5,151,258
    products = [product_solution(part) for part in ((4,), (5,), (6,))]
    pairs = count_term_pairs(monkeypatch)
    for p in products:
        assert verify_ma_star(p).sign == 1
    assert pairs == [0]


def test_catalog_block_decisions_multiply_no_term_pair(monkeypatch):
    # deterministic work gate: every catalog product up to n = 6 and every
    # catalog potential with n <= 4 and K <= 3 splits into linear-form
    # blocks, each decided by its binomial profile, so the block decisions
    # hand the kernel no term pair, and the only products are those that
    # certify the splits
    products = [product_solution(part) for n in range(1, 7) for part in partitions(n)]
    potentials = [(part, K, potential_for_power(part, K).P)
                  for K in (1, 2, 3) for n in range(1, 5) for part in partitions(n)]
    pairs = count_term_pairs(monkeypatch)
    in_blocks = [0]
    block_loop = einstein._block_loop

    def counted(*args):
        before = pairs[0]
        try:
            return block_loop(*args)
        finally:
            in_blocks[0] += pairs[0] - before

    monkeypatch.setattr(einstein, "_block_loop", counted)
    for p in products:
        assert verify_ma_star(p).sign == 1, p.nvars
    assert (in_blocks, pairs) == ([0], [15_652])
    for part, K, p in potentials:
        h = math.gcd(*(m + 1 for m in part))
        assert einstein_exponent(p).e == p.nvars + 1 - Fraction(h, K), (part, K)
    assert (in_blocks, pairs) == ([0], [15_652 + 5_839])


def test_a_one_variable_block_with_a_huge_exponent_is_refuted_by_its_term_count(monkeypatch):
    # 1 + x + x^(10^40) has 3 terms, not 10^40 + 1, so binomial_profile
    # refutes it before looking at a coefficient
    p = MultiPoly(1, {(0,): 1, (1,): 1, (10**40,): 1})
    pairs = count_term_pairs(monkeypatch)
    start = time.perf_counter()
    assert _profile_exponent(p) is None
    assert time.perf_counter() - start < 1.0
    assert pairs == [0]


def test_the_block_test_stops_at_the_pair_limit(monkeypatch):
    # on a non-product the product check finds one block, of 81 terms and
    # not a linear form, so where the point test is inconclusive (and the
    # sign is 1) the block needs the symbolic left side of all four
    # variables: its determinant starts, and with the power-free identity
    # it passes MAX_SYMBOLIC_PAIRS, so verify_ma_star raises having handed
    # the kernel no more than that many term pairs, and takes no power
    def refuse(*args):
        raise AssertionError("a power ran")

    monkeypatch.setattr(einstein, "_point_refutation", lambda den, euler: None)
    p = product_solution((1, 1, 1, 1))
    p = p + MultiPoly(4, {(1, 1, 0, 0): Fraction(1, 7)})
    assert blocks_of(p) == ([(0, 1, 2, 3)], [p]) and not _is_linear_form(p)
    started = []
    lhs_log = ma_engine.ma_lhs_log
    monkeypatch.setattr(ma_engine, "ma_lhs_log", lambda q: started.append(q) or lhs_log(q))
    monkeypatch.setattr(MultiPoly, "__pow__", refuse)
    pairs = count_term_pairs(monkeypatch)
    with pytest.raises(SymbolicLimitError,
                       match=f"exceeding MAX_SYMBOLIC_PAIRS = {MAX_SYMBOLIC_PAIRS}"):
        verify_ma_star(p)
    assert started == [p]
    assert 0 < pairs[0] <= MAX_SYMBOLIC_PAIRS


def test_the_meter_counts_the_pairs_the_kernel_is_handed(monkeypatch):
    # within a budget of exactly the term pairs that an independent count
    # finds in ma_lhs_log, it runs to the end; with one pair fewer it
    # raises at the last product, having counted them all, before the
    # kernel is handed that product.  The continuation also hands the
    # kernel plain addends, which take no pair.
    rng = random.Random(43)
    polys = [product_solution(part) for n in range(1, 5) for part in partitions(n)]
    for _ in range(40):
        p = random_poly(rng, rng.randint(1, 4), 4, 8)
        polys.append(p - p.constant_term() + 1)
    works = [(ma_lhs_log, p) for p in polys] + [(feasible_k_scan_n2, 6)]
    pairs = count_term_pairs(monkeypatch)
    for work, arg in works:
        pairs[0] = 0
        want = work(arg)
        total = pairs[0]
        if not total:  # a polynomial with no product to take
            continue
        monkeypatch.setattr(algebra, "MAX_SYMBOLIC_PAIRS", total)
        with algebra.symbolic_budget():
            assert work(arg) == want
        monkeypatch.setattr(algebra, "MAX_SYMBOLIC_PAIRS", total - 1)
        pairs[0] = 0
        with pytest.raises(SymbolicLimitError, match=f"reaches {total} kernel term pairs"):
            with algebra.symbolic_budget():
                work(arg)
        assert pairs[0] < total, arg


# ---------------------------------------------------------------------------
# point test of verify_ma_star against exact evaluation


def residue(v):
    """The residue of the rational v modulo the test prime."""
    return v.numerator * pow(v.denominator, -1, _TEST_PRIME) % _TEST_PRIME


def bumped_candidates(seed, parts):
    """Seeded images of the catalog products with one coefficient bumped.

    Each bump has a denominator 7, 11 or 13, coprime to the catalog's, so
    that it never cancels a term.
    """
    rng = random.Random(seed)
    for part in parts:
        p = seeded_image(product_solution(part), rng)
        exp = rng.choice(sorted(e for e in p.terms if any(e)))
        bump = rng.choice((1, -1)) * Fraction(rng.randint(1, 3),
                                              rng.choice((7, 11, 13)))
        yield part, p + MultiPoly(p.nvars, {exp: bump})


def log_ma_det_at(p, pt):
    """det M(pt) = P(pt)^(n-1)*L(pt) for the log-type matrix M, exactly.

    M_ab = (P*P_ab - P_a*P_b)*x_a + P*P_a*delta_ab from P's partial
    derivatives evaluated at pt; no bordered matrix and no Euler form.
    """
    import sympy

    n = p.nvars
    grad = [p.partial_derivative(a) for a in range(n)]
    v = p.evaluate(pt)
    g = [d.evaluate(pt) for d in grad]
    m = [[(v * grad[a].partial_derivative(b).evaluate(pt) - g[a] * g[b]) * pt[a]
          + (v * g[a] if a == b else 0) for b in range(n)] for a in range(n)]
    det = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in row]
                        for row in m]).det()
    return Fraction(int(det.p), int(det.q))


# the refute-perturbed benchmark's partitions, n = 1 included
REFUTE_PARTS = [part for n in (1, 2, 3) for part in partitions(n)] + [(1, 1, 1, 1)]


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_point_certificate_is_the_symbolic_left_side_at_the_point(seed):
    for part, p in bumped_candidates(seed, REFUTE_PARTS):
        cert = verify_ma_star(p).refuted_at
        assert cert is not None and cert.modulus == _TEST_PRIME, part
        pt = list(cert.point)
        assert pt == [Fraction(1, 2 * i + 3) for i in range(p.nvars)]
        lhs = residue(ma_lhs_log(p).evaluate(pt))
        rhs = residue(p.evaluate(pt) ** p.nvars)
        assert (cert.lhs, cert.rhs) == (lhs, rhs), part
        assert lhs not in (rhs, -rhs % _TEST_PRIME), part


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_point_certificate_matches_the_log_type_matrix_up_to_n4(seed):
    parts = [part for n in (1, 2, 3, 4) for part in partitions(n)]
    for part, p in bumped_candidates(seed, parts):
        cert = verify_ma_star(p).refuted_at
        assert cert is not None, part
        pt = list(cert.point)
        n = p.nvars
        value = residue(p.evaluate(pt))
        assert cert.rhs == pow(value, n, _TEST_PRIME)
        assert residue(log_ma_det_at(p, pt)) == \
            cert.lhs * pow(value, n - 1, _TEST_PRIME) % _TEST_PRIME, part


def test_an_inconclusive_point_test_gives_the_symbolic_verdict(monkeypatch):
    monkeypatch.setattr(einstein, "_point_refutation", lambda den, euler: None)
    for part, p in bumped_candidates(4, REFUTE_PARTS[:6]):
        assert verify_ma_star(p) == MAResult(False, None), part
        assert_routes_agree(p)
    for part in ((2, 1), (1, 1, 1)):
        assert verify_ma_star(product_solution(part)) == MAResult(True, 1)


def test_a_denominator_the_prime_divides_falls_back_to_the_symbolic_route(monkeypatch):
    p = product_solution((2,)) + MultiPoly(2, {(1, 1): Fraction(1, _TEST_PRIME)})
    den, _, euler = _euler(p)
    assert _point_refutation(den, euler) is None
    calls = [0]
    lhs_log = ma_engine.ma_lhs_log

    def counting(q):
        calls[0] += 1
        return lhs_log(q)

    monkeypatch.setattr(ma_engine, "ma_lhs_log", counting)
    assert verify_ma_star(p) == MAResult(False, None)
    assert calls[0] == 1
    assert_routes_agree(p)


def test_a_huge_exponent_is_refuted_at_the_point(monkeypatch):
    # the symbolic route never runs: the point test costs the bit length
    # of the exponent 10^40
    def refuse(q):
        raise AssertionError("the symbolic route ran")

    p = product_solution((1, 1)) + MultiPoly(2, {(10**40, 1): Fraction(1, 7)})
    monkeypatch.setattr(ma_engine, "ma_lhs_log", refuse)
    pairs = count_term_pairs(monkeypatch)
    res = verify_ma_star(p)
    assert not res.is_solution and res.refuted_at is not None
    assert pairs[0] == 0


def test_refutation_multiplies_no_term_pair(monkeypatch):
    # deterministic work gate: the symbolic route multiplies 1,959,199
    # term pairs on this (1,1,1,1) and 44,075 on this (3,)
    candidates = []
    for part in ((1, 1, 1, 1), (3,)):
        p = product_solution(part)
        candidates.append(p + MultiPoly(p.nvars, {(1,) * p.nvars: Fraction(1, 7)}))
    pairs = count_term_pairs(monkeypatch)
    for p in candidates:
        res = verify_ma_star(p)
        assert not res.is_solution and res.refuted_at is not None, p.nvars
    assert pairs[0] == 0


def test_a_sign_other_than_one_takes_no_power(monkeypatch):
    # a bumped linear coefficient moves the sign eps^(n+1)*prod a_i =
    # L(0)*eps^n off +-1, which refutes P from its linear coefficients,
    # before any determinant or power
    monkeypatch.setattr(einstein, "_point_refutation", lambda den, euler: None)
    p = product_solution((2,)) + MultiPoly(2, {(1, 0): Fraction(2, 11)})
    assert ma_lhs_log(p).constant_term() not in (1, -1)
    pairs = count_term_pairs(monkeypatch)
    assert verify_ma_star(p) == MAResult(False, None)
    assert pairs[0] == 0


def test_a_witness_after_a_certificate_takes_no_power(monkeypatch):
    p = product_solution((1, 1, 1)) + MultiPoly(3, {(1, 1, 1): Fraction(1, 7)})
    pairs = count_term_pairs(monkeypatch)
    lhs = ma_lhs_log(p)
    alone = pairs[0]
    pairs[0] = 0
    res = verify_ma_star(p)
    assert res.refuted_at is not None and star_witness(p, res.sign) == lhs
    assert pairs[0] == alone


# ---------------------------------------------------------------------------
# exponent scan and power reduction


def test_scan_fixed_point_has_unit_ratio():
    q = (MultiPoly.one(1) + x(1, 0) * HALF) ** 2
    assert exponent_scan(q) == Fraction(1)


def test_scan_fourth_power_has_half_ratio():
    q = (MultiPoly.one(1) + x(1, 0) * Fraction(1, 4)) ** 4
    ratio = exponent_scan(q)
    assert ratio == HALF


def test_scan_of_affine_two_variable_reduces_to_the_cubic():
    # the affine candidate has LHS identically 1 = Q^0, so the exponent
    # ratio is (n+1) and the reduction lands on the symmetric cubic
    q = MultiPoly.one(2) + x(2, 0) + x(2, 1)
    ratio = exponent_scan(q)
    assert ratio == Fraction(3)
    assert reduce_power(q, ratio) == symmetric_cube()


def test_scan_rejects_non_power_lhs():
    q = MultiPoly.one(1) + x(1, 0) + x(1, 0) ** 2
    assert exponent_scan(q) is None


def test_scan_takes_no_power_of_q_or_of_its_left_side(monkeypatch):
    # x1 -> -x1 gives the (2,1) product the sign -1, so C = -1; the check
    # takes no power at all: its blocks are decided by their binomial
    # profiles (checked in one variable, the block (2) took u'^1)
    pow_ = MultiPoly.__pow__
    bases = []

    def recording(self, k):
        bases.append(self.nvars)
        return pow_(self, k)

    q = product_solution((2, 1)).scale_vars([-1, 1, 1])
    assert verify_ma_star(q).sign == -1
    monkeypatch.setattr(MultiPoly, "__pow__", recording)
    assert exponent_scan(q) == Fraction(1)
    assert bases == []


# ---------------------------------------------------------------------------
# exact Einstein exponent


def test_left_side_at_the_origin_is_p0_times_the_linear_coefficients():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(1, 3)
        p = random_poly(rng, n, 3, 6)
        p = p - p.constant_term() + rng.choice((1, -1))
        c = p.constant_term() * math.prod(linear_coefficients(p))
        assert ma_lhs_log(p).constant_term() == c, p
        assert ma_lhs_flat(p).constant_term() == math.prod(linear_coefficients(p)), p


def test_point_log_derivatives_match_exact_evaluation():
    # theta_i L/L at the test point, reduced mod the prime, from the Euler
    # matrix
    rng = random.Random(43)
    q = _TEST_PRIME
    checked = 0
    for _ in range(60):
        n = rng.randint(1, 3)
        p = random_poly(rng, n, 3, 6)
        p = p - p.constant_term() + 1
        point = [Fraction(1, 2 * i + 3) for i in range(n)]
        den, values, euler = _euler(p)
        lhs = ma_lhs_log(p)
        value = lhs.evaluate(point)
        dlog = _dlog_lhs(values, euler)
        assert (dlog is None) == (value == 0), p
        if dlog is None:
            continue
        for i in range(n):
            exact = lhs.euler_derivative(i).evaluate(point) / value
            assert dlog[i] == exact.numerator * pow(exact.denominator, -1, q) % q
        checked += 1
    assert checked > 30


def assert_point_sums_match_terms(p):
    den, (columns, values), rows = _euler(p)
    ref_den, ref_values, ref_rows = euler_by_terms(p)
    assert (den, rows) == (ref_den, ref_rows), p
    assert list(zip(zip(*columns), values)) == ref_values, p
    assert _dlog_lhs((columns, values), rows) == dlog_by_terms(ref_values, rows), p


def test_point_sums_over_columns_match_the_sums_over_terms():
    for n in range(1, 5):
        for part in partitions(n):
            assert_point_sums_match_terms(product_solution(part))
            assert_point_sums_match_terms(potential_for_power(part, 3).P)
    # exponents reduced modulo the prime: the residue costs their bit length
    huge = MultiPoly(2, {(0, 0): 1, (1, 0): 2, (0, 1): 1, (10**40, 3): Fraction(1, 7)})
    assert_point_sums_match_terms(huge)
    assert_point_sums_match_terms(product_solution((1, 1)) * huge)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 4), st.sampled_from((1, -1)))
def test_point_sums_over_columns_match_on_random_polynomials(rng, n, eps):
    p = random_poly(rng, n, 4, 8)
    assert_point_sums_match_terms(p - p.constant_term() + eps)


def exact_det_and_inverse(rows):
    """Determinant and inverse (None when singular) in Fraction arithmetic."""
    n = len(rows)
    a = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    det = Fraction(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            return Fraction(0), None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        a[k] = [v / a[k][k] for v in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                a[i] = [u - a[i][k] * w for u, w in zip(a[i], a[k])]
    return det, [row[n:] for row in a]


def assert_elimination_matches_fractions(rows):
    det, inv = exact_det_and_inverse(rows)
    assert _eliminate(rows) == (residue(det), None), rows
    got_det, got_inv = _eliminate(rows, inverse=True)
    assert got_det == residue(det), rows
    if inv is None:
        assert got_inv is None, rows
    else:
        assert got_inv == [[residue(v) for v in row] for row in inv], rows


def test_modular_elimination_matches_fraction_arithmetic():
    rng = random.Random(59)
    for n in range(1, 9):
        for _ in range(6):
            assert_elimination_matches_fractions(
                [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        # a zero leading entry forces a row swap, and an anti-diagonal
        # matrix one at each step up to its middle
        rows = [[rng.randint(1, 9) for _ in range(n)] for _ in range(n)]
        rows[0][0] = 0
        assert_elimination_matches_fractions(rows)
        anti = [[int(i + j == n - 1) * (i + 2) for j in range(n)] for i in range(n)]
        assert_elimination_matches_fractions(anti)
        # residues as the point tests hand them: entries up to the prime
        assert_elimination_matches_fractions(
            [[rng.randrange(_TEST_PRIME) for _ in range(n)] for _ in range(n)])


def test_a_singular_matrix_has_determinant_zero_and_no_inverse():
    rng = random.Random(61)
    for n in range(1, 9):
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        rows[-1] = [2 * v for v in rows[0]] if n > 1 else [0]
        assert _eliminate(rows) == (0, None)
        assert _eliminate(rows, inverse=True) == (0, None)
        assert exact_det_and_inverse(rows) == (0, None)
    # singular modulo the prime only: the exact determinant is the prime
    rows = [[_TEST_PRIME + 1, 1], [1, 1]]
    assert exact_det_and_inverse(rows)[0] == _TEST_PRIME
    assert _eliminate(rows, inverse=True) == (0, None)


def test_rational_reconstruction():
    q = _TEST_PRIME
    for e in (Fraction(0), Fraction(7, 3), Fraction(5), Fraction(1, 9), Fraction(-2, 5)):
        r = e.numerator * pow(e.denominator, -1, q) % q
        assert _rational_reconstruction(r, q, 10, 10) == e
    # a residue with no small preimage
    assert _rational_reconstruction(pow(3, 40, q), q, 10, 10) is None


NONZERO = [c for c in COEFF_POOL if c]
small_nonzero = st.sampled_from(NONZERO)


@st.composite
def univariates(draw):
    """u(t) with u(0) = +-1 and u'(0) != 0: a binomial power or any such polynomial."""
    eps = draw(st.sampled_from((1, -1)))
    if draw(st.booleans()):
        return binomial_power(eps, draw(small_nonzero), draw(st.integers(1, 4)))
    higher = draw(st.lists(st.sampled_from(COEFF_POOL + [Fraction(0)]), max_size=3))
    terms = {(0,): eps, (1,): draw(small_nonzero)}
    terms.update({(j + 2,): c for j, c in enumerate(higher)})
    return MultiPoly(1, terms)


def linear_form(u, a):
    """u(<a, x>) in len(a) variables."""
    n = len(a)
    return u.substitute([MultiPoly(n, {tuple(int(j == i) for j in range(n)): c
                                       for i, c in enumerate(a)})])


def linear_form_by_derivatives(f):
    """a_1*d_i f = a_i*d_1 f for every i, with the derivative polynomials."""
    a = linear_coefficients(f)
    d0 = f.partial_derivative(0)
    return all(a[0] * f.partial_derivative(i) == a[i] * d0 for i in range(1, f.nvars))


@settings(max_examples=40, deadline=None)
@given(univariates(), st.lists(small_nonzero, min_size=3, max_size=3),
       st.fractions(0, 4, max_denominator=4))
def test_linear_form_left_side_matches_the_whole_route(u, a, drawn):
    # u alone and u(<a, x>) in 2 and 3 variables, each tried with e free,
    # e = N and a drawn e: the binomial profile decides as the power-free
    # identity on ma_lhs_log of the whole block does
    for n in (1, 2, 3):
        f = u if n == 1 else linear_form(u, a[:n])
        lhs = ma_lhs_log(f)
        for e in (None, Fraction(n), drawn):
            assert _block_loop(n, [f], e) == _power_exponent(f, lhs, e), (f, e)


@settings(max_examples=80, deadline=None)
@given(univariates(), st.integers(2, 4), st.randoms(use_true_random=False))
def test_term_by_term_linear_form_test_matches_the_derivative_test(u, n, rng):
    f = linear_form(u, [rng.choice(NONZERO) for _ in range(n)])
    # the linear coefficients stay nonzero: only terms of degree >= 2 move
    higher = sorted(e for e in f.terms if sum(e) >= 2)
    candidates = [f]
    if higher:
        e = rng.choice(higher)
        candidates.append(f - MultiPoly(n, {e: f.coefficient(e)}))
        candidates.append(f + MultiPoly(n, {e: rng.choice(NONZERO)}))
    extra = [0] * n
    for _ in range(rng.randint(2, 4)):
        extra[rng.randrange(n)] += 1
    candidates.append(f + MultiPoly(n, {tuple(extra): Fraction(1, 7)}))
    generic = random_poly(rng, n, 3, 6)
    unit = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    candidates.append(generic - generic.constant_term() + 1 + MultiPoly(n, {
        e: rng.choice(NONZERO) - generic.coefficient(e) for e in unit}))
    for g in candidates:
        if all(linear_coefficients(g)):
            assert _is_linear_form(g) == linear_form_by_derivatives(g), g
    # every term with e_2 > 0 matches, but x_1^2 has no partner
    g = MultiPoly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (2, 0): 1})
    assert not _is_linear_form(g) and not linear_form_by_derivatives(g)


def test_a_long_one_variable_block_is_decided_with_no_term_pair(monkeypatch):
    # a 601-term P that vanishes at the test point x = 1/3 leaves the
    # decision to its block, which ma_lhs_log and the power-free identity
    # took past MAX_SYMBOLIC_PAIRS (1,440,598 pairs); its binomial
    # profile refutes it on its coefficients
    terms = {(0,): Fraction(1), (1,): Fraction(1)}
    terms.update({(j,): Fraction(1, j) for j in range(2, 600)})
    value = MultiPoly(1, terms).evaluate([THIRD])
    terms[(600,)] = -value * 3**600
    p = MultiPoly(1, terms)
    assert p.evaluate([THIRD]) == 0 and len(p.terms) == 601
    pairs = count_term_pairs(monkeypatch)
    assert einstein_exponent(p) == EinsteinExponent(None, None)
    assert pairs == [0]


def test_blocks_agree_with_one_block_of_all_variables():
    # the whole product as one block, decided by its binomial profile when
    # it has one part and by ma_lhs_log and the power-free check otherwise:
    # the exponent must be the one the blocks give
    for n in (1, 2, 3):
        for part in partitions(n):
            for K in (1, 2) if n < 3 else (1,):
                p = potential_for_power(part, K).P
                e = einstein_exponent(p).e
                assert _block_loop(n, [p], None) == e, (part, K)
                assert _block_loop(n, [p], e + Fraction(1, 2)) is None


def test_equal_block_factors_are_checked_once(monkeypatch):
    # (1,1,1,1) at K = 1 is four equal one-variable factors: one block
    # decision checks the first, which decides the three others
    p = potential_for_power((1, 1, 1, 1), 1).P
    decided = []
    profile_exponent = einstein._profile_exponent
    monkeypatch.setattr(einstein, "_profile_exponent",
                        lambda f: decided.append(f) or profile_exponent(f))
    assert einstein_exponent(p) == EinsteinExponent(Fraction(1, 16), Fraction(3))
    assert decided == [p.restrict((0,))]


def test_a_block_of_the_same_size_but_another_factor_is_still_checked(monkeypatch):
    # with the point test inconclusive the blocks decide: 1 + 2*x1 gives
    # e = 1, which 1 + 2*x2 shares and 1 + x2 + x2^2, of the same size,
    # refutes
    monkeypatch.setattr(einstein, "_exponent_at_point", lambda *args: (None, None))
    one, u, v = MultiPoly.one(2), x(2, 0), x(2, 1)
    assert einstein_exponent((one + u * 2) * (one + v * 2)).e == 1
    found = einstein_exponent((one + u * 2) * (one + v + v**2))
    assert found == EinsteinExponent(None, None)



CATALOG_POTENTIALS = [potential_for_power(part, K).P
                      for K in (1, 2, 3) for n in range(1, 5) for part in partitions(n)]


def bump(p, rng):
    """p with one nonconstant coefficient moved by +-a/b, b in (7, 11, 13),
    coprime to every catalog denominator, so no term cancels."""
    exp = rng.choice(sorted(e for e in p.terms if sum(e)))
    step = rng.choice((1, -1)) * Fraction(rng.randint(1, 3), rng.choice((7, 11, 13)))
    return p + MultiPoly(p.nvars, {exp: step})


def count_point_tests(monkeypatch) -> list:
    calls = [0]
    at_point = einstein._exponent_at_point

    def counting(*args):
        calls[0] += 1
        return at_point(*args)

    monkeypatch.setattr(einstein, "_exponent_at_point", counting)
    return calls


def test_catalog_potentials_are_decided_with_no_point_test(monkeypatch):
    # work gate: every catalog potential with n <= 4 and K <= 3 is a
    # product of linear-form blocks, which the blocks decide with no point
    # test; running it first, as the point-first order does, gives the
    # same C and e
    want = [point_first_exponent(p) for p in CATALOG_POTENTIALS]
    calls = count_point_tests(monkeypatch)
    assert [einstein_exponent(p) for p in CATALOG_POTENTIALS] == want
    assert calls == [0]
    assert all(found.e is not None for found in want)


def test_bumped_catalog_potentials_keep_their_point_certificates(monkeypatch):
    # one coefficient bumped: the blocks refute, and the point test then
    # runs once for the certificate, the one the point-first order gives;
    # the (n,) potentials at K = 1 are affine, and stay affine and Einstein
    rng = random.Random(27)
    calls = count_point_tests(monkeypatch)
    refuted = 0
    for p in CATALOG_POTENTIALS:
        q = bump(p, rng)
        want = point_first_exponent(q)
        calls[0] = 0
        assert einstein_exponent(q) == want, q
        assert calls == [int(want.e is None)]
        assert (want.e is None) == (want.refuted_at is not None)
        refuted += want.e is None
    assert refuted == len(CATALOG_POTENTIALS) - 4


@st.composite
def block_products(draw):
    """A product P of one-variable, linear-form and general blocks on
    consecutive variables, with P(0) = +-1 and no linear coefficient zero;
    binomial powers with k = K*(N+1) share one K, so a product of those
    alone is Einstein."""
    big_k = draw(st.integers(1, 2))
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("power", "univariate", "linear", "general")))
        eps = draw(st.sampled_from((1, -1)))
        if kind == "power":
            n = draw(st.integers(1, 2))
            u = binomial_power(eps, draw(small_nonzero), big_k * (n + 1))
            blocks.append(u if n == 1 else linear_form(u, draw(
                st.lists(small_nonzero, min_size=2, max_size=2))))
        elif kind == "univariate":
            blocks.append(draw(univariates()))
        elif kind == "linear":
            blocks.append(linear_form(draw(univariates()), draw(
                st.lists(small_nonzero, min_size=2, max_size=2))))
        else:
            terms = {(0, 0): eps, (1, 0): draw(small_nonzero), (0, 1): draw(small_nonzero)}
            for _ in range(draw(st.integers(1, 2))):
                i, j = draw(st.integers(1, 2)), draw(st.integers(0, 2))
                terms[draw(st.sampled_from(((i, j), (j, i))))] = draw(small_nonzero)
            blocks.append(MultiPoly(2, terms))
    n = sum(f.nvars for f in blocks)
    start = 0
    p = MultiPoly.one(n)
    for f in blocks:
        p = p * f.embed(n, range(start, start + f.nvars))
        start += f.nvars
    return p


@settings(max_examples=60, deadline=None)
@given(block_products())
def test_blocks_first_matches_the_point_first_order(p):
    # C, e and the certificate agree with the order that runs the point
    # test before any block, and the point test runs only when a block
    # refutes or a general block needs the symbolic check; a block whose
    # symbolic check passes the limit stops both orders alike
    def outcome(decide):
        try:
            return decide(p)
        except SymbolicLimitError:
            return SymbolicLimitError

    want = outcome(point_first_exponent)
    calls = []
    at_point = einstein._exponent_at_point
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(einstein, "_exponent_at_point",
                   lambda *args: calls.append(1) or at_point(*args))
        found = outcome(einstein_exponent)
    assert found == want
    assert len(calls) <= 1
    if found is SymbolicLimitError:
        return
    factors = blocks_of(p)[1]
    if found.e is not None and all(f.nvars == 1 or _is_linear_form(f) for f in factors):
        assert calls == []


def test_the_point_test_runs_before_the_first_symbolic_block(monkeypatch):
    # P = (1 + x1/2)^2 * g(x2, x3), g not a linear form: the one-variable
    # block gives e = 3, and the point test, here made to refute, to
    # propose e or to be inconclusive, runs once, before g's symbolic
    # check, which runs only when no refutation and no other e came first;
    # the point-first order gives the same answer in each case
    g = MultiPoly(2, {(0, 0): 1, (1, 0): 2, (0, 1): -1, (1, 1): 3})
    p = binomial_power(1, 2, 2).embed(3, (0,)) * g.embed(3, (1, 2))
    assert blocks_of(p)[0] == [(0,), (1, 2)] and not _is_linear_form(g)
    cert = einstein._exponent_at_point(p, *einstein._euler(p))[0]
    assert cert is not None
    symbolic = []
    lhs_log = ma_engine.ma_lhs_log
    monkeypatch.setattr(ma_engine, "ma_lhs_log", lambda q: symbolic.append(q) or lhs_log(q))
    for point, runs in (((cert, None), []), ((None, Fraction(2)), []),
                        ((None, Fraction(3)), [g]), ((None, None), [g])):
        calls = []
        monkeypatch.setattr(einstein, "_exponent_at_point",
                            lambda *args: calls.append(1) or point)
        want = point_first_exponent(p)
        calls.clear()
        symbolic.clear()
        assert einstein_exponent(p) == want == EinsteinExponent(None, None, point[0])
        assert (calls, symbolic) == ([1], runs), point


def test_a_general_block_refuted_at_the_point_multiplies_nothing(monkeypatch):
    # work gate: x1*x3 couples the blocks of the (2,1) product into one
    # block that is not a linear form; the point test, run before its
    # symbolic check, refutes, so the kernel is handed no term pair
    q = product_solution((2, 1)) + x(3, 0) * x(3, 2) * Fraction(1, 7)
    assert blocks_of(q) == ([(0, 1, 2)], [q]) and not _is_linear_form(q)
    want = point_first_exponent(q)
    pairs = count_term_pairs(monkeypatch)
    found = einstein_exponent(q)
    assert found == want and found.refuted_at is not None
    assert pairs == [0]

def test_einstein_exponent_of_catalog_products_and_models():
    assert einstein_exponent(MultiPoly.one(2) + x(2, 0) + x(2, 1) * 3).e == 0
    for n in (1, 2, 3):
        for part in partitions(n):
            p = product_solution(part)
            found = einstein_exponent(p)
            # L = +-P^n
            assert (found.e, abs(found.C)) == (n, 1), part
            flipped = einstein_exponent(-p)
            assert flipped.e == n and flipped.C == (-1) ** (n + 1) * found.C


def test_einstein_exponent_refutes_at_the_point():
    q = product_solution((2, 1)) + x(3, 0) * x(3, 2) * Fraction(1, 7)
    found = einstein_exponent(q)
    assert found.e is None and found.C is None
    cert = found.refuted_at
    assert cert.point == (Fraction(1, 3), Fraction(1, 5), Fraction(1, 7))
    assert len(cert.dlog_lhs) == len(cert.dlog_p) == 3
    # one variable: the ratio is no rational of small height in [0, 2]
    cert = einstein_exponent(MultiPoly.one(1) + x(1, 0) + x(1, 0) ** 2).refuted_at
    assert cert is not None and len(cert.dlog_p) == 1


def test_einstein_exponent_falls_back_where_p_vanishes_at_the_point(monkeypatch):
    # 1 + x1 + x2 - 23*x1*x2 is 0 at (1/3, 1/5): the symbolic check decides
    calls = []
    real = ma_engine.ma_lhs_log

    def recording(q):
        calls.append(q.nvars)
        return real(q)

    p = MultiPoly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): -23})
    monkeypatch.setattr(ma_engine, "ma_lhs_log", recording)
    found = einstein_exponent(p)
    assert found.e is None and found.refuted_at is None
    assert calls == [2]


def test_einstein_exponent_of_the_flat_kind():
    q = x(2, 0) * 2 + x(2, 1) * Fraction(1, 3) + 5
    assert einstein_exponent(q, "poly") == EinsteinExponent(Fraction(2, 3), Fraction(0))
    found = einstein_exponent(x(2, 0) + x(2, 1) + x(2, 0) * x(2, 1), "poly")
    assert found == EinsteinExponent(None, None, None)
    with pytest.raises(DomainError, match="metric degenerate at the origin"):
        einstein_exponent(x(1, 0) ** 2, "poly")
    with pytest.raises(DomainError, match="metric degenerate at the origin"):
        einstein_exponent(MultiPoly.one(2) + x(2, 0), "log")


def test_symbolic_check_beyond_its_limit_is_rejected():
    # a dense cubic in 6 variables, not a linear form, whose left side
    # would take about 7 s
    from itertools import product

    terms = {e: Fraction(1, 1 + sum(e)) for e in product(range(4), repeat=6) if sum(e) <= 3}
    terms[(0,) * 6] = Fraction(1)
    p = MultiPoly(6, terms)
    assert len(p.terms) == 84
    with pytest.raises(SymbolicLimitError, match="MAX_SYMBOLIC_PAIRS"):
        _block_loop(6, [p], None)


def test_reduce_fourth_power():
    q = (MultiPoly.one(1) + x(1, 0) * Fraction(1, 4)) ** 4
    p = reduce_power(q, HALF)
    assert p == (MultiPoly.one(1) + x(1, 0) * HALF) ** 2
    assert verify_ma_star(p).is_solution


def test_reduce_identity_ratio():
    q = (MultiPoly.one(1) + x(1, 0) * HALF) ** 2
    assert reduce_power(q, Fraction(1)) == q


def test_reduce_rejects_incompatible_power():
    with pytest.raises(NoExactRootError):
        reduce_power((MultiPoly.one(1) + x(1, 0)) ** 2, Fraction(1, 3))


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


def test_axis_profile_takes_either_companion_sign():
    # P -> -P and x_j -> -x_j (j off the axis) flip the sign of the
    # companion restriction, which may be either
    for n in (2, 3, 4):
        for part in partitions(n):
            p = product_solution(part)
            for axis in range(n):
                flips = [1 if j == axis else -1 for j in range(n)]
                for q in (-p, p.scale_vars(flips)):
                    prof = axis_profile_check(q, axis)
                    assert prof.epsilon == q.constant_term(), (part, axis)


def wide_companion_input(n: int, degree: int) -> MultiPoly:
    """1 + x1 + sum_j sum_(m <= degree) c*x1^m*x_j over j = 2..n, c distinct.

    Its x1-axis restriction is 1 + x1, and each dP/dx_j there is a
    polynomial of the given degree that is no binomial power.
    """
    terms = {(0,) * n: 1, (1,) + (0,) * (n - 1): 1}
    for j in range(1, n):
        for m in range(degree + 1):
            terms[(m,) + (0,) * (j - 1) + (1,) + (0,) * (n - 1 - j)] = (
                j * (degree + 1) + m + 1)
    return MultiPoly(n, terms)


def test_axis_profile_takes_no_product(monkeypatch):
    # each factor of the companion product is checked on its own: taking
    # the product of the n - 1 factors of this input at n = 32 and degree
    # 800 took 12 s
    products = [product_solution(part) for n in (1, 2, 3, 4) for part in partitions(n)]
    wide = wide_companion_input(8, 200)
    pairs = count_term_pairs(monkeypatch)
    for p in products:
        for axis in range(p.nvars):
            axis_profile_check(p, axis)
    with pytest.raises(ProfileMismatchError, match="companion restriction on axis 0"):
        axis_profile_check(wide, 0)
    assert pairs == [0]


@pytest.mark.parametrize("extra", [
    x(2, 1) * x(2, 0) ** 3,
    x(2, 1) * (MultiPoly.one(2) + x(2, 0) * HALF) ** 2,
    x(2, 1) * x(2, 0) * (MultiPoly.one(2) + x(2, 0) * HALF) ** 2 * HALF,
], ids=["shape", "scale", "exponent"])
def test_axis_profile_rejects_a_wrong_companion(extra):
    # dP/dx2 on the axis x2 = 0 is (r/k)*(1 + x1/r)^2 = (1 + x1/2)^2 for
    # the split square; extra adds to it without touching P(x1, 0)
    p = split_square() + extra
    assert p.restrict((0,)) == split_square().restrict((0,))
    with pytest.raises(ProfileMismatchError, match="companion restriction"):
        axis_profile_check(p, 0)


# ---------------------------------------------------------------------------
# Cauchy continuation


def test_records_keep_their_defaults_and_fields():
    res = MAResult(False, None)
    assert res.refuted_at is None
    assert repr(res) == "MAResult(is_solution=False, sign=None, refuted_at=None)"
    assert EinsteinExponent(None, None).refuted_at is None
    cd = cauchy_data(1, -1, 2, 3)
    assert cd == CauchyData(1, -1, Fraction(2), 3)
    assert repr(cd) == "CauchyData(epsilon=1, sigma=-1, r=Fraction(2, 1), k=3)"


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


def axis_data(eps, sig, r, k):
    """[P(x1, 0), dP/dx2(x1, 0)] of the Cauchy datum (eps, sig, r, k)."""
    return [binomial_power(eps, r, k), sig * (r / k) * binomial_power(1, r, 2)]


def sympy_residual_coefficients(coeffs, upto):
    """x2^h coefficients, h <= upto, of x1*(L - P^2) via sympy.

    L = det M/P with M the log-type matrix of P, divided exactly by sympy.
    """
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
    lhs, rem = sympy.div(sympy.expand(m.det()), p, x1, x2)
    assert rem == 0
    residual = sympy.Poly(sympy.expand(x1 * (lhs - p**2)), x1, x2)
    out = []
    for h in range(upto + 1):
        terms = {}
        for (e1, e2), c in residual.terms():
            if e2 == h:
                terms[(e1,)] = Fraction(int(c.p), int(c.q))
        out.append(MultiPoly(1, terms))
    return out


def test_order_coefficient_matches_sympy_expansion():
    # order(h) is x1*[L - P^2]_h; the series grows one coefficient at a
    # time, as in the continuation, and every order up to the bound is
    # checked after each step, so entries kept from a shorter list are
    # checked too
    rng = random.Random(53)
    bound = 5
    for eps, sig, r, k in ((1, 1, 3, 3), (-1, 1, 2, 2), (1, -1, HALF, 4),
                           (-1, -1, Fraction(-3, 2), 1)):
        extra = [random_poly(rng, 1, 3, 3) for _ in range(2)]
        series = _EulerSeries(axis_data(eps, sig, Fraction(r), k))
        for step in range(len(extra) + 1):
            if step:
                series.append(extra[step - 1])
            expected = sympy_residual_coefficients(series.p, bound)
            for h in range(bound + 1):
                assert series.order(h) == expected[h]


def test_order_zero_fixes_the_equation_sign():
    # order(0), the x2^1 coefficient of det E - x1*x2*P^2, is
    # x1*(sigma - 1)*(1 + x1/r)^(2k)
    for eps in (1, -1):
        for sig in (1, -1):
            order0 = _EulerSeries(axis_data(eps, sig, Fraction(-2, 3), 3)).order(0)
            assert order0.is_zero() == (sig == 1)


def test_closed_form_probe_matches_full_expansion():
    # the slope of a datum, (k/r)*x1*(1 + x1/r)^(2k-2), which
    # taylor_continue_n2 divides by at r = 1, is T_0*P_0 - U_0^2 from the
    # series' lists; and for P = P0 +
    # x2^(h+1), x1*[L]_h is (h+1)^2 times it, as [P^2]_h is zero
    for eps, sig, r, k in ((1, 1, 3, 3), (-1, 1, HALF, 2), (1, -1, -2, 1),
                           (-1, -1, Fraction(2, 3), 5)):
        r = Fraction(r)
        slope = (k / r) * binomial_power(1, r, 2 * k - 2).shift((1,))
        series = _EulerSeries(axis_data(eps, sig, r, k))
        assert slope == series.t[0] * series.p[0] - series.u[0] ** 2
        for h in range(1, 9):
            p = lift([series.p[0]] + [MultiPoly.zero(1)] * h + [MultiPoly.one(1)])
            full = x(1, 0) * x2_slice(direct_lhs_log(p), h)
            assert slope * (h + 1) ** 2 == full


def test_continued_solutions_have_their_data_and_solve_the_equation():
    # every datum is continued as the image of the datum eps = sigma = r =
    # 1; each returned P must still have the axis data asked for, and
    # L = sigma*P^2 by the direct expansion of the log-type matrix
    found = 0
    for k in (1, 2, 3, 4):
        for r in (1, -1, 2, HALF, Fraction(-3, 7), Fraction(7, 3)):
            for eps in (1, -1):
                for sig in (1, -1):
                    p = taylor_continue_n2(cauchy_data(eps, sig, r, k), max(6, k))
                    if p is None:
                        continue
                    found += 1
                    assert [x2_slice(p, 0), x2_slice(p, 1)] == axis_data(
                        eps, sig, Fraction(r), k), (k, r, eps, sig)
                    assert direct_lhs_log(p) == sig * p ** 2, (k, r, eps, sig)
    assert found == 2 * 6 * 4


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


def test_sign_branches_are_images_of_one_branch():
    # -P solves with sign -sigma, x2 -> -x2 flips det M, and
    # (x1, x2) -> (x1/r, r*x2) leaves it unchanged, so
    # P_{eps,sigma,r}(x1, x2) = eps*P_{1,1,1}(x1/r, eps*sigma*r*x2),
    # failures included
    for k in range(1, 7):
        bound = max(6, k + 2)
        p111 = taylor_continue_n2(cauchy_data(1, 1, 1, k), bound)
        for r in CONTINUATION_GRID:
            for eps in (1, -1):
                for sig in (1, -1):
                    p = taylor_continue_n2(cauchy_data(eps, sig, r, k), bound)
                    if p111 is None:
                        assert p is None, (k, r, eps, sig)
                    else:
                        image = eps * p111.scale_vars([1 / r, eps * sig * r])
                        assert p == image, (k, r, eps, sig)


def all_branch_scan(k_max, r_grid):
    """A feasibility scan over every (eps, sigma) branch of every r."""
    return {
        k
        for k in range(1, k_max + 1)
        if any(
            taylor_continue_n2(cauchy_data(eps, sig, r, k), max(6, k + 2)) is not None
            for r in r_grid
            for eps in (1, -1)
            for sig in (1, -1)
        )
    }


def test_one_branch_scan_matches_the_all_branch_scan():
    grids = ([Fraction(v) for v in (1, -1, 2, -2, 3, -3)], [HALF, Fraction(-3)],
             [Fraction(-2, 3), Fraction(3, 2)])
    for grid in grids:
        assert feasible_k_scan_n2(6) == all_branch_scan(6, grid), grid


def test_feasible_scan_term_pair_budget(monkeypatch):
    # deterministic work gate: continuing one datum per k on the Euler
    # series multiplies 2,127 term pairs here, counted over every item of
    # every fused sum (2,264 with binomial_power built by the kernel); a
    # kernel product x1*[P^2]_h in place of an exponent shift added 109
    # when the count was 2,761; the nine series of
    # det M - sigma*P^3 took 7,671, one sign branch for each r of a
    # six-value grid 32,676, all four branches, each tried with both
    # equation signs, 155,748, and expanding the whole residual at every
    # order 3.1M
    pairs = count_term_pairs(monkeypatch)
    assert feasible_k_scan_n2(6) == {2, 3}
    assert 0 < pairs[0] <= 2_800


def test_search_term_pair_budget(monkeypatch):
    # deterministic work gate: one continuation per k plus the verified
    # images multiply 2,401 term pairs here; the nine series of
    # det M - sigma*P^3 took 8,999, and continuing each r 16,292
    pairs = count_term_pairs(monkeypatch)
    assert len(search_n2([HALF, Fraction(-3)])) == 4
    assert 0 < pairs[0] <= 5_000


def test_long_scan_term_pair_budget(monkeypatch):
    # deterministic work gate: continuing every k up to the order limit
    # multiplies 32,040 term pairs here (38,237 with binomial_power built
    # by the kernel); the nine series of
    # det M - sigma*P^3 took 160,330
    pairs = count_term_pairs(monkeypatch)
    assert feasible_k_scan_n2(32) == {2, 3}
    assert 0 < pairs[0] <= 45_000


def test_continuation_skips_zero_coefficients(monkeypatch):
    # deterministic work gate: the cubic has P_h = 0 for h > 3, and the
    # series skips those coefficients, so continuing it to the order limit
    # hands the kernel 86 items (plain addends included); taking the
    # zeros as well hands it 316, and _dot 4,512 items where 592 do,
    # though a zero factor never reaches the kernel and adds no term pair
    items = [0]
    dot_terms = algebra.dot_terms

    def counting(terms):
        items[0] += len(terms)
        return dot_terms(terms)

    monkeypatch.setattr(algebra, "dot_terms", counting)
    cubic = taylor_continue_n2(cauchy_data(1, 1, 3, 3), 32)
    assert cubic == taylor_continue_n2(cauchy_data(1, 1, 3, 3), 6)
    items[0] = 0
    taylor_continue_n2(cauchy_data(1, 1, 3, 3), 32)
    assert 0 < items[0] <= 150


def test_rank_one_correction_term_pair_budget(monkeypatch):
    # deterministic work gate: memoized Laplace expansion of the flat-type
    # matrix bordered by the column x o grad Q and the row (grad Q, Q)
    # multiplies 1,046,256 term pairs on (2,1,1) and 855,504 on
    # (1,1,1,1), all of them in the determinant; first-row cofactor
    # expansion, each minor rebuilt wherever it recurs, took 1,536,768
    # and 1,282,104
    pairs = count_term_pairs(monkeypatch)
    for part, budget in (((2, 1, 1), 1_100_000), ((1, 1, 1, 1), 900_000)):
        p = product_solution(part)
        expected = (p ** p.nvars).terms
        pairs[0] = 0
        assert ma_lhs_log(p).terms == expected
        assert 0 < pairs[0] <= budget, part


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
    sols = classify_n1(grid)
    expected = {
        binomial_power(eps, Fraction(s * 2), 2)
        for eps in (1, -1)
        for s in (1, -1)
    }
    assert set(sols) == expected


def test_classify_n1_empty_without_admissible_r():
    assert classify_n1([Fraction(1), Fraction(3)]) == []


N1_GRID = [Fraction(v) for v in (1, -1, 2, -2, 3)] + [HALF, -HALF, Fraction(-2, 3)]


def test_only_the_quadratics_at_r_plus_minus_two_solve_in_one_variable():
    # independent oracle: the power by naive products and the left side by
    # Bareiss elimination of the log-type matrix share no code with
    # verify_ma_star, so this checks the k = 2 that classify_n1 relies on
    solutions = set()
    for k in range(1, 9):
        for r in N1_GRID:
            p = naive_pow(MultiPoly.one(1) + x(1, 0) * (1 / r), k)
            solves = direct_lhs_log(p) in (p, -p)
            assert solves == (k == 2 and abs(r) == 2), (k, r)
            if solves:
                solutions.update((p, -p))
    assert len(solutions) == 4
    assert set(classify_n1(N1_GRID)) == solutions


def test_classify_n1_verifies_each_grid_value_at_most_once(monkeypatch):
    calls = []

    def counting(p):
        calls.append(p)
        return verify_ma_star(p)

    monkeypatch.setattr(ma_engine, "verify_ma_star", counting)
    grid = [Fraction(0)] + N1_GRID
    assert len(classify_n1(grid)) == 4
    assert len(calls) <= len([r for r in grid if r != 0])


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


def scan_filtered_search(r_grid, degree_bound, ks):
    """search_n2 as it was: continue only the k of a prior feasibility scan."""
    reps = set()
    for r in r_grid:
        if r == 0:
            continue
        for k in ks:
            for eps in (1, -1):
                for sig in (1, -1):
                    p = taylor_continue_n2(cauchy_data(eps, sig, r, k), degree_bound)
                    if p is not None:
                        reps.add(canonicalize(p))
    return sorted(reps, key=_poly_sort_key)


def test_search_n2_matches_the_scan_filtered_search():
    ks = sorted(feasible_k_scan_n2(6))
    grids = ([], [Fraction(0)], [Fraction(1)], [HALF, Fraction(-3)],
             [Fraction(-2, 3), Fraction(0), Fraction(3, 2)])
    for grid in grids:
        assert search_n2(grid) == scan_filtered_search(grid, 6, ks), grid


def test_search_n2_runs_no_feasibility_scan(monkeypatch):
    def no_scan(*args):
        raise AssertionError("search_n2 ran the feasibility scan")

    monkeypatch.setattr(ma_engine, "feasible_k_scan_n2", no_scan)
    assert len(search_n2([Fraction(2)])) == 2


def test_search_n2_continues_once_per_exponent(monkeypatch):
    calls = []
    continue_n2 = ma_engine.taylor_continue_n2

    def counting(cd, degree_bound):
        calls.append(cd)
        return continue_n2(cd, degree_bound)

    monkeypatch.setattr(ma_engine, "taylor_continue_n2", counting)
    sols = search_n2([HALF, Fraction(-3), Fraction(2, 3)])
    assert len(sols) == 6
    assert len(calls) == ma_engine.SEARCH_K_MAX
    assert {cd.r for cd in calls} == {1}

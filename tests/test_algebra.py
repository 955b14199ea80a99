"""Exact polynomial arithmetic: derivatives, determinants, divisions, roots."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import count_term_pairs, naive_mul, naive_pow, random_nonzero_poly, random_poly
from toricpke.algebra import (
    MAX_COEFF_DIGITS,
    BinomialProfile,
    MultiPoly,
    NoExactRootError,
    NotBinomialPowerError,
    NotDivisibleError,
    _dot,
    adjugate,
    binomial_power,
    binomial_profile,
    determinant,
    determinant_cofactor,
    exact_divide,
    nth_root,
)

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def x(nvars, i):
    return MultiPoly.variable(nvars, i)


# ---------------------------------------------------------------------------
# partial derivatives


def test_derivative_of_binomial_square():
    p = (MultiPoly.one(1) + x(1, 0) * HALF) ** 2
    assert p.partial_derivative(0) == MultiPoly.one(1) + x(1, 0) * HALF


def test_derivative_in_absent_variable_is_zero():
    p = MultiPoly.one(2) + x(2, 0)
    assert p.partial_derivative(1) == MultiPoly.zero(2)


def test_derivative_of_symmetric_cube_matches_naive_expansion():
    base = MultiPoly.one(2) + x(2, 0) * THIRD + x(2, 1) * THIRD
    cube = naive_pow(base, 3)
    square = naive_pow(base, 2)
    assert cube.partial_derivative(0) == square


def test_derivative_index_out_of_range():
    with pytest.raises(IndexError):
        x(2, 0).partial_derivative(2)


def test_mixed_partials_commute_on_random_polys():
    rng = random.Random(11)
    for _ in range(50):
        p = random_poly(rng, 3, 4)
        assert (
            p.partial_derivative(0).partial_derivative(1)
            == p.partial_derivative(1).partial_derivative(0)
        )


def test_euler_derivative_matches_sympy():
    # x_i*dP/dx_i by sympy's diff, which shares no code with MultiPoly
    import sympy

    rng = random.Random(15)
    for n in range(1, 5):
        xs = sympy.symbols(f"x1:{n + 1}")
        for _ in range(10):
            p = random_poly(rng, n, 5, max_terms=8)
            expr = sum(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(v**e for v, e in zip(xs, exp)))
                       for exp, c in p.terms.items())
            for i in range(n):
                want = sympy.Poly(xs[i] * sympy.diff(expr, xs[i]), *xs).as_dict()
                assert p.euler_derivative(i) == MultiPoly(n, {
                    e: Fraction(int(c.p), int(c.q)) for e, c in want.items()
                })


def test_euler_derivative_index_out_of_range():
    for i in (-1, 2):
        with pytest.raises(IndexError):
            x(2, 0).euler_derivative(i)


def test_shift_is_the_product_with_a_monomial():
    rng = random.Random(17)
    for n in range(1, 4):
        for _ in range(10):
            p = random_poly(rng, n, 5, max_terms=8)
            exp = tuple(rng.randint(0, 3) for _ in range(n))
            assert p.shift(exp) == naive_mul(p, MultiPoly(n, {exp: 1}))
    assert x(1, 0).shift((10**40,)) == MultiPoly(1, {(10**40 + 1,): 1})
    for bad in ((1,), (0, -1)):
        with pytest.raises(ValueError):
            x(2, 0).shift(bad)


# ---------------------------------------------------------------------------
# determinants


def test_determinant_identity():
    one = MultiPoly.one(2)
    zero = MultiPoly.zero(2)
    m = [[one, zero], [zero, one]]
    assert determinant(m) == one


def test_determinant_two_by_two_hand_cofactor():
    one = MultiPoly.one(2)
    x1, x2 = x(2, 0), x(2, 1)
    m = [[one + x2, x1], [x2, one + x1]]
    assert determinant(m) == one + x1 + x2


def test_determinant_zero_row():
    zero = MultiPoly.zero(2)
    m = [[x(2, 0), x(2, 1)], [zero, zero]]
    assert determinant(m) == zero


def test_determinant_rejects_non_square():
    with pytest.raises(ValueError):
        determinant([[MultiPoly.one(1), MultiPoly.one(1)]])


@pytest.mark.parametrize("rows, message", [
    ([], "non-empty square"),
    ([[]], "non-empty square"),
    ([[x(1, 0), x(1, 0)], [x(1, 0)]], "non-empty square"),
    ([[x(1, 0), x(2, 0)], [x(2, 1), x(2, 0)]], "entries must share nvars"),
], ids=["empty", "empty-row", "ragged", "mixed-nvars"])
def test_determinants_reject_a_matrix_that_is_not_square_over_one_nvars(rows, message):
    # a mixed nvars would hand the kernel exponent tuples of different lengths
    for det in (determinant, determinant_cofactor, adjugate):
        with pytest.raises(ValueError, match=message):
            det(rows)


def test_bareiss_matches_cofactor_on_random_matrices():
    rng = random.Random(23)
    for _ in range(100):
        m = [[random_poly(rng, 2, 2, 3) for _ in range(3)] for _ in range(3)]
        assert determinant(m) == determinant_cofactor(m)
    # sizes 1-6 with sparse entries, so the memoized expansion skips zero
    # entries and zero minors; then a zero row and a repeated row
    zero = MultiPoly.zero(2)
    for size in range(1, 7):
        for _ in range(6):
            rows = [[random_poly(rng, 2, 2, 2) if rng.random() < 0.6 else zero
                     for _ in range(size)] for _ in range(size)]
            assert determinant(rows) == determinant_cofactor(rows), size
            if size > 1:
                i, j = rng.sample(range(size), 2)
                for singular in (rows[:i] + [[zero] * size] + rows[i + 1:],
                                 rows[:i] + [rows[j]] + rows[i + 1:]):
                    assert determinant(singular) == determinant_cofactor(singular) == zero


def test_adjugate_times_matrix_is_det_times_identity():
    rng = random.Random(5)
    m = [[random_poly(rng, 2, 2, 3) for _ in range(3)] for _ in range(3)]
    adj = adjugate(m)
    det = determinant(m)
    for i in range(3):
        for j in range(3):
            entry = sum(
                (m[i][l] * adj[l][j] for l in range(3)), MultiPoly.zero(2)
            )
            assert entry == (det if i == j else MultiPoly.zero(2))


# ---------------------------------------------------------------------------
# exact division


def test_divide_power_cancellation():
    b = (MultiPoly.one(1) + x(1, 0) * HALF) ** 2
    assert exact_divide(b ** 2, b) == b


def test_divide_reports_non_divisible():
    a = MultiPoly.one(2) + x(2, 0) + x(2, 1)
    b = MultiPoly.one(2) + x(2, 0)
    with pytest.raises(NotDivisibleError):
        exact_divide(a, b)


def test_divide_reports_a_non_integral_quotient_coefficient():
    # the leading terms divide, but 3/2 is not an integer coefficient of a
    # quotient by the primitive 1 + 2*x, and the rest cancels exactly
    with pytest.raises(NotDivisibleError):
        exact_divide(MultiPoly.one(1) + x(1, 0) * 3, MultiPoly.one(1) + x(1, 0) * 2)


def test_not_divisible_message_stays_short_for_a_large_dividend():
    # the message names the irreducible exponent and the term counts, and
    # prints neither operand
    a = MultiPoly(2, {(i, j): i + j + 1 for i in range(100) for j in range(100)})
    b = MultiPoly.one(2) + x(2, 0) * 3 - x(2, 1)
    with pytest.raises(NotDivisibleError) as info:
        exact_divide(a, b)
    message = str(info.value)
    assert "10000-term dividend" in message and "3-term divisor" in message
    assert len(message) < 150


def test_zero_dividend():
    b = MultiPoly.one(2) + x(2, 0)
    assert exact_divide(MultiPoly.zero(2), b) == MultiPoly.zero(2)


def test_divide_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        exact_divide(MultiPoly.one(1), MultiPoly.zero(1))


def test_divide_roundtrip_on_random_products():
    rng = random.Random(31)
    for _ in range(50):
        a = random_poly(rng, 2, 3)
        b = random_nonzero_poly(rng, 2, 3)
        assert exact_divide(naive_mul(a, b), b) == a


# ---------------------------------------------------------------------------
# scale_vars


def test_scale_by_one_is_identity():
    p = MultiPoly.one(1) + x(1, 0)
    assert p.scale_vars([Fraction(1)]) == p


def test_scale_binomial_square():
    p = (MultiPoly.one(1) + x(1, 0) * HALF) ** 2
    assert p.scale_vars([Fraction(2)]) == (MultiPoly.one(1) + x(1, 0)) ** 2


def test_scale_sign_flip():
    p = MultiPoly.one(2) + x(2, 0) + x(2, 1)
    assert p.scale_vars([Fraction(-1), Fraction(1)]) == (
        MultiPoly.one(2) - x(2, 0) + x(2, 1)
    )


def test_scale_rejects_zero_factor():
    with pytest.raises(ValueError):
        x(1, 0).scale_vars([Fraction(0)])


# ---------------------------------------------------------------------------
# restrict and embed


def test_restrict_keeps_the_terms_free_of_the_other_variables():
    p = MultiPoly(3, {(0, 0, 0): 1, (1, 0, 0): 1, (0, 1, 0): 2, (1, 0, 1): 3,
                      (0, 1, 1): 1})
    # the result's variables are x3, x1 in that order
    assert p.restrict((2, 0)) == MultiPoly(2, {(0, 0): 1, (0, 1): 1, (1, 1): 3})
    assert p.restrict((1,)) == MultiPoly(1, {(0,): 1, (1,): 2})


def test_restrict_and_embed_agree_with_evaluation_on_random_polys():
    rng = random.Random(83)
    for _ in range(20):
        n = rng.randint(2, 4)
        p = random_poly(rng, n, 3, 6)
        block = tuple(rng.sample(range(n), rng.randint(1, n)))
        q = p.restrict(block)
        assert q.nvars == len(block)
        assert q.embed(n, block).restrict(block) == q
        pt = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in block]
        full = [Fraction(0)] * n
        for i, v in zip(block, pt):
            full[i] = v
        assert q.evaluate(pt) == p.evaluate(full)
        assert q.embed(n, block).evaluate(full) == q.evaluate(pt)


@pytest.mark.parametrize("variables", [(), (0, 0), (2,), (-1,)])
def test_restrict_rejects_bad_variables(variables):
    with pytest.raises((ValueError, IndexError)):
        (MultiPoly.one(2) + x(2, 0)).restrict(variables)


@pytest.mark.parametrize("nvars,variables", [(3, (0,)), (3, (1, 1)), (2, (0, 2))])
def test_embed_rejects_bad_targets(nvars, variables):
    with pytest.raises((ValueError, IndexError)):
        (MultiPoly.one(2) + x(2, 0)).embed(nvars, variables)


# ---------------------------------------------------------------------------
# nth roots


def test_square_root_of_fourth_power():
    b = (MultiPoly.one(1) + x(1, 0) * HALF) ** 2
    assert nth_root(b ** 2, 2) == b


def test_cube_root_verified_by_naive_expansion():
    base = MultiPoly.one(2) + x(2, 0) * THIRD + x(2, 1) * THIRD
    root = nth_root(naive_pow(base, 3), 3)
    assert root == base
    assert naive_pow(root, 3) == naive_pow(base, 3)


def test_square_root_of_odd_degree_fails():
    with pytest.raises(NoExactRootError):
        nth_root(MultiPoly.one(1) + x(1, 0), 2)


def test_root_roundtrip_on_random_polys():
    rng = random.Random(47)
    for q in (2, 3):
        for _ in range(20):
            r = random_nonzero_poly(rng, 2, 3, 3)
            if r.constant_term() == 0:
                r = r + MultiPoly.one(2)
            power = r ** q
            recovered = nth_root(power, q)
            assert recovered ** q == power


def test_square_root_of_integer_beyond_float_precision():
    # the float estimate of this root is off by 3
    v = 10**17 + 3
    assert nth_root(MultiPoly.constant(1, v * v), 2) == MultiPoly.constant(1, v)
    base = MultiPoly.constant(1, v) + x(1, 0)
    assert nth_root(base ** 2, 2) == base


def test_roots_of_integers_beyond_float_range():
    # 10**400 overflows a float
    big = 10**400
    assert nth_root(MultiPoly.constant(1, big), 2) == MultiPoly.constant(1, 10**200)
    cube = MultiPoly.constant(1, Fraction(10**402, 27))
    assert nth_root(cube, 3) == MultiPoly.constant(1, Fraction(10**134, 3))
    with pytest.raises(NoExactRootError):
        nth_root(MultiPoly.constant(1, big + 1), 2)
    with pytest.raises(NoExactRootError):
        nth_root(MultiPoly.constant(1, big), 3)


# ---------------------------------------------------------------------------
# binomial profiles


def poly_from_coeffs(coeffs) -> MultiPoly:
    """Univariate polynomial from a coefficient list, lowest degree first."""
    return MultiPoly(1, {(i,): Fraction(c) for i, c in enumerate(coeffs)})


def test_profile_of_quadratic():
    p = poly_from_coeffs([1, 1, Fraction(1, 4)])
    assert binomial_profile(p) == BinomialProfile(1, Fraction(2), 2)


def test_profile_with_negative_sign_and_root():
    p = poly_from_coeffs([-1, 3, -3, 1])
    assert binomial_profile(p) == BinomialProfile(-1, Fraction(-1), 3)


def test_profile_rejects_non_binomial():
    # every coefficient is matched, the middle and the last ones included
    candidates = [[1, 1, 1]]
    for j in (2, 4, 6):
        coeffs = [binomial_power(-1, Fraction(3, 2), 6).coefficient((i,))
                  for i in range(7)]
        coeffs[j] += Fraction(1, 7)
        candidates.append(coeffs)
    for coeffs in candidates:
        with pytest.raises(NotBinomialPowerError, match="expansion mismatch"):
            binomial_profile(poly_from_coeffs(coeffs))


def test_profile_rejects_a_sparse_high_degree_input_by_its_term_count():
    # 1 + t + t^2000 has 3 terms where a binomial power of degree 2000
    # has 2001, so nothing of degree 2000 is built
    p = MultiPoly(1, {(0,): 1, (1,): 1, (2000,): 1})
    with pytest.raises(NotBinomialPowerError, match="3 terms, not 2001"):
        binomial_profile(p)


@pytest.mark.parametrize("epsilon", [1, -1])
@pytest.mark.parametrize(
    "r", [Fraction(v) for v in (1, -1, 2, -2, 3, -3)] + [HALF, -HALF]
)
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_profile_roundtrip(epsilon, r, k):
    p = binomial_power(epsilon, r, k)
    assert binomial_profile(p) == BinomialProfile(epsilon, r, k)


def test_binomial_power_matches_the_product_of_its_factors(monkeypatch):
    # built from its coefficients with no kernel call, it equals the
    # power of 1 + x/r built through the kernel, stored form included,
    # for every order the continuation reaches
    from toricpke.cli import MAX_ORDER

    x = MultiPoly.variable(1, 0)
    rs = [Fraction(v) for v in (1, 2, 7, -1, -3)] + [
        Fraction(1, 2), Fraction(5, 3), Fraction(-1, 2), Fraction(-7, 4)]
    want = {(epsilon, r, k): epsilon * (MultiPoly.one(1) + x * (1 / r)) ** k
            for epsilon in (1, -1) for r in rs for k in range(MAX_ORDER + 1)}
    pairs = count_term_pairs(monkeypatch)
    for (epsilon, r, k), p in want.items():
        got = binomial_power(epsilon, r, k)
        assert got.integer_terms == p.integer_terms, (epsilon, r, k)
    assert pairs == [0]



@settings(max_examples=200, deadline=None)
@given(st.sampled_from((1, -1)),
       st.fractions(-50, 50, max_denominator=50).filter(bool), st.integers(0, 32))
def test_binomial_power_matches_its_fraction_coefficients(epsilon, r, k):
    # the integer numerators over |a|^k, r = a/b, store the same
    # polynomial as the coefficients eps*C(k, j)/r^j built as Fractions
    want = MultiPoly(1, {(j,): epsilon * math.comb(k, j) / r**j for j in range(k + 1)})
    assert binomial_power(epsilon, r, k).integer_terms == want.integer_terms

# ---------------------------------------------------------------------------
# ring axioms (property-based)

small_fraction = st.fractions(
    min_value=-4, max_value=4, max_denominator=4
).filter(lambda f: f != 0)

exponents = st.tuples(
    st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)
)

polys = st.dictionaries(exponents, small_fraction, min_size=0, max_size=4).map(
    lambda d: MultiPoly(2, d)
)


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(polys, polys)
def test_multiplication_matches_naive_oracle(a, b):
    assert a * b == naive_mul(a, b)


@settings(max_examples=40, deadline=None)
@given(polys)
def test_additive_inverse_and_zero(a):
    zero = MultiPoly.zero(2)
    assert a + (-a) == zero
    assert a * zero == zero
    assert a * MultiPoly.one(2) == a


# ---------------------------------------------------------------------------
# both kernel paths against independent oracles (property-based)
#
# Exponents are dense (a small box, so large products take the Kronecker
# path) or spread out (a box far larger than the term pairs, so products
# take the schoolbook path); coefficients mix signs and denominators.

DENSE_DEGREE = {1: 40, 2: 6, 3: 3, 4: 2}


def wide_poly(rng, nvars, spread):
    top = 10**4 if spread else DENSE_DEGREE[nvars]
    terms = {}
    for _ in range(rng.randint(0, 40)):
        exp = tuple(rng.randint(0, top) for _ in range(nvars))
        terms[exp] = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 60))
    return MultiPoly(nvars, terms)


# drawing 40 terms one value at a time makes hypothesis itself the bottleneck,
# so each example draws a seeded generator and a shape instead
wide_pairs = st.builds(
    lambda rng, nvars, spread: (
        wide_poly(rng, nvars, spread),
        wide_poly(rng, nvars, spread),
        wide_poly(rng, 1, False),
    ),
    st.randoms(use_true_random=False),
    st.integers(min_value=1, max_value=4),
    st.booleans(),
)


def to_sympy(p):
    # sympy's sparse ring, so that spread-out exponents stay cheap
    from sympy.polys.domains import QQ
    from sympy.polys.orderings import grlex
    from sympy.polys.rings import ring

    field = ring(f"x1:{p.nvars + 1}", QQ, grlex)[0]
    return field.from_dict(
        {e: QQ(c.numerator, c.denominator) for e, c in p.terms.items()}
    )


def from_sympy(poly, nvars):
    return MultiPoly(
        nvars,
        {e: Fraction(int(c.numerator), int(c.denominator)) for e, c in poly.items()},
    )


@settings(max_examples=40, deadline=None)
@given(wide_pairs)
def test_wide_products_and_sums_match_oracles(triple):
    a, b, _ = triple
    n = a.nvars
    product = a * b
    assert product == naive_mul(a, b)
    assert product == from_sympy(to_sympy(a) * to_sympy(b), n)
    assert a + b == from_sympy(to_sympy(a) + to_sympy(b), n)
    assert a - b == from_sympy(to_sympy(a) - to_sympy(b), n)


@settings(max_examples=40, deadline=None)
@given(wide_pairs, small_fraction)
def test_wide_exact_divide_matches_sympy(triple, d):
    a, b, _ = triple
    if b.is_zero():
        return
    n = a.nvars
    assert exact_divide(naive_mul(a, b), b) == a
    # a single divisor is a Groebner basis of its ideal, so sympy's
    # remainder vanishes exactly when b divides c
    for c in (a * b, a * b + d):
        quotient, remainder = to_sympy(c).div(to_sympy(b))
        if not remainder:
            assert exact_divide(c, b) == from_sympy(quotient, n)
        else:
            with pytest.raises(NotDivisibleError):
                exact_divide(c, b)


@settings(max_examples=40, deadline=None)
@given(wide_pairs)
def test_stored_form_is_canonical(triple):
    a, b, extra = triple
    n = a.nvars
    c = extra.substitute([MultiPoly.variable(n, n - 1)])
    assert a * 3 * THIRD == a
    assert (a * b - b * a).is_zero()
    routes = [
        (a + b) * c,
        a * c + b * c,
        MultiPoly(n, ((a + b) * c).terms),
        MultiPoly.from_json_dict(json.loads(json.dumps(((a + b) * c).to_json_dict()))),
    ]
    assert all(r == routes[0] and hash(r) == hash(routes[0]) for r in routes)
    assert hash(a * 3 * THIRD) == hash(a)


# ---------------------------------------------------------------------------
# the fused kernel: a sum of products in one accumulator (property-based)
#
# Each example draws up to four items c*p*q of the wide polynomials above,
# of one shape, with scalars that mix signs, denominators and sizes; an
# item with q = None is the plain addend c*p.

SCALARS = (1, -1, 3, -7, 10**30 + 7, -(10**25) - 3, HALF, Fraction(-5, 12),
           Fraction(7, 10**20))


def wide_items(rng, nvars, spread, count):
    return [(rng.choice(SCALARS), wide_poly(rng, nvars, spread),
             None if rng.random() < 0.25 else wide_poly(rng, nvars, spread))
            for _ in range(count)]


def naive_terms(items):
    """Sum of s*a*b over integer term maps by plain dictionary loops."""
    acc = {}
    for s, a, b in items:
        for ea, ca in a.items():
            for eb, cb in ({(0,) * len(ea): 1} if b is None else b).items():
                e = tuple(map(sum, zip(ea, eb)))
                acc[e] = acc.get(e, 0) + s * ca * cb
    return {e: c for e, c in acc.items() if c}


def kernel_layout(items):
    """Radices, strides, box and slot width of items (s, a, b), as the kernel
    derives them: one box from the largest degree of any item in each
    variable, one width from the sum of the items' coefficient bounds."""
    nvars = len(next(iter(items[0][1])))
    radices = [1 + max(max(e[v] for e in a) + max(e[v] for e in b) for _, a, b in items)
               for v in range(nvars)]
    strides = [math.prod(radices[v + 1:]) for v in range(nvars)]
    bound = sum(abs(s) * max(map(abs, a.values())) * max(map(abs, b.values()))
                * min(len(a), len(b)) for s, a, b in items)
    return radices, strides, math.prod(radices), bound.bit_length() // 8 + 1


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(min_value=1, max_value=4),
       st.booleans(), st.integers(min_value=1, max_value=4))
def test_fused_sums_match_the_sum_of_products(rng, nvars, spread, count):
    items = wide_items(rng, nvars, spread, count)
    one = MultiPoly.one(nvars)
    naive = MultiPoly.zero(nvars)
    for c, p, q in items:
        naive = naive + naive_mul(p, one if q is None else q) * c
    fused = _dot(nvars, items)
    assert fused == naive
    assert fused == sum(((p if q is None else p * q) * c for c, p, q in items),
                        MultiPoly.zero(nvars))
    # every item and its negation, operands swapped, cancel to zero
    negated = [(-c, one if q is None else q, p) for c, p, q in items]
    assert _dot(nvars, items + negated).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(min_value=1, max_value=4),
       st.booleans(), st.integers(min_value=1, max_value=4))
def test_both_forced_kernel_paths_match_naive_sums(rng, nvars, spread, count):
    from toricpke import _pykernel

    unit = {(0,) * nvars: 1}
    items = [(s.numerator, dict(p.integer_terms[1]),
              unit if q is None else dict(q.integer_terms[1]))
             for s, p, q in wide_items(rng, nvars, spread, count)
             if s.denominator == 1 and not p.is_zero()
             and (q is None or not q.is_zero())]
    if not items:
        return
    want = naive_terms(items)
    cancelling = items + [(-s, b, a) for s, a, b in items]
    assert _pykernel.dot_terms(items) == want
    assert _pykernel.dot_terms(cancelling) == {}
    radices, strides, box, width = kernel_layout(items)
    assert _pykernel._schoolbook(items, radices, strides) == want
    if nvars == 1:
        assert _pykernel._schoolbook_univariate(items) == want
    if box <= 10**5:
        assert _pykernel._kronecker(items, radices, strides, box, width) == want
        layout = kernel_layout(cancelling)
        assert _pykernel._kronecker(cancelling, *layout) == {}


@settings(max_examples=40, deadline=None)
@given(wide_pairs)
def test_one_item_is_the_product(triple):
    from toricpke import _pykernel

    a, b, _ = triple
    if a.is_zero() or b.is_zero():
        return
    ta, tb = dict(a.integer_terms[1]), dict(b.integer_terms[1])
    product = _pykernel.dot_terms([(1, ta, tb)])
    assert product == naive_terms([(1, ta, tb)])
    assert product == _pykernel.dot_terms([(1, tb, ta)])
    assert _pykernel.dot_terms([(-3, ta, None)]) == {e: -3 * c for e, c in ta.items()}


def small_entries(nvars):
    exps = st.tuples(*[st.integers(min_value=0, max_value=2)] * nvars)
    return st.dictionaries(exps, small_fraction, max_size=3).map(
        lambda d: MultiPoly(nvars, d)
    )


@st.composite
def small_matrices(draw):
    size = draw(st.integers(min_value=1, max_value=3))
    entry = small_entries(draw(st.integers(min_value=1, max_value=2)))
    return [[draw(entry) for _ in range(size)] for _ in range(size)]


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_determinants_match_sympy(m):
    from sympy.polys.matrices import DomainMatrix

    nv = m[0][0].nvars
    ring = to_sympy(MultiPoly.zero(nv)).ring
    entries = [[to_sympy(e) for e in row] for row in m]
    expected = from_sympy(
        DomainMatrix(entries, (len(m), len(m)), ring.to_domain()).det(), nv
    )
    assert determinant(m) == expected
    assert determinant_cofactor(m) == expected


def unit_constant(p):
    """p with its constant term moved off zero, as nth_root requires."""
    return p + MultiPoly.one(p.nvars) if p.constant_term() == 0 else p


def is_rational_power(c, q):
    """Whether the rational c is the q-th power of a rational."""
    import sympy

    if c < 0 and q % 2 == 0:
        return False
    return all(sympy.integer_nthroot(abs(int(v)), q)[1]
               for v in (c.numerator, c.denominator))


@settings(max_examples=40, deadline=None)
@given(small_entries(2), st.sampled_from((2, 3)))
def test_root_of_a_power_is_the_base_up_to_sign(p, q):
    p = unit_constant(p)
    root = nth_root(p**q, q)
    assert root == p or (q == 2 and root == -p)


@settings(max_examples=60, deadline=None)
@given(small_entries(2), small_entries(2), small_fraction,
       st.sampled_from((2, 3)), st.integers(min_value=0, max_value=3))
def test_root_fails_exactly_when_sympy_finds_no_power(base, other, c, q, shape):
    # powers, scaled powers, powers times a factor, and plain polynomials
    base, other = unit_constant(base), unit_constant(other)
    p = (base**q, base**q * c, base**q * other, other)[shape]
    content, factors = to_sympy(p).factor_list()
    content = Fraction(int(content.numerator), int(content.denominator))
    is_power = is_rational_power(content, q) and all(e % q == 0 for _, e in factors)
    if is_power:
        assert nth_root(p, q) ** q == p
    else:
        with pytest.raises(NoExactRootError):
            nth_root(p, q)


def test_both_kernel_paths_are_taken(monkeypatch):
    from toricpke import _pykernel

    dense = (MultiPoly.one(3) + x(3, 0) * HALF - x(3, 1) * 7 + x(3, 2) * THIRD) ** 6
    spread = MultiPoly.one(3) + x(3, 0) ** 5000 * 3 - x(3, 1) ** 7000 * HALF
    calls = []
    for name in ("_kronecker", "_schoolbook"):

        def counted(*args, name=name, fn=getattr(_pykernel, name)):
            calls.append(name)
            return fn(*args)

        monkeypatch.setattr(_pykernel, name, counted)
    assert dense * dense == naive_mul(dense, dense)
    assert spread * dense == naive_mul(spread, dense)
    assert calls == ["_kronecker", "_schoolbook"]


def test_kronecker_slots_hold_the_coefficient_bound(monkeypatch):
    # 16 * m**2 is the bound the slot width is taken from, with bit length
    # 64; the middle coefficients reach it exactly, with either sign
    from toricpke import _pykernel

    m = 2**30 - 1
    a = MultiPoly(1, {(i,): m for i in range(16)})
    b = MultiPoly(1, {(i,): -m for i in range(16)})
    calls = []
    kronecker = _pykernel._kronecker

    def counted(items, radices, strides, box, width):
        calls.append(width)
        return kronecker(items, radices, strides, box, width)

    monkeypatch.setattr(_pykernel, "_kronecker", counted)
    assert (16 * m * m).bit_length() == 64
    assert a * a == naive_mul(a, a)
    assert a * b == naive_mul(a, b)
    # a fused sum takes its width from the sum of its items' bounds: with
    # m = 2**29 + 1 one product fits 8-byte slots, and a sum of two, whose
    # middle coefficient reaches 32*m**2 with either sign, needs 9
    m = 2**29 + 1
    a = MultiPoly(1, {(i,): m for i in range(16)})
    assert (16 * m * m).bit_length() == 63 and (32 * m * m).bit_length() == 64
    assert a * a == naive_mul(a, a)
    fused = _dot(1, [(1, a, a), (-1, a, -a)])
    assert fused == naive_mul(a, a) * 2
    assert fused.coefficient((15,)) == 32 * m * m
    assert _dot(1, [(-1, a, a), (1, a, -a)]) == -fused
    assert calls == [9, 9, 8, 9, 9]


# ---------------------------------------------------------------------------
# large exponents and coefficients


def test_exponents_never_carry_into_the_next_variable():
    p = x(2, 0) ** 40000
    assert p * p == MultiPoly(2, {(80000, 0): 1})


def test_box_sparse_product_takes_the_schoolbook_path(monkeypatch):
    # the degree box of these products has about 10**17 slots
    from toricpke import _pykernel

    def no_dense_box(*args):
        raise AssertionError("dense box built for a sparse product")

    monkeypatch.setattr(_pykernel, "_kronecker", no_dense_box)
    m = x(4, 0) * x(4, 1) * x(4, 2) * x(4, 3)
    square = (MultiPoly.one(4) + m**9000) ** 2
    assert square.terms == {
        (0, 0, 0, 0): 1,
        (9000,) * 4: 2,
        (18000,) * 4: 1,
    }
    # over a hundred term pairs, still far fewer than the box
    wide = sum((m ** (900 * j) * (j + 1) for j in range(12)), MultiPoly.zero(4))
    assert wide * wide == naive_mul(wide, wide)
    # the box of a sum is that of its largest item, paid once
    assert _dot(4, [(1, wide, wide), (-2, square, wide), (3, m, None)]) == (
        naive_mul(wide, wide) - naive_mul(square, wide) * 2 + m * 3)


def test_json_roundtrip_of_ten_thousand_digit_coefficients():
    c = 9 * 10**9999 + 71
    digits = "9" + "0" * 9997 + "71"
    p = MultiPoly.one(2) - x(2, 0) * c + x(2, 1) * Fraction(1, c)
    doc = p.to_json_dict()
    assert [t["num"] for t in doc["terms"]] == ["1", "1", "-" + digits]
    assert doc["terms"][1]["den"] == digits
    assert MultiPoly.from_json_dict(json.loads(json.dumps(p.to_json_dict()))) == p
    assert str(p).startswith("1 + 1/" + digits[:10])


def test_json_rejects_coefficients_beyond_the_digit_cap():
    doc = {"nvars": 1, "terms": [{"exp": [0], "num": "7" * (MAX_COEFF_DIGITS + 1),
                                  "den": "1"}]}
    with pytest.raises(ValueError):
        MultiPoly.from_json_dict(doc)
    doc["terms"][0]["num"] = "7" * MAX_COEFF_DIGITS
    assert MultiPoly.from_json_dict(doc).constant_term() % 10 == 7


# ---------------------------------------------------------------------------
# representation details


def test_zero_polynomial_degree_convention():
    assert MultiPoly.zero(3).degree() == float("-inf")
    assert MultiPoly.one(3).degree() == 0


def test_no_zero_coefficients_stored():
    p = x(1, 0) - x(1, 0)
    assert p.terms == {}
    assert p.is_zero()


def test_equality_and_hash_by_term_map():
    a = (MultiPoly.one(1) + x(1, 0)) ** 2
    b = MultiPoly.one(1) + x(1, 0) * 2 + x(1, 0) ** 2
    assert a == b
    assert hash(a) == hash(b)


def test_evaluate_keeps_floats_on_the_float_path():
    # a constant polynomial at a float point is a float too, of the same
    # value as the exact one; int and Fraction points stay exact
    for p in (MultiPoly.constant(2, THIRD), MultiPoly.one(2) + x(2, 0) * THIRD):
        at_float = p.evaluate([0.0, 0.25])
        assert type(at_float) is float
        assert at_float == float(p.evaluate([0, Fraction(1, 4)]))
        assert type(p.evaluate([0, Fraction(1, 4)])) is Fraction
        assert type(p.evaluate([0, 0])) is Fraction


def test_kernel_output_types_are_exact():
    a = MultiPoly.one(2) + x(2, 0) * THIRD
    out = (a * a).terms
    for exp, coeff in out.items():
        assert isinstance(exp, tuple) and len(exp) == 2
        assert isinstance(coeff, Fraction)


def test_cancelling_products_drop_zero_terms():
    a = MultiPoly.one(1) + x(1, 0)
    b = MultiPoly.one(1) - x(1, 0)
    out = ((a * b) * (a * b)).terms
    assert out == {(0,): 1, (2,): -2, (4,): 1}
    assert all(c != 0 for c in out.values())


def test_zero_operand_through_multipoly():
    assert (MultiPoly.zero(2) * MultiPoly.one(2)).is_zero()


def test_json_roundtrip_and_grlex_order():
    p = MultiPoly.one(2) + x(2, 1) * HALF + x(2, 0) ** 2 * Fraction(-3)
    doc = p.to_json_dict()
    assert doc["nvars"] == 2
    exps = [tuple(t["exp"]) for t in doc["terms"]]
    assert exps == [(0, 0), (0, 1), (2, 0)]
    assert all(
        isinstance(t["num"], str) and isinstance(t["den"], str)
        for t in doc["terms"]
    )
    assert MultiPoly.from_json_dict(json.loads(json.dumps(p.to_json_dict()))) == p


def test_json_rejects_bad_payload():
    with pytest.raises((ValueError, KeyError, TypeError)):
        MultiPoly.from_json_dict({"nvars": 1, "terms": [{"exp": [0]}]})


@st.composite
def json_documents(draw):
    """(nvars, terms) in the JSON schema: unreduced fractions, negative
    denominators, zero numerators, exponents as ints or decimal strings."""
    nvars = draw(st.integers(min_value=1, max_value=3))
    exps = draw(st.lists(st.tuples(*[st.integers(0, 6)] * nvars),
                         unique=True, max_size=8))
    spell = st.sampled_from([lambda v: v, str, lambda v: f" {v} ", lambda v: f"{v:+d}"])
    terms = []
    for exp in exps:
        num = draw(st.integers(-40, 40))
        den = draw(st.integers(-30, 30).filter(bool))
        k = draw(st.integers(1, 12))  # a common factor left in
        terms.append({"exp": [draw(spell)(e) for e in exp],
                      "num": draw(spell)(num * k), "den": draw(spell)(den * k)})
    return nvars, terms


@given(json_documents())
def test_json_reader_equals_the_fraction_constructor(doc):
    nvars, terms = doc
    expected = MultiPoly(nvars, {
        tuple(int(e) for e in t["exp"]): Fraction(int(t["num"]), int(t["den"]))
        for t in terms})
    got = MultiPoly.from_json_dict({"nvars": nvars, "terms": terms})
    assert got == expected and hash(got) == hash(expected)
    # storage order too: evaluate sums float terms in it
    den, numerators = got.integer_terms
    assert (den, list(numerators.items())) == (
        expected.integer_terms[0], list(expected.integer_terms[1].items()))


def _term(exp, num=1, den=1):
    return {"exp": exp, "num": num, "den": den}


@pytest.mark.parametrize("nvars,terms,error,message", [
    (2, [_term([1])], ValueError, r"bad exponent tuple \(1,\) for nvars=2"),
    (1, [_term([0]), _term(["-2"])], ValueError, r"bad exponent tuple \(-2,\) for nvars=1"),
    (0, [], ValueError, "nvars must be positive"),
    # a zero coefficient still claims its exponent
    (1, [_term([1], num=0), _term([1])], ValueError, r"exponent \[1\] repeats"),
    (1, [_term([1]), _term([" 1"])], ValueError, r"exponent \[1\] repeats"),
    (1, [_term([0], num=3, den="0")], ZeroDivisionError, r"Fraction\(3, 0\)"),
    (1, [_term([0], num=True)], ValueError, "expected an integer or a decimal string"),
    (1, [_term(["1" * (MAX_COEFF_DIGITS + 1)])], ValueError,
     f"integer of {MAX_COEFF_DIGITS + 1} digits exceeds"),
    # a malformed term wins over nvars, and nvars over an exponent's shape
    (0, [_term([1, 1]), _term([0], den=0)], ZeroDivisionError, r"Fraction\(1, 0\)"),
    (0, [_term([1, 1])], ValueError, "nvars must be positive"),
    (1, [_term([1, 1]), _term([-1])], ValueError, r"bad exponent tuple \(1, 1\)"),
])
def test_json_reader_errors(nvars, terms, error, message):
    with pytest.raises(error, match=message):
        MultiPoly.from_json_dict({"nvars": nvars, "terms": terms})

"""Exact polynomial arithmetic: derivatives, determinants, divisions, roots."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import naive_mul, naive_pow, random_nonzero_poly, random_poly
from toricpke.algebra import (
    MAX_COEFF_DIGITS,
    BinomialProfile,
    MultiPoly,
    NoExactRootError,
    NotBinomialPowerError,
    NotDivisibleError,
    PolyMatrix,
    adjugate,
    binomial_power,
    binomial_profile,
    determinant,
    determinant_cofactor,
    exact_divide,
    nth_root,
    poly_from_coeffs,
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


# ---------------------------------------------------------------------------
# determinants


def test_determinant_identity():
    one = MultiPoly.one(2)
    zero = MultiPoly.zero(2)
    m = PolyMatrix([[one, zero], [zero, one]])
    assert determinant(m) == one


def test_determinant_two_by_two_hand_cofactor():
    one = MultiPoly.one(2)
    x1, x2 = x(2, 0), x(2, 1)
    m = PolyMatrix([[one + x2, x1], [x2, one + x1]])
    assert determinant(m) == one + x1 + x2


def test_determinant_zero_row():
    zero = MultiPoly.zero(2)
    m = PolyMatrix([[x(2, 0), x(2, 1)], [zero, zero]])
    assert determinant(m) == zero


def test_determinant_rejects_non_square():
    with pytest.raises(ValueError):
        determinant(PolyMatrix([[MultiPoly.one(1), MultiPoly.one(1)]]))


def test_bareiss_matches_cofactor_on_random_matrices():
    rng = random.Random(23)
    for _ in range(100):
        m = PolyMatrix(
            [[random_poly(rng, 2, 2, 3) for _ in range(3)] for _ in range(3)]
        )
        assert determinant(m) == determinant_cofactor(m)


def test_adjugate_times_matrix_is_det_times_identity():
    rng = random.Random(5)
    m = PolyMatrix([[random_poly(rng, 2, 2, 3) for _ in range(3)] for _ in range(3)])
    adj = adjugate(m)
    det = determinant(m)
    for i in range(3):
        for j in range(3):
            entry = sum(
                (m[i, l] * adj[l, j] for l in range(3)), MultiPoly.zero(2)
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


def test_profile_of_quadratic():
    p = poly_from_coeffs([1, 1, Fraction(1, 4)])
    assert binomial_profile(p) == BinomialProfile(1, Fraction(2), 2)


def test_profile_with_negative_sign_and_root():
    p = poly_from_coeffs([-1, 3, -3, 1])
    assert binomial_profile(p) == BinomialProfile(-1, Fraction(-1), 3)


def test_profile_rejects_non_binomial():
    with pytest.raises(NotBinomialPowerError):
        binomial_profile(poly_from_coeffs([1, 1, 1]))


@pytest.mark.parametrize("epsilon", [1, -1])
@pytest.mark.parametrize(
    "r", [Fraction(v) for v in (1, -1, 2, -2, 3, -3)] + [HALF, -HALF]
)
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_profile_roundtrip(epsilon, r, k):
    p = binomial_power(1, 0, epsilon, r, k)
    assert binomial_profile(p) == BinomialProfile(epsilon, r, k)


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
        MultiPoly.from_json(((a + b) * c).to_json()),
    ]
    assert all(r == routes[0] and hash(r) == hash(routes[0]) for r in routes)
    assert hash(a * 3 * THIRD) == hash(a)


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

    def counted(*args):
        calls.append(args[-1])
        return kronecker(*args)

    monkeypatch.setattr(_pykernel, "_kronecker", counted)
    assert (16 * m * m).bit_length() == 64
    assert a * a == naive_mul(a, a)
    assert a * b == naive_mul(a, b)
    assert calls == [9, 9]


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


def test_json_roundtrip_of_ten_thousand_digit_coefficients():
    c = 9 * 10**9999 + 71
    digits = "9" + "0" * 9997 + "71"
    p = MultiPoly.one(2) - x(2, 0) * c + x(2, 1) * Fraction(1, c)
    doc = p.to_json_dict()
    assert [t["num"] for t in doc["terms"]] == ["1", "1", "-" + digits]
    assert doc["terms"][1]["den"] == digits
    assert MultiPoly.from_json(p.to_json()) == p
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
    assert MultiPoly.from_json(p.to_json()) == p


def test_json_rejects_bad_payload():
    with pytest.raises((ValueError, KeyError, TypeError)):
        MultiPoly.from_json_dict({"nvars": 1, "terms": [{"exp": [0]}]})

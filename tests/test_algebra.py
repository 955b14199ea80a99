"""Exact polynomial arithmetic: derivatives, determinants, divisions, roots."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import naive_mul, naive_pow, random_nonzero_poly, random_poly
from toricpke.algebra import (
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
    divides,
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
    assert not divides(b, a)


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

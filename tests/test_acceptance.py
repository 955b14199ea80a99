"""Acceptance suite: the twelve headline checks, one pass/fail line each.

Each test prints "criterion N: PASS" on success (pytest -s shows the
lines; under plain pytest the assertions alone carry the verdict).
Tolerances and runtime limits are pinned in the assertions.
"""

import random
import time
from fractions import Fraction

import pytest

from conftest import random_poly
from toricpke.algebra import (
    MultiPoly,
    binomial_power,
    determinant,
    determinant_cofactor,
)
from toricpke.catalog import (
    canonicalize,
    min_embedding_dim,
    partitions,
    product_solution,
)
from toricpke.geometry import (
    ToricPotential,
    einstein_fit,
    four_point_combination,
    space_form_potential,
)
from toricpke.ma_engine import (
    cauchy_data,
    classify_flat,
    classify_n1,
    exponent_scan,
    feasible_k_scan_n2,
    reduce_power,
    taylor_continue_n2,
    verify_ma_star,
)
from toricpke.paracomplex import (
    E,
    EBAR,
    TAU,
    ParaComplex,
    ParaMap,
    compose,
    is_paraholomorphic,
    modulus_sq,
    pc_mul,
)

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def x(nvars, i):
    return MultiPoly.variable(nvars, i)


def report(num, label):
    print(f"criterion {num}: PASS ({label})")


def published_solutions():
    """Every classified polynomial solution with its expected sign."""
    sols = []
    one1 = MultiPoly.one(1)
    sols.append(((one1 + x(1, 0) * HALF) ** 2, 1))
    sols.append(((one1 - x(1, 0) * HALF) ** 2, -1))
    one2 = MultiPoly.one(2)
    for r in (Fraction(1), Fraction(2), Fraction(3), Fraction(9)):
        for eps in (1, -1):
            for pm in (1, -1):
                cubic = eps ** 3 * (
                    one2 + x(2, 0) * (1 / r) + x(2, 1) * (pm * r / 9)
                ) ** 3
                sols.append((cubic, None))
                quartic = (
                    (one2 + x(2, 0) * (1 / r)) ** 2
                    * (one2 + x(2, 1) * (pm * r / 4)) ** 2
                )
                sols.append((quartic, None))
    for part in ((1, 1, 1), (1, 2), (3,)):
        sols.append((product_solution(part), 1))
    return sols


def test_criterion_01_exact_verification_of_published_solutions():
    start = time.perf_counter()
    for p, expected_sign in published_solutions():
        res = verify_ma_star(p)
        assert res.is_solution, str(p)
        if expected_sign is not None:
            assert res.sign == expected_sign, str(p)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(1, f"all published solutions verify in {elapsed:.2f}s")


def test_criterion_02_refutation_of_perturbed_solutions():
    start = time.perf_counter()
    rng = random.Random(1)
    for p, _ in published_solutions():
        exp = rng.choice(list(p.terms))
        bump = MultiPoly(p.nvars, {exp: Fraction(1, 100)})
        try:
            refuted = not verify_ma_star(p + bump).is_solution
        except ValueError:
            # bumping the constant term breaks the P(0) = +-1 normalization,
            # which is a refutation in itself
            refuted = True
        assert refuted, str(p)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(2, f"every single-coefficient perturbation refuted in {elapsed:.2f}s")


def test_criterion_03_flat_classification():
    assert classify_flat(x(2, 0) * 2 + x(2, 1) * HALF).is_solution
    assert classify_flat(x(2, 0) + x(2, 1)).is_solution
    assert not classify_flat(x(2, 0) + x(2, 1) * 2).is_solution
    assert not classify_flat(
        x(2, 0) + x(2, 1) + x(2, 0) * x(2, 1)
    ).is_solution
    rng = random.Random(2)
    accepted = 0
    for trial in range(200):
        if trial % 10 == 0:
            # seed the sweep with affine candidates whose coefficient
            # product is a unit, so the accepting branch is exercised too
            a = rng.choice([Fraction(2), HALF, Fraction(3), Fraction(-1, 3)])
            d0 = x(2, 0) * a + x(2, 1) * (rng.choice([1, -1]) / a)
        else:
            d0 = random_poly(rng, 2, 3)
        result = classify_flat(d0)
        is_affine_unit = (
            not d0.is_zero()
            and d0.degree() == 1
            and all(sum(e) <= 1 for e in d0.terms)
            and abs(
                d0.coefficient((1, 0)) * d0.coefficient((0, 1))
            ) == 1
        )
        assert result.is_solution == is_affine_unit, str(d0)
        accepted += result.is_solution
    report(3, f"200-candidate sweep accepts only affine unit products "
              f"({accepted} accepted)")


def test_criterion_04_n1_classification():
    grid = [Fraction(v) for v in (1, -1, 2, -2, 3, -3)] + [
        HALF, -HALF, Fraction(3, 2), Fraction(-3, 2)
    ]
    sols = classify_n1(grid)
    expected = {
        binomial_power(eps, Fraction(2 * s), 2)
        for eps in (1, -1)
        for s in (1, -1)
    }
    assert set(sols) == expected
    report(4, "n=1 scan returns exactly eps*(1 +- x/2)^2")


def test_criterion_05_n2_diophantine_exclusion():
    assert feasible_k_scan_n2(6) == {2, 3}
    report(5, "feasible axis exponents for n=2 are exactly {2, 3}")


def test_criterion_06_n2_uniqueness_and_stability():
    cubic = (MultiPoly.one(2) + x(2, 0) * THIRD + x(2, 1) * THIRD) ** 3
    quartic = (MultiPoly.one(2) + x(2, 0) * HALF) ** 2 * (
        MultiPoly.one(2) + x(2, 1) * HALF
    ) ** 2
    cd3 = cauchy_data(1, 1, Fraction(3), 3)
    cd2 = cauchy_data(1, 1, Fraction(2), 2)
    rec3 = taylor_continue_n2(cd3, 6)
    rec2 = taylor_continue_n2(cd2, 6)
    assert rec3 == cubic and rec2 == quartic
    p2 = MultiPoly(1, {(e[0],): c for e, c in rec3.terms.items() if e[1] == 2})
    p3 = MultiPoly(1, {(e[0],): c for e, c in rec3.terms.items() if e[1] == 3})
    assert p2 == (MultiPoly.one(1) + x(1, 0) * THIRD) * THIRD
    assert p3 == MultiPoly.constant(1, Fraction(1, 27))
    for bound in (8, 10):
        assert taylor_continue_n2(cd3, bound) == cubic
        assert taylor_continue_n2(cd2, bound) == quartic
    report(6, "both Cauchy families reconstruct exactly, stable at "
              "bounds 6/8/10")


def test_criterion_07_power_reduction_chain():
    q = (MultiPoly.one(1) + x(1, 0) * Fraction(1, 4)) ** 4
    ratio = exponent_scan(q)
    assert ratio == HALF
    p = reduce_power(q, ratio)
    assert p == (MultiPoly.one(1) + x(1, 0) * HALF) ** 2
    assert verify_ma_star(p).is_solution
    report(7, "exponent ratio 1/2 detected and reduction re-verifies")


def test_criterion_08_numeric_einstein_property():
    rng = random.Random(3)

    def points(n):
        return [
            (
                [rng.uniform(-0.08, 0.08) for _ in range(n)],
                [rng.uniform(-0.08, 0.08) for _ in range(n)],
            )
            for _ in range(5)
        ]

    start = time.perf_counter()
    for bigk in (1, 2, 3):
        pot = ToricPotential("log", MultiPoly.one(1) + x(1, 0) * 2,
                             Fraction(bigk))
        fit = einstein_fit(pot, points(1))
        assert fit.max_residual < 1e-6
        assert abs(fit.lam - 2 / bigk) < 1e-6
        assert time.perf_counter() - start < 1.0
        start = time.perf_counter()
    cubic_pot = ToricPotential(
        "log",
        MultiPoly.one(2) + x(2, 0) * THIRD + x(2, 1) * THIRD,
        Fraction(3),
    )
    fit = einstein_fit(cubic_pot, points(2))
    assert fit.max_residual < 1e-6 and abs(fit.lam - 1) < 1e-6
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    flat = einstein_fit(space_form_potential(0, 2), points(2))
    assert abs(flat.lam) < 1e-8 and flat.max_residual < 1e-8
    assert time.perf_counter() - start < 1.0
    report(8, "lambda = 2/K, 1, and 0 all within tolerance")


def test_criterion_09_diastasis_properties():
    pot = space_form_potential(8, 1)
    rng = random.Random(4)
    for _ in range(100):
        xi, eta, zeta, lam = (
            [rng.uniform(-0.05, 0.05)] for _ in range(4)
        )
        assert abs(four_point_combination(pot.phi, xi, eta, xi, lam)) < 1e-15
        assert abs(four_point_combination(pot.phi, xi, eta, zeta, eta)) < 1e-15
        a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)

        def gauged(u, v):
            return pot.phi(u, v) + a * u[0] ** 2 + b * v[0] ** 3

        assert four_point_combination(gauged, xi, eta, zeta, lam) == (
            pytest.approx(
                four_point_combination(pot.phi, xi, eta, zeta, lam),
                abs=1e-12,
            )
        )
    report(9, "degenerate slices vanish, separable gauge terms cancel")


def test_criterion_10_para_complex_algebra():
    rng = random.Random(5)
    assert pc_mul(TAU, TAU) == ParaComplex(1, 0)
    assert pc_mul(E, EBAR) == ParaComplex(0, 0)
    for _ in range(100):
        a = ParaComplex(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                        Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        b = ParaComplex(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                        Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        assert modulus_sq(pc_mul(a, b)) == modulus_sq(a) * modulus_sq(b)
        u, v = a.to_null()
        assert ParaComplex.from_null(u, v) == a
    for _ in range(50):
        def half_map():
            return ParaMap(
                1,
                sum(
                    (MultiPoly.variable(2, 0) ** (d + 1)
                     * Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                     for d in range(rng.randint(1, 3))),
                    MultiPoly.zero(2),
                ),
                sum(
                    (MultiPoly.variable(2, 1) ** (d + 1)
                     * Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                     for d in range(rng.randint(1, 3))),
                    MultiPoly.zero(2),
                ),
            )

        f, g = half_map(), half_map()
        assert is_paraholomorphic(f) and is_paraholomorphic(g)
        assert is_paraholomorphic(compose(f, g))
    report(10, "split-complex identities and composition closure hold")


def test_criterion_11_determinant_oracle_equivalence():
    rng = random.Random(6)
    for _ in range(100):
        m = [[random_poly(rng, 2, 2, 3) for _ in range(3)] for _ in range(3)]
        assert determinant(m) == determinant_cofactor(m)
    report(11, "fraction-free and cofactor determinants agree 100/100")


def test_criterion_12_catalog_and_embedding_bounds():
    line = ToricPotential("log", MultiPoly.one(1) + x(1, 0) * 2, Fraction(1))
    quad = ToricPotential(
        "log", (MultiPoly.one(1) + x(1, 0) * HALF) ** 2, Fraction(1)
    )
    cubic = ToricPotential(
        "log",
        (MultiPoly.one(2) + x(2, 0) * THIRD + x(2, 1) * THIRD) ** 3,
        Fraction(1),
    )
    assert min_embedding_dim(line) == 1
    assert min_embedding_dim(quad) == 2
    assert min_embedding_dim(cubic) == 9
    checked = 0
    for n in range(1, 5):
        for part in partitions(n):
            p = canonicalize(product_solution(part))
            assert verify_ma_star(p).is_solution, part
            checked += 1
    report(12, f"embedding dims 1/2/9 and {checked} product solutions verify")

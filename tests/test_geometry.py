"""Potentials, metrics, numeric Ricci/Einstein checks, diastasis, models."""

import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import count_term_pairs, derivative_metric, derivative_rows, random_poly
from toricpke import algebra, geometry
from toricpke.algebra import MultiPoly, determinant
from toricpke.catalog import partitions, potential_for_power, product_solution
from toricpke.einstein import einstein_exponent
from toricpke.geometry import (
    DomainError,
    ToricPotential,
    diastasis_eval,
    einstein_fit,
    einstein_residual,
    eval_metric,
    ricci_numeric,
    space_form_potential,
    toric_hessian_matrix,
)

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def x(nvars, i):
    return MultiPoly.variable(nvars, i)


def sample_points(n, count, seed, radius=0.08):
    rng = random.Random(seed)
    return [
        (
            [rng.uniform(-radius, radius) for _ in range(n)],
            [rng.uniform(-radius, radius) for _ in range(n)],
        )
        for _ in range(count)
    ]


# ---------------------------------------------------------------------------
# toric Hessian matrix


def test_hessian_of_flat_model_is_scaled_identity():
    d0 = (x(2, 0) + x(2, 1)) * 4
    four = MultiPoly.constant(2, 4)
    zero = MultiPoly.zero(2)
    assert toric_hessian_matrix(d0) == [
        [four, zero],
        [zero, four],
    ]


def test_hessian_of_product_term():
    d0 = x(2, 0) * x(2, 1)
    assert toric_hessian_matrix(d0) == [
        [x(2, 1), x(2, 0)],
        [x(2, 1), x(2, 0)],
    ]


def test_hessian_of_zero():
    m = toric_hessian_matrix(MultiPoly.zero(2))
    assert all(m[i][j].is_zero() for i in range(2) for j in range(2))


def test_hessian_multiplies_no_polynomials(monkeypatch):
    # deterministic work gate: entry (i, j) is d/dx_j of x_i*dD0/dx_i, so
    # the matrix is built from derivatives alone; products by the
    # variable x_i took up to n^2 kernel calls
    products = [product_solution(part) for n in range(1, 5) for part in partitions(n)]
    # x_i*D0_ij + delta_ij*D0_j, built the long way round
    want = []
    for d0 in products:
        n = d0.nvars
        grad = [d0.partial_derivative(j) for j in range(n)]
        want.append([[grad[j].partial_derivative(i) * x(n, i)
                      + (grad[j] if i == j else 0) for j in range(n)]
                     for i in range(n)])
    pairs = count_term_pairs(monkeypatch)
    got = [toric_hessian_matrix(d0) for d0 in products]
    assert pairs == [0]
    assert got == want


# ---------------------------------------------------------------------------
# metric evaluation


def test_metric_of_projective_model_at_origin():
    pot = ToricPotential("log", MultiPoly.one(1) + x(1, 0) * 2, Fraction(1))
    assert eval_metric(pot, [Fraction(0)], [Fraction(0)]) == [[Fraction(2)]]


def test_metric_of_flat_model_is_constant():
    pot = space_form_potential(0, 1)
    assert eval_metric(pot, [0.37], [-0.21]) == [[4.0]]


def test_metric_of_zero_potential():
    pot = ToricPotential("poly", MultiPoly.zero(2))
    assert eval_metric(pot, [0.1, 0.2], [0.3, 0.4]) == [[0, 0], [0, 0]]


def test_metric_is_float_at_float_points_and_exact_at_fraction_points():
    p = MultiPoly.one(2) + x(2, 0) * THIRD + x(2, 1) * THIRD
    for pot in (ToricPotential("poly", p * p), ToricPotential("log", p, Fraction(3))):
        g = eval_metric(pot, [0.03, -0.02], [0.01, 0.05])
        assert all(type(v) is float for row in g for v in row)
        exact = eval_metric(pot, [THIRD, -HALF], [HALF, Fraction(1, 5)])
        assert all(type(v) is Fraction for row in exact for v in row)


def test_metric_raises_where_p_vanishes():
    pot = ToricPotential("log", MultiPoly.one(1) + x(1, 0) * 2, Fraction(1))
    with pytest.raises(DomainError):
        eval_metric(pot, [Fraction(1)], [Fraction(-1, 2)])


def test_metric_linear_in_log_exponent():
    p = MultiPoly.one(2) + x(2, 0) * THIRD + x(2, 1) * THIRD
    ka, kb = Fraction(2), Fraction(3, 2)
    pts = sample_points(2, 5, seed=1)
    for xi, eta in pts:
        ga = eval_metric(ToricPotential("log", p, ka), xi, eta)
        gb = eval_metric(ToricPotential("log", p, kb), xi, eta)
        gsum = eval_metric(ToricPotential("log", p, ka + kb), xi, eta)
        for i in range(2):
            for j in range(2):
                assert gsum[i][j] == pytest.approx(
                    ga[i][j] + gb[i][j], abs=1e-12
                )


def test_hessian_determinant_matches_metric_determinant():
    # det of the toric Hessian matrix at x = xi*eta equals det g for
    # polynomial potentials: the algebraic identity behind the flat operator
    rng = random.Random(6)
    for _ in range(10):
        d0 = random_poly(rng, 2, 3)
        pot = ToricPotential("poly", d0)
        xi = [Fraction(rng.randint(-5, 5), 100) for _ in range(2)]
        eta = [Fraction(rng.randint(-5, 5), 100) for _ in range(2)]
        xvals = [a * b for a, b in zip(xi, eta)]
        symb = determinant(toric_hessian_matrix(d0)).evaluate(xvals)
        g = eval_metric(pot, xi, eta)
        num = g[0][0] * g[1][1] - g[0][1] * g[1][0]
        assert float(abs(num - symb)) <= 1e-8 * (1 + float(abs(symb)))


# ---------------------------------------------------------------------------
# Ricci and Einstein fits


def test_einstein_fit_evaluate_budget(monkeypatch):
    # deterministic work gate: per point the fit takes g, and for Ricci
    # det g at the 1 + 8n^2 distinct points of the stencils: 3 x 130 = 390
    # metrics on (2,1,1).  Each metric fills one table of the distinct
    # monomials of P, its gradient and its upper Hessian (the 90 monomials
    # of P) and takes 643 coefficient-times-monomial terms; no polynomial
    # is evaluated
    calls = {"evaluate": 0, "metric": 0}
    evaluate = MultiPoly.evaluate
    metric = geometry.eval_metric

    def counting_evaluate(self, point):
        calls["evaluate"] += 1
        return evaluate(self, point)

    def counting_metric(*args):
        calls["metric"] += 1
        return metric(*args)

    monkeypatch.setattr(MultiPoly, "evaluate", counting_evaluate)
    monkeypatch.setattr(geometry, "eval_metric", counting_metric)
    pot = potential_for_power((2, 1, 1), 1)
    fit = einstein_fit(pot, sample_points(4, 3, seed=11))
    assert fit.lam == pytest.approx(1.0, abs=1e-6)
    assert calls == {"evaluate": 0, "metric": 390}
    steps, rows, _ = pot._plan
    assert 1 + len(steps) <= 90
    assert sum(map(len, rows)) <= 643


def test_ricci_evaluates_each_stencil_point_once(monkeypatch):
    # deterministic work gate: the stencils name 1 + 4n + 8n(n+1) = 177
    # points for n = 4, and 1 + 8n^2 = 129 of them are distinct
    calls = [0]
    real = geometry.eval_metric

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(geometry, "eval_metric", counting)
    pot = potential_for_power((2, 1, 1), 1)
    for xi, eta in sample_points(4, 3, seed=11):
        calls[0] = 0
        ricci_numeric(pot, xi, eta)
        assert calls[0] == 129


def test_einstein_residual_takes_one_metric_per_point_and_no_polynomial(monkeypatch):
    # deterministic work gate: the cross-check takes Phi from the value of
    # P its metric computes, so it evaluates no polynomial, and the plan
    # reads P's integer numerators, so it builds no derivative polynomial
    calls = {"evaluate": 0, "partial_derivative": 0, "metric": 0}

    def counting(owner, name, key):
        real = getattr(owner, name)

        def wrapper(*args):
            calls[key] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, wrapper)

    pot = potential_for_power((2, 1, 1), 1)
    C = einstein_exponent(pot.P).C
    counting(MultiPoly, "evaluate", "evaluate")
    counting(MultiPoly, "partial_derivative", "partial_derivative")
    counting(geometry, "_metric", "metric")
    resid = einstein_residual(pot, 1, C, sample_points(4, 6, seed=5))
    assert resid < 1e-9
    assert calls == {"evaluate": 0, "partial_derivative": 0, "metric": 6}


def random_toric_potential(rng, n, kind):
    """A potential whose metric at the origin is diag(f_i(0)), all nonzero."""
    terms = {e: c for e, c in random_poly(rng, n, 3).terms.items() if sum(e) >= 2}
    for i in range(n):
        linear = tuple(int(j == i) for j in range(n))
        terms[linear] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
    p = MultiPoly(n, terms)
    if kind == "poly":
        return ToricPotential("poly", p)
    eps = rng.choice((1, -1))
    return ToricPotential("log", p + MultiPoly.constant(n, eps),
                          Fraction(rng.randint(1, 6), rng.randint(1, 3)))


def test_metric_matches_the_derivative_polynomial_oracle():
    # exactly at Fraction points, to 1e-12 relative at float points
    rng = random.Random(13)
    pots = [ToricPotential("poly", MultiPoly.zero(3)),
            # x_2 does not occur in P
            ToricPotential("log", MultiPoly.one(3) - x(3, 0) * 2 + x(3, 2) * THIRD
                           + x(3, 0) ** 2 * x(3, 2) ** 3 * HALF, Fraction(3, 2))]
    pots += [random_toric_potential(rng, n, kind)
             for n in range(1, 5) for kind in ("poly", "log") for _ in range(3)]
    for pot in pots:
        n = pot.nvars
        for _ in range(2):
            xi = [Fraction(rng.randint(-9, 9), 97) for _ in range(n)]
            eta = [Fraction(rng.randint(-9, 9), 89) for _ in range(n)]
            assert eval_metric(pot, xi, eta) == derivative_metric(pot, xi, eta)
        for xi, eta in sample_points(n, 2, seed=rng.random()):
            want = derivative_metric(pot, xi, eta)
            got = eval_metric(pot, xi, eta)
            for got_row, want_row in zip(got, want):
                assert got_row == pytest.approx(want_row, rel=1e-12, abs=0)


def test_metric_matches_sympy_second_derivatives():
    # an oracle sharing no code with eval_metric, as derivative_metric
    # shares partial_derivative with its plan: sympy differentiates Phi
    # in the null coordinates, at Fraction points, exactly
    import sympy

    rng = random.Random(16)
    for n in (1, 2, 3):
        xs = sympy.symbols(f"xi1:{n + 1}")
        es = sympy.symbols(f"eta1:{n + 1}")
        for kind in ("poly", "log"):
            for _ in range(3):
                pot = random_toric_potential(rng, n, kind)
                p = sum(sympy.Rational(c.numerator, c.denominator)
                        * sympy.Mul(*((a * b)**e for a, b, e in zip(xs, es, exp)))
                        for exp, c in pot.P.terms.items())
                phi = p if kind == "poly" else (
                    sympy.Rational(pot.k.numerator, pot.k.denominator) * sympy.log(p))
                xi = [Fraction(rng.randint(-9, 9), 97) for _ in range(n)]
                eta = [Fraction(rng.randint(-9, 9), 89) for _ in range(n)]
                at = {s: sympy.Rational(v.numerator, v.denominator)
                      for s, v in zip(xs + es, xi + eta)}
                want = [[sympy.diff(phi, xs[i], es[j]).subs(at) for j in range(n)]
                        for i in range(n)]
                got = eval_metric(pot, xi, eta)
                assert [[sympy.Rational(v.numerator, v.denominator) for v in row]
                        for row in got] == want, (pot, xi, eta)


def plan_rows(pot) -> list:
    """The plan's rows as (exponent, Fraction) pairs, read back along its chain.

    Each step of the monomial chain must take an exponent from the one with
    its last nonzero entry set to 0.
    """
    steps, rows, coeffs = pot._plan
    exps = [(0,) * pot.nvars]
    for m, l, d in steps:
        assert d > 0 and not any(exps[m][l:])
        exps.append(exps[m][:l] + (d,) + exps[m][l + 1:])
    den = pot.P.integer_terms[0]
    return [[(exps[m], Fraction(c, den)) for m, c in zip(idx, row)]
            for idx, row in zip(rows, coeffs)]


def assert_plan_is_the_derivative_plan(pot, points):
    # the rows of the derivative polynomials, term for term and in order;
    # each float coefficient is float() of the Fraction, bit for bit, and
    # so is every metric entry at float points, against a twin potential
    # that carries the Fraction route's floats
    want = derivative_rows(pot)
    assert plan_rows(pot) == want
    floats = [[float(c) for _, c in row] for row in want]
    assert pot._float_coeffs == floats
    twin = ToricPotential(pot.kind, pot.P, pot.k)
    twin.__dict__.update(_plan=pot._plan, _float_coeffs=floats)
    for xi, eta in points:
        assert eval_metric(pot, xi, eta) == eval_metric(twin, xi, eta)


def test_integer_plan_matches_the_derivative_polynomials_on_the_catalog():
    for K in (1, 2):
        for n in range(1, 5):
            for part in partitions(n):
                pot = potential_for_power(part, K)
                assert_plan_is_the_derivative_plan(pot, sample_points(n, 3, seed=K))


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(min_value=1, max_value=4),
       st.sampled_from(("poly", "log")), st.booleans())
def test_integer_plan_matches_the_derivative_polynomials_on_drawn_potentials(
        rng, n, kind, rescale):
    # rescaled variables give coefficients with large numerators and
    # denominators, whose floats are rounded
    pot = random_toric_potential(rng, n, kind)
    if rescale:
        factors = [Fraction(rng.randint(1, 10**12), rng.randint(1, 10**9)) for _ in range(n)]
        pot = ToricPotential(pot.kind, pot.P.scale_vars(factors), pot.k)
    assert_plan_is_the_derivative_plan(pot, sample_points(n, 2, seed=rng.random(), radius=1e-3))


def test_a_coefficient_beyond_the_float_range_ends_in_cross_check_error(tmp_path, capsys):
    # 10**400*x1 is beyond the float range in P itself, and
    # (1 + 10**154*x1)**2 only in P_1, as 2*10**308; each float coefficient
    # fails as float() of its Fraction did, and the verdict stands
    import json

    from toricpke.cli import EXIT_OK, main

    t = x(1, 0)
    for p in (MultiPoly.one(1) + t * 10**400, (MultiPoly.one(1) + t * 10**154) ** 2):
        pot = ToricPotential("log", p, 1)
        with pytest.raises(OverflowError) as want:
            [float(c) for row in derivative_rows(pot) for _, c in row]
        with pytest.raises(OverflowError, match=str(want.value)):
            pot._float_coeffs
        path = tmp_path / "big.json"
        path.write_text(json.dumps(pot.to_json_dict()), encoding="utf-8")
        assert main(["einstein-check", "--potential", str(path), "--json"]) == EXIT_OK
        verdict = json.loads(capsys.readouterr().out)["verdict"]
        assert verdict["einstein"] and verdict["max_residual"] is None
        assert verdict["cross_check_error"] == f"value beyond float range: {want.value}"


def test_det_g_depends_on_x_alone():
    # g(xi, eta) is conjugate to g(xi*eta, 1) by diag(eta), the identity
    # ricci_numeric rests on; checked exactly with sympy's determinant
    import sympy

    rng = random.Random(12)
    for n in (1, 2, 3):
        for kind in ("poly", "log"):
            for _ in range(4):
                pot = random_toric_potential(rng, n, kind)
                xi = [Fraction(rng.randint(-9, 9), 20) for _ in range(n)]
                eta = [Fraction(rng.randint(-9, 9), 20) for _ in range(n)]
                x_ = [a * b for a, b in zip(xi, eta)]
                try:
                    g = eval_metric(pot, xi, eta)
                except DomainError:
                    continue
                g1 = eval_metric(pot, x_, [Fraction(1)] * n)
                assert sympy.Matrix(g).det() == sympy.Matrix(g1).det(), (pot, xi, eta)


def sympy_ricci(pot, xi, eta, exact=False):
    """-d^2 log|det g| / (d xi_i d eta_j) in the null coordinates, as floats.

    Computed exactly, and returned as sympy Rationals when exact is set.
    det g is det(d^2 P/d xi d eta) for kind "poly", and
    k^n*det(P*d^2 P/d xi d eta - grad_xi P*grad_eta P^T)/P^(2n) for kind
    "log", so log|det g| is a sum of multiples of log|det N| for matrices N
    of sympy polynomials (P itself as a 1x1 matrix).  Differentiating
    Jacobi's formula, d_a d_b log|det N| = tr(N^-1*N_ab) -
    tr(N^-1*N_a*N^-1*N_b), taken at the point from the exact values of the
    entries and of their derivatives.
    """
    import sympy

    n = pot.nvars
    xs = sympy.symbols(f"xi1:{n + 1}")
    es = sympy.symbols(f"eta1:{n + 1}")
    gens = xs + es
    p = sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*((a * b) ** e for a, b, e in zip(xs, es, exp)))
                       for exp, c in pot.P.terms.items()), *gens)
    mixed = [[p.diff(xs[i]).diff(es[j]) for j in range(n)] for i in range(n)]
    if pot.kind == "poly":
        logs = [(1, mixed)]
    else:
        grad_xi = [p.diff(v) for v in xs]
        grad_eta = [p.diff(v) for v in es]
        m = [[p * mixed[i][j] - grad_xi[i] * grad_eta[j] for j in range(n)]
             for i in range(n)]
        logs = [(1, m), (-2 * n, [[p]])]
    at = [sympy.Rational(v) for v in list(xi) + list(eta)]

    def values(rows, *wrt):
        return sympy.Matrix([[entry.diff(*wrt)(*at) if wrt else entry(*at)
                              for entry in row] for row in rows])

    ric = [[0] * n for _ in range(n)]
    for c, rows in logs:
        inv = values(rows).inv()
        d_xi = [inv * values(rows, v) for v in xs]
        d_eta = [inv * values(rows, v) for v in es]
        for i in range(n):
            for j in range(n):
                second = (inv * values(rows, xs[i], es[j])).trace()
                ric[i][j] -= c * (second - (d_xi[i] * d_eta[j]).trace())
    if exact:
        return ric
    return [[float(v) for v in row] for row in ric]


def test_ricci_numeric_matches_sympy():
    rng = random.Random(13)
    for n in (1, 2):
        for kind in ("poly", "log"):
            for _ in range(4):
                pot = random_toric_potential(rng, n, kind)
                for xi, eta in sample_points(n, 3, seed=rng.randrange(1000)):
                    ric = ricci_numeric(pot, xi, eta)
                    exact = sympy_ricci(pot, xi, eta)
                    for i in range(n):
                        for j in range(n):
                            assert ric[i][j] == pytest.approx(exact[i][j], abs=1e-7), (
                                pot, xi, eta)


def test_float_checks_reject_values_beyond_the_float_range():
    # 10**307*x1**3 overflows to inf inside the float arithmetic, and
    # 10**400 does not convert to a float at all; neither may read as a fit
    t = x(1, 0)
    points = sample_points(1, 5, seed=1)
    for p in (MultiPoly.one(1) + t + t**3 * 10**307, MultiPoly.one(1) + t * 10**400):
        pot = ToricPotential("log", p, 1)
        with pytest.raises(DomainError, match="float range"):
            einstein_fit(pot, points)
        with pytest.raises(DomainError, match="float range"):
            einstein_residual(pot, 2, 1, points)


def test_einstein_check_refutes_a_perturbed_potential(tmp_path, capsys):
    # a quadratic term x1*x3/7 added to the K = 1 potential of (2,1); the
    # exact Ricci tensor at a rational point is not a multiple of g there
    import json

    from toricpke.cli import EXIT_REFUTED, main

    pot = potential_for_power((2, 1), 1)
    bumped = ToricPotential("log", pot.P + x(3, 0) * x(3, 2) * Fraction(1, 7), pot.k)
    assert einstein_exponent(pot.P).e is not None
    assert einstein_exponent(bumped.P).e is None
    path = tmp_path / "bumped.json"
    path.write_text(json.dumps(bumped.to_json_dict()), encoding="utf-8")
    assert main(["einstein-check", "--potential", str(path)]) == EXIT_REFUTED
    assert "refuted" in capsys.readouterr().out
    xi = [Fraction(1, 10), Fraction(-1, 20), Fraction(1, 30)]
    eta = [Fraction(1, 11), Fraction(1, 13), Fraction(-1, 17)]
    ric = sympy_ricci(bumped, xi, eta, exact=True)
    g = eval_metric(bumped, xi, eta)
    # Ric = lambda*g would make every 2x2 cross product Ric_a*g_b - Ric_b*g_a zero
    entries = [(i, j) for i in range(3) for j in range(3)]
    assert any(ric[i][j] * g[k][l] != ric[k][l] * g[i][j]
               for i, j in entries for k, l in entries)
    # the unperturbed potential has Ric = 1*g at the same point
    ric = sympy_ricci(pot, xi, eta, exact=True)
    g = eval_metric(pot, xi, eta)
    assert all(ric[i][j] == g[i][j] for i, j in entries)


def test_exact_lambda_is_h_over_k_and_matches_the_numeric_fit():
    # every catalog potential with n <= 4 and K <= 3: einstein_exponent
    # gives lambda = (n+1-e)/k = h/K exactly; for K <= 2 the numeric fit,
    # an oracle that shares no code with it, agrees within 1e-6
    for K in (1, 2, 3):
        for n in range(1, 5):
            for part in partitions(n):
                pot = potential_for_power(part, K)
                found = einstein_exponent(pot.P)
                h = math.gcd(*(m + 1 for m in part))
                lam = (n + 1 - found.e) / pot.k
                assert lam == Fraction(h, K), (part, K)
                if K <= 2:
                    fit = einstein_fit(pot, sample_points(n, 3, seed=K))
                    assert fit.lam == pytest.approx(float(lam), abs=1e-6), (part, K)
                    assert fit.max_residual < 1e-6, (part, K)


@pytest.mark.parametrize("step", [1e-4, 0.05])
def test_einstein_fit_confirms_space_forms_across_the_step_range(monkeypatch, step):
    # the fit must not hinge on the exact value of RICCI_STEP: the stencil
    # once stepped in xi, over 1e-4..0.05; at the default sampling of
    # einstein-check (|eta_i| <= 0.08) a xi-step h moves x_i by up to
    # 0.08*h, and the x-stencil at each end of that reach still confirms
    # the space forms within the default tol
    monkeypatch.setattr(geometry, "RICCI_STEP", 0.08 * step)
    for n in (1, 2):
        fit = einstein_fit(space_form_potential(8, n), sample_points(n, 5, seed=0))
        assert fit.max_residual < 1e-6
        assert fit.lam == pytest.approx(n + 1, abs=1e-6)


def test_ricci_step_calibration():
    # at RICCI_STEP and the default sampling of einstein-check (5 points,
    # seed 0) the fit recovers the exact lambda, n + 1 on the projective
    # models and gcd(n_i + 1) on the K = 1 catalog potentials
    cases = [(space_form_potential(8, n), n + 1) for n in (1, 2, 3)]
    cases += [(potential_for_power(part, 1), math.gcd(*(m + 1 for m in part)))
              for n in range(1, 5) for part in partitions(n)]
    for pot, lam in cases:
        fit = einstein_fit(pot, sample_points(pot.nvars, 5, seed=0))
        assert fit.max_residual < 2e-7, pot
        assert fit.lam == pytest.approx(lam, abs=1e-6), pot


def test_flat_model_is_ricci_flat():
    pot = space_form_potential(0, 1)
    for xi, eta in sample_points(1, 20, seed=2):
        ric = ricci_numeric(pot, xi, eta)
        assert abs(ric[0][0]) < 1e-8


def test_projective_model_lambda_equals_two_over_k():
    for bigk in (1, 2, 3):
        pot = ToricPotential(
            "log", MultiPoly.one(1) + x(1, 0) * 2, Fraction(bigk)
        )
        fit = einstein_fit(pot, sample_points(1, 5, seed=4))
        assert fit.max_residual < 1e-6
        assert fit.lam == pytest.approx(2 / bigk, abs=1e-6)


def test_two_variable_cubic_solution_has_unit_lambda():
    p = MultiPoly.one(2) + x(2, 0) * THIRD + x(2, 1) * THIRD
    pot = ToricPotential("log", p, Fraction(3))
    fit = einstein_fit(pot, sample_points(2, 5, seed=5))
    assert fit.max_residual < 1e-6
    assert fit.lam == pytest.approx(1.0, abs=1e-6)


def test_flat_fit_is_zero():
    fit = einstein_fit(space_form_potential(0, 2), sample_points(2, 5, seed=6))
    assert fit.lam == pytest.approx(0.0, abs=1e-8)
    assert fit.max_residual < 1e-8


def test_non_einstein_shape_has_visible_residual():
    # log(1 + x + x^2) is not of the classified form; its fit residual
    # stays bounded away from zero (regression floor frozen at 1e-3)
    pot = ToricPotential(
        "log", MultiPoly.one(1) + x(1, 0) + x(1, 0) ** 2, Fraction(1)
    )
    fit = einstein_fit(pot, sample_points(1, 5, seed=7))
    assert fit.max_residual > 1e-3


# ---------------------------------------------------------------------------
# diastasis


def test_diastasis_vanishes_on_degenerate_slices():
    pot = space_form_potential(8, 2)
    xi, eta = [0.03, -0.02], [0.01, 0.05]
    zeta, lam = [0.02, 0.04], [-0.03, 0.01]
    assert diastasis_eval(pot, xi, eta, xi, lam) == pytest.approx(0.0, abs=1e-14)
    assert diastasis_eval(pot, xi, eta, zeta, eta) == pytest.approx(0.0, abs=1e-14)


def test_diastasis_base_point_identity():
    pot = space_form_potential(8, 2)
    rng = random.Random(8)
    for _ in range(20):
        xi = [rng.uniform(-0.05, 0.05) for _ in range(2)]
        eta = [rng.uniform(-0.05, 0.05) for _ in range(2)]
        zero = [0.0, 0.0]
        d = diastasis_eval(pot, xi, eta, zero, zero)
        assert d == pytest.approx(pot.phi(xi, eta) - pot.phi(zero, zero), abs=1e-10)


def test_diastasis_ignores_separable_gauge_terms():
    # adding f(xi) + g(eta) to the potential must not change the diastasis;
    # emulate it by comparing the four-point combination of phi and phi + sep
    pot = space_form_potential(8, 1)
    rng = random.Random(10)
    for _ in range(20):
        a, b, c, d = (rng.uniform(-2, 2) for _ in range(4))

        def gauged(xi, eta):
            sep = a * xi[0] + b * xi[0] ** 2 + c * eta[0] + d * eta[0] ** 3
            return pot.phi(xi, eta) + sep

        args = [[rng.uniform(-0.05, 0.05)] for _ in range(4)]
        from toricpke.geometry import four_point_combination

        base = four_point_combination(pot.phi, *args)
        assert four_point_combination(gauged, *args) == pytest.approx(
            base, abs=1e-12
        )


# ---------------------------------------------------------------------------
# space-form models


def test_flat_space_form():
    pot = space_form_potential(0, 2)
    assert pot.kind == "poly"
    assert pot.P == (x(2, 0) + x(2, 1)) * 4


def test_projective_space_form_unit_curvature():
    pot = space_form_potential(8, 1)
    assert pot.kind == "log"
    assert pot.P == MultiPoly.one(1) + x(1, 0) * 2
    assert pot.k == 1


def test_projective_space_form_scaled_curvature():
    pot = space_form_potential(4, 1)
    assert pot.k == 2


def test_potential_json_roundtrip():
    pot = space_form_potential(4, 2)
    doc = pot.to_json_dict()
    assert doc["kind"] == "log"
    assert ToricPotential.from_json_dict(doc) == pot


def test_potential_is_an_immutable_value_that_plans_once(monkeypatch):
    p = MultiPoly.one(2) + x(2, 0) * 2 + x(2, 1)
    pot = ToricPotential("log", p, 2)
    assert type(pot.k) is Fraction and pot.k == 2
    assert type(ToricPotential("poly", p).k) is Fraction
    same = ToricPotential(kind="log", P=MultiPoly.one(2) + x(2, 1) + x(2, 0) * 2,
                          k=Fraction(2))
    assert same == pot and hash(same) == hash(pot) and len({pot, same}) == 1
    assert pot != ToricPotential("log", p, 3) and pot != ToricPotential("poly", p, 2)
    assert pot != ("log", p, Fraction(2))
    for name in ("kind", "P", "k", "other"):
        with pytest.raises(AttributeError):
            setattr(pot, name, 1)
    with pytest.raises(AttributeError):
        del pot.k
    assert pot.k == 2
    # the plan, and its floats, are built once per instance, whatever the
    # number of points
    builds = []
    for name in ("_plan", "_float_coeffs"):
        build = getattr(ToricPotential, name).func
        counting = functools.cached_property(
            lambda self, build=build, name=name: builds.append(name) or build(self))
        counting.__set_name__(ToricPotential, name)
        monkeypatch.setattr(ToricPotential, name, counting)
    eval_metric(pot, [THIRD, HALF], [1, 1])
    assert builds == ["_plan"]
    eval_metric(pot, [0.1, 0.2], [1.0, 1.0])
    eval_metric(pot, [HALF, THIRD], [1, 1])
    eval_metric(pot, [0.2, 0.1], [1.0, 1.0])
    assert builds == ["_plan", "_float_coeffs"]
    eval_metric(same, [THIRD, HALF], [1, 1])
    assert builds == ["_plan", "_float_coeffs", "_plan"]

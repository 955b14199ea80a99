"""Command-line surface: exit codes, determinism, JSON round trips."""

import argparse
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import toricpke
from conftest import count_term_pairs
from toricpke.algebra import MAX_COEFF_DIGITS, MAX_SYMBOLIC_PAIRS, MultiPoly
from toricpke.catalog import product_solution
from toricpke.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_REFUTED,
    EXIT_USAGE,
    MAX_CATALOG_K,
    MAX_CATALOG_N,
    MAX_CATALOG_TERMS,
    MAX_EINSTEIN_NVARS,
    MAX_EINSTEIN_TERMS,
    MAX_NVARS,
    MAX_ORDER,
    MAX_POINTS,
    MAX_R_DIGITS,
    build_parser,
    main,
)
from toricpke import geometry
from toricpke.geometry import DomainError, ToricPotential, space_form_potential
from toricpke.ma_engine import ma_lhs_log

HALF = Fraction(1, 2)


def solution_n1():
    return (MultiPoly.one(1) + MultiPoly.variable(1, 0) * HALF) ** 2


def write_poly(tmp_path, p, name="poly.json"):
    path = tmp_path / name
    path.write_text(json.dumps(p.to_json_dict()), encoding="utf-8")
    return str(path)


def write_potential(tmp_path, pot, name="pot.json"):
    path = tmp_path / name
    path.write_text(json.dumps(pot.to_json_dict()), encoding="utf-8")
    return str(path)


def test_verify_solution_exits_zero(tmp_path, capsys):
    path = write_poly(tmp_path, solution_n1())
    assert main(["verify", "--n", "1", "--poly", path]) == EXIT_OK
    assert "sign +" in capsys.readouterr().out


def test_verify_perturbed_solution_exits_one(tmp_path, capsys):
    p = solution_n1() + MultiPoly.variable(1, 0) * Fraction(1, 100)
    path = write_poly(tmp_path, p)
    assert main(["verify", "--poly", path]) == EXIT_REFUTED
    assert "not a solution" in capsys.readouterr().out


def test_verify_mismatched_nvars_is_usage_error(tmp_path, capsys):
    path = write_poly(tmp_path, solution_n1())
    assert main(["verify", "--n", "2", "--poly", path]) == EXIT_USAGE


def test_malformed_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["verify", "--poly", str(path)]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_missing_file_is_usage_error(capsys):
    assert main(["verify", "--poly", "/nonexistent.json"]) == EXIT_USAGE


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_classify_flat_accept_and_reject(tmp_path, capsys):
    good = MultiPoly.variable(2, 0) * 2 + MultiPoly.variable(2, 1) * HALF
    bad = MultiPoly.variable(2, 0) + MultiPoly.variable(2, 1) * 2
    assert main(["classify-flat", "--poly", write_poly(tmp_path, good)]) == EXIT_OK
    assert (
        main(["classify-flat", "--poly", write_poly(tmp_path, bad, "b.json")])
        == EXIT_REFUTED
    )


@pytest.mark.parametrize("part", [(4,), (6,)])
def test_classify_flat_refutes_a_catalog_product_at_once(tmp_path, capsys, part):
    # the linear coefficients multiply to 1, and the point test refutes;
    # the Bareiss determinant of (4,) took 10 s
    path = write_poly(tmp_path, product_solution(part))
    start = time.perf_counter()
    assert main(["classify-flat", "--poly", path]) == EXIT_REFUTED
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == "not a flat solution\n"


def test_classify_flat_with_a_zero_linear_coefficient_exits_one(tmp_path, capsys):
    # the flat-type left side is 0 at the origin: refuted, not degenerate
    x1, x2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    path = write_poly(tmp_path, x1 + x1 * x2 + x2 * x2)
    assert main(["classify-flat", "--poly", path]) == EXIT_REFUTED


def test_axis_check(tmp_path, capsys):
    p = (
        MultiPoly.one(2)
        + MultiPoly.variable(2, 0) * Fraction(1, 3)
        + MultiPoly.variable(2, 1) * Fraction(1, 3)
    ) ** 3
    path = write_poly(tmp_path, p)
    assert main(["axis", "--poly", path, "--axis", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "r=3" in out and "k=3" in out


def test_axis_on_a_sparse_high_degree_input_does_bounded_work(tmp_path, capsys):
    # 1 + x1 + x1^2000 has 3 terms where a binomial power of degree 2000
    # has 2001; building the power first took tens of seconds
    path = write_poly(tmp_path, MultiPoly(1, {(0,): 1, (1,): 1, (2000,): 1}))
    start = time.perf_counter()
    assert main(["axis", "--poly", path]) == EXIT_REFUTED
    assert time.perf_counter() - start < 1.0
    assert "3 terms, not 2001" in capsys.readouterr().out


@pytest.mark.parametrize("nvars", [MAX_NVARS + 1, 600])
@pytest.mark.parametrize("command", ["verify", "classify-flat", "axis", "report"])
def test_polynomial_beyond_max_nvars_is_usage_error(tmp_path, capsys, monkeypatch, command,
                                                     nvars):
    # the work of classify-flat grows with nvars even with no terms; the
    # limit refuses it before any kernel call
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"nvars": nvars, "terms": []}), encoding="utf-8")
    pairs = count_term_pairs(monkeypatch)
    start = time.perf_counter()
    assert main([command, "--poly", str(path)]) == EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    assert pairs == [0]
    assert f"exceeds MAX_NVARS = {MAX_NVARS}" in capsys.readouterr().err


def test_polynomial_at_max_nvars_is_read(tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"nvars": MAX_NVARS, "terms": []}), encoding="utf-8")
    assert main(["classify-flat", "--poly", str(path)]) == EXIT_REFUTED
    assert main(["report", "--poly", str(path)]) == EXIT_OK


def test_continue_reconstructs(tmp_path, capsys):
    assert main(["continue", "--k", "3", "--r", "3"]) == EXIT_OK
    assert main(["continue", "--k", "1", "--r", "2"]) == EXIT_REFUTED


def test_scan_k(capsys):
    assert main(["scan-k", "--k-max", "4", "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"]["feasible_k"] == [2, 3]
    assert doc["inputs"] == {"k_max": 4}


def test_classify_n1_json_roundtrip(capsys):
    assert main(
        ["classify-n1", "--grid", "1,-1,2,-2,1/2", "--json"]
    ) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    sols = [MultiPoly.from_json_dict(d) for d in doc["verdict"]["solutions"]]
    assert len(sols) == 4
    assert all(p.degree() == 2 for p in sols)


def test_catalog_gen_partition(capsys):
    assert main(
        ["catalog", "gen", "--partition", "1,2", "--K", "1", "--json"]
    ) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    records = doc["verdict"]["records"]
    assert len(records) == 1
    p = MultiPoly.from_json_dict(records[0]["P"])
    assert p == product_solution([1, 2])


def test_catalog_gen_requires_partition(capsys):
    assert main(["catalog", "gen"]) == EXIT_USAGE


def test_einstein_check_accepts_model(tmp_path, capsys):
    path = write_potential(tmp_path, space_form_potential(8, 1))
    assert main(["einstein-check", "--potential", path]) == EXIT_OK
    assert "lambda" in capsys.readouterr().out


def test_einstein_check_flags_large_residual(tmp_path, capsys):
    bad = space_form_potential(8, 1)
    from toricpke.geometry import ToricPotential

    q = (
        MultiPoly.one(1)
        + MultiPoly.variable(1, 0)
        + MultiPoly.variable(1, 0) ** 2
    )
    path = write_potential(tmp_path, ToricPotential("log", q, 1))
    assert main(["einstein-check", "--potential", path]) == EXIT_REFUTED


def test_einstein_check_domain_error(tmp_path, capsys):
    # for D0 = x^2 the metric determinant is 4*x, which is 0 at the origin
    from toricpke.geometry import ToricPotential

    pot = ToricPotential("poly", MultiPoly.variable(1, 0) ** 2)
    path = write_potential(tmp_path, pot)
    assert main(["einstein-check", "--potential", path]) == EXIT_DOMAIN
    assert "metric degenerate at the origin" in capsys.readouterr().err


def test_report_echo_roundtrip(tmp_path, capsys):
    p = product_solution([1, 1])
    path = write_poly(tmp_path, p)
    assert main(["report", "--poly", path, "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert MultiPoly.from_json_dict(doc["verdict"]["poly"]) == p


def test_reports_are_byte_identical(tmp_path, capsys):
    path = write_poly(tmp_path, solution_n1())
    main(["verify", "--poly", path, "--json"])
    first = capsys.readouterr().out
    main(["verify", "--poly", path, "--json"])
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["timings"] == {}
    # a solution has no certificate, and the witness is opt-in
    assert doc["verdict"]["refuted_at"] is None
    assert "witness" not in doc["verdict"]
    main(["verify", "--poly", path, "--json", "--witness"])
    doc = json.loads(capsys.readouterr().out)
    assert MultiPoly.from_json_dict(doc["verdict"]["witness"]) is not None


def perturbed_product(part):
    p = product_solution(part)
    return p + MultiPoly(p.nvars, {(1,) * p.nvars: Fraction(1, 7)})


def test_verify_refutation_report_rechecks_exactly(tmp_path, capsys):
    # refuted_at holds the residues of L(pt) and P(pt)^n modulo the
    # prime; evaluating the symbolic left side at the point, exactly,
    # and reducing it gives them back
    p = perturbed_product((2, 1))
    path = write_poly(tmp_path, p)
    assert main(["verify", "--poly", path, "--json"]) == EXIT_REFUTED
    verdict = json.loads(capsys.readouterr().out)["verdict"]
    assert set(verdict) == {"is_solution", "sign", "refuted_at"}
    cert = verdict["refuted_at"]
    assert cert["point"] == ["1/3", "1/5", "1/7"]
    assert cert["modulus"] == str(2**61 - 1)
    q = int(cert["modulus"])
    point = [Fraction(v) for v in cert["point"]]

    def residue(v):
        return v.numerator * pow(v.denominator, -1, q) % q

    lhs, rhs = int(cert["lhs"]), int(cert["rhs"])
    assert lhs == residue(ma_lhs_log(p).evaluate(point))
    assert rhs == residue(p.evaluate(point) ** 3)
    assert lhs not in (rhs, q - rhs)


def test_verify_witness_is_the_whole_left_side(tmp_path, capsys):
    for p, code in ((perturbed_product((1, 1)), EXIT_REFUTED),
                    (perturbed_product((2, 1)), EXIT_REFUTED),
                    (product_solution((2, 1)), EXIT_OK)):
        path = write_poly(tmp_path, p)
        assert main(["verify", "--poly", path, "--json", "--witness"]) == code
        verdict = json.loads(capsys.readouterr().out)["verdict"]
        assert MultiPoly.from_json_dict(verdict["witness"]) == ma_lhs_log(p)
        assert (verdict["refuted_at"] is None) == (code == EXIT_OK)
        assert main(["verify", "--poly", path, "--json"]) == code
        plain = json.loads(capsys.readouterr().out)["verdict"]
        assert plain == {k: v for k, v in verdict.items() if k != "witness"}


def test_verify_constant_term_not_unit_is_usage_error(tmp_path, capsys):
    p = MultiPoly.constant(1, 2) + MultiPoly.variable(1, 0)
    path = write_poly(tmp_path, p)
    assert main(["verify", "--poly", path]) == EXIT_USAGE
    assert "constant term" in capsys.readouterr().err


def test_verify_zero_denominator_is_usage_error(tmp_path, capsys):
    path = tmp_path / "zero_den.json"
    path.write_text(
        '{"nvars": 1, "terms": [{"exp": [0], "num": "1", "den": "0"}]}',
        encoding="utf-8",
    )
    assert main(["verify", "--poly", str(path)]) == EXIT_USAGE
    assert "malformed polynomial" in capsys.readouterr().err


def test_verify_accepts_every_catalog_record_up_to_n6(tmp_path, capsys):
    # (5,) and (6,) are one block each, a linear form checked in one
    # variable; the whole bordered determinant of (5,) ran past 300 s
    from toricpke.catalog import standard_catalog

    records = standard_catalog(MAX_CATALOG_N)
    assert len(records) == 29
    for record in records:
        path = write_poly(tmp_path, record.P)
        start = time.perf_counter()
        assert main(["verify", "--poly", path]) == EXIT_OK, record.name
        assert time.perf_counter() - start < 1.0, record.name
        assert "solution (sign " in capsys.readouterr().out


def point_vanishing_input():
    """(1 + x1 - 12*x1^2)*Q, Q a dense cubic in x2..x6: 168 terms.

    The first factor vanishes at x1 = 1/3, the test point's first
    coordinate, and with it P and L there, so the point test cannot
    decide; every linear coefficient is 1, so the sign is 1, and the one
    block is not a linear form.
    """
    q = MultiPoly(5, {e: Fraction(1, max(1, sum(e))) for e in _exponents(5, 3)})
    x1 = MultiPoly.variable(6, 0)
    return (MultiPoly.one(6) + x1 - 12 * x1 * x1) * q.embed(6, range(1, 6))


def test_verify_on_an_input_vanishing_at_the_point_does_bounded_work(tmp_path, capsys,
                                                                     monkeypatch):
    # the symbolic left side of the one block of 6 variables exceeds the
    # limit; the whole bordered determinant ran past 90 s
    p = point_vanishing_input()
    assert len(p.terms) == 168
    assert p.evaluate([Fraction(1, 2 * i + 3) for i in range(6)]) == 0
    path = write_poly(tmp_path, p)
    pairs = count_term_pairs(monkeypatch)
    start = time.perf_counter()
    assert main(["verify", "--poly", path]) == EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    # the kernel's term pairs bound the work whatever the machine's load:
    # those of the metered calls before the one that would pass the limit
    assert pairs == [1_196_187]
    assert f"exceeding MAX_SYMBOLIC_PAIRS = {MAX_SYMBOLIC_PAIRS}" in capsys.readouterr().err


def test_refuted_witness_of_a_large_block_does_bounded_work(tmp_path, capsys, monkeypatch):
    # one more x2 makes the sign 2, so verify refutes with no determinant;
    # the witness needs the symbolic left side of the one 6-variable
    # block, which passes MAX_SYMBOLIC_PAIRS metered kernel term pairs (it
    # ran past 8 s unbounded)
    p = point_vanishing_input() + MultiPoly.variable(6, 1)
    path = write_poly(tmp_path, p)
    assert main(["verify", "--poly", path]) == EXIT_REFUTED
    capsys.readouterr()
    pairs = count_term_pairs(monkeypatch)
    start = time.perf_counter()
    assert main(["verify", "--poly", path, "--witness"]) == EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    assert pairs == [1_136_481]
    assert f"exceeding MAX_SYMBOLIC_PAIRS = {MAX_SYMBOLIC_PAIRS}" in capsys.readouterr().err


def test_accepted_witness_of_a_large_solution_does_bounded_work(tmp_path, capsys, monkeypatch):
    # verify accepts the (5,) catalog solution by its block's binomial
    # profile, with no term pair; its witness sign*P^5 passes
    # MAX_SYMBOLIC_PAIRS metered kernel term pairs (unbounded, it took
    # about 36 s and 25 MB of JSON)
    path = write_poly(tmp_path, product_solution((5,)))
    assert main(["verify", "--poly", path]) == EXIT_OK
    capsys.readouterr()
    pairs = count_term_pairs(monkeypatch)
    start = time.perf_counter()
    assert main(["verify", "--poly", path, "--witness"]) == EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    assert pairs == [213_906]
    assert f"exceeding MAX_SYMBOLIC_PAIRS = {MAX_SYMBOLIC_PAIRS}" in capsys.readouterr().err


def test_verify_large_exponent_is_refuted(tmp_path, capsys):
    # P**4 reaches exponent 80000 in every variable
    m = MultiPoly.one(4)
    for i in range(4):
        m = m * MultiPoly.variable(4, i)
    path = write_poly(tmp_path, MultiPoly.one(4) + m ** 20000)
    assert main(["verify", "--poly", path]) == EXIT_REFUTED
    assert "not a solution" in capsys.readouterr().out


def test_verify_json_with_coefficients_beyond_str_limit(tmp_path, capsys):
    # the witness has coefficients of about 6000 digits, more than the
    # 4300 that int <-> str converts by default
    c = 10**2000 + 7
    x1, x2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    p = MultiPoly.one(2) + (x1 + x2 + x1 * x2) * c
    path = write_poly(tmp_path, p)
    assert main(["verify", "--poly", path, "--json", "--witness"]) == EXIT_REFUTED
    doc = json.loads(capsys.readouterr().out)
    assert MultiPoly.from_json_dict(doc["inputs"]["poly"]) == p
    witness = MultiPoly.from_json_dict(doc["verdict"]["witness"])
    assert max(len(t["num"]) for t in doc["verdict"]["witness"]["terms"]) > 4300
    assert witness == ma_lhs_log(p)


def test_flat_and_axis_reports_beyond_str_limit(tmp_path, capsys):
    c = 10**5000 + 3
    digits = "1" + "0" * 4999 + "3"
    x1, x2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    flat = write_poly(tmp_path, x1 * c + x2 * Fraction(1, c))
    assert main(["classify-flat", "--poly", flat, "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"]["coeffs"] == [digits, "1/" + digits]
    t = MultiPoly.variable(1, 0)
    axis = write_poly(tmp_path, (MultiPoly.one(1) + t * Fraction(1, c)) ** 2, "a.json")
    assert main(["axis", "--poly", axis]) == EXIT_OK
    assert f"r={digits} k=2" in capsys.readouterr().out


def test_coefficient_beyond_digit_cap_is_usage_error(tmp_path, capsys):
    digits = "1" * (MAX_COEFF_DIGITS + 1)
    path = tmp_path / "long.json"
    path.write_text(
        '{"nvars": 1, "terms": [{"exp": [0], "num": "1", "den": "1"}, '
        '{"exp": [1], "num": "%s", "den": "1"}]}' % digits,
        encoding="utf-8",
    )
    assert main(["verify", "--poly", str(path)]) == EXIT_USAGE
    assert "malformed polynomial" in capsys.readouterr().err


def one_plus_x1_doc():
    return {"nvars": 1, "terms": [{"exp": [0], "num": "1", "den": "1"},
                                  {"exp": [1], "num": "1", "den": "1"}]}


def assert_json_poly_is_usage_error(tmp_path, capsys, doc):
    """report and verify both reject doc as malformed, never truncating it."""
    path = tmp_path / "truncated.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("report", "verify"):
        assert main([command, "--poly", str(path)]) == EXIT_USAGE
        assert "malformed polynomial" in capsys.readouterr().err


def test_fractional_exponent_is_usage_error(tmp_path, capsys):
    doc = one_plus_x1_doc()
    doc["terms"][1]["exp"] = [1.9]
    assert_json_poly_is_usage_error(tmp_path, capsys, doc)


def test_repeated_exponent_is_usage_error(tmp_path, capsys):
    # read as a sum this is 1 + x1 + x1^2/2, which is not a solution; a
    # later term overwriting the earlier one gave the solution (1 + x1/2)^2
    doc = one_plus_x1_doc()
    doc["terms"] += [{"exp": [2], "num": "1", "den": "4"},
                     {"exp": [2], "num": "1", "den": "4"}]
    assert_json_poly_is_usage_error(tmp_path, capsys, doc)


def test_exponent_that_is_not_a_list_is_usage_error(tmp_path, capsys):
    # a string would be read digit by digit: "10" as (1, 0)
    doc = {"nvars": 2, "terms": [{"exp": [0, 0], "num": "1", "den": "1"},
                                 {"exp": "10", "num": "1", "den": "1"}]}
    assert_json_poly_is_usage_error(tmp_path, capsys, doc)


def test_fractional_numerator_is_usage_error(tmp_path, capsys):
    doc = one_plus_x1_doc()
    doc["terms"][1]["num"] = 1.5
    assert_json_poly_is_usage_error(tmp_path, capsys, doc)


def test_boolean_exponent_is_usage_error(tmp_path, capsys):
    doc = one_plus_x1_doc()
    doc["terms"][1]["exp"] = [True]
    assert_json_poly_is_usage_error(tmp_path, capsys, doc)


def test_fractional_nvars_is_usage_error(tmp_path, capsys):
    doc = {"nvars": 2.7, "terms": [{"exp": [0, 0], "num": "1", "den": "1"}]}
    assert_json_poly_is_usage_error(tmp_path, capsys, doc)


def test_json_integers_and_decimal_strings_both_parse(tmp_path, capsys):
    doc = {"nvars": 1, "terms": [{"exp": [0], "num": 1, "den": 1},
                                 {"exp": ["2"], "num": "-3", "den": " 4 "}]}
    path = tmp_path / "ints.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["report", "--poly", str(path)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "1 - 3/4*x1^2"


def test_fractional_potential_exponent_is_usage_error(tmp_path, capsys):
    doc = space_form_potential(8, 1).to_json_dict()
    doc["k_num"] = 1.5
    path = tmp_path / "k.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["einstein-check", "--potential", str(path)]) == EXIT_USAGE
    assert "malformed potential" in capsys.readouterr().err


def test_einstein_check_beyond_float_range_keeps_the_exact_verdict(tmp_path, capsys):
    from toricpke.geometry import ToricPotential

    # 10**400 does not convert to a float: the exact check finds L = 10**400
    # = C*P^0, lambda = 2, and the float cross-check reports its failure
    t = MultiPoly.variable(1, 0)
    path = write_potential(tmp_path, ToricPotential("log", MultiPoly.one(1) + t * 10**400, 1))
    assert main(["einstein-check", "--potential", path, "--json"]) == EXIT_OK
    verdict = json.loads(capsys.readouterr().out)["verdict"]
    assert verdict["einstein"] and verdict["lambda_exact"] == "2"
    assert verdict["lambda"] == 2 and verdict["max_residual"] is None
    assert "float range" in verdict["cross_check_error"]
    # k = 10**-400 makes lambda = 2*10**400, beyond the float range: the
    # number is null and the exact value stays
    doc = ToricPotential("log", MultiPoly.one(1) + t, 1).to_json_dict()
    doc["k_den"] = str(10**400)
    path = tmp_path / "tiny_k.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["einstein-check", "--potential", str(path), "--json"]) == EXIT_OK
    verdict = json.loads(capsys.readouterr().out)["verdict"]
    assert verdict["lambda"] is None and verdict["lambda_exact"] == str(2 * 10**400)
    # 10**307*x1**3 has no linear term, so det g = 9*10**307*x/P^2 is 0 at
    # the origin
    path = write_potential(tmp_path, ToricPotential("log", MultiPoly.one(1) + t**3 * 10**307, 1))
    assert main(["einstein-check", "--potential", path]) == EXIT_DOMAIN
    assert "metric degenerate at the origin" in capsys.readouterr().err


@pytest.mark.parametrize("field,value,message", [
    ("kind", "foo", "unknown potential kind 'foo'"),
    ("P", (MultiPoly.one(1) * 2 + MultiPoly.variable(1, 0)).to_json_dict(),
     "log potential needs P(0) = +-1"),
    ("k_num", -1, "log potential needs a positive exponent"),
])
def test_bad_potential_message(tmp_path, capsys, field, value, message):
    doc = space_form_potential(8, 1).to_json_dict()
    doc[field] = value
    path = tmp_path / "bad_pot.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["einstein-check", "--potential", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == \
        f"error: malformed potential JSON in {path}: {message}\n"


def test_potential_zero_denominator_is_usage_error(tmp_path, capsys):
    doc = space_form_potential(8, 1).to_json_dict()
    doc["k_den"] = 0
    path = tmp_path / "zero_den.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["einstein-check", "--potential", str(path)]) == EXIT_USAGE
    assert "malformed potential" in capsys.readouterr().err


def test_continue_bad_arguments_are_usage_errors(capsys):
    assert main(["continue", "--k", "5", "--r", "1", "--bound", "3"]) == EXIT_USAGE
    assert main(["continue", "--k", "2", "--r", "1/0"]) == EXIT_USAGE
    assert main(["continue", "--k", "2", "--r", "0"]) == EXIT_USAGE
    assert "degree_bound" in capsys.readouterr().err


def test_scan_k_bad_arguments_are_usage_errors(capsys):
    assert main(["scan-k", "--k-max", "0"]) == EXIT_USAGE
    assert "k_max" in capsys.readouterr().err
    # no grid value could change the feasible exponents, so there is no --grid
    assert main(["scan-k", "--grid", "1"]) == EXIT_USAGE
    assert "unrecognized arguments: --grid" in capsys.readouterr().err


def test_classify_n1_takes_no_k_max(capsys):
    # by the binomial-profile theorem only k = 2 can solve for n = 1, so
    # there is no exponent to bound
    assert main(["classify-n1", "--grid", "2", "--k-max", "6"]) == EXIT_USAGE
    assert "unrecognized arguments: --k-max" in capsys.readouterr().err


def test_catalog_bad_power_is_usage_error(capsys):
    assert main(["catalog", "gen", "--partition", "1", "--K", "0"]) == EXIT_USAGE
    assert main(["catalog", "list", "--K", "-1"]) == EXIT_USAGE
    assert "K must be a positive integer" in capsys.readouterr().err


def test_einstein_check_beyond_its_input_limits_is_usage_error(tmp_path, capsys, monkeypatch):
    # the potential is read in full, then rejected before any fit or
    # kernel call
    wide = space_form_potential(8, MAX_EINSTEIN_NVARS + 1)
    many = ToricPotential("log", MultiPoly(1, {
        (i,): Fraction(1, 1 + i) for i in range(MAX_EINSTEIN_TERMS + 1)
    }))
    pairs = count_term_pairs(monkeypatch)
    for pot, name in ((wide, "MAX_EINSTEIN_NVARS"), (many, "MAX_EINSTEIN_TERMS")):
        path = write_potential(tmp_path, pot)
        start = time.perf_counter()
        assert main(["einstein-check", "--potential", path]) == EXIT_USAGE
        assert time.perf_counter() - start < 1.0
        assert pairs == [0]
        assert f"exceeds {name} = " in capsys.readouterr().err


def test_einstein_check_rejects_a_wide_potential_before_building_it(tmp_path, capsys):
    # building the potential reads P(0), an exponent of nvars zeros, 8 MB
    # at 10^6 variables, so the limit holds before the potential is built
    import tracemalloc

    path = tmp_path / "wide.json"
    path.write_text('{"kind": "log", "P": {"nvars": 1000000, "terms": []}}',
                    encoding="utf-8")
    tracemalloc.start()
    try:
        code = main(["einstein-check", "--potential", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_USAGE
    assert "exceeds MAX_EINSTEIN_NVARS = " in capsys.readouterr().err
    assert peak < 1_000_000


def test_einstein_check_accepts_every_k1_catalog_potential_up_to_n4(tmp_path, capsys):
    from toricpke.catalog import partitions, potential_for_power

    pots = [potential_for_power(part, 1) for n in range(1, 5) for part in partitions(n)]
    assert all(pot.nvars <= MAX_EINSTEIN_NVARS for pot in pots)
    assert max(len(pot.P.terms) for pot in pots) == 90 <= MAX_EINSTEIN_TERMS
    path = write_potential(tmp_path, potential_for_power((2, 1, 1), 1))
    assert main(["einstein-check", "--potential", path, "--points", "3"]) == EXIT_OK


def test_einstein_check_on_a_huge_exponent_does_bounded_work(tmp_path, capsys):
    # the point test works modulo a prime, so x1**(10^40) costs the bit
    # length of its exponent; theta log L is not proportional to theta log P
    # at the point, which refutes, and no float is involved.  The metric's
    # monomial table takes x1**(10^40) in one step, and each monomial chain
    # has at most n steps, so the plan's size does not grow with the
    # exponents either
    p = MultiPoly(2, {(0, 0): 1, (1, 0): 2, (0, 1): 2, (10**40, 1): 1})
    pot = ToricPotential("log", p, 1)
    steps, _, _ = pot._plan
    assert len(steps) <= len(p.terms) * p.nvars
    path = write_potential(tmp_path, pot)
    start = time.perf_counter()
    assert main(["einstein-check", "--potential", path, "--json"]) == EXIT_REFUTED
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    verdict = json.loads(captured.out)["verdict"]
    assert not verdict["einstein"] and verdict["lambda"] is None
    cert = verdict["refuted_at"]
    assert cert["point"] == ["1/3", "1/5"] and cert["modulus"] == str(2**61 - 1)
    assert len(cert["dlog_lhs"]) == len(cert["dlog_p"]) == 2


def test_einstein_check_decides_the_k3_potential_of_a_six_dimensional_block(tmp_path,
                                                                             capsys):
    # (6,) at K = 3 is the 84-term cubic (1 + (x1+...+x6)/7)^3, one linear
    # form: it is decided by its binomial profile, where ma_lhs_log of the
    # whole cubic takes about 19 s
    from toricpke.catalog import potential_for_power

    path = write_potential(tmp_path, potential_for_power((6,), 3))
    start = time.perf_counter()
    assert main(["einstein-check", "--potential", path, "--json"]) == EXIT_OK
    assert time.perf_counter() - start < 1.0
    verdict = json.loads(capsys.readouterr().out)["verdict"]
    assert verdict["lambda_exact"] == "7/3"
    assert verdict["lambda"] == pytest.approx(7 / 3, abs=1e-12)
    assert verdict["max_residual"] < 1e-9 and verdict["cross_check_error"] is None


def test_einstein_check_reports_lambda_h_over_k_for_the_catalog(tmp_path, capsys):
    # every catalog potential with n <= 4 and K <= 3, the largest (2,1,1)
    # at K = 3 with 2,695 terms
    from toricpke.catalog import partitions, potential_for_power

    checked = 0
    for K in (1, 2, 3):
        for n in range(1, 5):
            for part in partitions(n):
                pot = potential_for_power(part, K)
                assert len(pot.P.terms) <= MAX_EINSTEIN_TERMS, (part, K)
                h = math.gcd(*(m + 1 for m in part))
                path = write_potential(tmp_path, pot)
                assert main(["einstein-check", "--potential", path, "--json"]) == EXIT_OK
                verdict = json.loads(capsys.readouterr().out)["verdict"]
                assert verdict["lambda_exact"] == str(Fraction(h, K)), (part, K)
                checked += 1
    assert checked == 33


def test_einstein_check_term_pair_budget(tmp_path, capsys, monkeypatch):
    # deterministic work gate: every K = 1 catalog potential with n <= 4,
    # its blocks decided by their binomial profiles, hands the kernel only
    # the products that certify its splits, 223 term pairs; with its
    # blocks checked in one variable it took 566, and with ma_lhs_log of
    # every block and the power-free check 4,706
    from toricpke.catalog import partitions, potential_for_power

    paths = [write_potential(tmp_path, potential_for_power(part, 1), f"{i}.json")
             for i, part in enumerate(p for n in range(1, 5) for p in partitions(n))]
    pairs = count_term_pairs(monkeypatch)
    for path in paths:
        assert main(["einstein-check", "--potential", path]) == EXIT_OK
    assert pairs == [223]


def test_einstein_check_falls_back_to_the_symbolic_check_within_its_limit(tmp_path,
                                                                          capsys,
                                                                          monkeypatch):
    # P vanishes at the test point x = (1/3, 1/5), where the point test
    # cannot decide; the symbolic check does, or exits 2 beyond its limit
    def vanishing(n, degree):
        terms = {e: Fraction(1, 1 + sum(e)) for e in _exponents(n, degree)}
        p = MultiPoly(n, terms)
        value = p.evaluate([Fraction(1, 2 * i + 3) for i in range(n)])
        corner = (degree,) + (0,) * (n - 1)
        terms[corner] -= value * 3**degree
        return MultiPoly(n, terms)

    small = vanishing(2, 2)
    assert small.evaluate([Fraction(1, 3), Fraction(1, 5)]) == 0
    path = write_potential(tmp_path, ToricPotential("log", small, 1))
    pairs = count_term_pairs(monkeypatch)
    start = time.perf_counter()
    assert main(["einstein-check", "--potential", path]) == EXIT_REFUTED
    assert time.perf_counter() - start < 1.0
    assert pairs == [171]
    assert capsys.readouterr().out == "not Einstein (refuted symbolically)\n"
    large = vanishing(6, 3)
    assert len(large.terms) == 84
    path = write_potential(tmp_path, ToricPotential("log", large, 1))
    pairs[0] = 0
    start = time.perf_counter()
    assert main(["einstein-check", "--potential", path]) == EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    assert pairs == [1_189_951]
    assert f"exceeding MAX_SYMBOLIC_PAIRS = {MAX_SYMBOLIC_PAIRS}" in capsys.readouterr().err



def test_a_refuting_closed_form_block_is_decided_before_a_metered_one(tmp_path, capsys,
                                                                      monkeypatch):
    # P = g(x1, x2)*f(x3): g is not a linear form and needs the metered
    # symbolic check, f = 1 + x3 + x3^2 is not a binomial power.  With the
    # point test inconclusive and a limit g's check passes, an order that
    # takes g first exits 2; the one-variable block is decided first and
    # refutes, so einstein-check exits 1 with no symbolic work
    from toricpke import algebra, einstein

    g = MultiPoly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 2})
    f = MultiPoly(1, {(0,): 1, (1,): 1, (2,): 1})
    p = g.embed(3, (0, 1)) * f.embed(3, (2,))
    assert einstein._product_blocks(p, einstein._euler(p)[2]) == ([(0, 1), (2,)], [g, f])
    monkeypatch.setattr(einstein, "_exponent_at_point", lambda *args: (None, None))
    monkeypatch.setattr(algebra, "MAX_SYMBOLIC_PAIRS", 10)
    with pytest.raises(algebra.SymbolicLimitError):
        einstein._block_loop(2, [g], None)
    path = write_potential(tmp_path, ToricPotential("log", p, 1))
    pairs = count_term_pairs(monkeypatch)
    assert main(["einstein-check", "--potential", path, "--json"]) == EXIT_REFUTED
    out, err = capsys.readouterr()
    assert json.loads(out)["verdict"]["refuted_at"] is None
    assert err == ""
    # the only product is the one that certifies the block split
    assert pairs == [len(g.terms) * len(f.terms)]

def flat_inconclusive_input(n, extra):
    """x1 + ... + xn plus extra random terms of degree >= 2, exponents 0-2.

    One of those terms has the coefficient 1/(2^61 - 1): the test prime
    divides the denominator, so no point test modulo that prime decides
    the flat-type left side, and its determinant grows fast with n.
    """
    rng = random.Random(0)
    pool = [e for e in itertools.product(range(3), repeat=n) if sum(e) >= 2]
    exps = rng.sample(pool, extra)
    terms = {tuple(int(i == j) for j in range(n)): 1 for i in range(n)}
    terms.update((e, rng.choice([-3, -2, -1, 1, 2, 3])) for e in exps)
    terms[exps[0]] = Fraction(1, 2**61 - 1)
    return MultiPoly(n, terms)


def test_flat_type_is_decided_with_no_product(tmp_path, capsys, monkeypatch):
    # deterministic work gate: by the flat theorem of toricpke.einstein
    # the degree decides, so neither command builds the Euler matrix or
    # hands the kernel a term pair, although the flat-type determinant of
    # the 36-term input would take more than MAX_SYMBOLIC_PAIRS
    from toricpke import einstein

    def refuse(p):
        raise AssertionError("the Euler matrix was built")

    monkeypatch.setattr(einstein, "_euler", refuse)
    pairs = count_term_pairs(monkeypatch)
    # (D0, exit code of classify-flat, exit code of einstein-check)
    cases = [(flat_inconclusive_input(n, extra), EXIT_REFUTED, EXIT_REFUTED)
             for n, extra in ((5, 10), (6, 12), (6, 30))]
    assert len(cases[-1][0].terms) == 36
    x = [MultiPoly.variable(2, i) for i in range(2)]
    cases += [(space_form_potential(0, 6).P, EXIT_REFUTED, EXIT_OK),
              (2 * x[0] + x[1] * Fraction(1, 2) - 5, EXIT_OK, EXIT_OK)]
    for p, flat_code, einstein_code in cases:
        flat = write_poly(tmp_path, p, "flat.json")
        pot = write_potential(tmp_path, ToricPotential("poly", p), "pot.json")
        for argv, code in ((["classify-flat", "--poly", flat], flat_code),
                           (["einstein-check", "--potential", pot, "--json"], einstein_code)):
            pairs[0] = 0
            assert main(argv) == code, (argv, p)
            assert pairs == [0], (argv, p)
            out, err = capsys.readouterr()
            assert err == ""
        verdict = json.loads(out)["verdict"]
        assert verdict["einstein"] == (code == EXIT_OK)
        assert verdict["refuted_at"] is None


def test_no_command_path_runs_bareiss(tmp_path, capsys, monkeypatch):
    # Bareiss elimination is the tests' oracle; production takes every
    # determinant by memoized cofactor expansion
    from toricpke import algebra, ma_engine
    from toricpke.catalog import partitions

    def refuse(*args):
        raise AssertionError("Bareiss elimination ran")

    cofactor = []
    counted = algebra.determinant_cofactor
    monkeypatch.setattr(algebra, "determinant", refuse)
    monkeypatch.setattr(ma_engine, "determinant", refuse)
    monkeypatch.setattr(ma_engine, "determinant_cofactor",
                        lambda rows: cofactor.append(1) or counted(rows))
    # a general block that the point test does not refute: einstein-check
    # and verify --witness take its symbolic left side
    p = MultiPoly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): -23})
    pot = write_potential(tmp_path, ToricPotential("log", p))
    assert main(["einstein-check", "--potential", pot]) == EXIT_REFUTED
    assert main(["verify", "--poly", write_poly(tmp_path, p), "--witness"]) == EXIT_REFUTED
    assert len(cofactor) >= 2
    p = flat_inconclusive_input(5, 10)
    assert main(["classify-flat", "--poly", write_poly(tmp_path, p)]) == EXIT_REFUTED
    for part in (part for n in range(1, 4) for part in partitions(n)):
        path = write_poly(tmp_path, product_solution(part), "product.json")
        assert main(["verify", "--poly", path]) == EXIT_OK, part
    assert main(["scan-k", "--k-max", "6"]) == EXIT_OK


def _exponents(n, degree):
    if n == 0:
        yield ()
        return
    for first in range(degree + 1):
        for rest in _exponents(n - 1, degree - first):
            yield (first,) + rest


@pytest.mark.parametrize("error", [OverflowError, ZeroDivisionError, DomainError])
def test_no_float_changes_an_einstein_check_exit_code(tmp_path, capsys, monkeypatch,
                                                      error):
    from toricpke.catalog import potential_for_power

    t = MultiPoly.variable(1, 0)
    pots = [space_form_potential(8, 2), space_form_potential(0, 3),
            potential_for_power((2, 1), 2),
            ToricPotential("log", MultiPoly.one(1) + t + t**2, 1),
            ToricPotential("poly", t + t**2),
            ToricPotential("poly", t**2)]
    paths = [write_potential(tmp_path, pot, f"{i}.json") for i, pot in enumerate(pots)]
    codes = [main(["einstein-check", "--potential", path]) for path in paths]
    assert codes == [EXIT_OK, EXIT_OK, EXIT_OK, EXIT_REFUTED, EXIT_REFUTED, EXIT_DOMAIN]
    capsys.readouterr()

    def broken(*args):
        raise error("float failure")

    # the cross-check's one metric per point
    monkeypatch.setattr(geometry, "_metric", broken)
    for path, code in zip(paths, codes):
        assert main(["einstein-check", "--potential", path, "--json"]) == code
        out = capsys.readouterr().out
        if code == EXIT_OK:
            verdict = json.loads(out)["verdict"]
            assert verdict["max_residual"] is None
            assert verdict["cross_check_error"].endswith("float failure")


def test_catalog_gen_builds_no_metric_plan(capsys, monkeypatch):
    # a catalog potential is printed, not evaluated: the plan of its
    # metric and its float coefficients wait for the first eval_metric
    from toricpke import catalog

    built = []
    real = catalog.potential_for_power

    def keep(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(catalog, "potential_for_power", keep)
    assert main(["catalog", "gen", "--partition", "1,1,1,1", "--K", "9"]) == EXIT_OK
    (pot,) = built
    assert len(pot.P.terms) == MAX_CATALOG_TERMS
    assert "_plan" not in pot.__dict__ and "_float_coeffs" not in pot.__dict__


def test_einstein_check_bad_sampling_is_usage_error(tmp_path, capsys):
    path = write_potential(tmp_path, space_form_potential(8, 1))
    assert main(["einstein-check", "--potential", path, "--points", "2"]) == EXIT_USAGE
    assert "sample points" in capsys.readouterr().err
    # the stencil's step is fixed, so there is no --step
    assert main(["einstein-check", "--potential", path, "--step", "0.001"]) == EXIT_USAGE
    assert "unrecognized arguments: --step" in capsys.readouterr().err


@pytest.mark.parametrize("points", [str(MAX_POINTS + 1), "1" + "0" * 30],
                         ids=["above", "huge"])
def test_einstein_check_beyond_max_points_is_usage_error(tmp_path, capsys, monkeypatch, points):
    # the sample is built before the fit starts, so an unbounded count
    # would cost unbounded memory before any check
    path = write_potential(tmp_path, space_form_potential(8, 1))
    pairs = count_term_pairs(monkeypatch)
    start = time.perf_counter()
    assert main(["einstein-check", "--potential", path, "--points", points]) == EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    assert pairs == [0]
    assert f"exceeds MAX_POINTS = {MAX_POINTS}" in capsys.readouterr().err


def test_search_n2_has_no_bound(capsys):
    # every bound from 3 up gave the same verdicts, so the option is gone
    assert main(["search-n2", "--grid", "1", "--bound", "6"]) == EXIT_USAGE
    assert "unrecognized arguments: --bound" in capsys.readouterr().err


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(solution_n1().to_json_dict())))
    assert main(["verify", "--poly", "-"]) == EXIT_OK


def test_deeply_nested_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    assert main(["verify", "--poly", str(path)]) == EXIT_USAGE
    assert "malformed polynomial" in capsys.readouterr().err
    assert main(["einstein-check", "--potential", str(path)]) == EXIT_USAGE
    assert "malformed potential" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["continue", "--k", "2", "--r", "1e1000000"],
    ["search-n2", "--grid", "1,1e1000000"],
    ["classify-n1", "--grid", "1e1000000"],
    ["continue", "--k", "2", "--r", "1" * (MAX_COEFF_DIGITS + 1)],
    ["classify-n1", "--grid", "1/" + "3" * (MAX_COEFF_DIGITS + 1)],
], ids=["r-exp", "search-exp", "n1-exp", "r-digits", "grid-digits"])
def test_rational_argument_gets_bounded_work(capsys, monkeypatch, argv):
    # Fraction("1e1000000") alone is a million-digit integer
    pairs = count_term_pairs(monkeypatch)
    start = time.perf_counter()
    assert main(argv) == EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    assert pairs == [0]
    assert "bad" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["continue", "--k", "2", "--r", "7" * 5000],
    ["search-n2", "--grid", "1," + "7" * 5000],
], ids=["continue", "search-n2"])
def test_a_rational_argument_beyond_its_digit_limit_names_the_limit(capsys, argv):
    # Fraction and str convert at most 4,300 digits by default, which the
    # limit keeps below
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"5000 digits exceed MAX_R_DIGITS = {MAX_R_DIGITS}" in err
    assert "set_int_max_str_digits" not in err


def test_a_long_r_leaves_the_continuation_s_integers_alone(capsys, monkeypatch):
    # deterministic work gate: only the datum eps = sigma = r = 1 is
    # continued and the result mapped to r, so no integer handed to the
    # kernel grows with r: here the widest has 34 bits, where continuing
    # the datum of this 4,000-digit r itself handed it 451,770 (4.4 s)
    from toricpke import algebra

    widest = [0]
    dot_terms = algebra.dot_terms

    def recording(items):
        for c, a, b in items:
            for v in (c, *a.values(), *(() if b is None else b.values())):
                widest[0] = max(widest[0], abs(v).bit_length())
        return dot_terms(items)

    monkeypatch.setattr(algebra, "dot_terms", recording)
    r = "7" * MAX_R_DIGITS
    assert main(["continue", "--k", "32", "--bound", "32", "--r", r]) == EXIT_REFUTED
    assert "inconsistent" in capsys.readouterr().out
    assert 0 < widest[0] <= 64


@pytest.mark.parametrize("argv", [
    ["continue", "--r", "1", "--k"],
    ["continue", "--k", "2", "--r", "1", "--bound"],
    ["scan-k", "--k-max"],
], ids=["continue-k", "continue-bound", "scan-k"])
def test_order_argument_above_the_limit_is_usage_error(capsys, monkeypatch, argv):
    pairs = count_term_pairs(monkeypatch)
    start = time.perf_counter()
    assert main(argv + [str(MAX_ORDER + 1)]) == EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    assert pairs == [0]
    assert f"exceeds MAX_ORDER = {MAX_ORDER}" in capsys.readouterr().err


def test_order_argument_at_the_limit_is_accepted(capsys):
    assert main(["continue", "--k", str(MAX_ORDER), "--r", "2/3",
                 "--bound", str(MAX_ORDER)]) == EXIT_REFUTED
    assert "inconsistent" in capsys.readouterr().out
    assert main(["scan-k", "--k-max", str(MAX_ORDER)]) == EXIT_OK
    assert capsys.readouterr().out == "feasible k: [2, 3]\n"


@pytest.mark.parametrize("option,value,requirement", [
    ("--tol", "nan", "> 0"), ("--tol", "-1", "> 0"), ("--tol", "inf", "> 0"),
    ("--tol", "0", "> 0"),
])
def test_einstein_check_bad_step_or_tol_is_usage_error(tmp_path, capsys, option,
                                                       value, requirement):
    # each used to give a verdict (exit 0 or 1); --step is checked in
    # test_einstein_check_bad_sampling_is_usage_error
    path = write_potential(tmp_path, space_form_potential(8, 1))
    assert main(["einstein-check", "--potential", path, option, value]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"argument {option}" in err and requirement in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,limit", [
    (["list", "--max-n", str(MAX_CATALOG_N + 1)], "MAX_CATALOG_N"),
    (["gen", "--partition", f"{MAX_CATALOG_N},1"], "MAX_CATALOG_N"),
    (["gen", "--partition", "3", "--K", str(MAX_CATALOG_K + 1)], "MAX_CATALOG_K"),
    (["list", "--K", str(2 * MAX_CATALOG_K)], "MAX_CATALOG_K"),
    (["list", "--max-n", "3", "--K", str(MAX_CATALOG_K)], "MAX_CATALOG_TERMS"),
    (["gen", "--partition", "1,1,1,1", "--K", "10"], "MAX_CATALOG_TERMS"),
], ids=["list-n", "gen-n", "gen-K", "list-K", "list-terms", "gen-terms"])
def test_catalog_beyond_its_limits_is_usage_error(capsys, monkeypatch, argv, limit):
    # list --max-n 3 --K 32 used to build a 309k-term record in 7.6 s
    pairs = count_term_pairs(monkeypatch)
    start = time.perf_counter()
    assert main(["catalog"] + argv) == EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    assert pairs == [0]
    assert limit in capsys.readouterr().err


@pytest.mark.parametrize("max_n", ["0", "-1"])
def test_catalog_list_below_one_dimension_is_usage_error(capsys, max_n):
    # it used to exit 0 with no records
    assert main(["catalog", "list", "--max-n", max_n]) == EXIT_USAGE
    assert "max_n must be positive" in capsys.readouterr().err


def test_catalog_at_its_limits_is_accepted(capsys):
    # the (1,1,1,1) potential is prod_i (1 + x_i/2)^K, with (K + 1)^4
    # terms: MAX_CATALOG_TERMS at K = 9
    assert main(["catalog", "gen", "--partition", "1,1,1,1", "--K", "9",
                 "--json"]) == EXIT_OK
    (record,) = json.loads(capsys.readouterr().out)["verdict"]["records"]
    assert len(record["potential"]["P"]["terms"]) == MAX_CATALOG_TERMS
    assert main(["catalog", "list", "--max-n", str(MAX_CATALOG_N)]) == EXIT_OK
    assert main(["catalog", "gen", "--partition", "1",
                 "--K", str(MAX_CATALOG_K)]) == EXIT_OK


@pytest.mark.parametrize("command", [
    ["search-n2"], ["classify-n1"],
], ids=["search-n2", "classify-n1"])
def test_zero_grid_value_is_usage_error(capsys, command):
    assert main(command + ["--grid", "0,1"]) == EXIT_USAGE
    assert "r must be nonzero" in capsys.readouterr().err


def test_plain_decimal_and_negative_rational_r_still_parse(capsys):
    for argv in (["--r", "0.5"], ["--r=-1/2"]):
        assert main(["continue", "--k", "2"] + argv) == EXIT_OK
        assert "reconstructed solution" in capsys.readouterr().out


@pytest.mark.parametrize("option, value, command", [
    ("--r", "-1/2", ["continue", "--k", "2"]),
    ("--grid", "-1/2,2", ["classify-n1"]),
], ids=["r", "grid"])
def test_negative_rational_as_separate_argument(capsys, option, value, command):
    reports = []
    for argv in ([option, value], [f"{option}={value}"]):
        assert main(command + argv + ["--json"]) == EXIT_OK
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("argv, code", [
    (["classify-n1", "--gri", "-1/2"], EXIT_USAGE),
    (["classify-n1", "--gri=-1/2"], EXIT_USAGE),
    (["scan-k", "--k-m", "2"], EXIT_USAGE),
    (["classify-n1", "--grid", "-1/2"], EXIT_OK),
], ids=["gri", "gri=", "k-m", "grid"])
def test_only_full_option_names_parse(capsys, argv, code):
    assert main(argv) == code


def test_every_documented_command_line_parses(capsys):
    # README's usage block names every subcommand, and each of its lines,
    # comments stripped, parses: a documented option that was removed fails
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        usage = fh.read().split("## CLI usage", 1)[1].split("```sh\n", 1)[1]
    lines = [line.split("#", 1)[0].split()
             for line in usage.split("```", 1)[0].splitlines()]
    argvs = [words[1:] for words in lines if words[:1] == ["toricpke"]]
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in argvs} == set(sub.choices)
    for argv in argvs:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README usage does not parse: toricpke {' '.join(argv)}\n"
                        + capsys.readouterr().err)


def test_every_subcommand_reports_through_one_path(tmp_path, capsys):
    poly = write_poly(tmp_path, solution_n1())
    flat = write_poly(tmp_path, MultiPoly.variable(1, 0), "flat.json")
    pot = write_potential(tmp_path, space_form_potential(8, 1))
    runs = {
        "verify": ["--poly", poly],
        "classify-flat": ["--poly", flat],
        "axis": ["--poly", poly],
        "continue": ["--k", "2", "--r", "2"],
        "scan-k": ["--k-max", "1"],
        "classify-n1": ["--grid", "2"],
        "search-n2": ["--grid", "2"],
        "catalog": ["gen", "--partition", "1"],
        "einstein-check": ["--potential", pot, "--points", "3"],
        "report": ["--poly", poly],
    }
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(runs) == set(sub.choices)
    for command, argv in runs.items():
        assert main([command] + argv + ["--json"]) == EXIT_OK, command
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"command", "inputs", "verdict", "timings"}
        assert doc["command"] == command
        assert doc["timings"] == {}
        assert main([command] + argv + ["--json", "--timings"]) == EXIT_OK
        timings = json.loads(capsys.readouterr().out)["timings"]
        assert list(timings) == [command]
        ms = timings[command]
        assert isinstance(ms, (int, float)) and not isinstance(ms, bool)
        assert ms >= 0


def test_process_exit_codes(tmp_path):
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(toricpke.__file__))}
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    pot = ToricPotential("poly", MultiPoly.variable(1, 0) ** 2)
    perturbed = solution_n1() + MultiPoly.variable(1, 0) * Fraction(1, 100)
    cases = [
        (["verify", "--poly", write_poly(tmp_path, solution_n1())], EXIT_OK),
        (["verify", "--poly", write_poly(tmp_path, perturbed, "p.json")],
         EXIT_REFUTED),
        (["verify", "--poly", str(bad)], EXIT_USAGE),
        (["einstein-check", "--potential", write_potential(tmp_path, pot)],
         EXIT_DOMAIN),
        # each imports toricpke.einstein, which imports ma_engine, at call time
        (["verify", "--poly", write_poly(tmp_path, point_vanishing_input(), "v.json")],
         EXIT_USAGE),
        (["classify-flat", "--poly",
          write_poly(tmp_path, product_solution((4,)), "f.json")], EXIT_REFUTED),
        # catalog imports geometry at call time, and search-n2 catalog
        (["catalog", "gen", "--partition", "2,1"], EXIT_OK),
        (["search-n2", "--grid=1"], EXIT_OK),
    ]
    for argv, code in cases:
        proc = subprocess.run([sys.executable, "-m", "toricpke.cli"] + argv,
                              capture_output=True, text=True, env=env)
        assert proc.returncode == code, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr
        assert bool(proc.stdout) == (code in (EXIT_OK, EXIT_REFUTED))
        if code == EXIT_DOMAIN:
            assert "metric degenerate at the origin" in proc.stderr


@pytest.mark.parametrize("module", ["toricpke.cli", "toricpke", "toricpke.einstein"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    # dataclasses imports inspect, ast, dis and tokenize, and each
    # @dataclass execs its generated methods: start-up work that no
    # command needs, paid by every process
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(toricpke.__file__)),
           "PYTHONDONTWRITEBYTECODE": "1"}
    code = ("import sys; before = set(sys.modules); import " + module
            + "; print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert module in loaded
    assert not loaded & {"dataclasses", "inspect"}


_OPTIONAL = {"toricpke.geometry", "toricpke.catalog"}


@pytest.mark.parametrize("run,unloaded", [
    ("import toricpke", _OPTIONAL | {"toricpke.einstein", "toricpke.paracomplex"}),
    ("import toricpke.cli", _OPTIONAL | {"toricpke.einstein", "toricpke.paracomplex"}),
    ("from toricpke.cli import main; main(['verify', '--poly', POLY])", _OPTIONAL),
    ("from toricpke.cli import main; main(['scan-k', '--k-max', '3'])", _OPTIONAL),
    ("from toricpke.cli import main; main(['search-n2', '--grid=1'])",
     {"toricpke.geometry"}),
    ("from toricpke.cli import main; main(['axis', '--poly', POLY])",
     _OPTIONAL | {"toricpke.einstein"}),
    ("from toricpke.cli import main; main(['report', '--poly', POLY])",
     _OPTIONAL | {"toricpke.einstein"}),
    ("from toricpke.cli import main; main(['classify-flat', '--poly', POLY])", _OPTIONAL),
])
def test_commands_compile_only_the_modules_they_run(tmp_path, run, unloaded):
    # with bytecode writing off every process compiles each module it
    # imports from source: geometry serves einstein-check and catalog
    # records, catalog the catalog and search-n2 commands, and einstein
    # the commands that decide L = C*(eps*P)^e
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(toricpke.__file__)),
           "PYTHONDONTWRITEBYTECODE": "1"}
    poly = write_poly(tmp_path, product_solution((2, 1)))
    code = (f"import sys; POLY = {poly!r}; {run}; "
            "print('modules:', *sorted(sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    *out, modules = proc.stdout.splitlines()
    loaded = set(modules.split()[1:])
    assert "toricpke.algebra" in loaded
    assert not loaded & unloaded
    if "verify" in run:
        assert out == ["solution (sign +)"]
    elif "scan-k" in run:
        assert out == ["feasible k: [2, 3]"]
    elif "classify-flat" in run:
        assert "toricpke.einstein" in loaded

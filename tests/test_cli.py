"""Command-line surface: exit codes, determinism, JSON round trips."""

import json
from fractions import Fraction

import pytest

from toricpke.algebra import MAX_COEFF_DIGITS, MultiPoly
from toricpke.catalog import product_solution
from toricpke.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_REFUTED,
    EXIT_USAGE,
    main,
)
from toricpke.geometry import space_form_potential
from toricpke.ma_engine import ma_lhs_log

HALF = Fraction(1, 2)


def solution_n1():
    return (MultiPoly.one(1) + MultiPoly.variable(1, 0) * HALF) ** 2


def write_poly(tmp_path, p, name="poly.json"):
    path = tmp_path / name
    path.write_text(p.to_json(), encoding="utf-8")
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


def test_continue_reconstructs(tmp_path, capsys):
    assert main(["continue", "--k", "3", "--r", "3"]) == EXIT_OK
    assert main(["continue", "--k", "1", "--r", "2"]) == EXIT_REFUTED


def test_scan_k(capsys):
    assert main(["scan-k", "--k-max", "4", "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"]["feasible_k"] == [2, 3]


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
    # for D0 = x^2 the metric determinant is 4*xi*eta, so a stencil wider
    # than the sample box always straddles a sign change
    from toricpke.geometry import ToricPotential

    pot = ToricPotential("poly", MultiPoly.variable(1, 0) ** 2)
    path = write_potential(tmp_path, pot)
    code = main(
        ["einstein-check", "--potential", path, "--step", "0.05"]
    )
    assert code == EXIT_DOMAIN


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
    assert MultiPoly.from_json_dict(doc["verdict"]["witness"]) is not None


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
    assert main(["verify", "--poly", path, "--json"]) == EXIT_REFUTED
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


def test_einstein_check_beyond_float_range_is_domain_error(tmp_path, capsys):
    from toricpke.geometry import ToricPotential

    # 10**400 does not convert to a float; 10**307*x1**3 does, and its
    # values overflow to inf inside the float arithmetic instead
    t = MultiPoly.variable(1, 0)
    for p in (MultiPoly.one(1) + t * 10**400, MultiPoly.one(1) + t**3 * 10**307):
        path = write_potential(tmp_path, ToricPotential("log", p, 1))
        assert main(["einstein-check", "--potential", path]) == EXIT_DOMAIN
        assert "float range" in capsys.readouterr().err


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
    assert main(["scan-k", "--k-max", "2", "--grid", "0,1"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "k_max" in err and "r must be nonzero" in err


def test_search_n2_bound_below_k_is_usage_error(capsys):
    assert main(["search-n2", "--grid", "1", "--bound", "2"]) == EXIT_USAGE
    assert "degree_bound" in capsys.readouterr().err


def test_classify_n1_bad_k_max_is_usage_error(capsys):
    assert main(["classify-n1", "--grid", "1,2", "--k-max", "0"]) == EXIT_USAGE
    assert "k_max" in capsys.readouterr().err


def test_catalog_bad_power_is_usage_error(capsys):
    assert main(["catalog", "gen", "--partition", "1", "--K", "0"]) == EXIT_USAGE
    assert main(["catalog", "list", "--K", "-1"]) == EXIT_USAGE
    assert "K must be a positive integer" in capsys.readouterr().err


def test_einstein_check_bad_sampling_is_usage_error(tmp_path, capsys):
    path = write_potential(tmp_path, space_form_potential(8, 1))
    assert main(["einstein-check", "--potential", path, "--points", "2"]) == EXIT_USAGE
    assert main(["einstein-check", "--potential", path, "--step", "0"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "sample points" in err and "--step" in err


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(solution_n1().to_json()))
    assert main(["verify", "--poly", "-"]) == EXIT_OK

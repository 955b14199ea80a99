"""Tests of the benchmark's own code: generators, oracle, tracing, accounting.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import verdicts  # noqa: E402
import workloads  # noqa: E402


def _inputs(jobs):
    """Job list with each input file path replaced by the file's content."""
    out = []
    for job in jobs:
        argv = []
        for arg in job["argv"]:
            if os.path.isfile(arg):
                with open(arg, encoding="utf-8") as fh:
                    arg = fh.read()
            argv.append(arg)
        out.append((job["label"], argv, job["expect"]))
    return out


def _file_terms(job):
    with open(job["argv"][2], encoding="utf-8") as fh:
        return workloads.terms_from_json(json.load(fh))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed_and_differ_across_seeds(
        workload, tmp_path):
    a = _inputs(workloads.generate(workload, 7, str(tmp_path / "a")))
    b = _inputs(workloads.generate(workload, 7, str(tmp_path / "b")))
    c = _inputs(workloads.generate(workload, 8, str(tmp_path / "c")))
    assert a == b
    assert a != c


def test_variants_keep_the_sign_product_rule_on_n_up_to_3(tmp_path):
    checked = 0
    for seed in range(3):
        for job in workloads.generate("verify-catalog", seed, str(tmp_path / str(seed))):
            terms = _file_terms(job)
            if len(next(iter(terms))) > 3:
                continue
            want = 1 if job["expect"]["sign"] == "+" else -1
            assert oracle.solution_sign(terms) == want, job["label"]
            checked += 1
    assert checked == 18


def test_sign_product_rule_sees_every_flip():
    terms = workloads.product_poly((1, 1))
    assert oracle.solution_sign(terms) == 1
    assert oracle.solution_sign(workloads.transform(terms, [1, 0], [-1, 1])) == -1
    assert oracle.solution_sign(workloads.transform(terms, [0, 1], [-1, -1])) == 1


def test_perturbed_candidates_are_certified_refuted(tmp_path):
    jobs = workloads.generate("refute-perturbed", 5, str(tmp_path))
    for job in jobs:
        terms = _file_terms(job)
        if len(next(iter(terms))) <= 3:
            assert oracle.refutation_point(terms) is not None, job["label"]
    constant = [t for t in map(_file_terms, jobs) if t[(0,) * len(next(iter(t)))] != 1]
    assert len(constant) == 1


def test_oracle_rejects_a_non_solution():
    terms = workloads.product_poly((2,))
    terms[(1, 1)] += Fraction(1, 7)
    assert oracle.solution_sign(terms) is None
    assert oracle.refutation_point(terms) is not None


def test_self_time_subtracts_child_spans():
    # each span reads the clock at start, at end, and after its bookkeeping
    ticks = iter([0.0, 1.0, 3.0, 3.5, 4.0, 5.0, 5.5, 10.0, 10.5])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    inner = tracer.span("inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.span("outer", body)()
    totals = tracer.aggregate()
    assert totals["inner"]["calls"] == 2
    assert totals["inner"]["incl_s"] == pytest.approx(2.0 + 1.0)
    assert totals["outer"]["incl_s"] == pytest.approx(10.0)
    # the children cover 1.0-3.5 and 4.0-5.5, bookkeeping included
    assert totals["outer"]["self_s"] == pytest.approx(10.0 - 2.5 - 1.5)


def test_products_report_term_pairs_to_their_direct_caller():
    from toricpke.algebra import MultiPoly

    tracer = tracing.Tracer()
    x = MultiPoly.variable(2, 0) + 1
    y = MultiPoly.variable(2, 1) + 1
    mul = tracer.span(tracing.MUL, MultiPoly.__mul__, "mul")
    caller = tracer.span("caller", lambda: mul(mul(x, y), 3))
    caller()
    totals = tracer.aggregate()
    assert totals[tracing.MUL]["calls"] == 2
    assert totals[tracing.MUL]["term_pairs"] == 2 * 2 + 4
    assert totals[tracing.MUL]["out_terms"] == 8
    assert totals["caller"]["term_pairs"] == 8


class _RaisingCli:
    @staticmethod
    def main(argv):
        print("partial output")
        raise ValueError("log-type candidate needs constant term +-1")


def _judge_raising(expect):
    job = {"label": "x", "argv": ["verify", "--poly", "missing.json", "--json"],
           "expect": expect}
    code, out, error = run.run_job(_RaisingCli, job["argv"])
    assert code is None and error.startswith("ValueError")
    passes = [{"summaries": [verdicts.summarize(job, code, out, error)]}]
    return run._judge([job], passes)


def test_a_raising_job_counts_as_failed_where_failure_is_allowed():
    attempted, failed, wrong, problems = _judge_raising(
        {"kind": "verify", "codes": [1, 2], "is_solution": False, "may_fail": True})
    assert (attempted, failed, wrong) == (1, 1, 0)
    assert list(problems)[0][1] == verdicts.FAILED


def test_a_raising_job_is_wrong_where_a_verdict_is_expected():
    attempted, failed, wrong, problems = _judge_raising(
        {"kind": "verify", "codes": [0], "is_solution": True, "sign": "+"})
    assert (attempted, failed, wrong) == (1, 1, 1)
    assert list(problems)[0][1] == verdicts.WRONG


def test_only_the_constant_term_job_may_fail(tmp_path):
    jobs = [job for workload in workloads.WORKLOADS
            for job in workloads.generate(workload, 2, str(tmp_path / workload))]
    assert [j["label"].split()[0] for j in jobs if j["expect"].get("may_fail")] == \
        ["refute-constant"]


def test_search_n2_must_report_every_expected_solution():
    grid = (Fraction(3, 2), Fraction(-2, 3))
    expected = [workloads.poly_json(t) for t in workloads.n2_solutions(grid)]
    assert len(expected) == 4
    assert all(oracle.solution_sign(workloads.terms_from_json(d)) == 1 for d in expected)
    assert workloads.n2_solutions((Fraction(2), Fraction(-2))) == \
        workloads.n2_solutions((Fraction(2),))
    judge = verdicts.Judge(oracle)
    job = {"label": "s", "argv": [],
           "expect": {"kind": "search-n2", "codes": [0], "solutions": expected}}
    assert judge(job, {"code": 0, "solutions": expected}) == (verdicts.OK, "")
    assert judge(job, {"code": 0, "solutions": expected[1:]})[0] == verdicts.WRONG
    assert judge(job, {"code": 0, "solutions": expected + expected[:1]})[0] == \
        verdicts.WRONG


def test_usage_error_accepted_only_where_expected():
    judge = verdicts.Judge(oracle)
    const = {"expect": {"kind": "verify", "codes": [1, 2], "is_solution": False,
                        "may_fail": True},
             "argv": [], "label": "c"}
    solve = {"expect": {"kind": "verify", "codes": [0], "is_solution": True,
                        "sign": "+"}, "argv": [], "label": "s"}
    assert judge(const, {"code": 2})[0] == verdicts.OK
    assert judge(const, {"code": 0})[0] == verdicts.WRONG
    assert judge(const, {"code": 3})[0] == verdicts.FAILED
    assert judge(solve, {"code": 2})[0] == verdicts.WRONG
    assert judge(solve, {"code": 1})[0] == verdicts.WRONG


def _originals():
    import importlib

    out = []
    for where, attr, _name, _kind in tracing.TARGETS:
        modname, _, clsname = where.partition(".")
        owner = importlib.import_module("toricpke." + modname)
        if clsname:
            owner = getattr(owner, clsname)
        out.append(owner.__dict__[attr])
    return out


def test_untraced_passes_leave_the_program_unpatched(tmp_path):
    before = _originals()
    assert not any(hasattr(f, "__wrapped__") for f in before)
    cli = run._import_cli()
    jobs = workloads.generate("verify-catalog", 1, str(tmp_path))[:3]
    passes = run.run_passes(cli, jobs, 0.0, 1)
    assert "layers" not in passes[0]
    assert [a is b for a, b in zip(_originals(), before)] == [True] * len(before)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(hasattr(f, "__wrapped__") for f in _originals())
    finally:
        tracer.restore()
    assert [a is b for a, b in zip(_originals(), before)] == [True] * len(before)


def test_traced_counters_repeat_exactly(tmp_path):
    cli = run._import_cli()
    jobs = workloads.generate("verify-catalog", 3, str(tmp_path))[:6]
    counters = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            layers = run.run_passes(cli, jobs, 0.0, 1, tracer)[0]["layers"]
        finally:
            tracer.restore()
        counters.append({k: v for k, v in layers.items() if not k.endswith("_s")})
    assert counters[0] == counters[1]
    assert counters[0]["algebra.mul.calls"] > 0
    assert counters[0]["ma_engine.verify_ma_star.calls"] == 6


def test_benchmark_json_lists_the_metrics_the_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        tracing.per_layer_specs()
    assert {m["name"] for m in bench["end_to_end"]} == \
        {"batch_s", "batch_cpu_s", "setup_s", "peak_rss_mib"}

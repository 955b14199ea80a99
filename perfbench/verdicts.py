"""Reduce a job's output to a small summary, then judge it against the job.

``summarize`` runs right after each pass, outside the timed region, so the
large reports can be dropped.  ``Judge`` runs after all passes; it calls
the sympy oracle (cached per input) so that no check sits inside a timed
region or inside the set-up time.

A job is *wrong* when it gives a verdict or report that contradicts the
expected answer, or when it raises or exits with a usage or domain error
where only a verdict is acceptable; a wrong job also counts as failed, and
makes the whole run incorrect.  A job whose expectation allows failure
(``"may_fail"``, the known constant-term defect) merely *fails* when an
exception escapes ``cli.main`` or it exits 2 or 3.
"""

from __future__ import annotations

import json

from workloads import terms_from_json

OK, FAILED, WRONG = "ok", "failed", "wrong"


def summarize(job: dict, code, stdout: str, error) -> dict:
    if error is not None:
        return {"raised": error}
    summary = {"code": code}
    if not stdout.strip():
        return summary
    try:
        doc = json.loads(stdout)
        verdict = doc["verdict"]
        kind = job["expect"]["kind"]
        if kind == "verify":
            with open(job["argv"][2], encoding="utf-8") as fh:
                given = terms_from_json(json.load(fh))
            summary["report_ok"] = (
                doc["command"] == "verify"
                and terms_from_json(doc["inputs"]["poly"]) == given
            )
            summary["is_solution"] = verdict["is_solution"]
            summary["sign"] = verdict["sign"]
        elif kind == "scan-k":
            summary["feasible_k"] = verdict["feasible_k"]
        elif kind == "search-n2":
            summary["solutions"] = verdict["solutions"]
        elif kind == "einstein":
            summary["lambda"] = verdict["lambda"]
            summary["einstein"] = verdict["einstein"]
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        summary["unparsed"] = f"{type(exc).__name__}: {exc}"
    return summary


class Judge:
    """Judges summaries; oracle results are cached per input."""

    def __init__(self, oracle):
        self.oracle = oracle
        self._cache = {}

    def _cached(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def __call__(self, job: dict, summary: dict):
        """Return (OK | FAILED | WRONG, reason)."""
        exp = job["expect"]
        broken = FAILED if exp.get("may_fail") else WRONG
        if "raised" in summary:
            return broken, "raised " + summary["raised"]
        code = summary["code"]
        if code not in exp["codes"]:
            if code in (2, 3):
                return broken, f"exit code {code}"
            return WRONG, f"exit code {code}, expected {exp['codes']}"
        if code == 2:
            return OK, "rejected as bad input"
        if "unparsed" in summary:
            return WRONG, "unreadable report: " + summary["unparsed"]
        kind = exp["kind"]
        if kind == "verify":
            return self._verify(job, summary)
        if kind == "scan-k":
            if summary["feasible_k"] != exp["feasible_k"]:
                return WRONG, f"feasible k {summary['feasible_k']}"
            return OK, ""
        if kind == "search-n2":
            return self._search(summary["solutions"], exp["solutions"])
        if kind == "einstein":
            if not summary["einstein"]:
                return WRONG, "not Einstein within tol"
            if abs(summary["lambda"] - exp["lambda"]) > exp["tol"]:
                return WRONG, f"lambda {summary['lambda']} != {exp['lambda']}"
            return OK, ""
        raise ValueError(f"unknown job kind {kind!r}")

    def _verify(self, job, summary):
        exp = job["expect"]
        if not summary.get("report_ok"):
            return WRONG, "report does not echo the input polynomial"
        if summary["is_solution"] != exp["is_solution"]:
            return WRONG, f"is_solution {summary['is_solution']}"
        if exp["is_solution"]:
            if summary["sign"] != exp["sign"]:
                return WRONG, f"sign {summary['sign']}, expected {exp['sign']}"
            return OK, ""
        path = job["argv"][2]
        point = self._cached(("refute", path), lambda: self._refutation(path))
        if point is None:
            return WRONG, "the oracle could not certify the refutation"
        return OK, ""

    def _refutation(self, path):
        with open(path, encoding="utf-8") as fh:
            return self.oracle.refutation_point(terms_from_json(json.load(fh)))

    def _search(self, solutions, expected):
        got = [frozenset(terms_from_json(doc).items()) for doc in solutions]
        want = {frozenset(terms_from_json(doc).items()) for doc in expected}
        if len(set(got)) != len(got):
            return WRONG, "a solution is reported twice"
        if set(got) != want:
            return WRONG, (f"{len(want - set(got))} expected solutions missing, "
                           f"{len(set(got) - want)} unexpected")
        for doc, terms in zip(solutions, got):
            key = ("solution", json.dumps(doc, sort_keys=True))
            if self._cached(key, lambda: self.oracle.solution_sign(dict(terms))) is None:
                return WRONG, "the oracle rejects a reported solution"
        return OK, ""

"""Outside-in layer tracing by rebinding public functions of toricpke.

``Tracer.install`` replaces each traced function with a wrapper that
records a span (name, parent, start, end) in memory; ``restore`` puts
the originals back.  Functions that ``ma_engine`` imports by name are
rebound in both namespaces, and ``MultiPoly.__rmul__`` / ``__radd__``
are rebound beside ``__mul__`` / ``__add__`` because the class binds
them to the same function object.  Subtraction is counted as addition:
``MultiPoly.__sub__`` adds the negation.

Spans are aggregated only after a pass ends.  A span's self time is its
duration minus the time covered by its child spans; the bookkeeping a
wrapper does after its function returns (term counts, coefficient
sizes) is charged to neither side.  The package is only imported by
``install``, so importing this module patches nothing.
"""

from __future__ import annotations

import time

MUL = "algebra.mul"

# (module name, attribute, span name, kind); kind "" is a plain span,
# "mul" records product sizes, "divide" counts NotDivisibleError and
# "continue" counts continuations that return a polynomial.
TARGETS = (
    ("algebra.MultiPoly", "__mul__", MUL, "mul"),
    ("algebra.MultiPoly", "__rmul__", MUL, "mul"),
    ("algebra.MultiPoly", "__add__", "algebra.add", ""),
    ("algebra.MultiPoly", "__radd__", "algebra.add", ""),
    ("algebra.MultiPoly", "__pow__", "algebra.pow", ""),
    ("algebra.MultiPoly", "__eq__", "algebra.eq", ""),
    ("algebra.MultiPoly", "evaluate", "algebra.evaluate", ""),
    ("algebra", "exact_divide", "algebra.exact_divide", "divide"),
    ("ma_engine", "exact_divide", "algebra.exact_divide", "divide"),
    ("algebra", "determinant", "algebra.determinant", ""),
    ("ma_engine", "determinant", "algebra.determinant", ""),
    ("algebra", "determinant_cofactor", "algebra.determinant_cofactor", ""),
    ("ma_engine", "determinant_cofactor", "algebra.determinant_cofactor", ""),
    ("algebra", "adjugate", "algebra.adjugate", ""),
    ("ma_engine", "adjugate", "algebra.adjugate", ""),
    ("geometry", "toric_hessian_matrix", "geometry.toric_hessian_matrix", ""),
    ("ma_engine", "toric_hessian_matrix", "geometry.toric_hessian_matrix", ""),
    ("geometry", "ricci_numeric", "geometry.ricci_numeric", ""),
    ("geometry", "einstein_fit", "geometry.einstein_fit", ""),
    ("ma_engine", "log_ma_matrix", "ma_engine.log_ma_matrix", ""),
    ("ma_engine", "ma_lhs_log", "ma_engine.ma_lhs_log", ""),
    ("ma_engine", "verify_ma_star", "ma_engine.verify_ma_star", ""),
    ("ma_engine", "taylor_continue_n2", "ma_engine.taylor_continue_n2", "continue"),
    ("ma_engine", "feasible_k_scan_n2", "ma_engine.feasible_k_scan_n2", ""),
    ("catalog", "canonicalize", "catalog.canonicalize", ""),
    ("cli", "main", "cli.main", ""),
)

# Per-layer metrics of a traced run, "<layer>.<field>"; FIELD_UNITS gives
# each field's (unit, better).
LAYER_FIELDS = {
    MUL: ("calls", "term_pairs", "out_terms", "fill_ratio", "max_coeff_bits",
          "self_s"),
    "ma_engine.ma_lhs_log": ("calls", "incl_s", "self_s", "term_pairs"),
    "algebra.adjugate": ("calls", "incl_s", "term_pairs"),
    "algebra.determinant_cofactor": ("calls", "incl_s"),
    "algebra.pow": ("calls", "incl_s", "term_pairs"),
    "algebra.eq": ("calls", "self_s"),
    "algebra.exact_divide": ("calls", "self_s", "not_divisible"),
    "algebra.determinant": ("calls", "incl_s"),
    "algebra.add": ("calls", "self_s"),
    "ma_engine.taylor_continue_n2": ("calls", "consistent", "incl_s", "self_s",
                                     "term_pairs"),
    "ma_engine.log_ma_matrix": ("calls", "incl_s"),
    "ma_engine.feasible_k_scan_n2": ("calls", "incl_s"),
    "ma_engine.verify_ma_star": ("calls", "incl_s", "self_s"),
    "catalog.canonicalize": ("calls", "self_s"),
    "algebra.evaluate": ("calls", "self_s"),
    "geometry.ricci_numeric": ("calls", "self_s"),
    "geometry.einstein_fit": ("incl_s",),
    "geometry.toric_hessian_matrix": ("incl_s",),
    "cli.main": ("incl_s", "self_s"),
}
FIELD_UNITS = {
    "calls": ("count", "lower"),
    "term_pairs": ("count", "lower"),
    "out_terms": ("count", "lower"),
    "fill_ratio": ("ratio", "higher"),
    "max_coeff_bits": ("bits", "lower"),
    "not_divisible": ("count", "lower"),
    "consistent": ("count", "higher"),
    "incl_s": ("s", "lower"),
    "self_s": ("s", "lower"),
}
# Measured by run.py rather than by spans: (name, unit, better).
RUN_METRICS = (
    ("cli.report_bytes", "bytes", "lower"),
    ("cli.failed_ratio", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def per_layer_specs() -> list:
    specs = [
        (f"{layer}.{field}",) + FIELD_UNITS[field]
        for layer, fields in LAYER_FIELDS.items()
        for field in fields
    ]
    return specs + list(RUN_METRICS)


def _coeff_bits(terms) -> int:
    return max(
        (max(abs(c.numerator).bit_length(), c.denominator.bit_length())
         for c in terms.values()),
        default=0,
    )


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, parent, start, end, covered_until, a, b, c]
        self._stack = []
        self._saved = []

    def reset(self):
        self.spans = []
        self._stack.clear()

    def span(self, name, fn, kind=""):
        """Return fn wrapped so that each call records a span."""
        clock = self.clock
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            spans = tracer.spans
            idx = len(spans)
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0, 0, 0, 0]
            spans.append(rec)
            stack.append(idx)
            failed = result = None
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                failed = exc
                raise
            finally:
                rec[3] = clock()
                stack.pop()
                if kind == "divide":
                    rec[5] = int(type(failed).__name__ == "NotDivisibleError")
                elif kind == "continue" and failed is None:
                    rec[5] = int(result is not None)
                elif kind == "mul" and failed is None:
                    other = args[1]
                    if hasattr(other, "_terms") and hasattr(result, "_terms"):
                        rec[5] = len(args[0]._terms) * len(other._terms)
                    elif hasattr(result, "_terms"):
                        rec[5] = len(args[0]._terms)
                    if hasattr(result, "_terms"):
                        rec[6] = len(result._terms)
                        rec[7] = _coeff_bits(result._terms)
                rec[4] = clock()
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Rebind every target; restore() undoes it."""
        import importlib

        if self._saved:
            raise RuntimeError("tracer already installed")
        for where, attr, name, kind in TARGETS:
            modname, _, clsname = where.partition(".")
            owner = importlib.import_module("toricpke." + modname)
            if clsname:
                owner = getattr(owner, clsname)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.span(name, original, kind))

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def aggregate(self) -> dict:
        """Per-name totals over the recorded spans.

        Returns {name: {"calls", "incl_s", "self_s", "term_pairs", "flag",
        "out_terms", "max_bits"}}.  For algebra.mul, term_pairs counts all
        term pairs multiplied; for any other name, the pairs of the
        products made directly inside its spans.
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        for _name, parent, start, _end, until, *_ in spans:
            if parent >= 0:
                covered[parent] += until - start
        totals = {}

        def entry(name):
            t = totals.get(name)
            if t is None:
                t = totals[name] = dict(_EMPTY)
            return t

        for i, (name, parent, start, end, _until, a, b, c) in enumerate(spans):
            t = entry(name)
            t["calls"] += 1
            t["incl_s"] += end - start
            t["self_s"] += end - start - covered[i]
            if name == MUL:
                t["term_pairs"] += a
                t["out_terms"] += b
                t["max_bits"] = max(t["max_bits"], c)
                if parent >= 0:
                    entry(spans[parent][0])["term_pairs"] += a
            else:
                t["flag"] += a
        return totals


_EMPTY = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "term_pairs": 0,
          "flag": 0, "out_terms": 0, "max_bits": 0}


def layer_metrics(totals: dict) -> dict:
    """Map aggregate totals to the per-layer metric names of LAYER_FIELDS."""
    out = {}
    for layer, fields in LAYER_FIELDS.items():
        t = totals.get(layer, _EMPTY)
        for field in fields:
            if field == "fill_ratio":
                value = t["out_terms"] / t["term_pairs"] if t["term_pairs"] else 0.0
            elif field == "max_coeff_bits":
                value = t["max_bits"]
            elif field in ("not_divisible", "consistent"):
                value = t["flag"]
            else:
                value = t[field]
            out[f"{layer}.{field}"] = value
    return out

"""Potentials, metrics, and float checks of Einstein verdicts.

A toric potential depends on the products x_i = xi_i * eta_i only; it is
either a polynomial Phi = P(x) or a log-power Phi = k*log P(x).  For a
function f of x, d^2 f / (d xi_i d eta_j) is the toric form
f_ij*xi_j*eta_i + f_i*delta_ij.  The metric g is that of Phi.  Each
potential plans once how to evaluate P, its gradient and its upper
Hessian from P's integer numerators: at a point, one table of their
distinct monomials, then one dot product per derivative over P's
denominator (exact at Fraction points, floats at float points).  g(xi,
eta) is conjugate to g(x, 1) by diag(eta), so log|det g| is a function F
of x alone.

Whether Phi is Einstein is decided exactly by einstein.einstein_exponent;
einstein_residual is the float cross-check of that verdict.  The numeric
Ricci tensor Ric_ij = -d^2 log|det g| / (d xi_i d eta_j), minus the
toric form of F differenced in x by one fourth-order central stencil,
and the least-squares einstein_fit built on it are the tests'
independent oracle: no command uses them.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple

from toricpke.algebra import (
    DomainError,
    MultiPoly,
    Scalar,
    json_int,
    toric_hessian_matrix,  # noqa: F401  re-bound by perfbench/tracing.py
)

P_ZERO_TOL = 1e-9
# Step in x of the Ricci stencil: on the projective models of dimension 1-3
# and the K = 1 catalog potentials of dimension 1-4 the residual is < 2e-7.
RICCI_STEP = 1e-4


class ToricPotential:
    """Phi = P(x) (kind "poly") or Phi = k*log P(x) (kind "log").

    Immutable, so that the plan derived on first use cannot go stale; equal
    and hashed by (kind, P, k).
    """

    def __init__(self, kind: str, P: MultiPoly, k: Scalar = Fraction(1)):
        if kind not in ("poly", "log"):
            raise ValueError(f"unknown potential kind {kind!r}")
        k = Fraction(k)
        if kind == "log":
            if P.constant_term() not in (1, -1):
                raise ValueError("log potential needs P(0) = +-1")
            if k <= 0:
                raise ValueError("log potential needs a positive exponent")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "k", k)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.P, self.k) == (other.kind, other.P, other.k)

    def __hash__(self):
        return hash((self.kind, self.P, self.k))

    def __repr__(self):
        return f"ToricPotential(kind={self.kind!r}, P={self.P!r}, k={self.k!r})"

    @property
    def nvars(self) -> int:
        return self.P.nvars

    # derived on first use: catalog potentials can have 10^4 terms and are
    # rarely evaluated
    @functools.cached_property
    def _plan(self) -> tuple:
        """(steps, rows, coeffs): the monomial table and dot products of eval_metric.

        Row r is P (kind "log" only), then P_i, then P_ij for j >= i, read
        off P's integer numerators in P's term order; its value is the sum
        of coeffs[r][t] times monomial rows[r][t], over P's denominator.
        Monomial 0 is 1, and monomial m > 0 is monomial steps[m-1][0] times
        x_l**d, (l, d) = steps[m-1][1:]: the earlier one is m's exponent
        with its last nonzero entry, d at l, set to 0.  So a chain has at
        most n steps, whatever the exponents.
        """
        def derivative(row, i):
            return [(e[:i] + (e[i] - 1,) + e[i + 1:], c * e[i]) for e, c in row if e[i]]

        n = self.nvars
        p = list(self.P.integer_terms[1].items())
        grad = [derivative(p, i) for i in range(n)]
        rows = [p] * (self.kind == "log") + grad + [
            derivative(grad[i], j) for i in range(n) for j in range(i, n)]
        index = {(0,) * n: 0}
        steps = []

        def monomial(exp):
            m = index.get(exp)
            if m is None:
                l = max(i for i, e in enumerate(exp) if e)
                steps.append((monomial(exp[:l] + (0,) * (n - l)), l, exp[l]))
                m = index[exp] = len(steps)
            return m

        return (steps, [[monomial(e) for e, _ in row] for row in rows],
                [[c for _, c in row] for row in rows])

    # converted at the first float point, so that a coefficient beyond the
    # float range raises OverflowError inside the float check that asked;
    # int division rounds correctly, so each is the nearest float to c/den
    @functools.cached_property
    def _float_coeffs(self) -> list:
        den = self.P.integer_terms[0]
        return [[c / den for c in row] for row in self._plan[2]]

    def phi(self, xi, eta):
        """Potential value at null coordinates (xi, eta)."""
        x = [a * b for a, b in zip(xi, eta)]
        val = self.P.evaluate(x)
        if self.kind == "poly":
            return val
        if abs(val) < P_ZERO_TOL:
            raise DomainError("P vanishes at the evaluation point")
        return float(self.k) * math.log(abs(val))

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "P": self.P.to_json_dict(),
            "k_num": self.k.numerator,
            "k_den": self.k.denominator,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ToricPotential":
        return cls(
            data["kind"],
            MultiPoly.from_json_dict(data["P"]),
            Fraction(json_int(data.get("k_num", 1)), json_int(data.get("k_den", 1))),
        )


class EinsteinFit(NamedTuple):
    lam: float
    max_residual: float


def _toric_form(grad, upper, xi, eta) -> list:
    """d^2 f/(d xi_i d eta_j) = f_ij*xi_j*eta_i + f_i*delta_ij, as rows.

    grad and upper are f's gradient and upper-triangular Hessian at x = xi*eta.
    """
    n = len(grad)
    return [[upper[min(i, j)][abs(j - i)] * xi[j] * eta[i] + (grad[i] if i == j else 0)
             for j in range(n)] for i in range(n)]


def eval_metric(potential: ToricPotential, xi, eta) -> list:
    """Metric components g_ij = d^2 Phi/(d xi_i d eta_j) at a point, as rows.

    Exact Fractions at Fraction points, floats at float points.  g is the
    toric form of P for kind "poly", and of k*log P, with gradient
    k*P_i/P and Hessian k*(P_ij/P - P_i*P_j/P^2), for kind "log".
    """
    return _metric(potential, xi, eta)[1]


def _metric(potential: ToricPotential, xi, eta) -> tuple:
    """(p, g): g as eval_metric gives it, p = P(x) for kind "log", else None."""
    steps, rows, coeffs = potential._plan
    x = [a * b for a, b in zip(xi, eta)]
    if all(isinstance(v, (int, Fraction)) for v in x):
        # 1/den rides on monomial 0, and so on every monomial
        table = [Fraction(1, potential.P.integer_terms[0])]
    else:
        coeffs, table = potential._float_coeffs, [1]
    for m, l, d in steps:
        table.append(table[m] * x[l] ** d)
    vals = iter([sum(map(operator.mul, c, map(table.__getitem__, idx)))
                 for idx, c in zip(rows, coeffs)])
    n = len(x)
    p = next(vals) if potential.kind == "log" else None
    pi = [next(vals) for _ in range(n)]
    upper = [[next(vals) for _ in range(i, n)] for i in range(n)]
    if p is not None:
        if abs(p) < P_ZERO_TOL:
            raise DomainError("P vanishes at the evaluation point")
        k = potential.k if isinstance(p, Fraction) else float(potential.k)
        upper = [[k * (v / p - pi[i] * pi[i + d] / (p * p)) for d, v in enumerate(row)]
                 for i, row in enumerate(upper)]
        pi = [k * v / p for v in pi]
    return p, _toric_form(pi, upper, xi, eta)


def _det(m) -> float:
    """Determinant of a small numeric matrix by Gaussian elimination."""
    n = len(m)
    a = [list(map(float, row)) for row in m]
    det = 1.0
    for k in range(n):
        piv = max(range(k, n), key=lambda r: abs(a[r][k]))
        if abs(a[piv][k]) == 0.0:
            return 0.0
        if piv != k:
            a[piv], a[k] = a[k], a[piv]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return det


_D1_STENCIL = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))  # /(12 h)


def ricci_numeric(potential: ToricPotential, xi, eta):
    """Mixed Ricci components -d^2 log|det g| / (d xi_i d eta_j).

    Minus the toric form of F(x) = log|det g(x, 1)|, with F_i the
    fourth-order central difference along axis i and F_ij (i <= j) the
    same stencil along axes i and j.  Every stencil point must stay in
    the domain and det g must keep its sign across the stencil.  Each
    distinct stencil point is evaluated once.
    """
    n = potential.nvars
    xi = [float(v) for v in xi]
    eta = [float(v) for v in eta]
    x = [a * b for a, b in zip(xi, eta)]
    # the stencils of F_i, F_ii and F_ij share points, so det g is kept
    # per offset vector: 1 + 8n^2 distinct points of 1 + 4n + 8n(n+1)
    dets = {}

    def det_at(shifts):
        offset = [0] * n
        for i, a in shifts:
            offset[i] += a
        key = tuple(offset)
        d = dets.get(key)
        if d is None:
            pt = [v + k * RICCI_STEP for v, k in zip(x, offset)]
            d = dets[key] = _det(eval_metric(potential, pt, [1.0] * n))
            if abs(d) < 1e-300:
                raise DomainError("det g vanishes on the stencil")
        return d

    sign = math.copysign(1.0, det_at(()))

    def log_det(*shifts):
        d = det_at(shifts)
        if math.copysign(1.0, d) != sign:
            raise DomainError("det g changes sign on the stencil")
        return math.log(abs(d))

    h = 12.0 * RICCI_STEP
    grad = [sum(c * log_det((i, a)) for a, c in _D1_STENCIL) / h for i in range(n)]
    upper = [[sum(ca * cb * log_det((i, a), (j, b)) for a, ca in _D1_STENCIL
                  for b, cb in _D1_STENCIL) / (h * h) for j in range(i, n)]
             for i in range(n)]
    return [[-v for v in row] for row in _toric_form(grad, upper, xi, eta)]


def einstein_fit(potential: ToricPotential, points) -> EinsteinFit:
    """Least-squares Einstein constant and worst residual over points.

    points is a list of (xi, eta) pairs; lambda is fitted over all
    metric entries of all points, then max |Ric - lambda*g| is reported.
    """
    if len(points) < 3:
        raise ValueError("need at least 3 sample points")
    pairs = []  # (Ric_ij, g_ij) over every entry at every point
    for xi, eta in points:
        xi = [float(v) for v in xi]
        eta = [float(v) for v in eta]
        try:
            g = eval_metric(potential, xi, eta)
            ric = ricci_numeric(potential, xi, eta)
        except OverflowError as exc:
            raise DomainError(f"value beyond float range: {exc}") from exc
        # an overflow that float arithmetic turns into inf or nan would
        # slip through max() below and read as a perfect fit
        if not all(math.isfinite(v) for row in g + ric for v in row):
            raise DomainError("metric or Ricci value beyond float range")
        pairs += zip(itertools.chain(*ric), itertools.chain(*g))
    den = sum(v * v for _, v in pairs)
    lam = sum(r * v for r, v in pairs) / den if den else 0.0
    return EinsteinFit(lam, max(abs(r - lam * v) for r, v in pairs))


def einstein_residual(potential: ToricPotential, lam, C, points) -> float:
    """max over points of |log|det g| + lam*Phi - log|c||, in floats.

    For Phi = k*log P, det g = k^n*L/P^(n+1) with L the log-type left side
    of P, so L = C*(eps*P)^e and lam = (n+1-e)/k make the sum the constant
    log|c|, c = k^n*C; for Phi = P, det g is the flat-type left side, so
    lam must be 0 and c = C.  Per point, one metric, whose P(x) gives Phi,
    and one determinant.  A zero of P or det g, and a value beyond the
    float range, raise DomainError.
    """
    n = potential.nvars
    c = Fraction(C) * potential.k**n if potential.kind == "log" else Fraction(C)
    # math.log takes ints of any size, so c never has to fit a float
    log_c = math.log(abs(c.numerator)) - math.log(c.denominator)
    lam = float(lam)
    worst = 0.0
    for xi, eta in points:
        try:
            p, g = _metric(potential, xi, eta)
            d = _det(g)
            phi = float(potential.k) * math.log(abs(p)) if lam else 0.0
        except OverflowError as exc:
            raise DomainError(f"value beyond float range: {exc}") from exc
        if not (math.isfinite(d) and d and math.isfinite(phi)):
            raise DomainError("det g or Phi is zero or beyond float range")
        worst = max(worst, abs(math.log(abs(d)) + lam * phi - log_c))
    return worst


def four_point_combination(phi, xi, eta, zeta, lam):
    """Phi(xi,eta) - Phi(zeta,eta) - Phi(xi,lam) + Phi(zeta,lam)."""
    return phi(xi, eta) - phi(zeta, eta) - phi(xi, lam) + phi(zeta, lam)


def diastasis_eval(potential: ToricPotential, xi, eta, zeta, lam):
    """Alternating four-point sum of the potential.

    Independent of separable gauge terms f(xi) + g(eta); equals
    Phi(xi,eta) - Phi(0,0) when zeta = lam = 0.
    """
    return four_point_combination(potential.phi, xi, eta, zeta, lam)


def space_form_potential(c, n: int) -> ToricPotential:
    """Model potential of constant para-holomorphic sectional curvature c.

    c = 0: the flat model 4*(x_1 + ... + x_n); otherwise the projective
    model (8/c)*log(1 + 2*(x_1 + ... + x_n)).
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    c = Fraction(c)
    s = MultiPoly(n, {tuple(1 if j == i else 0 for j in range(n)): Fraction(1) for i in range(n)})
    if c == 0:
        return ToricPotential("poly", 4 * s)
    return ToricPotential("log", MultiPoly.one(n) + 2 * s, Fraction(8) / c)

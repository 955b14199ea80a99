"""Potentials, metrics and numeric Einstein checks.

A toric potential depends on the products x_i = xi_i * eta_i only; it is
either a polynomial Phi = P(x) or a log-power Phi = k*log P(x).  The
associated pseudo-Riemannian metric has components
g_ij = d^2 Phi / (d xi_i d eta_j); its mixed Ricci components are
Ric_ij = -d^2 log|det g| / (d xi_i d eta_j), evaluated here with
fourth-order central finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from toricpke.algebra import MultiPoly, PolyMatrix, Scalar, json_int

P_ZERO_TOL = 1e-9
DEFAULT_STEP = 1e-3


class DomainError(ArithmeticError):
    """Evaluation hit a zero of P or of det g, or left the float range."""


@dataclass(frozen=True)
class ToricPotential:
    """Phi = P(x) (kind "poly") or Phi = k*log P(x) (kind "log")."""

    kind: str
    P: MultiPoly
    k: Scalar = Fraction(1)

    def __post_init__(self):
        if self.kind not in ("poly", "log"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        object.__setattr__(self, "k", Fraction(self.k))
        c0 = self.P.constant_term()
        if self.kind == "log":
            if c0 not in (1, -1):
                raise ValueError("log potential needs P(0) = +-1")
            if self.k <= 0:
                raise ValueError("log potential needs a positive exponent")

    @property
    def nvars(self) -> int:
        return self.P.nvars

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


@dataclass(frozen=True)
class MetricSample:
    g: tuple  # n x n matrix, row tuples
    xi: tuple
    eta: tuple


@dataclass(frozen=True)
class EinsteinFit:
    lam: float
    max_residual: float


def toric_hessian_matrix(d0: MultiPoly) -> PolyMatrix:
    """Matrix (d^2 D0/dx_i dx_j)*x_i + (d D0/dx_j)*delta_ij.

    Its determinant is the flat-type Monge-Ampere left side.
    """
    n = d0.nvars
    grad = [d0.partial_derivative(j) for j in range(n)]
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            entry = grad[j].partial_derivative(i) * MultiPoly.variable(n, i)
            if i == j:
                entry = entry + grad[j]
            row.append(entry)
        rows.append(row)
    return PolyMatrix(rows)


class _MetricEvaluator:
    """Caches the symbolic derivatives of P needed for metric values."""

    def __init__(self, potential: ToricPotential):
        self.potential = potential
        n = potential.nvars
        self.n = n
        self.grad = [potential.P.partial_derivative(i) for i in range(n)]
        self.hess = [
            [self.grad[i].partial_derivative(j) for j in range(n)] for i in range(n)
        ]

    def metric(self, xi, eta):
        """g_ij at (xi, eta); exact when the inputs are Fractions."""
        n = self.n
        pot = self.potential
        x = [a * b for a, b in zip(xi, eta)]
        pi = [g.evaluate(x) for g in self.grad]
        pij = [[self.hess[i][j].evaluate(x) for j in range(n)] for i in range(n)]
        if pot.kind == "poly":
            return [
                [
                    pij[i][j] * xi[j] * eta[i] + (pi[i] if i == j else 0)
                    for j in range(n)
                ]
                for i in range(n)
            ]
        p = pot.P.evaluate(x)
        if abs(p) < P_ZERO_TOL:
            raise DomainError("P vanishes at the evaluation point")
        k = pot.k if isinstance(p, Fraction) else float(pot.k)
        g = []
        for i in range(n):
            row = []
            for j in range(n):
                val = (pij[i][j] * xi[j] * eta[i] + (pi[i] if i == j else 0)) / p
                val = val - pi[i] * eta[i] * pi[j] * xi[j] / (p * p)
                row.append(k * val)
            g.append(row)
        return g


def eval_metric(potential: ToricPotential, xi, eta) -> MetricSample:
    """Metric components g_ij = d^2 Phi/(d xi_i d eta_j) at a point."""
    g = _MetricEvaluator(potential).metric(xi, eta)
    return MetricSample(
        g=tuple(tuple(row) for row in g), xi=tuple(xi), eta=tuple(eta)
    )


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


def ricci_numeric(potential: ToricPotential, xi, eta, step: float = DEFAULT_STEP):
    """Mixed Ricci components -d^2 log|det g| / (d xi_i d eta_j).

    Fourth-order central differences; every stencil point must stay in
    the domain and det g must keep its sign across the stencil.
    """
    n = potential.nvars
    ev = _MetricEvaluator(potential)
    xi = [float(v) for v in xi]
    eta = [float(v) for v in eta]

    def logdet(x, e):
        d = _det(ev.metric(x, e))
        if abs(d) < 1e-300:
            raise DomainError("det g vanishes on the stencil")
        return math.log(abs(d)), d

    base_sign = math.copysign(1.0, logdet(xi, eta)[1])
    ric = [[0.0] * n for _ in range(n)]
    inv = 1.0 / (12.0 * step) ** 2
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for a, ca in _D1_STENCIL:
                xs = xi[:]
                xs[i] += a * step
                for b, cb in _D1_STENCIL:
                    es = eta[:]
                    es[j] += b * step
                    val, d = logdet(xs, es)
                    if math.copysign(1.0, d) != base_sign:
                        raise DomainError("det g changes sign on the stencil")
                    acc += ca * cb * val
            ric[i][j] = -acc * inv
    return ric


def einstein_fit(potential: ToricPotential, points, step: float = DEFAULT_STEP) -> EinsteinFit:
    """Least-squares Einstein constant and worst residual over points.

    points is a list of (xi, eta) pairs; lambda is fitted over all
    metric entries of all points, then max |Ric - lambda*g| is reported.
    """
    if len(points) < 3:
        raise ValueError("need at least 3 sample points")
    n = potential.nvars
    ev = _MetricEvaluator(potential)
    samples = []
    num = 0.0
    den = 0.0
    for xi, eta in points:
        xi = [float(v) for v in xi]
        eta = [float(v) for v in eta]
        try:
            g = [[float(v) for v in row] for row in ev.metric(xi, eta)]
            ric = ricci_numeric(potential, xi, eta, step)
        except OverflowError as exc:
            raise DomainError(f"value beyond float range: {exc}") from exc
        # an overflow that float arithmetic turns into inf or nan would
        # slip through max() below and read as a perfect fit
        if not all(math.isfinite(v) for row in g + ric for v in row):
            raise DomainError("metric or Ricci value beyond float range")
        samples.append((g, ric))
        for i in range(n):
            for j in range(n):
                num += ric[i][j] * g[i][j]
                den += g[i][j] * g[i][j]
    lam = num / den if den else 0.0
    resid = 0.0
    for g, ric in samples:
        for i in range(n):
            for j in range(n):
                resid = max(resid, abs(ric[i][j] - lam * g[i][j]))
    return EinsteinFit(lam=lam, max_residual=resid)


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

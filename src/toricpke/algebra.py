"""Exact sparse multivariate polynomial arithmetic over the rationals.

Polynomials are immutable maps from exponent tuples to Fractions; all
arithmetic is exact.  The module also provides polynomial matrices with
two independent determinant routes (fraction-free elimination and
cofactor expansion), exact division, exact q-th roots and recognition of
binomial powers eps*(1 + t/r)^k of univariate polynomials.
"""

from __future__ import annotations

import heapq
import json
import math
from fractions import Fraction
from typing import Iterable, NamedTuple

from toricpke._kernel import mul_terms

Scalar = Fraction


class NotDivisibleError(ArithmeticError):
    """Raised when exact polynomial division has no polynomial quotient."""


class NoExactRootError(ArithmeticError):
    """Raised when a polynomial is not an exact q-th power over Q."""


class NotBinomialPowerError(ArithmeticError):
    """Raised when a univariate polynomial is not eps*(1 + t/r)^k."""


def _as_scalar(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected rational scalar, got {type(c).__name__}")


def grlex_key(exp: tuple) -> tuple:
    """Graded-lexicographic sort key (total degree first, then lex)."""
    return (sum(exp), exp)


class MultiPoly:
    """Sparse exact polynomial in nvars variables.

    Immutable; zero coefficients are never stored.  Equality and hashing
    compare the term maps exactly.
    """

    __slots__ = ("nvars", "_terms", "_hash")

    def __init__(self, nvars: int, terms=None):
        if nvars < 1:
            raise ValueError("nvars must be positive")
        clean = {}
        if terms:
            for exp, coeff in dict(terms).items():
                exp = tuple(exp)
                if len(exp) != nvars or any(e < 0 for e in exp):
                    raise ValueError(f"bad exponent tuple {exp} for nvars={nvars}")
                c = _as_scalar(coeff)
                if c:
                    clean[exp] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *args):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: _as_scalar(c)})

    @classmethod
    def one(cls, nvars: int) -> "MultiPoly":
        return cls.constant(nvars, 1)

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MultiPoly":
        """The monomial x_i (0-based index)."""
        if not 0 <= i < nvars:
            raise IndexError(f"variable index {i} out of range for nvars={nvars}")
        exp = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {exp: Fraction(1)})

    @classmethod
    def _raw(cls, nvars: int, terms: dict) -> "MultiPoly":
        # internal: terms already normalized (tuples, nonzero Fractions)
        p = cls.__new__(cls)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(p, "_terms", terms)
        object.__setattr__(p, "_hash", None)
        return p

    # -- basic queries ------------------------------------------------

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self):
        """Total degree; -inf for the zero polynomial."""
        if not self._terms:
            return float("-inf")
        return max(sum(e) for e in self._terms)

    def degree_in(self, i: int):
        if not self._terms:
            return float("-inf")
        return max(e[i] for e in self._terms)

    def coefficient(self, exp: Iterable[int]) -> Fraction:
        return self._terms.get(tuple(exp), Fraction(0))

    def constant_term(self) -> Fraction:
        return self._terms.get((0,) * self.nvars, Fraction(0))

    def leading_term(self) -> tuple:
        """(exponent, coefficient) of the grlex-largest term."""
        exp = max(self._terms, key=grlex_key)
        return exp, self._terms[exp]

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self._terms)

    # -- ring operations ----------------------------------------------

    def _check_compatible(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise ValueError("nvars mismatch")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.nvars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self._terms)
        for exp, c in other._terms.items():
            s = out.get(exp, Fraction(0)) + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return MultiPoly._raw(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._raw(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.nvars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_scalar(other)
            if not c:
                return MultiPoly.zero(self.nvars)
            return MultiPoly._raw(
                self.nvars, {e: c * v for e, v in self._terms.items()}
            )
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_compatible(other)
        if not self._terms or not other._terms:
            return MultiPoly.zero(self.nvars)
        return MultiPoly._raw(self.nvars, mul_terms(self._terms, other._terms))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = MultiPoly.one(self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base_needed = k >> 1
            if base_needed:
                base = base * base
            k = base_needed
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.nvars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.nvars, frozenset(self._terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    # -- calculus and substitution ------------------------------------

    def partial_derivative(self, i: int) -> "MultiPoly":
        """Exact formal partial derivative with respect to x_i (0-based)."""
        if not 0 <= i < self.nvars:
            raise IndexError(f"variable index {i} out of range")
        out = {}
        for exp, c in self._terms.items():
            e = exp[i]
            if e:
                new = exp[:i] + (e - 1,) + exp[i + 1:]
                out[new] = out.get(new, Fraction(0)) + c * e
        return MultiPoly(self.nvars, out)

    def scale_vars(self, factors) -> "MultiPoly":
        """Substitute x_i -> factors[i] * x_i; all factors must be nonzero."""
        factors = [_as_scalar(f) for f in factors]
        if len(factors) != self.nvars:
            raise ValueError("need one factor per variable")
        if any(f == 0 for f in factors):
            raise ValueError("scale factors must be nonzero")
        out = {}
        for exp, c in self._terms.items():
            for i, e in enumerate(exp):
                if e:
                    c = c * factors[i] ** e
            out[exp] = c
        return MultiPoly._raw(self.nvars, out)

    def substitute(self, args: list["MultiPoly"]) -> "MultiPoly":
        """Full substitution x_i -> args[i]; all args share one nvars."""
        if len(args) != self.nvars:
            raise ValueError("need one substitution per variable")
        m = args[0].nvars
        result = MultiPoly.zero(m)
        powers = [{0: MultiPoly.one(m)} for _ in range(self.nvars)]

        def power(i, e):
            cache = powers[i]
            if e not in cache:
                cache[e] = power(i, e - 1) * args[i]
            return cache[e]

        for exp, c in self._terms.items():
            term = MultiPoly.constant(m, c)
            for i, e in enumerate(exp):
                if e:
                    term = term * power(i, e)
            result = result + term
        return result

    def restrict_to_axis(self, i: int) -> "MultiPoly":
        """Set x_j = 0 for all j != i; returns a univariate polynomial."""
        if not 0 <= i < self.nvars:
            raise IndexError(f"variable index {i} out of range")
        out = {}
        for exp, c in self._terms.items():
            if all(e == 0 for j, e in enumerate(exp) if j != i):
                out[(exp[i],)] = c
        return MultiPoly(1, out)

    def evaluate(self, point):
        """Evaluate at a point; the numeric type of the inputs is preserved."""
        if len(point) != self.nvars:
            raise ValueError("need one value per variable")
        total = None
        for exp, c in self._terms.items():
            v = c
            for i, e in enumerate(exp):
                if e:
                    v = v * point[i] ** e
            total = v if total is None else total + v
        if total is None:
            return 0 * point[0] if point else 0
        return total

    # -- serialization and printing -----------------------------------

    def sorted_terms(self) -> list:
        return sorted(self._terms.items(), key=lambda t: grlex_key(t[0]))

    def to_json_dict(self) -> dict:
        return {
            "nvars": self.nvars,
            "terms": [
                {"exp": list(exp), "num": str(c.numerator), "den": str(c.denominator)}
                for exp, c in self.sorted_terms()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "MultiPoly":
        nvars = int(data["nvars"])
        terms = {}
        for t in data["terms"]:
            exp = tuple(int(e) for e in t["exp"])
            terms[exp] = Fraction(int(t["num"]), int(t["den"]))
        return cls(nvars, terms)

    @classmethod
    def from_json(cls, text: str) -> "MultiPoly":
        return cls.from_json_dict(json.loads(text))

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for exp, c in self.sorted_terms():
            mono = "*".join(
                f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exp)
                if e
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"MultiPoly({self})"


def poly_from_coeffs(coeffs) -> MultiPoly:
    """Univariate polynomial from a coefficient list, lowest degree first."""
    return MultiPoly(1, {(i,): _as_scalar(c) for i, c in enumerate(coeffs)})


class PolyMatrix:
    """Dense matrix of MultiPoly entries sharing a common nvars."""

    def __init__(self, entries: list):
        if not entries or not entries[0]:
            raise ValueError("matrix must be non-empty")
        cols = len(entries[0])
        nv = entries[0][0].nvars
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged rows")
            for p in row:
                if p.nvars != nv:
                    raise ValueError("entries must share nvars")
        self.entries = [list(row) for row in entries]
        self.rows = len(entries)
        self.cols = cols
        self.nvars = nv

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]


def determinant(m: PolyMatrix) -> MultiPoly:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Intermediate divisions by the previous pivot are exact over the
    polynomial ring, keeping entry growth minimal.
    """
    if m.rows != m.cols:
        raise ValueError("determinant requires a square matrix")
    n = m.rows
    nv = m.nvars
    a = [row[:] for row in m.entries]
    sign = 1
    prev = MultiPoly.one(nv)
    for k in range(n - 1):
        pivot_row = k
        while a[pivot_row][k].is_zero():
            pivot_row += 1
            if pivot_row == n:
                return MultiPoly.zero(nv)
        if pivot_row != k:
            a[pivot_row], a[k] = a[k], a[pivot_row]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = exact_divide(num, prev)
            a[i][k] = MultiPoly.zero(nv)
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return det if sign == 1 else -det


def determinant_cofactor(m: PolyMatrix) -> MultiPoly:
    """Determinant by first-row cofactor expansion (independent oracle)."""
    if m.rows != m.cols:
        raise ValueError("determinant requires a square matrix")
    return _cofactor_det(m.entries)


def _cofactor_det(a: list) -> MultiPoly:
    n = len(a)
    if n == 1:
        return a[0][0]
    nv = a[0][0].nvars
    total = MultiPoly.zero(nv)
    for j in range(n):
        if a[0][j].is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        term = a[0][j] * _cofactor_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def adjugate(m: PolyMatrix) -> PolyMatrix:
    """Adjugate matrix via cofactors; adj(M)*M = det(M)*I."""
    if m.rows != m.cols:
        raise ValueError("adjugate requires a square matrix")
    n = m.rows
    if n == 1:
        return PolyMatrix([[MultiPoly.one(m.nvars)]])
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [m.entries[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            cof = _cofactor_det(minor)
            adj[j][i] = cof if (i + j) % 2 == 0 else -cof
    return PolyMatrix(adj)


def _heap_key(exp: tuple) -> tuple:
    # min-heap entry that pops the grlex-largest exponent first
    return (-sum(exp), tuple(-e for e in exp))


def exact_divide(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Return q with a = q*b exactly, or raise NotDivisibleError.

    Single-divisor reduction under the grlex order: for a true multiple
    the leading term of the remainder is always reducible, so an
    irreducible leading term certifies non-divisibility.  The remainder
    front is kept in a heap so each step is logarithmic.
    """
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    a._check_compatible(b)
    nv = a.nvars
    if a.is_zero():
        return MultiPoly.zero(nv)
    if b.is_constant():
        return a * (1 / b.constant_term())
    lead_exp, lead_c = b.leading_term()
    b_rest = [(e, c) for e, c in b.terms.items() if e != lead_exp]
    rem = dict(a._terms)
    quotient = {}
    heap = [_heap_key(e) for e in rem]
    heapq.heapify(heap)
    while heap:
        _, neg = heapq.heappop(heap)
        rexp = tuple(-e for e in neg)
        rc = rem.pop(rexp, None)
        if rc is None:
            continue  # stale entry, already cancelled
        qexp = tuple(re - le for re, le in zip(rexp, lead_exp))
        if any(e < 0 for e in qexp):
            raise NotDivisibleError(f"{a} is not divisible by {b}")
        qc = rc / lead_c
        quotient[qexp] = qc
        for be, bc in b_rest:
            e2 = tuple(q + e for q, e in zip(qexp, be))
            cur = rem.get(e2)
            if cur is None:
                rem[e2] = -qc * bc
                heapq.heappush(heap, _heap_key(e2))
            else:
                cur = cur - qc * bc
                if cur:
                    rem[e2] = cur
                else:
                    del rem[e2]
    return MultiPoly(nv, quotient)


def divides(b: MultiPoly, a: MultiPoly) -> bool:
    try:
        exact_divide(a, b)
        return True
    except NotDivisibleError:
        return False


def _rational_nth_root(c: Fraction, q: int) -> Fraction:
    """Exact q-th root of a rational, or raise NoExactRootError."""
    if c == 0:
        return Fraction(0)
    if c < 0:
        if q % 2 == 0:
            raise NoExactRootError(f"no real {q}-th root of {c}")
        return -_rational_nth_root(-c, q)
    num = _integer_nth_root(c.numerator, q)
    den = _integer_nth_root(c.denominator, q)
    return Fraction(num, den)


def _integer_nth_root(v: int, q: int) -> int:
    """Exact q-th root of an integer v >= 0, in integer arithmetic only."""
    if q == 2:
        r = math.isqrt(v)
    elif v < 2:
        r = v
    else:
        # Newton's iteration from above decreases to floor(v^(1/q))
        r = 1 << -(-v.bit_length() // q)
        while True:
            s = ((q - 1) * r + v // r ** (q - 1)) // q
            if s >= r:
                break
            r = s
    if r**q != v:
        raise NoExactRootError(f"{v} is not an exact {q}-th power")
    return r


def nth_root(p: MultiPoly, q: int) -> MultiPoly:
    """Return R with R^q = p when R has rational coefficients.

    Coefficients of R are determined degree by degree from the constant
    term upward; the result is re-raised to the q-th power and compared
    exactly, so a successful return is a certificate.
    """
    if q < 1:
        raise ValueError("root order must be a positive integer")
    if q == 1:
        return p
    nv = p.nvars
    if p.is_zero():
        return MultiPoly.zero(nv)
    deg = p.degree()
    if deg % q != 0:
        raise NoExactRootError(f"degree {deg} not divisible by {q}")
    c0 = p.constant_term()
    if c0 == 0:
        raise NoExactRootError("zero constant term not supported")
    r0 = _rational_nth_root(c0, q)
    root = MultiPoly.constant(nv, r0)
    bound = deg // q
    # lowest grlex discrepancy of p - root^q is linear in the next coefficient
    lead_factor = q * r0 ** (q - 1)
    while True:
        diff = p - root**q
        if diff.is_zero():
            return root
        exp = min(diff._terms, key=grlex_key)
        if sum(exp) > bound:
            raise NoExactRootError(f"not an exact {q}-th power")
        coeff = diff._terms[exp] / lead_factor
        root = root + MultiPoly(nv, {exp: coeff})


class BinomialProfile(NamedTuple):
    epsilon: int
    r: Fraction
    k: int


def binomial_profile(p: MultiPoly) -> BinomialProfile:
    """Recognize p(t) = eps*(1 + t/r)^k with eps = +-1, rational r, k >= 1.

    Only rational r is certified: r is read off the linear coefficient
    and the expansion is matched exactly.  Anything else (several
    distinct roots, irrational or split-complex root structure) raises
    NotBinomialPowerError.
    """
    if p.nvars != 1:
        raise ValueError("binomial_profile expects a univariate polynomial")
    c0 = p.constant_term()
    if c0 not in (1, -1):
        raise NotBinomialPowerError(f"constant term {c0} is not +-1")
    epsilon = 1 if c0 == 1 else -1
    deg = p.degree()
    if deg == float("-inf") or deg < 1:
        raise NotBinomialPowerError("constant polynomial has no binomial profile")
    k = int(deg)
    c1 = p.coefficient((1,))
    if c1 == 0:
        raise NotBinomialPowerError("vanishing linear coefficient")
    r = epsilon * Fraction(k) / c1
    candidate = epsilon * (MultiPoly.one(1) + MultiPoly.variable(1, 0) * (1 / r)) ** k
    if candidate != p:
        raise NotBinomialPowerError("expansion mismatch: not a binomial power")
    return BinomialProfile(epsilon, r, k)


def binomial_power(nvars: int, i: int, epsilon: int, r, k: int) -> MultiPoly:
    """Build eps*(1 + x_i/r)^k as an nvars-variable polynomial."""
    r = _as_scalar(r)
    if r == 0:
        raise ValueError("r must be nonzero")
    base = MultiPoly.one(nvars) + MultiPoly.variable(nvars, i) * (1 / r)
    return epsilon * base**k

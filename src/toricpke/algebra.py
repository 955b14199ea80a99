"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is stored as integer numerators over one positive common
denominator: a map from exponent tuples to nonzero ints, and a
denominator whose gcd with all the numerators is 1.  That form is unique,
so equality and hashing compare it directly, and sums and products run on
ints, with one gcd per result instead of one per coefficient.  Products
go through ``dot_terms`` (see toricpke._pykernel), which takes a whole
sum of products, by Kronecker substitution when it is large and dense
and by one schoolbook accumulator when it is small or sparse; ``_dot``
hands it a sum of polynomial products over their common denominator
and reduces the result by one gcd, and ``*`` a single product, both
through ``_kernel``, the meter of ``symbolic_budget``.  The public API
takes and returns Fractions.

The module also provides two independent determinants of a square
matrix given as a list of rows: cofactor expansion with memoized minors,
which the program runs, and fraction-free (Bareiss) elimination, the
tests' oracle for it.
It also provides exact division, exact q-th roots and recognition of
binomial powers eps*(1 + t/r)^k of univariate polynomials.

Two names shared by the solvers and the float checks live here, the
module every other one imports, so that neither loads the other:
DomainError, and toric_hessian_matrix, the flat-type Monge-Ampere matrix.
"""

from __future__ import annotations

import contextlib
import heapq
import math
import operator
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, NamedTuple

from toricpke._pykernel import dot_terms

Scalar = Fraction

# Coefficients are written and read in decimal chunks of this many digits,
# below CPython's default limit on int <-> str conversion (4300 digits).
_DECIMAL_CHUNK = 4000
# JSON coefficient strings longer than this are rejected, which bounds the
# parse work of a hostile input.
MAX_COEFF_DIGITS = 100_000
# Most kernel term pairs the work in one symbolic_budget may take.
MAX_SYMBOLIC_PAIRS = 1_200_000
# The open budget's count of term pairs, or None: module state, as the
# operators that reach the kernel take no budget argument.
_metered = None


class NotDivisibleError(ArithmeticError):
    """Raised when exact polynomial division has no polynomial quotient."""


class NoExactRootError(ArithmeticError):
    """Raised when a polynomial is not an exact q-th power over Q."""


class NotBinomialPowerError(ArithmeticError):
    """Raised when a univariate polynomial is not eps*(1 + t/r)^k."""


class DomainError(ArithmeticError):
    """Evaluation hit a zero of P or of det g, or left the float range."""


class SymbolicLimitError(ValueError):
    """Symbolic work would pass MAX_SYMBOLIC_PAIRS kernel term pairs."""


@contextlib.contextmanager
def symbolic_budget():
    """Meter the kernel term pairs of the enclosed work against MAX_SYMBOLIC_PAIRS."""
    global _metered
    if _metered is not None:  # inside another budget, count toward it
        yield
        return
    _metered = 0
    try:
        yield
    finally:
        _metered = None


def _kernel(items) -> dict:
    # the one call of dot_terms: inside a budget, count the items' term
    # pairs (a plain addend has none) and stop before passing the limit
    global _metered
    if _metered is not None:
        _metered += sum(len(a) * len(b) for _, a, b in items if b is not None)
        if _metered > MAX_SYMBOLIC_PAIRS:
            raise SymbolicLimitError(
                f"symbolic work reaches {_metered} kernel term pairs, "
                f"exceeding MAX_SYMBOLIC_PAIRS = {MAX_SYMBOLIC_PAIRS}")
    return dot_terms(items)


def _as_scalar(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected rational scalar, got {type(c).__name__}")


def _int_to_str(v: int) -> str:
    """Decimal digits of v, of any length."""
    if v.bit_length() < 3 * _DECIMAL_CHUNK:
        return str(v)
    chunks = []
    rest = abs(v)
    base = 10**_DECIMAL_CHUNK
    while rest >= base:
        rest, low = divmod(rest, base)
        chunks.append(str(low).zfill(_DECIMAL_CHUNK))
    chunks.append(str(rest))
    return ("-" if v < 0 else "") + "".join(reversed(chunks))


def json_int(value) -> int:
    """A JSON integer (not a bool) or a decimal string as an int, never truncated.

    Strings of more than MAX_COEFF_DIGITS digits are rejected.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if not isinstance(value, str):
        raise ValueError(f"expected an integer or a decimal string, got {value!r:.40}")
    text = value.strip()
    digits = text[1:] if text[:1] in ("+", "-") else text
    if len(digits) > MAX_COEFF_DIGITS:
        raise ValueError(f"integer of {len(digits)} digits exceeds {MAX_COEFF_DIGITS}")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer literal {text!r:.40}")
    if len(digits) <= _DECIMAL_CHUNK:
        return int(text)
    head = len(digits) % _DECIMAL_CHUNK or _DECIMAL_CHUNK
    v = int(digits[:head])
    base = 10**_DECIMAL_CHUNK
    for i in range(head, len(digits), _DECIMAL_CHUNK):
        v = v * base + int(digits[i:i + _DECIMAL_CHUNK])
    return -v if text[0] == "-" else v


def fraction_to_str(c: Fraction) -> str:
    """str(c) for a rational of any size: "num" or "num/den"."""
    if c.denominator == 1:
        return _int_to_str(c.numerator)
    return f"{_int_to_str(c.numerator)}/{_int_to_str(c.denominator)}"


def grlex_key(exp: tuple) -> tuple:
    """Graded-lexicographic sort key (total degree first, then lex)."""
    return (sum(exp), exp)


class MultiPoly:
    """Sparse exact polynomial in nvars variables.

    Immutable; stored as nonzero integer numerators (``_terms``) over one
    positive denominator (``_den``) coprime to them all, so the stored
    form is unique and equality and hashing compare it exactly.
    """

    __slots__ = ("nvars", "_terms", "_den", "_hash")

    def __init__(self, nvars: int, terms=None):
        if nvars < 1:
            raise ValueError("nvars must be positive")
        coeffs = {}
        den = 1
        if terms:
            for exp, coeff in dict(terms).items():
                exp = tuple(exp)
                if len(exp) != nvars or any(e < 0 for e in exp):
                    raise ValueError(f"bad exponent tuple {exp} for nvars={nvars}")
                c = _as_scalar(coeff)
                if c:
                    coeffs[exp] = c
                    den = math.lcm(den, c.denominator)
        clean = {e: c.numerator * (den // c.denominator) for e, c in coeffs.items()}
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *args):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c) -> "MultiPoly":
        c = _as_scalar(c)
        if nvars < 1:
            raise ValueError("nvars must be positive")
        terms = {(0,) * nvars: c.numerator} if c else {}
        return cls._raw(nvars, terms, c.denominator)

    @classmethod
    def one(cls, nvars: int) -> "MultiPoly":
        return cls.constant(nvars, 1)

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MultiPoly":
        """The monomial x_i (0-based index)."""
        if not 0 <= i < nvars:
            raise IndexError(f"variable index {i} out of range for nvars={nvars}")
        exp = tuple(1 if j == i else 0 for j in range(nvars))
        return cls._raw(nvars, {exp: 1}, 1)

    @classmethod
    def _raw(cls, nvars: int, terms: dict, den: int) -> "MultiPoly":
        # internal: terms and den already in lowest terms, no zero values
        p = cls.__new__(cls)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(p, "_terms", terms)
        object.__setattr__(p, "_den", den)
        object.__setattr__(p, "_hash", None)
        return p

    @classmethod
    def _reduced(cls, nvars: int, terms: dict, den: int) -> "MultiPoly":
        # internal: nonzero numerators over den > 0, common factors allowed
        if den != 1:
            g = math.gcd(den, *terms.values())
            if g != 1:
                den //= g
                terms = {e: c // g for e, c in terms.items()}
        return cls._raw(nvars, terms, den)

    # -- basic queries ------------------------------------------------

    @property
    def terms(self) -> dict:
        den = self._den
        return {e: Fraction(c, den) for e, c in self._terms.items()}

    @property
    def integer_terms(self) -> tuple:
        """(den, numerators): P = sum of numerators[e]*x^e over den, no Fraction built.

        numerators is a read-only view of the stored map, nonzero ints
        coprime with den > 0 as a whole.
        """
        return self._den, MappingProxyType(self._terms)

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
        return Fraction(self._terms.get(tuple(exp), 0), self._den)

    def constant_term(self) -> Fraction:
        return self.coefficient((0,) * self.nvars)

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
        d1, d2 = self._den, other._den
        g = math.gcd(d1, d2)
        if d1 == d2:
            out = dict(self._terms)
            add = other._terms.items()
        else:
            # over the common denominator lcm(d1, d2)
            m1, m2 = d2 // g, d1 // g
            out = {e: c * m1 for e, c in self._terms.items()}
            add = ((e, c * m2) for e, c in other._terms.items())
        get = out.get
        for exp, c in add:
            s = get(exp, 0) + c
            if s:
                out[exp] = s
            else:
                del out[exp]
        den = d1 // g * d2
        # with coprime denominators the sum is already in lowest terms
        if g == 1:
            return MultiPoly._raw(self.nvars, out, den)
        return MultiPoly._reduced(self.nvars, out, den)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._raw(
            self.nvars, {e: -c for e, c in self._terms.items()}, self._den
        )

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
            num, den = other.numerator, other.denominator
            if not num:
                return MultiPoly.zero(self.nvars)
            g = math.gcd(self._den, num)
            num //= g
            out = self._terms
            if num != 1:
                out = {e: c * num for e, c in out.items()}
            # gcd(den/g, num/g) = 1, so only the scalar's denominator can
            # share a factor with the new numerators
            if den == 1:
                return MultiPoly._raw(self.nvars, out, self._den // g)
            return MultiPoly._reduced(self.nvars, out, self._den // g * den)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_compatible(other)
        if not self._terms or not other._terms:
            return MultiPoly.zero(self.nvars)
        return MultiPoly._reduced(
            self.nvars, _kernel([(1, self._terms, other._terms)]),
            self._den * other._den)

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
        return (
            self.nvars == other.nvars
            and self._den == other._den
            and self._terms == other._terms
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.nvars, self._den, frozenset(self._terms.items())))
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
                out[exp[:i] + (e - 1,) + exp[i + 1:]] = c * e
        return MultiPoly._reduced(self.nvars, out, self._den)

    def euler_derivative(self, i: int) -> "MultiPoly":
        """x_i * dP/dx_i (0-based): each term times its exponent of x_i."""
        if not 0 <= i < self.nvars:
            raise IndexError(f"variable index {i} out of range")
        out = {exp: c * exp[i] for exp, c in self._terms.items() if exp[i]}
        return MultiPoly._reduced(self.nvars, out, self._den)

    def shift(self, exp) -> "MultiPoly":
        """x^exp * P: exp added to every exponent, with no product."""
        exp = tuple(exp)
        if len(exp) != self.nvars or any(e < 0 for e in exp):
            raise ValueError(f"bad exponent tuple {exp} for nvars={self.nvars}")
        out = {tuple(map(operator.add, e, exp)): c for e, c in self._terms.items()}
        return MultiPoly._raw(self.nvars, out, self._den)

    def scale_vars(self, factors) -> "MultiPoly":
        """Substitute x_i -> factors[i] * x_i; all factors must be nonzero."""
        factors = [_as_scalar(f) for f in factors]
        if len(factors) != self.nvars:
            raise ValueError("need one factor per variable")
        if any(f == 0 for f in factors):
            raise ValueError("scale factors must be nonzero")
        if not self._terms:
            return self
        # over the common denominator prod q_i^deg_i, the term c*x^e of a
        # factor p_i/q_i gains prod p_i^e_i * q_i^(deg_i - e_i)
        scales = [
            (f.numerator, f.denominator, self.degree_in(i))
            for i, f in enumerate(factors)
        ]
        out = {}
        for exp, c in self._terms.items():
            for (p, q, d), e in zip(scales, exp):
                c *= p**e * q ** (d - e)
            out[exp] = c
        den = self._den * math.prod(q**d for _, q, d in scales)
        return MultiPoly._reduced(self.nvars, out, den)

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
        return result * Fraction(1, self._den)

    def restrict(self, variables) -> "MultiPoly":
        """Set every x_j with j not in variables to 0.

        The result is a polynomial in len(variables) variables, its k-th
        being x_{variables[k]}; embed is the inverse.
        """
        variables = tuple(variables)
        if not variables or len(set(variables)) != len(variables):
            raise ValueError("restrict needs distinct variables, at least one")
        for i in variables:
            if not 0 <= i < self.nvars:
                raise IndexError(f"variable index {i} out of range")
        others = [j for j in range(self.nvars) if j not in variables]
        out = {}
        for exp, c in self._terms.items():
            if not any(map(exp.__getitem__, others)):
                out[tuple(map(exp.__getitem__, variables))] = c
        return MultiPoly._reduced(len(variables), out, self._den)

    def embed(self, nvars: int, variables) -> "MultiPoly":
        """The same polynomial in nvars variables, x_k renamed x_{variables[k]}."""
        variables = tuple(variables)
        if len(variables) != self.nvars or len(set(variables)) != self.nvars:
            raise ValueError("need one distinct target per variable")
        if not all(0 <= i < nvars for i in variables):
            raise IndexError(f"target index out of range for nvars={nvars}")
        out = {}
        for exp, c in self._terms.items():
            full = [0] * nvars
            for i, e in zip(variables, exp):
                full[i] = e
            out[tuple(full)] = c
        return MultiPoly._raw(nvars, out, self._den)

    def evaluate(self, point):
        """Evaluate at a point; the numeric type of the inputs is preserved.

        At int or Fraction points the value is an exact Fraction.  At
        float points it is a float: each coefficient enters as the float
        num/den and the terms are summed in storage order.
        """
        if len(point) != self.nvars:
            raise ValueError("need one value per variable")
        terms = self._terms
        if not terms:
            return 0 * point[0] if point else 0
        den = self._den
        if all(isinstance(v, (int, Fraction)) for v in point):
            total = 0
            for exp, c in terms.items():
                for v, e in zip(point, exp):
                    if e:
                        c = c * v**e
                total += c
            return Fraction(total, den)
        total = None
        for exp, c in terms.items():
            v = c / den
            for x, e in zip(point, exp):
                if e:
                    v = v * x**e
            total = v if total is None else total + v
        return total

    # -- serialization and printing -----------------------------------

    def sorted_terms(self) -> list:
        """(exponent, Fraction) pairs in grlex order."""
        den = self._den
        return [
            (e, Fraction(self._terms[e], den))
            for e in sorted(self._terms, key=grlex_key)
        ]

    def to_json_dict(self) -> dict:
        terms = []
        for exp in sorted(self._terms, key=grlex_key):
            c = self._terms[exp]
            g = math.gcd(c, self._den)
            terms.append(
                {
                    "exp": list(exp),
                    "num": _int_to_str(c // g),
                    "den": _int_to_str(self._den // g),
                }
            )
        return {"nvars": self.nvars, "terms": terms}

    @classmethod
    def from_json_dict(cls, data: dict) -> "MultiPoly":
        """Read the JSON schema straight into integer numerators, in one pass.

        Each num/den is reduced, and the numerators are put over the lcm
        of the reduced denominators, which leaves the stored form in
        lowest terms.  A malformed term (an exponent that is not a list,
        a repeated exponent, a zero coefficient's included, a field that
        is not an integer, den 0) is reported before a nonpositive nvars,
        and that before the first exponent of the wrong length or with a
        negative entry.
        """
        nvars = json_int(data["nvars"])
        read = {}  # exponent -> reduced (num, den), zero coefficients too
        bad = None
        den = 1
        for t in data["terms"]:
            exp = t["exp"]
            if not isinstance(exp, list):
                raise ValueError(f"exponent must be a JSON list, got {exp!r:.40}")
            # json_int rejects a bool, which is an int subclass
            exp = tuple([e if type(e) is int else json_int(e) for e in exp])
            if exp in read:
                raise ValueError(f"exponent {list(exp)} repeats")
            num, d = json_int(t["num"]), json_int(t["den"])
            if not d:
                raise ZeroDivisionError(f"Fraction({num}, 0)")
            g = math.gcd(num, d) if d > 0 else -math.gcd(num, d)
            num, d = num // g, d // g
            read[exp] = num, d
            den = math.lcm(den, d)
            if bad is None and (len(exp) != nvars or any(e < 0 for e in exp)):
                bad = exp
        if nvars < 1:
            raise ValueError("nvars must be positive")
        if bad is not None:
            raise ValueError(f"bad exponent tuple {bad} for nvars={nvars}")
        terms = {e: num * (den // d) for e, (num, d) in read.items() if num}
        return cls._raw(nvars, terms, den)

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
                parts.append(fraction_to_str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{fraction_to_str(c)}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"MultiPoly({self})"


def toric_hessian_matrix(d0: MultiPoly) -> list:
    """Rows of (d^2 D0/dx_i dx_j)*x_i + (d D0/dx_j)*delta_ij.

    Entry (i, j) is d/dx_j of the Euler derivative x_i*dD0/dx_i, so the
    matrix needs no polynomial product.  Its determinant is the
    flat-type Monge-Ampere left side.
    """
    n = d0.nvars
    return [[g.partial_derivative(j) for j in range(n)]
            for g in map(d0.euler_derivative, range(n))]


def _square_nvars(rows: list) -> int:
    """The common nvars of a non-empty square matrix of rows, else ValueError."""
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ValueError("determinant requires a non-empty square matrix")
    nvars = rows[0][0].nvars
    if any(p.nvars != nvars for row in rows for p in row):
        raise ValueError("entries must share nvars")
    return nvars


def determinant(rows: list) -> MultiPoly:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Intermediate divisions by the previous pivot are exact over the
    polynomial ring, keeping entry growth minimal.  No command runs it:
    it is the tests' oracle for determinant_cofactor.
    """
    nv = _square_nvars(rows)
    n = len(rows)
    a = [list(row) for row in rows]
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


def determinant_cofactor(rows: list) -> MultiPoly:
    """Determinant by Laplace expansion with memoized minors: the program's route.

    It shares no code with determinant; tests check each against the other.
    The minors of the last k rows, keyed by the bitmask of their k columns,
    are each built once by expanding along the row above, as one sum of
    products: at most n*2^(n-1) products, none with a zero entry or a zero
    minor.
    """
    nvars = _square_nvars(rows)
    minors = {1 << j: p for j, p in enumerate(rows[-1]) if not p.is_zero()}
    for row in reversed(rows[:-1]):
        entries = [(1 << j, p) for j, p in enumerate(row) if not p.is_zero()]
        wider = {}
        for mask, minor in minors.items():
            for bit, p in entries:
                if not mask & bit:
                    # the sign is that of bit's place among the columns
                    odd = (mask & (bit - 1)).bit_count() % 2
                    wider.setdefault(mask | bit, []).append(
                        (-1 if odd else 1, p, minor))
        minors = {k: v for k, items in wider.items()
                  if not (v := _dot(nvars, items)).is_zero()}
    return minors.get((1 << len(rows)) - 1, MultiPoly.zero(nvars))


def _dot(nvars: int, items) -> MultiPoly:
    """Sum c*p*q over items (c, p, q) by one kernel call over the lcm of
    their denominators and one gcd; c is an int or Fraction, and q = None
    gives the plain addend c*p.  Items with a zero factor are skipped."""
    items = [(c, p, q) for c, p, q in items
             if c and p._terms and (q is None or q._terms)]
    if not items:
        return MultiPoly.zero(nvars)
    dens = [c.denominator * p._den * (1 if q is None else q._den) for c, p, q in items]
    den = math.lcm(*dens)
    return MultiPoly._reduced(nvars, _kernel([
        (c.numerator * (den // d), p._terms, None if q is None else q._terms)
        for (c, p, q), d in zip(items, dens)]), den)


def adjugate(rows: list) -> list:
    """Rows of the adjugate matrix, by cofactors; adj(M)*M = det(M)*I."""
    nv = _square_nvars(rows)
    n = len(rows)
    if n == 1:
        return [[MultiPoly.one(nv)]]
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            cof = determinant_cofactor([row[:j] + row[j + 1:]
                                        for r, row in enumerate(rows) if r != i])
            adj[j][i] = cof if (i + j) % 2 == 0 else -cof
    return adj


def _heap_key(exp: tuple) -> tuple:
    # min-heap entry that pops the grlex-largest exponent first
    return (-sum(exp), tuple(-e for e in exp))


def exact_divide(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Return q with a = q*b exactly, or raise NotDivisibleError.

    Single-divisor reduction under the grlex order: for a true multiple
    the leading term of the remainder is always reducible, so an
    irreducible leading term certifies non-divisibility.  The remainder
    front is kept in a heap so each step is logarithmic.  The division
    runs on integer numerators: b is split into its content times a
    primitive polynomial B, and by Gauss's lemma a polynomial quotient
    by B has integer coefficients, so a step whose coefficient is not a
    multiple of B's leading coefficient also certifies non-divisibility.
    """
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    a._check_compatible(b)
    nv = a.nvars
    if a.is_zero():
        return MultiPoly.zero(nv)
    if b.is_constant():
        return a * (1 / b.constant_term())
    lead_exp = max(b._terms, key=grlex_key)
    content = math.gcd(*b._terms.values())
    if b._terms[lead_exp] < 0:
        content = -content
    lead_c = b._terms[lead_exp] // content
    b_rest = [(e, c // content) for e, c in b._terms.items() if e != lead_exp]
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
        qc, r = divmod(rc, lead_c)
        if r or any(e < 0 for e in qexp):
            raise NotDivisibleError(f"irreducible remainder term x^{rexp}: "
                                    f"{len(a._terms)}-term dividend, "
                                    f"{len(b._terms)}-term divisor")
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
    # a = A/den_a and b = content*B/den_b with A = Q*B, so a/b = Q*den_b/(den_a*content)
    den = a._den * content
    scale = b._den if den > 0 else -b._den
    return MultiPoly._reduced(
        nv, {e: c * scale for e, c in quotient.items()}, abs(den)
    )


def _rational_nth_root(c: Fraction, q: int) -> Fraction:
    """Exact q-th root of a rational, or raise NoExactRootError."""
    if c == 0:
        return Fraction(0)
    if c < 0:
        if q % 2 == 0:
            raise NoExactRootError(f"no real {q}-th root of {fraction_to_str(c)}")
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
        raise NoExactRootError(f"{_int_to_str(v)} is not an exact {q}-th power")
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
        coeff = diff.coefficient(exp) / lead_factor
        root = root + MultiPoly(nv, {exp: coeff})


class BinomialProfile(NamedTuple):
    epsilon: int
    r: Fraction
    k: int


def binomial_profile(p: MultiPoly) -> BinomialProfile:
    """Recognize p(t) = eps*(1 + t/r)^k with eps = +-1, rational r, k >= 1.

    Only rational r is certified: r is read off the linear coefficient
    and the expansion is matched exactly, coefficient by coefficient,
    through a_(j+1)*(j+1)*r = a_j*(k-j) with a_0 = eps, so the power is
    never built.  Anything else (several distinct roots, irrational or
    split-complex root structure) raises NotBinomialPowerError.
    """
    if p.nvars != 1:
        raise ValueError("binomial_profile expects a univariate polynomial")
    c0 = p.constant_term()
    if c0 not in (1, -1):
        raise NotBinomialPowerError(
            f"constant term {fraction_to_str(c0)} is not +-1"
        )
    epsilon = 1 if c0 == 1 else -1
    deg = p.degree()
    if deg == float("-inf") or deg < 1:
        raise NotBinomialPowerError("constant polynomial has no binomial profile")
    k = int(deg)
    # every coefficient of eps*(1 + t/r)^k is nonzero
    terms = p._terms
    if len(terms) != k + 1:
        raise NotBinomialPowerError(
            f"{len(terms)} terms, not {k + 1}: not a binomial power of degree {k}"
        )
    r = epsilon * Fraction(k) / p.coefficient((1,))
    # the recurrence over p's common denominator, times r's denominator
    for j in range(1, k):
        if (terms[(j + 1,)] * (j + 1) * r.numerator
                != terms[(j,)] * (k - j) * r.denominator):
            raise NotBinomialPowerError("expansion mismatch: not a binomial power")
    return BinomialProfile(epsilon, r, k)


def binomial_power(epsilon: int, r, k: int) -> MultiPoly:
    """Build eps*(1 + x/r)^k with no product: for r = a/b its coefficients eps*C(k, j)/r^j
    are the integers eps*C(k, j)*(sign(a)*b)^j*|a|^(k-j) over |a|^k."""
    r = _as_scalar(r)
    if r == 0:
        raise ValueError("r must be nonzero")
    a, b = abs(r.numerator), r.denominator if r > 0 else -r.denominator
    return MultiPoly._reduced(1, {(j,): epsilon * math.comb(k, j) * b**j * a ** (k - j)
                                  for j in range(k + 1)}, a**k)

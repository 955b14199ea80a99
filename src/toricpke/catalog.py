"""Known solution families, sign canonicalization and embedding bounds.

Every partition (n_1, ..., n_k) of the dimension yields the product
solution prod_i (1 + (block sum)/(n_i+1))^(n_i+1); the associated
potentials log P^(K(n_i+1)/h), with h = gcd(n_i+1), are the admissible
powers of the product-of-projective-spaces metrics.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from toricpke.algebra import MultiPoly, Scalar

if TYPE_CHECKING:
    from toricpke.geometry import ToricPotential


class AmbiguousCanonicalFormError(ArithmeticError):
    """Sign normalization is undetermined for this polynomial."""


class SolutionRecord(NamedTuple):
    name: str
    partition: tuple
    n: int
    P: MultiPoly
    h: int
    K: int
    potential: ToricPotential
    min_embedding_dim: int
    manifold_label: str

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "partition": list(self.partition),
            "n": self.n,
            "P": self.P.to_json_dict(),
            "h": self.h,
            "K": self.K,
            "potential": self.potential.to_json_dict(),
            "min_embedding_dim": self.min_embedding_dim,
            "manifold_label": self.manifold_label,
        }


def _block_factor(n: int, block, denominator: int) -> MultiPoly:
    s = MultiPoly.zero(n)
    for j in block:
        s = s + MultiPoly.variable(n, j)
    return MultiPoly.one(n) + s * Fraction(1, denominator)


def _blocks(partition):
    start = 0
    for ni in partition:
        yield range(start, start + ni)
        start += ni


def _checked_partition(partition) -> tuple:
    partition = tuple(int(v) for v in partition)
    if not partition or any(v < 1 for v in partition):
        raise ValueError("partition must be a non-empty list of positive integers")
    return partition


def _block_product(partition: tuple, exponents) -> MultiPoly:
    """prod_i (1 + (sum of block i)/(n_i+1))^exponents[i], consecutive blocks."""
    n = sum(partition)
    p = MultiPoly.one(n)
    for ni, block, e in zip(partition, _blocks(partition), exponents):
        p = p * _block_factor(n, block, ni + 1) ** e
    return p


def product_solution(partition) -> MultiPoly:
    """prod_i (1 + (sum of block i)/(n_i+1))^(n_i+1), consecutive blocks."""
    partition = _checked_partition(partition)
    return _block_product(partition, [ni + 1 for ni in partition])


def _power_exponents(partition, K: int) -> tuple:
    """The partition and the exponents K(n_i+1)/h of its blocks in P.

    h = gcd of the n_i + 1 divides every exponent, so all are integral.
    """
    partition = _checked_partition(partition)
    if K < 1:
        raise ValueError("K must be a positive integer")
    h = math.gcd(*(ni + 1 for ni in partition))
    return partition, tuple(K * (ni + 1) // h for ni in partition)


def potential_for_power(partition, K: int) -> ToricPotential:
    """Log potential with P = prod_i (1 + block/(n_i+1))^(K(n_i+1)/h), k = 1.

    K = h reproduces product_solution exactly.
    """
    # imported here, so that search-n2, which needs only canonicalize,
    # does not compile geometry
    from toricpke.geometry import ToricPotential

    return ToricPotential("log", _block_product(*_power_exponents(partition, K)),
                          Fraction(1))


def potential_terms(partition, K: int) -> int:
    """Term count of potential_for_power(partition, K).P, without building it.

    (1 + sum of n_i variables)^e has C(n_i + e, n_i) terms, and the
    blocks share no variable.
    """
    partition, exponents = _power_exponents(partition, K)
    return math.prod(math.comb(ni + e, ni) for ni, e in zip(partition, exponents))


def canonicalize(p: MultiPoly) -> MultiPoly:
    """Normalize by the sign changes induced by para-holomorphic maps.

    Flips the overall sign so P(0) = +1, then x_i -> -x_i wherever the
    first-order coefficient is negative, so all first-order coefficients
    end up >= 0.  A zero first-order coefficient is only accepted when P
    is even in that variable; otherwise the representative would be a
    guess and AmbiguousCanonicalFormError is raised.
    """
    c0 = p.constant_term()
    if c0 not in (1, -1):
        raise ValueError("canonicalize expects constant term +-1")
    if c0 == -1:
        p = -p
    n = p.nvars
    factors = []
    for i in range(n):
        ci = p.coefficient(tuple(1 if j == i else 0 for j in range(n)))
        if ci < 0:
            factors.append(Fraction(-1))
        elif ci > 0:
            factors.append(Fraction(1))
        else:
            if any(e[i] % 2 for e in p.terms):
                raise AmbiguousCanonicalFormError(
                    f"variable x{i + 1} has zero linear coefficient but odd terms"
                )
            factors.append(Fraction(1))
    if any(f == -1 for f in factors):
        p = p.scale_vars(factors)
    return p


def min_embedding_dim(potential: ToricPotential) -> int:
    """Number of monomials of the fully folded P, minus the constant one."""
    if potential.kind != "log":
        raise ValueError("embedding bound applies to log potentials")
    k = potential.k
    if k.denominator != 1:
        raise ValueError("embedding bound needs an integral folded power")
    folded = potential.P ** k.numerator
    return len(folded.integer_terms[1]) - 1


def manifold_label(partition) -> str:
    return " x ".join(f"DP^{ni}" for ni in partition)


def solution_record(partition, K: int = 1) -> SolutionRecord:
    partition = tuple(int(v) for v in partition)
    potential = potential_for_power(partition, K)
    h = math.gcd(*(ni + 1 for ni in partition))
    label = manifold_label(partition)
    return SolutionRecord(
        name=f"{label} (K={K})",
        partition=partition,
        n=sum(partition),
        P=product_solution(partition),
        h=h,
        K=K,
        potential=potential,
        min_embedding_dim=min_embedding_dim(potential),
        manifold_label=label,
    )


def partitions(n: int):
    """All partitions of n as non-increasing tuples."""
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in partitions(n - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def standard_catalog(max_n: int = 3, K: int = 1) -> list:
    """Records for every partition of every dimension up to max_n."""
    if max_n < 1:
        raise ValueError("max_n must be positive")
    records = []
    for n in range(1, max_n + 1):
        for part in partitions(n):
            records.append(solution_record(part, K))
    return records

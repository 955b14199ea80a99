"""Exact verification and classification of toric para-Kahler-Einstein
Monge-Ampere solutions, and exact Einstein verdicts with a float
cross-check.

Polynomials hold integer numerators over one common denominator, and
there is one multiplication kernel, in pure Python: it multiplies large
dense products by Kronecker substitution (one big-int product) and small
or sparse ones by a schoolbook loop over term pairs.
toricpke.KERNEL_BACKEND names it ("python").
"""

from toricpke._pykernel import BACKEND as KERNEL_BACKEND
from toricpke.algebra import (
    BinomialProfile,
    MultiPoly,
    NoExactRootError,
    NotBinomialPowerError,
    NotDivisibleError,
    Scalar,
    binomial_profile,
    determinant,
    determinant_cofactor,
    exact_divide,
    nth_root,
)
__all__ = [
    "KERNEL_BACKEND",
    "BinomialProfile",
    "MultiPoly",
    "NoExactRootError",
    "NotBinomialPowerError",
    "NotDivisibleError",
    "Scalar",
    "ToricPotential",
    "binomial_profile",
    "determinant",
    "determinant_cofactor",
    "exact_divide",
    "nth_root",
    "space_form_potential",
]

__version__ = "0.1.0"


def __getattr__(name):
    # geometry is compiled on first use of one of its names, so that
    # importing the package (every command does) does not compile it
    if name in ("ToricPotential", "space_form_potential"):
        from toricpke import geometry

        return getattr(geometry, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Multiplication of integer term maps: Kronecker substitution or schoolbook.

A term map is a dict from exponent tuples to nonzero ints.  Exponents are
packed into one integer key per monomial in a mixed radix whose digit for
each variable is one more than the product's degree in it, so no exponent
can carry into its neighbour however large it is.

Kronecker substitution (Harvey, JSC 2009) maps x_i -> X^stride_i: each
operand becomes one big integer with one fixed-width byte slot per key,
negative coefficients subtracted in, and a single CPython big-int product
gives every coefficient at once.  Adding an offset of half the slot range
to each slot makes all slots of the product non-negative, so they are read
back from its bytes independently.  The cost is paid per slot of the
degree box, and CPython multiplies big ints by Karatsuba, so the kernel
estimates both costs and falls back to a schoolbook loop over term pairs
when the product is small or the box is much larger than the number of
pairs: the work on a sparse product is bounded by its pairs, never by its
box.
"""

import itertools
import operator
import re

BACKEND = "python"

# Cost model, in units of one schoolbook term pair: a Kronecker product
# pays a fixed overhead, one unit per box slot it unpacks, two per operand
# term it packs, and the Karatsuba product of its operands, about
# small**0.585 * large / 1000 for operands of small and large bytes.
_KRONECKER_OVERHEAD = 100
_TERM_COST = 2
_KARATSUBA_SCALE = 1000


def _keys(terms, strides) -> list:
    mul = operator.mul
    return [sum(map(mul, e, strides)) for e in terms]


def _decode(keys: list, values, radices, strides) -> dict:
    columns = [[k // s % r for k in keys] for s, r in zip(strides, radices)]
    return dict(zip(zip(*columns), values))


def _schoolbook_univariate(a, b) -> dict:
    acc = {}
    get = acc.get
    b_items = [(e[0], c) for e, c in b.items()]
    for (i,), ca in a.items():
        for j, cb in b_items:
            k = i + j
            acc[k] = get(k, 0) + ca * cb
    return {(k,): c for k, c in acc.items() if c}


def _schoolbook(a, b, radices, strides) -> dict:
    b_keys = _keys(b, strides)
    b_coeffs = list(b.values())
    acc = {}
    get = acc.get
    for ka, ca in zip(_keys(a, strides), a.values()):
        for k, c in zip(map(ka.__add__, b_keys), map(ca.__mul__, b_coeffs)):
            acc[k] = get(k, 0) + c
    keys = [k for k, c in acc.items() if c]
    return _decode(keys, map(acc.__getitem__, keys), radices, strides)


def _pack(terms, keys, width) -> int:
    pos = bytearray((max(keys) + 1) * width)
    neg = bytearray(len(pos))
    for k, c in zip(keys, terms.values()):
        i = k * width
        if c > 0:
            pos[i:i + width] = c.to_bytes(width, "little")
        else:
            neg[i:i + width] = (-c).to_bytes(width, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _kronecker(a, b, radices, strides, box, width) -> dict:
    product = _pack(a, _keys(a, strides), width) * _pack(b, _keys(b, strides), width)
    half = 1 << (8 * width - 1)
    zero = half.to_bytes(width, "little")
    raw = product + int.from_bytes(zero * box, "little")
    slots = re.findall(b"(?s).{%d}" % width, raw.to_bytes(box * width, "little"))
    mask = list(map(zero.__ne__, slots))
    keys = list(itertools.compress(range(box), mask))
    values = [
        int.from_bytes(s, "little") - half for s in itertools.compress(slots, mask)
    ]
    return _decode(keys, values, radices, strides)


def mul_terms(a, b):
    """Multiply two term maps, returning a new map with no zero entries."""
    if len(a) > len(b):
        a, b = b, a
    pairs = len(a) * len(b)
    if pairs <= _KRONECKER_OVERHEAD and len(next(iter(a))) == 1:
        return _schoolbook_univariate(a, b)
    deg_a = list(map(max, zip(*a)))
    deg_b = list(map(max, zip(*b)))
    radices = [da + db + 1 for da, db in zip(deg_a, deg_b)]
    strides = []
    box = 1
    for r in reversed(radices):
        strides.append(box)
        box *= r
    strides.reverse()
    if box < pairs:
        bound = max(map(abs, a.values())) * max(map(abs, b.values())) * len(a)
        width = bound.bit_length() // 8 + 1
        small, large = sorted(
            (sum(map(operator.mul, deg, strides)) + 1) * width for deg in (deg_a, deg_b)
        )
        cost = (
            _KRONECKER_OVERHEAD
            + box
            + _TERM_COST * (len(a) + len(b))
            + small**0.585 * large / _KARATSUBA_SCALE
        )
        if cost < pairs:
            return _kronecker(a, b, radices, strides, box, width)
    if len(radices) == 1:
        return _schoolbook_univariate(a, b)
    return _schoolbook(a, b, radices, strides)

"""Sums of products of integer term maps: Kronecker substitution or schoolbook.

A term map is a dict from exponent tuples to nonzero ints.  The one entry,
dot_terms, takes a whole sum of products s*a*b with int scalars s and
returns it as one map: the sum is accumulated and the zeros dropped once,
not once per product (the accumulate-then-normalise pattern of sparse
sum-of-products multiplication, Monagan and Pearce, JSC 2011); a single
product is the sum of one item.  Exponents are packed into one integer key
per monomial in a mixed radix whose digit for each variable is one more
than the largest degree of any item's product in it, so no exponent can
carry into its neighbour however large it is.

Kronecker substitution (Harvey, JSC 2009) maps x_i -> X^stride_i: each
operand becomes one big integer with one fixed-width byte slot per key,
negative coefficients subtracted in, and CPython big-int products, summed
as one big integer, give every coefficient of the sum at once.  The slot
width holds the largest coefficient the sum can reach.  Adding an offset
of half the slot range to each slot makes all slots non-negative, so they
are read back from its bytes independently, once per sum.  The cost is
paid per slot of the degree box, once per sum, and CPython multiplies big
ints by Karatsuba, once per item, so the kernel estimates both costs and
falls back to one schoolbook accumulator over the term pairs of all items
when the sum is small or the box is much larger than the number of
pairs: the work on a sparse sum is bounded by its pairs, never by its box.
"""

import itertools
import operator
import re

BACKEND = "python"

# Cost model, in units of one schoolbook term pair: a Kronecker sum pays a
# fixed overhead and one unit per box slot it unpacks, once, and for each
# item two per operand term it packs and the Karatsuba product of its
# operands, about small**0.585 * large / 1000 for operands of small and
# large bytes.
_KRONECKER_OVERHEAD = 100
_TERM_COST = 2
_KARATSUBA_SCALE = 1000


def _keys(terms, strides) -> list:
    mul = operator.mul
    return [sum(map(mul, e, strides)) for e in terms]


def _decode(keys: list, values, radices, strides) -> dict:
    columns = [[k // s % r for k in keys] for s, r in zip(strides, radices)]
    return dict(zip(zip(*columns), values))


def _schoolbook_univariate(items) -> dict:
    acc = {}
    get = acc.get
    for s, a, b in items:
        b_items = [(e[0], s * c) for e, c in b.items()]
        for (i,), ca in a.items():
            for j, cb in b_items:
                k = i + j
                acc[k] = get(k, 0) + ca * cb
    return {(k,): c for k, c in acc.items() if c}


def _schoolbook(items, radices, strides) -> dict:
    acc = {}
    get = acc.get
    for s, a, b in items:
        b_keys = _keys(b, strides)
        b_coeffs = [s * c for c in b.values()]
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


def _kronecker(items, radices, strides, box, width) -> dict:
    total = 0
    for s, a, b in items:
        packed_a = _pack(a, _keys(a, strides), width)
        total += s * packed_a * _pack(b, _keys(b, strides), width)
    half = 1 << (8 * width - 1)
    zero = half.to_bytes(width, "little")
    raw = total + int.from_bytes(zero * box, "little")
    slots = re.findall(b"(?s).{%d}" % width, raw.to_bytes(box * width, "little"))
    mask = list(map(zero.__ne__, slots))
    keys = list(itertools.compress(range(box), mask))
    values = [
        int.from_bytes(s, "little") - half for s in itertools.compress(slots, mask)
    ]
    return _decode(keys, values, radices, strides)


def dot_terms(items):
    """Sum s*a*b over items (s, a, b), returning a new map with no zero entries.

    s is a nonzero int, a a nonempty term map, and b a nonempty term map
    or None, which stands for the constant 1: a plain addend s*a, which
    multiplies no term pair.  All items share one number of variables.
    """
    nvars = len(next(iter(items[0][1])))
    one = {(0,) * nvars: 1}
    # the shorter operand first, as the schoolbook loops want it
    items = [(s, a, b) if len(a) <= len(b) else (s, b, a)
             for s, a, b in [(s, a, one if b is None else b) for s, a, b in items]]
    pairs = sum(len(a) * len(b) for _, a, b in items)
    if pairs <= _KRONECKER_OVERHEAD and nvars == 1:
        return _schoolbook_univariate(items)
    degs = [(list(map(max, zip(*a))), list(map(max, zip(*b)))) for _, a, b in items]
    radices = [max(col) + 1 for col in zip(*(map(operator.add, *d) for d in degs))]
    strides = []
    box = 1
    for r in reversed(radices):
        strides.append(box)
        box *= r
    strides.reverse()
    if box < pairs:
        bound = sum(abs(s) * max(map(abs, a.values())) * max(map(abs, b.values()))
                    * len(a) for s, a, b in items)
        width = bound.bit_length() // 8 + 1
        cost = _KRONECKER_OVERHEAD + box
        for (_, a, b), deg in zip(items, degs):
            small, large = sorted(
                (sum(map(operator.mul, d, strides)) + 1) * width for d in deg
            )
            cost += (_TERM_COST * (len(a) + len(b))
                     + small**0.585 * large / _KARATSUBA_SCALE)
        if cost < pairs:
            return _kronecker(items, radices, strides, box, width)
    if nvars == 1:
        return _schoolbook_univariate(items)
    return _schoolbook(items, radices, strides)

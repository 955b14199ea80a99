"""Solution families, canonicalization, and embedding-dimension bounds."""

import math
from fractions import Fraction

import pytest

from toricpke.algebra import MultiPoly
from toricpke.catalog import (
    AmbiguousCanonicalFormError,
    canonicalize,
    manifold_label,
    min_embedding_dim,
    partitions,
    potential_for_power,
    potential_terms,
    product_solution,
    solution_record,
    standard_catalog,
)
from toricpke.geometry import ToricPotential, einstein_fit
from toricpke.ma_engine import verify_ma_star

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def x(nvars, i):
    return MultiPoly.variable(nvars, i)


# ---------------------------------------------------------------------------
# product solutions


def test_product_of_three_lines():
    expected = MultiPoly.one(3)
    for i in range(3):
        expected = expected * (MultiPoly.one(3) + x(3, i) * HALF) ** 2
    assert product_solution([1, 1, 1]) == expected


def test_product_line_times_plane():
    expected = (MultiPoly.one(3) + x(3, 0) * HALF) ** 2 * (
        MultiPoly.one(3) + x(3, 1) * THIRD + x(3, 2) * THIRD
    ) ** 3
    assert product_solution([1, 2]) == expected


def test_product_single_block():
    s = x(3, 0) + x(3, 1) + x(3, 2)
    assert product_solution([3]) == (MultiPoly.one(3) + s * Fraction(1, 4)) ** 4


def test_all_small_partitions_verify_with_plus_sign():
    for n in range(1, 5):
        for part in partitions(n):
            p = canonicalize(product_solution(part))
            res = verify_ma_star(p)
            assert res.is_solution, part
            assert res.sign == 1, part


# ---------------------------------------------------------------------------
# admissible powers


def test_power_potential_single_line():
    # h = gcd(2) = 2, so the minimal admissible power K=1 gives the bare
    # binomial; its square is the full classified solution
    pot = potential_for_power([1], 1)
    assert pot.kind == "log"
    assert pot.k == 1
    assert pot.P == MultiPoly.one(1) + x(1, 0) * HALF
    assert pot.P ** 2 == product_solution([1])


def test_power_potential_two_lines_halves_the_exponent():
    pot = potential_for_power([1, 1], 1)
    expected = (MultiPoly.one(2) + x(2, 0) * HALF) * (
        MultiPoly.one(2) + x(2, 1) * HALF
    )
    assert pot.P == expected
    assert pot.P ** 2 == product_solution([1, 1])


def test_power_potential_coprime_blocks():
    assert potential_for_power([1, 2], 1).P == product_solution([1, 2])


@pytest.mark.parametrize("part", [(1,), (1, 1), (1, 2), (2,), (3,), (1, 1, 1)])
@pytest.mark.parametrize("K", [1, 2, 3])
def test_power_potential_reproduces_products(part, K):
    h = math.gcd(*(ni + 1 for ni in part))
    pot = potential_for_power(part, K)
    assert pot.P ** h == product_solution(part) ** K


# ---------------------------------------------------------------------------
# canonicalization


def test_canonicalize_sign_pair():
    p = -((MultiPoly.one(1) - x(1, 0) * HALF) ** 2)
    assert canonicalize(p) == (MultiPoly.one(1) + x(1, 0) * HALF) ** 2


def test_canonicalize_mixed_sign_cubic():
    p = (MultiPoly.one(2) + x(2, 0) * THIRD - x(2, 1) * THIRD) ** 3
    assert canonicalize(p) == (
        MultiPoly.one(2) + x(2, 0) * THIRD + x(2, 1) * THIRD
    ) ** 3


def test_canonicalize_idempotent():
    p = canonicalize(product_solution([1, 2]))
    assert canonicalize(p) == p


def test_canonicalize_preserves_solution_flag():
    for part in ((1,), (1, 1), (2,)):
        p = product_solution(part).scale_vars(
            [Fraction(-1)] * sum(part)
        )
        before = verify_ma_star(p).is_solution
        after = verify_ma_star(canonicalize(p)).is_solution
        assert before == after


def test_canonicalize_reports_ambiguity():
    # no linear x2-term but an odd mixed term: the sign of x2 is not fixed
    p = MultiPoly.one(2) + x(2, 0) + x(2, 0) * x(2, 1)
    with pytest.raises(AmbiguousCanonicalFormError):
        canonicalize(p)


# ---------------------------------------------------------------------------
# embedding dimensions


def test_embedding_dim_of_line_model():
    pot = ToricPotential("log", MultiPoly.one(1) + x(1, 0) * 2, Fraction(1))
    assert min_embedding_dim(pot) == 1


def test_embedding_dim_of_quadratic():
    assert min_embedding_dim(potential_for_power([1], 2)) == 2


def test_embedding_dim_of_symmetric_cubic():
    pot = ToricPotential(
        "log",
        (MultiPoly.one(2) + x(2, 0) * THIRD + x(2, 1) * THIRD) ** 3,
        Fraction(1),
    )
    assert min_embedding_dim(pot) == 9


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_embedding_dim_grows_with_power(K):
    assert min_embedding_dim(potential_for_power([1], K)) == K


# ---------------------------------------------------------------------------
# Einstein cross-check and records


def _points(n, count=5, seed=0):
    import random

    rng = random.Random(seed)
    return [
        (
            [rng.uniform(-0.08, 0.08) for _ in range(n)],
            [rng.uniform(-0.08, 0.08) for _ in range(n)],
        )
        for _ in range(count)
    ]


def test_power_potentials_are_einstein_with_decreasing_lambda():
    lams = []
    for K in (1, 2, 3):
        pot = potential_for_power([1, 1], K)
        fit = einstein_fit(pot, _points(2, seed=K))
        assert fit.max_residual < 1e-6
        lams.append(fit.lam)
    assert lams[0] > lams[1] > lams[2]


def test_partitions_enumeration():
    assert set(partitions(4)) == {
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    }


def test_manifold_labels():
    assert manifold_label([1, 2]) == "DP^1 x DP^2"


def test_solution_record_fields():
    rec = solution_record((1, 2), 1)
    assert rec.n == 3
    assert rec.h == 1
    assert rec.K == 1
    assert rec.P == product_solution([1, 2])
    assert rec.manifold_label == "DP^1 x DP^2"
    doc = rec.to_json_dict()
    assert MultiPoly.from_json_dict(doc["P"]) == rec.P


def test_solution_record_json_and_repr_keep_their_shape():
    rec = solution_record((1,), 1)
    one = {"exp": [0], "num": "1", "den": "1"}
    assert rec.to_json_dict() == {
        "name": "DP^1 (K=1)", "partition": [1], "n": 1,
        "P": {"nvars": 1, "terms": [one, {"exp": [1], "num": "1", "den": "1"},
                                    {"exp": [2], "num": "1", "den": "4"}]},
        "h": 2, "K": 1,
        "potential": {"kind": "log",
                      "P": {"nvars": 1, "terms": [one, {"exp": [1], "num": "1", "den": "2"}]},
                      "k_num": 1, "k_den": 1},
        "min_embedding_dim": 1, "manifold_label": "DP^1",
    }
    assert repr(rec) == (
        "SolutionRecord(name='DP^1 (K=1)', partition=(1,), n=1, "
        "P=MultiPoly(1 + x1 + 1/4*x1^2), h=2, K=1, potential=ToricPotential("
        "kind='log', P=MultiPoly(1 + 1/2*x1), k=Fraction(1, 1)), "
        "min_embedding_dim=1, manifold_label='DP^1')")


def test_standard_catalog_covers_small_partitions():
    records = standard_catalog(3, 1)
    expected = {part for n in (1, 2, 3) for part in partitions(n)}
    assert {tuple(r.partition) for r in records} == expected


@pytest.mark.parametrize("partition,K", [
    ((1,), 1), ((3,), 5), ((1, 1), 3), ((2, 1), 1), ((2, 1), 2), ((1, 1, 1), 2),
    ((3, 1), 1), ((2, 2), 1), ((1, 1, 1, 1), 3),
])
def test_potential_terms_counts_the_built_potential(partition, K):
    potential = potential_for_power(partition, K)
    assert potential_terms(partition, K) == len(potential.P.terms)
    assert potential_terms(partition, K) == min_embedding_dim(potential) + 1


def test_potential_terms_rejects_what_potential_for_power_rejects():
    for partition, K in (((1,), 0), ((), 1), ((0, 1), 1)):
        with pytest.raises(ValueError):
            potential_terms(partition, K)

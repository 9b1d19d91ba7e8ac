"""The CRT families against their per-case combine loops.

The references below are classify_2group and classify_coprime as they were
before the families went through ideals.bounded_combinations: every case is
combined into a full ideal first (from polynomial generators, by
reference_combine), a repeated ideal keeps its first params, and the bound is
left to _try_build.
"""

import itertools

import pytest
from reference_helpers import (
    component_radicals,
    reference_combine,
    reference_descent,
    reference_two_group_components,
    reference_two_group_unfiltered_pairs,
)

from rbcm.classify import (
    FamilyMap,
    _params,
    _try_build,
    _two_group_components,
    classify_2group,
    classify_coprime,
    two_group_unfiltered_pairs,
)
from rbcm.factorlift import lift_level0_factor, split_p_part
from rbcm.ideals import crt_split, descent_level
from rbcm.poly import Poly
from rbcm.zring import Modulus


def _reference_family_maps(cases, n, max_order):
    out = []
    seen = set()
    for params, Q in cases:
        if Q.rows in seen:
            continue
        seen.add(Q.rows)
        rec = _try_build(Q, n, "I", max_order)
        if rec is not None:
            out.append(FamilyMap(params, Q, rec))
    return out


def reference_2group(k, n, max_order):
    r, _ = split_p_part(n, 2)
    split = crt_split(2, k, n)
    labels = split.labels
    mod = Modulus(2, k)
    tilde = {lab: lift_level0_factor(lab[0], lab[1], 2, k).poly for lab in labels}

    def cases():
        for J in itertools.product(range(k), repeat=len(labels)):
            for K in itertools.product(range(2**r + 1), repeat=len(labels)):
                parts = [
                    [Poly.constant(2**j, mod) * tilde[lab] ** kk, Poly.constant(2 ** (j + 1), mod)]
                    for lab, j, kk in zip(labels, J, K)
                ]
                jk = tuple((lab, j, kk) for lab, j, kk in zip(labels, J, K))
                yield _params("two_group", JK=jk), reference_combine(split, parts)

    return _reference_family_maps(cases(), n, max_order)


def reference_coprime(p, k, n, max_order):
    split = crt_split(p, k, n)
    labels = split.labels
    mod = Modulus(p, k)
    cases = (
        (
            _params("coprime", J=tuple(zip(labels, J))),
            reference_combine(split, [[Poly.constant(p**j, mod)] for j in J]),
        )
        for J in itertools.product(range(k + 1), repeat=len(labels))
    )
    return _reference_family_maps(cases, n, max_order)


def _listing(maps):
    return [(m.params, m.ideal.rows, m.record.cycle) for m in maps]


@pytest.mark.parametrize("bound", [16, 64])
def test_2group_matches_per_case_combine(bound):
    for k in range(1, 4):
        for n in range(2, 9):
            want = _listing(reference_2group(k, n, bound))
            assert _listing(classify_2group(k, n, max_order=bound)) == want, (k, n)


@pytest.mark.parametrize("p", [3, 5])
def test_coprime_matches_per_case_combine(p):
    for k in (1, 2):
        for bound in (p**2, p**4):
            for n in range(2, 9):
                if n % p == 0:
                    continue
                want = _listing(reference_coprime(p, k, n, bound))
                assert _listing(classify_coprime(p, k, n, max_order=bound)) == want, (k, n, bound)


@pytest.mark.parametrize("p,count", [(3, 9), (5, 56), (7, 62)])
def test_coprime_exact_order_is_the_bounded_listing_at_that_size(p, count):
    """classify_coprime(order=s) lists exactly the maps of the max_order
    listing whose quotient has s elements: the same params, rows and cycles,
    in the same order, for every power s of p up to p^(2k), which together
    cover the whole listing."""
    listed = compared = 0
    for k in (1, 2, 3):
        for n in range(2, 13):
            if n % p == 0:
                continue
            full = classify_coprime(p, k, n, max_order=p ** (2 * k))
            listed += len(full)
            for e in range(2 * k + 1):
                want = _listing(m for m in full if m.ideal.quotient_size() == p**e)
                assert _listing(classify_coprime(p, k, n, order=p**e)) == want, (k, n, e)
                compared += len(want)
    assert compared == listed == count


def test_coprime_takes_one_bound():
    with pytest.raises(ValueError, match="not both"):
        classify_coprime(3, 1, 2, max_order=9, order=9)


@pytest.mark.parametrize("k,n,bound,count", [(2, 7, 1024, 13), (3, 7, 512, 7), (2, 14, 1024, 14)])
def test_2group_matches_per_case_combine_on_three_components(k, n, bound, count):
    """x^7 + 1 has three factors mod 2, so three components interleave."""
    assert len(crt_split(2, k, n).labels) == 3
    want = _listing(reference_2group(k, n, bound))
    assert len(want) == count
    assert _listing(classify_2group(k, n, max_order=bound)) == want


@pytest.mark.parametrize("k,count", [(1, 9), (2, 6)])
def test_coprime_matches_per_case_combine_on_four_components(k, count):
    """x^6 + 1 has four factors mod 5."""
    assert len(crt_split(5, k, 6).labels) == 4
    want = _listing(reference_coprime(5, k, 6, 625))
    assert len(want) == count
    assert _listing(classify_coprime(5, k, 6, max_order=625)) == want


def test_two_group_unfiltered_pairs_closed_form():
    for k in range(1, 6):
        for n in range(2, 19):
            assert two_group_unfiltered_pairs(k, n) == reference_two_group_unfiltered_pairs(k, n), (k, n)


def _component_listing(components):
    return [[(tag, q.rows) for tag, q in comp] for comp in components]


@pytest.mark.parametrize("k", range(1, 8))
def test_two_group_components_match_reference(k):
    """The box ideals give the Poly-generator canonical forms: the same tags,
    in the same order, with the same rows, for every 2 <= n <= 18."""
    for n in range(2, 19):
        want = _component_listing(reference_two_group_components(k, n))
        assert _component_listing(_two_group_components(k, n)) == want, (k, n)


def test_two_group_components_build_each_ideal_once(monkeypatch):
    """Over k <= 5, 2 <= n <= 12, each distinct component ideal is built
    once, as one descent level: (j, 2^r) is (j + 1, 0), so levels j >= 1
    skip kk = 0, and a context shared by several n (x + 1 for every odd n)
    is built for the first.  The family builds no box ideal of its own."""
    from rbcm import classify

    def refuse(*args):
        raise AssertionError("the 2-group family builds a box ideal itself")

    monkeypatch.setattr(classify, "box_ideal", refuse)
    descent_level.cache_clear()
    listed = 0
    distinct = set()
    for k in range(1, 6):
        for n in range(2, 13):
            for comp in _two_group_components.__wrapped__(k, n):
                listed += len({Q.rows for _, Q in comp})
                distinct |= {(Q.context_monic, Q.rows) for _, Q in comp}
    assert listed == 735
    assert descent_level.cache_info().misses == len(distinct) == 500


def test_two_group_components_are_descent_ideals():
    """Every component ideal is one of the exhaustive descent's ideals at the
    level its index names: index q^level for q = 2^deg g, level = j*2^r + kk."""
    checked = 0
    for k in range(1, 6):
        for n in range(2, 13):
            r, _ = split_p_part(n, 2)
            for (ctx, g), comp in zip(component_radicals(2, k, n), _two_group_components(k, n)):
                levels = reference_descent(ctx, 2 ** (k * ctx.degree), g)
                for (j, kk), Q in comp:
                    level = j * 2**r + kk
                    assert Q.quotient_size() == (2**g.degree) ** level, (k, n, j, kk)
                    assert Q.rows in {I.rows for I in levels[level]}, (k, n, j, kk)
                    checked += 1
    assert checked == 735

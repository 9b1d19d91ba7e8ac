"""The sigma-mode oracle against full (automorphism, seed) enumeration.

The reference below is the oracle as it was before sigma mode used one seed
per Aut(G)-orbit: every automorphism, as a matrix of generator images, against
every seed of the wanted order, with classes left to _dedup_classes.
"""

import pytest

from rbcm.cayley import (
    AUT_CANDIDATE_LIMIT,
    CayleyMapRecord,
    _dedup_classes,
    _rank_mod_p,
    _same_prime,
    _sigma_mode,
    aut_candidate_count,
    automorphism_matrices,
    automorphism_permutations,
    map_cases,
)
from rbcm.classify import abelian_p_groups
from rbcm.structure import AbelianGroupTable
from rbcm.zring import factorize


def _sigma_groups(max_order):
    return [
        inv
        for p in (2, 3, 5)
        for inv in abelian_p_groups(p, max_order)
        if aut_candidate_count(inv) <= AUT_CANDIDATE_LIMIT
    ]


def _mat_apply(rows, g, invariants):
    acc = [0] * len(invariants)
    for coef, img in zip(g, rows):
        if coef:
            for j, x in enumerate(img):
                acc[j] += coef * x
    return tuple(a % d for a, d in zip(acc, invariants))


def _mat_mul(a, b, invariants):
    return tuple(_mat_apply(b, row, invariants) for row in a)


def _mat_pow(rows, e, invariants):
    n = len(invariants)
    acc = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    base = rows
    while e:
        if e & 1:
            acc = _mat_mul(acc, base, invariants)
        base = _mat_mul(base, base, invariants)
        e >>= 1
    return acc


def reference_sigma_mode(group, n, map_type):
    """Every (automorphism, seed) pair; one record per distinct rotation cycle."""
    invariants = group.invariants
    p = _same_prime(invariants)
    sign = 1 if map_type == "I" else -1
    seed_order = group.exponent if map_type == "I" else 2
    seeds = [w for w in group.elements() if group.element_order(w) == seed_order]
    records = {}
    for rows in automorphism_matrices(invariants):
        power = _mat_pow(rows, n, invariants)
        cond = tuple(
            tuple((x + (sign if i == j else 0)) % d for j, (x, d) in enumerate(zip(r, invariants)))
            for i, r in enumerate(power)
        )
        if p is not None and _rank_mod_p(cond, p) == len(cond):
            continue  # sigma^n -+ 1 injective: no seeds
        for w in seeds:
            if any(_mat_apply(cond, w, invariants)):
                continue
            orbit = [w]
            for _ in range(n - 1):
                orbit.append(_mat_apply(rows, orbit[-1], invariants))
            cycle = orbit + [group.neg(o) for o in orbit] if map_type == "I" else orbit
            if len(set(cycle)) != len(cycle) or group.zero() in cycle:
                continue
            rec = CayleyMapRecord(group, cycle, map_type)
            key = rec.canonical_key()
            if key not in records:
                records[key] = rec if group.generates(cycle) else None
    return [r for r in records.values() if r is not None]


# The p-groups, plus a few groups of mixed order, whose automorphisms are
# found by the generation test instead of the rank test.
@pytest.mark.parametrize(
    "invariants", _sigma_groups(32) + [(6,), (10,), (12,), (2, 6), (3, 6)], ids=str
)
def test_sigma_mode_matches_full_enumeration(invariants):
    """One seed per orbit and minimal-image keys give the classes, and the
    representatives, of full enumeration followed by pairwise isomorphism tests."""
    group = AbelianGroupTable(invariants)
    for valence in range(2, 17):
        for n, map_type in map_cases(group, valence):
            got = [r.canonical_key() for r in _sigma_mode(group, n, map_type)]
            want = _dedup_classes(reference_sigma_mode(group, n, map_type))
            assert got == [r.canonical_key() for r in want], (valence, map_type)
            again = _dedup_classes(_sigma_mode(group, n, map_type))
            assert [r.canonical_key() for r in again] == got, (valence, map_type)


def hillar_rhea_order(invariants):
    """|Aut(G)| for G = Z_{p^e_1} x ... x Z_{p^e_n}, e_1 <= ... <= e_n
    (Hillar & Rhea, Amer. Math. Monthly 114, 2007, Theorem 4.1)."""
    p = factorize(invariants[0])[0][0]
    e = [factorize(d)[0][1] for d in invariants]
    n = len(e)
    d = [max(l for l in range(1, n + 1) if e[l - 1] == e[k]) for k in range(n)]
    c = [min(l for l in range(1, n + 1) if e[l - 1] == e[k]) for k in range(n)]
    order = 1
    for k in range(n):
        order *= p ** d[k] - p ** k
        order *= p ** (e[k] * (n - d[k]))
        order *= p ** ((e[k] - 1) * (n - c[k] + 1))
    return order


def test_hillar_rhea_known_orders():
    assert hillar_rhea_order((9, 9)) == 3888
    assert hillar_rhea_order((3, 3, 3)) == 11232
    assert hillar_rhea_order((8,)) == 4
    assert hillar_rhea_order((2, 4)) == 8


@pytest.mark.parametrize("invariants", _sigma_groups(81), ids=str)
def test_automorphism_count_closed_form(invariants):
    assert len(automorphism_matrices(invariants)) == hillar_rhea_order(invariants)


@pytest.mark.parametrize("invariants", [(4, 4), (3, 9), (5, 5)], ids=str)
def test_automorphism_permutations(invariants):
    """Each table is an additive bijection that sends generator i to row i."""
    group = AbelianGroupTable(invariants)
    els, idx, add = group.tables()
    gens = [idx[tuple(int(i == j) for j in range(group.rank))] for i in range(group.rank)]
    perms = automorphism_permutations(invariants)
    assert len(perms) == len(automorphism_matrices(invariants))
    for rows, perm in zip(automorphism_matrices(invariants), perms):
        assert sorted(perm) == list(range(group.order))
        assert [els[perm[g]] for g in gens] == list(rows)
        for a in range(group.order):
            for b in range(group.order):
                assert perm[add[a][b]] == add[perm[a]][perm[b]]


def test_automorphism_permutations_16bit():
    """Above 256 elements the tables hold 16-bit indices; additivity against
    each generator, for every element, makes each one a homomorphism."""
    invariants = (2, 256)
    group = AbelianGroupTable(invariants)
    els, idx, add = group.tables()
    gens = [idx[(1, 0)], idx[(0, 1)]]
    matrices = automorphism_matrices(invariants)
    perms = automorphism_permutations(invariants)
    assert len(perms) == len(matrices) == hillar_rhea_order(invariants)
    for rows, perm in zip(matrices, perms):
        assert perm.itemsize == 2
        assert sorted(perm) == list(range(group.order))
        assert [els[perm[g]] for g in gens] == list(rows)
        for g in gens:
            assert all(perm[add[a][g]] == add[perm[a]][perm[g]] for a in range(group.order))

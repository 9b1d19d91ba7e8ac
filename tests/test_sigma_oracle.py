"""The sigma-mode oracle against full (automorphism, seed) enumeration.

The reference below is the oracle as it was before sigma mode used one seed
per Aut(G)-orbit: every automorphism, as a matrix of generator images found by
exhaustive search, against every seed of the wanted order, with classes left
to _dedup_classes.
"""

import subprocess
import sys
from pathlib import Path

import pytest
from reference_helpers import reference_automorphism_matrices, same_prime

import rbcm
from rbcm import cayley
from rbcm.cayley import (
    AUT_CANDIDATE_LIMIT,
    CayleyMapRecord,
    _dedup_classes,
    _rank_mod_p,
    _sigma_mode,
    aut_candidate_count,
    aut_order,
    automorphism_matrices,
    automorphism_permutations,
    map_cases,
)
from rbcm.classify import abelian_p_groups
from rbcm.errors import InvariantViolation
from rbcm.structure import AbelianGroupTable


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
    p = same_prime(invariants)
    sign = 1 if map_type == "I" else -1
    seed_order = group.exponent if map_type == "I" else 2
    seeds = [w for w in group.elements() if group.element_order(w) == seed_order]
    records = {}
    for rows in reference_automorphism_matrices(invariants):
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


def test_hillar_rhea_known_orders():
    assert aut_order((9, 9)) == 3888
    assert aut_order((3, 3, 3)) == 11232
    assert aut_order((8,)) == 4
    assert aut_order((2, 4)) == 8
    assert aut_order((2, 6)) == 12
    assert aut_order((3, 6)) == 48


@pytest.mark.parametrize("invariants", _sigma_groups(81), ids=str)
def test_automorphism_count_closed_form(invariants):
    """The closed form counts what exhaustive search finds."""
    assert len(reference_automorphism_matrices(invariants)) == aut_order(invariants)
    assert len(automorphism_permutations(invariants)) == aut_order(invariants)


def _definitional_table(rows, group):
    """Image-index table of the automorphism with generator images rows."""
    els, idx, _ = group.tables()
    return tuple(
        idx[tuple(sum(x * r[j] for x, r in zip(e, rows)) % d for j, d in enumerate(group.invariants))]
        for e in els
    )


CLOSURE_GROUPS = _sigma_groups(81) + [(6,), (10,), (12,), (2, 6), (3, 6), (2, 256)]


@pytest.mark.parametrize("invariants", CLOSURE_GROUPS, ids=str)
def test_automorphism_closure_matches_reference(invariants):
    """The closure of the elementary automorphisms is the set exhaustive search finds."""
    group = AbelianGroupTable(invariants)
    got = {tuple(perm) for perm in automorphism_permutations(invariants)}
    want = {_definitional_table(rows, group) for rows in reference_automorphism_matrices(invariants)}
    assert got == want
    assert set(automorphism_matrices(invariants)) == set(reference_automorphism_matrices(invariants))


def test_short_generating_set_fails_certificate(monkeypatch):
    """A closure that misses part of Aut(G) raises instead of returning it."""
    build = automorphism_permutations.__wrapped__
    units = cayley._unit_generators
    monkeypatch.setattr(cayley, "_unit_generators", lambda d: [3] if d == 8 else units(d))
    with pytest.raises(InvariantViolation, match="do not generate"):
        build((8,))
    monkeypatch.undo()
    elementary = cayley._elementary_automorphisms

    def scalings_only(invariants):
        r = len(invariants)
        return [
            rows for rows in elementary(invariants)
            if all(rows[i][j] == 0 for i in range(r) for j in range(r) if i != j)
        ]

    monkeypatch.setattr(cayley, "_elementary_automorphisms", scalings_only)
    with pytest.raises(InvariantViolation, match="do not generate"):
        build((3, 3))


def test_short_generating_set_fails_certificate_under_O():
    """The count certificate is a require, so python -O keeps it."""
    child = (
        "from rbcm import cayley\n"
        "from rbcm.errors import InvariantViolation\n"
        "units = cayley._unit_generators\n"
        "cayley._unit_generators = lambda d: [3] if d == 8 else units(d)\n"
        "try:\n"
        "    cayley.automorphism_permutations((8,))\n"
        "except InvariantViolation as exc:\n"
        "    print(__debug__, exc)\n"
    )
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(Path(rbcm.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", child], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False elementary automorphisms do not generate Aut(G)\n"


def _check_table(perm, group, want_images):
    """perm is a bijection sending generator i to its image in want_images,
    additive against every generator; returns the generator images."""
    els, idx, add = group.tables()
    gens = [idx[tuple(int(i == j) for j in range(group.rank))] for i in range(group.rank)]
    assert sorted(perm) == list(range(group.order))
    images = tuple(els[perm[g]] for g in gens)
    assert images in want_images
    for g in gens:
        assert all(perm[add[a][g]] == add[perm[a]][perm[g]] for a in range(group.order))
    return images


@pytest.mark.parametrize("invariants", [(4, 4), (3, 9), (5, 5)], ids=str)
def test_automorphism_permutations(invariants):
    """Each table is an additive bijection whose generator images are the rows
    of one automorphism matrix, and every matrix has exactly one table."""
    group = AbelianGroupTable(invariants)
    _, _, add = group.tables()
    matrices = set(automorphism_matrices(invariants))
    perms = automorphism_permutations(invariants)
    assert len(perms) == len(matrices)
    seen = set()
    for perm in perms:
        seen.add(_check_table(perm, group, matrices))
        for a in range(group.order):
            for b in range(group.order):
                assert perm[add[a][b]] == add[perm[a]][perm[b]]
    assert seen == matrices


def test_automorphism_permutations_16bit():
    """Above 256 elements the tables hold 16-bit indices; additivity against
    each generator, for every element, makes each one a homomorphism."""
    invariants = (2, 256)
    group = AbelianGroupTable(invariants)
    matrices = set(automorphism_matrices(invariants))
    perms = automorphism_permutations(invariants)
    assert len(perms) == len(matrices) == aut_order(invariants)
    seen = set()
    for perm in perms:
        assert perm.itemsize == 2
        seen.add(_check_table(perm, group, matrices))
    assert seen == matrices

"""The sigma-mode oracle against full (automorphism, seed) enumeration.

The reference below is the oracle as it was before sigma mode used one seed
per Aut(G)-orbit: every automorphism, as a matrix of generator images found by
exhaustive search, against every seed of the wanted order, with classes left
to _dedup_classes.
"""

import subprocess
import sys
from array import array
from pathlib import Path

import pytest
from reference_helpers import (
    definitional_group_tables,
    reference_automorphism_matrices,
    reference_sigma_frame,
    reference_sigma_walk,
    same_prime,
)

import rbcm
from rbcm import cayley
from rbcm.cayley import (
    AUT_CANDIDATE_LIMIT,
    CayleyMapRecord,
    _dedup_classes,
    _rank_mod_p,
    _sigma_frame,
    _sigma_mode,
    aut_candidate_count,
    aut_order,
    automorphism_matrices,
    automorphism_permutations,
    map_cases,
)
from rbcm.classify import abelian_p_groups
from rbcm.errors import InvariantViolation, TooLarge
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


def _mat_power(powers, rows, e, invariants):
    """rows^e, extending the last power stored in powers for rows one product at a time."""
    n = len(invariants)
    have, acc = powers.get(rows, (0, tuple(tuple(int(i == j) for j in range(n)) for i in range(n))))
    assert have <= e, (have, e)
    for _ in range(e - have):
        acc = _mat_mul(acc, rows, invariants)
    powers[rows] = (e, acc)
    return acc


def reference_sigma_mode(group, n, map_type, powers):
    """Every (automorphism, seed) pair; one record per distinct rotation cycle.

    powers keeps each automorphism's last power between calls of rising n,
    so sigma^n extends sigma^(n-1) by one product.
    """
    invariants = group.invariants
    p = same_prime(invariants)
    sign = 1 if map_type == "I" else -1
    seed_order = group.exponent if map_type == "I" else 2
    seeds = [w for w in group.elements() if group.element_order(w) == seed_order]
    records = {}
    for rows in reference_automorphism_matrices(invariants):
        power = _mat_power(powers, rows, n, invariants)
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
    powers = {}
    for valence in range(2, 17):
        for n, map_type in map_cases(group, valence):
            got = [r.canonical_key() for r in _sigma_mode(group, n, map_type)]
            want = _dedup_classes(reference_sigma_mode(group, n, map_type, powers))
            assert got == [r.canonical_key() for r in want], (valence, map_type)
            again = _dedup_classes(_sigma_mode(group, n, map_type))
            assert [r.canonical_key() for r in again] == got, (valence, map_type)


def test_sigma_mode_needs_no_dedup():
    """brute_force_rbcms returns sigma-mode output as it is: _dedup_classes
    keeps every record, in the same order, on every sigma-mode p-group of
    order <= 81."""
    cases = classes = 0
    for invariants in _sigma_groups(81):
        group = AbelianGroupTable(invariants)
        for valence in range(2, min(16, 2 * group.order) + 1):
            for n, map_type in map_cases(group, valence):
                got = _sigma_mode(group, n, map_type)
                assert _dedup_classes(got) == got, (invariants, valence)
                cases += 1
                classes += len(got)
    assert (cases, classes) == (223, 62)


def _walk_cases():
    """(invariants, valence) pairs for the least-cycle search against the walk."""
    cases = []
    for p in (2, 3, 5, 7):
        for inv in abelian_p_groups(p, 128):
            if aut_candidate_count(inv) <= AUT_CANDIDATE_LIMIT:
                order = AbelianGroupTable(inv).order
                cases.extend((inv, v) for v in range(2, min(32, 2 * order) + 1))
    # wide groups, then deep walks that never branch
    cases += [((5, 125), 10), ((7, 49), 14), ((2, 256), 512), ((2, 256), 1024), ((3, 3, 3), 54)]
    return cases


def test_sigma_mode_matches_walk_over_every_automorphism():
    """Growing each class's least cycle under the seed's stabilizer gives the
    records, in the same order, that walking the seed under every automorphism
    and keying each cycle by its minimal image gives."""
    checked = 0
    for inv, valence in _walk_cases():
        group = AbelianGroupTable(inv)
        for n, map_type in map_cases(group, valence):
            got = [r.cycle for r in _sigma_mode(group, n, map_type)]
            want = [r.cycle for r in reference_sigma_walk(group, n, map_type)]
            assert got == want, (inv, valence)
            checked += len(want)
    assert checked > 0


def test_sigma_mode_reads_only_its_frame(monkeypatch):
    """Once a group's frame is built, sigma mode reads no other part of Aut(G)."""
    cases = [
        (AbelianGroupTable(inv), n, map_type)
        for inv in ((3, 3, 3), (9, 9))
        for valence in range(4, 17)
        for n, map_type in map_cases(AbelianGroupTable(inv), valence)
    ]
    want = [[r.cycle for r in _sigma_mode(*case)] for case in cases]

    def unavailable(invariants):
        raise AssertionError(f"sigma mode read every automorphism of {invariants}")

    monkeypatch.setattr(cayley, "automorphism_permutations", unavailable)
    assert [[r.cycle for r in _sigma_mode(*case)] for case in cases] == want
    assert any(want)


def _frame_cases():
    """(invariants, seed order) of every frame sigma mode asks for on the
    groups of _walk_cases, and on (3, 243)."""
    groups = {inv for inv, _ in _walk_cases()} | {(3, 243)}
    return sorted((inv, AbelianGroupTable(inv).exponent) for inv in groups)


def _table_key(table, order):
    """The first |G| entries of a table, as bytes."""
    return bytes(table[:order])


def test_sigma_frame_matches_full_closure():
    """The Schreier-tree frame gives the seed, seeds, least seeds, stabilizer
    and negation table that reading the full closure of Aut(G) gives, and
    each of its movers is an automorphism that sends m to its key."""
    for invariants, seed_order in _frame_cases():
        order = AbelianGroupTable(invariants).order
        m, movers, firsts, stabilizer, neg = _sigma_frame(invariants, seed_order)
        ref_m, ref_movers, ref_firsts, ref_stabilizer, ref_neg = reference_sigma_frame(
            invariants, seed_order
        )
        case = (invariants, seed_order)
        assert (m, sorted(movers), firsts, neg) == (
            ref_m, sorted(ref_movers), ref_firsts, ref_neg
        ), case
        assert {_table_key(s, order) for s in stabilizer} == {
            _table_key(s, order) for s in ref_stabilizer
        }, case
        assert len(stabilizer) == len(ref_stabilizer), case
        every = {_table_key(perm, order) for perm in automorphism_permutations(invariants)}
        kind = bytes if order <= 256 else array
        for seed, mover in movers.items():
            assert mover[m] == seed, case
            assert _table_key(mover, order) in every, case
            assert type(mover) is kind, case
        assert all(type(s) is kind for s in stabilizer), case


def test_sigma_frame_lists_no_automorphism_group(monkeypatch):
    """Frames are built without the full list of Aut(G)."""

    def unavailable(invariants):
        raise AssertionError(f"the frame listed every automorphism of {invariants}")

    _sigma_frame.cache_clear()
    monkeypatch.setattr(cayley, "automorphism_permutations", unavailable)
    try:
        for invariants in ((3, 3, 3), (9, 9), (5, 125)):
            _, movers, _, stabilizer, _ = _sigma_frame(invariants, max(invariants))
            assert len(movers) * len(stabilizer) == aut_order(invariants)
    finally:
        _sigma_frame.cache_clear()


def test_sigma_frame_refuses_past_candidate_limit():
    """Past AUT_CANDIDATE_LIMIT neither the frame nor the full list is built:
    Stab(m) of (Z_2)^8 alone has |GL(8, 2)| / 255 members."""
    invariants = (2,) * 8
    assert aut_candidate_count(invariants) > AUT_CANDIDATE_LIMIT
    with pytest.raises(TooLarge, match="automorphism candidates"):
        _sigma_frame.__wrapped__(invariants, 2)
    with pytest.raises(TooLarge, match="automorphism candidates"):
        automorphism_permutations.__wrapped__(invariants)


def test_sigma_frame_short_generating_set_fails_certificate(monkeypatch):
    """A Schreier tree and stabilizer that miss part of Aut(G) raise instead
    of returning a frame."""
    build = _sigma_frame.__wrapped__
    units = cayley._unit_generators
    monkeypatch.setattr(cayley, "_unit_generators", lambda d: [3] if d == 8 else units(d))
    with pytest.raises(InvariantViolation, match="do not generate"):
        build((8,), 8)
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
        build((3, 3), 3)


def test_sigma_frame_short_generating_set_fails_certificate_under_O():
    """The frame's count certificate is a require, so python -O keeps it."""
    child = (
        "from rbcm import cayley\n"
        "from rbcm.errors import InvariantViolation\n"
        "units = cayley._unit_generators\n"
        "cayley._unit_generators = lambda d: [3] if d == 8 else units(d)\n"
        "try:\n"
        "    cayley._sigma_frame((8,), 8)\n"
        "except InvariantViolation as exc:\n"
        "    print(__debug__, exc)\n"
    )
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(Path(rbcm.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", child], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False elementary automorphisms do not generate Aut(G)\n"


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
    els, idx = group.tables()
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
    els, idx, add = definitional_group_tables(group.invariants)
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
    _, _, add = definitional_group_tables(invariants)
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

"""Maps certified, compared and counted by their relation ideal.

The references walk G: the rotation walk for is_rbcm, every alignment for
isomorphism and every dart, on element tuples, for the face census.  They
check the relation ideal on every record the reference sweep builds and on
random balanced maps, most of them not regular.  The negative cases are a
valid map whose rotation is no automorphism, a cycle that does not generate
its group, a sigma-mode leaf of that kind, and a type I cycle that is not
(omega, -omega).
"""

import itertools
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st
from reference_helpers import (
    reference_alignments,
    reference_is_rbcm,
    reference_maps_isomorphic,
    reference_sigma_walk,
    reference_trace_faces,
)

import rbcm
from rbcm import cayley, classify
from rbcm.cayley import (
    CayleyMapRecord,
    _elementary_automorphisms,
    brute_force_rbcms,
    is_rbcm,
    maps_isomorphic,
    relation_ideal,
    trace_faces,
)
from rbcm.classify import abelian_p_groups
from rbcm.errors import InvariantViolation
from rbcm.ideals import howell_form, shift_closed
from rbcm.structure import AbelianGroupTable
from rbcm.zring import is_prime

Z7 = AbelianGroupTable((7,))
Z5SQ = AbelianGroupTable((5, 5))
NON_REGULAR = [(1,), (2,), (3,), (6,), (5,), (4,)]  # (1, 2, 3, -1, -2, -3) on Z_7
NON_GENERATING = [(1, 0), (2, 0), (4, 0), (3, 0)]  # times 2 on the first factor of Z_5^2


@pytest.fixture(scope="module")
def sweep_views():
    """Every standard, family and oracle record of the reference sweep, once
    for each list that holds it.

    Each list reaches _match_classes with the oracle, so a spy there sees
    them all.  The caches start empty, so the views do not depend on what
    ran before.
    """
    for module in (cayley, classify, rbcm.ideals):
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
    views = []
    match = classify._match_classes

    def spy(family, oracle):
        views.extend([fm.record for fm in family] + list(oracle))
        return match(family, oracle)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify, "_match_classes", spy)
        report = classify.sweep()
    assert len(report.instances) == 279
    return views


@pytest.fixture(scope="module")
def sweep_records(sweep_views):
    """The distinct record objects among the views."""
    return list({id(rec): rec for rec in sweep_views}.values())


def test_sweep_records_are_certified_and_census_matches_every_dart(sweep_views, sweep_records):
    """428 views hold 148 distinct records.  Records are shared wherever
    their input is: build_map gives the standard list and every family one
    record per (ideal, n, map type), and the lattice-mode oracle reads the
    same kept realizations, so a lattice-mode class and its standard map
    are one object (182 records when the oracle realized its own).  Each
    kept its relation ideal from the sweep, which certified it."""
    assert (len(sweep_views), len(sweep_records)) == (428, 148)
    for rec in sweep_records:
        assert rec._relations is not None, rec
        assert is_rbcm(rec) == reference_is_rbcm(rec) and is_rbcm(rec)[0], rec
        assert trace_faces(rec) == reference_trace_faces(rec), rec


def test_sweep_pairs_match_every_alignment(sweep_records):
    buckets = {}
    for rec in sweep_records:
        buckets.setdefault((rec.group, rec.map_type), []).append(rec)
    pairs = isomorphic = 0
    for recs in buckets.values():
        for i, a in enumerate(recs):
            for b in recs[i:]:
                verdict = reference_maps_isomorphic(a, b)
                assert maps_isomorphic(a, b) == verdict == maps_isomorphic(b, a), (a.cycle, b.cycle)
                pairs += 1
                isomorphic += verdict
    assert pairs >= 500 and len(sweep_records) < isomorphic < pairs


def test_non_regular_map_is_isomorphic_to_its_rotation_by_one():
    rec = CayleyMapRecord(Z7, NON_REGULAR, "I")
    rec.validate()
    rotated = CayleyMapRecord(Z7, rec.cycle[1:] + rec.cycle[:1], "I")
    assert is_rbcm(rec) == is_rbcm(rotated) == (False, None)
    assert not shift_closed(relation_ideal(rec)) and not shift_closed(relation_ideal(rotated))
    assert list(reference_alignments(rec, rotated)) == [2, 5]  # alignment 0 does not show it
    assert maps_isomorphic(rec, rotated) and maps_isomorphic(rotated, rec)


@pytest.mark.parametrize("certify", [False, True])
def test_non_regular_census_equals_full_trace(certify):
    """The closed-form census reads no regularity: it equals the full trace
    whether or not is_rbcm has computed the relation ideal first."""
    rec = CayleyMapRecord(Z7, NON_REGULAR, "I")
    if certify:
        assert is_rbcm(rec) == (False, None)
    assert (rec._relations is not None) is certify
    assert trace_faces(rec) == reference_trace_faces(rec)


def test_non_generating_cycle_fails_validate():
    rec = CayleyMapRecord(Z5SQ, NON_GENERATING, "I")
    assert is_rbcm(rec) == (False, None)
    R = relation_ideal(rec)
    assert shift_closed(R) and R.quotient_size() == 5  # the rotation is fine on <omega> only
    with pytest.raises(InvariantViolation, match="generators do not span the group"):
        rec.validate()


def test_non_generating_sigma_leaf_is_dropped(monkeypatch):
    """(5, 5) at valence 4 has a leaf m, 2m, -m, -2m, whose relation ideal
    has a quotient of order 5, <m>; the oracle drops it and keeps the
    reference's classes."""
    keyed = []
    key = cayley.relation_ideal

    def spy(rec):
        keyed.append((rec, key(rec)))
        return keyed[-1][1]

    monkeypatch.setattr(cayley, "relation_ideal", spy)
    out = brute_force_rbcms(Z5SQ, 4)
    dropped = [rec for rec, R in keyed if R.quotient_size() < Z5SQ.order]
    assert dropped and all(not Z5SQ.generates(rec.cycle) for rec in dropped)
    assert not {rec.cycle for rec in dropped} & {rec.cycle for rec in out}
    assert [rec.cycle for rec in out] == [rec.cycle for rec in reference_sigma_walk(Z5SQ, 2, "I")]
    assert all(reference_is_rbcm(rec)[0] for rec in out)


def test_sigma_leaf_conflict_raises(monkeypatch):
    monkeypatch.setattr(cayley, "shift_closed", lambda R: False)
    with pytest.raises(InvariantViolation, match="extends to no homomorphism"):
        brute_force_rbcms(Z5SQ, 4)


OPTIMIZED_CHILD = """
from reference_helpers import reference_alignments, reference_trace_faces
from rbcm import cayley
from rbcm.cayley import CayleyMapRecord, brute_force_rbcms, is_rbcm, maps_isomorphic, trace_faces
from rbcm.errors import InvariantViolation
from rbcm.structure import AbelianGroupTable

Z7, Z5SQ = AbelianGroupTable((7,)), AbelianGroupTable((5, 5))
rec = CayleyMapRecord(Z7, [(1,), (2,), (3,), (6,), (5,), (4,)], "I")
rotated = CayleyMapRecord(Z7, rec.cycle[1:] + rec.cycle[:1], "I")
print(__debug__, is_rbcm(rec), is_rbcm(rotated), list(reference_alignments(rec, rotated)))
print(maps_isomorphic(rec, rotated), trace_faces(rec) == reference_trace_faces(rec))
bad = CayleyMapRecord(Z5SQ, [(1, 0), (2, 0), (4, 0), (3, 0)], "I")
print(is_rbcm(bad))
try:
    bad.validate()
except InvariantViolation as exc:
    print(exc)
print(len(brute_force_rbcms(Z5SQ, 4)))
cayley._sigma_frame.cache_clear()
cayley.shift_closed = lambda R: False
try:
    brute_force_rbcms(Z5SQ, 4)
except InvariantViolation as exc:
    print(exc)
"""


def test_negative_cases_survive_optimize():
    """The same verdicts under python -O, which strips asserts."""
    tests = Path(__file__).resolve().parent
    src = Path(rbcm.__file__).resolve().parents[1]
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": f"{src}:{tests}"}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_CHILD],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    want = len(brute_force_rbcms(Z5SQ, 4))
    assert proc.stdout == (
        "False (False, None) (False, None) [2, 5]\n"
        "True True\n"
        "(False, None)\n"
        "generators do not span the group\n"
        f"{want}\n"
        "sigma-mode rotation extends to no homomorphism\n"
    )


def test_type_one_cycle_that_is_not_sign_paired_is_not_a_balanced_map():
    """On Z_15, times 2 is an automorphism of order 4, so the rotation walk
    of (1, 2, 4, 8) succeeds; but 4 != -1, so as a type I map the cycle is
    not (omega, -omega), and is_rbcm and validate refuse it."""
    rec = CayleyMapRecord(AbelianGroupTable((15,)), [(1,), (2,), (4,), (8,)], "I")
    assert reference_is_rbcm(rec)[0]
    assert is_rbcm(rec) == (False, None)
    with pytest.raises(InvariantViolation, match="cycle is not sign-paired"):
        rec.validate()


def _groups(max_order: int) -> list[tuple[int, ...]]:
    """Invariant factors of every abelian group of order <= max_order."""
    found = [()]
    for chain in found:  # breadth first: found grows while it is walked
        last = chain[-1] if chain else 1
        found += [chain + (d,) for d in range(max(last, 2), max_order // math.prod(chain) + 1, last)]
    return found[1:]


SMALL_GROUPS = _groups(27)


@st.composite
def balanced_maps(draw):
    """Three validated maps (a, b, c) of one group, type and valence: a and b
    drawn at random, c the image of a rotation of a under an automorphism."""
    elementary = [g for g in SMALL_GROUPS if set(g) == {2}]  # type II groups, drawn as often as the rest
    group = AbelianGroupTable(draw(st.sampled_from(SMALL_GROUPS) | st.sampled_from(elementary)))
    els = group.elements()[1:]
    type_two = all(d == 2 for d in group.invariants)
    pool = els if type_two else [w for w in els if w < group.neg(w)]  # type I: one of each pair +-w
    assume(len(pool) >= 2)
    n = draw(st.integers(2, min(len(pool), 6 if type_two else 5)))

    def one_map():
        omega = [
            group.neg(w) if flip else w
            for w, flip in zip(
                draw(st.permutations(pool))[:n], draw(st.lists(st.booleans(), min_size=n, max_size=n))
            )
        ]
        cycle = omega if type_two else omega + [group.neg(w) for w in omega]
        assume(group.generates(cycle))
        rec = CayleyMapRecord(group, cycle, "II" if type_two else "I")
        rec.validate()
        return rec

    a, b = one_map(), one_map()
    steps = draw(st.lists(st.sampled_from(list(_elementary_automorphisms(group.invariants))), max_size=6))

    def aut(x):
        """A product of elementary automorphisms, each given by its images of the e_i."""
        for images in steps:
            x = tuple(sum(xi * w[j] for xi, w in zip(x, images)) % d for j, d in enumerate(group.invariants))
        return x

    s = draw(st.integers(0, a.valence - 1))
    c = CayleyMapRecord(group, [aut(w) for w in a.cycle[s:] + a.cycle[:s]], a.map_type)
    return a, b, c


@settings(max_examples=300, deadline=None)
@given(balanced_maps())
def test_relation_ideal_agrees_with_the_walks_on_random_maps(maps):
    a, b, c = maps
    event(f"type {a.map_type}, {'regular' if is_rbcm(a)[0] else 'not regular'}")
    for rec in maps:
        assert is_rbcm(rec) == reference_is_rbcm(rec), rec.cycle
        assert trace_faces(rec) == reference_trace_faces(rec), rec.cycle
    L = a.valence
    rotations = [CayleyMapRecord(a.group, a.cycle[s:] + a.cycle[:s], a.map_type) for s in range(L)]
    for other in [*rotations, b, c]:
        want = reference_maps_isomorphic(a, other)
        assert maps_isomorphic(a, other) == want == maps_isomorphic(other, a), (a.cycle, other.cycle)
    assert maps_isomorphic(a, c)


def _span(rows, N: int, width: int) -> set:
    """Every Z_N-combination of the rows."""
    span = {(0,) * width}
    for row in rows:
        span = {tuple((x + c * y) % N for x, y in zip(v, row)) for v in span for c in range(N)}
    return span


def test_relation_rows_span_the_relation_module():
    """On every abelian p-group of order <= 64 and every n with N^n <= 4096,
    the tails of the Howell rows span exactly {b : sum b_i omega_i = 0},
    listed by brute force over Z_N^n for random omega, and they are that
    module's own Howell form."""
    rng = random.Random(20261021)
    checked = 0
    for p in (q for q in range(2, 64) if is_prime(q)):
        for invariants in abelian_p_groups(p, 64):
            group = AbelianGroupTable(invariants)
            N, els = group.exponent, group.elements()
            n = 1
            while N ** n <= 4096:
                for _ in range(2):
                    omega = [rng.choice(els) for _ in range(n)]
                    rec = CayleyMapRecord(group, omega, "II")
                    R = relation_ideal(rec)
                    # tails are written highest degree first: entry t belongs to omega[n-1-t]
                    brute = {
                        b[::-1]
                        for b in itertools.product(range(N), repeat=n)
                        if not any(sum(bi * w[j] for bi, w in zip(b, omega)) % d for j, d in enumerate(invariants))
                    }
                    assert _span(R.rows, N, n) == brute, (invariants, omega)
                    assert R.rows == howell_form(sorted(brute), N, n)  # canonical, so a dict key
                    assert R.quotient_size() * len(brute) == N ** n
                    checked += 1
                n += 1
    assert checked > 300

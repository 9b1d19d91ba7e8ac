"""Certified regular records: one rotation walk per record, then isomorphism
by one alignment and the face census from one face.

The references try every alignment and trace every dart on element tuples,
whatever a record's regularity, so they check the shortcut on every record
the reference sweep builds.  The negative cases are records the shortcut
must not touch: a valid map whose rotation is no automorphism, a cycle that
does not generate its group, and a sigma-mode leaf of that kind.
"""

import subprocess
import sys
from pathlib import Path

import pytest
from reference_helpers import (
    reference_alignments,
    reference_maps_isomorphic,
    reference_sigma_walk,
    reference_trace_faces,
)

import rbcm
from rbcm import cayley, classify
from rbcm.cayley import CayleyMapRecord, brute_force_rbcms, is_rbcm, maps_isomorphic, trace_faces
from rbcm.errors import InvariantViolation
from rbcm.structure import AbelianGroupTable

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

    def spy(family, oracle, verdicts):
        views.extend([fm.record for fm in family] + list(oracle))
        return match(family, oracle, verdicts)

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
    are one object (182 records when the oracle realized its own)."""
    assert (len(sweep_views), len(sweep_records)) == (428, 148)
    for rec in sweep_records:
        assert rec._regular is True, rec
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
    assert rec._regular is False and rotated._regular is False
    assert list(reference_alignments(rec, rotated)) == [2, 5]  # alignment 0 does not show it
    assert maps_isomorphic(rec, rotated) and maps_isomorphic(rotated, rec)


@pytest.mark.parametrize("certify", [False, True])
def test_non_regular_census_equals_full_trace(certify):
    """Unknown (None) or refuted (False) regularity: every dart is traced."""
    rec = CayleyMapRecord(Z7, NON_REGULAR, "I")
    if certify:
        assert is_rbcm(rec) == (False, None)
    assert rec._regular is (False if certify else None)
    assert trace_faces(rec) == reference_trace_faces(rec)


def test_non_generating_cycle_fails_validate():
    rec = CayleyMapRecord(Z5SQ, NON_GENERATING, "I")
    assert is_rbcm(rec) == (False, None) and rec._regular is False
    with pytest.raises(InvariantViolation, match="generators do not span the group"):
        rec.validate()


def test_non_generating_sigma_leaf_is_dropped(monkeypatch):
    """(5, 5) at valence 4 has a leaf m, 2m, -m, -2m, whose rotation walk
    reaches only <m>; the oracle drops it and keeps the reference's classes."""
    walked = []
    rotation_table = cayley._rotation_table

    def spy(rec):
        walked.append((rec, rotation_table(rec)))
        return walked[-1][1]

    monkeypatch.setattr(cayley, "_rotation_table", spy)
    out = brute_force_rbcms(Z5SQ, 4)
    dropped = [rec for rec, table in walked if -1 in table]
    assert dropped and all(not Z5SQ.generates(rec.cycle) for rec in dropped)
    assert not {rec.cycle for rec in dropped} & {rec.cycle for rec in out}
    assert [rec.cycle for rec in out] == [rec.cycle for rec in reference_sigma_walk(Z5SQ, 2, "I")]
    assert all(rec._regular is True for rec in out)


def test_sigma_leaf_conflict_raises(monkeypatch):
    monkeypatch.setattr(cayley, "_hom_extend_idx", lambda order, pairs: None)
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
cayley._hom_extend_idx = lambda order, pairs: None
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

import itertools
import math
import subprocess
import sys
from pathlib import Path

import pytest
from reference_helpers import arc_transitive, candidates_up_to, reference_bounded_candidates, reference_combine

import rbcm
from rbcm.cayley import (
    CayleyMapRecord,
    brute_force_rbcms,
    build_map,
    bounded_admissible_candidates,
    is_rbcm,
    map_cases,
    map_stats,
    maps_isomorphic,
    realize_record,
    trace_faces,
)
from rbcm.errors import DegenerateOmega, InvariantViolation, NotAdmissible, TooLarge, TypeMismatch
from rbcm.ideals import (
    canonical_form,
    crt_split,
    enumerate_ideals_between,
    zero_ideal,
)
from rbcm.poly import Poly
from rbcm.structure import AbelianGroupTable
from rbcm.zring import Modulus

Z5 = Modulus(5)
Z3 = Modulus(3)


def P(coeffs, mod):
    return Poly(coeffs, mod)


def ctx(n, mod):
    return Poly.x_pow_plus_const(n, 1, mod)


def cyclic_map(mu, p, k, n):
    mod = Modulus(p, k)
    Q = canonical_form([P([-mu, 1], mod)], ctx(n, mod))
    return build_map(Q, n, "I")


def test_build_map_cyclic5():
    rec = cyclic_map(2, 5, 1, 2)
    assert rec.group.invariants == (5,)
    assert rec.cycle == ((1,), (2,), (4,), (3,))
    assert rec.omega == ((1,), (2,))


def test_build_map_z3sq():
    mod = Z3
    Q = zero_ideal(ctx(2, mod))
    rec = build_map(Q, 2, "I")
    assert rec.group.invariants == (3, 3)
    assert len(set(rec.cycle)) == 4


def test_build_map_not_admissible():
    Z2 = Modulus(2)
    Q = canonical_form([P([1, 1], Z2)], ctx(2, Z2))
    with pytest.raises(NotAdmissible) as e:
        build_map(Q, 2, "I")
    assert e.value.clause == "ii"


def test_build_map_replays_failures_exactly():
    """A kept failure comes back as a fresh exception with the first one's
    class and attributes, on every call."""
    rbcm.cayley._realized.cache_clear()
    Z2 = Modulus(2)
    not_admissible = canonical_form([P([1, 1], Z2)], ctx(2, Z2))
    degenerate = zero_ideal(ctx(2, Z2))  # x^0 and x^1 are their own negatives
    for Q, exc in [(not_admissible, NotAdmissible), (degenerate, DegenerateOmega)]:
        raised = []
        for _ in range(2):
            with pytest.raises(exc) as e:
                build_map(Q, 2, "I")
            raised.append(e.value)
        first, second = raised
        assert first is not second
        assert type(first) is type(second)
        assert (first.args, vars(first)) == (second.args, vars(second))
        if exc is NotAdmissible:
            assert (first.clause, first.detail, str(first)) == ("ii", "x^1+1 in ideal", "x^1+1 in ideal")
    assert (first.args, vars(first)) == (("collisions among signed generators (n=2)",), {})
    assert rbcm.cayley._realized.cache_info().misses == 2


def test_build_map_group_check_after_cached_success():
    """A record kept from a call without a group still meets the group check."""
    rbcm.cayley._realized.cache_clear()
    mod = Modulus(5)
    Q = canonical_form([P([-2, 1], mod)], ctx(2, mod))
    rec = build_map(Q, 2, "I")
    assert rec.group.invariants == (5,)
    with pytest.raises(TypeMismatch):
        build_map(Q, 2, "I", AbelianGroupTable((25,)))
    assert build_map(Q, 2, "I", AbelianGroupTable((5,))) is rec


def test_build_map_certifies_each_record_once(monkeypatch):
    """validate and is_rbcm run once per record, however often it is built."""
    from rbcm import cayley

    cayley._realized.cache_clear()
    validated, certified = [], []
    validate, is_rbcm_ = CayleyMapRecord.validate, cayley.is_rbcm

    def counted_validate(rec):
        validated.append(rec)
        return validate(rec)

    def counted_is_rbcm(rec):
        certified.append(rec)
        return is_rbcm_(rec)

    monkeypatch.setattr(CayleyMapRecord, "validate", counted_validate)
    monkeypatch.setattr(cayley, "is_rbcm", counted_is_rbcm)
    mod = Modulus(5)
    Q = canonical_form([P([-2, 1], mod)], ctx(2, mod))
    records = [build_map(Q, 2, "I") for _ in range(3)]
    records.append(build_map(Q, 2, "I", AbelianGroupTable((5,))))
    assert all(rec is records[0] for rec in records)
    assert validated == [records[0]] and certified == [records[0]]


def test_build_map_certifies_only_after_both_checks(monkeypatch):
    """A record whose certificate fails is not flagged, so the next call
    checks it again and fails again."""
    from rbcm import cayley

    cayley._realized.cache_clear()
    monkeypatch.setattr(cayley, "is_rbcm", lambda rec: (False, None))
    mod = Modulus(5)
    Q = canonical_form([P([-2, 1], mod)], ctx(2, mod))
    for _ in range(2):
        with pytest.raises(InvariantViolation):
            build_map(Q, 2, "I")


def test_is_rbcm_and_witness():
    rec = cyclic_map(2, 5, 1, 2)
    ok, witness = is_rbcm(rec)
    assert ok
    # witness is multiplication by 2 on the generators
    assert witness[(1,)] == (2,)
    # a non-extendable rotation: 1 -> 2 -> 3 -> 4
    bad = CayleyMapRecord(AbelianGroupTable((5,)), [(1,), (2,), (3,), (4,)], "I")
    ok, _ = is_rbcm(bad)
    assert not ok


def test_validate_survives_optimize():
    """validate() rejects a repeated generator also under python -O, which strips asserts."""
    child = (
        "from rbcm.cayley import CayleyMapRecord\n"
        "from rbcm.errors import InvariantViolation\n"
        "from rbcm.structure import AbelianGroupTable\n"
        "rec = CayleyMapRecord(AbelianGroupTable((5,)), [(1,), (1,), (4,), (4,)], 'I')\n"
        "try:\n"
        "    rec.validate()\n"
        "except InvariantViolation as exc:\n"
        "    print(__debug__, exc)\n"
    )
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(Path(rbcm.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", child], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False repeated generator\n"


def test_type2_swap_is_rbcm():
    g = AbelianGroupTable((2, 2))
    rec = CayleyMapRecord(g, [(1, 0), (0, 1)], "II")
    rec.validate()
    ok, witness = is_rbcm(rec)
    assert ok and witness[(1, 0)] == (0, 1)


def test_maps_isomorphic():
    m2 = cyclic_map(2, 5, 1, 2)
    m3 = cyclic_map(3, 5, 1, 2)
    assert not maps_isomorphic(m2, m3)
    assert maps_isomorphic(m2, m2)
    rotated = CayleyMapRecord(m2.group, m2.cycle[1:] + m2.cycle[:1], "I")
    assert maps_isomorphic(m2, rotated)
    g = AbelianGroupTable((2, 2))
    t2 = CayleyMapRecord(g, [(1, 0), (0, 1)], "II")
    with pytest.raises(TypeMismatch):
        maps_isomorphic(m2, t2)


def test_trace_faces_z5():
    rec = cyclic_map(2, 5, 1, 2)
    st = trace_faces(rec)
    assert (st.vertices, st.edges, st.faces) == (5, 10, 5)
    assert st.genus == 1
    assert st.face_lengths == (4, 4, 4, 4, 4)
    st3 = trace_faces(cyclic_map(3, 5, 1, 2))
    assert st3.genus == 1


def test_trace_faces_z3sq():
    Q = zero_ideal(ctx(2, Z3))
    rec = build_map(Q, 2, "I")
    st = trace_faces(rec)
    assert (st.vertices, st.edges) == (9, 18)
    assert st.vertices - st.edges + st.faces == 2 - 2 * st.genus
    # frozen after first trace: nine quadrilaterals on the torus
    assert st.faces == 9 and st.genus == 1
    assert st.face_lengths == (4,) * 9


def test_arc_transitivity_small():
    for rec in [cyclic_map(2, 5, 1, 2), cyclic_map(3, 5, 1, 2)]:
        assert arc_transitive(rec)
    Q = zero_ideal(ctx(2, Z3))
    assert arc_transitive(build_map(Q, 2, "I"))


def test_oracle_z5_valence4():
    classes = brute_force_rbcms((5,), 4)
    assert len(classes) == 2
    reps = {rec.cycle[1] for rec in classes}
    assert reps == {(2,), (3,)}


def test_oracle_z8_valence4():
    assert brute_force_rbcms((8,), 4) == []


def test_oracle_z3sq_valence4():
    classes = brute_force_rbcms((3, 3), 4)
    assert len(classes) == 1
    assert classes[0].map_type == "I"


def test_oracle_z4xz2_valence4():
    classes = brute_force_rbcms((2, 4), 4)
    assert len(classes) == 1


def test_oracle_type2_elementary():
    # swap map on Z_2 x Z_2 at valence 2
    classes = brute_force_rbcms((2, 2), 2)
    assert len(classes) == 1 and classes[0].map_type == "II"
    # valence 3 type II on Z_2^2
    classes3 = brute_force_rbcms((2, 2), 3)
    assert len(classes3) == 1
    # Z_2^2 has no type I maps at all
    assert brute_force_rbcms((2, 2), 4) == []


def test_map_cases():
    for invariants, valence, cases in [
        ((2, 2), 1, []),
        ((2, 2), 2, [(2, "II")]),
        ((2, 2), 3, [(3, "II")]),
        ((2, 2), 4, [(4, "II")]),
        ((4,), 3, []),
        ((4,), 4, [(2, "I")]),
        ((3, 3), 6, [(3, "I")]),
    ]:
        assert map_cases(AbelianGroupTable(invariants), valence) == cases
        if not cases:
            assert brute_force_rbcms(invariants, valence) == []


def test_oracle_budget():
    with pytest.raises(TooLarge):
        brute_force_rbcms((256,), 4)


def test_oracle_budget_env_override(monkeypatch):
    monkeypatch.setenv("RBCM_ORACLE_BUDGET", "4")
    with pytest.raises(TooLarge):
        brute_force_rbcms((5,), 4)
    monkeypatch.setenv("RBCM_ORACLE_BUDGET", "130")
    assert len(brute_force_rbcms((5,), 4)) == 2


def test_oracle_matches_ideal_count_z9():
    # ideals (x - mu) over Z_9 with mu^2 = -1: none, so no valence-4 maps
    assert brute_force_rbcms((9,), 4) == []
    # Z_9 at valence 6 (n = 3): mu^3 = -1 mod 9 has roots {2, 5, 8}, but
    # mu = 8 = -1 hits -1 at m = 1 < 3 and its orbit collapses; the two
    # surviving roots give non-isomorphic maps
    classes = brute_force_rbcms((9,), 6)
    mus = [mu for mu in range(9) if pow(mu, 3, 9) == 8]
    assert mus == [2, 5, 8]
    admissible = [
        mu for mu in mus if all(pow(mu, m, 9) != 8 for m in range(1, 3))
    ]
    assert admissible == [2, 5]
    assert len(classes) == len(admissible)


def test_lattice_mode_agrees_with_sigma_mode():
    # force both strategies on the same inputs and compare class counts
    from rbcm.cayley import _lattice_mode, _sigma_mode, _dedup_classes

    for invariants, n in [((5,), 2), ((3, 3), 2), ((9,), 3), ((2, 4), 2), ((3, 3), 3)]:
        g = AbelianGroupTable(invariants)
        sig = _dedup_classes(_sigma_mode(g, n, "I"))
        lat = _dedup_classes(_lattice_mode(g, n, "I"))
        assert len(sig) == len(lat)
        for a in sig:
            assert sum(1 for b in lat if maps_isomorphic(a, b)) == 1


def test_bounded_candidates_contain_admissible():
    cands = candidates_up_to(3, 1, 2, 9)
    # over Z_3, x^2+1 is irreducible: ideals are (0) and (1) within bound 9
    sizes = sorted(q.quotient_size() for q in cands)
    assert sizes == [1, 9]
    for q in cands:
        assert q.contains(ctx(2, Z3))


@pytest.mark.parametrize(
    "p,k,n,bound",
    [(2, 1, 8, 16), (2, 1, 16, 16), (2, 2, 4, 16), (3, 1, 6, 27), (3, 2, 3, 81), (5, 1, 4, 25)],
)
def test_bounded_candidates_match_full_ring(p, k, n, bound):
    """Enumerating above each component's radical floor loses no ideal of bounded index.

    The reference enumerates every component ring whole, keeps the ideals of
    index <= bound and combines them across components.
    """
    split = crt_split(p, k, n)
    mod = Modulus(p, k)
    per_component = [
        [q for q in enumerate_ideals_between(c) if q.quotient_size() <= bound]
        for c in split.contexts
    ]
    expected = {}
    for combo in itertools.product(*per_component):
        if math.prod(q.quotient_size() for q in combo) <= bound:
            Q = reference_combine(split, [q.row_polys() for q in combo])
            expected.setdefault(Q.rows, Q)
    got = [Q.rows for Q in candidates_up_to(p, k, n, bound)]
    assert got == sorted(expected)


@pytest.mark.parametrize(
    "p,k,n,bound", [(2, 1, 8, 16), (2, 2, 4, 16), (3, 2, 3, 81), (5, 2, 4, 25), (2, 3, 4, 64)]
)
def test_bounded_candidates_local_tree_branch(monkeypatch, p, k, n, bound):
    """Every component goes through the descent, once per order, and the
    candidates of every order p^j <= bound are those of the floor path the
    descent replaced."""
    orders = [p**j for j in range(bound.bit_length()) if p**j <= bound]
    floor_rows = sorted(Q.rows for order in orders for Q in reference_bounded_candidates(p, k, n, order))
    tree = rbcm.cayley.bounded_ideals_local_tree
    calls = []
    monkeypatch.setattr(
        rbcm.cayley, "bounded_ideals_local_tree", lambda *a: calls.append(a) or tree(*a)
    )
    bounded_admissible_candidates.cache_clear()
    try:
        tree_rows = [Q.rows for Q in candidates_up_to(p, k, n, bound)]
    finally:
        bounded_admissible_candidates.cache_clear()
    assert len(calls) == len(orders) * len(crt_split(p, k, n).labels)
    assert tree_rows == floor_rows


def test_realize_record_collision():
    from rbcm.errors import DegenerateOmega

    Z2 = Modulus(2)
    Q = zero_ideal(ctx(2, Z2))
    with pytest.raises(DegenerateOmega):
        realize_record(Q, 2, "I")


def test_map_stats_cached():
    rec = cyclic_map(2, 5, 1, 2)
    assert map_stats(rec) is map_stats(rec)

"""The rank-2 generator certificate on relation rows, case (d) as one
(mu, alpha, beta) box, and build-once ideals.

classify._rank2_generator_check checks additivity of the generator pairing
on the Howell rows of the ideal; reference_rank2_generator_check checks it on
every residue.  Both must pass or fail alike, with the same message, on the
case-(c)/(d) maps of small rank-2 groups under shifted parameters, where the
certificate has something to reject.
"""

import collections
import itertools

import pytest
from reference_helpers import (
    reference_rank2_case_d,
    reference_rank2_case_d_full,
    reference_rank2_generator_check,
)

from rbcm import classify
from rbcm.classify import _rank2_generator_check, classify_rank2, standard_form_maps
from rbcm.errors import InvariantViolation
from rbcm.ideals import canonical_form
from rbcm.poly import Poly
from rbcm.structure import AbelianGroupTable
from rbcm.zring import Modulus

# (p, k, k2, n) on Z_{p^k} x Z_{p^k2}; the last four have k > k2 >= 2, and
# (3, 4, 2, 9) has case-(d) maps with beta != 0
GROUPS = [
    (3, 1, 1, 3),
    (3, 2, 1, 3),
    (3, 3, 1, 3),
    (5, 1, 1, 5),
    (5, 2, 1, 5),
    (3, 3, 2, 3),
    (3, 3, 2, 9),
    (3, 4, 3, 3),
    (3, 4, 2, 9),
]


def outcome(check, *args):
    try:
        check(*args)
    except InvariantViolation as exc:
        return str(exc)
    return None


def rank2_maps(p, k, k2, n):
    """The family's maps on Z_{p^k} x Z_{p^k2} itself."""
    inv = (p**k2, p**k)
    return [m for m in classify_rank2(p, k, k2, n, max_order=p ** (k + k2)) if m.invariants == inv]


def test_rank2_certificate_matches_pairwise_reference():
    seen = collections.Counter()
    for p, k, k2, n in GROUPS:
        maps = [m for m in rank2_maps(p, k, k2, n) if m.params.as_dict()["case"] in ("c", "d")]
        assert maps, (p, k, k2, n)
        for fm in maps:
            d = fm.params.as_dict()
            # mu and alpha shifted by {0, 1, p}, and beta by 1 on its own
            shifts = [(dmu, dalpha, 0) for dmu, dalpha in itertools.product((0, 1, p), repeat=2)]
            for dmu, dalpha, dbeta in shifts + [(0, 0, 1)]:
                args = (fm.ideal, n, p, k, k2, d["mu"] + dmu, d["alpha"] + dalpha, d["beta"] + dbeta)
                got = outcome(_rank2_generator_check, *args)
                assert got == outcome(reference_rank2_generator_check, *args), (fm.params, args[4:])
                seen[got] += 1
    # the shifts put both the additivity and the generator checks to work;
    # the zero shift is the family's own parameters, which pass
    assert seen[None] and seen["not additive"] and seen["generator 3 mismatch"], seen


@pytest.mark.parametrize("p, k, n", [(3, 2, 3), (3, 3, 3), (3, 4, 3), (3, 3, 9), (5, 2, 5), (5, 3, 5)])
def test_rank2_case_d_box_matches_scan(p, k, n):
    # three of the six ideals at (3, 3, 9) are first hit at nu = 1 in the scan
    got = [m.ideal.rows for m in classify_rank2(p, k, 1, n) if m.params.as_dict()["case"] == "d"]
    assert got and got == reference_rank2_case_d(p, k, n)


@pytest.mark.parametrize("k, k2, n", [(3, 2, 9), (4, 2, 9)])
def test_rank2_case_d_box_matches_full_ranges(k, k2, n):
    # at (4, 2, 9) min(k2, k - k2) = 2, so beta runs over 0, 1, 2 and alpha
    # steps by 3; the full ranges take mu mod 81, every a and every b
    got = {m.ideal.rows for m in classify_rank2(3, k, k2, n) if m.params.as_dict()["case"] == "d"}
    assert got and got == reference_rank2_case_d_full(3, k, k2, n)


@pytest.mark.parametrize("k, k2, n, count", [(3, 2, 3, 3), (3, 2, 9, 24), (4, 3, 3, 3)])
def test_rank2_matches_standard_list_beyond_k2_one(k, k2, n, count):
    inv = (3**k2, 3**k)
    family = {m.ideal.rows for m in rank2_maps(3, k, k2, n)}
    standard = {m.ideal.rows for m in standard_form_maps(AbelianGroupTable(inv), 2 * n)}
    assert len(family) == count and family == standard


def test_rank2_case_d_reaches_recentred_ideal():
    # <y^2 + 3y, 9y> with y = x - 80 over Z_81 contains x^9 + 1 and gives a
    # map of Z_9 x Z_81.  Completing the square moves mu by 3/2, not by a
    # multiple of 9 = p^(k-k2), so 9y would gain a constant: no beta = 0 point
    # of the box gives this ideal
    mod = Modulus(3, 4)
    y = Poly.x(mod) - Poly.constant(80, mod)
    gens = [y**2 + Poly.constant(3, mod) * y, Poly.constant(9, mod) * y]
    Q = canonical_form(gens, Poly.x_pow_plus_const(9, 1, mod))
    maps = {m.ideal.rows: m for m in rank2_maps(3, 4, 2, 9)}
    assert Q.rows in maps
    assert maps[Q.rows].params.as_dict()["beta"] != 0


def test_rank2_case_d_forms_each_ideal_once(monkeypatch):
    calls = []
    canonical_form = classify.canonical_form

    def counting(*args):
        calls.append(args)
        return canonical_form(*args)

    monkeypatch.setattr(classify, "canonical_form", counting)
    maps = classify_rank2(7, 2, 1, 7)
    # every unit root of x^7 + 1 mod 49 is -1 mod 7, so case (a) has no pair
    # and all calls are case (d)'s
    assert [m.params.as_dict()["case"] for m in maps] == ["d"] * 7
    assert len(calls) <= 7, len(calls)


def test_rank2_builds_each_ideal_once(monkeypatch):
    built = collections.Counter()
    try_build = classify._try_build

    def counting(Q, *args, **kwargs):
        built[Q.rows] += 1
        return try_build(Q, *args, **kwargs)

    monkeypatch.setattr(classify, "_try_build", counting)
    maps = classify_rank2(3, 3, 1, 3)
    assert maps and built
    assert max(built.values()) == 1, max(built.values())


def test_rank2_beyond_bound_builds_nothing(monkeypatch):
    """Every family map lies on Z_{p^k} x Z_{p^k2}: past max_order none fits."""
    calls = []
    for name in ("_try_build", "canonical_form"):
        orig = getattr(classify, name)

        def counting(*args, _orig=orig, **kwargs):
            calls.append(args)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(classify, name, counting)
    assert classify_rank2(5, 5, 2, 5, max_order=81) == []
    assert calls == []

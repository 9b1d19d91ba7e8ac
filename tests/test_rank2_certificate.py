"""The rank-2 generator certificate on relation rows, and build-once ideals.

classify._rank2_generator_check checks additivity of the generator pairing
on the Howell rows of the ideal; reference_rank2_generator_check checks it on
every pair of residues.  Both must pass or fail alike, with the same
message, on the case-(c)/(d) maps of small rank-2 groups under shifted
parameters, where the certificate has something to reject.
"""

import collections
import itertools

from reference_helpers import reference_rank2_generator_check

from rbcm import classify
from rbcm.classify import _rank2_generator_check, classify_rank2
from rbcm.errors import InvariantViolation

GROUPS = [(3, 1, 1, 3), (3, 2, 1, 3), (3, 3, 1, 3), (5, 1, 1, 5), (5, 2, 1, 5)]


def outcome(check, *args):
    try:
        check(*args)
    except InvariantViolation as exc:
        return str(exc)
    return None


def test_rank2_certificate_matches_pairwise_reference():
    seen = collections.Counter()
    for p, k, k2, n in GROUPS:
        maps = [m for m in classify_rank2(p, k, k2, n) if m.params.as_dict()["case"] in ("c", "d")]
        assert maps, (p, k, k2, n)
        for fm in maps:
            d = fm.params.as_dict()
            for dmu, dalpha, dnu in itertools.product((0, 1, p), repeat=3):
                args = (fm.ideal, n, p, k, d["mu"] + dmu, d["alpha"] + dalpha, d["nu"] + dnu)
                got = outcome(_rank2_generator_check, *args)
                assert got == outcome(reference_rank2_generator_check, *args), (fm.params, args[4:])
                seen[got] += 1
    # the shifts put both the additivity and the generator checks to work;
    # the zero shift is the family's own parameters, which pass
    assert seen[None] and seen["not additive"] and seen["generator 3 mismatch"], seen


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

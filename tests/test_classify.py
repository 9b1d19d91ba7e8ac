import ast
import itertools
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from reference_helpers import reference_quadratic_divisors

import rbcm
from rbcm import classify
from rbcm.cayley import map_stats, maps_isomorphic
from rbcm.classify import (
    _params,
    abelian_p_groups,
    classify_2group,
    classify_coprime,
    classify_cyclic,
    classify_elementary,
    classify_rank2,
    cross_check,
    family_elementary_narrow_count,
    quadratic_divisors,
    rank2_shift_family_outcome,
    solve_unit_roots,
    standard_form_maps,
    theta_set,
)
from rbcm.factorlift import base_factor, lambda_index, split_p_part
from rbcm.ideals import canonical_form
from rbcm.poly import Poly
from rbcm.structure import AbelianGroupTable
from rbcm.zring import Modulus


def test_solve_unit_roots_examples():
    assert solve_unit_roots(5, 1, 2) == (2, 3)
    assert solve_unit_roots(5, 2, 2) == (7, 18)
    assert solve_unit_roots(3, 1, 2) == ()
    assert solve_unit_roots(3, 2, 3) == (2, 5, 8)


def test_theta_set_examples():
    assert theta_set(3, 2) == (4,)
    assert theta_set(3, 3) == (2,)
    # 5 = 1 mod 4, so no divisor of 4 qualifies
    assert theta_set(5, 2) == ()
    assert theta_set(5, 3) == (2, 6)


def test_classify_cyclic_examples():
    assert [m.params.as_dict()["mu"] for m in classify_cyclic(5, 1, 2)] == [2, 3]
    assert [m.params.as_dict()["mu"] for m in classify_cyclic(5, 2, 2)] == [7, 18]
    assert classify_cyclic(3, 1, 2) == []
    # mu = -1 is a cube root of -1 but collapses at valence 6
    assert [m.params.as_dict()["mu"] for m in classify_cyclic(3, 2, 3)] == [2, 5]


def test_classify_elementary_examples():
    ms = classify_elementary(3, 2, 2, "I")
    assert len(ms) == 1 and ms[0].invariants == (3, 3)
    ms = classify_elementary(5, 2, 2, "I")
    assert len(ms) == 1
    # the surviving ideal is the product of both linear factors
    K = dict(ms[0].params.as_dict()["K"])
    assert K == {(4, 1): 1, (4, 3): 1}
    ms = classify_elementary(2, 2, 2, "II")
    assert len(ms) == 1 and ms[0].record.map_type == "II"


def _reference_elementary_cases(p, m, n, map_type):
    """classify_elementary's (params, ideal rows) from Poly generators, each by canonical_form."""
    r, n_prime = split_p_part(n, p)
    labels = lambda_index(p, n_prime)
    mod = Modulus(p)
    context = Poly.x_pow_plus_const(n, 1, mod)
    out = []
    for exps in itertools.product(range(p**r + 1), repeat=len(labels)):
        if sum(e * lab.degree for e, lab in zip(exps, labels)) != m:
            continue
        f = Poly.one(mod)
        for e, lab in zip(exps, labels):
            f = f * base_factor(p, lab.d, lab.l) ** e
        K = tuple(((lab.d, lab.l), e) for lab, e in zip(labels, exps))
        out.append((_params("elementary" + map_type, K=K), canonical_form([f], context).rows))
    return out


def test_elementary_box_ideals_match_canonical_form(monkeypatch):
    """Every case the elementary family hands to its map builder, p <= 7,
    m <= 4 and n <= 12, has the params and rows canonical_form gives."""
    monkeypatch.setattr(classify, "_family_maps", lambda cases, *rest: [(c, Q.rows) for c, Q in cases])
    compared = 0
    for p in (2, 3, 5, 7):
        for m in range(1, 5):
            for n in range(1, 13):
                for map_type in ("I", "II") if p == 2 else ("I",):
                    got = classify_elementary(p, m, n, map_type)
                    assert got == _reference_elementary_cases(p, m, n, map_type), (p, m, n, map_type)
                    compared += len(got)
    assert compared == 254


def test_elementary_narrow_reading_diverges():
    # the narrow exponent range misses the double-root map at valence 6
    implemented = classify_elementary(3, 2, 3, "I")
    assert len(implemented) == 1
    assert family_elementary_narrow_count(3, 2, 3) == 0


def test_classify_2group_examples():
    ms = classify_2group(2, 2)
    types = sorted(m.invariants for m in ms)
    assert types == [(2, 4), (4, 4)]
    ms1 = classify_2group(1, 2)
    assert [m.invariants for m in ms1] == []  # exponent-2 groups carry no type I


def _clear_rbcm_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("rbcm."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def test_classify_2group_large_groups_small_memory():
    """classify twogroup --k 3 --n 4 at the CLI's default order bound 4096.

    Its maps live on groups of order 512 to 4096, and checking one only adds
    a cycle element to every group element; so the traced peak stays far
    below what one |G| x |G| addition table of the largest group would take.
    """
    _clear_rbcm_caches()
    tracemalloc.start()
    try:
        maps = classify_2group(3, 4, max_order=4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [m.invariants for m in maps] == [(4, 4, 4, 8), (4, 4, 8, 8), (4, 8, 8, 8), (8, 8, 8, 8)]
    assert peak < 32 * 2**20, f"traced peak {peak / 2**20:.1f} MB"


def test_classify_coprime_examples():
    ms = classify_coprime(3, 1, 2)
    assert len(ms) == 1 and ms[0].invariants == (3, 3)
    ms = classify_coprime(3, 2, 2)
    assert len(ms) == 1 and ms[0].invariants == (9, 9)
    # over Z_25 both labels are linear, so the family spans cyclic and rank-2
    # groups of exponent 25
    ms = classify_coprime(5, 2, 2, max_order=625)
    assert {m.invariants for m in ms} == {(25,), (5, 25), (25, 25)}
    assert len([m for m in ms if m.invariants == (25,)]) == len(classify_cyclic(5, 2, 2))


def test_classify_rank2_examples():
    ms = classify_rank2(3, 1, 1, 2)
    assert len(ms) == 1 and ms[0].params.as_dict()["case"] == "b"
    ms = classify_rank2(5, 1, 1, 2)
    assert len(ms) == 1 and ms[0].params.as_dict()["case"] == "a"
    # depth case (d): three alpha values at mu = 2
    ms = classify_rank2(3, 2, 1, 3)
    assert len(ms) == 3 and all(m.params.as_dict()["case"] == "d" for m in ms)
    # empty U kills the family
    assert classify_rank2(3, 2, 1, 6) == []


@pytest.mark.parametrize("p", [3, 5, 7])
def test_quadratic_divisors_match_full_scan(p):
    found = 0
    for k in (1, 2, 3):
        for n in range(1, 11):
            got = quadratic_divisors(p, k, n)
            assert got == reference_quadratic_divisors(p**k, n), (k, n)
            found += len(got)
    assert found


def test_rank2_scan_finds_inert_beyond_theta():
    # d = 8 does not divide p + 1 = 6, yet the two inert quadratics are maps
    ms = classify_rank2(5, 1, 1, 4)
    bs = [m for m in ms if m.params.as_dict()["case"] == "b"]
    assert len(bs) == 2
    assert all(not m.params.as_dict()["theta_condition"] for m in bs)


def test_rank2_equal_precision_double_root():
    # k = k' = 2, r > 0: configuration missing from the narrow case split
    ms = classify_rank2(3, 2, 2, 3)
    cases = sorted(m.params.as_dict()["case"] for m in ms)
    assert cases == ["c+", "c+", "c+"]
    out = rank2_shift_family_outcome(ms)
    assert out["total"] == 0


def test_rank2_shift_family_z9sq():
    ms = classify_rank2(3, 2, 2, 6)
    out = rank2_shift_family_outcome(ms)
    assert out == {
        "total": 8,
        "unshifted_reading": 0,
        "scalar_shift_reading": 2,
        "beyond_scalar": 6,
    }


@pytest.mark.parametrize(
    "spec,valence,expected",
    [((5,), 4, 2), ((8,), 4, 0), ((3, 3), 4, 1), ((2, 4), 4, 1)],
)
def test_cross_check_spot_values(spec, valence, expected):
    r = cross_check(spec, valence)
    assert r.ok
    assert r.oracle_count == r.standard_count == expected
    for name, count in r.family_counts.items():
        assert count == expected, name


def test_cross_check_oracle_only_group():
    # rank-3 mixed 3-group: no family applies at 3 | n
    r = cross_check((3, 3, 9), 6)
    assert r.family_counts == {}
    assert r.ok
    assert r.oracle_count == r.standard_count


def test_standard_form_maps_match_families():
    g = AbelianGroupTable((9, 9))
    std = standard_form_maps(g, 12)
    fam = [m for m in classify_rank2(3, 2, 2, 6, max_order=81) if m.invariants == (9, 9)]
    assert len(std) == len(fam) == 8
    for m in fam:
        assert sum(1 for s in std if maps_isomorphic(m.record, s.record)) == 1


def test_abelian_p_groups():
    assert abelian_p_groups(2, 8) == [(2,), (4,), (8,), (2, 2), (2, 4), (2, 2, 2)]
    assert abelian_p_groups(5, 81) == [(5,), (25,), (5, 5)]


def test_genus_reported():
    ms = classify_cyclic(5, 1, 2)
    st = map_stats(ms[0].record)
    assert (st.vertices, st.edges, st.faces, st.genus) == (5, 10, 5, 1)


def test_pairwise_distinct_survives_optimize():
    """A repeated family member is rejected also under python -O, which strips asserts."""
    child = (
        "from rbcm.classify import _assert_pairwise_distinct, classify_cyclic\n"
        "from rbcm.errors import InvariantViolation\n"
        "m = classify_cyclic(5, 1, 2)[0]\n"
        "try:\n"
        "    _assert_pairwise_distinct([m, m])\n"
        "except InvariantViolation as exc:\n"
        "    print(__debug__, exc)\n"
    )
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(Path(rbcm.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", child], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False family members cyclic(mu=2) and cyclic(mu=2) are isomorphic\n"


@pytest.mark.parametrize(
    "module", ["cayley", "classify", "ideals", "structure", "factorlift", "poly"]
)
def test_certificates_use_no_assert(module):
    """Certificates raise InvariantViolation; a bare assert would vanish under -O."""
    path = Path(rbcm.__file__).resolve().parent / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements at {module}.py lines {lines}"


def test_only_structure_reads_the_p_type_off_the_exponent():
    """AbelianGroupTable.p_type is the one reader of a p-group's type: no
    other rbcm module passes a group's .exponent to factorize."""
    calls = []
    for path in sorted(Path(rbcm.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == "factorize"
                and any(
                    isinstance(sub, ast.Attribute) and sub.attr == "exponent"
                    for arg in node.args
                    for sub in ast.walk(arg)
                )
            ):
                calls.append((path.stem, node.lineno))
    assert {stem for stem, _ in calls} <= {"structure"}, calls
    assert calls, "structure should read the type through factorize(self.exponent)"


def test_cross_check_rejects_a_non_p_group_before_the_oracle(monkeypatch):
    calls = []
    monkeypatch.setattr(classify, "brute_force_rbcms", lambda *a: calls.append(a) or [])
    with pytest.raises(ValueError, match="not a p-group"):
        cross_check((2, 3), 4)
    assert calls == []


def test_standard_list_certifies_only_maps_on_its_group(monkeypatch):
    """A candidate whose quotient is another group of the same order is
    dropped before validate and is_rbcm run on it.

    Realized and certified records are kept per process, so the counts
    start from empty caches."""
    from rbcm import cayley

    _clear_rbcm_caches()
    realized, certified = [], []
    realize_record, is_rbcm = cayley.realize_record, cayley.is_rbcm

    def realize(*args):
        realized.append(realize_record(*args))
        return realized[-1]

    def certify(rec):
        certified.append(rec)
        return is_rbcm(rec)

    monkeypatch.setattr(cayley, "realize_record", realize)
    monkeypatch.setattr(cayley, "is_rbcm", certify)
    group = AbelianGroupTable((9, 9))
    out = standard_form_maps(group, 6)
    assert len(out) == 3
    assert any(rec.group != group for rec in realized)  # an other-group candidate was realized
    assert len(certified) == len(out)
    assert all(rec.group == group for rec in certified)


def test_crosscheck_9x9_keys_each_record_once(monkeypatch):
    """cross_check((9, 9), 12) computes one relation ideal per distinct
    record, every record it matches has one, and nothing walks G: no
    structure.reachable call (walks over G once took 92 rotation and
    alignment walks here, and every alignment of every pair 832).

    Counted from empty caches, by spies, not by a clock.
    """
    from rbcm import cayley, structure

    _clear_rbcm_caches()
    keyed, matched, reached = [], [], []
    key, match, reachable = cayley.relation_ideal, classify._match_classes, structure.reachable

    def spy_key(rec):
        if rec._relations is None:
            keyed.append(rec)
        return key(rec)

    monkeypatch.setattr(cayley, "relation_ideal", spy_key)
    monkeypatch.setattr(
        classify, "_match_classes", lambda f, o: matched.extend([m.record for m in f] + o) or match(f, o)
    )
    monkeypatch.setattr(structure, "reachable", lambda *a: reached.append(a) or reachable(*a))
    assert cross_check((9, 9), 12).ok
    assert len({id(rec) for rec in keyed}) == len(keyed)  # one relation ideal per record
    assert {id(rec) for rec in matched} <= {id(rec) for rec in keyed}
    assert reached == []


def test_match_classes_needs_a_perfect_matching():
    """Each family record takes its own oracle class by isomorphism key: a
    repeated record, or a class that no record takes, gives None."""
    oracle = classify.brute_force_rbcms((5,), 4)
    fam = classify_cyclic(5, 1, 2)
    pairs = classify._match_classes(fam, oracle)
    assert sorted(j for _, j in pairs) == [0, 1]
    assert all(maps_isomorphic(fam[i].record, oracle[j]) for i, j in pairs)
    assert classify._match_classes([fam[0], fam[0], fam[1]], oracle) is None
    assert classify._match_classes(fam[:1], oracle) is None


def _spy(monkeypatch, module, name):
    """Replace module.name with a wrapper; return the list of its calls'
    (args, result)."""
    calls, fn = [], getattr(module, name)

    def spied(*args):
        calls.append((args, fn(*args)))
        return calls[-1][1]

    monkeypatch.setattr(module, name, spied)
    return calls


def test_crosscheck_combines_coprime_ideals_of_the_group_order_only(monkeypatch):
    """The coprime family is asked for its maps of order |G| only, so no
    ideal of another index is combined: 3 combinations for (9, 9) at
    valence 8, where the family's order <= 81 walk made 6."""
    from rbcm import ideals

    _clear_rbcm_caches()
    combined = _spy(monkeypatch, ideals, "combine_components")
    report = cross_check((9, 9), 8)
    assert report.ok and report.family_counts["coprime"] == report.oracle_count
    assert [Q.quotient_size() for _, Q in combined] == [81, 81, 81]


def test_crosscheck_realizes_each_input_once(monkeypatch):
    """The lattice-mode oracle and the standard list share one realization
    per (ideal, n, map type): 3 for (3, 3, 9) at valence 8, where the oracle
    realizing its candidates itself made 5."""
    from rbcm import cayley

    _clear_rbcm_caches()
    realized = _spy(monkeypatch, cayley, "realize_record")
    assert cross_check((3, 3, 9), 8).ok
    inputs = [args for args, _ in realized]
    assert len(inputs) == len(set(inputs)) == 3


def test_crosscheck_keys_each_shared_record_once(monkeypatch):
    """A record the lattice-mode oracle certified is not keyed again when
    the standard list and the elementary family build it: one relation
    ideal for (3, 3, 3, 3) at valence 10, where a check per path made 2."""
    from rbcm import cayley

    _clear_rbcm_caches()
    keyed = _spy(monkeypatch, cayley, "howell_form")
    report = cross_check((3, 3, 3, 3), 10)
    assert report.ok and report.oracle_count == report.standard_count == 1
    assert len(keyed) == 1


def test_lattice_mode_never_asks_for_admissibility(monkeypatch):
    """The oracle's checks stay definitional: it reads realizations from the
    shared cache, never the admissibility verdicts kept beside them, even
    when build_map has already computed them."""
    from rbcm import cayley

    group = AbelianGroupTable((3, 3, 3, 3))
    for warm in (False, True):
        _clear_rbcm_caches()
        if warm:
            assert standard_form_maps(group, 10)
        asked = _spy(monkeypatch, cayley, "is_admissible")
        assert len(cayley._lattice_mode(group, 5, "I")) == 1
        assert asked == []
        monkeypatch.undo()


def _report_bytes(report) -> str:
    return json.dumps(report.to_json(), sort_keys=True, separators=(",", ":"))


def test_warm_caches_change_no_report():
    """Every abelian 3-group of order <= 27 at each valence 2n, n <= 8:
    from empty caches, then forward and in reverse in the same process,
    where every build, combination and enumeration is a cache hit."""
    instances = [
        (inv, 2 * n)
        for inv in abelian_p_groups(3, 27)
        for n in range(2, 9)
        if n <= math.prod(inv)
    ]
    _clear_rbcm_caches()
    cold = [_report_bytes(cross_check(inv, v)) for inv, v in instances]
    forward = [_report_bytes(cross_check(inv, v)) for inv, v in instances]
    backward = [_report_bytes(cross_check(inv, v)) for inv, v in reversed(instances)][::-1]
    assert len(instances) == 37
    assert forward == cold
    assert backward == cold

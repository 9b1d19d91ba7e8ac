import inspect
import itertools
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest
from reference_helpers import (
    candidates_up_to,
    component_radicals,
    crt_backward,
    crt_forward,
    reference_admissibility,
    reference_bounded_candidates,
    reference_closed_form_ideals,
    reference_crt_split,
    reference_floor_ideals,
)

from rbcm import factorlift, ideals
from rbcm.cayley import bounded_admissible_candidates
from rbcm.errors import ComponentNotAdmissible, DuplicatePrime, InvariantViolation, TooLarge
from rbcm.factorlift import base_factor, factor_xn_plus1
from rbcm.ideals import (
    ENUM_BUDGET,
    bounded_combinations,
    box_ideal,
    bounded_ideals_local_tree,
    canonical_form,
    closed_form_ideals,
    compose_across_primes,
    constant_ideal,
    crt_split,
    descent_level,
    enumerate_ideals_between,
    enumerate_ideals_containing,
    howell_form,
    is_admissible,
    zero_ideal,
)
from rbcm.poly import Poly, poly_mod
from rbcm.zring import Modulus

Z5 = Modulus(5)
Z9 = Modulus(3, 2)
Z4 = Modulus(2, 2)


def P(coeffs, mod):
    return Poly(coeffs, mod)


def ctx(n, mod):
    return Poly.x_pow_plus_const(n, 1, mod)


def test_canonical_form_examples():
    # <x-2> in Z_5[x]/(x^2+1): single row x+3
    Q = canonical_form([P([-2, 1], Z5)], ctx(2, Z5))
    assert Q.rows == ((1, 3),)
    assert Q.row_polys() == [P([3, 1], Z5)]
    # <2, x> in Z_4[x]/(x^2+1): shift closure pulls in x*x = -1, so this is
    # the unit ideal
    Q2 = canonical_form([P([2], Z4), P([0, 1], Z4)], ctx(2, Z4))
    assert Q2.row_polys() == [P([0, 1], Z4), P([1], Z4)]
    assert Q2.quotient_size() == 1
    # a proper two-row presentation: <2x, 2> over Z_4
    Q3 = canonical_form([P([0, 2], Z4), P([2], Z4)], ctx(2, Z4))
    assert Q3.row_polys() == [P([0, 2], Z4), P([2], Z4)]
    # empty generating set: zero ideal
    assert zero_ideal(ctx(2, Z5)).rows == ()


@pytest.mark.parametrize("p,k", [(2, 1), (2, 3), (3, 2), (5, 2)])
def test_constant_ideal_matches_canonical_form(p, k):
    mod = Modulus(p, k)
    contexts = [ctx(n, mod) for n in range(1, 5)] + list(crt_split(p, k, 4).contexts)
    for c in contexts:
        for u in range(k + 1):
            Q = constant_ideal(p**u, c)
            assert Q.rows == canonical_form([Poly.constant(p**u, mod)], c).rows
    with pytest.raises(ValueError):
        constant_ideal(p + 1, ctx(2, mod))


def test_canonical_form_idempotent_and_order_independent():
    rng = random.Random(11)
    for mod, n in [(Z4, 2), (Z9, 2), (Z5, 2), (Modulus(2, 3), 3)]:
        context = ctx(n, mod)
        for _ in range(1000):
            gens = [
                P([rng.randrange(mod.N) for _ in range(rng.randrange(1, n + 1))], mod)
                for _ in range(rng.randrange(1, 4))
            ]
            Q = canonical_form(gens, context)
            again = canonical_form(Q.row_polys(), context)
            assert again.rows == Q.rows
            rng.shuffle(gens)
            assert canonical_form(gens, context).rows == Q.rows


def test_contains_examples():
    Q = canonical_form([P([-2, 1], Z9), P([3], Z9)], ctx(2, Z9))
    assert Q.contains(P([1, 1], Z9))
    Q5 = canonical_form([P([-2, 1], Z5)], ctx(2, Z5))
    assert not Q5.contains(P([1, 1], Z5))
    assert Q5.contains(Poly.zero(Z5))


def naive_closure_membership(Q, f):
    """Oracle: saturate the generator set under +g and *x inside the quotient."""
    mod = Q.modulus
    context = Q.context_monic
    gens = [poly_mod(g, context) for g in Q.row_polys()]
    seen = {Poly.zero(mod).coeffs}
    frontier = [Poly.zero(mod)]
    while frontier:
        cur = frontier.pop()
        nxt = [poly_mod(cur.shift(1), context)] + [cur + g for g in gens]
        for cand in nxt:
            if cand.coeffs not in seen:
                seen.add(cand.coeffs)
                frontier.append(cand)
    return poly_mod(f, context).coeffs in seen


def test_contains_agrees_with_naive_closure():
    rng = random.Random(5)
    cases = [
        canonical_form([P([-2, 1], Z5)], ctx(2, Z5)),
        canonical_form([P([2, 2], Z4)], ctx(2, Z4)),
        canonical_form([P([3], Z9)], ctx(2, Z9)),
        canonical_form([P([1, 1], Modulus(2, 3))], ctx(3, Modulus(2, 3))),
    ]
    for Q in cases:
        assert Q.quotient_size() <= 1 << 12
        for _ in range(60):
            f = P([rng.randrange(Q.modulus.N) for _ in range(Q.width)], Q.modulus)
            assert Q.contains(f) == naive_closure_membership(Q, f)


def test_is_admissible_examples():
    Q = canonical_form([P([-2, 1], Z5)], ctx(2, Z5))
    assert is_admissible(Q, 2).ok
    Q2 = canonical_form([P([-2, 1], Z9), P([3], Z9)], ctx(2, Z9))
    a = is_admissible(Q2, 2)
    assert not a.ok and a.clause == "iii"
    # <x+1> over Z_2 contains x^1+1: minimality clause
    Z2 = Modulus(2)
    Q3 = canonical_form([P([1, 1], Z2)], ctx(2, Z2))
    a = is_admissible(Q3, 2)
    assert not a.ok and a.clause == "ii"


def test_is_admissible_type2():
    Z2 = Modulus(2)
    Q = canonical_form([P([1, 1, 1], Z2)], ctx(3, Z2))
    assert is_admissible(Q, 3, "II").ok
    Q2 = canonical_form([P([1, 0, 1], Z2)], ctx(4, Z2))
    a = is_admissible(Q2, 4, "II")
    assert not a.ok and a.clause == "ii"


def test_admissibility_row_walk_matches_poly_membership():
    """The x-power row walk gives the verdict and clause of testing each
    x^m + 1 as a Poly, on every bounded candidate ideal and every m <= n."""
    pairs = 0
    for p in (2, 3, 5):
        for k in range(1, 7):
            N = p**k
            if N > 81:
                break
            for n in range(1, 9):
                for Q in candidates_up_to(p, k, n, 81):
                    for m in range(1, n + 1):
                        got = is_admissible(Q, m)
                        assert (got.ok, got.clause) == reference_admissibility(Q, m), (Q, m)
                        if N == 2:
                            got = is_admissible(Q, m, "II")
                            assert (got.ok, got.clause) == reference_admissibility(Q, m, True), (Q, m)
                        pairs += 1
    assert pairs == 3227


def test_crt_split_examples():
    split = crt_split(5, 1, 2)
    x = Poly.x(Z5)
    parts = crt_forward(split, x)
    assert [p.coeffs for p in parts] == [(2,), (3,)]
    one = Poly.one(Z5)
    assert all(p == one for p in crt_forward(split, one))
    assert crt_backward(split, parts) == x

    split31 = crt_split(3, 1, 2)
    assert len(split31.contexts) == 1
    assert split31.idempotents == (Poly.one(Modulus(3)),)
    x3 = Poly.x(Modulus(3))
    assert crt_forward(split31, x3) == [x3]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_crt_split_matches_reference(p):
    """One lift per label gives the split the per-level factors and Bezout
    pairs give: labels, contexts, idempotents and embedding rows, for every
    p^k <= 2401 and n <= 18."""
    k = 1
    while p**k <= 2401:
        for n in range(1, 19):
            assert crt_split.__wrapped__(p, k, n) == reference_crt_split(p, k, n), (p, k, n)
        k += 1


@pytest.mark.parametrize("p,k,n", [(2, 3, 12), (3, 2, 18), (5, 4, 10), (7, 1, 14)])
def test_crt_split_lifts_once_per_label(p, k, n, monkeypatch):
    """The split makes one Hensel lift per label and no per-level factor, product or Bezout pair."""

    def refuse(*args):
        raise AssertionError("crt_split must not call this")

    for name in ("factor_xn_plus1", "bezout_certificate", "lift_level0_factor", "lift_radical_factor"):
        monkeypatch.setattr(factorlift, name, refuse)
        monkeypatch.setattr(ideals, name, refuse, raising=False)
    lifts = []
    lift = ideals._lift_coprime_block
    monkeypatch.setattr(ideals, "_lift_coprime_block", lambda *a: lifts.append(a) or lift(*a))
    split = crt_split.__wrapped__(p, k, n)
    assert len(lifts) == len(split.labels) > 0
    assert split == reference_crt_split(p, k, n)


@pytest.mark.parametrize("p,k,n", [(2, 1, 2), (2, 2, 2), (3, 1, 2), (3, 1, 4), (5, 1, 2), (2, 2, 3), (3, 2, 2)])
def test_crt_round_trip_exhaustive(p, k, n):
    split = crt_split(p, k, n)
    mod = Modulus(p, k)
    size = (p**k) ** n
    if size > 6561:
        pytest.skip("ring too large for the exhaustive sweep")
    import itertools

    residues = [Poly(c, mod) for c in itertools.product(range(p**k), repeat=n)]
    for f in residues:
        assert crt_backward(split, crt_forward(split, f)) == poly_mod(f, split.ambient)
    # homomorphism property on a sample
    rng = random.Random(3)
    for _ in range(300):
        f, g = rng.choice(residues), rng.choice(residues)
        ff, gg = crt_forward(split, f), crt_forward(split, g)
        assert crt_forward(split, poly_mod(f * g, split.ambient)) == [
            poly_mod(a * b, ctx) for a, b, ctx in zip(ff, gg, split.contexts)
        ]
        assert crt_forward(split, f + g) == [
            poly_mod(a + b, ctx) for a, b, ctx in zip(ff, gg, split.contexts)
        ]


def test_enumerate_ideals_field_case():
    # x - 1 over Z_5: exactly the zero ideal and the whole ring
    f = P([-1, 1], Z5)
    out = enumerate_ideals_containing(f)
    assert len(out) == 2
    sizes = sorted(q.quotient_size() for q in out)
    assert sizes == [1, 5]


def test_enumerate_ideals_chain_case():
    # lifted quadratic over Z_9: exactly three ideals (f, 3^u)
    lf = [f for f in factor_xn_plus1(3, 2, 2)][0]
    out = enumerate_ideals_containing(lf.poly, label=lf.label)
    assert len(out) == 3
    assert sorted(q.quotient_size() for q in out) == [1, 9, 81]


def test_enumerate_ideals_gaussian_case():
    # Z_4[x]/(x^2+1) has exactly 5 ideals
    lf = [f for f in factor_xn_plus1(2, 2, 2)][0]
    out = enumerate_ideals_containing(lf.poly, label=lf.label)
    assert len(out) == 5
    assert sorted(q.quotient_size() for q in out) == [1, 2, 4, 8, 16]


def _distinct_factors(p, ks, ns):
    """Each distinct lifted factor of x^n + 1 over Z_{p^k}, k in ks and n in ns."""
    seen = set()
    for k in ks:
        for n in ns:
            for lf in factor_xn_plus1(p, k, n):
                if (k, lf.label, lf.poly.coeffs) not in seen:
                    seen.add((k, lf.label, lf.poly.coeffs))
                    yield lf


def _closed_form_factors():
    """Each distinct lifted factor of x^n + 1 (p in {2, 3, 5, 7}, k <= 3,
    2 <= n <= 12) that has a closed-form lattice and fits the enumeration budget."""
    for p in (2, 3, 5, 7):
        for lf in _distinct_factors(p, (1, 2, 3), range(2, 13)):
            if lf.poly.modulus.N ** lf.poly.degree <= ENUM_BUDGET:
                closed = closed_form_ideals(lf.poly, lf.label)
                if closed is not None:
                    yield lf, closed


def test_closed_form_matches_exhaustive_sweep():
    """Closed-form lattices, which enumerate_ideals_containing returns
    unchecked, against exhaustive enumeration."""
    compared = 0
    for lf, closed in _closed_form_factors():
        exhaustive = enumerate_ideals_between(lf.poly)
        assert [q.rows for q in closed] == [q.rows for q in exhaustive], lf
        for q in exhaustive:
            assert q.contains(lf.poly)
        compared += 1
    assert compared == 150


@pytest.mark.parametrize("p,closed", [(2, 52), (3, 53), (5, 75), (7, 89)])
def test_closed_form_ideals_match_reference(p, closed):
    """The box ideals give the Poly-generator canonical forms on every
    distinct lifted factor of x^n + 1, k <= 4 and n <= 12, and no closed
    form exactly where the reference has none."""
    compared = 0
    for lf in _distinct_factors(p, range(1, 5), range(1, 13)):
        got = closed_form_ideals(lf.poly, lf.label)
        want = reference_closed_form_ideals(lf.poly, lf.label)
        assert (got is None) == (want is None), lf
        if got is not None:
            assert [q.rows for q in got] == [q.rows for q in want], lf
            compared += 1
    assert compared == closed


def test_closed_form_builds_each_box_ideal_once(monkeypatch):
    """Over Z_{2^k}, k <= 5, n <= 12, box_ideal runs once per distinct
    closed-form ideal: (u, e) for the top power e is (u + 1, 0)."""
    built = []
    box_ideal = ideals.box_ideal
    monkeypatch.setattr(ideals, "box_ideal", lambda *a: built.append(box_ideal(*a)) or built[-1])
    distinct = 0
    for lf in _distinct_factors(2, range(1, 6), range(1, 13)):
        distinct += len({Q.rows for Q in closed_form_ideals(lf.poly, lf.label)})
    assert len(built) == distinct == 500


def test_closed_form_box_ideals_are_descent_ideals():
    """Over Z_{2^k}, every closed-form ideal is one of the exhaustive
    descent's ideals at the level its index names (k <= 5, n <= 12)."""
    checked = 0
    for lf in _distinct_factors(2, range(1, 6), range(1, 13)):
        g = base_factor(2, lf.label.d, lf.label.l).reduce_mod(lf.poly.modulus)
        q = 2**g.degree
        for Q in closed_form_ideals(lf.poly, lf.label):
            level = round(math.log(Q.quotient_size(), q))
            assert Q.quotient_size() == q**level, lf
            assert Q.rows in {I.rows for I in descent_level(lf.poly, g, level)}, lf
            checked += 1
    assert checked == 500


@pytest.mark.parametrize("p,k,n,bound", [(2, 1, 8, 16), (2, 2, 4, 16), (3, 2, 3, 81)])
def test_local_tree_matches_floor(p, k, n, bound):
    """The descent lists the same bounded ideals as enumeration above the floor."""
    for ctx, q in component_radicals(p, k, n):
        expected = [i.rows for i in reference_floor_ideals(ctx, bound, q)]
        tree = bounded_ideals_local_tree(ctx, bound, q)
        assert [i.rows for i in tree] == expected


def _descent_grid(p):
    """The largest p^j <= 625, and each distinct (context, radical generator)
    of Z_{p^k}[x]/(x^n+1) for k <= 4 and n <= 12, with its first (k, n)."""
    bound = p
    while bound * p <= 625:
        bound *= p
    components = {}
    for k in range(1, 5):
        for n in range(1, 13):
            for ctx, g in component_radicals(p, k, n):
                components.setdefault((ctx, g), (k, n))
    return bound, components


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_descent_matches_floor_enumeration(p):
    """Per component, the descent's ideals of index <= the largest p^j <= 625
    are those the floor path finds (the old local tree where the floor's
    quotient exceeds ENUM_BUDGET: (3, 4, 9), (5, 4, 5) and (5, 4, 10))."""
    bound, components = _descent_grid(p)
    for (ctx, g), (k, n) in components.items():
        got = [q.rows for q in bounded_ideals_local_tree(ctx, bound, g)]
        assert got == [q.rows for q in reference_floor_ideals(ctx, bound, g)], (k, n, ctx)


@pytest.mark.parametrize("p,k,n,order", [(3, 3, 9, 243), (5, 3, 10, 625)])
def test_descent_candidates_match_floor_path(p, k, n, order):
    got = [Q.rows for Q in bounded_admissible_candidates(p, k, n, order)]
    assert got == [Q.rows for Q in reference_bounded_candidates(p, k, n, order)]
    assert got


def test_descent_builds_each_level_once(monkeypatch):
    """Order 27 and then order 81 over Z_9[x]/(x^5+1), whose components have
    residue fields of 3 and 81 elements: each (component, level) is built
    once, and each ideal's children are found once."""
    descent_level.cache_clear()
    bounded_admissible_candidates.cache_clear()
    expanded = []
    step = ideals.maximal_subideals

    def recording_step(ideal, g):
        expanded.append((ideal.context_monic, ideal.rows))
        return step(ideal, g)

    monkeypatch.setattr(ideals, "maximal_subideals", recording_step)
    try:
        bounded_admissible_candidates(3, 2, 5, 27)
        assert descent_level.cache_info().misses == 4 + 1  # q = 3: j <= 3; q = 81: j = 0
        bounded_admissible_candidates(3, 2, 5, 81)
        assert descent_level.cache_info().misses == 5 + 2
    finally:
        bounded_admissible_candidates.cache_clear()
    assert len(expanded) == len(set(expanded))
    above = {
        (ctx, q.rows)
        for ctx, g in component_radicals(3, 2, 5)
        for j in range(4 if g.degree == 1 else 1)
        for q in descent_level(ctx, g, j)
    }
    assert set(expanded) == above


def _shifted_radical(p, k, n):
    """A component context and g + 1 in place of its radical generator g."""
    ctx, g = component_radicals(p, k, n)[0]
    return ctx, Poly([g[0] + 1, *g.coeffs[1:]], g.modulus)


@pytest.mark.parametrize("p,k,n", [(3, 2, 3), (2, 3, 4), (5, 1, 5), (3, 2, 4)])
def test_descent_certifies_locality(p, k, n):
    """A radical generator whose power is not the context mod p is refused."""
    ctx, wrong = _shifted_radical(p, k, n)
    with pytest.raises(InvariantViolation, match="is not a power of"):
        bounded_ideals_local_tree(ctx, p**4, wrong)


def test_descent_certifies_locality_under_optimize():
    """The locality certificate is a require, so python -O keeps it."""
    child = (
        "from rbcm.errors import InvariantViolation\n"
        "from rbcm.ideals import bounded_ideals_local_tree, crt_split\n"
        "from rbcm.poly import Poly\n"
        "ctx = crt_split(3, 2, 3).contexts[0]\n"
        "try:\n"
        "    bounded_ideals_local_tree(ctx, 81, Poly([2, 1], ctx.modulus))\n"
        "except InvariantViolation as exc:\n"
        "    print(__debug__, exc)\n"
    )
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(Path(ideals.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", child], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False context x^3 + 1 is not a power of x + 2 mod p\n"


def _level_options(p, k, n):
    """Per component of crt_split(p, k, n), (j, (p^j)) for j = 0..k."""
    return [[(j, constant_ideal(p**j, c)) for j in range(k + 1)] for c in crt_split(p, k, n).contexts]


def _product_walk(options, bound):
    out = []
    for combo in itertools.product(*options):
        size = math.prod(q.quotient_size() for _, q in combo)
        if bound is None or size <= bound:
            out.append((tuple(t for t, _ in combo), tuple(q.rows for _, q in combo), size))
    return out


@pytest.mark.parametrize("bound", [None, -1, 0, 1, 4, 5, 24, 25, 26, 125, 625, 5**8, 5**12])
def test_bounded_combinations_is_the_filtered_product(bound):
    """x^6 + 1 has two linear and two quadratic factors mod 5: four components
    with level sizes 1, 5, 25 and 1, 25, 625."""
    options = _level_options(5, 2, 6)
    assert [len(opts) for opts in options] == [3, 3, 3, 3]
    walk = bounded_combinations(options, bound)
    assert walk == _product_walk(options, bound)
    above_unit = [opts[1:] for opts in options]  # every size is at least 5
    assert bounded_combinations(above_unit, bound) == _product_walk(above_unit, bound)
    with_empty = options[:2] + [[]] + options[2:]
    assert bounded_combinations(with_empty, bound) == _product_walk(with_empty, bound) == []


def test_bounded_combinations_bound_below_every_size():
    options = [opts[1:] for opts in _level_options(3, 2, 4)]
    assert bounded_combinations(options, 2) == []
    assert len(bounded_combinations(options, None)) == 2 ** len(options)


def test_bounded_combinations_refuses_a_repeated_option():
    options = _level_options(5, 1, 6)
    options[2].append((2, options[2][0][1]))
    with pytest.raises(InvariantViolation) as exc:
        bounded_combinations(options, 625)
    assert str(exc.value) == "component 2 repeats an option"


def test_bounded_combinations_refuses_a_repeated_option_under_optimize():
    """The distinctness certificate is a require, so python -O keeps it."""
    child = (
        "from rbcm.errors import InvariantViolation\n"
        "from rbcm.ideals import bounded_combinations, constant_ideal, crt_split\n"
        "ctx = crt_split(5, 1, 6).contexts[0]\n"
        "try:\n"
        "    bounded_combinations([[(0, constant_ideal(5, ctx)), (1, constant_ideal(5, ctx))]])\n"
        "except InvariantViolation as exc:\n"
        "    print(__debug__, exc)\n"
    )
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(Path(ideals.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", child], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False component 0 repeats an option\n"


def test_enumerate_too_large():
    with pytest.raises(TooLarge):
        enumerate_ideals_containing(ctx(9, Z9))


def test_compose_across_primes_example():
    Z13 = Modulus(13)
    Q5 = canonical_form([P([-2, 1], Z5)], ctx(2, Z5))
    Q13 = canonical_form([P([-5, 1], Z13)], ctx(2, Z13))
    N, n, Q = compose_across_primes([(Q5, 2), (Q13, 2)])
    assert (N, n) == (65, 2)
    mod65 = Q.modulus
    assert Q.contains(P([-57, 1], mod65))
    assert Q.contains(ctx(2, mod65))
    assert pow(57, 2, 65) == 65 - 1


def test_compose_single_component_identity():
    Q5 = canonical_form([P([-2, 1], Z5)], ctx(2, Z5))
    N, n, Q = compose_across_primes([(Q5, 2)])
    assert (N, n) == (5, 2) and Q is Q5


def test_compose_mixed_valences():
    Z2 = Modulus(2)
    Q2 = canonical_form([P([1, 1], Z2)], ctx(1, Z2))
    Q5 = canonical_form([P([-2, 1], Z5)], ctx(2, Z5))
    N, n, Q = compose_across_primes([(Q2, 1), (Q5, 2)])
    assert (N, n) == (10, 2)
    assert Q.contains(ctx(2, Q.modulus))
    # the composed map exists on Z_10 and its generator cycles the component
    # generators with indices wrapping mod each component valence
    from rbcm.cayley import build_map, is_rbcm

    rec = build_map(Q, 2, "I")
    assert rec.group.invariants == (10,)
    assert rec.cycle == ((1,), (7,), (9,), (3,))  # 7 = (1 mod 2, 2 mod 5)
    ok, _ = is_rbcm(rec)
    assert ok


def test_compose_errors():
    Q5 = canonical_form([P([-2, 1], Z5)], ctx(2, Z5))
    with pytest.raises(DuplicatePrime):
        compose_across_primes([(Q5, 2), (Q5, 2)])
    bad = canonical_form([P([1, 1], Z5)], ctx(2, Z5))
    with pytest.raises(ComponentNotAdmissible):
        compose_across_primes([(bad, 2)])
    # incompatible valences: lcm ratio even for an odd prime
    Z17 = Modulus(17)
    Q17 = canonical_form([P([-2, 1], Z17)], ctx(4, Z17))
    assert is_admissible(Q17, 4).ok
    with pytest.raises(ComponentNotAdmissible):
        compose_across_primes([(Q5, 2), (Q17, 4)])
    # a component over a ring that is not a prime power is named, not composed
    Q10 = zero_ideal(ctx(2, Modulus.composite(10)))
    with pytest.raises(ValueError, match="component 1 is over Z_10"):
        compose_across_primes([(Q5, 2), (Q10, 2)])


def test_ideal_layer_reads_the_ring_from_the_context():
    """No signature in rbcm.ideals takes the ring next to the context that carries it."""
    callables = []
    for name, obj in vars(ideals).items():
        if getattr(obj, "__module__", None) != ideals.__name__:
            continue
        if inspect.isclass(obj):
            callables += [(f"{name}.{m}", f) for m, f in vars(obj).items() if inspect.isfunction(f)]
        elif callable(obj):
            callables.append((name, obj))
    assert "x_step" in dict(callables) and "IdealPresentation.__init__" in dict(callables)
    for name, fn in callables:
        params = inspect.signature(fn).parameters
        assert "modulus" not in params, name
        if any(q.startswith(("context", "ctx")) for q in params):
            assert "N" not in params, name


def test_howell_canonical_under_row_shuffle():
    rng = random.Random(42)
    for _ in range(200):
        N = rng.choice([4, 8, 9, 27, 65])
        width = rng.randrange(2, 5)
        rows = [[rng.randrange(N) for _ in range(width)] for _ in range(rng.randrange(1, 5))]
        hf = howell_form(rows, N, width)
        rng.shuffle(rows)
        assert howell_form(rows, N, width) == hf
        assert howell_form(list(hf), N, width) == hf


def test_enumerate_ideals_non_invertible_x():
    """Context with x a zero divisor: the orbit-skip must not over-mark."""
    f = P([0, 2, 1], Z4)  # x^2 + 2x
    out = enumerate_ideals_between(f)
    # independent count: closures of all generator pairs in the 16-element ring
    import itertools

    def mulx(e):
        a, b = e
        return (0, (a + 2 * b) % 4)

    def add(e, g):
        return ((e[0] + g[0]) % 4, (e[1] + g[1]) % 4)

    def closure(gens):
        s = {(0, 0)}
        gens = list(gens)
        grew = True
        while grew:
            grew = False
            frontier = list(s)
            while frontier:
                g = frontier.pop()
                for h in gens:
                    e = add(g, h)
                    if e not in s:
                        s.add(e)
                        frontier.append(e)
            for e in list(s):
                m = mulx(e)
                if m not in s:
                    gens.append(m)
                    grew = True
        return frozenset(s)

    els = list(itertools.product(range(4), repeat=2))
    naive = {closure([g1, g2]) for g1 in els for g2 in els}
    assert len(out) == len(naive) == 7


@pytest.mark.parametrize(
    "h,j,message",
    [
        # x^2 + x + 1 does not divide x^4 + 1 = (x + 1)^4 mod 2
        ([1, 1, 1], 0, "h = [1, 1, 1] does not divide the context x^4 + 1 mod 2"),
        ([1, 3], 0, "h = [1, 3] is not monic"),
        ([1, 1], 3, "j = 3 is not in 0..2"),
        ([1, 1], -1, "j = -1 is not in 0..2"),
    ],
)
def test_box_ideal_refuses_bad_arguments(h, j, message):
    context = crt_split(2, 3, 4).contexts[0]
    with pytest.raises(ValueError) as exc:
        box_ideal(context, h, j)
    assert str(exc.value) == message


_BOX_CHILD = (
    "from rbcm import ideals\n"
    "from rbcm.errors import InvariantViolation\n"
    "context = ideals.crt_split(2, 3, 4).contexts[0]\n"
    "try:\n"
    "    ideals.box_ideal(context, [1, 1, 1], 0)\n"
    "except ValueError as exc:\n"
    "    print(__debug__, exc)\n"
    "rows = ideals._box_rows\n"
    "def flipped(*args):\n"
    "    out = [list(r) for r in rows(*args)]\n"
    "    out[0][-1] ^= 2  # a remainder bit of the degree-3 row, at 2^j = 2\n"
    "    return tuple(map(tuple, out))\n"
    "ideals._box_rows = flipped\n"
    "try:\n"
    "    ideals.box_ideal(context, [1, 1], 1)\n"
    "except InvariantViolation as exc:\n"
    "    print(__debug__, exc)\n"
)


def test_box_ideal_refusals_under_optimize():
    """The precondition is a ValueError and the certificates are requires, so
    python -O keeps both: a non-divisor h is refused with its message, and a
    row set with one remainder bit flipped ends in InvariantViolation."""
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(Path(ideals.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BOX_CHILD], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "False h = [1, 1, 1] does not divide the context x^4 + 1 mod 2\n"
        "False presentation not closed under x\n"
    )

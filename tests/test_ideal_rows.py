"""The ideal layer on integer rows, against its polynomial references.

combine_components maps component Howell rows through the CRT embedding
rows; reference_combine builds the same ideal from polynomial generators.
howell_form buckets rows by leading column; reference_howell_form rescans the
pool for each column.  radical_floor builds m^s for m = (p, g) by s
radical_multiple steps on Howell rows from the whole ring, and the descent
builds every m*I and every child on rows too; the reference for m^s takes
all 2^s polynomial products of p and g.  reduce_row walks the pivots in
column order, whatever the order of the rows it was given, and x_powers
walks the same rows as powers of x through Poly.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_helpers import (
    component_radicals,
    reference_combine,
    reference_descent,
    reference_enumerate_ideals_between,
    reference_howell_form,
    reference_radical_floor_rows,
)

from rbcm import ideals, poly
from rbcm.errors import InvariantViolation
from rbcm.factorlift import base_factor
from rbcm.ideals import (
    ENUM_BUDGET,
    CrtSplit,
    IdealPresentation,
    _certify_embeddings,
    bounded_ideals_local_tree,
    canonical_form,
    combine_components,
    constant_ideal,
    crt_split,
    descent_level,
    enumerate_ideals_between,
    howell_form,
    radical_floor,
    x_powers,
)
from rbcm.zring import Modulus, factorize

BOUND = 81


def _prime_powers():
    for p in (2, 3, 5):
        k = 1
        while p**k <= BOUND:
            yield p, k
            k += 1


def _component_floors(split, mod, bound):
    """Per label: its context, its radical generator and its radical floor at the bound."""
    for (d, ell), ctx in zip(split.labels, split.contexts):
        q = base_factor(split.p, d, ell).reduce_mod(mod)
        yield ctx, q, radical_floor(ctx, bound, q)


def _floor_components(split, mod, bound):
    """Per label, the ideals of index <= bound of the component, from the descent."""
    return [bounded_ideals_local_tree(ctx, bound, q) for ctx, q, _ in _component_floors(split, mod, bound)]


@pytest.mark.parametrize("p,k", list(_prime_powers()))
def test_combine_matches_reference(p, k):
    mod = Modulus(p, k)
    compared = 0
    for n in range(1, 9):
        split = crt_split(p, k, n)
        for combo in itertools.product(*_floor_components(split, mod, BOUND)):
            if math.prod(q.quotient_size() for q in combo) > BOUND:
                continue
            got = combine_components(split, list(combo))
            want = reference_combine(split, [q.row_polys() for q in combo])
            assert got.rows == want.rows, (n, [q.rows for q in combo])
            assert got == want
            compared += 1
    assert compared


@pytest.mark.parametrize("p,k", list(_prime_powers()))
def test_enumeration_matches_reference_above_floors(p, k):
    """Same rows, in the same order, on every component above its radical floor."""
    mod = Modulus(p, k)
    compared = 0
    for n in range(1, 9):
        for ctx, _, floor in _component_floors(crt_split(p, k, n), mod, BOUND):
            if floor.quotient_size() > ENUM_BUDGET:
                continue
            got = enumerate_ideals_between(ctx, base=floor)
            want = reference_enumerate_ideals_between(ctx, base=floor)
            assert [q.rows for q in got] == [q.rows for q in want], (n, ctx, floor.rows)
            compared += 1
    assert compared


@pytest.mark.parametrize("N,n", [(4, 3), (9, 2), (8, 2), (3, 4), (2, 6), (25, 2)])
def test_enumeration_matches_reference_above_zero(N, n):
    p, k = factorize(N)[0]
    mod = Modulus(p, k)
    ctx = poly.Poly.x_pow_plus_const(n, 1, mod)
    got = enumerate_ideals_between(ctx)
    assert [q.rows for q in got] == [q.rows for q in reference_enumerate_ideals_between(ctx)]


@pytest.mark.parametrize("N,max_n", [(6, 4), (10, 4), (12, 4), (18, 3), (27, 3)])
def test_enumeration_matches_reference_above_constants(N, max_n):
    """Units mod the base's constant d are not all units mod N.

    At N = 18 and 27 with n = 3 and d = 9, a sum-closure skip that tests
    membership of anything but the principal's generator loses an ideal.
    """
    mod = Modulus.composite(N)
    compared = 0
    for n in range(1, max_n + 1):
        ctx = poly.Poly.x_pow_plus_const(n, 1, mod)
        for d in (d for d in range(1, N + 1) if N % d == 0):
            base = constant_ideal(d, ctx)
            got = enumerate_ideals_between(ctx, base=base)
            want = reference_enumerate_ideals_between(ctx, base=base)
            assert [q.rows for q in got] == [q.rows for q in want], (n, d)
            compared += 1
    assert compared == max_n * sum(1 for d in range(1, N + 1) if N % d == 0)


def test_enumeration_marks_orbits_by_units_mod_base_constant(monkeypatch):
    """The degree-4 component of Z_81[x]/(x^5+1) above its floor has constant 3.

    Marking orbits with the units mod 3, not the 54 units mod 81, takes its
    reductions from 4,432 to 274; the pin leaves room up to 400.
    """
    mod = Modulus(3, 4)
    components = _component_floors(crt_split(3, 4, 5), mod, BOUND)
    ((ctx, _, floor),) = [c for c in components if c[0].degree == 4]
    assert floor.constant_divisor() == 3
    calls = []
    reduce_row = IdealPresentation.reduce_row

    def counting(self, vec):
        calls.append(1)
        return reduce_row(self, vec)

    monkeypatch.setattr(IdealPresentation, "reduce_row", counting)
    assert enumerate_ideals_between(ctx, base=floor)
    monkeypatch.undo()
    assert len(calls) <= 400, len(calls)


def test_combine_rejects_parts_in_other_contexts():
    split = crt_split(3, 1, 4)
    mod = Modulus(3)
    parts = [enumerate_ideals_between(ctx)[0] for ctx in split.contexts]
    with pytest.raises(ValueError):
        combine_components(split, parts[::-1])


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=2, max_value=100).flatmap(
        lambda N: st.tuples(
            st.just(N),
            st.integers(min_value=1, max_value=6).flatmap(
                lambda w: st.tuples(
                    st.just(w),
                    st.lists(
                        st.lists(st.integers(min_value=-N, max_value=2 * N), min_size=w, max_size=w),
                        max_size=8,
                    ),
                )
            ),
        )
    )
)
def test_howell_form_matches_pool_scan(case):
    N, (width, rows) = case
    assert howell_form(rows, N, width) == reference_howell_form(rows, N, width)


@pytest.mark.parametrize("p,k,n", [(2, 3, 4), (2, 2, 8), (3, 2, 4), (3, 3, 2), (5, 2, 4), (3, 1, 6)])
def test_radical_floor_matches_all_products(p, k, n):
    split = crt_split(p, k, n)
    mod = Modulus(p, k)
    for (d, ell), ctx in zip(split.labels, split.contexts):
        g = base_factor(p, d, ell).reduce_mod(mod)
        q = p**g.degree
        for s in range(5):
            got = radical_floor(ctx, q**s, g)
            assert got.rows == reference_radical_floor_rows(ctx, s, g), (d, ell, s)


TREE_CASES = [(2, 1, 8, 16), (2, 2, 4, 16), (3, 2, 3, 81), (5, 2, 4, 25), (2, 3, 4, 64)]


@pytest.mark.parametrize("p,k,n,bound", TREE_CASES)
def test_radical_layer_multiplies_no_poly(monkeypatch, p, k, n, bound):
    """radical_floor and the descent give the same rows when every Poly
    product or power raises: m^s, m*I and the children are built on rows."""
    cases = component_radicals(p, k, n)

    def run():
        descent_level.cache_clear()  # rebuild every level, not read a kept one
        return [
            (radical_floor(ctx, bound, g).rows, [q.rows for q in bounded_ideals_local_tree(ctx, bound, g)])
            for ctx, g in cases
        ]

    want = run()

    def refuse(*args):
        raise AssertionError("Poly arithmetic in the radical layer")

    monkeypatch.setattr(poly.Poly, "__mul__", refuse)
    monkeypatch.setattr(poly.Poly, "__pow__", refuse)
    assert run() == want


@pytest.mark.parametrize("p,k,n,bound", TREE_CASES)
def test_radical_multiple_matches_poly_products(monkeypatch, p, k, n, bound):
    """On every ideal the exhaustive descent expands, the m*I step is the
    ideal generated by p*f and g*f over the ideal's row polynomials f.  All
    but (3, 2, 3) are chain rings, whose levels descent_level reads off in
    closed form, so the descent here is the reference one."""
    step = ideals.radical_multiple
    visited = []

    def recording_step(ideal, g):
        out = step(ideal, g)
        visited.append((ideal, g, out))
        return out

    monkeypatch.setattr(ideals, "radical_multiple", recording_step)
    for ctx, g in component_radicals(p, k, n):
        reference_descent(ctx, bound, g)
    monkeypatch.undo()
    assert visited
    for ideal, g, got in visited:
        pc = poly.Poly.constant(p, ideal.modulus)
        gens = [h * f for f in ideal.row_polys() for h in (pc, g)]
        assert got.rows == canonical_form(gens, ideal.context_monic).rows, ideal


def _with_row(split, i, c, row):
    emb = split.embeddings[i]
    emb = emb[:c] + (row,) + emb[c + 1 :]
    embeddings = split.embeddings[:i] + (emb,) + split.embeddings[i + 1 :]
    return CrtSplit(
        split.p, split.k, split.n, split.labels, split.contexts, split.idempotents, split.ambient, embeddings
    )


@pytest.mark.parametrize("p,k,n", [(5, 1, 4), (3, 2, 4), (2, 2, 6)])
def test_corrupted_embedding_row_is_caught(p, k, n):
    """One entry off by one, or a whole row off by its own context.

    The second corruption is still right on its own component, so only the
    other components catch it.
    """
    split = crt_split(p, k, n)
    N = p**k
    assert len(split.contexts) > 1
    for i, (emb, ctx) in enumerate(zip(split.embeddings, split.contexts)):
        ctx_row = [ctx[n - 1 - col] for col in range(n)]
        for c, row in enumerate(emb):
            bad_rows = [
                tuple((v + (j == col)) % N for j, v in enumerate(row)) for col in range(n)
            ]
            bad_rows.append(tuple((v + w) % N for v, w in zip(row, ctx_row)))
            for bad_row in bad_rows:
                with pytest.raises(InvariantViolation):
                    _certify_embeddings(_with_row(split, i, c, bad_row))


def test_row_layer_builds_no_poly(monkeypatch):
    split = crt_split(3, 2, 4)
    mod = Modulus(3, 2)
    floors = []
    for (d, ell), ctx in zip(split.labels, split.contexts):
        g = base_factor(3, d, ell).reduce_mod(mod)
        floors.append(radical_floor(ctx, BOUND, g))
    made = []
    init = poly.Poly.__init__

    def counting_init(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    radicals = component_radicals(3, 2, 4)
    descent_level.cache_clear()
    monkeypatch.setattr(poly.Poly, "__init__", counting_init)
    per = [enumerate_ideals_between(ctx, base=f) for ctx, f in zip(split.contexts, floors)]
    combined = [combine_components(split, list(combo)) for combo in itertools.product(*per)]
    levels = [bounded_ideals_local_tree(ctx, BOUND, g) for ctx, g in radicals]
    monkeypatch.undo()
    assert len(combined) > 1 and all(len(ideals) > 1 for ideals in per)
    assert all(len(ideals) > 1 for ideals in levels)
    assert not made


@pytest.mark.parametrize("N,n", [(4, 3), (9, 2), (8, 2), (3, 4)])
def test_reduce_row_reads_pivots_in_column_order(N, n):
    p, k = factorize(N)[0]
    mod = Modulus(p, k)
    ctx = poly.Poly.x_pow_plus_const(n, 1, mod)
    ideals = [q for q in enumerate_ideals_between(ctx) if len(q.rows) > 1]
    assert ideals
    for q in ideals:
        reverse = IdealPresentation(ctx, q.rows[::-1])
        for vec in itertools.product(range(N), repeat=n):
            assert reverse.reduce_row(vec) == q.reduce_row(vec), (q.rows, vec)


@pytest.mark.parametrize("N,n", [(4, 3), (9, 4), (5, 1)])
def test_x_powers_walk_matches_poly_powers(N, n):
    p, k = factorize(N)[0]
    mod = Modulus(p, k)
    ctx = poly.Poly.x_pow_plus_const(n, 1, mod)
    q = enumerate_ideals_between(ctx)[0]  # the zero ideal: rows are reduced mod ctx only
    one = (0,) * (n - 1) + (1,)
    powers = x_powers(one, ctx, 3 * n + 1)
    assert len(powers) == 3 * n + 1 and x_powers(one, ctx, 0) == []
    for i, row in enumerate(powers):
        assert tuple(row) == q.poly_to_row(poly.Poly.x(mod) ** i)

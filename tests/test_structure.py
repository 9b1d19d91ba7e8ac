import random

import pytest
from reference_helpers import definitional_group_tables

from rbcm.errors import TooLarge
from rbcm.ideals import canonical_form, is_admissible, x_step, zero_ideal
from rbcm.poly import Poly
from rbcm.structure import (
    AbelianGroupTable,
    QuotientRing,
    _group_tables,
    quotient_group_type,
    quotient_isomorphism,
    smith_normal_form,
    translation,
)
from rbcm.zring import Modulus

Z4 = Modulus(2, 2)
Z5 = Modulus(5)
Z9 = Modulus(3, 2)


def P(coeffs, mod):
    return Poly(coeffs, mod)


def ctx(n, mod):
    return Poly.x_pow_plus_const(n, 1, mod)


def test_snf_simple():
    diag, _ = smith_normal_form([[4, 0], [0, 4], [2, 2], [-2, 2]], 2)
    assert diag == [2, 4]
    diag, _ = smith_normal_form([[6, 0], [0, 6]], 2)
    assert diag == [6, 6]
    diag, _ = smith_normal_form([[2, 4], [4, 2], [0, 6]], 2)
    assert diag[0] == 2 and diag[1] % diag[0] == 0


def test_quotient_group_type_examples():
    Q = canonical_form([P([2, 2], Z4)], ctx(2, Z4))
    assert quotient_group_type(Q) == AbelianGroupTable((2, 4))
    Q5 = canonical_form([P([-2, 1], Z5)], ctx(2, Z5))
    assert quotient_group_type(Q5) == AbelianGroupTable((5,))
    Q3 = zero_ideal(ctx(2, Modulus(3)))
    assert quotient_group_type(Q3) == AbelianGroupTable((3, 3))


def test_enumerate_residues_counts():
    Q3 = zero_ideal(ctx(2, Modulus(3)))
    assert len(list(Q3.residues())) == 9
    Q = canonical_form([P([2, 2], Z4)], ctx(2, Z4))
    assert len(list(Q.residues())) == 8
    Q5 = zero_ideal(ctx(2, Z5))
    assert len(list(Q5.residues())) == 25


def test_residue_count_matches_type():
    rng = random.Random(2)
    for mod, n in [(Z4, 2), (Z9, 2), (Modulus(2, 3), 2), (Z5, 2)]:
        for _ in range(40):
            gens = [
                P([rng.randrange(mod.N) for _ in range(rng.randrange(1, n + 1))], mod)
                for _ in range(rng.randrange(0, 3))
            ]
            Q = canonical_form(gens, ctx(n, mod))
            assert len(list(Q.residues())) == quotient_group_type(Q).order


def test_type_invariant_under_shuffle():
    rng = random.Random(9)
    gens = [P([3, 3], Z9), P([0, 3], Z9)]
    Q = canonical_form(gens, ctx(2, Z9))
    t = quotient_group_type(Q)
    for _ in range(5):
        rng.shuffle(gens)
        assert quotient_group_type(canonical_form(gens, ctx(2, Z9))) == t


def test_exponent_matches_admissibility_clause():
    cases = [
        canonical_form([P([-2, 1], Z5)], ctx(2, Z5)),
        canonical_form([P([-2, 1], Z9), P([3], Z9)], ctx(2, Z9)),
        zero_ideal(ctx(2, Z9)),
        canonical_form([P([2, 2], Z4)], ctx(2, Z4)),
    ]
    for Q in cases:
        N = Q.modulus.N
        typ = quotient_group_type(Q)
        adm = is_admissible(Q, 2)
        exponent_full = typ.exponent == N
        clause_iii_ok = adm.ok or adm.clause != "iii"
        assert exponent_full == clause_iii_ok


def test_quotient_ring_ops():
    cases = [
        (canonical_form([P([2, 2], Z4)], ctx(2, Z4)), 8),
        # constant term 2 is divisible by p: x is not a unit
        (zero_ideal(P([2, 2, 1], Z4)), 16),
        # degree-1 context
        (zero_ideal(P([3, 1], Z5)), 5),
        (canonical_form([P([3, 3], Z9)], ctx(3, Z9)), 81),
    ]
    for Q, size in cases:
        mod = Q.modulus
        ring = QuotientRing(Q)
        res = list(Q.residues())
        assert len(res) == size == ring.order
        zero = (0,) * Q.width
        x = Poly.x(mod)

        def reduce(f):
            return Q.reduce_row(Q.poly_to_row(f))

        for a in res:
            assert Q.reduce_row(a) == a
            neg = Q.reduce_row([-v for v in a])
            assert Q.reduce_row([s + t for s, t in zip(a, neg)]) == zero
            assert Q.reduce_row(x_step(a, Q.context_monic)) == reduce(x * Q.row_to_poly(a))
        count = 2 * Q.width + 1
        images = ring.x_power_images(count)
        assert len(images) == count
        for i in range(count):
            assert ring.x_power_image(i) == images[i] == reduce(x**i)
        # closure of addition and x-multiplication on representatives
        rset = set(res)
        for a in res[:5]:
            for b in res:
                total = Q.reduce_row([s + t for s, t in zip(a, b)])
                assert total in rset
                assert total == reduce(Q.row_to_poly(a) + Q.row_to_poly(b))
            assert reduce(x * Q.row_to_poly(a)) in rset


def test_quotient_isomorphism_is_group_iso():
    Q = canonical_form([P([2, 2], Z4)], ctx(2, Z4))
    table, to_coords = quotient_isomorphism(Q)
    assert table == AbelianGroupTable((2, 4))
    res = list(Q.residues())
    images = [to_coords(a) for a in res]
    assert len(set(images)) == len(images) == table.order
    for a in res:
        for b in res:
            total = Q.reduce_row([s + t for s, t in zip(a, b)])
            assert to_coords(total) == table.add(to_coords(a), to_coords(b))


def test_too_large_guard():
    big = zero_ideal(ctx(9, Z9))
    with pytest.raises(TooLarge):
        QuotientRing(big)


def test_abelian_group_table():
    g = AbelianGroupTable((2, 4))
    assert (g.order, g.exponent, g.rank) == (8, 4, 2)
    assert g.element_order((1, 2)) == 2
    assert g.element_order((0, 1)) == 4
    assert g.generates([(1, 0), (0, 1)])
    assert not g.generates([(0, 2), (1, 0)])
    assert AbelianGroupTable.from_spec([4, 2]) == AbelianGroupTable((2, 4))
    assert AbelianGroupTable.from_spec([9, 3]).invariants == (3, 9)
    assert AbelianGroupTable.from_spec([2, 3]).invariants == (6,)
    assert AbelianGroupTable.from_spec(g) is g
    with pytest.raises(ValueError):
        AbelianGroupTable.from_spec([1, 4])
    with pytest.raises(ValueError, match="divisibility chain"):
        AbelianGroupTable((4, 2))
    with pytest.raises(ValueError):
        AbelianGroupTable((1, 4))


@pytest.mark.parametrize(
    "invariants", [(81,), (3, 27), (9, 9), (3, 3, 9), (2, 2, 2, 2), (2, 6), (2, 256)], ids=str
)
def test_group_tables_match_definition(invariants):
    """Elements, indices and every translation row agree with the tables
    built from (a + b) mod d: the translation by g is column g."""
    els, idx, add_rows = definitional_group_tables(invariants)
    assert _group_tables(invariants) == (els, idx)
    assert els[0] == (0,) * len(invariants)
    for j, g in enumerate(els):
        assert translation(invariants, g) == tuple(row[j] for row in add_rows)
    assert AbelianGroupTable(invariants).translation(list(els[-1])) == translation(invariants, els[-1])


def test_smith_invariants_match_sympy():
    """Invariant factors agree with sympy's Smith form on seeded integer matrices."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_smith

    rng = random.Random(8)
    for _ in range(80):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randint(-12, 12) for _ in range(n)] for _ in range(m)]
        diag, _ = smith_normal_form(rows, n)
        S = sympy_smith(sympy.Matrix(rows), domain=sympy.ZZ)
        want = [abs(int(S[i, i])) for i in range(min(m, n))]
        assert diag + [0] * (min(m, n) - len(diag)) == want, rows


def test_p_type():
    assert AbelianGroupTable((3, 9, 27)).p_type() == (3, (1, 2, 3))
    assert AbelianGroupTable((2, 2, 8)).p_type() == (2, (1, 1, 3))
    assert AbelianGroupTable.from_spec([8, 2]).p_type() == (2, (1, 3))
    for invariants in [(6,), (2, 6), ()]:
        with pytest.raises(ValueError, match="not a p-group"):
            AbelianGroupTable(invariants).p_type()

import random

import pytest
from reference_helpers import definitional_group_tables

from rbcm.errors import InvariantViolation, TooLarge
from rbcm.ideals import canonical_form, is_admissible, zero_ideal
from rbcm.poly import Poly
from rbcm.structure import (
    AbelianGroupTable,
    AbelianType,
    QuotientRing,
    _group_tables,
    enumerate_residues,
    quotient_group_type,
    quotient_isomorphism,
    smith_normal_form,
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
    Q = canonical_form([P([2, 2], Z4)], ctx(2, Z4), Z4)
    assert quotient_group_type(Q).invariant_factors == (2, 4)
    Q5 = canonical_form([P([-2, 1], Z5)], ctx(2, Z5), Z5)
    assert quotient_group_type(Q5).invariant_factors == (5,)
    Q3 = zero_ideal(ctx(2, Modulus(3)), Modulus(3))
    assert quotient_group_type(Q3).invariant_factors == (3, 3)


def test_enumerate_residues_counts():
    Q3 = zero_ideal(ctx(2, Modulus(3)), Modulus(3))
    assert len(enumerate_residues(Q3)) == 9
    Q = canonical_form([P([2, 2], Z4)], ctx(2, Z4), Z4)
    assert len(enumerate_residues(Q)) == 8
    Q5 = zero_ideal(ctx(2, Z5), Z5)
    assert len(enumerate_residues(Q5)) == 25


def test_residue_count_matches_type():
    rng = random.Random(2)
    for mod, n in [(Z4, 2), (Z9, 2), (Modulus(2, 3), 2), (Z5, 2)]:
        for _ in range(40):
            gens = [
                P([rng.randrange(mod.N) for _ in range(rng.randrange(1, n + 1))], mod)
                for _ in range(rng.randrange(0, 3))
            ]
            Q = canonical_form(gens, ctx(n, mod), mod)
            assert len(enumerate_residues(Q)) == quotient_group_type(Q).order


def test_type_invariant_under_shuffle():
    rng = random.Random(9)
    gens = [P([3, 3], Z9), P([0, 3], Z9)]
    Q = canonical_form(gens, ctx(2, Z9), Z9)
    t = quotient_group_type(Q)
    for _ in range(5):
        rng.shuffle(gens)
        assert quotient_group_type(canonical_form(gens, ctx(2, Z9), Z9)) == t


def test_exponent_matches_admissibility_clause():
    cases = [
        canonical_form([P([-2, 1], Z5)], ctx(2, Z5), Z5),
        canonical_form([P([-2, 1], Z9), P([3], Z9)], ctx(2, Z9), Z9),
        zero_ideal(ctx(2, Z9), Z9),
        canonical_form([P([2, 2], Z4)], ctx(2, Z4), Z4),
    ]
    for Q in cases:
        N = Q.modulus.N
        typ = quotient_group_type(Q)
        adm = is_admissible(Q, N, 2)
        exponent_full = typ.exponent == N
        clause_iii_ok = adm.ok or adm.clause != "iii"
        assert exponent_full == clause_iii_ok


def test_quotient_ring_ops():
    cases = [
        (canonical_form([P([2, 2], Z4)], ctx(2, Z4), Z4), 8),
        # constant term 2 is divisible by p: x is not a unit
        (zero_ideal(P([2, 2, 1], Z4), Z4), 16),
        # degree-1 context
        (zero_ideal(P([3, 1], Z5), Z5), 5),
        (canonical_form([P([3, 3], Z9)], ctx(3, Z9), Z9), 81),
    ]
    for Q, size in cases:
        mod = Q.modulus
        ring = QuotientRing(Q)
        res = ring.residues()
        assert len(res) == size
        zero = ring.zero()
        x = ring.reduce_poly(Poly.x(mod))
        for a in res:
            assert ring.add(a, zero) == a
            assert ring.add(a, ring.neg(a)) == zero
            assert ring.mul_x(a) == ring.mul(x, a)
        for i in range(2 * Q.width + 1):
            assert ring.x_power_image(i) == ring.reduce_poly(Poly.x(mod) ** i)
        # closure of addition and x-multiplication on representatives
        rset = set(res)
        for a in res[:5]:
            for b in res:
                assert ring.add(a, b) in rset
            assert ring.mul_x(a) in rset


def test_quotient_isomorphism_is_group_iso():
    Q = canonical_form([P([2, 2], Z4)], ctx(2, Z4), Z4)
    typ, to_coords = quotient_isomorphism(Q)
    assert typ.invariant_factors == (2, 4)
    ring = QuotientRing(Q)
    table = AbelianGroupTable(typ.invariant_factors)
    images = [to_coords(a) for a in ring.residues()]
    assert len(set(images)) == len(images) == table.order
    for a in ring.residues():
        for b in ring.residues():
            assert to_coords(ring.add(a, b)) == table.add(to_coords(a), to_coords(b))


def test_too_large_guard():
    big = zero_ideal(ctx(9, Z9), Z9)
    with pytest.raises(TooLarge):
        QuotientRing(big)


def test_abelian_group_table():
    g = AbelianGroupTable((2, 4))
    assert g.order == 8 and g.exponent == 4
    assert g.element_order((1, 2)) == 2
    assert g.element_order((0, 1)) == 4
    assert g.generates([(1, 0), (0, 1)])
    assert not g.generates([(0, 2), (1, 0)])
    assert AbelianGroupTable.from_spec([4, 2]).invariants == (2, 4)
    assert AbelianGroupTable.from_spec([9, 3]).invariants == (3, 9)
    assert AbelianGroupTable.from_spec([2, 3]).invariants == (6,)
    assert AbelianGroupTable.from_spec(g) is g
    with pytest.raises(ValueError):
        AbelianGroupTable.from_spec([1, 4])
    with pytest.raises(InvariantViolation):
        AbelianType((4, 2))
    with pytest.raises(ValueError):
        AbelianGroupTable((1, 4))


@pytest.mark.parametrize(
    "invariants", [(81,), (3, 27), (9, 9), (3, 3, 9), (2, 2, 2, 2), (2, 6), (2, 256)], ids=str
)
def test_group_tables_match_definition(invariants):
    """Rows composed from basis rows equal the tables built from (a + b) mod d."""
    assert _group_tables(invariants) == definitional_group_tables(invariants)


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

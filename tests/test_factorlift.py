import itertools

import pytest

from rbcm.errors import NotCoprime, NotSimpleFactor
from rbcm.factorlift import (
    FactorLabel,
    base_factor,
    bezout_certificate,
    coset_reps,
    factor_mod_p,
    factor_radical_sum,
    factor_xn_minus1,
    factor_xn_plus1,
    hensel_lift_factor,
    lambda_index,
    lift_radical_factor,
    radical_sum,
    split_p_part,
)
from rbcm.poly import Poly, poly_mod
from rbcm.zring import Modulus

from reference_helpers import monic_divisors_exhaustive


def P(coeffs, p, k=1):
    return Poly(coeffs, Modulus(p, k))


def test_coset_reps_examples():
    assert coset_reps(3, 8) == (1, 5)
    assert coset_reps(5, 4) == (1, 3)
    assert coset_reps(7, 1) == (1,)
    with pytest.raises(NotCoprime):
        coset_reps(3, 6)


def test_lambda_index_examples():
    assert [l.as_tuple()[:2] for l in lambda_index(3, 4)] == [(8, 1), (8, 5)]
    assert [l.as_tuple()[:2] for l in lambda_index(3, 1)] == [(2, 1)]
    assert [l.as_tuple()[:2] for l in lambda_index(2, 1)] == [(1, 1)]


def test_factor_mod_p_examples():
    fs = factor_mod_p(4, 3)
    assert [f.label.as_tuple()[:2] for f in fs] == [(1, 1), (2, 1), (4, 1)]
    assert [f.poly for f in fs] == [P([-1, 1], 3), P([1, 1], 3), P([1, 0, 1], 3)]
    assert [f.poly for f in factor_mod_p(2, 3)] == [P([-1, 1], 3), P([1, 1], 3)]
    fs8 = {f.label.as_tuple()[:2]: f.poly for f in factor_mod_p(8, 3)}
    assert fs8[(8, 1)] == P([2, 1, 1], 3)
    assert fs8[(8, 5)] == P([2, 2, 1], 3)


def exhaustive_lift_search(q, p, k, target):
    """All monic lifts of q over Z_{p^k} dividing target, by brute force."""
    N = p**k
    mod = Modulus(p, k)
    found = []
    deltas = range(0, N, p)
    for combo in itertools.product(deltas, repeat=q.degree):
        cand = Poly([c + d for c, d in zip(q.coeffs, combo)] + [1][:0], mod)
        cand = Poly(list(cand.coeffs[: q.degree]) + [1], mod)
        if poly_mod(target, cand).is_zero():
            found.append(cand)
    return found


def test_hensel_lift_example_and_uniqueness():
    q = P([2, 1, 1], 3)
    target = Poly.x_pow_plus_const(8, -1, Modulus(3, 2))
    lifted = hensel_lift_factor(q, 3, 2, target)
    assert lifted == P([8, 4, 1], 3, 2)  # x^2 + 4x + 8
    found = exhaustive_lift_search(q, 3, 2, target)
    assert found == [lifted]
    # cofactor identity: (x^2+4x+8)(x^2+5x+8) = x^4+1 over Z_9
    assert P([8, 4, 1], 3, 2) * P([8, 5, 1], 3, 2) == Poly.x_pow_plus_const(4, 1, Modulus(3, 2))


def test_hensel_lift_linear_and_identity():
    target = Poly.x_pow_plus_const(4, -1, Modulus(5, 2))
    lifted = hensel_lift_factor(P([-2, 1], 5), 5, 2, target)
    assert lifted == P([-7, 1], 5, 2)
    q = P([2, 1, 1], 3)
    assert hensel_lift_factor(q, 3, 1, Poly.x_pow_plus_const(8, -1, Modulus(3))) == q


def test_hensel_lift_rejects_multiple_factor():
    # x+1 divides x^2-1 twice over Z_2
    with pytest.raises(NotSimpleFactor):
        hensel_lift_factor(P([1, 1], 2), 2, 2, Poly.x_pow_plus_const(2, -1, Modulus(2, 2)))


def test_lift_radical_factor_examples():
    f = lift_radical_factor(1, 1, 1, 3, 2)
    assert f.poly == P([1, 1, 1], 3, 2)
    assert f.label == FactorLabel(1, 1, 1, 2)
    assert lift_radical_factor(1, 1, 1, 2, 2).poly == P([1, 1], 2, 2)
    assert lift_radical_factor(1, 1, 2, 2, 2).poly == P([1, 0, 1], 2, 2)
    with pytest.raises(ValueError):
        lift_radical_factor(1, 1, 0, 3, 2)


def test_factor_xn_plus1_examples():
    fs = factor_xn_plus1(2, 2, 2)
    assert len(fs) == 1
    assert fs[0].poly == P([1, 0, 1], 2, 2)
    assert fs[0].label.as_tuple() == (1, 1, 2)

    fs = factor_xn_plus1(3, 1, 2)
    assert len(fs) == 1
    assert fs[0].poly == P([1, 0, 1], 3)
    assert fs[0].label.as_tuple()[:2] == (4, 1)

    fs = factor_xn_plus1(5, 1, 2)
    assert [f.label.as_tuple()[:2] for f in fs] == [(4, 1), (4, 3)]
    assert [f.poly for f in fs] == [P([-2, 1], 5), P([-3, 1], 5)]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_product_identities(p, k):
    mod = Modulus(p, k)
    for n in range(1, 13):
        minus = factor_xn_minus1(p, k, n)
        prod = Poly.one(mod)
        for f in minus:
            prod = prod * f.poly
        assert prod == Poly.x_pow_plus_const(n, -1, mod)

        plus = factor_xn_plus1(p, k, n)
        prod = Poly.one(mod)
        for f in plus:
            prod = prod * f.poly
        assert prod == Poly.x_pow_plus_const(n, 1, mod)

        if n % p == 0:
            rad = factor_radical_sum(p, k, n)
            prod = Poly.one(mod)
            for f in rad:
                prod = prod * f.poly
            assert prod == radical_sum(p, k, n // p)


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_reduction_consistency(p, k):
    modp = Modulus(p)
    for n in range(1, 13):
        for f in factor_xn_plus1(p, k, n):
            lab = f.label
            q = base_factor(p, lab.d, lab.l)
            if lab.level == 0:
                expected = q
            else:
                expected = q ** (p ** (lab.level - 1) * (p - 1))
            assert f.poly.reduce_mod(modp) == expected
            assert f.poly.is_monic()
            assert f.poly.degree == lab.degree


def test_base_factors_irreducible_small_degree():
    for p in (2, 3, 5):
        for n in range(1, 13):
            for f in factor_xn_plus1(p, 1, n):
                if f.label.level == 0 and f.poly.degree <= 4:
                    assert not monic_divisors_exhaustive(f.poly)


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (3, 3), (5, 2)])
def test_pairwise_coprime_bezout(p, k):
    one = Poly.one(Modulus(p, k))
    for n in (2, 3, 4, 6, 12):
        fs = factor_xn_plus1(p, k, n)
        by_lambda = {}
        for f in fs:
            key = f.label.as_tuple()[:2]
            by_lambda[key] = by_lambda.get(key, one) * f.poly
        keys = sorted(by_lambda)
        for a, b in itertools.combinations(keys, 2):
            u, v = bezout_certificate(by_lambda[a], by_lambda[b])
            assert u * by_lambda[a] + v * by_lambda[b] == one


def test_split_p_part():
    assert split_p_part(12, 2) == (2, 3)
    assert split_p_part(7, 2) == (0, 7)
    assert split_p_part(8, 2) == (3, 1)
    for n, p in [(0, 2), (-3, 2), (6, 1), (6, 0), (6, -1)]:
        with pytest.raises(ValueError):
            split_p_part(n, p)

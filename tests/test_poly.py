import math
import random

import pytest

from rbcm.errors import InvariantViolation, NonUnitLeading
from rbcm.poly import (
    Poly,
    build_splitting_field,
    cyclotomic,
    divmod_monic,
    int_poly_divmod_exact,
    is_irreducible_mod_p,
    least_irreducible,
    minimal_polynomial,
    poly_mod,
    pow_mod,
)
from rbcm.zring import Modulus, divisors, multiplicative_order

from reference_helpers import all_monic, int_poly_mul, monic_divisors_exhaustive

Z5 = Modulus(5)
Z9 = Modulus(3, 2)
Z4 = Modulus(2, 2)


def P(coeffs, mod):
    return Poly(coeffs, mod)


def test_trim_and_degree():
    f = P([1, 2, 0, 0], Z5)
    assert f.coeffs == (1, 2)
    assert f.degree == 1
    assert Poly.zero(Z5).degree == -1
    assert P([5, 10], Z5).is_zero()


def test_x_pow_plus_const():
    assert Poly.x_pow_plus_const(0, 1, Z5).coeffs == (2,)
    assert Poly.x_pow_plus_const(0, -1, Z5).is_zero()
    assert Poly.x_pow_plus_const(1, 1, Z5).coeffs == (1, 1)
    assert Poly.x_pow_plus_const(3, -1, Z5).coeffs == (4, 0, 0, 1)


def test_divmod_examples():
    # x^2+1 = (x+2)(x-2) over Z_5
    q, r = divmod_monic(P([1, 0, 1], Z5), P([-2, 1], Z5))
    assert q == P([2, 1], Z5) and r.is_zero()
    # linear subtraction over Z_9
    q, r = divmod_monic(P([1, 1], Z9), P([-2, 1], Z9))
    assert q == Poly.one(Z9) and r == P([3], Z9)
    with pytest.raises(NonUnitLeading):
        divmod_monic(P([1, 1, 1], Z4), P([1, 2], Z4))


def test_divmod_round_trip_random():
    rng = random.Random(7)
    for N, p, k in [(4, 2, 2), (8, 2, 3), (9, 3, 2), (27, 3, 3), (25, 5, 2)]:
        mod = Modulus(p, k)
        for _ in range(10_000):
            f = P([rng.randrange(N) for _ in range(rng.randrange(1, 8))], mod)
            g_low = [rng.randrange(N) for _ in range(rng.randrange(0, 4))]
            g = P(g_low + [1], mod)
            q, r = divmod_monic(f, g)
            assert q * g + r == f
            assert r.degree < g.degree


def test_pow_mod_and_gcd():
    mod = Modulus(3)
    h = P([1, 0, 1], mod)  # y^2 + 1 irreducible mod 3
    assert is_irreducible_mod_p(h)
    x = Poly.x(mod)
    assert pow_mod(x, 9, h) == poly_mod(x**9, h)


def test_least_irreducible_known():
    assert least_irreducible(3, 1) == Poly.x(Modulus(3))
    assert least_irreducible(3, 2) == P([1, 0, 1], Modulus(3))
    h = least_irreducible(2, 3)
    assert h.degree == 3 and is_irreducible_mod_p(h)
    # no roots: a cubic irreducible over Z_2 has nonzero constant term
    assert h.coeffs[0] == 1


def test_irreducible_matches_exhaustive_small():
    for p in (2, 3):
        mod = Modulus(p)
        for deg in (2, 3, 4):
            for f in all_monic(mod, deg):
                expected = not monic_divisors_exhaustive(f) and f.coeffs[0] != 0
                # exhaustive search also counts constant-free factors; align on roots
                has_root = any(f.evaluate(a) == 0 for a in range(p))
                expected = not has_root and not monic_divisors_exhaustive(f)
                assert is_irreducible_mod_p(f) == expected


def test_splitting_field_example_3_8():
    eta, h = build_splitting_field(3, 8)
    assert h == P([1, 0, 1], Modulus(3))  # y^2 + 1
    assert eta.rep == P([1, 1], Modulus(3))  # y + 1
    assert (eta**8).is_one()
    assert not (eta**4).is_one()


def test_splitting_field_trivial_and_deg3():
    eta, h = build_splitting_field(5, 1)
    assert eta.is_one() and h.degree == 1
    eta7, h7 = build_splitting_field(2, 7)
    assert h7.degree == 3
    assert eta7.multiplicative_order() == 7


@pytest.mark.parametrize("p", [2, 3, 5])
def test_splitting_field_orders_sweep(p):
    for d in range(1, 25):
        if math.gcd(p, d) != 1:
            continue
        eta, _ = build_splitting_field(p, d)
        assert (eta**d).is_one()
        for t in divisors(d):
            if t < d:
                assert not (eta**t).is_one()


def test_minimal_polynomial_examples():
    eta, _ = build_splitting_field(3, 8)
    q = minimal_polynomial(eta, 3, 8, 1)
    assert q == P([2, 1, 1], Modulus(3))  # x^2 + x + 2
    eta2, _ = build_splitting_field(3, 2)
    assert minimal_polynomial(eta2, 3, 2, 1) == P([1, 1], Modulus(3))  # x + 1
    eta1, _ = build_splitting_field(5, 1)
    assert minimal_polynomial(eta1, 5, 1, 1) == P([-1, 1], Modulus(5))  # x - 1


def test_minimal_polynomial_divides_and_irreducible():
    for p in (2, 3, 5):
        mod = Modulus(p)
        for d in (1, 2, 4, 8, 3, 6, 12):
            if math.gcd(p, d) != 1:
                continue
            eta, _ = build_splitting_field(p, d)
            q = minimal_polynomial(eta, p, d, 1)
            assert q.degree == multiplicative_order(p, d)
            target = Poly.x_pow_plus_const(d, -1, mod)
            assert poly_mod(target, q).is_zero()
            if q.degree <= 4:
                assert not monic_divisors_exhaustive(q)


def test_cyclotomic_examples():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(2) == (1, 1)
    assert cyclotomic(8) == (1, 0, 0, 0, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)
    # product over divisors reproduces x^n - 1
    for n in (1, 2, 6, 12, 24):
        prod = [1]
        for d in divisors(n):
            prod = int_poly_mul(prod, list(cyclotomic(d)))
        expected = [-1] + [0] * (n - 1) + [1]
        assert prod == expected


def test_int_poly_divmod_exact_checks():
    assert int_poly_divmod_exact([-1, 0, 1], [1, 1]) == [-1, 1]
    with pytest.raises(ValueError):
        int_poly_divmod_exact([2, 2], [1, 2])
    with pytest.raises(InvariantViolation):
        int_poly_divmod_exact([1, 0, 1], [1, 1])
    with pytest.raises(InvariantViolation):
        int_poly_divmod_exact([1], [1, 1])

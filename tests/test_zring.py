import math

import pytest
from hypothesis import given, strategies as st

from rbcm.errors import ModulusMismatch, NotAUnit, NotCoprime
from rbcm.zring import (
    Modulus,
    ResidueInt,
    divisors,
    is_prime,
    multiplicative_order,
    p_valuation,
    unit_inverse,
)

from reference_helpers import euler_phi


def test_modulus_requires_prime():
    with pytest.raises(ValueError):
        Modulus(4)
    with pytest.raises(ValueError):
        Modulus(1)
    m = Modulus(3, 2)
    assert (m.p, m.k, m.N) == (3, 2, 9)


def test_composite_modulus():
    m = Modulus.composite(65)
    assert not m.is_prime_power
    assert m.prime_components() == [(5, 1), (13, 1)]
    assert Modulus.composite(9).is_prime_power


def test_residue_canonical_and_mismatch():
    m9 = Modulus(3, 2)
    assert ResidueInt(-1, m9).value == 8
    with pytest.raises(ModulusMismatch):
        ResidueInt(1, m9) + ResidueInt(1, Modulus(5))


def test_unit_inverse_examples():
    m9 = Modulus(3, 2)
    assert unit_inverse(ResidueInt(2, m9)).value == 5
    assert unit_inverse(ResidueInt(1, m9)).value == 1
    with pytest.raises(NotAUnit):
        unit_inverse(ResidueInt(3, m9))


def test_unit_inverse_all_units_small_prime_powers():
    for p, k in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 6), (5, 2), (7, 1)]:
        m = Modulus(p, k)
        if m.N > 3**6:
            continue
        for a in range(1, m.N):
            if math.gcd(a, m.N) == 1:
                r = ResidueInt(a, m)
                assert (r * unit_inverse(r)).value == 1


def test_p_valuation_examples():
    assert p_valuation(18, 3) == 2
    assert p_valuation(0, 5) == math.inf
    assert p_valuation(7, 2) == 0


@given(st.integers(min_value=1, max_value=10**4), st.integers(min_value=1, max_value=10**4))
def test_p_valuation_additive(a, b):
    for p in (2, 3, 5):
        assert p_valuation(a * b, p) == p_valuation(a, p) + p_valuation(b, p)


def order_by_iteration(p, d):
    if d == 1:
        return 1
    t, acc = 1, p % d
    while acc != 1:
        acc = acc * p % d
        t += 1
    return t


def test_multiplicative_order_examples():
    assert multiplicative_order(3, 8) == order_by_iteration(3, 8) == 2
    assert multiplicative_order(2, 7) == order_by_iteration(2, 7) == 3
    assert multiplicative_order(7, 1) == 1
    with pytest.raises(NotCoprime):
        multiplicative_order(3, 6)


def test_multiplicative_order_divides_phi():
    for d in range(2, 65):
        for p in (2, 3, 5, 7):
            if math.gcd(p, d) == 1:
                assert euler_phi(d) % multiplicative_order(p, d) == 0


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert is_prime(2) and is_prime(31) and not is_prime(33)

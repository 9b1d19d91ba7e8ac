"""Exact arithmetic in Z_N.

N is a prime power p^k on all core paths; composite N appears only in the
cross-prime composition, which constructs moduli through
:meth:`Modulus.composite`.
"""

from __future__ import annotations

import math

from .errors import ModulusMismatch, NotAUnit, NotCoprime

MAX_MODULUS = 1 << 31


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (desk-scale moduli)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division, ascending primes."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            out.append((f, e))
        f += 1 if f == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


class Frozen:
    """Base of the immutable value classes.

    Each subclass lists its fields in ``__slots__``, sets them once in
    ``__init__`` through ``object.__setattr__``, and returns them from
    ``_key``; a later assignment or deletion raises AttributeError, and
    objects of one class compare and hash by ``_key``.  Every method is
    written out, so importing the package generates and compiles no code.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # pickle and copy hand slot values back as (None, {name: value})
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class Modulus(Frozen):
    """The coefficient ring Z_N with N = p^k (or composite, flagged)."""

    __slots__ = ("p", "k", "N")

    def __init__(self, p: int, k: int = 1):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError("exponent must be >= 1")
        N = p**k
        if N >= MAX_MODULUS:
            raise ValueError(f"modulus {N} exceeds supported range")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "N", N)

    @classmethod
    def composite(cls, N: int) -> "Modulus":
        """Modulus for a general N > 1 (only the composition path uses this)."""
        if N < 2 or N >= MAX_MODULUS:
            raise ValueError(f"bad modulus {N}")
        facs = factorize(N)
        self = object.__new__(cls)
        if len(facs) == 1:
            p, k = facs[0]
            object.__setattr__(self, "p", p)
            object.__setattr__(self, "k", k)
        else:
            object.__setattr__(self, "p", None)
            object.__setattr__(self, "k", None)
        object.__setattr__(self, "N", N)
        return self

    @property
    def is_prime_power(self) -> bool:
        return self.p is not None

    def prime_components(self) -> list[tuple[int, int]]:
        if self.is_prime_power:
            return [(self.p, self.k)]
        return factorize(self.N)

    def _key(self) -> tuple:
        return (self.p, self.k, self.N)

    def __repr__(self) -> str:
        return f"Z_{self.N}"


class ResidueInt(Frozen):
    """Least non-negative residue together with its modulus."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: Modulus):
        object.__setattr__(self, "value", value % modulus.N)
        object.__setattr__(self, "modulus", modulus)

    def _key(self) -> tuple:
        return (self.value, self.modulus)

    def _check(self, other: "ResidueInt") -> None:
        if other.modulus.N != self.modulus.N:
            raise ModulusMismatch(f"{self.modulus} vs {other.modulus}")

    def __add__(self, other: "ResidueInt") -> "ResidueInt":
        self._check(other)
        return ResidueInt(self.value + other.value, self.modulus)

    def __sub__(self, other: "ResidueInt") -> "ResidueInt":
        self._check(other)
        return ResidueInt(self.value - other.value, self.modulus)

    def __mul__(self, other: "ResidueInt") -> "ResidueInt":
        self._check(other)
        return ResidueInt(self.value * other.value, self.modulus)

    def __neg__(self) -> "ResidueInt":
        return ResidueInt(-self.value, self.modulus)

    def __pow__(self, e: int) -> "ResidueInt":
        return ResidueInt(pow(self.value, e, self.modulus.N), self.modulus)

    def is_unit(self) -> bool:
        return math.gcd(self.value, self.modulus.N) == 1

    def __repr__(self) -> str:
        return f"{self.value} (mod {self.modulus.N})"


def unit_inverse(a: ResidueInt) -> ResidueInt:
    """Multiplicative inverse of a unit of Z_N."""
    if not a.is_unit():
        raise NotAUnit(f"{a} shares a factor with the modulus")
    return ResidueInt(pow(a.value, -1, a.modulus.N), a.modulus)


def inverse_mod(a: int, N: int) -> int:
    """Inverse of the integer a modulo N; raises NotAUnit otherwise."""
    if math.gcd(a % N, N) != 1:
        raise NotAUnit(f"{a} is not a unit mod {N}")
    return pow(a, -1, N)


def p_valuation(a: int, p: int) -> int | float:
    """Largest e with p^e | a; +inf for a = 0."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if a == 0:
        return math.inf
    a = abs(a)
    e = 0
    while a % p == 0:
        a //= p
        e += 1
    return e


def multiplicative_order(p: int, d: int) -> int:
    """Least t >= 1 with p^t = 1 mod d; order 1 for d = 1 by convention."""
    if d < 1:
        raise ValueError("d must be positive")
    if d == 1:
        return 1
    if math.gcd(p, d) != 1:
        raise NotCoprime(f"gcd({p}, {d}) > 1")
    t = 1
    acc = p % d
    while acc != 1:
        acc = (acc * p) % d
        t += 1
    return t


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    small, large = [], []
    f = 1
    while f * f <= n:
        if n % f == 0:
            small.append(f)
            if f != n // f:
                large.append(n // f)
        f += 1
    return small + large[::-1]

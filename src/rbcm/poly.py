"""Polynomials over Z_N, division by monic divisors, and splitting fields.

Coefficients are stored ascending by degree as least non-negative residues,
with trailing zeros trimmed.  Splitting-field elements live in
F_{p^m} = Z_p[y]/(h) for the lexicographically least monic irreducible h of
degree m, so every derived label downstream is reproducible.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .errors import NonUnitLeading, NotCoprime, NotInBaseField, require
from .zring import Frozen, Modulus, divisors, factorize, inverse_mod, multiplicative_order


def _trim(coeffs: list[int]) -> tuple[int, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class Poly(Frozen):
    """Polynomial over Z_N as an ascending coefficient tuple."""

    __slots__ = ("coeffs", "modulus")

    def __init__(self, coeffs, modulus: Modulus):
        N = modulus.N
        object.__setattr__(self, "coeffs", _trim([c % N for c in coeffs]))
        object.__setattr__(self, "modulus", modulus)

    @classmethod
    def zero(cls, modulus: Modulus) -> "Poly":
        return cls((), modulus)

    @classmethod
    def one(cls, modulus: Modulus) -> "Poly":
        return cls((1,), modulus)

    @classmethod
    def x(cls, modulus: Modulus) -> "Poly":
        return cls((0, 1), modulus)

    @classmethod
    def constant(cls, c: int, modulus: Modulus) -> "Poly":
        return cls((c,), modulus)

    @classmethod
    def x_pow_plus_const(cls, n: int, c: int, modulus: Modulus) -> "Poly":
        """x^n + c; n = 0 gives the constant 1 + c."""
        coeffs = [0] * n + [1]
        coeffs[0] += c
        return cls(coeffs, modulus)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def _same(self, other: "Poly") -> None:
        if other.modulus.N != self.modulus.N:
            raise ValueError("mixed moduli")

    def __add__(self, other: "Poly") -> "Poly":
        self._same(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[i] + other[i] for i in range(n)], self.modulus)

    def __sub__(self, other: "Poly") -> "Poly":
        self._same(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[i] - other[i] for i in range(n)], self.modulus)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs], self.modulus)

    def __mul__(self, other: "Poly") -> "Poly":
        self._same(other)
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.modulus)
        N = self.modulus.N
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = (out[i + j] + a * b) % N
        return Poly(out, self.modulus)

    def scale(self, c: int) -> "Poly":
        return Poly([c * a for a in self.coeffs], self.modulus)

    def shift(self, j: int) -> "Poly":
        """Multiply by x^j."""
        if self.is_zero():
            return self
        return Poly((0,) * j + self.coeffs, self.modulus)

    def __pow__(self, e: int) -> "Poly":
        acc = Poly.one(self.modulus)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def evaluate(self, x: int) -> int:
        N = self.modulus.N
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % N
        return acc

    def reduce_mod(self, modulus: Modulus) -> "Poly":
        """Push coefficients into a smaller ring (canonical reps)."""
        return Poly(self.coeffs, modulus)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                xi = "x" if i == 1 else f"x^{i}"
                terms.append(xi if c == 1 else f"{c}{xi}")
        return " + ".join(terms)

    def _key(self) -> tuple:
        return (self.coeffs, self.modulus)

    def __repr__(self) -> str:
        return f"Poly({self} over {self.modulus})"


def divmod_monic(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Exact division with remainder by a divisor with unit leading coefficient."""
    f._same(g)
    if g.is_zero():
        raise NonUnitLeading("division by zero polynomial")
    N = f.modulus.N
    if math.gcd(g.leading(), N) != 1:
        raise NonUnitLeading(f"leading coefficient {g.leading()} is not a unit mod {N}")
    inv = inverse_mod(g.leading(), N)
    rem = list(f.coeffs)
    dg = g.degree
    if f.degree < dg:
        return Poly.zero(f.modulus), f
    quot = [0] * (f.degree - dg + 1)
    for i in range(f.degree - dg, -1, -1):
        c = (rem[i + dg] * inv) % N
        if c:
            quot[i] = c
            for j, b in enumerate(g.coeffs):
                rem[i + j] = (rem[i + j] - c * b) % N
    return Poly(quot, f.modulus), Poly(rem[:dg], f.modulus)


def poly_mod(f: Poly, g: Poly) -> Poly:
    return divmod_monic(f, g)[1]


def poly_xgcd_field(f: Poly, g: Poly) -> tuple[Poly, Poly, Poly]:
    """(d, u, v) with u*f + v*g = d = monic gcd, over Z_p."""
    m = f.modulus
    r0, r1 = f, g
    s0, s1 = Poly.one(m), Poly.zero(m)
    t0, t1 = Poly.zero(m), Poly.one(m)
    while not r1.is_zero():
        q, r = divmod_monic(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    c = inverse_mod(r0.leading(), m.N)
    return r0.scale(c), s0.scale(c), t0.scale(c)


def pow_mod(base: Poly, e: int, h: Poly) -> Poly:
    """base^e reduced modulo the monic polynomial h."""
    acc = Poly.one(base.modulus)
    base = poly_mod(base, h)
    while e:
        if e & 1:
            acc = poly_mod(acc * base, h)
        base = poly_mod(base * base, h)
        e >>= 1
    return acc


def is_irreducible_mod_p(h: Poly) -> bool:
    """Irreducibility over Z_p: no factor of degree <= deg(h)/2.

    Certified through gcd(x^(p^j) - x, h) = 1 for 1 <= j <= deg/2, which rules
    out every irreducible divisor of degree j.
    """
    p = h.modulus.N
    m = h.degree
    if m <= 0:
        return False
    if m == 1:
        return True
    if h.coeffs[0] == 0:
        return False
    x = Poly.x(h.modulus)
    frob = x
    for _ in range(m // 2):
        frob = pow_mod(frob, p, h)
        g = poly_xgcd_field(frob - x, h)[0]
        if g.degree != 0:
            return False
    return True


@lru_cache(maxsize=None)
def least_irreducible(p: int, m: int) -> Poly:
    """Lexicographically least monic irreducible of degree m over Z_p.

    Coefficient tuples are compared low degree first.
    """
    mod = Modulus(p)
    if m == 1:
        return Poly.x(mod)
    # constant term 0 forces the factor y; skip that whole block
    for c0 in range(1, p):
        for rest in itertools.product(range(p), repeat=m - 1):
            h = Poly([c0, *rest, 1], mod)
            if is_irreducible_mod_p(h):
                return h
    raise AssertionError("no irreducible polynomial found")  # unreachable


class FieldElement(Frozen):
    """Element of F_{p^m} = Z_p[y]/(field_modulus), rep reduced mod the field modulus."""

    __slots__ = ("rep", "field_modulus")

    def __init__(self, rep: Poly, field_modulus: Poly):
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "field_modulus", field_modulus)

    def _make(self, rep: Poly) -> "FieldElement":
        return FieldElement(poly_mod(rep, self.field_modulus), self.field_modulus)

    @property
    def p(self) -> int:
        return self.field_modulus.modulus.N

    def __add__(self, other: "FieldElement") -> "FieldElement":
        return self._make(self.rep + other.rep)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self._make(self.rep - other.rep)

    def __neg__(self) -> "FieldElement":
        return self._make(-self.rep)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        return self._make(self.rep * other.rep)

    def __pow__(self, e: int) -> "FieldElement":
        if e < 0:
            raise ValueError("negative powers unsupported")
        return FieldElement(pow_mod(self.rep, e, self.field_modulus), self.field_modulus)

    def is_one(self) -> bool:
        return self.rep.coeffs == (1,)

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def lex_key(self) -> tuple[int, ...]:
        m = self.field_modulus.degree
        return tuple(self.rep[i] for i in range(m))

    def multiplicative_order(self) -> int:
        if self.is_zero():
            raise ValueError("zero has no multiplicative order")
        q = self.p ** self.field_modulus.degree
        order = q - 1
        for prime, _ in factorize(q - 1):
            while order % prime == 0 and (self ** (order // prime)).is_one():
                order //= prime
        return order

    def _key(self) -> tuple:
        return (self.rep, self.field_modulus)

    def __repr__(self) -> str:
        return f"FieldElement({self.rep} in GF({self.p}^{self.field_modulus.degree}))"


def field_one(h: Poly) -> FieldElement:
    return FieldElement(Poly.one(h.modulus), h)


def field_constant(c: int, h: Poly) -> FieldElement:
    return FieldElement(Poly.constant(c, h.modulus), h)


@lru_cache(maxsize=None)
def build_splitting_field(p: int, d: int) -> tuple[FieldElement, Poly]:
    """Primitive d-th root of unity in F_{p^m}, m = multiplicative order of p mod d.

    Returns the lexicographically least element of multiplicative order d
    together with the field modulus.
    """
    if d < 1 or (d > 1 and math.gcd(p, d) != 1):
        raise NotCoprime(f"gcd({p}, {d}) > 1")
    m = multiplicative_order(p, d)
    h = least_irreducible(p, m)
    if d == 1:
        return field_one(h), h
    q = p**m
    require((q - 1) % d == 0, "root order does not divide the field's unit group order")
    cofactor = (q - 1) // d
    # find one element of order d by powering candidates in lex order
    mod = Modulus(p)
    witness = None
    for rep in itertools.product(range(p), repeat=m):
        cand = FieldElement(Poly(rep, mod), h)
        if cand.is_zero():
            continue
        w = cand**cofactor
        if not w.is_zero() and w.multiplicative_order() == d:
            witness = w
            break
    if witness is None:
        raise AssertionError("no element of the requested order")  # unreachable
    # all elements of order d are powers w^s with gcd(s, d) = 1
    best = min(
        (witness**s for s in range(1, d + 1) if math.gcd(s, d) == 1),
        key=FieldElement.lex_key,
    )
    return best, h


def minimal_polynomial(eta_power: FieldElement, p: int, d: int, ell: int) -> Poly:
    """Monic minimal polynomial over Z_p of a primitive d-th root's ell-th power.

    Expands prod_j (x - eta^(ell * p^j)) over the splitting field; every
    coefficient must land in the prime subfield.
    """
    m = multiplicative_order(p, d)
    h = eta_power.field_modulus
    # product of (x - conjugate) over the Frobenius orbit
    coeffs: list[FieldElement] = [field_one(h)]
    conj = eta_power
    for _ in range(m):
        nxt = [field_constant(0, h)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] - c * conj
        coeffs = nxt
        conj = conj**p
    require(conj.lex_key() == eta_power.lex_key(), "Frobenius conjugates did not close up")
    out = []
    for c in coeffs:
        if c.rep.degree > 0:
            raise NotInBaseField(f"coefficient {c} outside Z_{p}")
        out.append(c.rep[0])
    return Poly(out, Modulus(p))


def int_poly_divmod_exact(a: list[int], b: list[int]) -> list[int]:
    """Exact division of integer polynomials with monic divisor b."""
    if not b or b[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(a)
    db = len(b) - 1
    if len(rem) - 1 < db:
        require(all(c == 0 for c in rem), "division was not exact")
        return []
    quot = [0] * (len(rem) - db)
    for i in range(len(rem) - 1 - db, -1, -1):
        c = rem[i + db]
        quot[i] = c
        if c:
            for j, y in enumerate(b):
                rem[i + j] -= c * y
    require(all(c == 0 for c in rem), "division was not exact")
    return quot


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> tuple[int, ...]:
    """Integral coefficients (ascending) of the d-th cyclotomic polynomial."""
    if d < 1:
        raise ValueError("d must be positive")
    num = [-1] + [0] * (d - 1) + [1]  # x^d - 1
    for e in divisors(d):
        if e < d:
            num = int_poly_divmod_exact(num, list(cyclotomic(e)))
    return tuple(num)

"""Polynomials over Z_N, division by monic divisors, and splitting fields.

Coefficients are stored ascending by degree as least non-negative residues,
with trailing zeros trimmed.  The arithmetic runs in the coeffs_* kernels on
plain integer lists in that layout: Poly wraps them, and the factor lifts,
the CRT split and the splitting-field search call them directly.
Splitting-field elements live in
F_{p^m} = Z_p[y]/(h) for the lexicographically least monic irreducible h of
degree m, so every derived label downstream is reproducible.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .errors import NonUnitLeading, NotCoprime, NotInBaseField, require
from .zring import Frozen, Modulus, divisors, factorize, multiplicative_order


def _trimmed(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def coeffs_add(a, b, N: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    return _trimmed([(x + y) % N for x, y in zip(a, b)] + [x % N for x in a[len(b) :]])


def coeffs_sub(a, b, N: int) -> list[int]:
    out = [x % N for x in a] + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] = (out[i] - y) % N
    return _trimmed(out)


def coeffs_mul(a, b, N: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return _trimmed([c % N for c in out])


def coeffs_divmod(f, g, N: int) -> tuple[list[int], list[int]]:
    """(q, r) with f = q*g + r and deg r < deg g over Z_N; g's leading
    coefficient must be a unit mod N."""
    dg = len(g) - 1
    rem = [c % N for c in f]
    if len(rem) <= dg:
        return [], _trimmed(rem)
    inv = 1 if g[-1] == 1 else pow(g[-1], -1, N)
    low = g[:-1]
    quot = [0] * (len(rem) - dg)
    for i in range(len(rem) - 1 - dg, -1, -1):
        c = rem[i + dg] * inv % N
        if c:
            quot[i] = c
            for j, y in enumerate(low, i):
                rem[j] -= c * y
    return _trimmed(quot), _trimmed([c % N for c in rem[:dg]])


def coeffs_xgcd(f, g, p: int) -> tuple[list[int], list[int], list[int]]:
    """(d, u, v) with u*f + v*g = d = monic gcd, over Z_p."""
    r0, r1 = _trimmed([c % p for c in f]), _trimmed([c % p for c in g])
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = coeffs_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, coeffs_sub(s0, coeffs_mul(q, s1, p), p)
        t0, t1 = t1, coeffs_sub(t0, coeffs_mul(q, t1, p), p)
    if not r0:
        return r0, s0, t0
    c = pow(r0[-1], -1, p)
    return tuple([x * c % p for x in v] for v in (r0, s0, t0))


def coeffs_powmod(base, e: int, h, N: int) -> list[int]:
    """base^e modulo the monic h over Z_N."""
    acc = [1]
    base = coeffs_divmod(base, h, N)[1]
    while e:
        if e & 1:
            acc = coeffs_divmod(coeffs_mul(acc, base, N), h, N)[1]
        e >>= 1
        if e:
            base = coeffs_divmod(coeffs_mul(base, base, N), h, N)[1]
    return acc


class Poly(Frozen):
    """Polynomial over Z_N as an ascending coefficient tuple."""

    __slots__ = ("coeffs", "modulus")

    def __init__(self, coeffs, modulus: Modulus):
        N = modulus.N
        object.__setattr__(self, "coeffs", tuple(_trimmed([c % N for c in coeffs])))
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
        return Poly(coeffs_mul(self.coeffs, other.coeffs, self.modulus.N), self.modulus)

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
    quot, rem = coeffs_divmod(f.coeffs, g.coeffs, N)
    return Poly(quot, f.modulus), Poly(rem, f.modulus)


def poly_mod(f: Poly, g: Poly) -> Poly:
    return divmod_monic(f, g)[1]


def poly_xgcd_field(f: Poly, g: Poly) -> tuple[Poly, Poly, Poly]:
    """(d, u, v) with u*f + v*g = d = monic gcd, over Z_p."""
    m = f.modulus
    return tuple(Poly(c, m) for c in coeffs_xgcd(f.coeffs, g.coeffs, m.N))


def pow_mod(base: Poly, e: int, h: Poly) -> Poly:
    """base^e reduced modulo the monic polynomial h."""
    return Poly(coeffs_powmod(base.coeffs, e, h.coeffs, base.modulus.N), base.modulus)


def is_irreducible_mod_p(h: Poly) -> bool:
    """Irreducibility over Z_p: no factor of degree <= deg(h)/2.

    Certified through gcd(x^(p^j) - x, h) = 1 for 1 <= j <= deg/2, which rules
    out every irreducible divisor of degree j.
    """
    return _irreducible(h.coeffs, h.modulus.N)


def _irreducible(h, p: int) -> bool:
    """is_irreducible_mod_p on a monic coefficient list."""
    m = len(h) - 1
    if m <= 0:
        return False
    if m == 1:
        return True
    if h[0] == 0:
        return False
    frob = [0, 1]
    for _ in range(m // 2):
        frob = coeffs_powmod(frob, p, h, p)
        if len(coeffs_xgcd(coeffs_sub(frob, [0, 1], p), h, p)[0]) != 1:
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
            h = (c0, *rest, 1)
            if _irreducible(h, p):
                return Poly(h, mod)
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


@lru_cache(maxsize=None)
def build_splitting_field(p: int, d: int) -> tuple[FieldElement, Poly]:
    """Primitive d-th root of unity in F_{p^m}, m = multiplicative order of p mod d.

    Returns the lexicographically least element of multiplicative order d
    together with the field modulus.  The search runs on coefficient lists:
    the first candidate, in lex order, whose (q-1)/d-th power w has order
    exactly d (w^(d/r) != 1 for each prime r | d; w^d = 1 always), then the
    least w^s over s coprime to d.
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
    hc = h.coeffs
    cuts = [d // r for r, _ in factorize(d)]
    witness = None
    for rep in itertools.product(range(p), repeat=m):
        cand = _trimmed(list(rep))
        if not cand:
            continue
        w = coeffs_powmod(cand, cofactor, hc, p)
        if all(coeffs_powmod(w, c, hc, p) != [1] for c in cuts):
            witness = w
            break
    if witness is None:
        raise AssertionError("no element of the requested order")  # unreachable
    # all elements of order d are powers w^s with gcd(s, d) = 1
    best = None
    power = witness
    for s in range(1, d + 1):
        if math.gcd(s, d) == 1:
            key = power + [0] * (m - len(power))
            if best is None or key < best:
                best = key
        power = coeffs_divmod(coeffs_mul(power, witness, p), hc, p)[1]
    return FieldElement(Poly(best, Modulus(p)), h), h


def minimal_polynomial(eta_power: FieldElement, p: int, d: int, ell: int) -> Poly:
    """Monic minimal polynomial over Z_p of a primitive d-th root's ell-th power.

    Expands prod_j (x - eta^(ell * p^j)) over the splitting field, on
    coefficient lists; every coefficient must land in the prime subfield.
    """
    m = multiplicative_order(p, d)
    h = eta_power.field_modulus
    hc = h.coeffs
    root = list(eta_power.rep.coeffs)
    # product of (x - conjugate) over the Frobenius orbit, each coefficient in F_{p^m}
    coeffs: list[list[int]] = [[1]]
    conj = root
    for _ in range(m):
        nxt: list[list[int]] = [[] for _ in range(len(coeffs) + 1)]
        for i, c in enumerate(coeffs):
            nxt[i + 1] = coeffs_add(nxt[i + 1], c, p)
            nxt[i] = coeffs_sub(nxt[i], coeffs_divmod(coeffs_mul(c, conj, p), hc, p)[1], p)
        coeffs = nxt
        conj = coeffs_powmod(conj, p, hc, p)
    require(conj == root, "Frobenius conjugates did not close up")
    out = []
    for c in coeffs:
        if len(c) > 1:
            raise NotInBaseField(f"coefficient {FieldElement(Poly(c, h.modulus), h)} outside Z_{p}")
        out.append(c[0] if c else 0)
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

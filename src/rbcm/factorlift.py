"""Labeled factorization of x^n - 1, x^n + 1 and radical sums over Z_{p^k}.

Base factors over Z_p come from splitting-field minimal polynomials; factors
over Z_{p^k} are produced by quadratic Hensel lifting with cofactor tracking
and a final exact-division check.  Labels (d, l, level) order the output.
"""

from __future__ import annotations

import math
from functools import lru_cache, total_ordering

from .errors import InvariantViolation, NotCoprime, NotSimpleFactor, require
from .poly import (
    Poly,
    build_splitting_field,
    cyclotomic,
    divmod_monic,
    minimal_polynomial,
    poly_mod,
    poly_xgcd_field,
)
from .zring import Frozen, Modulus, divisors, multiplicative_order


@total_ordering
class FactorLabel(Frozen):
    """Label (d, l, level) of one factor, with its degree.

    Labels compare, hash and sort as the tuple (d, l, level, degree).
    """

    __slots__ = ("d", "l", "level", "degree")

    def __init__(self, d: int, l: int, level: int, degree: int):
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "degree", degree)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.d, self.l, self.level)

    def _key(self) -> tuple:
        return (self.d, self.l, self.level, self.degree)

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() < other._key()

    def __repr__(self) -> str:
        return f"FactorLabel(d={self.d}, l={self.l}, level={self.level}, degree={self.degree})"


class LabeledFactor(Frozen):
    __slots__ = ("label", "poly")

    def __init__(self, label: FactorLabel, poly: Poly):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "poly", poly)

    def _key(self) -> tuple:
        return (self.label, self.poly)

    def __repr__(self) -> str:
        return f"q[d={self.label.d},l={self.label.l},b={self.label.level}] = {self.poly}"


@lru_cache(maxsize=None)
def coset_reps(p: int, d: int) -> tuple[int, ...]:
    """Least representatives of the cosets of <p> in (Z_d)^x, ascending."""
    if d == 1:
        return (1,)
    if math.gcd(p, d) != 1:
        raise NotCoprime(f"gcd({p}, {d}) > 1")
    units = [u for u in range(1, d) if math.gcd(u, d) == 1]
    powers = set()
    acc = 1
    while True:
        acc = (acc * p) % d
        if acc in powers:
            break
        powers.add(acc)
    reps = []
    seen: set[int] = set()
    for u in units:
        if u in seen:
            continue
        reps.append(u)
        seen.update((u * q) % d for q in powers)
    return tuple(reps)


def lambda_index(p: int, n_prime: int) -> tuple[FactorLabel, ...]:
    """Label set indexing the factors of x^n + 1, ordered by (d, l)."""
    if math.gcd(p, n_prime) != 1:
        raise NotCoprime(f"gcd({p}, {n_prime}) > 1")
    labels = []
    if p == 2:
        ds = divisors(n_prime)
    else:
        ds = [d for d in divisors(2 * n_prime) if n_prime % d != 0]
    for d in ds:
        deg = multiplicative_order(p, d)
        for ell in coset_reps(p, d):
            labels.append(FactorLabel(d, ell, 0, deg))
    return tuple(sorted(labels, key=FactorLabel.as_tuple))


@lru_cache(maxsize=None)
def base_factor(p: int, d: int, ell: int) -> Poly:
    """Irreducible factor of the d-th cyclotomic polynomial over Z_p for coset l.

    l must be a label: one of coset_reps(p, d), the least representatives.
    """
    reps = coset_reps(p, d)
    if ell not in reps:
        labels = ", ".join(map(str, reps))
        raise ValueError(f"l = {ell} is not a factor label; for p = {p}, d = {d} they are {labels}")
    eta, _ = build_splitting_field(p, d)
    return minimal_polynomial(eta**ell, p, d, ell)


def factor_mod_p(n: int, p: int) -> list[LabeledFactor]:
    """Complete labeled factorization of x^n - 1 over Z_p (n coprime to p)."""
    if math.gcd(n, p) != 1:
        raise NotCoprime(f"gcd({n}, {p}) > 1")
    mod = Modulus(p)
    out = []
    for d in divisors(n):
        deg = multiplicative_order(p, d)
        cyc = Poly(cyclotomic(d), mod)
        prod = Poly.one(mod)
        for ell in coset_reps(p, d):
            q = base_factor(p, d, ell)
            out.append(LabeledFactor(FactorLabel(d, ell, 0, deg), q))
            prod = prod * q
        if prod != cyc:
            raise InvariantViolation(f"cyclotomic factor product failed for d={d}")
    out.sort(key=lambda f: f.label.as_tuple())
    total = Poly.one(mod)
    for f in out:
        total = total * f.poly
    require(total == Poly.x_pow_plus_const(n, -1, mod), "factor product is not x^n - 1")
    return out


def _lift_coprime_block(gbar: Poly, target: Poly, p: int, k: int) -> Poly:
    """Unique monic divisor of target over Z_{p^k} reducing to gbar mod p.

    gbar must be coprime to its cofactor in the reduction of target.  Uses
    precision-doubling updates of the factor, cofactor and Bezout pair,
    then certifies by exact division.
    """
    modp = Modulus(p)
    modk = target.modulus
    red = target.reduce_mod(modp)
    hbar, rem = divmod_monic(red, gbar)
    if not rem.is_zero():
        raise ValueError(f"{gbar} does not divide the reduction of the target")
    gcd, u, v = poly_xgcd_field(gbar, hbar)
    if gcd.degree != 0:
        raise NotSimpleFactor(f"{gbar} is not coprime to its cofactor")
    if k == 1:
        return gbar
    g = gbar.reduce_mod(modk)
    h = hbar.reduce_mod(modk)
    s = u.reduce_mod(modk)
    t = v.reduce_mod(modk)
    prec = 1
    one = Poly.one(modk)
    while prec < k:
        prec = min(2 * prec, k)
        cap = p**prec
        e = target - g * h
        _, delta = divmod_monic(t * e, g)
        g = g + delta
        h, r = divmod_monic(target, g)
        require(all(c % cap == 0 for c in r.coeffs), "Hensel step: factor does not divide target")
        b = s * g + t * h - one
        _, t = divmod_monic(t - t * b, g)
        s, r3 = divmod_monic(one - t * h, g)
        require(all(c % cap == 0 for c in r3.coeffs), "Hensel step: Bezout pair not updated")
    quot, rem = divmod_monic(target, g)
    require(rem.is_zero(), "lift failed the exact-division certificate")
    return g


def hensel_lift_factor(q: Poly, p: int, k: int, target: Poly) -> Poly:
    """Lift a simple monic irreducible factor of the target's reduction mod p."""
    modp = Modulus(p)
    red = target.reduce_mod(modp)
    quot, rem = divmod_monic(red, q)
    if not rem.is_zero():
        raise ValueError(f"{q} does not divide the reduction of the target")
    if poly_mod(quot, q).is_zero():
        raise NotSimpleFactor(f"{q} divides the reduction of the target twice")
    if k == 1:
        return q
    return _lift_coprime_block(q, target, p, k)


def radical_sum(p: int, k: int, base_exp: int) -> Poly:
    """1 + x^e + x^(2e) + ... + x^((p-1)e) over Z_{p^k} for e = base_exp."""
    mod = Modulus(p, k)
    coeffs = [0] * ((p - 1) * base_exp + 1)
    for i in range(p):
        coeffs[i * base_exp] = 1
    return Poly(coeffs, mod)


def lift_radical_factor(d: int, ell: int, level: int, p: int, k: int) -> LabeledFactor:
    """Factor at radical level >= 1: reduction is base_factor^(p^(level-1)(p-1))."""
    if level < 1:
        raise ValueError(f"radical level must be >= 1, got {level}")
    o = multiplicative_order(p, d)
    scale = p ** (level - 1) * (p - 1)
    block = base_factor(p, d, ell) ** scale
    label = FactorLabel(d, ell, level, o * scale)
    if k == 1:
        return LabeledFactor(label, block)
    target = radical_sum(p, k, d * p ** (level - 1))
    lifted = _lift_coprime_block(block, target, p, k)
    require(lifted.degree == o * scale, "lifted radical factor has the wrong degree")
    return LabeledFactor(label, lifted)


def lift_level0_factor(d: int, ell: int, p: int, k: int) -> LabeledFactor:
    """Level-0 lift: the unique monic factor of x^d - 1 reducing to the base factor."""
    o = multiplicative_order(p, d)
    q = base_factor(p, d, ell)
    label = FactorLabel(d, ell, 0, o)
    if k == 1:
        return LabeledFactor(label, q)
    target = Poly.x_pow_plus_const(d, -1, Modulus(p, k))
    return LabeledFactor(label, hensel_lift_factor(q, p, k, target))


def split_p_part(n: int, p: int) -> tuple[int, int]:
    """n = p^r * n' with n' coprime to p; returns (r, n')."""
    if n < 1 or p < 2:
        raise ValueError(f"split_p_part needs n >= 1 and p >= 2, got n={n}, p={p}")
    r = 0
    while n % p == 0:
        n //= p
        r += 1
    return r, n


def factor_xn_minus1(p: int, k: int, n: int) -> list[LabeledFactor]:
    """Labeled factorization of x^n - 1 over Z_{p^k}; product is exact."""
    r, n_prime = split_p_part(n, p)
    out = []
    for d in divisors(n_prime):
        for ell in coset_reps(p, d):
            out.append(lift_level0_factor(d, ell, p, k))
            for b in range(1, r + 1):
                out.append(lift_radical_factor(d, ell, b, p, k))
    out.sort(key=lambda f: f.label.as_tuple())
    _assert_product(out, Poly.x_pow_plus_const(n, -1, Modulus(p, k)))
    return out


def factor_radical_sum(p: int, k: int, n: int) -> list[LabeledFactor]:
    """Factorization of 1 + x^(n/p) + ... + x^((p-1)n/p); requires p | n."""
    r, n_prime = split_p_part(n, p)
    if r < 1:
        raise ValueError("the radical sum requires p | n")
    out = []
    for d in divisors(n_prime):
        for ell in coset_reps(p, d):
            out.append(lift_radical_factor(d, ell, r, p, k))
    out.sort(key=lambda f: f.label.as_tuple())
    _assert_product(out, radical_sum(p, k, n // p))
    return out


@lru_cache(maxsize=None)
def factor_xn_plus1(p: int, k: int, n: int) -> tuple[LabeledFactor, ...]:
    """Labeled factorization of x^n + 1 over Z_{p^k}; product is exact.

    For odd p the labels run over (d, l) with d | 2n', d not dividing n',
    at levels 0..r; for p = 2 a single level r+1 factor per d | n'.
    """
    r, n_prime = split_p_part(n, p)
    out = []
    if p == 2:
        for lab in lambda_index(p, n_prime):
            out.append(lift_radical_factor(lab.d, lab.l, r + 1, p, k))
    else:
        for lab in lambda_index(p, n_prime):
            out.append(lift_level0_factor(lab.d, lab.l, p, k))
            for b in range(1, r + 1):
                out.append(lift_radical_factor(lab.d, lab.l, b, p, k))
    out.sort(key=lambda f: f.label.as_tuple())
    _assert_product(out, Poly.x_pow_plus_const(n, 1, Modulus(p, k)))
    return tuple(out)


def _assert_product(factors: list[LabeledFactor], expected: Poly) -> None:
    prod = Poly.one(expected.modulus)
    for f in factors:
        prod = prod * f.poly
    if prod != expected:
        raise InvariantViolation(f"factor product {prod} != {expected}")


def bezout_certificate(f1: Poly, f2: Poly) -> tuple[Poly, Poly]:
    """(u, v) with u*f1 + v*f2 = 1 over Z_{p^k}; f1, f2 coprime mod p."""
    mod = f1.modulus
    p = mod.p
    modp = Modulus(p)
    gcd, u, v = poly_xgcd_field(f1.reduce_mod(modp), f2.reduce_mod(modp))
    if gcd.degree != 0 or gcd.is_zero():
        raise ValueError("factors are not coprime modulo p")
    u = u.reduce_mod(mod)
    v = v.reduce_mod(mod)
    one = Poly.one(mod)
    # u*f1 + v*f2 = 1 - p*g; multiply by 1 + (pg) + (pg)^2 + ... to kill p-part
    pg = one - (u * f1 + v * f2)
    h = one
    acc = one
    for _ in range(1, mod.k):
        acc = acc * pg
        h = h + acc
    u, v = h * u, h * v
    require(u * f1 + v * f2 == one, "Bezout certificate failed")
    return u, v

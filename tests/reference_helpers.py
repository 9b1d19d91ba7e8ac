"""Exhaustive and closed-form helpers that only the tests use as references."""

import itertools
import math
from functools import lru_cache, reduce

from rbcm.cayley import _rank_mod_p
from rbcm.classify import _binom2
from rbcm.errors import InvariantViolation, require
from rbcm.ideals import _ext_gcd, _leading, _normalizing_unit, canonical_form
from rbcm.poly import Poly, poly_mod
from rbcm.structure import AbelianGroupTable, QuotientRing
from rbcm.zring import Modulus, divisors, factorize


def all_monic(modulus: Modulus, degree: int):
    """All monic polynomials of exact degree over Z_N (test/search helper)."""
    for lower in itertools.product(range(modulus.N), repeat=degree):
        yield Poly(list(lower) + [1], modulus)


def monic_divisors_exhaustive(f: Poly) -> list[Poly]:
    """All monic divisors of f with 0 < deg < deg f, found by trial division."""
    out = []
    for deg in range(1, f.degree):
        for g in all_monic(f.modulus, deg):
            if poly_mod(f, g).is_zero():
                out.append(g)
    return out


def int_poly_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def euler_phi(n: int) -> int:
    return reduce(lambda acc, pe: acc // pe[0] * (pe[0] - 1), factorize(n), n) if n > 1 else 1


def same_prime(invariants) -> int | None:
    """p when every invariant factor is a power of one prime p, else None."""
    primes = {factorize(d)[0][0] for d in invariants}
    if len(primes) == 1 and all(len(factorize(d)) == 1 for d in invariants):
        return primes.pop()
    return None


def _candidate_images(group: AbelianGroupTable, d: int):
    """Elements killed by d, i.e. valid images of a generator of order d."""
    ranges = [range(0, dj, dj // math.gcd(dj, d)) for dj in group.invariants]
    return [tuple(v) for v in itertools.product(*ranges)]


@lru_cache(maxsize=None)
def reference_automorphism_matrices(invariants):
    """Every automorphism as rows of generator images, by exhaustive search.

    Each tuple of valid generator images is kept when it spans the group:
    by the rank of the rows mod p for a p-group, else by a generation test.
    """
    group = AbelianGroupTable(invariants)
    p = same_prime(invariants)
    pools = [_candidate_images(group, d) for d in invariants]
    auts = []
    for rows in itertools.product(*pools):
        if p is not None:
            if _rank_mod_p(rows, p) != group.rank:
                continue
        elif not group.generates(rows):
            continue
        auts.append(tuple(rows))
    return tuple(auts)


@lru_cache(maxsize=None)
def definitional_group_tables(invariants):
    """(elements, index-of, add rows) straight from the definition of addition.

    Row a, column b holds the index of a + b.  Cached: the automorphism tests
    read it once per table they check.
    """
    els = tuple(itertools.product(*[range(d) for d in invariants]))
    idx = {e: i for i, e in enumerate(els)}
    add_rows = tuple(
        tuple(idx[tuple((x + y) % d for x, y, d in zip(a, b, invariants))] for b in els)
        for a in els
    )
    return els, idx, add_rows


def crt_forward(split, f):
    """Images of f in the component rings Z_{p^k}[x]/(ctx_i), in label order."""
    return [poly_mod(f, ctx) for ctx in split.contexts]


def crt_backward(split, parts):
    """The ambient element with the given component images: sum_i parts[i]*e_i."""
    acc = Poly.zero(split.ambient.modulus)
    for g, e in zip(parts, split.idempotents):
        acc = acc + g * e
    return poly_mod(acc, split.ambient)


def reference_admissibility(Q, n, type2=False):
    """(ok, clause) of is_admissible (or is_admissible_type2), with each
    x^m + 1 built as a Poly and tested by Q.contains."""

    def plus_one_in(m):
        return Q.contains(Poly.x_pow_plus_const(m, 1, Q.modulus))

    if not plus_one_in(n):
        return False, "i"
    if type2:
        if any(plus_one_in(m) for m in divisors(n) if m < n):
            return False, "ii"
        return (True, None) if Q.constant_divisor() == 2 else (False, "iii")
    if Q.constant_divisor() != Q.modulus.N:
        return False, "iii"
    if any(plus_one_in(m) for m in range(1, n)):
        return False, "ii"
    return True, None


def reference_combine(split, generator_lists):
    """CRT combine from polynomial generators, one list per component.

    The ideal is generated over the ambient ring by e_i*ctx_i and e_i*g for
    every generator g of component i, closed under x by canonical_form.
    """
    gens = []
    for e, ctx, part in zip(split.idempotents, split.contexts, generator_lists):
        gens.append(e * ctx)
        for g in part:
            gens.append(e * g)
    return canonical_form(gens, split.ambient, split.ambient.modulus)


def reference_howell_form(rows, N: int, width: int) -> tuple[tuple[int, ...], ...]:
    """Howell normal form that rescans the whole pool for each column."""
    pool = []
    for r in rows:
        rr = [v % N for v in r]
        if any(rr):
            pool.append(rr)
    basis: list[list[int]] = []
    for col in range(width):
        cur = [r for r in pool if _leading(r) == col]
        pool = [r for r in pool if _leading(r) != col]
        if not cur:
            continue
        r = cur[0]
        for s in cur[1:]:
            a, b = r[col], s[col]
            g, u, v = _ext_gcd(a, b)
            new_r = [(u * x + v * y) % N for x, y in zip(r, s)]
            new_s = [((b // g) * x - (a // g) * y) % N for x, y in zip(r, s)]
            r = new_r
            if any(new_s):
                pool.append(new_s)
        u, d = _normalizing_unit(r[col], N)
        r = [(u * x) % N for x in r]
        if d == 0:
            continue
        basis.append(r)
        if d != 1:
            ann = [((N // d) * x) % N for x in r]
            if any(ann):
                pool.append(ann)
    for i, r in enumerate(basis):
        c = _leading(r)
        d = r[c]
        for j in range(i):
            q = basis[j][c] // d
            if q:
                basis[j] = [(x - q * y) % N for x, y in zip(basis[j], r)]
    return tuple(tuple(r) for r in basis)


def reference_radical_floor_rows(context, modulus, s, radical_gen):
    """Rows of m^s for m = (p, g), from all 2^s products of s generators."""
    gens = [Poly.one(modulus)]
    for _ in range(s):
        gens = [a * b for a in gens for b in [Poly.constant(modulus.p, modulus), radical_gen]]
        gens = list({poly_mod(g, context).coeffs: poly_mod(g, context) for g in gens}.values())
    return canonical_form(gens, context, modulus).rows


def reference_quadratic_divisors(N: int, n: int) -> list[tuple[int, int]]:
    """(a, b) with x^2 + a*x + b dividing x^n + 1 over Z_N, by scanning all N^2.

    x^n is reduced mod x^2 + a*x + b one power at a time, as c1*x + c0.
    """
    out = []
    for a in range(N):
        for b in range(N):
            c1, c0 = 0, 1
            for _ in range(n):
                c1, c0 = (c0 - a * c1) % N, (-b * c1) % N
            if c1 == 0 and (c0 + 1) % N == 0:
                out.append((a, b))
    return out


def reference_rank2_generator_check(Q, n: int, p: int, k: int, mu: int, alpha: int, nu: int) -> None:
    """The rank-2 generator certificate checked pairwise, on every residue pair.

    phi reads each residue through a Poly (once, then from a cache) and must
    be additive on all |Q|^2 pairs.  classify._rank2_generator_check checks
    additivity on the relation rows instead and must raise the same messages.
    """
    N = p**k
    ring = QuotientRing(Q)
    target = AbelianGroupTable((p, N))

    def add(a, b):
        return Q.reduce_row([x + y for x, y in zip(a, b)])

    @lru_cache(maxsize=None)
    def phi(row) -> tuple[int, int]:
        poly = Q.row_to_poly(row)
        c0, c1 = poly[0], poly[1]
        require(all(poly[i] == 0 for i in range(2, Q.width)), "unreduced residue")
        return (c1 % p, (c0 + c1 * (mu + p * nu)) % N)

    residues = ring.residues()
    images = {phi(res) for res in residues}
    require(len(images) == ring.order == target.order, "generator map is not bijective")
    for a in residues:
        for b in residues:
            require(phi(add(a, b)) == target.add(phi(a), phi(b)), "not additive")
    for i in range(1, n + 1):
        omega = ring.x_power_image(i - 1)
        first = (
            pow(mu + p * nu, i - 1, N)
            + _binom2(i - 1) * (p * alpha - p * p * nu * nu) * (pow(mu, i - 3, N) if i >= 3 else 0)
        ) % N
        second = ((i - 1) * (pow(mu, i - 2, N) if i >= 2 else 0)) % p
        if phi(omega) != (second, first):
            raise InvariantViolation(f"generator {i} mismatch")

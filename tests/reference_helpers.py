"""Exhaustive and closed-form helpers that only the tests use as references."""

import itertools
import math
from functools import lru_cache, reduce

from rbcm.cayley import _rank_mod_p
from rbcm.poly import Poly, poly_mod
from rbcm.structure import AbelianGroupTable
from rbcm.zring import Modulus, factorize


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


def definitional_group_tables(invariants):
    """(elements, index-of, add rows) straight from the definition of addition."""
    els = tuple(itertools.product(*[range(d) for d in invariants]))
    idx = {e: i for i, e in enumerate(els)}
    add_rows = tuple(
        tuple(idx[tuple((x + y) % d for x, y, d in zip(a, b, invariants))] for b in els)
        for a in els
    )
    return els, idx, add_rows

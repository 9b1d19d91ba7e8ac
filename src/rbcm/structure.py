"""Finite abelian groups by invariant factors, and the structure of Z_N[x]/Q.

The additive quotient is read off an integer relation lattice (N*e_i plus the
ideal's canonical rows) via Smith normal form; the column transform gives an
explicit isomorphism onto the invariant-factor group used for map records.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .errors import InvariantViolation, TooLarge
from .ideals import IdealPresentation, x_powers
from .zring import Frozen, factorize, p_valuation

RESIDUE_BUDGET = 1 << 16


def smith_normal_form(rows: list[list[int]], width: int) -> tuple[list[int], list[list[int]]]:
    """Diagonal of the Smith form and the column transform V.

    Returns (diag, V) with U*A*V diagonal for unimodular U, V; only V is
    tracked because row operations do not change the row lattice.
    """
    A = [list(r) for r in rows]
    m, n = len(A), width
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def col_op(j1, j2, a, b, c, d):
        # (col_j1, col_j2) <- (a*col_j1 + c*col_j2, b*col_j1 + d*col_j2)
        for r in A:
            r[j1], r[j2] = a * r[j1] + c * r[j2], b * r[j1] + d * r[j2]
        for r in V:
            r[j1], r[j2] = a * r[j1] + c * r[j2], b * r[j1] + d * r[j2]

    diag = []
    t = 0
    while t < n and t < m:
        while True:
            # move the smallest nonzero entry of the block to the pivot seat
            best = None
            pr = pc = -1
            for i in range(t, m):
                for j in range(t, n):
                    if A[i][j] and (best is None or abs(A[i][j]) < best):
                        best, pr, pc = abs(A[i][j]), i, j
            if best is None:
                break
            A[t], A[pr] = A[pr], A[t]
            if pc != t:
                col_op(t, pc, 0, 1, 1, 0)
            if A[t][t] < 0:
                A[t] = [-x for x in A[t]]
            p = A[t][t]
            dirty = False
            for i in range(m):
                if i != t and A[i][t]:
                    q = A[i][t] // p
                    A[i] = [x - q * y for x, y in zip(A[i], A[t])]
                    dirty = dirty or A[i][t] != 0
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // p
                    col_op(j, t, 1, 0, -q, 1)
                    dirty = dirty or A[t][j] != 0
            if dirty:
                continue
            stubborn = None
            for i in range(t + 1, m):
                if any(A[i][j] % p for j in range(t + 1, n)):
                    stubborn = i
                    break
            if stubborn is None:
                break
            A[t] = [x + y for x, y in zip(A[t], A[stubborn])]
        if best is None:
            break
        diag.append(A[t][t])
        t += 1
    for a, b in zip(diag, diag[1:]):
        if a and b % a:
            raise InvariantViolation(f"divisibility chain broken: {diag}")
    return diag, V


def _relation_rows(Q: IdealPresentation) -> list[list[int]]:
    N = Q.modulus.N
    D = Q.width
    rows = [[N if i == j else 0 for j in range(D)] for i in range(D)]
    rows += [list(r) for r in Q.rows]
    return rows


def quotient_group_type(Q: IdealPresentation) -> AbelianGroupTable:
    """The additive group of Z_N[x]/Q, by its invariant factors."""
    diag, _ = smith_normal_form(_relation_rows(Q), Q.width)
    return AbelianGroupTable(tuple(d for d in diag if d > 1))


def quotient_isomorphism(Q: IdealPresentation):
    """(group, map) with map taking a residue row to invariant coordinates."""
    diag, V = smith_normal_form(_relation_rows(Q), Q.width)
    keep = [(i, d) for i, d in enumerate(diag) if d > 1]
    group = AbelianGroupTable(tuple(d for _, d in keep))

    def to_coords(row) -> tuple[int, ...]:
        return tuple(
            sum(row[i] * V[i][j] for i in range(len(row))) % d for j, d in keep
        )

    return group, to_coords


class QuotientRing:
    """x-power rows of Z_N[x]/Q, within the residue budget."""

    def __init__(self, Q: IdealPresentation):
        self.ideal = Q
        self.order = Q.quotient_size()
        if self.order > RESIDUE_BUDGET:
            raise TooLarge(f"quotient has {self.order} residues (budget {RESIDUE_BUDGET})")

    def x_power_images(self, n: int) -> list[tuple[int, ...]]:
        """Reduced rows of x^0, ..., x^(n-1), from one x-power walk."""
        Q = self.ideal
        one = (0,) * (Q.width - 1) + (1,)
        return [Q.reduce_row(r) for r in x_powers(one, Q.context_monic, n)]

    def x_power_image(self, i: int) -> tuple[int, ...]:
        return self.x_power_images(i + 1)[i]


def reachable(start: int, steps, size: int) -> int:
    """Number of nodes in range(size) reachable from start.

    Each step is a successor table: node a has the successors step[a].
    """
    seen = bytearray(size)
    seen[start] = 1
    frontier = [start]
    count = 1
    while frontier:
        a = frontier.pop()
        for step in steps:
            b = step[a]
            if not seen[b]:
                seen[b] = 1
                count += 1
                frontier.append(b)
    return count


@lru_cache(maxsize=None)
def _group_tables(invariants: tuple[int, ...]):
    """(elements, index-of) of the group, built once per invariants tuple.

    Elements come in itertools.product order, so index order is coordinate
    (lexicographic) order and index 0 is the zero.
    """
    els = tuple(itertools.product(*[range(d) for d in invariants]))
    return els, {e: i for i, e in enumerate(els)}


@lru_cache(maxsize=None)
def translation(invariants: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """Index row of a -> a + g: entry i is the index of element i plus g.

    Built one coordinate at a time; the first is the most significant digit.
    """
    row = [0]
    for x, d in zip(g, invariants):
        row = [t * d + (j + x) % d for t in row for j in range(d)]
    return tuple(row)


class AbelianGroupTable(Frozen):
    """Finite abelian group Z_{d_1} x ... x Z_{d_r} by its invariant factors
    d_1 | d_2 | ... | d_r, each > 1; tables compare and hash by them.

    Elements are numbered in product order, index 0 the zero.  The closure,
    homomorphism and face-tracing loops run on small integers, through the
    translation row a -> a + g of each element g they add, built once per g.
    """

    __slots__ = ("invariants", "rank", "order", "exponent")

    def __init__(self, invariants: tuple[int, ...]):
        invariants = tuple(invariants)
        order = exponent = 1
        for d in invariants:
            if d <= 1:
                raise ValueError(f"invariant factors must exceed 1, got {invariants}")
            if d % exponent:
                raise ValueError(f"invariant factors must form a divisibility chain, got {invariants}")
            order *= d
            exponent = d
        object.__setattr__(self, "invariants", invariants)
        object.__setattr__(self, "rank", len(invariants))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "exponent", exponent)

    def _key(self) -> tuple:
        return (self.invariants,)

    @classmethod
    def from_spec(cls, spec) -> AbelianGroupTable:
        """The group Z_{o_1} x ... x Z_{o_r} for any list of cyclic orders o_i > 1.

        The orders are brought to invariant factors, so equivalent specs such
        as (4, 2) and (2, 4) give the same table.  A table passes through.
        """
        if isinstance(spec, cls):
            return spec
        orders = list(spec)
        if not orders or any(o <= 1 for o in orders):
            raise ValueError(f"cyclic orders must be > 1, got {orders}")
        relations = [
            [o if i == j else 0 for j in range(len(orders))] for i, o in enumerate(orders)
        ]
        diag, _ = smith_normal_form(relations, len(orders))
        return cls(tuple(d for d in diag if d > 1))

    def p_type(self) -> tuple[int, tuple[int, ...]]:
        """(p, (e_1, ..., e_r)) with invariant factors p^e_1 | ... | p^e_r.

        Raises ValueError unless the group is a nontrivial p-group.
        """
        facs = factorize(self.exponent)
        if len(facs) != 1:
            raise ValueError(f"{self!r} is not a p-group")
        p = facs[0][0]
        return p, tuple(p_valuation(d, p) for d in self.invariants)

    def tables(self):
        """(elements, index-of), shared by every table of these invariants."""
        return _group_tables(self.invariants)

    def translation(self, g) -> tuple[int, ...]:
        """Index row of a -> a + g, shared by every table of these invariants."""
        return translation(self.invariants, tuple(g))

    def elements(self) -> tuple[tuple[int, ...], ...]:
        return _group_tables(self.invariants)[0]

    def add(self, a, b) -> tuple[int, ...]:
        return tuple((x + y) % d for x, y, d in zip(a, b, self.invariants))

    def neg(self, a) -> tuple[int, ...]:
        return tuple((-x) % d for x, d in zip(a, self.invariants))

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def element_order(self, a) -> int:
        n = 1
        for x, d in zip(a, self.invariants):
            o = d // math.gcd(x, d)
            n = n * o // math.gcd(n, o)
        return n

    def generates(self, gens) -> bool:
        return reachable(0, [self.translation(g) for g in gens], self.order) == self.order

    def __repr__(self):
        return " x ".join(f"Z_{d}" for d in self.invariants) or "0"

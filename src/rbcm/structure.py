"""Abelian-group structure of quotients Z_N[x]/Q and residue enumeration.

The additive quotient is read off an integer relation lattice (N*e_i plus the
ideal's canonical rows) via Smith normal form; the column transform gives an
explicit isomorphism onto the invariant-factor group used for map records.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import InvariantViolation, TooLarge, require
from .ideals import IdealPresentation, x_step
from .poly import Poly

RESIDUE_BUDGET = 1 << 16


@dataclass(frozen=True)
class AbelianType:
    """Invariant factors d_1 | d_2 | ... | d_s, each > 1, ascending."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        for a, b in zip(self.invariant_factors, self.invariant_factors[1:]):
            if b % a:
                raise InvariantViolation("invariant factors must form a divisibility chain")
        require(all(d > 1 for d in self.invariant_factors), "invariant factors must exceed 1")

    @property
    def order(self) -> int:
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def __repr__(self):
        return " x ".join(f"Z_{d}" for d in self.invariant_factors) or "0"


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


def quotient_group_type(Q: IdealPresentation) -> AbelianType:
    """Invariant factors of the additive group of Z_N[x]/Q."""
    diag, _ = smith_normal_form(_relation_rows(Q), Q.width)
    return AbelianType(tuple(d for d in diag if d > 1))


def quotient_isomorphism(Q: IdealPresentation):
    """(AbelianType, map) with map taking a residue row to invariant coordinates."""
    diag, V = smith_normal_form(_relation_rows(Q), Q.width)
    keep = [(i, d) for i, d in enumerate(diag) if d > 1]
    typ = AbelianType(tuple(d for _, d in keep))

    def to_coords(row) -> tuple[int, ...]:
        return tuple(
            sum(row[i] * V[i][j] for i in range(len(row))) % d for j, d in keep
        )

    return typ, to_coords


class QuotientRing:
    """Residue table of Z_N[x]/Q with addition and x-multiplication."""

    def __init__(self, Q: IdealPresentation):
        self.ideal = Q
        self.modulus = Q.modulus
        self.context = Q.context_monic
        self.order = Q.quotient_size()
        if self.order > RESIDUE_BUDGET:
            raise TooLarge(f"quotient has {self.order} residues (budget {RESIDUE_BUDGET})")

    def residues(self) -> list[tuple[int, ...]]:
        return list(self.ideal.residues())

    def reduce_poly(self, f: Poly) -> tuple[int, ...]:
        return self.ideal.reduce_row(self.ideal.poly_to_row(f))

    def to_poly(self, row) -> Poly:
        return self.ideal.row_to_poly(row)

    def add(self, a, b) -> tuple[int, ...]:
        return self.ideal.reduce_row([x + y for x, y in zip(a, b)])

    def neg(self, a) -> tuple[int, ...]:
        return self.ideal.reduce_row([-x for x in a])

    def mul_x(self, a) -> tuple[int, ...]:
        return self.ideal.reduce_row(x_step(a, self.context, self.modulus.N))

    def mul(self, a, b) -> tuple[int, ...]:
        return self.reduce_poly(self.to_poly(a) * self.to_poly(b))

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.ideal.width

    def x_power_image(self, i: int) -> tuple[int, ...]:
        row = (0,) * (self.ideal.width - 1) + (1,)
        for _ in range(i):
            row = x_step(row, self.context, self.modulus.N)
        return self.ideal.reduce_row(row)


def enumerate_residues(Q: IdealPresentation) -> list[tuple[int, ...]]:
    """Every residue of Z_N[x]/Q exactly once, as canonical reduced rows."""
    return QuotientRing(Q).residues()


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
    """(elements, index-of, add rows) of the group, built once per invariants tuple.

    Elements come in itertools.product order, so index order is coordinate
    (lexicographic) order.  The rows are tuples because every caller shares them.
    Row a is row (a - e_k) followed by row e_k, for the last nonzero
    coordinate k of a; a - e_k sits stride_k places earlier, so it is built.
    """
    els = tuple(itertools.product(*[range(d) for d in invariants]))
    idx = {e: i for i, e in enumerate(els)}
    r = len(invariants)
    strides = [math.prod(invariants[k + 1 :]) for k in range(r)]
    basis_rows = []
    for k, (d, s) in enumerate(zip(invariants, strides)):
        # adding e_k steps coordinate k by one, wrapping d - 1 back to 0
        basis_rows.append(tuple(i + s if b[k] < d - 1 else i - (d - 1) * s for i, b in enumerate(els)))
    add_rows = [tuple(range(len(els)))]
    for i, a in enumerate(els[1:], 1):
        k = next(k for k in range(r - 1, -1, -1) if a[k])
        add_rows.append(tuple(map(basis_rows[k].__getitem__, add_rows[i - strides[k]])))
    return els, idx, tuple(add_rows)


class AbelianGroupTable:
    """Finite abelian group in invariant-factor coordinates.

    Index-based addition tables are built lazily, once per invariants tuple,
    so the closure, homomorphism and face-tracing loops run on small integers.
    """

    def __init__(self, invariants: tuple[int, ...]):
        if not all(d > 1 for d in invariants):
            raise ValueError(f"invariant factors must exceed 1, got {tuple(invariants)}")
        self.invariants = tuple(invariants)
        self.rank = len(self.invariants)

    @classmethod
    def from_spec(cls, spec) -> "AbelianGroupTable":
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

    def tables(self):
        """(elements, index-of, add rows), shared by every table of these invariants."""
        return _group_tables(self.invariants)

    @property
    def order(self) -> int:
        n = 1
        for d in self.invariants:
            n *= d
        return n

    @property
    def exponent(self) -> int:
        n = 1
        for d in self.invariants:
            n = n * d // math.gcd(n, d)
        return n

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
        _, idx, add_rows = self.tables()
        # the table is symmetric, so row g maps a to a + g
        steps = [add_rows[idx[tuple(g)]] for g in gens]
        return reachable(idx[self.zero()], steps, self.order) == self.order

    def __repr__(self):
        return " x ".join(f"Z_{d}" for d in self.invariants)

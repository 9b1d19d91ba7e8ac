"""Ideals of Z_N[x] containing a monic polynomial, in canonical echelon form.

An ideal containing the monic context polynomial f is a submodule of
Z_N^deg(f) (coefficient vectors of residues) closed under multiplication by
x.  Z_N is f's ring: every function here reads it from f.modulus, and none
takes it beside f.  Presentations store the Howell normal form of that
submodule: pivot entries are divisor-of-N scalars, pivot columns strictly
increase (columns ordered from the highest degree down), entries above
pivots are reduced, and the row span contains every annihilator multiple.
Equal ideals have identical rows, so uniqueness questions reduce to tuple
comparison.

The hot loops stay on integer rows.  ideal_of_rows closes generator rows
under x; canonical_form is its adapter for polynomial generators.  Two
families of ideals need neither: constant_ideal reads (d) off as d times the
identity, and box_ideal reads (p^j h, p^(j+1)), for a monic h dividing the
context mod p, off h's remainders mod p.  Its rows are certified under -O to
be shift-closed, to hold both generators and to have index p^(j*D + deg h).
Ideals of Z_{p^k}[x]/(x^n+1) are combined from CRT component ideals through
embedding rows: crt_split stores, per component, the ambient rows of
e_i*x^j, and combine_components maps each component Howell row through them
and takes one Howell form of at most n rows (a one-label split is the
identity, so its part is the ideal).  bounded_combinations walks the
choices of one component ideal per label and drops a prefix once its sizes
pass the bound.

crt_split runs on integer coefficient lists.  For n = p^r*n', the label
(d, l) owns the block base_factor^(p^r) mod p, and one Hensel lift of it
against x^n+1 gives the component's context g, its cofactor h and t with
t*h = 1 mod g; the idempotent is t*h, the unique polynomial of degree below
n that is 1 mod g and 0 mod h.  Three certificates hold under -O: the
contexts multiply to x^n+1, the idempotents sum to 1, and every embedding
row is its unit column on its own component and zero on the others.

Each CRT component is a local ring R with maximal ideal m = (p, g), residue
field F_q, q = p^deg g, and context g^e mod p; descent_level lists its ideals
of index q^L.  When m is principal, R is a chain ring (McDonald, Finite
Rings with Identity, 1974) whose ideals are m^L = (p^a g^b, p^(a+1)),
L = a*e + b, one per level.  m = (p) when e = 1 (p does not divide n) and
m = (g) when k = 1 or p = 2: each 2-adic component divides one cyclotomic
polynomial, so Z_2[x]/(context) is a DVR, and one Howell form certifies
(g) = (g, 2) under -O.  The families, closed_form_ideals and the lattice
oracle all read these levels.  Odd p with k >= 2 and p | n is not
principal, and there level L+1 is the union of the maximal subideals of
level L, the hyperplanes of the F_q-space I/m*I: radical_multiple forms m*I
on Howell rows, I's Howell rows give an F_q-basis of I/m*I, and each
hyperplane is m*I plus t-1 rows read off that basis (t = dim I/m*I).
Certified under -O: the context is a power of g mod p, |I/m*I| is a power
q^t, and I has exactly (q^t-1)/(q-1) children, each of index q in I.

Bounded caches keep, per process, each component's certified shape, each
level, keyed by (context, g, L), and each combined ideal, keyed by (p, k, n)
and its component rows: a sweep asks for them again and again.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .errors import ComponentNotAdmissible, DuplicatePrime, InvariantViolation, TooLarge, require
from .factorlift import (
    FactorLabel,
    _lift_coprime_block,
    base_factor,
    frobenius_power,
    lambda_index,
    split_p_part,
)
from .poly import Poly, coeffs_add, coeffs_divmod, coeffs_mul, coeffs_powmod, poly_mod
from .zring import Frozen, Modulus, divisors, inverse_mod

ENUM_BUDGET = 1 << 16
COMBINE_CACHE_SIZE = 4096  # combined ideals kept per process
LEVEL_CACHE_SIZE = 512  # descent levels kept per process, one per (context, g, j)


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _normalizing_unit(g: int, N: int) -> tuple[int, int]:
    """(u, d) with u a unit mod N and u*g = d = gcd(g, N) mod N."""
    d = math.gcd(g, N)
    if d == N:
        return 1, 0
    w = (g // d) % (N // d)
    u = inverse_mod(w, N // d)
    while math.gcd(u, N) != 1:
        u += N // d
    return u % N, d


def _leading(row: list[int]) -> int:
    for i, v in enumerate(row):
        if v:
            return i
    return -1


def howell_form(rows, N: int, width: int) -> tuple[tuple[int, ...], ...]:
    """Howell normal form of the span of the given rows over Z_N.

    Rows wait in buckets by leading column, found once as each row enters.
    Every row made while clearing a column leads past it, so each bucket is
    complete when its column comes up.  A bucket holds row tails from its
    column on: the entries before it are zero.
    """
    buckets: list[list[list[int]]] = [[] for _ in range(width)]

    def push(tail: list[int], col: int) -> None:
        for i, v in enumerate(tail):
            if v:
                buckets[col + i].append(tail[i:] if i else tail)
                return

    for r in rows:
        push([v % N for v in r], 0)
    basis: list[tuple[int, list[int]]] = []
    for col in range(width):
        cur = buckets[col]
        if not cur:
            continue
        r = cur[0]
        for s in cur[1:]:
            a, b = r[0], s[0]
            if b % a == 0:
                q = b // a
                for j, x in enumerate(r):
                    s[j] = (s[j] - q * x) % N
                push(s, col)
                continue
            g, u, v = _ext_gcd(a, b)
            # unimodular pair transform: pivot gcd up, eliminated row down
            push([((b // g) * x - (a // g) * y) % N for x, y in zip(r, s)], col)
            r = [(u * x + v * y) % N for x, y in zip(r, s)]
        u, d = _normalizing_unit(r[0], N)
        if d == 0:
            continue
        if u != 1:
            for j, x in enumerate(r):
                r[j] = (u * x) % N
        basis.append((col, r))
        if d != 1:
            push([((N // d) * x) % N for x in r], col)
    # reduce entries above each pivot
    for i, (col, r) in enumerate(basis):
        d = r[0]
        for cj, t in basis[:i]:
            off = col - cj
            q = t[off] // d
            if q:
                for j, y in enumerate(r, off):
                    t[j] = (t[j] - q * y) % N
    return tuple((0,) * col + tuple(t) for col, t in basis)


def x_step(row, context_monic: Poly) -> tuple[int, ...]:
    """x * row mod the monic context, on a coefficient row (highest degree first).

    The row shifts one column down; the top coefficient t leaves as t*x^D,
    which the context turns into -t times its lower coefficients.
    """
    N = context_monic.modulus.N
    top = row[0]
    lower = context_monic.coeffs[-2::-1]
    return tuple((a - top * c) % N for a, c in zip((*row[1:], 0), lower))


def x_powers(row, context_monic: Poly, count: int) -> list:
    """row, x*row, ..., x^(count-1)*row mod the monic context, from one x_step walk."""
    powers = [row] if count > 0 else []
    while len(powers) < count:
        powers.append(x_step(powers[-1], context_monic))
    return powers


class IdealPresentation(Frozen):
    """Canonical presentation of an ideal of Z_N[x] containing context_monic; Z_N is its ring."""

    __slots__ = ("modulus", "context_monic", "rows", "_pivots")

    def __init__(self, context_monic: Poly, rows: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "modulus", context_monic.modulus)
        object.__setattr__(self, "context_monic", context_monic)
        object.__setattr__(self, "rows", rows)
        # built once, in column order: every reduction against this ideal reads it
        leads = sorted((_leading(r), r) for r in rows)
        object.__setattr__(self, "_pivots", {c: (r[c], r[c:]) for c, r in leads})

    @property
    def width(self) -> int:
        return self.context_monic.degree

    def _key(self) -> tuple:
        return (self.modulus.N, self.context_monic.coeffs, self.rows)

    def poly_to_row(self, f: Poly) -> tuple[int, ...]:
        f = poly_mod(f, self.context_monic)
        D = self.width
        return tuple(f[D - 1 - j] for j in range(D))

    def row_to_poly(self, row) -> Poly:
        D = self.width
        return Poly([row[D - 1 - j] for j in range(D)], self.modulus)

    def row_polys(self) -> list[Poly]:
        return [self.row_to_poly(r) for r in self.rows]

    def pivots(self) -> dict[int, tuple[int, tuple[int, ...]]]:
        """column -> (pivot scalar, the pivot row's entries from that column on)."""
        return self._pivots

    def reduce_row(self, vec) -> tuple[int, ...]:
        """Canonical coset representative of a coefficient vector."""
        N = self.modulus.N
        v = [x % N for x in vec]
        for c, (d, tail) in self._pivots.items():
            if v[c]:
                q = v[c] // d
                if q:
                    # in place, from the pivot column on: the row is zero before it
                    for j, y in enumerate(tail, c):
                        v[j] = (v[j] - q * y) % N
        return tuple(v)

    def contains_row(self, vec) -> bool:
        return not any(self.reduce_row(vec))

    def contains(self, f: Poly) -> bool:
        """Membership of a polynomial (reduced against the context first)."""
        return self.contains_row(self.poly_to_row(f))

    def residue_bounds(self) -> list[int]:
        """Per column, the range of canonical coset digits: pivot scalar or N."""
        piv = self._pivots
        return [piv[c][0] if c in piv else self.modulus.N for c in range(self.width)]

    def residues(self):
        """Canonical representatives of the quotient by this ideal."""
        return itertools.product(*[range(b) for b in self.residue_bounds()])

    def quotient_size(self) -> int:
        return math.prod(self.residue_bounds())

    def constant_divisor(self) -> int:
        """d such that the constants contained in the ideal are exactly (d)."""
        return self.residue_bounds()[-1]

    def __repr__(self):
        gens = ", ".join(str(p) for p in self.row_polys()) or "0"
        return f"<({gens}) + ({self.context_monic}) over {self.modulus}>"


def ideal_of_rows(
    gen_rows,
    context_monic: Poly,
    base_rows: tuple[tuple[int, ...], ...] = (),
    shifts: int | None = None,
) -> IdealPresentation:
    """Smallest shift-closed row space containing the rows (and base_rows).

    Each generator row is a coefficient row already reduced mod the context,
    highest degree first.  The span of x^j*g mod f for 0 <= j < deg f is
    already closed under x, because x*(x^(D-1) g) reduces to a combination of
    lower shifts.  A caller whose base ideal holds h*g for a monic h of
    degree s and every generator g passes shifts=s: x^s*g is then a
    combination of lower shifts modulo the base.
    """
    D = context_monic.degree
    rows = list(base_rows)
    for row in gen_rows:
        rows += x_powers(row, context_monic, D if shifts is None else shifts)
    pres = IdealPresentation(context_monic, howell_form(rows, context_monic.modulus.N, D))
    _assert_shift_closed(pres)
    return pres


def canonical_form(generators, context_monic: Poly) -> IdealPresentation:
    """ideal_of_rows on polynomial generators, each reduced mod the context."""
    if not context_monic.is_monic() or context_monic.degree < 1:
        raise ValueError("context must be monic of degree >= 1")
    D = context_monic.degree
    gen_rows = []
    for g in generators:
        g = poly_mod(g.reduce_mod(context_monic.modulus), context_monic)
        gen_rows.append(tuple(g[D - 1 - i] for i in range(D)))
    return ideal_of_rows(gen_rows, context_monic)


def shift_closed(pres: IdealPresentation) -> bool:
    """Is the row space closed under x, so an ideal?"""
    return all(pres.contains_row(x_step(r, pres.context_monic)) for r in pres.rows)


def _assert_shift_closed(pres: IdealPresentation) -> None:
    if not shift_closed(pres):
        raise InvariantViolation("presentation not closed under x")


def zero_ideal(context_monic: Poly) -> IdealPresentation:
    return canonical_form([], context_monic)


def constant_ideal(d: int, context_monic: Poly) -> IdealPresentation:
    """The ideal (d) for a divisor d of N, read off without a Howell reduction.

    Its Howell form is d times the identity: d is a divisor pivot, nothing
    sits above it, and the annihilator multiple (N/d)*d is zero.  d = N gives
    the zero ideal.
    """
    N = context_monic.modulus.N
    if N % d:
        raise ValueError(f"{d} does not divide {N}")
    D = context_monic.degree
    rows = tuple(tuple(d if c == r else 0 for c in range(D)) for r in range(D)) if d < N else ()
    return IdealPresentation(context_monic, rows)


def _box_rows(context_monic: Poly, h, j: int) -> tuple[tuple[int, ...], ...]:
    """Howell rows of p^j times the preimage of (h mod p), read off in closed form.

    Over F_p, (h) has the basis x^m + ((-x^m) mod h) for deg h <= m < D, each
    remainder a vector of the columns below deg h; the preimage adds p*e_c
    for those columns.  Times p^j, the leads are divisors of N, the entries
    above the p^(j+1) pivots are below them, and every annihilator multiple
    is zero, so these rows are already the Howell form.
    """
    mod = context_monic.modulus
    p, N, D = mod.p, mod.N, context_monic.degree
    s = len(h) - 1
    scale = p**j
    low = [c % p for c in h[:-1]]
    neg = low  # -x^m mod h, from m = s: -x^s = h's lower terms
    rows = []
    for m in range(s, D):
        row = [0] * D
        row[D - 1 - m] = scale
        row[D - s :] = [scale * v for v in reversed(neg)]
        rows.append(tuple(row))
        top = neg[-1] if neg else 0
        neg = [(a - top * b) % p for a, b in zip([0] + neg[:-1], low)]
    rows.reverse()
    if scale * p < N:
        rows += [tuple(scale * p if i == D - 1 - c else 0 for i in range(D)) for c in reversed(range(s))]
    return tuple(rows)


def box_ideal(context_monic: Poly, h, j: int) -> IdealPresentation:
    """The ideal (p^j h, p^(j+1)) of Z_{p^k}[x]/(context), without a Howell reduction.

    h: the ascending integer coefficients of a monic polynomial whose
    reduction mod p divides the context mod p; 0 <= j < k, with p and k read
    from the context.  As a set the ideal is p^j times the preimage of
    (h mod p), so its rows come in closed form (_box_rows).  Certified under
    -O: the rows are shift-closed, they hold p^j*h mod the context and
    p^(j+1), the index is p^(j*D + deg h), and every non-unit pivot row's
    annihilator multiple reduces to zero.
    """
    mod = context_monic.modulus
    p, k, N, D = mod.p, mod.k, mod.N, context_monic.degree
    if not 0 <= j < k:
        raise ValueError(f"j = {j} is not in 0..{k - 1}")
    if not h or h[-1] != 1:
        raise ValueError(f"h = {list(h)} is not monic")
    if coeffs_divmod(context_monic.coeffs, h, p)[1]:
        raise ValueError(f"h = {list(h)} does not divide the context {context_monic} mod {p}")
    pres = IdealPresentation(context_monic, _box_rows(context_monic, h, j))
    _assert_shift_closed(pres)
    gen = coeffs_divmod([p**j * c for c in h], context_monic.coeffs, N)[1]
    gen_row = (0,) * (D - len(gen)) + tuple(reversed(gen))
    top = (0,) * (D - 1) + (p ** (j + 1) % N,)
    require(pres.contains_row(gen_row) and pres.contains_row(top), "box rows miss a generator")
    require(pres.quotient_size() == p ** (j * D + len(h) - 1), "box ideal has the wrong index")
    for c, (d, tail) in pres.pivots().items():
        multiple = [0] * c + [(N // d) * v % N for v in tail]
        require(not any(multiple) or pres.contains_row(multiple), "box rows miss an annihilator multiple")
    return pres


class Admissibility(Frozen):
    __slots__ = ("ok", "clause", "detail")

    def __init__(self, ok: bool, clause: str | None = None, detail: str | None = None):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "clause", clause)
        object.__setattr__(self, "detail", detail)

    def _key(self) -> tuple:
        return (self.ok, self.clause, self.detail)

    def __bool__(self) -> bool:
        return self.ok


def _x_power_plus_one_rows(Q: IdealPresentation, n: int) -> list[list[int]]:
    """Rows of x^m + 1 mod Q's context for 0 <= m <= n, from one x-power walk."""
    one = (0,) * (Q.width - 1) + (1,)
    powers = x_powers(one, Q.context_monic, n + 1)
    return [[a + b for a, b in zip(row, one)] for row in powers]


def is_admissible(Q: IdealPresentation, n: int, map_type: str = "I") -> Admissibility:
    """Defining clauses of an admissible ideal, each checked by direct membership.

    Over Z_N = Q.modulus: (i) x^n + 1 lies in the ideal; (ii) no x^m + 1
    with 1 <= m < n does; (iii) no nonzero constant does.  Type I checks
    them in the order (i), (iii), (ii), and accepts n = 1 (clause (ii) is
    then vacuous) because cross-prime components may carry valence 2.  Type
    II (involution generators) lives over Z_2, checks (i), (ii), (iii), and
    runs clause (ii) over the proper divisors m of n only.  The first clause
    that fails is reported.
    """
    N = Q.modulus.N
    if map_type == "I":
        smaller = range(1, n)
    elif map_type == "II":
        if N != 2:
            raise ValueError("type II presentations live over Z_2")
        smaller = [m for m in divisors(n) if m < n]
    else:
        raise ValueError(f"unknown map type {map_type!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    plus_one = _x_power_plus_one_rows(Q, n)
    if not Q.contains_row(plus_one[n]):
        return Admissibility(False, "i", f"x^{n}+1 not in ideal")
    d = Q.constant_divisor()
    if map_type == "I" and d != N:
        return Admissibility(False, "iii", f"constant {d} in ideal")
    for m in smaller:
        if Q.contains_row(plus_one[m]):
            return Admissibility(False, "ii", f"x^{m}+1 in ideal")
    if d != N:
        return Admissibility(False, "iii", f"constant {d} in ideal")
    return Admissibility(True)


class CrtSplit(Frozen):
    """Ring decomposition of Z_{p^k}[x]/(x^n+1) into label components.

    embeddings[i][c] is the ambient row of e_i*x^(D_i-1-c) mod x^n+1, for
    the idempotent e_i and each column c of component i (D_i = deg ctx_i):
    a component row r maps to the ambient row of e_i*r as sum_c r[c]*emb[c].
    """

    __slots__ = ("p", "k", "n", "labels", "contexts", "idempotents", "ambient", "embeddings")

    def __init__(
        self,
        p: int,
        k: int,
        n: int,
        labels: tuple[tuple[int, int], ...],
        contexts: tuple[Poly, ...],
        idempotents: tuple[Poly, ...],
        ambient: Poly,
        embeddings: tuple[tuple[tuple[int, ...], ...], ...],
    ):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "contexts", contexts)
        object.__setattr__(self, "idempotents", idempotents)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "embeddings", embeddings)

    def _key(self) -> tuple:
        return (
            self.p, self.k, self.n, self.labels, self.contexts, self.idempotents, self.ambient,
            self.embeddings,
        )


@lru_cache(maxsize=None)
def crt_split(p: int, k: int, n: int) -> CrtSplit:
    """Component contexts and element maps for Z_{p^k}[x]/(x^n+1).

    With n = p^r*n', x^n + 1 is (x^n' + 1)^(p^r) mod p, so the label (d, l)
    owns the block base_factor^(p^r) mod p.  One Hensel lift of that block
    against x^n + 1 gives the context g, its cofactor h and t with
    t*h = 1 mod g; the idempotent is t*h, of degree below n, since it is 1
    mod g and 0 mod h.  All of it runs on coefficient lists.
    """
    mod = Modulus(p, k)
    N = mod.N
    r, n_prime = split_p_part(n, p)
    target = [1] + [0] * (n - 1) + [1]
    labels, contexts, idems, embeddings = [], [], [], []
    ambient = Poly(target, mod)
    for lab in lambda_index(p, n_prime):
        block = frobenius_power(base_factor(p, lab.d, lab.l).coeffs, p**r)
        g, h, t = _lift_coprime_block(block, target, p, k)
        e = coeffs_mul(t, h, N)
        labels.append((lab.d, lab.l))
        contexts.append(g)
        idems.append(e)
        row = (0,) * (n - len(e)) + tuple(reversed(e))
        embeddings.append(tuple(reversed(x_powers(row, ambient, len(g) - 1))))
    prod = [1]
    for g in contexts:
        prod = coeffs_mul(prod, g, N)
    require(prod == target, "contexts do not multiply to x^n+1")
    split = CrtSplit(
        p, k, n, tuple(labels), tuple(Poly(g, mod) for g in contexts),
        tuple(Poly(e, mod) for e in idems), ambient, tuple(embeddings),
    )
    _certify_embeddings(split)
    total = []
    for e in idems:
        total = coeffs_add(total, e, N)
    require(total == [1], "idempotents do not sum to 1")
    return split


def _certify_embeddings(split: CrtSplit) -> None:
    """Each embedding row is its unit column on its own component and 0 on the others.

    Row D_i-1 of component i is e_i itself, so this also certifies that the
    idempotents are orthogonal and 1 on their own components.
    """
    N = split.ambient.modulus.N
    for i, emb in enumerate(split.embeddings):
        require(len(emb) == split.contexts[i].degree, f"component {i}: wrong embedding row count")
        for c, row in enumerate(emb):
            f = row[::-1]
            for j, ctx in enumerate(split.contexts):
                D = ctx.degree
                want = [0] * (D - c - 1) + [1] if i == j else []
                require(
                    coeffs_divmod(f, ctx.coeffs, N)[1] == want,
                    f"embedding row {c} of component {i} is wrong on component {j}",
                )


def combine_components(split: CrtSplit, parts) -> IdealPresentation:
    """Ideal of Z_{p^k}[x]/(x^n+1) whose component ideals are the given parts.

    parts: one canonical ideal per label of split, in its component context.
    Each row r of part i goes to the ambient row of e_i*r through the
    embedding rows.  Those images span e_i*Q_i, which is already closed under
    x, and e_i*ctx_i is 0 mod x^n+1; so one Howell form over at most n rows
    gives the ideal; a one-label split is the identity (crt_split certifies it).
    """
    if [q.context_monic for q in parts] != list(split.contexts):
        raise ValueError("parts must be ideals in the split's component contexts, in order")
    if len(parts) == 1:
        return parts[0]
    ambient = split.ambient
    n = split.n
    rows = []
    for emb, q in zip(split.embeddings, parts):
        for r in q.rows:
            acc = [0] * n
            for coef, erow in zip(r, emb):
                if coef:
                    acc = [a + coef * x for a, x in zip(acc, erow)]
            rows.append(acc)
    pres = IdealPresentation(ambient, howell_form(rows, ambient.modulus.N, n))
    _assert_shift_closed(pres)
    require(
        pres.quotient_size() == math.prod(q.quotient_size() for q in parts),
        "combined quotient size is not the product of the component sizes",
    )
    return pres


def bounded_combinations(options, bound=None):
    """(tags, component rows, size) for each choice of one option per component.

    options: per CRT label, a list of (tag, ideal) whose ideals are distinct.
    By CRT, the quotient size of a choice is the product of its component
    sizes, and distinct choices give distinct ideals.  Choices come in
    itertools.product order, and only those of size <= bound (None: no
    bound); every size is at least 1, so a prefix past the bound is dropped
    with all its extensions.  Combine a choice with _combined.
    """
    walk = [((), (), 1)]
    for i, opts in enumerate(options):
        level = [(tag, q.rows, q.quotient_size()) for tag, q in opts]
        require(len({rows for _, rows, _ in level}) == len(level), f"component {i} repeats an option")
        walk = [
            (tags + (tag,), rows + (r,), size * s)
            for tags, rows, size in walk
            for tag, r, s in level
            if bound is None or size * s <= bound
        ]
    return walk


@lru_cache(maxsize=COMBINE_CACHE_SIZE)
def _combined(p: int, k: int, n: int, rows: tuple) -> IdealPresentation:
    """combine_components of the component ideals with these Howell rows.

    Keyed by (p, k, n) and the rows, not by the CrtSplit: hashing a split
    hashes every embedding row.  The rows are canonical in crt_split(p, k,
    n)'s contexts, so they rebuild the parts exactly.
    """
    split = crt_split(p, k, n)
    parts = [IdealPresentation(ctx, r) for ctx, r in zip(split.contexts, rows)]
    return combine_components(split, parts)


# ---------------------------------------------------------------------------
# exhaustive enumeration of shift-closed submodules


def enumerate_ideals_between(
    context: Poly,
    base: IdealPresentation | None = None,
) -> list[IdealPresentation]:
    """All ideals of Z_N[x]/(context) containing the base ideal, sorted by rows.

    Exhaustive over shift-closed row spans: computes the principal closure of
    every residue (modulo unit scaling and x-shifts), then closes the set
    under pairwise sums.

    Unit scaling runs over the units mod c = base.constant_divisor(), not
    mod N.  The constant c lies in the base, so u*v and (u + c)*v agree mod
    the base, and every unit class mod c holds a unit mod N (CRT): the
    marked orbits are the same.  In the sum closure, J + P = J when P's
    generator lies in J (both contain the base), so that pair costs one
    reduction and no Howell form.
    """
    if base is None:
        base = zero_ideal(context)
    size = base.quotient_size()
    if size > ENUM_BUDGET:
        raise TooLarge(f"quotient has {size} elements (budget {ENUM_BUDGET})")
    N = context.modulus.N
    D = context.degree
    c = base.constant_divisor()
    units = [u for u in range(1, c) if math.gcd(u, c) == 1]
    # x-shifts preserve principal ideals only when x is a unit mod context
    x_invertible = math.gcd(context[0], N) == 1
    seen: set[tuple[int, ...]] = set()
    # rows -> (a generator mod the base, the principal closure)
    principals: dict[tuple, tuple[tuple[int, ...], IdealPresentation]] = {}
    for combo in base.residues():
        if combo in seen or not any(combo):
            continue
        pres = ideal_of_rows([combo], context, base.rows)
        principals.setdefault(pres.rows, (combo, pres))
        # unit multiples (and x-shifts, when allowed) generate the same ideal
        cur = combo
        for _ in range(4 * D):
            for u in units:
                seen.add(base.reduce_row([u * v for v in cur]))
            if not x_invertible:
                break
            cur = x_step(cur, context)
            if base.reduce_row(cur) == combo:
                break
    found: dict[tuple, IdealPresentation] = {base.rows: base}
    for _, pres in principals.values():
        found.setdefault(pres.rows, pres)
    frontier = list(found.values())
    plist = list(principals.values())
    while frontier:
        cur = frontier.pop()
        for gen, pr in plist:
            if cur.contains_row(gen):
                continue
            rows = howell_form(list(cur.rows) + list(pr.rows), N, D)
            if rows not in found:
                pres = IdealPresentation(context, rows)
                found[rows] = pres
                frontier.append(pres)
    return sorted(found.values(), key=lambda q: q.rows)


def _times(row, coeffs, context: Poly) -> list[int]:
    """h*row mod the context for h = sum_j coeffs[j]*x^j, from one x-power walk."""
    shifts = x_powers(row, context, len(coeffs))
    return [sum(c * v for c, v in zip(coeffs, col)) for col in zip(*shifts)]


def radical_multiple(ideal: IdealPresentation, radical_gen: Poly) -> IdealPresentation:
    """m*I for m = (p, g), g = radical_gen, from the rows p*r and g*r = sum_j g_j*x^j*r.

    I's Howell rows r span I over Z_N, so these rows span p*I + g*I = m*I,
    which is closed under x because x*(g*a) = g*(x*a).
    """
    context = ideal.context_monic
    p = context.modulus.p
    rows = []
    for r in ideal.rows:
        rows.append([p * v for v in r])
        rows.append(_times(r, radical_gen.coeffs, context))
    pres = IdealPresentation(context, howell_form(rows, context.modulus.N, ideal.width))
    _assert_shift_closed(pres)
    return pres


def radical_floor(context: Poly, quotient_bound: int, radical_gen: Poly) -> IdealPresentation:
    """Power of the maximal ideal below every ideal of bounded index.

    In the local quotient with maximal ideal m = (p, g) and residue field of
    size p^o, o = deg g, an ideal of index <= quotient_bound contains m^s for
    s = floor(log_{p^o} bound): each radical layer of the quotient has at
    least p^o elements.  m^s is s radical_multiple steps from the whole ring.
    No production path calls it since the descent replaced enumeration above
    the floor; the tests' reference path does, and perfbench/tracer.py wraps
    it by name.
    """
    q = context.modulus.p ** radical_gen.degree
    powers = [constant_ideal(1, context)]
    while q ** len(powers) <= quotient_bound:
        powers.append(radical_multiple(powers[-1], radical_gen))
    m = powers[min(1, len(powers) - 1)]
    require(all(m.contains_row(r) for r in powers[-1].rows), "radical power escapes m")
    return powers[-1]


@lru_cache(maxsize=LEVEL_CACHE_SIZE)
def _certify_local(context: Poly, radical_gen: Poly) -> int:
    """The e with context = g^e mod p (g = radical_gen) if m = (p, g) is principal, else 0.

    Certified on rows: context = g^e mod p and, for p = 2 with e, k > 1, (g) = (g, 2)."""
    mod, D, f = context.modulus, context.degree, radical_gen.degree
    row = (0,) * (D - 1) + (1,)
    for _ in range(D // f):
        row = _times(row, radical_gen.coeffs, context)
    if D % f or any(v % mod.p for v in row):
        raise InvariantViolation(f"context {context} is not a power of {radical_gen} mod p")
    e = D // f
    if mod.p == 2 and min(e, mod.k) > 1:
        g_row = (0,) * (D - f - 1) + radical_gen.coeffs[::-1]
        box = box_ideal(context, radical_gen.coeffs, 0)
        require(ideal_of_rows([g_row], context).rows == box.rows, "the maximal ideal (2, g) is not (g)")
    return e if e == 1 or mod.k == 1 or mod.p == 2 else 0


def maximal_subideals(ideal: IdealPresentation, radical_gen: Poly) -> list[IdealPresentation]:
    """The maximal subideals of an ideal I of a local quotient with maximal ideal m = (p, g).

    They are the hyperplanes of V = I/m*I over the residue field F_q,
    q = p^f, f = deg g, on which Z_N[x] acts through F_q = F_p[x]/(g).  I's
    Howell rows span V, so adding them greedily to m*I gives an F_q-basis
    v_0..v_(t-1).  The hyperplane with normal (0, .., 0, 1, c_(i+1), ..,
    c_(t-1)) is spanned by v_j for j < i and v_j - c_j*v_i for j > i, each
    c_j = sum_l c_jl*x^l with c_jl in F_p and l < f: one per point of
    P^(t-1)(F_q).  When t = 1 the only child is m*I.  Every span here
    contains m*I, so g*v lies in it for each generator v, and f shifts of v
    suffice.
    """
    context = ideal.context_monic
    p, f = context.modulus.p, radical_gen.degree
    q = p**f
    mi = radical_multiple(ideal, radical_gen)
    size = mi.quotient_size() // ideal.quotient_size()
    if size > ENUM_BUDGET:
        raise TooLarge(f"I/mI has {size} elements (budget {ENUM_BUDGET})")
    t = 0
    while q**t < size:
        t += 1
    require(q**t == size, f"|I/mI| = {size} is not a power of the residue field size {q}")
    children = {mi.rows: mi} if t == 1 else {}
    if t > 1:
        basis = []
        span = mi
        for r in ideal.rows:
            if not span.contains_row(r):
                basis.append(r)
                span = ideal_of_rows([r], context, span.rows, shifts=f)
        require(len(basis) == t, "I's rows do not give a basis of I/mI")
        N = context.modulus.N
        scalars = list(itertools.product(range(p), repeat=f))
        for i in range(t):
            multiples = [_times(basis[i], cs, context) for cs in scalars]
            for normal in itertools.product(multiples, repeat=t - 1 - i):
                gens = basis[:i] + [
                    [(a - b) % N for a, b in zip(v, cv)] for v, cv in zip(basis[i + 1 :], normal)
                ]
                child = ideal_of_rows(gens, context, mi.rows, shifts=f)
                children.setdefault(child.rows, child)
    index = ideal.quotient_size() * q
    require(
        len(children) == (size - 1) // (q - 1)
        and all(c.quotient_size() == index for c in children.values()),
        f"I has {len(children)} children, not one of index {index} per hyperplane of I/mI",
    )
    return list(children.values())


@lru_cache(maxsize=LEVEL_CACHE_SIZE)
def descent_level(context: Poly, radical_gen: Poly, j: int) -> tuple[IdealPresentation, ...]:
    """The ideals of index q^j of the local quotient, q = p^deg(radical_gen), sorted by rows.

    Level 0 is the whole ring, after the locality certificate.  On a chain
    ring level j = a*e + b is (p^a g^b, p^(a+1)), empty past k*e; box_ideal
    certifies its index q^j, and there is one ideal per index.  Otherwise
    level j is the union of the maximal subideals of level j-1.
    """
    e = _certify_local(context, radical_gen)
    if e or j == 0:  # the whole ring, or a chain level
        p, k = context.modulus.p, context.modulus.k
        a, b = divmod(j, max(e, 1))
        if j > k * e:
            return ()
        if not b:
            return (constant_ideal(p**a, context),)
        return (box_ideal(context, coeffs_powmod(radical_gen.coeffs, b, context.coeffs, p), a),)
    found: dict[tuple, IdealPresentation] = {}
    for ideal in descent_level(context, radical_gen, j - 1):
        for child in maximal_subideals(ideal, radical_gen):
            found.setdefault(child.rows, child)
    return tuple(sorted(found.values(), key=lambda x: x.rows))


def bounded_ideals_local_tree(
    context: Poly,
    bound: int,
    radical_gen: Poly,
) -> list[IdealPresentation]:
    """Ideals of index <= bound in a local quotient, sorted by rows.

    The local ring's ideals have index q^j, q = p^deg(radical_gen), so these
    are descent levels 0..s for the largest s with q^s <= bound, up to the
    first empty one.
    """
    q = context.modulus.p ** radical_gen.degree
    out, j = [], 0
    while q**j <= bound and (level := descent_level(context, radical_gen, j)):
        out += level
        j += 1
    return sorted(out, key=lambda x: x.rows)


def chain_levels(context: Poly, radical_gen: Poly) -> list[IdealPresentation]:
    """Every ideal m^0, ..., m^(k*e) = 0 of a chain-ring component, by level."""
    e = _certify_local(context, radical_gen)
    require(e > 0, "the component is not a chain ring")
    return [descent_level(context, radical_gen, j)[0] for j in range(context.modulus.k * e + 1)]


def component_radicals(p: int, k: int, n: int) -> list[tuple[Poly, Poly]]:
    """Per label of crt_split(p, k, n): its context and its radical generator."""
    split, mod = crt_split(p, k, n), Modulus(p, k)
    return [(c, base_factor(p, d, ell).reduce_mod(mod)) for (d, ell), c in zip(split.labels, split.contexts)]


def closed_form_ideals(factor_poly: Poly, label: FactorLabel) -> list[IdealPresentation] | None:
    """The ideal lattice above a lifted factor over Z_{p^k}, sorted by rows, or None.

    Z_{p^k}[x]/(f) is local with m = (p, q) for the base factor q; where m
    is principal (level 0, k = 1 or p = 2) its ideals are the chain_levels
    (p^u q^v, p^(u+1)).  Odd p at level >= 1 with k >= 2 gets None.
    """
    g = base_factor(factor_poly.modulus.p, label.d, label.l).reduce_mod(factor_poly.modulus)
    if not _certify_local(factor_poly, g):
        return None
    return sorted(chain_levels(factor_poly, g), key=lambda q: q.rows)


def enumerate_ideals_containing(f: Poly, label: FactorLabel | None = None) -> list[IdealPresentation]:
    """All ideals of Z_{p^k}[x] containing the monic f, canonical and sorted.

    A label unlocks the closed-form lattice where one applies; otherwise the
    enumeration is exhaustive within the element budget.  The tests compare
    the two wherever both are available.
    """
    closed = closed_form_ideals(f, label) if label is not None else None
    if closed is not None:
        return closed
    size = f.modulus.N ** f.degree
    if size > ENUM_BUDGET:
        raise TooLarge(f"quotient has {size} elements and no closed form applies")
    return enumerate_ideals_between(f)


# ---------------------------------------------------------------------------
# cross-prime composition


def compose_across_primes(components) -> tuple[int, int, IdealPresentation]:
    """Intersection of per-prime preimages: one ideal over the composite modulus.

    components: iterable of (Q_p, n_p), each Q_p over Z_{p^k_p}, read from its
    context.  Verifies x^n+1 membership for n = lcm of the n_p and that
    projecting back recovers each Q_p.
    """
    comps = list(components)
    if not comps:
        raise ValueError("no components")
    for i, (Q_p, _) in enumerate(comps):
        if not Q_p.modulus.is_prime_power:
            raise ValueError(f"component {i} is over {Q_p.modulus}, not a prime power")
    primes = [Q_p.modulus.p for Q_p, _ in comps]
    if len(set(primes)) != len(primes):
        raise DuplicatePrime(f"primes {primes}")
    n = 1
    for _, n_p in comps:
        n = n * n_p // math.gcd(n, n_p)
    N = 1
    for Q_p, n_p in comps:
        adm = is_admissible(Q_p, n_p)
        if not adm:
            raise ComponentNotAdmissible(
                f"component p={Q_p.modulus.p}: clause {adm.clause} ({adm.detail})"
            )
        N *= Q_p.modulus.N
    for Q_p, n_p in comps:
        if not Q_p.contains(Poly.x_pow_plus_const(n, 1, Q_p.modulus)):
            raise ComponentNotAdmissible(
                f"component p={Q_p.modulus.p}: x^{n}+1 escapes the ideal"
                f" (valences {n_p} vs lcm {n})"
            )
    if len(comps) == 1:
        Q_p, n_p = comps[0]
        return Q_p.modulus.N, n_p, Q_p
    modN = Modulus.composite(N)
    context = Poly.x_pow_plus_const(n, 1, modN)
    gens = []
    for Q_p, _ in comps:
        m = Q_p.modulus.N
        rest = N // m
        e_p = (rest * inverse_mod(rest, m)) % N
        for g in list(Q_p.row_polys()) + [Q_p.context_monic]:
            gens.append(Poly([e_p * c for c in g.coeffs], modN))
    Q = canonical_form(gens, context)
    for Q_p, n_p in comps:
        mod_p = Q_p.modulus
        ctx_p = Poly.x_pow_plus_const(n_p, 1, mod_p)
        proj = canonical_form(
            [g.reduce_mod(mod_p) for g in Q.row_polys()] + [Poly.x_pow_plus_const(n, 1, mod_p)],
            ctx_p,
        )
        expected = canonical_form(list(Q_p.row_polys()) + [Q_p.context_monic], ctx_p)
        if proj.rows != expected.rows:
            raise ComponentNotAdmissible(
                f"projection to p={mod_p.p} does not recover the component"
            )
    return N, n, Q

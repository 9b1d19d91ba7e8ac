"""Cayley map records, validity checks, face tracing, and the brute-force oracle.

Records store the rotation as an explicit cycle of group elements in
invariant-factor coordinates, so maps built from ideals and maps found by the
oracle live in one representation.  When the automorphism search space is
small, the oracle walks every automorphism, as a permutation of element
indices, from one seed per Aut(G)-orbit and keys each class by its minimal
image under Aut(G).  Aut(G) is listed as the closure of the elementary
automorphisms (unit scalings and transvections), certified complete by the
closed-form |Aut(G)|.  Otherwise the oracle falls back to exhaustive
shift-closed relation-lattice enumeration (realized and validated
definitionally, deduplicated by explicit isomorphism search).
"""

from __future__ import annotations

import itertools
import math
import os
from array import array
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    DegenerateOmega,
    InvariantViolation,
    NotAdmissible,
    TooLarge,
    TypeMismatch,
    require,
)
from .factorlift import base_factor
from .ideals import (
    ENUM_BUDGET,
    IdealPresentation,
    bounded_combinations,
    bounded_ideals_local_tree,
    crt_split,
    enumerate_ideals_between,
    is_admissible,
    is_admissible_type2,
    radical_floor,
)
from .structure import (
    AbelianGroupTable,
    QuotientRing,
    quotient_isomorphism,
    reachable,
)
from .zring import Modulus, factorize

DEFAULT_ORACLE_BUDGET = 128
AUT_CANDIDATE_LIMIT = 30_000


def oracle_budget() -> int:
    return int(os.environ.get("RBCM_ORACLE_BUDGET", DEFAULT_ORACLE_BUDGET))


class CayleyMapRecord:
    """A balanced Cayley map: group, generator cycle, and type."""

    def __init__(self, group: AbelianGroupTable, cycle, map_type: str, source=None):
        self.group = group
        self.cycle = tuple(tuple(g) for g in cycle)
        self.map_type = map_type
        self.source = source
        self.valence = len(self.cycle)
        self._stats = None
        self._witness = None

    @property
    def omega(self) -> tuple[tuple[int, ...], ...]:
        if self.map_type == "I":
            return self.cycle[: self.valence // 2]
        return self.cycle

    def rho(self, w):
        return self.cycle[(self.cycle.index(tuple(w)) + 1) % self.valence]

    def canonical_key(self):
        rotations = [
            self.cycle[i:] + self.cycle[:i] for i in range(self.valence)
        ]
        return (self.map_type, self.group.invariants, min(rotations))

    def validate(self) -> None:
        """Raise InvariantViolation unless the cycle defines a balanced Cayley map."""
        g = self.group
        zero = g.zero()
        require(zero not in self.cycle, "identity in generating set")
        require(len(set(self.cycle)) == self.valence, "repeated generator")
        if self.map_type == "I":
            n = self.valence // 2
            require(self.valence == 2 * n and n >= 2, "type I valence must be even and >= 4")
            for i in range(self.valence):
                require(
                    self.cycle[(i + n) % self.valence] == g.neg(self.cycle[i]),
                    "cycle is not sign-paired",
                )
        else:
            require(self.map_type == "II", f"unknown map type {self.map_type!r}")
            for w in self.cycle:
                require(g.element_order(w) == 2, "type II generator of order != 2")
        require(g.generates(self.cycle), "generators do not span the group")

    def __repr__(self):
        return f"<{self.map_type} map on {self.group}, valence {self.valence}>"


@dataclass(frozen=True)
class MapStats:
    vertices: int
    edges: int
    faces: int
    genus: int
    face_lengths: tuple[int, ...]


def _hom_extend_idx(src: AbelianGroupTable, dst: AbelianGroupTable, pair_idx):
    """Index-based homomorphism extension; returns the image table or None.

    Breadth-first closure over the subgroup generated by the sources; an edge
    conflict means no homomorphism exists.  Checking every (element, i) edge
    certifies path-independence, hence additivity.
    """
    els_s, idx_s, add_s = src.tables()
    _, idx_d, add_d = dst.tables()
    table = [-1] * len(els_s)
    z_s = idx_s[src.zero()]
    table[z_s] = idx_d[dst.zero()]
    frontier = [z_s]
    while frontier:
        a = frontier.pop()
        row_a = add_s[a]
        row_fa = add_d[table[a]]
        for g, h in pair_idx:
            b = row_a[g]
            fb = row_fa[h]
            got = table[b]
            if got < 0:
                table[b] = fb
                frontier.append(b)
            elif got != fb:
                return None
    return table


def _is_total_bijection(table, order: int) -> bool:
    if any(v < 0 for v in table):
        return False
    return len(set(table)) == order


def is_rbcm(record: CayleyMapRecord):
    """(flag, witness): does the rotation extend to a group automorphism?"""
    g = record.group
    els, idx, _ = g.tables()
    L = record.valence
    cyc = [idx[w] for w in record.cycle]
    pair_idx = [(cyc[i], cyc[(i + 1) % L]) for i in range(L)]
    table = _hom_extend_idx(g, g, pair_idx)
    if table is None or not _is_total_bijection(table, g.order):
        return False, None
    record._witness = {els[i]: els[v] for i, v in enumerate(table)}
    return True, {w: record._witness[w] for w in record.cycle}


def maps_isomorphic(m1: CayleyMapRecord, m2: CayleyMapRecord) -> bool:
    """Group isomorphism carrying one rotation cycle onto the other."""
    if m1.map_type != m2.map_type:
        raise TypeMismatch(f"{m1.map_type} vs {m2.map_type}")
    if m1.group.invariants != m2.group.invariants or m1.valence != m2.valence:
        return False
    _, idx1, _ = m1.group.tables()
    _, idx2, _ = m2.group.tables()
    L = m1.valence
    c1 = [idx1[w] for w in m1.cycle]
    c2 = [idx2[w] for w in m2.cycle]
    order = m1.group.order
    for shift in range(L):
        pair_idx = [(c1[i], c2[(i + shift) % L]) for i in range(L)]
        table = _hom_extend_idx(m1.group, m2.group, pair_idx)
        if table is not None and _is_total_bijection(table, order):
            return True
    return False


def trace_faces(record: CayleyMapRecord) -> MapStats:
    """Face census from the next-arc rule (v, w) -> (v + w, rho(-w))."""
    g = record.group
    L = record.valence
    n = L // 2 if record.map_type == "I" else L
    els, idx, add_rows = g.tables()
    V = len(els)
    cyc = [idx[w] for w in record.cycle]
    nxt_pos = [((i + n) % L + 1) % L if record.map_type == "I" else (i + 1) % L for i in range(L)]
    E = V * L // 2
    seen = bytearray(V * L)
    lengths = []
    for start in range(V * L):
        if seen[start]:
            continue
        length = 0
        cur = start
        while not seen[cur]:
            seen[cur] = 1
            length += 1
            v, i = divmod(cur, L)
            cur = add_rows[v][cyc[i]] * L + nxt_pos[i]
        require(cur == start, "face trace failed to close")
        lengths.append(length)
    F = len(lengths)
    euler = V - E + F
    require(euler % 2 == 0, "odd Euler characteristic")
    genus = (2 - euler) // 2
    require(genus >= 0, f"negative genus {genus}")
    return MapStats(V, E, F, genus, tuple(sorted(lengths)))


def map_stats(record: CayleyMapRecord) -> MapStats:
    if record._stats is None:
        record._stats = trace_faces(record)
    return record._stats


def arc_transitive(record: CayleyMapRecord) -> bool:
    """Explicit orbit computation: translations + the rotation automorphism."""
    ok, _ = is_rbcm(record)
    if not ok:
        return False
    g = record.group
    els, idx, add_rows = g.tables()
    sigma = [idx[record._witness[e]] for e in els]
    L = record.valence
    cyc = [idx[w] for w in record.cycle]
    arcs = range(len(els) * L)  # arc v*L + i leaves vertex v along cycle[i]
    steps = [[add_rows[a // L][t] * L + a % L for a in arcs] for t in cyc]
    steps.append([sigma[a // L] * L + (a + 1) % L for a in arcs])
    return reachable(idx[g.zero()] * L, steps, len(arcs)) == len(arcs)


# ---------------------------------------------------------------------------
# construction from ideals


def realize_record(Q: IdealPresentation, n: int, map_type: str) -> CayleyMapRecord:
    """Map record of an ideal presentation: generators are images of powers of x."""
    ring = QuotientRing(Q)
    typ, to_coords = quotient_isomorphism(Q)
    if not typ.invariant_factors:
        raise DegenerateOmega("trivial quotient")
    group = AbelianGroupTable(typ.invariant_factors)
    omegas = [to_coords(ring.x_power_image(i)) for i in range(n)]
    if map_type == "I":
        negs = [group.neg(w) for w in omegas]
        cycle = omegas + negs
    else:
        cycle = omegas
    if len(set(cycle)) != len(cycle) or group.zero() in cycle:
        raise DegenerateOmega(f"collisions among signed generators (n={n})")
    return CayleyMapRecord(group, cycle, map_type, source=Q)


def build_map(Q: IdealPresentation, N: int, n: int, map_type: str = "I") -> CayleyMapRecord:
    """Standard map of an admissible ideal (admissibility checked first)."""
    if map_type == "I":
        if n < 2:
            raise ValueError("type I maps need n >= 2")
        adm = is_admissible(Q, N, n)
    else:
        if N != 2:
            raise ValueError("type II maps live over Z_2")
        adm = is_admissible_type2(Q, n)
    if not adm:
        raise NotAdmissible(adm.clause or "?", adm.detail or "")
    record = realize_record(Q, n, map_type)
    record.validate()
    ok, _ = is_rbcm(record)
    require(ok, "constructed map is not balanced-regular")
    return record


# ---------------------------------------------------------------------------
# automorphism enumeration (sigma-mode oracle)


def aut_candidate_count(invariants) -> int:
    total = 1
    for di in invariants:
        for dj in invariants:
            total *= math.gcd(di, dj)
    return total


def aut_order(invariants) -> int:
    """|Aut(G)|, multiplied over the Sylow parts of G.

    For G = Z_{p^e_1} x ... x Z_{p^e_n} with e_1 <= ... <= e_n this is the
    count of Hillar & Rhea, "Automorphisms of finite abelian groups",
    Amer. Math. Monthly 114 (2007), Theorem 4.1.
    """
    order = 1
    for p in sorted({p for d in invariants for p, _ in factorize(d)}):
        e = sorted(k for d in invariants for q, k in factorize(d) if q == p)
        n = len(e)
        for k in range(n):
            top = max(l for l in range(1, n + 1) if e[l - 1] == e[k])
            bottom = min(l for l in range(1, n + 1) if e[l - 1] == e[k])
            order *= p**top - p**k
            order *= p ** (e[k] * (n - top))
            order *= p ** ((e[k] - 1) * (n - bottom + 1))
    return order


def _rank_mod_p(rows, p) -> int:
    """Rank of the rows over Z_p.  No production path calls it; the tests'
    exhaustive automorphism search does."""
    m = [[x % p for x in r] for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][c] % p), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, p)
        m[rank] = [(x * inv) % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _unit_generators(d: int) -> list[int]:
    """A generating set of (Z/d)^*: each unit not yet in the span of those before it."""
    gens, span = [], {1}
    for u in range(2, d):
        if u in span or math.gcd(u, d) != 1:
            continue
        gens.append(u)
        powers = [u]
        while powers[-1] != 1:
            powers.append(powers[-1] * u % d)
        span = {a * b % d for a in span for b in powers}
    return gens


def _elementary_automorphisms(invariants):
    """Generator images of the unit scalings and the elementary transvections.

    A scaling sends e_i to u e_i, for u in a generating set of (Z/d_i)^*.  A
    transvection sends e_j to e_j + (d_i / gcd(d_i, d_j)) e_i, for i != j:
    the added term has order gcd(d_i, d_j), which divides d_j.
    """
    r = len(invariants)
    basis = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    for i, d in enumerate(invariants):
        for u in _unit_generators(d):
            yield basis[:i] + [tuple(u * x for x in basis[i])] + basis[i + 1 :]
    for i, di in enumerate(invariants):
        for j, dj in enumerate(invariants):
            if i != j:
                step = di // math.gcd(di, dj) % di
                image = tuple(x + step * y for x, y in zip(basis[j], basis[i]))
                yield basis[:j] + [image] + basis[j + 1 :]


def _image_table(images, invariants, idx, add_rows) -> list[int]:
    """Index table of the homomorphism sending basis vector i to images[i].

    Product order: the first coordinate is the most significant digit.
    """
    table = [0]
    for img, d in zip(images, invariants):
        step = add_rows[idx[img]]
        multiples = [0]
        for _ in range(d - 1):
            multiples.append(step[multiples[-1]])
        table = [add_rows[a][b] for a in table for b in multiples]
    return table


@lru_cache(maxsize=None)
def automorphism_permutations(invariants: tuple[int, ...]) -> tuple[bytes | array, ...]:
    """Every automorphism of the group as an image-index table.

    Entry i is the index of the image of element i in the element order of
    AbelianGroupTable.tables().  A table is bytes when |G| <= 256, else a
    16-bit array: |G| is at most aut_candidate_count, which sigma mode keeps
    within AUT_CANDIDATE_LIMIT.

    The tables are the breadth-first closure, under composition, of the
    elementary automorphisms.  The closure lies inside Aut(G); the count
    certificate against aut_order makes it all of Aut(G).
    """
    count = aut_candidate_count(invariants)
    if count > AUT_CANDIDATE_LIMIT:
        raise TooLarge(f"{count} automorphism candidates")
    group = AbelianGroupTable(invariants)
    _, idx, add_rows = group.tables()
    order = group.order
    gens = []
    for images in _elementary_automorphisms(invariants):
        require(
            all(d % group.element_order(img) == 0 for img, d in zip(images, invariants)),
            "elementary image order does not divide its generator's order",
        )
        table = _image_table(images, invariants, idx, add_rows)
        require(len(set(table)) == order, "elementary automorphism is not a bijection")
        gens.append(table)
    narrow = order <= 256
    if narrow:
        # bytes.translate wants a 256-byte table; entries past |G| are never read
        gens = [bytes(t) + bytes(256 - order) for t in gens]
        identity = bytes(range(order))
    else:
        identity = array("H", range(order))
    perms = [identity]
    seen = {identity if narrow else identity.tobytes()}
    for perm in perms:  # breadth first: perms grows while it is walked
        for g in gens:
            new = perm.translate(g) if narrow else array("H", map(g.__getitem__, perm))
            key = new if narrow else new.tobytes()
            if key not in seen:
                seen.add(key)
                perms.append(new)
    require(len(perms) == aut_order(invariants), "elementary automorphisms do not generate Aut(G)")
    return tuple(perms)


def automorphism_matrices(invariants: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Every automorphism as rows of generator images, in the order of
    automorphism_permutations: row i of an entry is the image of e_i."""
    els, idx, _ = AbelianGroupTable(invariants).tables()
    r = len(invariants)
    basis = [idx[tuple(int(i == j) for j in range(r))] for i in range(r)]
    return tuple(
        tuple(els[perm[b]] for b in basis) for perm in automorphism_permutations(invariants)
    )


def _minimal_image(cycle, stabilizer) -> tuple[int, ...]:
    """Least a(cycle) over the automorphisms a that fix cycle[0].

    The tuple is fixed one position at a time, keeping only the
    automorphisms that reach the least value so far.
    """
    key = [cycle[0]]
    for i in range(1, len(cycle)):
        if len(stabilizer) == 1:
            key.extend(stabilizer[0][c] for c in cycle[i:])
            break
        values = [alpha[cycle[i]] for alpha in stabilizer]
        best = min(values)
        stabilizer = [alpha for alpha, v in zip(stabilizer, values) if v == best]
        key.append(best)
    return tuple(key)


def _sigma_mode(group: AbelianGroupTable, n: int, map_type: str):
    """One record per isomorphism class, from (automorphism, seed) pairs.

    If (sigma, w) gives a map, (a sigma a^-1, a w) gives an isomorphic one,
    so one seed per Aut(G)-orbit suffices.  The seeds form a single orbit:
    an element of order exp(G) spans a cyclic direct summand, and any two
    such summands have isomorphic complements; type II seeds are the nonzero
    vectors of an elementary 2-group.  So the smallest seed m is the only one.
    A class is keyed by its minimal image, the least index tuple a(cycle)
    over automorphisms a and rotations; index order is coordinate order, so
    that is the smallest canonical_key in the class.  Every cycle element
    lies in m's orbit, so the minimum starts at m.  Rotating the cycle by r
    is applying sigma^r, itself an automorphism, so the minimum is over the
    a with a(m) = m applied to the cycle as walked from m.
    """
    perms = automorphism_permutations(group.invariants)
    els, idx, _ = group.tables()
    zero = idx[group.zero()]
    neg = [idx[group.neg(e)] for e in els]
    seed_order = group.exponent if map_type == "I" else 2
    seeds = [i for i, e in enumerate(els) if group.element_order(e) == seed_order]
    m = seeds[0]
    require(len({perm[m] for perm in perms}) == len(seeds), "seeds form more than one Aut(G)-orbit")
    stabilizer = [perm for perm in perms if perm[m] == m]
    target = neg[m] if map_type == "I" else m
    records = {}
    keys = {}  # walked cycle -> its minimal image; many sigma walk the same cycle
    for sigma in perms:
        orbit = [m]
        for _ in range(n - 1):
            orbit.append(sigma[orbit[-1]])
        if sigma[orbit[-1]] != target:
            continue
        cycle = tuple(orbit + [neg[c] for c in orbit]) if map_type == "I" else tuple(orbit)
        if len(set(cycle)) != len(cycle) or zero in cycle:
            continue
        key = keys.get(cycle)
        if key is None:
            key = keys[cycle] = _minimal_image(cycle, stabilizer)
        if key in records:
            continue
        gens = [els[i] for i in key]
        records[key] = CayleyMapRecord(group, gens, map_type) if group.generates(gens) else None
    return [records[key] for key in sorted(records) if records[key] is not None]


# ---------------------------------------------------------------------------
# lattice-mode oracle and bounded ideal enumeration


@lru_cache(maxsize=None)
def bounded_admissible_candidates(
    p: int, k: int, n: int, bound: int
) -> tuple[IdealPresentation, ...]:
    """All ideals of Z_{p^k}[x] containing x^n+1 with quotient order <= bound.

    Every such ideal contains the component's radical floor, so each CRT
    component is enumerated above that floor and the choices are combined.
    """
    split = crt_split(p, k, n)
    mod = Modulus(p, k)
    per_component = []
    for (d, ell), ctx in zip(split.labels, split.contexts):
        q = base_factor(p, d, ell).reduce_mod(mod)
        floor = radical_floor(ctx, mod, bound, q.degree, q)
        if floor.quotient_size() <= ENUM_BUDGET:
            ideals = enumerate_ideals_between(ctx, mod, base=floor)
        else:
            ideals = bounded_ideals_local_tree(ctx, mod, bound, q, q.degree)
        per_component.append([ideal for ideal in ideals if ideal.quotient_size() <= bound])
    cases = ((None, combo) for combo in itertools.product(*per_component))
    found = [Q for _, Q in bounded_combinations(split, cases, bound)]
    return tuple(sorted(found, key=lambda q: q.rows))


def _lattice_mode(group: AbelianGroupTable, n: int, map_type: str):
    """Oracle via exhaustive relation-lattice enumeration and definitional checks."""
    facs = factorize(group.exponent)
    if len(facs) != 1:
        raise ValueError("lattice mode needs a p-group")
    p, k = facs[0]
    candidates = bounded_admissible_candidates(p, k, n, group.order)
    records = {}
    for Q in candidates:
        if Q.quotient_size() != group.order:
            continue
        try:
            rec = realize_record(Q, n, map_type)
        except DegenerateOmega:
            continue
        if rec.group.invariants != group.invariants:
            continue
        try:
            rec.validate()
        except InvariantViolation:
            continue
        ok, _ = is_rbcm(rec)
        if not ok:
            continue
        records.setdefault(rec.canonical_key(), rec)
    return list(records.values())


def _dedup_classes(records):
    """Quotient a record list by map isomorphism, keeping first representatives."""
    classes = []
    buckets = {}
    for rec in sorted(records, key=lambda r: r.canonical_key()):
        orders = tuple(sorted(rec.group.element_order(w) for w in rec.cycle))
        st = map_stats(rec)
        key = (rec.map_type, rec.valence, orders, st.genus, st.face_lengths)
        hit = False
        for other in buckets.get(key, []):
            if maps_isomorphic(rec, other):
                hit = True
                break
        if not hit:
            buckets.setdefault(key, []).append(rec)
            classes.append(rec)
    return classes


def map_cases(group: AbelianGroupTable, valence: int) -> list[tuple[int, str]]:
    """(n, map type) of each map kind a group can carry at this valence.

    Type II (valence n >= 2) lives only on elementary 2-groups, where every
    signed pair collides, so those carry no type I maps; every other group
    gets type I at even valence 2n with n >= 2.
    """
    if all(d == 2 for d in group.invariants):
        return [(valence, "II")] if valence >= 2 else []
    return [(valence // 2, "I")] if valence % 2 == 0 and valence >= 4 else []


def brute_force_rbcms(group_spec, valence: int):
    """One representative per isomorphism class of balanced regular maps,
    over every case of map_cases."""
    group = AbelianGroupTable.from_spec(group_spec)
    budget = oracle_budget()
    if group.order > budget:
        raise TooLarge(f"group order {group.order} exceeds oracle budget {budget}")
    if valence < 1:
        raise ValueError("valence must be >= 1")
    if valence > 2 * group.order:
        raise ValueError("valence exceeds twice the group order")
    if aut_candidate_count(group.invariants) <= AUT_CANDIDATE_LIMIT:
        mode = _sigma_mode
    else:
        mode = _lattice_mode
    out = []
    for n, map_type in map_cases(group, valence):
        out.extend(mode(group, n, map_type))
    return _dedup_classes(out)

"""Cayley map records, validity checks, face tracing, and the brute-force oracle.

Records store the rotation as an explicit cycle of group elements in
invariant-factor coordinates, so maps built from ideals and maps found by the
oracle live in one representation.  When the automorphism search space is
small, the oracle grows the least rotation cycle of each class, one position
at a time, from one seed per Aut(G)-orbit; it reads one automorphism per
image of the seed and the seed's stabilizer, as permutations of element
indices.  Aut(G) itself is never listed: the movers are a Schreier tree of
the seed's orbit under the elementary automorphisms (unit scalings and
transvections), the stabilizer is the closure of its Schreier generators,
and |orbit| * |Stab| = |Aut(G)|, the closed form, certifies both.
Otherwise the oracle falls back to exhaustive shift-closed relation-lattice
enumeration (realized and validated definitionally, deduplicated by the
relation ideal).  Sigma mode already yields one record per class, so only
lattice-mode output is deduplicated.

Every record's one certificate is its relation ideal (relation_ideal): the
Howell rows of R = {b in Z_N^n : sum b_i omega_i = 0}, N = exp G, read from
group coordinates and kept on the record.  For a regular type I map R is an
ideal of Z_N[x]/(x^n + 1): the paper's correspondence, read back from the
map and not from the ideal layer, so the oracle's checks stay definitional.  Everything reads R, not walks over G:
omega generates G exactly when N^n / |R| = |G| (validate); the rotation
extends to an automorphism, so the balanced map is regular (Skoviera &
Siran, "Regular maps from Cayley graphs, part 1: balanced Cayley maps",
Discrete Math. 109 (1992)), exactly when R is also closed under x (is_rbcm);
and two maps on one group are isomorphic exactly when R1 = x^s R2 for some
s, which is R1 = R2 once either is an ideal (maps_isomorphic), so regular
maps are deduplicated and matched by dict lookups on the key.  The face
census needs no key: the next-arc rule moves along the cycle positions
whatever the vertex, so each position orbit O, with sum S_O, gives
V / ord(S_O) faces of length |O| * ord(S_O) (trace_faces).

A standard map depends only on its ideal, n and map type, so a bounded cache
keeps one entry per (Q, n, map_type): its admissibility verdict and its
realized record, each computed on first demand.  build_map reads both; the
lattice-mode oracle reads only the record, so its checks stay definitional.
Both paths share each record and certify it (is_rbcm, then validate) once.
"""

from __future__ import annotations

import math
import operator
import os
from array import array
from functools import lru_cache

from .errors import (
    DegenerateOmega,
    DomainError,
    InvariantViolation,
    NotAdmissible,
    TooLarge,
    TypeMismatch,
    require,
)
from .ideals import (
    Admissibility,
    IdealPresentation,
    _combined,
    bounded_combinations,
    bounded_ideals_local_tree,
    component_radicals,
    howell_form,
    is_admissible,
    shift_closed,
    x_step,
)
from .poly import Poly
from .structure import AbelianGroupTable, QuotientRing, quotient_isomorphism
from .zring import Frozen, Modulus, factorize

DEFAULT_ORACLE_BUDGET = 128
AUT_CANDIDATE_LIMIT = 30_000
BUILD_CACHE_SIZE = 4096  # realized standard maps kept per process


def oracle_budget() -> int:
    """RBCM_ORACLE_BUDGET, the largest group order the oracle accepts.

    Raises ValueError, naming the variable, unless it is an integer >= 1.
    """
    raw = os.environ.get("RBCM_ORACLE_BUDGET")
    if raw is None:
        return DEFAULT_ORACLE_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValueError(f"RBCM_ORACLE_BUDGET must be an integer >= 1, not {raw!r}")
    return budget


class CayleyMapRecord:
    """A balanced Cayley map: group, generator cycle, and type."""

    def __init__(self, group: AbelianGroupTable, cycle, map_type: str):
        self.group = group
        self.cycle = tuple(tuple(g) for g in cycle)
        self.map_type = map_type
        self.valence = len(self.cycle)
        self._stats = None
        self._relations = None  # relation_ideal, computed on first demand
        self.certified = False  # set by _certify once is_rbcm and validate pass

    @property
    def omega(self) -> tuple[tuple[int, ...], ...]:
        if self.map_type == "I":
            return self.cycle[: self.valence // 2]
        return self.cycle

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
        require(relation_ideal(self).quotient_size() == g.order, "generators do not span the group")

    def __repr__(self):
        return f"<{self.map_type} map on {self.group}, valence {self.valence}>"


class MapStats(Frozen):
    __slots__ = ("vertices", "edges", "faces", "genus", "face_lengths")

    def __init__(self, vertices: int, edges: int, faces: int, genus: int, face_lengths: tuple[int, ...]):
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "faces", faces)
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "face_lengths", face_lengths)

    def _key(self) -> tuple:
        return (self.vertices, self.edges, self.faces, self.genus, self.face_lengths)

    def __repr__(self) -> str:
        return (
            f"MapStats(vertices={self.vertices}, edges={self.edges}, faces={self.faces}, "
            f"genus={self.genus}, face_lengths={self.face_lengths})"
        )


def relation_ideal(record: CayleyMapRecord) -> IdealPresentation:
    """R = {b in Z_N^n : sum b_i omega_i = 0}, with N = exp G and n = |omega|,
    kept on the record.

    The rows (omega_i scaled by N/d_j | e_(n-1-i)) span the pairs
    (sum b_i omega_i, b) over Z_N, the tails written highest degree first.
    By the Howell property, the rows of their Howell form whose first r
    entries are zero span R, and their tails are R's own Howell rows, so
    equal relation modules have equal rows.  R sits in Z_N[x]/(x^n + 1) for
    type I, whose rotation sends omega_(n-1) to -omega_0, and in
    Z_N[x]/(x^n - 1) for type II.  Its quotient is <omega>, of order
    N^n / |R|.
    """
    if record._relations is None:
        g = record.group
        N, r, omega = g.exponent, g.rank, record.omega
        n = len(omega)
        scale = [N // d for d in g.invariants]
        rows = []
        for i, w in enumerate(omega):
            row = [s * x for s, x in zip(scale, w)] + [0] * n
            row[r + n - 1 - i] = 1
            rows.append(row)
        tails = tuple(row[r:] for row in howell_form(rows, N, r + n) if not any(row[:r]))
        context = Poly.x_pow_plus_const(n, 1 if record.map_type == "I" else -1, Modulus.composite(N))
        record._relations = IdealPresentation(context, tails)
    return record._relations


def isomorphism_key(record: CayleyMapRecord) -> tuple:
    """(map type, relation ideal): two regular maps are isomorphic exactly
    when their keys are equal (see maps_isomorphic)."""
    return record.map_type, relation_ideal(record)


def is_rbcm(record: CayleyMapRecord):
    """(flag, witness): is the map balanced and regular?

    A balanced map is regular exactly when its rotation c_i -> c_(i+1)
    extends to an automorphism of G (Skoviera & Siran, "Regular maps from
    Cayley graphs, part 1: balanced Cayley maps", Discrete Math. 109
    (1992)).  A type I cycle must be (omega, -omega).  Then the rotation
    extends to a homomorphism on <omega> exactly when the relation ideal R
    is closed under x, and that homomorphism is an automorphism of G exactly
    when omega generates G (N^n / |R| = |G|): its image holds every omega_i,
    so it is onto.  The witness maps each cycle element to its image, the
    next one.
    """
    g = record.group
    if record.map_type == "I":
        n = record.valence // 2
        if record.cycle[n:] != tuple(map(g.neg, record.cycle[:n])):
            return False, None
    R = relation_ideal(record)
    if R.quotient_size() != g.order or not shift_closed(R):
        return False, None
    return True, dict(zip(record.cycle, record.cycle[1:] + record.cycle[:1]))


def maps_isomorphic(m1: CayleyMapRecord, m2: CayleyMapRecord) -> bool:
    """Group automorphism carrying one rotation cycle onto the other.

    An automorphism may send c1[i] to c2[i + s] for any alignment s; for
    balanced maps, s < n suffices, since negation is an automorphism.  The
    cycle (c2[s], c2[s+1], ...) has the relation module x^-s R2, so the maps
    are isomorphic exactly when both cycles generate G and R1 = x^s R2 for
    some s < n.  An ideal is its own x^s R, so once either module is an
    ideal, that is R1 = R2.
    """
    if m1.map_type != m2.map_type:
        raise TypeMismatch(f"{m1.map_type} vs {m2.map_type}")
    if m1.group != m2.group or m1.valence != m2.valence:
        return False
    R1, R2 = relation_ideal(m1), relation_ideal(m2)
    order = m1.group.order
    if R1.quotient_size() != order or R2.quotient_size() != order:
        return False
    if R1 == R2:
        return True
    if shift_closed(R1) or shift_closed(R2):
        return False
    rows = R2.rows
    for _ in range(1, R2.width):  # |x^s R2| = |R1|, so containment is equality
        rows = [x_step(row, R2.context_monic) for row in rows]
        if all(R1.contains_row(row) for row in rows):
            return True
    return False


def trace_faces(record: CayleyMapRecord) -> MapStats:
    """Face census from the next-arc rule (v, i) -> (v + c_i, pi(i)).

    pi(i) = i + n + 1 for type I and i + 1 for type II (mod L), whatever the
    vertex.  A face through position i of a pi-orbit O comes back to that
    position after |O| steps, translated by S_O, the sum of c_j over O, so
    it closes after |O| * ord(S_O) steps, and the V * |O| darts at positions
    of O make V / ord(S_O) faces of that length.
    """
    g = record.group
    L = record.valence
    V = g.order
    step = L // 2 + 1 if record.map_type == "I" else 1
    lengths = []
    placed = [False] * L
    for start in range(L):
        if placed[start]:
            continue
        size, total, i = 0, g.zero(), start
        while not placed[i]:
            placed[i] = True
            size += 1
            total = g.add(total, record.cycle[i])
            i = (i + step) % L
        turns = g.element_order(total)
        lengths += [size * turns] * (V // turns)
    E = V * L // 2
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


# ---------------------------------------------------------------------------
# construction from ideals


def realize_record(Q: IdealPresentation, n: int, map_type: str) -> CayleyMapRecord:
    """Map record of an ideal presentation: generators are images of powers of x."""
    ring = QuotientRing(Q)
    group, to_coords = quotient_isomorphism(Q)
    if not group.rank:
        raise DegenerateOmega("trivial quotient")
    omegas = [to_coords(w) for w in ring.x_power_images(n)]
    if map_type == "I":
        negs = [group.neg(w) for w in omegas]
        cycle = omegas + negs
    else:
        cycle = omegas
    if len(set(cycle)) != len(cycle) or group.zero() in cycle:
        raise DegenerateOmega(f"collisions among signed generators (n={n})")
    return CayleyMapRecord(group, cycle, map_type)


class _Realization:
    """What one (Q, n, map_type) gives: its admissibility verdict and its
    realized record, or the DegenerateOmega or TooLarge that stops it.  Each
    is computed on first demand; any other exception propagates and is not
    kept."""

    __slots__ = ("inputs", "_admissibility", "_record")

    def __init__(self, Q: IdealPresentation, n: int, map_type: str):
        self.inputs = (Q, n, map_type)
        self._admissibility = None
        self._record = None

    def admissibility(self) -> Admissibility:
        if self._admissibility is None:
            self._admissibility = is_admissible(*self.inputs)
        return self._admissibility

    def record(self) -> CayleyMapRecord | DegenerateOmega | TooLarge:
        if self._record is None:
            try:
                self._record = realize_record(*self.inputs)
            except (DegenerateOmega, TooLarge) as exc:
                self._record = exc.with_traceback(None)  # a kept traceback would keep its frames
        return self._record


@lru_cache(maxsize=BUILD_CACHE_SIZE)
def _realized(Q: IdealPresentation, n: int, map_type: str) -> _Realization:
    """The one kept realization of (Q, n, map_type), shared by build_map and
    the lattice-mode oracle: a sweep asks for each one once."""
    return _Realization(Q, n, map_type)


def _fresh(exc: DomainError) -> DomainError:
    """A new exception with the class, args and attributes of a kept one."""
    copy = type(exc)(*exc.args)
    copy.__dict__.update(vars(exc))
    return copy


def _certify(record: CayleyMapRecord) -> None:
    """Raise InvariantViolation unless the record is a balanced regular map.

    Both read the relation ideal, computed once per record.  A record that
    passes is flagged certified and never checked again, whichever path
    (build_map or the lattice-mode oracle) asks next.
    """
    if record.certified:
        return
    ok, _ = is_rbcm(record)
    record.validate()
    require(ok, "constructed map is not balanced-regular")
    record.certified = True


def build_map(
    Q: IdealPresentation, n: int, map_type: str = "I", group: AbelianGroupTable | None = None
) -> CayleyMapRecord:
    """Standard map of an admissible ideal (admissibility checked first).

    Given a group, a map realized on another group raises TypeMismatch
    before it is certified.  Equal inputs share one record, certified once;
    a kept failure is raised again as a fresh copy, with the class and
    attributes of the first.
    """
    if map_type == "I" and n < 2:
        raise ValueError("type I maps need n >= 2")
    entry = _realized(Q, n, map_type)
    adm = entry.admissibility()
    if not adm:
        raise NotAdmissible(adm.clause or "?", adm.detail or "")
    record = entry.record()
    if isinstance(record, DomainError):
        raise _fresh(record)
    if group is not None and record.group != group:
        raise TypeMismatch(f"quotient is {record.group}, not {group}")
    _certify(record)
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


def _image_table(images, group: AbelianGroupTable) -> list[int]:
    """Index table of the homomorphism sending basis vector i to images[i].

    Product order: the first coordinate is the most significant digit, so
    each image a of the leading coordinates is followed by a + j*images[i]
    for j < d_i, walked along the translation by images[i].
    """
    table = [0]
    for img, d in zip(images, group.invariants):
        step = group.translation(img)
        walked = []
        for a in table:
            for _ in range(d):
                walked.append(a)
                a = step[a]
        table = walked
    return table


def _elementary_tables(group: AbelianGroupTable) -> list[list[int]]:
    """The elementary automorphisms as image-index tables, each checked to be
    well defined (every generator image has an order dividing its
    generator's) and a bijection.

    Past AUT_CANDIDATE_LIMIT it raises TooLarge instead: sigma mode does not
    run there, and |G| may not fit a 16-bit table.
    """
    count = aut_candidate_count(group.invariants)
    if count > AUT_CANDIDATE_LIMIT:
        raise TooLarge(f"{count} automorphism candidates")
    tables = []
    for images in _elementary_automorphisms(group.invariants):
        require(
            all(d % group.element_order(img) == 0 for img, d in zip(images, group.invariants)),
            "elementary image order does not divide its generator's order",
        )
        table = _image_table(images, group)
        require(len(set(table)) == group.order, "elementary automorphism is not a bijection")
        tables.append(table)
    return tables


def _identity(order: int) -> bytes | array:
    """The identity table: bytes when |G| <= 256, else a 16-bit array."""
    return bytes(range(order)) if order <= 256 else array("H", range(order))


def _as_generator(table, order: int) -> bytes | tuple:
    """table in the form composition reads: bytes padded to 256 entries when
    |G| <= 256 (bytes.translate wants a 256-byte table; entries past |G| are
    never read), else a tuple, which itemgetter reads faster than an array."""
    if order <= 256:
        return bytes(table[:order]) + bytes(256 - order)
    return tuple(table)


def _compose(g, perm) -> bytes | array:
    """g o perm, for a table perm and a generator g in _as_generator form."""
    if isinstance(perm, bytes):
        return perm.translate(g)
    return array("H", operator.itemgetter(*perm)(g))


def _close(perms: list, seen: set, gens: list, settled: int = 0) -> None:
    """Grow perms, in place, to its closure under left composition by gens.

    perms[:settled] is already closed under every generator but the last, so
    those members meet only the last.  seen holds the members' bytes.
    """
    for i, perm in enumerate(perms):  # breadth first: perms grows while it is walked
        for g in gens if i >= settled else gens[-1:]:
            new = _compose(g, perm)
            key = bytes(new)
            if key not in seen:
                seen.add(key)
                perms.append(new)


@lru_cache(maxsize=None)
def automorphism_permutations(invariants: tuple[int, ...]) -> tuple[bytes | array, ...]:
    """Every automorphism of the group as an image-index table.

    Entry i is the index of the image of element i, in the product order of
    AbelianGroupTable.elements().  A table is bytes when |G| <= 256, else a
    16-bit array: |G| is at most aut_candidate_count, which is kept within
    AUT_CANDIDATE_LIMIT.

    The tables are the breadth-first closure, under composition, of the
    elementary automorphisms.  The closure lies inside Aut(G); the count
    certificate against aut_order makes it all of Aut(G).  No production
    path calls it: sigma mode reads only _sigma_frame, and the tests and the
    tracer's automorphism_matrices read this full list.
    """
    group = AbelianGroupTable(invariants)
    gens = [_as_generator(t, group.order) for t in _elementary_tables(group)]
    identity = _identity(group.order)
    perms = [identity]
    _close(perms, {bytes(identity)}, gens)
    require(len(perms) == aut_order(invariants), "elementary automorphisms do not generate Aut(G)")
    return tuple(perms)


def automorphism_matrices(invariants: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Every automorphism as rows of generator images, in the order of
    automorphism_permutations: row i of an entry is the image of e_i."""
    els, idx = AbelianGroupTable(invariants).tables()
    r = len(invariants)
    basis = [idx[tuple(int(i == j) for j in range(r))] for i in range(r)]
    return tuple(
        tuple(els[perm[b]] for b in basis) for perm in automorphism_permutations(invariants)
    )


@lru_cache(maxsize=None)
def _sigma_frame(invariants: tuple[int, ...], seed_order: int):
    """What sigma mode reads of Aut(G): (m, movers, firsts, stabilizer, neg).

    m is the least element of order seed_order.  movers maps each image of m
    under Aut(G) to one automorphism that sends m there; those images must
    be exactly the elements of order seed_order.  stabilizer is Stab(m) as
    image-index tables, and firsts holds the least seed of each
    Stab(m)-orbit.  neg is the index table of negation.

    Aut(G) itself is never listed.  The orbit of m under the elementary
    automorphisms is walked breadth first, and each new image g(t) gets the
    mover g o movers[t]: the movers form a Schreier tree.  By Schreier's
    lemma the elements movers[g(t)]^-1 o g o movers[t] generate the
    stabilizer of m in the group the elementary automorphisms generate; H
    is the closure of those met so far, and the walk over them stops once
    |orbit| * |H| = |Aut(G)|.  The certificate is that count.  H lies in
    Stab(m) and the orbit in Aut(G)m, so |orbit| * |H| <= |Aut(G)m| *
    |Stab(m)| = |Aut(G)|, with equality only when the orbit is all of
    Aut(G)m and H all of Stab(m).  Short generators cannot reach the
    count, and the require raises.
    """
    group = AbelianGroupTable(invariants)
    order = group.order
    gens = [_as_generator(t, order) for t in _elementary_tables(group)]
    els, idx = group.tables()
    seeds = [i for i, e in enumerate(els) if group.element_order(e) == seed_order]
    m = seeds[0]
    identity = _identity(order)
    movers = {m: identity}
    orbit = [m]
    for t in orbit:  # breadth first: orbit grows while it is walked
        for g in gens:
            if g[t] not in movers:
                orbit.append(g[t])
                movers[g[t]] = _compose(g, movers[t])
    want = aut_order(invariants)
    stabilizer, seen, hgens = [identity], {bytes(identity)}, []
    inverses = {}
    for t, g in ((t, g) for t in orbit for g in gens):
        if len(orbit) * len(stabilizer) >= want:
            break
        s, moved = g[t], _compose(g, movers[t])
        if moved == movers[s]:  # a tree edge, or an edge that agrees with one
            continue
        if s not in inverses:
            inverses[s] = _as_generator(sorted(range(order), key=movers[s].__getitem__), order)
        h = _compose(inverses[s], moved)  # a Schreier generator: it fixes m
        if bytes(h) not in seen:
            hgens.append(_as_generator(h, order))
            _close(stabilizer, seen, hgens, len(stabilizer))
    require(len(orbit) * len(stabilizer) == want, "elementary automorphisms do not generate Aut(G)")
    require(sorted(orbit) == seeds, "seeds form more than one Aut(G)-orbit")
    firsts, marked = [], set()
    for t in seeds:
        if t not in marked:
            firsts.append(t)
            marked.update(s[t] for s in stabilizer)
    neg = tuple(idx[group.neg(e)] for e in els)
    return m, movers, tuple(firsts), tuple(stabilizer), neg


def _sigma_mode(group: AbelianGroupTable, n: int, map_type: str):
    """One record per isomorphism class: its least cycle, grown one position
    at a time.

    If (sigma, w) gives a map, (a sigma a^-1, a w) gives an isomorphic one,
    so one seed per Aut(G)-orbit suffices.  The seeds form a single orbit:
    an element of order exp(G) spans a cyclic direct summand, and any two
    such summands have isomorphic complements; type II seeds are the nonzero
    vectors of an elementary 2-group.  So every cycle starts at the least
    seed m.  Rotating a cycle by r applies sigma^r, itself an automorphism,
    so every isomorphism between two cycles that start at m lies in Stab(m):
    the classes are the Stab(m)-orbits of those cycles.  Index order is
    coordinate order, so a class's least index tuple is its smallest
    canonical_key, and the records come in that order.

    The least member of a Stab(m)-orbit is the greedy minimum taken position
    by position under pointwise stabilizers.  The search keeps a prefix
    w_0 = m, ..., w_j, one sigma0 consistent with it, and the pointwise
    stabilizer P of w_0, ..., w_{j-1}.  The sigma consistent with the prefix
    are sigma0 s for s in P, so the next values are sigma0(s(w_j)).  The
    members H of P that fix w_j permute those values, and the longer prefix
    is least in its orbit exactly when its last value is the least of its
    H-orbit.  A full prefix that some consistent sigma closes onto -m
    (type I) or m (type II) is the least cycle of its class.  sigma0 is a
    chain of tables, applied lazily.  P = H forces the next value and a
    trivial P fixes sigma, so only branching steps recurse, and P at least
    halves at each.
    """
    signed = map_type == "I"
    m, movers, firsts, stabilizer, neg = _sigma_frame(
        group.invariants, group.exponent if signed else 2
    )
    target = neg[m] if signed else m
    used = bytearray(group.order)  # the cycle so far, negatives included, and the zero
    used[0] = 1
    prefix = []
    leaves = []

    def take(v) -> bool:
        """Append v unless it collides with the cycle so far."""
        if used[v] or (signed and neg[v] == v):
            return False
        used[v] = 1
        if signed:
            used[neg[v]] = 1
        prefix.append(v)
        return True

    def drop_to(length: int) -> None:
        while len(prefix) > length:
            v = prefix.pop()
            used[v] = 0
            if signed:
                used[neg[v]] = 0

    def image(chain, x):
        for table in chain:
            x = table[x]
        return x

    def grow(chain, P) -> None:
        """Every least full prefix that extends this one: chain applies
        sigma0, and P fixes every prefix entry but the last."""
        if len(P) == 1:  # sigma0 is the only consistent sigma
            while len(prefix) < n and take(image(chain, prefix[-1])):
                pass
            if len(prefix) == n and image(chain, prefix[-1]) == target:
                leaves.append(tuple(prefix))
            return
        while len(prefix) < n:
            w = prefix[-1]
            H = [s for s in P if s[w] == w]
            if len(H) == len(P):  # the next value is forced
                if take(image(chain, w)):
                    continue
                return
            witness = {}
            for s in P:
                witness.setdefault(s[w], s)
            values = {image(chain, x): s for x, s in witness.items()}
            marked = set()
            length = len(prefix)
            for v in sorted(values):
                if v in marked:
                    continue
                marked.update(h[v] for h in H)
                if take(v):
                    grow((values[v], *chain), H)
                    drop_to(length)
            return
        w = prefix[-1]
        if any(image(chain, s[w]) == target for s in P):
            leaves.append(tuple(prefix))

    if not take(m):
        return []
    if n == 1:  # target is a seed, so some automorphism sends m there
        leaves.append((m,))
    else:
        for t in firsts:
            if take(t):
                grow((movers[t],), stabilizer)
                drop_to(1)
    els, _ = group.tables()
    out = []
    for leaf in sorted(leaves):
        cycle = leaf + tuple(neg[c] for c in leaf) if signed else leaf
        rec = CayleyMapRecord(group, [els[i] for i in cycle], map_type)
        R = relation_ideal(rec)
        # some sigma extends the rotation, so R is an ideal
        require(shift_closed(R), "sigma-mode rotation extends to no homomorphism")
        if R.quotient_size() == group.order:  # else the cycle does not generate G
            out.append(rec)
    return out


# ---------------------------------------------------------------------------
# lattice-mode oracle and bounded ideal enumeration


@lru_cache(maxsize=None)
def bounded_admissible_candidates(
    p: int, k: int, n: int, order: int
) -> tuple[IdealPresentation, ...]:
    """All ideals of Z_{p^k}[x] containing x^n+1 whose quotient has exactly order elements.

    Each CRT component is a local ring whose ideals of index <= order come
    from the descent (bounded_ideals_local_tree), level by level and each
    level once per process.  Only the choices whose quotient sizes multiply
    to order (by CRT, the quotient size) are combined.
    """
    options = [
        [(None, q) for q in bounded_ideals_local_tree(ctx, order, g)] for ctx, g in component_radicals(p, k, n)
    ]
    found = [
        _combined(p, k, n, rows)
        for _, rows, size in bounded_combinations(options, order)
        if size == order
    ]
    return tuple(sorted(found, key=lambda q: q.rows))


def _lattice_mode(group: AbelianGroupTable, n: int, map_type: str):
    """Oracle via exhaustive relation-lattice enumeration and definitional checks.

    Each candidate's realization comes from the cache build_map reads, but
    never its admissibility verdict: a record counts once is_rbcm and
    validate pass, and it is on this group.
    """
    p, exponents = group.p_type()
    records = {}
    for Q in bounded_admissible_candidates(p, exponents[-1], n, group.order):
        rec = _realized(Q, n, map_type).record()
        if isinstance(rec, DegenerateOmega):
            continue
        if isinstance(rec, DomainError):
            raise _fresh(rec)
        if rec.group != group:
            continue
        try:
            _certify(rec)
        except InvariantViolation:
            continue
        records.setdefault(rec.canonical_key(), rec)
    return list(records.values())


def _dedup_classes(records):
    """Quotient a list of regular maps by isomorphism, keeping the first
    record of each isomorphism_key in canonical-key order."""
    classes = {}
    for rec in sorted(records, key=lambda r: r.canonical_key()):
        classes.setdefault(isomorphism_key(rec), rec)
    return list(classes.values())


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
        raise TooLarge(
            f"group order {group.order} exceeds oracle budget {budget}; "
            "set RBCM_ORACLE_BUDGET to raise it"
        )
    if valence < 1:
        raise ValueError("valence must be >= 1")
    if valence > 2 * group.order:
        raise ValueError("valence exceeds twice the group order")
    sigma = aut_candidate_count(group.invariants) <= AUT_CANDIDATE_LIMIT
    mode = _sigma_mode if sigma else _lattice_mode
    out = []
    for n, map_type in map_cases(group, valence):
        out.extend(mode(group, n, map_type))
    # sigma mode keys each class by its minimal image, so it already returns
    # one record per class, in canonical-key order; map_cases gives at most
    # one case
    return out if sigma else _dedup_classes(out)

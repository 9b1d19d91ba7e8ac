"""Family generators for balanced regular Cayley map classifications.

Each family enumerates its parameter space, assembles the ideal, and keeps
only parameters whose ideal passes the computational admissibility filter.
Narrower side-condition readings are evaluated separately and reported, so
divergent readings stay visible and are arbitrated by the oracle.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .cayley import (
    CayleyMapRecord,
    bounded_admissible_candidates,
    brute_force_rbcms,
    build_map,
    isomorphism_key,
    map_cases,
    map_stats,
)
from .errors import (
    DegenerateOmega,
    InvariantViolation,
    NotAdmissible,
    TooLarge,
    TypeMismatch,
    require,
)
from .factorlift import base_factor, lambda_index, lift_level0_factor, split_p_part
from .ideals import (
    IdealPresentation,
    _combined,
    box_ideal,
    bounded_combinations,
    canonical_form,
    constant_ideal,
    crt_split,
)
from .poly import Poly, coeffs_mul, poly_mod
from .structure import AbelianGroupTable, QuotientRing
from .zring import Frozen, Modulus, divisors, is_prime


class FamilyParams(Frozen):
    __slots__ = ("variant", "values")

    def __init__(self, variant: str, values: tuple[tuple[str, object], ...]):
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "values", values)

    def _key(self) -> tuple:
        return (self.variant, self.values)

    def as_dict(self) -> dict:
        return dict(self.values)

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in self.values)
        return f"{self.variant}({inner})"


class FamilyMap:
    def __init__(self, params: FamilyParams, ideal: IdealPresentation, record: CayleyMapRecord):
        self.params = params
        self.ideal = ideal
        self.record = record

    @property
    def invariants(self):
        return self.record.group.invariants


def _params(variant: str, **kw) -> FamilyParams:
    return FamilyParams(variant, tuple(sorted(kw.items())))


def solve_unit_roots(p: int, k: int, n: int) -> tuple[int, ...]:
    """Solutions of x^n + 1 = 0 in Z_{p^k}: scan mod p, then lift level by level."""
    roots = [a for a in range(p) if (pow(a, n, p) + 1) % p == 0]
    mod = p
    for _ in range(1, k):
        mod *= p
        roots = [
            r + t * (mod // p)
            for r in roots
            for t in range(p)
            if (pow(r + t * (mod // p), n, mod) + 1) % mod == 0
        ]
    return tuple(sorted(roots))


def quadratic_divisors(p: int, k: int, n: int) -> list[tuple[int, int]]:
    """(a, b) with x^2 + a*x + b dividing x^n + 1 over Z_{p^k}, sorted.

    A monic divisor mod p^(j+1) stays one mod p^j, so the divisors mod p are
    lifted level by level, as solve_unit_roots lifts roots (level 1 lifts
    the one pair mod 1 to every pair mod p).
    """
    found = [(0, 0)]
    step = 1
    for j in range(1, k + 1):
        mod = Modulus(p, j)
        xn1 = Poly.x_pow_plus_const(n, 1, mod)
        found = [
            (a + s * step, b + t * step)
            for a, b in found
            for s in range(p)
            for t in range(p)
            if poly_mod(xn1, Poly([b + t * step, a + s * step, 1], mod)).is_zero()
        ]
        step *= p
    return sorted(found)


def theta_set(p: int, n: int) -> tuple[int, ...]:
    """Divisors d of 2n with d not dividing n and p = -1 mod d."""
    return tuple(
        d for d in divisors(2 * n) if n % d != 0 and (p + 1) % d == 0
    )


def _try_build(Q: IdealPresentation, n: int, map_type: str, max_order=None, group=None):
    """build_map's record, or None when the ideal gives no map (on group, if given)."""
    if max_order is not None and Q.quotient_size() > max_order:
        return None
    try:
        return build_map(Q, n, map_type, group)
    except (NotAdmissible, DegenerateOmega, TooLarge, TypeMismatch):
        return None


def _assert_pairwise_distinct(maps: list[FamilyMap]) -> None:
    """Raise InvariantViolation, naming both members, if two maps share an isomorphism_key."""
    seen = {}
    for m in maps:
        key = isomorphism_key(m.record)
        if key in seen:
            raise InvariantViolation(f"family members {seen[key].params} and {m.params} are isomorphic")
        seen[key] = m


def _family_maps(cases, n: int, map_type: str, max_order) -> list[FamilyMap]:
    """The maps of the (params, ideal) cases whose ideal builds one.

    Each family yields every ideal once, so no map is built twice.  Families
    that walk their choices with bounded_combinations pass max_order=None
    here: the walk already keeps only the choices within the bound.
    """
    out = []
    for params, Q in cases:
        rec = _try_build(Q, n, map_type, max_order)
        if rec is not None:
            out.append(FamilyMap(params, Q, rec))
    _assert_pairwise_distinct(out)
    return out


def classify_cyclic(p: int, k: int, n: int, max_order=None) -> list[FamilyMap]:
    """Maps on the cyclic group of order p^k: one per surviving unit root."""
    if n < 2:
        raise ValueError("n must exceed 1")
    mod = Modulus(p, k)
    context = Poly.x_pow_plus_const(n, 1, mod)
    cases = (
        (_params("cyclic", mu=mu), canonical_form([Poly([-mu, 1], mod)], context))
        for mu in solve_unit_roots(p, k, n)
    )
    return _family_maps(cases, n, "I", max_order)


def classify_elementary(p: int, m: int, n: int, map_type: str = "I", max_order=None) -> list[FamilyMap]:
    """Maps on the rank-m elementary group via exponent functions on the labels.

    Exponents run over 0..p^r (the full multiplicity of each base factor in
    x^n+1); the narrow reading 0..r with its image/lcm clauses is evaluated
    by family_elementary_narrow_count for comparison.
    """
    if map_type not in ("I", "II"):
        raise ValueError(map_type)
    if map_type == "II" and p != 2:
        raise ValueError("type II requires p = 2")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    r, n_prime = split_p_part(n, p)
    labels = lambda_index(p, n_prime)
    context = Poly.x_pow_plus_const(n, 1, Modulus(p))

    def cases():
        for exps in itertools.product(range(p**r + 1), repeat=len(labels)):
            if sum(e * lab.degree for e, lab in zip(exps, labels)) != m:
                continue
            f = [1]
            for e, lab in zip(exps, labels):
                for _ in range(e):
                    f = coeffs_mul(f, base_factor(p, lab.d, lab.l).coeffs, p)
            K = tuple(((lab.d, lab.l), e) for lab, e in zip(labels, exps))
            yield _params("elementary" + map_type, K=K), box_ideal(context, f, 0)

    return _family_maps(cases(), n, map_type, max_order)


def family_elementary_narrow_count(p: int, m: int, n: int) -> int:
    """Count of exponent functions satisfying the narrow side-condition reading."""
    r, n_prime = split_p_part(n, p)
    labels = lambda_index(p, n_prime)
    count = 0
    for exps in itertools.product(range(r + 1), repeat=len(labels)):
        if r not in exps:
            continue
        if sum(e * lab.degree for e, lab in zip(exps, labels)) != m:
            continue
        lcm = 1
        for e, lab in zip(exps, labels):
            if e:
                lcm = lcm * lab.d // math.gcd(lcm, lab.d)
        if lcm != n_prime:
            continue
        count += 1
    return count


@lru_cache(maxsize=None)
def _two_group_components(k: int, n: int) -> tuple[tuple, ...]:
    """Per CRT label, ((j, kk), ideal) for each distinct component ideal
    (2^j tilde^kk, 2^(j+1)), under the least (j, kk) that gives it.

    Only tilde mod 2, the base factor g, matters, so each is the box ideal
    of g^kk at level j.  g^(2^r) is the context mod 2, so (j, 2^r) is the
    ideal (2^(j+1)) of (j + 1, 0), and levels j >= 1 start at kk = 1; the
    index 2^(deg g * (j * 2^r + kk)), which box_ideal certifies, tells every
    other pair apart.  They depend on (k, n) only, so every bound shares
    them.
    """
    r, _ = split_p_part(n, 2)
    split = crt_split(2, k, n)
    comps = []
    for (d, ell), ctx in zip(split.labels, split.contexts):
        g = base_factor(2, d, ell).coeffs
        powers = [[1]]
        for _ in range(2**r):
            powers.append(coeffs_mul(powers[-1], g, 2))
        comps.append(
            tuple(
                ((j, kk), box_ideal(ctx, powers[kk], j))
                for j in range(k)
                for kk in range(min(j, 1), 2**r + 1)
            )
        )
    return tuple(comps)


def classify_2group(k: int, n: int, max_order=None) -> list[FamilyMap]:
    """Maps on abelian 2-groups of exponent 2^k via level/multiplicity functions.

    The (J, K) giving one tuple of component ideals form a product set, so
    the least of them, which names the ideal, is least in every component.
    """
    if n < 2:
        raise ValueError("n must exceed 1")
    labels = crt_split(2, k, n).labels
    choices = sorted(
        (tuple(zip(*tags)), rows)
        for tags, rows, _ in bounded_combinations(_two_group_components(k, n), max_order)
    )
    cases = (
        (_params("two_group", JK=tuple(zip(labels, J, K))), _combined(2, k, n, rows))
        for (J, K), rows in choices
    )
    return _family_maps(cases, n, "I", None)


def two_group_unfiltered_pairs(k: int, n: int) -> int:
    """(J, K) pairs with some label at j = k - 1 and kk != 0, before admissibility."""
    r, n_prime = split_p_part(n, 2)
    L = len(lambda_index(2, n_prime))
    return (k * (2**r + 1)) ** L - (k * (2**r + 1) - 2**r) ** L


def classify_coprime(p: int, k: int, n: int, max_order=None, *, order=None) -> list[FamilyMap]:
    """Odd p coprime to the valence: level functions on the label components.

    max_order keeps the maps on groups of order <= max_order.  order keeps
    only the level functions whose component sizes multiply to exactly
    order (by CRT, the quotient size), as bounded_admissible_candidates
    does, so no ideal of another size is combined or built; the listing is
    the max_order one filtered to that size.  Give at most one of them.
    """
    if p == 2 or math.gcd(n, p) != 1 or n < 2:
        raise ValueError("requires odd p coprime to n, n > 1")
    if max_order is not None and order is not None:
        raise ValueError("give max_order or order, not both")
    split = crt_split(p, k, n)
    levels = [[(j, constant_ideal(p**j, ctx)) for j in range(k + 1)] for ctx in split.contexts]
    cases = (
        (_params("coprime", J=tuple(zip(split.labels, J))), _combined(p, k, n, rows))
        for J, rows, size in bounded_combinations(levels, max_order if order is None else order)
        if order is None or size == order
    )
    return _family_maps(cases, n, "I", None)


def _rank2_generator_check(
    Q: IdealPresentation, n: int, p: int, k: int, k2: int, mu: int, alpha: int, beta: int
) -> None:
    """Verify the explicit generator pairs against the built quotient.

    The quotient of a surviving rank-2 ideal with a double root at mu has
    residues c0 + c1*x with c1 bounded by p^k2; the pairing
    phi(c0 + c1*x) = (c1, c0 + c1*mu) must be a group isomorphism onto
    Z_{p^k2} x Z_{p^k} sending the image of x^(i-1) to the predicted pair.
    With y = x - mu the quotient has y^2 = p*alpha + p*beta*y, so x^i = A + B*y
    with (A, B) <- (mu*A + p*alpha*B, A + (mu + p*beta)*B) from (1, 0); phi(x^i) = (B, A).

    Additivity is checked on the relation rows, not on residue pairs.  Let L
    be the Z-linear map on coefficient rows with L(x^j) = phi(reduced x^j).
    If L kills every Howell row of Q (the "not additive" check), it kills
    the whole relation lattice: N*e_c too, because the target has exponent
    N = p^k.  L and phi agree on the reduced residues 1 and x, so on every
    residue, and each row differs from its reduction by a relation; hence
    L = phi(reduce(.)) on every row, and phi is additive on the quotient.
    """
    N, M = p**k, p**k2
    D = Q.width
    require(Q.residue_bounds() == [1] * (D - 2) + [M, N], "unreduced residue")

    def phi(row) -> tuple[int, int]:
        return (row[D - 2] % M, (row[D - 1] + row[D - 2] * mu) % N)

    images = [phi(w) for w in QuotientRing(Q).x_power_images(max(D, n))]
    require(len({phi(res) for res in Q.residues()}) == M * N, "generator map is not bijective")
    for h in Q.rows:
        first = sum(c * images[D - 1 - j][0] for j, c in enumerate(h)) % M
        second = sum(c * images[D - 1 - j][1] for j, c in enumerate(h)) % N
        require((first, second) == (0, 0), "not additive")
    a, b = 1, 0
    for i in range(1, n + 1):
        if images[i - 1] != (b % M, a):
            raise InvariantViolation(f"generator {i} mismatch")
        a, b = (mu * a + p * alpha * b) % N, (a + (mu + p * beta) * b) % N


def classify_rank2(p: int, k: int, k2: int, n: int, max_order=None) -> list[FamilyMap]:
    """Rank-2 groups Z_{p^k} x Z_{p^k2} for odd p: the four parameter families."""
    if p == 2:
        raise ValueError("rank-2 families require odd p")
    if not (k >= k2 >= 1) or n < 2:
        raise ValueError("need k >= k2 >= 1 and n > 1")
    if max_order is not None and p ** (k + k2) > max_order:
        return []  # every family map lies on the target group, of order p^(k+k2)
    mod = Modulus(p, k)
    r, n_prime = split_p_part(n, p)
    context = Poly.x_pow_plus_const(n, 1, mod)
    target = AbelianGroupTable((p**k2, p**k))
    out = []
    # ideal rows -> case of its family map, or None when it gives none
    seen: dict[tuple, str | None] = {}

    def push(Q, case, rec_params):
        if Q.rows in seen:
            if seen[Q.rows] not in (None, case):
                raise InvariantViolation(f"ideal produced by case {seen[Q.rows]} and case {case}")
            return
        rec = _try_build(Q, n, "I", max_order, target)
        if rec is None:
            seen[Q.rows] = None
            return
        seen[Q.rows] = case
        out.append(FamilyMap(_params("rank2", case=case, **rec_params), Q, rec))

    x = Poly.x(mod)

    # (a) two distinct unit roots, one carried at reduced precision
    if k > k2:
        for mu1 in solve_unit_roots(p, k, n):
            for mu2 in solve_unit_roots(p, k2, n):
                if (mu1 - mu2) % p == 0:
                    continue
                gens = [
                    (x - Poly.constant(mu1, mod)) * (x - Poly.constant(mu2, mod)),
                    Poly.constant(p**k2, mod) * (x - Poly.constant(mu1, mod)),
                ]
                Q = canonical_form(gens, context)
                push(Q, "a", dict(mu1=mu1, mu2=mu2))

    # equal precision: a free rank-2 quotient forces a principal ideal on a
    # monic quadratic divisor, so take them all; the residue of the divisor
    # mod p decides the case tag (split / inert / double root)
    if k == k2:
        quadratics = [Poly([b, a, 1], mod) for a, b in quadratic_divisors(p, k, n)]
        lifts = {}
        for lab in lambda_index(p, n_prime):
            if lab.degree == 2:
                lifts[base_factor(p, lab.d, lab.l).coeffs] = (
                    (lab.d, lab.l),
                    lift_level0_factor(lab.d, lab.l, p, k).poly,
                )
        unit_roots = solve_unit_roots(p, k, n)
        theta = theta_set(p, n)
        for f in quadratics:
            red = f.reduce_mod(Modulus(p))
            roots = [t for t in range(p) if red.evaluate(t) == 0]
            if len(roots) == 2:
                # f divides x^n + 1, so its roots are among the unit roots
                full = [t for t in unit_roots if f.evaluate(t) == 0]
                mu1 = next(t for t in full if t % p == roots[0])
                mu2 = next(t for t in full if t % p == roots[1])
                push(canonical_form([f], context), "a", dict(mu1=mu1, mu2=mu2))
            elif not roots:
                (dl, qlift) = lifts[red.coeffs]
                diff = qlift - f
                require(all(c % p == 0 for c in diff.coeffs), "inert lift differs off p")
                shift = (diff[1] // p, diff[0] // p)
                push(
                    canonical_form([f], context),
                    "b",
                    dict(label=dl, shift=shift, theta_condition=dl[0] in theta),
                )
            elif k == 1:
                push(canonical_form([f], context), "c", dict(mu=roots[0], alpha=0, beta=0))
            else:
                # double root at equal precision k >= 2: outside the four
                # narrow case tags, surfaced in the diagnostics
                push(canonical_form([f], context), "c+", dict(mu=roots[0], coeffs=f.coeffs))

    # (d) double root mod p: <y^2 - p*beta*y - p*alpha, p^k2*y>, y = x - mu.
    # mu, alpha run mod p^(k-1), since k-1 >= k2 and 2k-2 >= k; alpha steps by
    # p^(k-k2-1), else p^k2*y*y leaves a constant; re-centring at mu + p^(k-k2)*s
    # moves p*beta by 2p^(k-k2)*s, so beta runs mod p^(min(k2, k-k2) - 1)
    if k > k2 and r > 0:
        box = p ** (k - 1)
        for mu in sorted(m for m0 in solve_unit_roots(p, 1, n) for m in range(m0, box, p)):
            y = x - Poly.constant(mu, mod)
            for beta in range(p ** (min(k2, k - k2) - 1)):
                square = y**2 - Poly.constant(p * beta, mod) * y
                for alpha in range(0, box, p ** (k - k2 - 1)):
                    gens = [square - Poly.constant(p * alpha, mod), Poly.constant(p**k2, mod) * y]
                    params = dict(mu=mu, alpha=alpha, beta=beta)
                    push(canonical_form(gens, context), "d", params)

    for fm in out:
        d = fm.params.as_dict()
        if d["case"] in ("c", "d"):
            _rank2_generator_check(fm.ideal, n, p, k, k2, d["mu"], d["alpha"], d["beta"])
        elif d["case"] == "a":
            _rank2_eval_check(fm.ideal, n, p, k, k2, d["mu1"], d["mu2"])
    _assert_pairwise_distinct(out)
    return out


def _rank2_eval_check(Q, n, p, k, k2, mu1, mu2):
    """Case (a) generators are evaluation pairs (mu1^i, mu2^i)."""
    N1, N2 = p**k, p**k2

    def evaluate(row, t, N):
        # Horner's rule on a coefficient row, highest degree first
        acc = 0
        for c in row:
            acc = (acc * t + c) % N
        return acc

    for i, omega in enumerate(QuotientRing(Q).x_power_images(n)):
        require(evaluate(omega, mu1, N1) == pow(mu1, i, N1), "not the evaluation at mu1")
        require(evaluate(omega, mu2, N2) == pow(mu2, i, N2), "not the evaluation at mu2")


def rank2_shift_family_outcome(maps: list[FamilyMap]) -> dict:
    """Case-(b) counts for the unshifted, scalar-shift and linear-shift readings."""
    b_maps = [m.params.as_dict()["shift"] for m in maps if m.params.as_dict()["case"] == "b"]
    return {
        "total": len(b_maps),
        "unshifted_reading": len([s for s in b_maps if s == (0, 0)]),
        "scalar_shift_reading": len([s for s in b_maps if s[0] == 0]),
        "beyond_scalar": len([s for s in b_maps if s[0] != 0]),
    }


# ---------------------------------------------------------------------------
# reconciliation against the oracle


def standard_form_maps(group: AbelianGroupTable, valence: int) -> list[FamilyMap]:
    """Maps of the given group and valence read off admissible ideals directly.

    Ideals live over the exponent ring Z_{p^k}, at the n of each case of
    map_cases; type II cases have an elementary 2-group, so (p, k) = (2, 1).
    build_map checks admissibility before it builds, and drops a map on
    another group before it validates and certifies it.
    """
    p, exponents = group.p_type()
    out = []
    for n, map_type in map_cases(group, valence):
        for Q in bounded_admissible_candidates(p, exponents[-1], n, group.order):
            rec = _try_build(Q, n, map_type, group=group)
            if rec is not None:
                out.append(FamilyMap(_params("standard_" + map_type, rows=Q.rows), Q, rec))
    return out


def _match_classes(family: list[FamilyMap], oracle: list[CayleyMapRecord]):
    """Perfect matching between family records and oracle classes, or None.

    Every record here is a certified regular map, so each is isomorphic to
    the one oracle class with its isomorphism_key, if any.
    """
    classes = {isomorphism_key(rec): j for j, rec in enumerate(oracle)}
    used = set()
    pairs = []
    for i, fm in enumerate(family):
        j = classes.get(isomorphism_key(fm.record))
        if j is None or j in used:
            return None
        used.add(j)
        pairs.append((i, j))
    if len(used) != len(oracle):
        return None
    return pairs


class InstanceReport:
    def __init__(
        self,
        invariants: tuple[int, ...],
        valence: int,
        oracle_count: int,
        standard_count: int,
        family_counts: dict,
        matching: list | None,
        diagnostics: dict,
        map_summaries: list,
        ok: bool,
    ):
        self.invariants = invariants
        self.valence = valence
        self.oracle_count = oracle_count
        self.standard_count = standard_count
        self.family_counts = family_counts
        self.matching = matching
        self.diagnostics = diagnostics
        self.map_summaries = map_summaries
        self.ok = ok

    def to_json(self) -> dict:
        return {
            "group": list(self.invariants),
            "valence": self.valence,
            "oracle_count": self.oracle_count,
            "standard_count": self.standard_count,
            "family_counts": {k: v for k, v in sorted(self.family_counts.items())},
            "matching": self.matching,
            "diagnostics": self.diagnostics,
            "maps": self.map_summaries,
            "ok": self.ok,
        }


def _applicable_families(group: AbelianGroupTable, valence: int) -> tuple[dict, list | None]:
    """Family name -> map list restricted to this group, for every family
    whose hypotheses cover the instance; and the 2-group family's maps on
    every group of order <= |group| (None when that family does not apply).

    Each family is asked only for its maps of order |group|, so no map on a
    group of another order is combined, admitted or built.  The exception is
    the 2-group family: its admissible_count_bounded diagnostic counts its
    whole list of order <= |group|.
    """
    p, exponents = group.p_type()
    k = exponents[-1]
    cap = group.order
    fams = {}
    two_group_all = None
    for n, map_type in map_cases(group, valence):
        if k == 1:
            fams["elementary" + map_type] = [
                m
                for m in classify_elementary(p, group.rank, n, map_type, max_order=cap)
                if m.record.group == group
            ]
        if map_type == "II":
            continue  # the other families are type I only
        if group.rank == 1:
            fams["cyclic"] = classify_cyclic(p, k, n, max_order=cap)
        if p == 2:
            two_group_all = classify_2group(k, n, max_order=cap)
            fams["two_group"] = [m for m in two_group_all if m.record.group == group]
        if p != 2 and n % p != 0:
            fams["coprime"] = [
                m for m in classify_coprime(p, k, n, order=cap) if m.record.group == group
            ]
        if p != 2 and group.rank == 2:
            fams["rank2"] = [
                m
                for m in classify_rank2(p, k, exponents[0], n, max_order=cap)
                if m.record.group == group
            ]
    return fams, two_group_all


def cross_check(group_spec, valence: int) -> InstanceReport:
    """Reconcile the oracle, the standard ideal list, and every applicable family."""
    group = AbelianGroupTable.from_spec(group_spec)
    group.p_type()  # a group that is not a p-group fails here, before the oracle runs
    oracle = brute_force_rbcms(group, valence)
    standard = standard_form_maps(group, valence)
    fams, two_group_all = _applicable_families(group, valence)
    matching = _match_classes(standard, oracle)
    ok = len(standard) == len(oracle) and matching is not None
    family_counts = {}
    for name, maps in fams.items():
        family_counts[name] = len(maps)
        if len(maps) != len(oracle) or _match_classes(maps, oracle) is None:
            ok = False
    diagnostics = _instance_diagnostics(group, valence, fams, oracle, two_group_all)
    summaries = []
    for rec in oracle:
        st = map_stats(rec)
        summaries.append(
            {
                "type": rec.map_type,
                "valence": rec.valence,
                "genus": st.genus,
                "faces": st.faces,
                "group": list(rec.group.invariants),
            }
        )
    return InstanceReport(
        group.invariants,
        valence,
        len(oracle),
        len(standard),
        family_counts,
        matching,
        diagnostics,
        summaries,
        ok,
    )


def _instance_diagnostics(group, valence, fams, oracle, two_group_all) -> dict:
    p, exponents = group.p_type()
    k = exponents[-1]
    diag = {}
    if "elementaryI" in fams:
        n = valence // 2
        narrow = family_elementary_narrow_count(p, group.rank, n)
        implemented = len(fams["elementaryI"])
        diag["elementary_exponent_reading"] = {
            "narrow_range_count": narrow,
            "implemented_count": implemented,
            "oracle_count": len([r for r in oracle if r.map_type == "I"]),
            "diverges": narrow != implemented,
        }
    if "elementaryII" in fams:
        narrow = family_elementary_narrow_count(2, group.rank, valence)
        implemented = len(fams["elementaryII"])
        diag["elementary_exponent_reading_involution"] = {
            "narrow_range_count": narrow,
            "implemented_count": implemented,
            "oracle_count": len([r for r in oracle if r.map_type == "II"]),
            "diverges": narrow != implemented,
        }
    if "two_group" in fams:
        n = valence // 2
        diag["two_group_filter"] = {
            "unfiltered_pair_count": two_group_unfiltered_pairs(k, n),
            "admissible_count_bounded": len(two_group_all),
        }
    if "rank2" in fams:
        diag["rank2_shift_family"] = rank2_shift_family_outcome(fams["rank2"])
        diag["rank2_case_partition"] = {
            case: len([m for m in fams["rank2"] if m.params.as_dict()["case"] == case])
            for case in ("a", "b", "c", "c+", "d")
        }
        b_maps = [m for m in fams["rank2"] if m.params.as_dict()["case"] == "b"]
        diag["rank2_inert_label_reading"] = {
            "theta_condition_count": len(
                [m for m in b_maps if m.params.as_dict()["theta_condition"]]
            ),
            "beyond_theta_condition": len(
                [m for m in b_maps if not m.params.as_dict()["theta_condition"]]
            ),
        }
    if "cyclic" in fams:
        n = valence // 2
        roots = solve_unit_roots(p, k, n)
        diag["cyclic_roots"] = {
            "unit_roots": list(roots),
            "surviving": len(fams["cyclic"]),
            "filtered_by_minimality": len(roots) - len(fams["cyclic"]),
        }
    return diag


def abelian_p_groups(p: int, max_order: int) -> list[tuple[int, ...]]:
    """Invariant-factor tuples of all abelian p-groups of order <= max_order."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    out = []
    e = 1
    while p**e <= max_order:
        for part in _partitions(e):
            out.append(tuple(p**i for i in sorted(part)))
        e += 1
    return sorted(out, key=lambda t: (len(t), t))


def _partitions(e: int):
    if e == 0:
        yield []
        return
    def rec(remaining, cap):
        if remaining == 0:
            yield []
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield [first] + rest
    yield from rec(e, e)


class ReconciliationReport:
    def __init__(self):
        self.instances: list[InstanceReport] = []

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.instances)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "instances": [r.to_json() for r in self.instances],
        }


def sweep(primes=(2, 3, 5), max_order: int = 81, max_n: int = 8) -> ReconciliationReport:
    """Cross-check every abelian p-group up to max_order at every valence 2n."""
    report = ReconciliationReport()
    # every prime is checked before the first instance runs; a repeated or
    # reordered prime list gives the same report
    groups = [inv for p in sorted(set(primes)) for inv in abelian_p_groups(p, max_order)]
    for inv in groups:
        group = AbelianGroupTable(inv)
        for n in range(2, max_n + 1):
            if 2 * n > 2 * group.order:
                continue  # no generating set that large exists
            report.instances.append(cross_check(inv, 2 * n))
    return report

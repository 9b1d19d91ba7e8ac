"""Exhaustive and closed-form helpers that only the tests use as references."""

import itertools
import math
from functools import lru_cache, reduce

from rbcm.cayley import (
    CayleyMapRecord,
    _rank_mod_p,
    automorphism_permutations,
    bounded_admissible_candidates,
)
from rbcm.classify import _try_build, solve_unit_roots
from rbcm.errors import InvariantViolation, NotSimpleFactor, TooLarge, require
from rbcm.factorlift import (
    FactorLabel,
    LabeledFactor,
    base_factor,
    bezout_certificate,
    lambda_index,
    radical_sum,
    split_p_part,
)
from rbcm.ideals import (
    ENUM_BUDGET,
    CrtSplit,
    IdealPresentation,
    _ext_gcd,
    _leading,
    _normalizing_unit,
    bounded_combinations,
    canonical_form,
    constant_ideal,
    crt_split,
    enumerate_ideals_between,
    howell_form,
    ideal_of_rows,
    radical_floor,
    radical_multiple,
    x_powers,
    x_step,
    zero_ideal,
)
from rbcm.poly import FieldElement, Poly, divmod_monic, poly_mod, poly_xgcd_field
from rbcm.structure import AbelianGroupTable, QuotientRing
from rbcm.zring import Modulus, divisors, factorize, multiplicative_order


def all_monic(modulus: Modulus, degree: int):
    """All monic polynomials of exact degree over Z_N (test/search helper)."""
    for lower in itertools.product(range(modulus.N), repeat=degree):
        yield Poly(list(lower) + [1], modulus)


def candidates_up_to(p: int, k: int, n: int, bound: int) -> list[IdealPresentation]:
    """bounded_admissible_candidates over every order p^j <= bound, sorted by rows.

    Each call must return quotients of exactly its order, which is checked
    here; the union is every ideal containing x^n+1 of index <= bound.
    """
    out = []
    order = 1
    while order <= bound:
        for Q in bounded_admissible_candidates(p, k, n, order):
            assert Q.quotient_size() == order, (p, k, n, order, Q.rows)
            out.append(Q)
        order *= p
    return sorted(out, key=lambda Q: Q.rows)


def component_radicals(p: int, k: int, n: int) -> list[tuple[Poly, Poly]]:
    """Per label of crt_split(p, k, n): its context and its radical generator."""
    split = crt_split(p, k, n)
    mod = Modulus(p, k)
    return [
        (ctx, base_factor(p, d, ell).reduce_mod(mod))
        for (d, ell), ctx in zip(split.labels, split.contexts)
    ]


@lru_cache(maxsize=None)
def reference_floor_ideals(context: Poly, bound: int, radical_gen: Poly) -> tuple[IdealPresentation, ...]:
    """The ideals of index <= bound of a local component, sorted by rows: the
    path the descent replaced.  Kept per argument tuple, because several tests
    compare against the same components.

    Exhaustive enumeration above the radical floor m^s, which each of them
    contains; when the floor's quotient exceeds ENUM_BUDGET, the old local
    tree, which reads each ideal's maximal subideals off an enumeration of
    the module between m*I and I.
    """
    floor = radical_floor(context, bound, radical_gen)
    if floor.quotient_size() > ENUM_BUDGET:
        return tuple(_reference_local_tree(context, bound, radical_gen))
    return tuple(q for q in enumerate_ideals_between(context, base=floor) if q.quotient_size() <= bound)


def _reference_local_tree(context: Poly, bound: int, radical_gen: Poly) -> list[IdealPresentation]:
    q = context.modulus.p ** radical_gen.degree
    full = constant_ideal(1, context)
    out = {full.rows: full}
    frontier = [full]
    while frontier:
        ideal = frontier.pop()
        index = ideal.quotient_size()
        if index * q > bound:
            continue
        for child in enumerate_ideals_between(context, base=radical_multiple(ideal, radical_gen)):
            if child.quotient_size() != index * q or child.rows in out:
                continue
            if all(ideal.contains_row(r) for r in child.rows):
                out[child.rows] = child
                frontier.append(child)
    return sorted(out.values(), key=lambda x: x.rows)


def reference_bounded_candidates(p: int, k: int, n: int, order: int) -> list[IdealPresentation]:
    """bounded_admissible_candidates with each component read from
    reference_floor_ideals: every tuple of component ideals whose quotient
    sizes multiply to order, combined, sorted by rows."""
    split = crt_split(p, k, n)
    per = [reference_floor_ideals(ctx, order, g) for ctx, g in component_radicals(p, k, n)]
    combos = itertools.product(*per)
    cases = ((None, c) for c in combos if math.prod(q.quotient_size() for q in c) == order)
    return sorted((Q for _, Q in bounded_combinations(split, cases)), key=lambda Q: Q.rows)


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


def reference_sigma_frame(invariants, seed_order):
    """_sigma_frame as it was before it walked a Schreier tree: read off the
    full closure automorphism_permutations, keeping the first automorphism
    that sends m to each seed and every one that fixes m."""
    group = AbelianGroupTable(invariants)
    els, idx = group.tables()
    seeds = [i for i, e in enumerate(els) if group.element_order(e) == seed_order]
    perms = automorphism_permutations(invariants)
    m = seeds[0]
    movers = {}
    for perm in perms:
        movers.setdefault(perm[m], perm)
    require(sorted(movers) == seeds, "seeds form more than one Aut(G)-orbit")
    stabilizer = tuple(perm for perm in perms if perm[m] == m)
    firsts, marked = [], set()
    for t in seeds:
        if t not in marked:
            firsts.append(t)
            marked.update(s[t] for s in stabilizer)
    neg = tuple(idx[group.neg(e)] for e in els)
    return m, movers, tuple(firsts), stabilizer, neg


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


def reference_sigma_walk(group: AbelianGroupTable, n: int, map_type: str):
    """Sigma mode as it was before it grew least cycles: walk the seed's
    orbit under every automorphism and key each cycle by its minimal image
    under the seed's stabilizer."""
    perms = automorphism_permutations(group.invariants)
    els, idx = group.tables()
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
        if len(set(cycle)) != len(cycle) or 0 in cycle:  # index 0 is the zero
            continue
        key = keys.get(cycle)
        if key is None:
            key = keys[cycle] = _minimal_image(cycle, stabilizer)
        if key in records:
            continue
        gens = [els[i] for i in key]
        records[key] = CayleyMapRecord(group, gens, map_type) if group.generates(gens) else None
    return [records[key] for key in sorted(records) if records[key] is not None]


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
    """(ok, clause) of is_admissible for type I (or type II, with type2),
    with each x^m + 1 built as a Poly and tested by Q.contains."""

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
    return canonical_form(gens, split.ambient)


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


def reference_enumerate_ideals_between(
    context: Poly,
    base: IdealPresentation | None = None,
) -> list[IdealPresentation]:
    """All ideals of Z_N[x]/(context) containing the base ideal.

    Exhaustive over shift-closed row spans: computes the principal closure of
    every residue (modulo unit scaling and x-shifts), then closes the set
    under pairwise sums.  Marks orbits with every unit of Z_N and takes a
    Howell form for every (ideal, principal) pair.
    """
    if base is None:
        base = zero_ideal(context)
    size = base.quotient_size()
    if size > ENUM_BUDGET:
        raise TooLarge(f"quotient has {size} elements (budget {ENUM_BUDGET})")
    N = context.modulus.N
    D = context.degree
    units = [u for u in range(1, N) if math.gcd(u, N) == 1]
    # x-shifts preserve principal ideals only when x is a unit mod context
    x_invertible = math.gcd(context[0], N) == 1
    seen: set[tuple[int, ...]] = set()
    principals: dict[tuple, IdealPresentation] = {}
    for combo in base.residues():
        if combo in seen or not any(combo):
            continue
        pres = ideal_of_rows([combo], context, base.rows)
        principals.setdefault(pres.rows, pres)
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
    for pres in principals.values():
        found.setdefault(pres.rows, pres)
    frontier = list(found.values())
    plist = list(principals.values())
    while frontier:
        cur = frontier.pop()
        for pr in plist:
            rows = howell_form(list(cur.rows) + list(pr.rows), N, D)
            if rows not in found:
                pres = IdealPresentation(context, rows)
                found[rows] = pres
                frontier.append(pres)
    out = list(found.values())
    out.sort(key=lambda q: q.rows)
    return out


def reference_radical_floor_rows(context, s, radical_gen):
    """Rows of m^s for m = (p, g), from all 2^s products of s generators."""
    modulus = context.modulus
    gens = [Poly.one(modulus)]
    for _ in range(s):
        gens = [a * b for a in gens for b in [Poly.constant(modulus.p, modulus), radical_gen]]
        gens = list({poly_mod(g, context).coeffs: poly_mod(g, context) for g in gens}.values())
    return canonical_form(gens, context).rows


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


def reference_rank2_generator_check(
    Q, n: int, p: int, k: int, k2: int, mu: int, alpha: int, beta: int
) -> None:
    """The rank-2 generator certificate checked on residues.

    phi reads each residue through a Poly (once, then from a cache) and must
    be additive into Z_{p^k2} x Z_{p^k}: phi(a + g) = phi(a) + phi(g) for
    every residue a and each g in {1, x}.  Those two generate the quotient,
    and the b with phi(a + b) = phi(a) + phi(b) for all a are closed under
    addition, so this is additivity on all pairs.  The image of x^i is
    predicted from the binomial sum: with y = x - mu and
    y^2 = p*alpha + p*beta*y, x^i = sum_j C(i, j) mu^(i-j) y^j, where
    y^j = P_j + R_j*y.  classify._rank2_generator_check checks
    additivity on the relation rows and predicts by a recurrence instead, and
    must raise the same messages.
    """
    N, M = p**k, p**k2
    ring = QuotientRing(Q)
    target = AbelianGroupTable((M, N))

    def add(a, b):
        return Q.reduce_row([x + y for x, y in zip(a, b)])

    @lru_cache(maxsize=None)
    def phi(row) -> tuple[int, int]:
        poly = Q.row_to_poly(row)
        c0, c1 = poly[0], poly[1]
        require(all(poly[i] == 0 for i in range(2, Q.width)), "unreduced residue")
        return (c1 % M, (c0 + c1 * mu) % N)

    residues = list(Q.residues())
    images = {phi(res) for res in residues}
    require(len(images) == ring.order == target.order, "generator map is not bijective")
    for g in ring.x_power_images(2):
        for a in residues:
            require(phi(add(a, g)) == target.add(phi(a), phi(g)), "not additive")
    y_powers = [(1, 0)]
    for _ in range(n):
        P, R = y_powers[-1]
        y_powers.append((p * alpha * R, P + p * beta * R))
    for i in range(1, n + 1):
        omega = ring.x_power_image(i - 1)
        weights = [math.comb(i - 1, j) * mu ** (i - 1 - j) for j in range(i)]
        first = sum(w * P for w, (P, _) in zip(weights, y_powers)) % N
        second = sum(w * R for w, (_, R) in zip(weights, y_powers)) % M
        if phi(omega) != (second, first):
            raise InvariantViolation(f"generator {i} mismatch")


def reference_rank2_case_d(p: int, k: int, n: int) -> list[tuple]:
    """Case-(d) ideals on Z_{p^k} x Z_p from the (mu, nu, t) scan.

    The ideal <(x-mu)^2 - p*alpha, p(x-mu) - p^2*nu> for every unit root mu
    mod p^k, nu in steps of p^(k-r-1) (p^r exactly divides n) and
    alpha = p*nu^2 + t*p^(k-2) for t < p^2.  Returns the distinct ideal rows
    that give a map of Z_p x Z_{p^k}, in the order they are first hit.
    """
    N = p**k
    mod = Modulus(p, k)
    r, _ = split_p_part(n, p)
    context = Poly.x_pow_plus_const(n, 1, mod)
    x = Poly.x(mod)
    nu_step = p ** max(k - r - 1, 0)
    alpha_step = p ** max(k - 2, 0)
    seen = {}
    for mu in solve_unit_roots(p, k, n):
        y = x - Poly.constant(mu, mod)
        for nu in range(0, N, nu_step):
            for t in range(min(p * p, N // alpha_step)):
                alpha = (p * nu * nu + t * alpha_step) % N
                gens = [
                    y**2 - Poly.constant(p * alpha, mod),
                    Poly.constant(p, mod) * y - Poly.constant(p * p * nu, mod),
                ]
                Q = canonical_form(gens, context)
                if Q.rows not in seen:
                    rec = _try_build(Q, n, "I")
                    seen[Q.rows] = rec is not None and rec.group.invariants == (p, N)
    return [rows for rows, kept in seen.items() if kept]


def reference_rank2_case_d_full(p: int, k: int, k2: int, n: int) -> set[tuple]:
    """Case-(d) ideals on Z_{p^k} x Z_{p^k2} over unreduced parameter ranges.

    The ideal <y^2 - b*y - a, p^k2*y> with y = x - mu, for every mu mod p^k
    with mu^n = -1 mod p, every p-multiple a mod p^k and every p-multiple b
    mod p^k2.  Returns the distinct ideal rows that give a map of
    Z_{p^k2} x Z_{p^k}.
    """
    N = p**k
    mod = Modulus(p, k)
    context = Poly.x_pow_plus_const(n, 1, mod)
    x = Poly.x(mod)
    seen = {}
    for mu in range(N):
        if (pow(mu, n, p) + 1) % p:
            continue
        y = x - Poly.constant(mu, mod)
        for b in range(0, p**k2, p):
            for a in range(0, N, p):
                gens = [
                    y**2 - Poly.constant(b, mod) * y - Poly.constant(a, mod),
                    Poly.constant(p**k2, mod) * y,
                ]
                Q = canonical_form(gens, context)
                if Q.rows not in seen:
                    rec = _try_build(Q, n, "I")
                    seen[Q.rows] = rec is not None and rec.group.invariants == (p**k2, N)
    return {rows for rows, kept in seen.items() if kept}


# ---------------------------------------------------------------------------
# the Poly path the coefficient-list lifter and CRT split replaced


def reference_lift_coprime_block(gbar: Poly, target: Poly, p: int, k: int) -> Poly:
    """Unique monic divisor of target over Z_{p^k} reducing to gbar mod p, by
    precision-doubling updates of the factor, cofactor and Bezout pair on Poly
    objects, certified by exact division."""
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
    g, h, s, t = (f.reduce_mod(modk) for f in (gbar, hbar, u, v))
    prec = 1
    one = Poly.one(modk)
    while prec < k:
        prec = min(2 * prec, k)
        cap = p**prec
        _, delta = divmod_monic(t * (target - g * h), g)
        g = g + delta
        h, r = divmod_monic(target, g)
        require(all(c % cap == 0 for c in r.coeffs), "Hensel step: factor does not divide target")
        b = s * g + t * h - one
        _, t = divmod_monic(t - t * b, g)
        s, r3 = divmod_monic(one - t * h, g)
        require(all(c % cap == 0 for c in r3.coeffs), "Hensel step: Bezout pair not updated")
    require(poly_mod(target, g).is_zero(), "lift failed the exact-division certificate")
    return g


def reference_lift_level0_factor(d: int, ell: int, p: int, k: int) -> LabeledFactor:
    """The factor of x^d - 1 over Z_{p^k} reducing to base_factor(p, d, ell)."""
    q = reference_base_factor(p, d, ell)
    label = FactorLabel(d, ell, 0, q.degree)
    if k == 1:
        return LabeledFactor(label, q)
    target = Poly.x_pow_plus_const(d, -1, Modulus(p, k))
    quot, rem = divmod_monic(target.reduce_mod(Modulus(p)), q)
    require(rem.is_zero() and not poly_mod(quot, q).is_zero(), "base factor is not simple")
    return LabeledFactor(label, reference_lift_coprime_block(q, target, p, k))


def reference_lift_radical_factor(d: int, ell: int, level: int, p: int, k: int) -> LabeledFactor:
    """The factor at radical level >= 1, reducing to base^(p^(level-1)(p-1))."""
    scale = p ** (level - 1) * (p - 1)
    block = reference_base_factor(p, d, ell) ** scale
    label = FactorLabel(d, ell, level, block.degree)
    if k == 1:
        return LabeledFactor(label, block)
    target = radical_sum(p, k, d * p ** (level - 1))
    return LabeledFactor(label, reference_lift_coprime_block(block, target, p, k))


def reference_factor_xn_plus1(p: int, k: int, n: int) -> tuple[LabeledFactor, ...]:
    """Labeled factors of x^n + 1 over Z_{p^k}, one lift per label and level."""
    r, n_prime = split_p_part(n, p)
    out = []
    for lab in lambda_index(p, n_prime):
        if p == 2:
            out.append(reference_lift_radical_factor(lab.d, lab.l, r + 1, p, k))
            continue
        out.append(reference_lift_level0_factor(lab.d, lab.l, p, k))
        out += [reference_lift_radical_factor(lab.d, lab.l, b, p, k) for b in range(1, r + 1)]
    out.sort(key=lambda f: f.label.as_tuple())
    mod = Modulus(p, k)
    prod = math.prod((f.poly for f in out), start=Poly.one(mod))
    require(prod == Poly.x_pow_plus_const(n, 1, mod), "factor product is not x^n + 1")
    return tuple(out)


def reference_crt_split(p: int, k: int, n: int) -> CrtSplit:
    """crt_split from the per-level factors: each context the product of its
    label's levels, each idempotent v*rest from a Bezout pair (u, v) of the
    context and the product of the others, every embedding row checked."""
    mod = Modulus(p, k)
    one = Poly.one(mod)
    by_lambda: dict[tuple[int, int], Poly] = {}
    for f in reference_factor_xn_plus1(p, k, n):
        key = (f.label.d, f.label.l)
        by_lambda[key] = by_lambda.get(key, one) * f.poly
    labels = tuple(sorted(by_lambda))
    contexts = tuple(by_lambda[key] for key in labels)
    ambient = Poly.x_pow_plus_const(n, 1, mod)
    require(math.prod(contexts, start=one) == ambient, "contexts do not multiply to x^n+1")
    idems, embeddings = [], []
    for i, ctx in enumerate(contexts):
        rest = math.prod((c for j, c in enumerate(contexts) if j != i), start=one)
        _, v = bezout_certificate(ctx, rest)
        e = poly_mod(v * rest, ambient)
        idems.append(e)
        row = tuple(e[n - 1 - c] for c in range(n))
        embeddings.append(tuple(reversed(x_powers(row, ambient, ctx.degree))))
        for c, erow in enumerate(embeddings[-1]):
            f = Poly(erow[::-1], mod)
            for j, other in enumerate(contexts):
                D = other.degree
                got = poly_mod(f, other)
                want = [int(i == j and col == c) for col in range(D)]
                require([got[D - 1 - col] for col in range(D)] == want, "embedding row is wrong")
    require(poly_mod(sum(idems[1:], idems[0]), ambient) == one, "idempotents do not sum to 1")
    return CrtSplit(p, k, n, labels, contexts, tuple(idems), ambient, tuple(embeddings))


def reference_least_irreducible(p: int, m: int) -> Poly:
    """The least monic irreducible of degree m over Z_p, coefficient tuples
    compared low degree first: h is irreducible when gcd(x^(p^j) - x, h) = 1
    for every j <= m/2, with x^(p^j) mod h raised on Poly objects."""
    mod = Modulus(p)
    x = Poly.x(mod)
    if m == 1:
        return x
    for c0 in range(1, p):
        for rest in itertools.product(range(p), repeat=m - 1):
            h = Poly([c0, *rest, 1], mod)
            frob = x
            for _ in range(m // 2):
                frob = FieldElement(frob, h) ** p
                frob = frob.rep
                if poly_xgcd_field(frob - x, h)[0].degree != 0:
                    break
            else:
                return h
    raise AssertionError("no irreducible polynomial found")


@lru_cache(maxsize=None)
def reference_base_factor(p: int, d: int, ell: int) -> Poly:
    """base_factor by the FieldElement search: the lex-least element eta of
    order d in F_{p^m}, the first in lex order whose (q-1)/d-th power has
    order d, then the least of its powers coprime to d; then the product of
    x - eta^(ell*p^j) over the Frobenius orbit."""
    m = multiplicative_order(p, d)
    h = reference_least_irreducible(p, m)
    mod = Modulus(p)
    one = FieldElement(Poly.one(mod), h)
    eta = one
    if d > 1:
        cofactor = (p**m - 1) // d
        for rep in itertools.product(range(p), repeat=m):
            cand = FieldElement(Poly(rep, mod), h)
            if cand.is_zero():
                continue
            w = cand**cofactor
            if w.multiplicative_order() == d:
                break
        eta = min((w**s for s in range(1, d + 1) if math.gcd(s, d) == 1), key=FieldElement.lex_key)
    root = eta**ell
    coeffs = [one]
    conj = root
    for _ in range(m):
        nxt = [FieldElement(Poly.zero(mod), h)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] - c * conj
        coeffs = nxt
        conj = conj**p
    require(conj == root, "Frobenius conjugates did not close up")
    require(all(c.rep.degree <= 0 for c in coeffs), "minimal polynomial outside Z_p")
    return Poly([c.rep[0] for c in coeffs], mod)

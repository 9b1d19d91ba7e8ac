"""Command-line frontend: factorization, lattices, classification, reports.

Exit status 0 on success, 1 on domain errors (the error class name is
printed), 2 on usage errors, which include every ValueError raised for a bad
value.  A crosscheck with an instance that is not ok prints its report, then
exits 1 with ReconciliationMismatch.  All output is deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cayley import brute_force_rbcms, map_stats
from .classify import (
    classify_2group,
    classify_coprime,
    classify_cyclic,
    classify_elementary,
    classify_rank2,
    cross_check,
    sweep,
)
from .errors import DomainError, ReconciliationMismatch
from .factorlift import (
    factor_radical_sum,
    factor_xn_minus1,
    factor_xn_plus1,
    lift_level0_factor,
    lift_radical_factor,
)
from .ideals import enumerate_ideals_containing
from .structure import AbelianGroupTable
from .zring import is_prime


def factor_to_json(lf) -> dict:
    return {
        "d": lf.label.d,
        "l": lf.label.l,
        "level": lf.label.level,
        "coeffs": list(lf.poly.coeffs),
    }


def ideal_to_json(pres) -> dict:
    return {
        "modulus": pres.modulus.N,
        "context": list(pres.context_monic.coeffs),
        "rows": [list(q.coeffs) for q in pres.row_polys()],
    }


def map_to_json(record) -> dict:
    st = map_stats(record)
    return {
        "group": {"invariants": list(record.group.invariants)},
        "omega": [list(w) for w in record.omega],
        "rho": [list(w) for w in record.cycle],
        "genus": st.genus,
        "type": record.map_type,
    }


def rotation_system(record) -> str:
    """Plain-text export: header 'V E F genus', then arc targets per vertex."""
    st = map_stats(record)
    steps = [record.group.translation(w) for w in record.cycle]
    lines = [f"{st.vertices} {st.edges} {st.faces} {st.genus}"]
    for v in range(record.group.order):
        targets = " ".join(str(step[v]) for step in steps)
        lines.append(f"{v}: {targets}")
    return "\n".join(lines) + "\n"


def _emit(args, payload, table_rows=(), table_header=()):
    """Print the payload as JSON, or the table rows under their header.

    table_rows is any iterable, read only for --format table, so a command
    may pass a generator and build no rows for JSON output.
    """
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        rows = list(table_rows)
        header = table_header
        widths = [
            max(len(str(r[i])) for r in [header] + rows) if rows or header else 0
            for i in range(len(header))
        ]
        lines = []
        if header:
            lines.append("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
        for r in rows:
            lines.append("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
        text = "\n".join(lines) + "\n"
    _write(args, text)


def _write(args, text: str) -> None:
    """Write text to -o PATH, or to stdout without one; a PATH that fails is a usage error."""
    if not args.output:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"-o {args.output}: {exc.strerror or exc}") from None


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _parse_group(spec: str) -> AbelianGroupTable:
    """--group as comma-separated cyclic orders, in any order."""
    try:
        return AbelianGroupTable.from_spec([int(t) for t in spec.split(",")])
    except ValueError as exc:
        raise ValueError(f"--group {spec}: {exc}") from None


def cmd_factor(args) -> None:
    _check(is_prime(args.p), "--p must be prime")
    _check(args.k >= 1, "--k must be >= 1")
    _check(args.n >= 1, "--n must be >= 1")
    if args.target == "minus":
        factors = factor_xn_minus1(args.p, args.k, args.n)
    elif args.target == "plus":
        factors = list(factor_xn_plus1(args.p, args.k, args.n))
    else:
        factors = factor_radical_sum(args.p, args.k, args.n)
    payload = [factor_to_json(f) for f in factors]
    rows = [(f.label.d, f.label.l, f.label.level, str(f.poly)) for f in factors]
    _emit(args, payload, rows, ("d", "l", "level", "factor"))


def _lifted_factor(args):
    """The labeled factor named by --p --k --d --l --level."""
    _check(is_prime(args.p), "--p must be prime")
    _check(args.k >= 1, "--k must be >= 1")
    _check(args.d >= 1, "--d must be >= 1")
    _check(args.l >= 1, "--l must be >= 1")
    if args.level == 0:
        return lift_level0_factor(args.d, args.l, args.p, args.k)
    return lift_radical_factor(args.d, args.l, args.level, args.p, args.k)


def cmd_lift(args) -> None:
    lf = _lifted_factor(args)
    _emit(
        args,
        factor_to_json(lf),
        [(lf.label.d, lf.label.l, lf.label.level, str(lf.poly))],
        ("d", "l", "level", "factor"),
    )


def cmd_ideals(args) -> None:
    lf = _lifted_factor(args)
    ideals = enumerate_ideals_containing(lf.poly, label=lf.label)
    payload = [ideal_to_json(q) for q in ideals]
    rows = (
        (i, q.quotient_size(), "; ".join(str(f) for f in q.row_polys()) or "0")
        for i, q in enumerate(ideals)
    )
    _emit(args, payload, rows, ("idx", "quotient", "rows"))


def _run_family(args):
    """The family's maps; a bad flag is a usage error that names it."""
    family, p, n = args.family, args.p, args.n
    if family != "twogroup":  # the 2-group family reads no --p
        _check(is_prime(p), f"--p {p}: {p} is not prime")
    if family in ("coprime", "rank2"):
        _check(p != 2, f"--p 2: {family} needs an odd prime")
    if family == "elementary":
        _check(args.m >= 1, "--m must be >= 1")
        _check(n >= 1, "--n must be >= 1")
        _check(args.map_type == "I" or p == 2, "--map-type II needs --p 2")
        return classify_elementary(p, args.m, n, args.map_type, max_order=args.max_order)
    _check(args.k >= 1, "--k must be >= 1")
    _check(n > 1, "--n must exceed 1")
    if family == "cyclic":
        return classify_cyclic(p, args.k, n, max_order=args.max_order)
    if family == "twogroup":
        return classify_2group(args.k, n, max_order=args.max_order)
    if family == "coprime":
        _check(n % p != 0, f"--n {n}: coprime needs n coprime to --p {p}")
        return classify_coprime(p, args.k, n, max_order=args.max_order)
    _check(family == "rank2", f"unknown family {family}")
    _check(1 <= args.k2 <= args.k, "--k2 must be between 1 and --k")
    return classify_rank2(p, args.k, args.k2, n, max_order=args.max_order)


def cmd_classify(args) -> None:
    maps = _run_family(args)
    payload = [
        {"params": {k: list(v) if isinstance(v, tuple) else v for k, v in m.params.values}}
        | {"ideal": ideal_to_json(m.ideal), "map": map_to_json(m.record)}
        for m in maps
    ]
    rows = (
        (
            i,
            repr(m.params),
            "x".join(str(d) for d in m.invariants),
            map_stats(m.record).genus,
        )
        for i, m in enumerate(maps)
    )
    _emit(args, payload, rows, ("idx", "params", "group", "genus"))


def cmd_oracle(args) -> None:
    inv = _parse_group(args.group)
    classes = brute_force_rbcms(inv, args.valence)
    payload = [map_to_json(r) for r in classes]
    rows = [
        (i, r.map_type, "x".join(str(d) for d in r.group.invariants), map_stats(r).genus)
        for i, r in enumerate(classes)
    ]
    _emit(args, payload, rows, ("idx", "type", "group", "genus"))


def cmd_crosscheck(args) -> None:
    if args.sweep:
        try:
            primes = tuple(int(t) for t in args.primes.split(","))
        except ValueError:
            raise ValueError(f"--primes {args.primes}: not a comma-separated list of integers") from None
        for q in primes:
            _check(is_prime(q), f"--primes {args.primes}: {q} is not prime")
        report = sweep(primes=primes, max_order=args.max_order, max_n=args.max_n)
        payload, instances = report.to_json(), report.instances
    else:
        _check(args.group is not None, "--group required without --sweep")
        group = _parse_group(args.group)
        try:
            group.p_type()
        except ValueError as exc:
            raise ValueError(f"--group {args.group}: {exc}") from None
        r = cross_check(group, args.valence)
        payload, instances = r.to_json(), [r]
    rows = [
        (
            "x".join(str(d) for d in r.invariants),
            r.valence,
            r.oracle_count,
            r.standard_count,
            "ok" if r.ok else "MISMATCH",
        )
        for r in instances
    ]
    _emit(args, payload, rows, ("group", "valence", "oracle", "standard", "status"))
    bad = sum(not r.ok for r in instances)
    if bad:
        raise ReconciliationMismatch(f"{bad} of {len(instances)} instances are not ok")


def cmd_export_map(args) -> None:
    maps = _run_family(args)
    _check(0 <= args.index < len(maps), f"--index out of range (family has {len(maps)} maps)")
    _write(args, rotation_system(maps[args.index].record))


def _add_family_arguments(sub) -> None:
    sub.add_argument("family", choices=["cyclic", "elementary", "twogroup", "coprime", "rank2"])
    sub.add_argument("--p", type=int, default=2)
    sub.add_argument("--k", type=int, default=1)
    sub.add_argument("--k2", type=int, default=1)
    sub.add_argument("--m", type=int, default=1)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--map-type", choices=["I", "II"], default="I", dest="map_type")
    sub.add_argument("--max-order", type=int, default=4096, dest="max_order")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rbcm",
        description="Classify regular balanced Cayley maps on abelian p-groups.",
    )
    ap.add_argument("--format", choices=["json", "table"], default="json")
    ap.add_argument("-o", "--output", default=None)
    subs = ap.add_subparsers(dest="command", required=True)

    f = subs.add_parser("factor", help="labeled factorization of x^n-1, x^n+1 or the radical sum")
    f.add_argument("--p", type=int, required=True)
    f.add_argument("--k", type=int, default=1)
    f.add_argument("--n", type=int, required=True)
    f.add_argument("--target", choices=["minus", "plus", "radical"], default="plus")
    f.set_defaults(func=cmd_factor)

    lf = subs.add_parser("lift", help="lift one labeled factor")
    lf.add_argument("--p", type=int, required=True)
    lf.add_argument("--k", type=int, default=1)
    lf.add_argument("--d", type=int, required=True)
    lf.add_argument("--l", type=int, default=1)
    lf.add_argument("--level", type=int, default=0)
    lf.set_defaults(func=cmd_lift)

    idl = subs.add_parser("ideals", help="ideal lattice above a lifted factor")
    idl.add_argument("--p", type=int, required=True)
    idl.add_argument("--k", type=int, default=1)
    idl.add_argument("--d", type=int, required=True)
    idl.add_argument("--l", type=int, default=1)
    idl.add_argument("--level", type=int, default=0)
    idl.set_defaults(func=cmd_ideals)

    cl = subs.add_parser("classify", help="run one classification family")
    _add_family_arguments(cl)
    cl.set_defaults(func=cmd_classify)

    orc = subs.add_parser("oracle", help="brute-force map classes for a group")
    orc.add_argument("--group", required=True, help="invariant factors, e.g. 2,4")
    orc.add_argument("--valence", type=int, required=True)
    orc.set_defaults(func=cmd_oracle)

    cc = subs.add_parser("crosscheck", help="reconcile families against the oracle")
    cc.add_argument("--group", default=None)
    cc.add_argument("--valence", type=int, default=4)
    cc.add_argument("--sweep", action="store_true")
    cc.add_argument("--primes", default="2,3,5")
    cc.add_argument("--max-order", type=int, default=81, dest="max_order")
    cc.add_argument("--max-n", type=int, default=8, dest="max_n")
    cc.set_defaults(func=cmd_crosscheck)

    ex = subs.add_parser("export-map", help="rotation-system export of a family map")
    _add_family_arguments(ex)
    ex.add_argument("--index", type=int, default=0)
    ex.set_defaults(func=cmd_export_map)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        args.func(args)
    except DomainError as exc:
        print(f"{exc.name}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The rbcm benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists):

* ``sweep-odd`` / ``sweep-2small``: one warm process.  Each pass re-imports
  rbcm (so every module-level cache starts empty) and runs
  ``classify.cross_check`` over a slice of the reconciliation sweep in a
  seed-permuted order.
* ``cold-cli``: three CLI commands, each in a fresh interpreter
  (``python -m rbcm.cli``), in rounds of seed-permuted order; the seed also
  sets ``PYTHONHASHSEED``.  The two north-star commands are among them.

Times are CPU seconds (user + system) of the process doing the work: this
process for the warm sweeps, the child interpreter for the CLI commands and
for set-up.  The toolkit is single-threaded and does no I/O of note, so on
an idle machine this equals wall time.  On a shared host the speed of a CPU
second itself changes by half or more within seconds, so every time is
normalised to a reference speed by a fixed kernel run just before and just
after it and every tenth of a second during it (``calib.py``); the measured
CPU and wall times are kept in the report.  The benchmark and its children
stay on one CPU, the one the kernel measures.

End-to-end metrics, on every workload:

* ``setup_s``: median over fresh interpreters that import rbcm (and, for the
  sweeps, build the instance list), the first one unmeasured.
* ``instances_per_s``: correct instances (or commands) per second over the
  whole run.
* ``instance_p50_s``: the median over instances of each one's latency: on
  the sweeps its mean over the passes, on cold-cli its median over the
  rounds.  On cold-cli that is ``crosscheck --group 9,9 --valence 12``.
* ``instance_tail_s``: the highest percentile of those latencies with at
  least ten instances above it; the report gives the percentile and the
  sample count.  cold-cli has too few commands for that and gives the
  largest, that of ``oracle --group 2,2,2,2 --valence 16``.
* ``peak_rss_mb``: peak RSS of this process, or of the largest child.

Passes over a sweep slice come in pairs, the second in the reverse order of
the first, so that of two instances sharing a cache entry each pays for it
once and an instance's mean latency does not depend on the order the seed
chose; cold-cli runs at least MIN_ROUNDS rounds.  Each command's median
latency is in the cold-cli report line.

``failed_frac`` (mismatches, exceptions and non-zero exits over all
checked outputs) is in the report; it is 0 on a correct build, so it is not
a bounded metric.

Every output is compared byte for byte with a golden recorded by
``capture_goldens.py``.  With ``--trace 0`` the last stdout line holds the
end-to-end metrics; with ``--trace 1`` a separate run wraps each layer's
functions (``tracer.py``) and reports per-layer metrics instead.  The line
before it is a report with the environment header and the detail behind
the metrics; the same report and the trace spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

import bench
import calib
import tracer as tracing

SETUP_SAMPLES = 11
MIN_ROUNDS = 2  # rounds of the CLI commands in one cold-cli run
TAIL_BEYOND = 10


# -- environment -------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit() -> str | None:
    if not (bench.ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=bench.ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((bench.SRC / "rbcm").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(bench.SRC).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(args, hash_seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "cpu_model": _cpu_model(),
        "loadavg_start": list(os.getloadavg()),
        "workload": args.workload,
        "seed": args.seed,
        "hash_seed": hash_seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }


# -- statistics --------------------------------------------------------------


def tail(latencies) -> dict:
    """Highest percentile with at least TAIL_BEYOND samples above it.

    With too few samples there is no such percentile; the maximum is
    reported and ``beyond`` says how many samples lie above it (none).
    """
    xs = sorted(latencies)
    n = len(xs)
    if n > TAIL_BEYOND:
        i = n - 1 - TAIL_BEYOND
        return {"value": xs[i], "pct": 100.0 * (i + 1) / n, "n": n, "beyond": TAIL_BEYOND}
    return {"value": xs[-1], "pct": 100.0, "n": n, "beyond": 0}


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_child(argv: list, hash_seed: int) -> dict:
    """Run one child interpreter to completion; its CPU and wall seconds."""
    c0, t0 = children_cpu(), time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv], env=bench.child_env(hash_seed), cwd=bench.ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    return {
        "cpu": children_cpu() - c0, "wall": time.perf_counter() - t0,
        "rc": proc.returncode, "out": proc.stdout,
    }


def pin_to_one_cpu() -> int | None:
    """Keep this process and its children on one CPU, the one calib measures."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def measure_setup(code: str, hash_seed: int) -> list[float]:
    """Normalised CPU seconds of fresh interpreters that only import rbcm and
    build the instance list, after one unmeasured run that writes bytecode
    caches."""
    samples = []
    with calib.Clock() as clock:
        for i in range(SETUP_SAMPLES + 1):
            child = run_child(["-c", code], hash_seed)
            if child["rc"] != 0:
                raise SystemExit(f"set-up child failed with exit status {child['rc']}")
            seconds = clock.normalise(child["cpu"])
            if i:
                samples.append(seconds)
    return samples


class Tally:
    """Counts checked outputs and remembers what failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


# -- warm sweeps -------------------------------------------------------------


def pass_order(instances: list, seed: int, k: int) -> list:
    """Instance order of pass k: a seed-permuted order, reversed on odd passes.

    Instances that share a cache entry pay for it in whichever comes first,
    so reversing the order lets each of two such instances pay once over a
    pair of passes, and the latencies depend less on the permutation.
    """
    out = list(instances)
    random.Random(f"{seed}:{k // 2}").shuffle(out)
    return out[::-1] if k % 2 else out


def sweep_pass(sweep, goldens: dict, seed: int, k: int, tally: Tally, trace=False) -> dict:
    """Pass k over the slice from a fresh import; returns per-instance rows.

    A row's ``seconds`` is normalised, its ``cpu_s`` as measured.
    """
    bench.fresh_rbcm()
    classify = sys.modules["rbcm.classify"]
    cayley = sys.modules["rbcm.cayley"]
    instances = pass_order(bench.sweep_instances(classify, sweep, sweep.ns), seed, k)
    caches = bench.lru_caches()
    rows = []
    tr = tracing.Tracer(bench.rbcm_modules()).install() if trace else None
    try:
        with calib.Clock(sample=not trace) as clock:
            c_pass, t_pass = clock.cpu(), time.perf_counter()
            for i, (inv, valence) in enumerate(instances):
                key = bench.instance_key(inv, valence)
                before = bench.cache_snapshot(caches)
                if tr is not None:
                    tr.instance = i
                c0 = clock.cpu()
                try:
                    result = classify.cross_check(inv, valence)
                except Exception as exc:  # counted as a failed instance
                    result = exc
                dt = clock.cpu() - c0
                seconds = clock.normalise(dt)
                if isinstance(result, Exception):
                    text = f"{type(result).__name__}: {result}"
                else:
                    text = bench.report_bytes(result)
                ok = tally.check(key, text == goldens[key])
                mode = "sigma" if cayley.aut_candidate_count(inv) <= cayley.AUT_CANDIDATE_LIMIT else "lattice"
                rows.append({
                    "instance": key, "seconds": seconds, "cpu_s": dt, "ok": ok, "oracle_mode": mode,
                    "cache": bench.cache_delta(before, bench.cache_snapshot(caches)),
                })
            cpu, wall = clock.cpu() - c_pass, time.perf_counter() - t_pass
    finally:
        if tr is not None:
            tr.restore()
    return {"rows": rows, "cpu": cpu, "wall": wall, "tracer": tr}


def mean_latencies(passes: list) -> dict:
    """Instance -> its mean latency over the passes."""
    samples: dict = {}
    for p in passes:
        for r in p["rows"]:
            samples.setdefault(r["instance"], []).append(r["seconds"])
    return {k: statistics.fmean(v) for k, v in samples.items()}


def sweep_summary(passes: list) -> dict:
    """Rate over every pass; p50 and tail over each instance's mean latency."""
    rows = [r for p in passes for r in p["rows"]]
    latency = mean_latencies(passes)
    return {
        "instances_per_s": sum(r["ok"] for r in rows) / sum(r["seconds"] for r in rows),
        "instance_p50_s": statistics.median(latency.values()),
        "tail": tail(list(latency.values())),
        "passes": [
            {"seconds": sum(r["seconds"] for r in p["rows"]), "cpu": p["cpu"], "wall": p["wall"]}
            for p in passes
        ],
    }


def cache_totals(rows) -> dict:
    out: dict = {}
    for r in rows:
        for name, (h, m) in r["cache"].items():
            acc = out.setdefault(name, [0, 0])
            acc[0] += h
            acc[1] += m
    return out


def mode_shares(rows) -> dict:
    n = len(rows)
    sigma = sum(r["oracle_mode"] == "sigma" for r in rows)
    return {"sigma": sigma, "lattice": n - sigma, "sigma_share": sigma / n if n else 0.0}


def setup_code_sweep(sweep) -> str:
    return (
        "import rbcm.classify as c\n"
        f"[c.abelian_p_groups(p, {sweep.max_order}) for p in {sweep.primes!r}]\n"
    )


def run_sweep(args, sweep, hash_seed: int, report: dict) -> tuple[dict, Tally]:
    goldens = bench.load_instance_goldens(sweep)
    tally = Tally()
    if args.trace:
        return trace_sweep(args, sweep, goldens, report, tally), tally

    setup = measure_setup(setup_code_sweep(sweep), hash_seed)
    t_start = time.perf_counter()
    passes = []
    while True:
        for _ in range(2):
            passes.append(sweep_pass(sweep, goldens, args.seed, len(passes), tally))
        elapsed = time.perf_counter() - t_start
        if elapsed * (len(passes) + 2) / len(passes) > args.seconds:
            break
    summary = sweep_summary(passes)
    rows = [r for p in passes for r in p["rows"]]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "instances_per_s": (summary["instances_per_s"], "1/s"),
        "instance_p50_s": (summary["instance_p50_s"], "s"),
        "instance_tail_s": (summary["tail"]["value"], "s"),
        "peak_rss_mb": (peak_rss_mb(resource.RUSAGE_SELF), "MB"),
    }
    report.update({
        "setup_samples_s": setup,
        "tail": summary["tail"],
        "passes": summary["passes"],
        "oracle_modes": mode_shares(passes[0]["rows"]),
        "cache_totals": cache_totals(rows),
        "instances": rows,
    })
    return metrics, tally


def trace_sweep(args, sweep, goldens, report, tally) -> dict:
    """One untraced pass, then the same order traced; per-layer metrics."""
    plain = sweep_pass(sweep, goldens, args.seed, 0, tally)
    traced = sweep_pass(sweep, goldens, args.seed, 0, tally, trace=True)
    tr = traced["tracer"]
    rows = traced["rows"]
    overhead = sum(r["seconds"] for r in rows) / sum(r["seconds"] for r in plain["rows"])
    report.update({
        "overhead_ratio": overhead,
        "oracle_modes": mode_shares(rows),
        "counts": tr.counts,
        "stats": tr.stats(),
    })
    write_spans(args, tr.span_records())
    return layer_metrics(tr.stats(), tr.counts, tr.phase_seconds(), cache_totals(rows), overhead, report)


# -- cold CLI ----------------------------------------------------------------


def run_cold_cli(args, hash_seed: int, report: dict) -> tuple[dict, Tally]:
    goldens = {name: bench.load_cli_golden(name) for name in bench.CLI_COMMANDS}
    tally = Tally()
    rng = random.Random(args.seed)
    if args.trace:
        return trace_cold_cli(args, goldens, hash_seed, rng, report, tally), tally

    setup = measure_setup("import rbcm.cli\n", hash_seed)
    runs: dict = {name: [] for name in bench.CLI_COMMANDS}
    rounds = []
    t_start = time.perf_counter()
    with calib.Clock() as clock:
        while True:
            order = list(bench.CLI_COMMANDS)
            rng.shuffle(order)
            seconds = cpu = wall = 0.0
            good = 0
            for name in order:
                child = run_child(["-m", "rbcm.cli", *bench.CLI_COMMANDS[name]], hash_seed)
                child["seconds"] = clock.normalise(child["cpu"])
                runs[name].append({k: child[k] for k in ("seconds", "cpu", "wall")})
                seconds, cpu, wall = seconds + child["seconds"], cpu + child["cpu"], wall + child["wall"]
                good += tally.check(name, child["rc"] == 0 and child["out"] == goldens[name])
            rounds.append({"order": order, "seconds": seconds, "cpu": cpu, "wall": wall, "ok": good})
            elapsed = time.perf_counter() - t_start
            if len(rounds) >= MIN_ROUNDS and elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                break
    latency = {name: statistics.median(x["seconds"] for x in xs) for name, xs in runs.items()}
    tl = tail(latency.values())
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "instances_per_s": (sum(r["ok"] for r in rounds) / sum(r["seconds"] for r in rounds), "1/s"),
        "instance_p50_s": (statistics.median(latency.values()), "s"),
        "instance_tail_s": (tl["value"], "s"),
        "peak_rss_mb": (peak_rss_mb(resource.RUSAGE_CHILDREN), "MB"),
    }
    report.update({
        "setup_samples_s": setup, "median_latency_s": latency, "commands": runs, "tail": tl,
        "rounds": rounds,
    })
    return metrics, tally


def trace_cold_cli(args, goldens, hash_seed, rng, report, tally) -> dict:
    """Each command once plainly and once through the tracing launcher."""
    bench.OUT_DIR.mkdir(parents=True, exist_ok=True)
    order = list(bench.CLI_COMMANDS)
    rng.shuffle(order)
    plain_cpu = traced_cpu = 0.0
    parts = []
    for name in order:
        argv = list(bench.CLI_COMMANDS[name])
        child = run_child(["-m", "rbcm.cli", *argv], hash_seed)
        plain_cpu += child["cpu"]
        tally.check(name, child["rc"] == 0 and child["out"] == goldens[name])
        dump = bench.OUT_DIR / f"cold-cli-trace-{name}.json"
        child = run_child([str(bench.BENCH_DIR / "trace_child.py"), str(dump), *argv], hash_seed)
        traced_cpu += child["cpu"]
        if tally.check(f"{name} (traced)", child["rc"] == 0 and child["out"] == goldens[name]):
            parts.append(json.loads(dump.read_text(encoding="utf-8")))
    stats = tracing.merge_stats(p["stats"] for p in parts)
    counts = {k: sum(p["counts"][k] for p in parts) for k in parts[0]["counts"]} if parts else {}
    phases = {k: sum(p["phases"][k] for p in parts) for k in tracing.PHASES}
    caches = cache_totals([{"cache": p["cache"]} for p in parts])
    overhead = traced_cpu / plain_cpu
    report.update({"overhead_ratio": overhead, "counts": counts, "stats": stats})
    return layer_metrics(stats, counts, phases, caches, overhead, report)


# -- per-layer metrics -------------------------------------------------------


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(stats, counts, phases, caches, overhead, report) -> dict:
    """Every per-layer metric named in layers.json, from one traced run."""
    spec = json.loads((bench.BENCH_DIR / "layers.json").read_text(encoding="utf-8"))
    out = {}
    bases = {}
    for entry in spec["metrics"]:
        name = entry["name"]
        target, _, stat = name.rpartition(".")
        if stat in ("calls", "total_s", "self_s"):
            value = stats[target][stat]
        elif stat == "hit_ratio":
            hits, misses = caches.get(target, (0, 0))
            value, bases[name] = _ratio(hits, hits + misses), hits + misses
        elif name.startswith("classify.phase."):
            value = phases[stat[: -len("_s")]]
        elif name == "cayley.automorphism_matrices.kept_ratio":
            value, bases[name] = _ratio(counts["aut_kept"], counts["aut_candidates"]), counts["aut_candidates"]
        elif name == "cayley.maps_isomorphic.true_ratio":
            calls = stats["cayley.maps_isomorphic"]["calls"]
            value, bases[name] = _ratio(counts["iso_true"], calls), calls
        elif name == "cayley.bounded_admissible_candidates.returned":
            value = counts["bac_returned"]
        elif name == "classify.standard.kept_ratio":
            value, bases[name] = _ratio(counts["standard_kept"], counts["standard_scanned"]), counts["standard_scanned"]
        elif name == "classify.cross_check.residual_share":
            cc = stats["classify.cross_check"]
            value, bases[name] = _ratio(cc["self_s"], cc["total_s"]), cc["total_s"]
        elif name == "bench.trace.overhead_ratio":
            value = overhead
        else:
            raise KeyError(f"no rule for per-layer metric {name}")
        out[name] = (value, entry["unit"])
    report["ratio_bases"] = bases
    return out


def write_spans(args, spans: list) -> None:
    bench.OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = bench.OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json"
    path.write_text(json.dumps(spans), encoding="utf-8")


# -- entry point -------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="rbcm benchmark")
    ap.add_argument("--workload", required=True, choices=[*bench.SWEEPS, "cold-cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench.use_source_tree()
    hash_seed = args.seed % 4294967296
    cpu = pin_to_one_cpu()
    report = {"env": {**environment(args, hash_seed), "cpu": cpu}}
    if args.workload == "cold-cli":
        metrics, tally = run_cold_cli(args, hash_seed, report)
    else:
        metrics, tally = run_sweep(args, bench.SWEEPS[args.workload], hash_seed, report)
    failed = len(tally.failures)
    report["failures"] = tally.failures
    report["failed_frac"] = failed / tally.attempted

    bench.OUT_DIR.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (bench.OUT_DIR / name).write_text(json.dumps(report, indent=1), encoding="utf-8")
    report.pop("instances", None)
    report.pop("stats", None)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Shared pieces of the rbcm benchmark: workloads, goldens and module state.

The benchmark runs against the ``src/`` tree of the checkout it sits in,
without ``pip install``.  Every workload is defined here; ``run.py`` times
them, ``tracer.py`` attributes their cost to layers, ``capture_goldens.py``
records the expected outputs and ``check_sweep.py`` diffs the full sweep.
"""

from __future__ import annotations

import gc
import importlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDENS = BENCH_DIR / "goldens"
OUT_DIR = BENCH_DIR / "out"

# The modules of the toolkit, which are also the layers the trace reports.
LAYERS = ("zring", "poly", "factorlift", "ideals", "structure", "cayley", "classify", "cli")


@dataclass(frozen=True)
class Sweep:
    """A slice of the reconciliation sweep: ``cross_check`` at valence 2n.

    ``primes``/``max_order`` name the full sweep the goldens cover; ``ns`` is
    the slice of half-valences timed, within the sweep's own rule n <= |G|.
    """

    primes: tuple[int, ...]
    max_order: int
    ns: tuple[int, ...]
    golden: str


SWEEPS = {
    # Valences 4, 8 and 10: 40 of the 90 instances, about 12 s, where the
    # oracle phase outweighs the standard-form list as over the full sweep.
    "sweep-odd": Sweep((3, 5), 81, (2, 4, 5), "sweep-odd.jsonl"),
    # Valences 4, 8 and 10: 29 of the 63 instances, about 8 s.  Valence 16,
    # where four instances take 40 s together, is left out; oracle 2,2,2,2
    # at valence 16 is timed on cold-cli.
    "sweep-2small": Sweep((2,), 16, (2, 4, 5), "sweep-2small.jsonl"),
}

# The single instances of the north star, plus one family listing, as a user
# types them.  Name -> argv after ``rbcm``.
CLI_COMMANDS = {
    "crosscheck_9x9_v12": ("crosscheck", "--group", "9,9", "--valence", "12"),
    "oracle_2x2x2x2_v16": ("oracle", "--group", "2,2,2,2", "--valence", "16"),
    "classify_rank2_p3": (
        "classify", "rank2", "--p", "3", "--k", "2", "--k2", "2", "--n", "6",
        "--max-order", "81",
    ),
}

FULL_SWEEP_ARGV = ("crosscheck", "--sweep", "--max-order", "81", "--max-n", "8")
FULL_SWEEP_GOLDEN = "sweep-report.json"


def use_source_tree() -> None:
    """Import rbcm from the checkout's src/, never from an installed copy."""
    if not (SRC / "rbcm" / "__init__.py").is_file():
        raise SystemExit(f"rbcm sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(hash_seed: int) -> dict:
    """Environment for a child interpreter: PYTHONPATH set explicitly, and
    bytecode caches allowed, so set-up is timed the way a user's import runs."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def fresh_rbcm():
    """Drop every loaded rbcm module and import the package again.

    This empties every cache the toolkit keeps at module level, so each
    measured pass starts from the state a new process would have.
    """
    for name in [m for m in sys.modules if m == "rbcm" or m.startswith("rbcm.")]:
        del sys.modules[name]
    gc.collect()
    return importlib.import_module("rbcm.cli")


def rbcm_modules() -> dict:
    """Layer name -> loaded module object."""
    return {name: sys.modules[f"rbcm.{name}"] for name in LAYERS}


def lru_caches() -> dict:
    """'<layer>.<function>' -> functools cache wrapper, for every cached function."""
    found = {}
    for layer, mod in rbcm_modules().items():
        for attr, obj in vars(mod).items():
            if callable(getattr(obj, "cache_info", None)) and getattr(obj, "__module__", None) == mod.__name__:
                found[f"{layer}.{attr}"] = obj
    return dict(sorted(found.items()))


def cache_snapshot(caches: dict) -> dict:
    return {name: fn.cache_info()[:2] for name, fn in caches.items()}


def cache_delta(before: dict, after: dict) -> dict:
    """name -> [hits, misses] accrued between two snapshots."""
    return {
        name: [after[name][0] - before[name][0], after[name][1] - before[name][1]]
        for name in after
    }


def sweep_instances(classify, sweep: Sweep, ns=None) -> list[tuple[tuple[int, ...], int]]:
    """(invariants, valence) in sweep order, by the rule ``classify.sweep`` uses."""
    ns = range(2, 9) if ns is None else ns
    out = []
    for p in sweep.primes:
        for inv in classify.abelian_p_groups(p, sweep.max_order):
            out.extend((inv, 2 * n) for n in ns if n <= math.prod(inv))
    return out


def instance_key(inv, valence) -> str:
    return f"{'x'.join(map(str, inv))}/v{valence}"


def report_bytes(report) -> str:
    """The byte-exact form an instance report is compared in."""
    return json.dumps(report.to_json(), sort_keys=True, separators=(",", ":"))


def load_instance_goldens(sweep: Sweep) -> dict:
    out = {}
    with open(GOLDENS / sweep.golden, encoding="utf-8") as fh:
        for line in fh:
            doc = json.loads(line)
            out[instance_key(doc["group"], doc["valence"])] = line.rstrip("\n")
    return out


def load_cli_golden(name: str) -> bytes:
    return (GOLDENS / "cli" / f"{name}.out").read_bytes()


def load_full_sweep_golden() -> bytes:
    return (GOLDENS / FULL_SWEEP_GOLDEN).read_bytes()

"""Opt-in byte-identity check of the second reference tier.

    python3 tests/check_tier2.py

Runs ``rbcm crosscheck --sweep --primes 2,3,5,7 --max-order 625 --max-n 8``
with ``RBCM_ORACLE_BUDGET=625`` in a fresh interpreter (894 instances,
a few seconds on one core) and compares its stdout with ``tests/goldens/tier2-report.json``.
It prints the instances that differ from the golden and every instance whose
``ok`` reads false; ``crosscheck`` itself exits 1 when any instance is not
``ok``.  Exit status 0 only when the report is identical to the golden.

The file name keeps pytest from collecting it: the tier stays out of the
default test run.  ``check_tier3.py`` runs the same comparison on two wider
sweeps.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "goldens" / "tier2-report.json"
ARGV = ["crosscheck", "--sweep", "--primes", "2,3,5,7", "--max-order", "625", "--max-n", "8"]
ORACLE_BUDGET = "625"


def instances(data: bytes) -> dict:
    """Instance key "AxB/vV" -> instance report."""
    return {
        f"{'x'.join(map(str, r['group']))}/v{r['valence']}": r
        for r in json.loads(data)["instances"]
    }


def check(tier: str, argv: list[str], oracle_budget: str, golden: Path) -> bool:
    """Run ``rbcm`` with argv and RBCM_ORACLE_BUDGET in a fresh interpreter,
    compare its stdout with the golden and print the verdict, the differing
    instances and those not ``ok``; True only when the report is identical."""
    want = golden.read_bytes()
    env = dict(os.environ, RBCM_ORACLE_BUDGET=oracle_budget)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "rbcm.cli", *argv], env=env, cwd=ROOT, stdout=subprocess.PIPE
    )
    elapsed = time.perf_counter() - t0
    same = proc.returncode == 0 and proc.stdout == want
    try:
        got = instances(proc.stdout)
    except (ValueError, KeyError, TypeError):
        print(f"{tier}: output is not a report (exit {proc.returncode}, {elapsed:.1f} s)")
        return False
    golden_instances = instances(want)
    differing = sorted(
        k for k in got.keys() | golden_instances.keys() if got.get(k) != golden_instances.get(k)
    )
    not_ok = [k for k, r in got.items() if not r["ok"]]
    if same:
        print(f"{tier} report identical to golden ({len(want)} bytes, {elapsed:.1f} s)")
    else:
        print(
            f"{tier} report DIFFERS (exit {proc.returncode}, "
            f"{len(proc.stdout)} vs {len(want)} bytes, {elapsed:.1f} s)"
        )
        print("differing instances:", ", ".join(differing) or "none (formatting only)")
    print(f"instances not ok ({len(not_ok)} of {len(got)}):", ", ".join(not_ok) or "none")
    return same


def main() -> int:
    return 0 if check("tier-2", ARGV, ORACLE_BUDGET, GOLDEN) else 1


if __name__ == "__main__":
    sys.exit(main())

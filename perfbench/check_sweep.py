"""Untimed byte-identity check of the full reconciliation report.

    python3 perfbench/check_sweep.py

Runs ``rbcm crosscheck --sweep --max-order 81 --max-n 8`` in a fresh
interpreter (about 200 s) and compares its stdout with the golden
recorded by ``capture_goldens.py``.  Exit status 0 when identical; 1 with
the first differing lines and the differing instances otherwise.  A change
that claims a speed-up cites this check.
"""

from __future__ import annotations

import difflib
import json
import subprocess
import sys
import time

import bench


def differing_instances(got: bytes, want: bytes) -> list[str]:
    def by_key(data: bytes) -> dict:
        return {bench.instance_key(r["group"], r["valence"]): r for r in json.loads(data)["instances"]}

    try:
        a = by_key(got)
    except (ValueError, KeyError, TypeError):
        return ["<output is not a report>"]
    b = by_key(want)
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def main() -> int:
    bench.use_source_tree()
    want = bench.load_full_sweep_golden()
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "rbcm.cli", *bench.FULL_SWEEP_ARGV],
        env=bench.child_env(0), cwd=bench.ROOT, stdout=subprocess.PIPE,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode == 0 and proc.stdout == want:
        print(f"full sweep report identical to golden ({len(want)} bytes, {elapsed:.1f} s)")
        return 0
    print(f"full sweep report DIFFERS (exit {proc.returncode}, {len(proc.stdout)} vs {len(want)} bytes)")
    diff = difflib.unified_diff(
        want.decode().splitlines(), proc.stdout.decode(errors="replace").splitlines(),
        "golden", "current", n=2, lineterm="",
    )
    for i, line in enumerate(diff):
        if i == 40:
            print("...")
            break
        print(line)
    print("differing instances:", ", ".join(differing_instances(proc.stdout, want)) or "none")
    return 1


if __name__ == "__main__":
    sys.exit(main())

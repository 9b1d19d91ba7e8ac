"""Record the outputs every benchmark run is checked against.

    python3 perfbench/capture_goldens.py

Run this only on a commit whose outputs are known good; the goldens it
writes define what "correct" means for every later run.  It writes one
byte-exact ``InstanceReport.to_json()`` line per instance of both sweeps,
the stdout of each cold-CLI command, and the stdout of the full
reconciliation sweep (about 200 s to compute).
"""

from __future__ import annotations

import subprocess
import sys

import bench


def capture_sweep(name: str) -> None:
    sweep = bench.SWEEPS[name]
    bench.fresh_rbcm()
    classify = sys.modules["rbcm.classify"]
    lines = [
        bench.report_bytes(classify.cross_check(inv, valence))
        for inv, valence in bench.sweep_instances(classify, sweep)
    ]
    (bench.GOLDENS / sweep.golden).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{name}: {len(lines)} instances", file=sys.stderr)


def run_cli(argv) -> bytes:
    proc = subprocess.run(
        [sys.executable, "-m", "rbcm.cli", *argv],
        env=bench.child_env(0), cwd=bench.ROOT, stdout=subprocess.PIPE, check=True,
    )
    return proc.stdout


def main() -> int:
    bench.use_source_tree()
    (bench.GOLDENS / "cli").mkdir(parents=True, exist_ok=True)
    for name in bench.SWEEPS:
        capture_sweep(name)
    for name, argv in bench.CLI_COMMANDS.items():
        (bench.GOLDENS / "cli" / f"{name}.out").write_bytes(run_cli(argv))
        print(f"cli {name}", file=sys.stderr)
    data = run_cli(bench.FULL_SWEEP_ARGV)
    (bench.GOLDENS / bench.FULL_SWEEP_GOLDEN).write_bytes(data)
    print(f"full sweep: {len(data)} bytes", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

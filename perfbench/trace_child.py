"""Run one rbcm CLI command with the layer tracer installed.

    python3 perfbench/trace_child.py DUMP.json <rbcm arguments...>

Used by the traced cold-CLI run in place of ``python -m rbcm.cli``.  It
imports ``rbcm.cli``, wraps every traced function, calls ``main`` with the
given arguments, restores the originals and writes the per-function
statistics, outcome counts, phase times, cache counters and spans to
DUMP.json.  The command's own stdout is left untouched.
"""

from __future__ import annotations

import json
import sys

import bench
import tracer as tracing


def main() -> int:
    dump, argv = sys.argv[1], sys.argv[2:]
    bench.use_source_tree()
    import rbcm.cli

    caches = bench.lru_caches()
    with tracing.Tracer(bench.rbcm_modules()) as tr:
        rc = rbcm.cli.main(argv)
    sys.stdout.flush()
    doc = {
        "stats": tr.stats(),
        "counts": tr.counts,
        "phases": tr.phase_seconds(),
        "cache": {name: list(fn.cache_info()[:2]) for name, fn in caches.items()},
        "spans": tr.span_records(),
    }
    with open(dump, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())

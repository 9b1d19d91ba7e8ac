"""Every function the benchmark's tracer wraps still exists under its name.

``perfbench/tracer.py`` resolves each ``TARGETS`` entry at run time, so a
refactor that renames or deletes one breaks traced benchmark runs; this test
catches that in the ordinary suite.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracer = load_tracer()
    missing = []
    for target in tracer.TARGETS:
        layer, _, qual = target.partition(".")
        module = importlib.import_module(f"rbcm.{layer}")
        if "." in qual:
            cls_name, attr = qual.split(".")
            ok = attr in vars(getattr(module, cls_name, object))
        else:
            ok = callable(getattr(module, qual, None))
        if not ok:
            missing.append(target)
    assert not missing, f"tracer targets missing from rbcm: {missing}"


def test_benchmark_reads_resolve():
    """perfbench/run.py reads these cayley names for every sweep row."""
    from rbcm import cayley

    assert isinstance(cayley.AUT_CANDIDATE_LIMIT, int)
    assert cayley.aut_candidate_count((9, 9)) <= cayley.AUT_CANDIDATE_LIMIT

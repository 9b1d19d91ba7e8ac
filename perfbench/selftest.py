"""Tests of the benchmark itself, on a handful of small instances.

    python3 perfbench/selftest.py

They check that tracing changes no output and leaves no wrapper behind,
that spans nest with non-negative self time, that outputs do not depend on
instance order, that the metric names agree with BENCHMARK.json, that times
are normalised by the kernel run around them, and that the benchmark fails
cleanly where the sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest

import bench
import calib
import run
import tracer as tracing

SMALL = [((2, 2, 2, 2), 4), ((3, 3), 4), ((2, 4), 8), ((9,), 10), ((3, 3, 9), 4)]


def goldens() -> dict:
    out = {}
    for sweep in bench.SWEEPS.values():
        out.update(bench.load_instance_goldens(sweep))
    return out


def reports(instances) -> dict:
    classify = sys.modules["rbcm.classify"]
    return {bench.instance_key(i, v): bench.report_bytes(classify.cross_check(i, v)) for i, v in instances}


def namespace_state() -> dict:
    """id of every attribute of every rbcm module and of the classes in them."""
    state = {}
    for layer, mod in bench.rbcm_modules().items():
        for attr, val in vars(mod).items():
            state[(layer, attr)] = id(val)
            if isinstance(val, type) and val.__module__ == mod.__name__:
                for cattr, cval in vars(val).items():
                    state[(layer, attr, cattr)] = id(cval)
    pkg = sys.modules["rbcm"]
    state.update({("rbcm", attr): id(val) for attr, val in vars(pkg).items()})
    return state


class TracerTests(unittest.TestCase):
    def test_traced_output_identical_to_untraced(self):
        bench.fresh_rbcm()
        plain = reports(SMALL)
        bench.fresh_rbcm()
        with tracing.Tracer(bench.rbcm_modules()) as tr:
            traced = reports(SMALL)
        self.assertEqual(plain, traced)
        want = goldens()
        self.assertEqual(plain, {k: want[k] for k in plain})
        self.assertGreater(tr.stats()["classify.cross_check"]["calls"], 0)

    def test_every_patched_name_restored(self):
        bench.fresh_rbcm()
        before = namespace_state()
        tr = tracing.Tracer(bench.rbcm_modules()).install()
        try:
            during = namespace_state()
            changed = {k for k in before if before[k] != during.get(k)}
            # crt_split is bound in ideals, cayley and classify: all are wrapped.
            self.assertIn(("ideals", "crt_split"), changed)
            self.assertIn(("classify", "crt_split"), changed)
            self.assertIn(("poly", "Poly", "__init__"), changed)
            reports(SMALL[:2])
        finally:
            tr.restore()
        self.assertEqual(before, namespace_state())

    def test_spans_nest_and_self_time_non_negative(self):
        bench.fresh_rbcm()
        with tracing.Tracer(bench.rbcm_modules()) as tr:
            for i, (inv, v) in enumerate(SMALL):
                tr.instance = i
                reports([(inv, v)])
        spans = tr.spans
        self.assertTrue(spans)
        child_ns = [0] * len(spans)
        for sid, (nid, t0, t1, parent, inst) in enumerate(spans):
            self.assertLessEqual(t0, t1)
            if parent >= 0:
                self.assertLess(parent, sid)
                _, p0, p1, _, pinst = spans[parent]
                self.assertLessEqual(p0, t0)
                self.assertLessEqual(t1, p1)
                self.assertEqual(inst, pinst)
                child_ns[parent] += t1 - t0
        for sid, (_, t0, t1, _, _) in enumerate(spans):
            self.assertGreaterEqual((t1 - t0) - child_ns[sid], 0)
        for name, st in tr.stats().items():
            self.assertGreaterEqual(st["self_s"], 0, name)
            self.assertLessEqual(st["self_s"], st["total_s"] + 1e-9 if st["calls"] else 0, name)
        self.assertEqual({s[4] for s in spans}, set(range(len(SMALL))))


class BenchmarkTests(unittest.TestCase):
    def test_outputs_do_not_depend_on_instance_order(self):
        sweep = bench.Sweep((2,), 8, (2, 3, 4), "sweep-2small.jsonl")
        want = bench.load_instance_goldens(bench.SWEEPS["sweep-2small"])
        orders = []
        for seed in (1, 2):
            tally = run.Tally()
            out = run.sweep_pass(sweep, want, seed, 0, tally)
            self.assertEqual(tally.failures, [])
            self.assertGreater(tally.attempted, 10)
            orders.append([r["instance"] for r in out["rows"]])
        self.assertNotEqual(orders[0], orders[1])
        self.assertEqual(sorted(orders[0]), sorted(orders[1]))

    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        layers = json.loads((bench.BENCH_DIR / "layers.json").read_text(encoding="utf-8"))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            [(m["name"], m["unit"], m["better"]) for m in layers["metrics"]],
        )
        end_to_end = {m["name"] for m in spec["end_to_end"]}
        for m in layers["metrics"]:
            self.assertLessEqual(set(m["moves"]), end_to_end, m["name"])
        self.assertEqual(spec["paths"], [bench.BENCH_DIR.name])
        self.assertEqual({w["name"] for w in spec["workloads"]}, {*bench.SWEEPS, "cold-cli"})
        for m in layers["metrics"]:
            target = m["name"].rpartition(".")[0]
            if m["name"].rpartition(".")[2] in ("calls", "total_s", "self_s"):
                self.assertIn(target, tracing.TARGETS)

    def test_odd_passes_reverse_the_order(self):
        items = list(range(30))
        first, second = run.pass_order(items, 5, 0), run.pass_order(items, 5, 1)
        self.assertEqual(second, first[::-1])
        self.assertNotEqual(first, items)
        self.assertNotEqual(run.pass_order(items, 5, 2), first)

    def test_times_are_normalised_by_the_kernel_around_them(self):
        kernel = calib.kernel
        times = iter([calib.REFERENCE_S, 3 * calib.REFERENCE_S])
        calib.kernel = lambda: next(times)
        try:
            clock = calib.Clock()
            self.assertAlmostEqual(clock.normalise(1.0), 0.5)
        finally:
            calib.kernel = kernel
        self.assertGreater(calib.kernel(), 0.0)

    def test_mean_latency_per_instance(self):
        passes = [
            {"rows": [{"instance": "a", "seconds": 2.0}, {"instance": "b", "seconds": 1.0}]},
            {"rows": [{"instance": "b", "seconds": 3.0}, {"instance": "a", "seconds": 0.5}]},
        ]
        self.assertEqual(run.mean_latencies(passes), {"a": 1.25, "b": 2.0})

    def test_tail_percentile(self):
        t = run.tail([float(i) for i in range(40)])
        self.assertEqual((t["value"], t["pct"], t["beyond"]), (29.0, 75.0, 10))
        self.assertEqual(run.tail([3.0, 1.0])["value"], 3.0)

    def test_fails_without_sources(self):
        scratch = bench.OUT_DIR / "selftest-nosrc"
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(bench.BENCH_DIR, scratch / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(bench.ROOT / "BENCHMARK.json", scratch)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "sweep-odd", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=scratch, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    bench.use_source_tree()
    unittest.main()

"""Per-layer attribution by wrapping the toolkit's functions from outside.

A ``Tracer`` replaces each target function with a wrapper in every rbcm
module namespace that bound it (``classify`` and ``cayley`` import several
functions by name), and each target method on its class.  ``restore()``
puts every original back.  Nothing under ``src/`` changes.

Every wrapped call adds to its function's call count, total time (outermost
activation only, so recursion is not counted twice) and self time (its
duration minus the time of wrapped calls made inside it).  Calls of the
coarse functions in ``SPANS`` are also kept as spans: name, start, end,
parent span and instance id, in memory until the run writes them out.
Times are integer nanoseconds from ``time.perf_counter_ns``.
"""

from __future__ import annotations

import functools
import sys
import time

# '<layer>.<qualified name>' of every wrapped function.  Hot leaf functions
# are counted without spans; millions of span records would not fit.
TARGETS = (
    "zring.inverse_mod",
    "poly.divmod_monic",
    "poly.Poly.__init__",
    "poly.Poly.__mul__",
    "factorlift.factor_xn_plus1",
    "factorlift.lift_level0_factor",
    "factorlift.bezout_certificate",
    "ideals.canonical_form",
    "ideals._assert_shift_closed",
    "ideals.howell_form",
    "ideals.IdealPresentation.reduce_row",
    "ideals.IdealPresentation.pivots",
    "ideals.enumerate_ideals_between",
    "ideals.combine_components",
    "ideals.crt_split",
    "ideals.radical_floor",
    "ideals.bounded_ideals_local_tree",
    "ideals.is_admissible",
    "structure.AbelianGroupTable.generates",
    "structure.AbelianGroupTable.tables",
    "structure.smith_normal_form",
    "structure.quotient_isomorphism",
    "structure.QuotientRing.x_power_image",
    "cayley.brute_force_rbcms",
    "cayley._sigma_mode",
    "cayley._rank_mod_p",
    "cayley.automorphism_matrices",
    "cayley.maps_isomorphic",
    "cayley._dedup_classes",
    "cayley.trace_faces",
    "cayley.build_map",
    "cayley._lattice_mode",
    "cayley.bounded_admissible_candidates",
    "classify.cross_check",
    "classify.standard_form_maps",
    "classify._applicable_families",
    "classify._match_classes",
    "classify._instance_diagnostics",
    "classify.classify_2group",
    "cli.main",
    "cli._emit",
)

SPANS = frozenset({
    "factorlift.factor_xn_plus1",
    "ideals.crt_split",
    "ideals.radical_floor",
    "ideals.bounded_ideals_local_tree",
    "cayley.brute_force_rbcms",
    "cayley._sigma_mode",
    "cayley.automorphism_matrices",
    "cayley._dedup_classes",
    "cayley._lattice_mode",
    "cayley.bounded_admissible_candidates",
    "classify.cross_check",
    "classify.standard_form_maps",
    "classify._applicable_families",
    "classify._match_classes",
    "classify._instance_diagnostics",
    "classify.classify_2group",
    "cli.main",
    "cli._emit",
})

# Phases of ``cross_check``: the spans directly under it, by function.
PHASES = {
    "oracle": "cayley.brute_force_rbcms",
    "standard": "classify.standard_form_maps",
    "families": "classify._applicable_families",
    "matching": "classify._match_classes",
    "diagnostics": "classify._instance_diagnostics",
}


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.names = list(TARGETS)
        n = len(self.names)
        self.calls = [0] * n
        self.total_ns = [0] * n
        self.self_ns = [0] * n
        self.spans: list = []
        self.instance = 0
        # Counters of outcomes, for the ratio metrics.
        self.counts = {
            "aut_kept": 0, "aut_candidates": 0, "iso_true": 0,
            "bac_returned": 0, "standard_scanned": 0, "standard_kept": 0,
        }
        self._patched: list = []
        self._stack: list = []  # per active wrapped call: [child ns, name id]
        self._span_stack: list = []
        self._active = [0] * n

    # -- installation -------------------------------------------------------

    def _resolve(self, target: str):
        layer, _, qual = target.partition(".")
        mod = self.modules[layer]
        if "." in qual:
            cls_name, attr = qual.split(".")
            cls = getattr(mod, cls_name)
            return [(cls, attr)], cls.__dict__[attr]
        orig = getattr(mod, qual)
        sites = [
            (m, attr)
            for m in self._namespaces()
            for attr, val in list(vars(m).items())
            if val is orig
        ]
        return sites, orig

    def _namespaces(self):
        seen = list(self.modules.values())
        pkg = sys.modules.get("rbcm")
        if pkg is not None and pkg not in seen:
            seen.append(pkg)
        return seen

    def install(self) -> "Tracer":
        for nid, target in enumerate(self.names):
            sites, orig = self._resolve(target)
            wrapper = self._wrap(orig, nid, target in SPANS, target)
            for owner, attr in sites:
                self._patched.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
        return self

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, orig, nid: int, is_span: bool, target: str):
        calls, total_ns, self_ns, active = self.calls, self.total_ns, self.self_ns, self._active
        stack, spans, span_stack = self._stack, self.spans, self._span_stack
        observe = self._observer(target)
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            calls[nid] += 1
            active[nid] += 1
            frame = [0, nid]
            stack.append(frame)
            if is_span:
                sid = len(spans)
                spans.append(None)
                parent = span_stack[-1] if span_stack else -1
                span_stack.append(sid)
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                active[nid] -= 1
                if not active[nid]:
                    total_ns[nid] += d
                self_ns[nid] += d - frame[0]
                if stack:
                    stack[-1][0] += d
                if is_span:
                    span_stack.pop()
                    spans[sid] = (nid, t0, t1, parent, tracer.instance)
            if observe is not None:
                observe(args, result, stack[-1][1] if stack else -1)
            return result

        functools.update_wrapper(wrapper, orig)
        if hasattr(orig, "cache_info"):
            wrapper.cache_info = orig.cache_info
            wrapper.cache_clear = orig.cache_clear
        return wrapper

    def _observer(self, target: str):
        counts = self.counts
        if target == "cayley.automorphism_matrices":
            count = self.modules["cayley"].aut_candidate_count

            def observe(args, result, parent):
                counts["aut_kept"] += len(result)
                counts["aut_candidates"] += count(args[0])
            return observe
        if target == "cayley.maps_isomorphic":
            def observe(args, result, parent):
                counts["iso_true"] += bool(result)
            return observe
        if target == "cayley.bounded_admissible_candidates":
            standard = self.names.index("classify.standard_form_maps")

            def observe(args, result, parent):
                counts["bac_returned"] += len(result)
                if parent == standard:
                    counts["standard_scanned"] += len(result)
            return observe
        if target == "classify.standard_form_maps":
            def observe(args, result, parent):
                counts["standard_kept"] += len(result)
            return observe
        return None

    # -- summaries ----------------------------------------------------------

    def stats(self) -> dict:
        """'<target>' -> {calls, total_s, self_s}."""
        return {
            name: {
                "calls": self.calls[i],
                "total_s": self.total_ns[i] / 1e9,
                "self_s": self.self_ns[i] / 1e9,
            }
            for i, name in enumerate(self.names)
        }

    def phase_seconds(self) -> dict:
        """Phase name -> seconds spent in spans directly under cross_check."""
        ids = {name: i for i, name in enumerate(self.names)}
        cross = ids["classify.cross_check"]
        phase_of = {ids[fn]: phase for phase, fn in PHASES.items()}
        out = dict.fromkeys(PHASES, 0)
        for nid, t0, t1, parent, _ in self.spans:
            if nid in phase_of and parent >= 0 and self.spans[parent][0] == cross:
                out[phase_of[nid]] += t1 - t0
        return {phase: ns / 1e9 for phase, ns in out.items()}

    def span_records(self) -> list:
        return [
            {"name": self.names[nid], "start_ns": t0, "end_ns": t1, "parent": parent, "instance": inst}
            for nid, t0, t1, parent, inst in self.spans
        ]


def merge_stats(parts) -> dict:
    """Sum several ``Tracer.stats()``-shaped dicts (e.g. one per child process)."""
    out: dict = {}
    for part in parts:
        for name, st in part.items():
            acc = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += st[key]
    return out

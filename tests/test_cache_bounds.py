"""Every functools cache in rbcm has a finite size, or is on the allow-list.

A sweep keeps each cache for the whole process, so a cache without a bound
grows with the sweep.  The caches below predate this check and are keyed by
small integers (group invariants, (p, k, n), (p, d)), so each holds one entry
per group or ring a run touches; new caches must set a finite maxsize.
"""

import importlib
import pkgutil

import rbcm

UNBOUNDED_ALLOWED = {
    "cayley.automorphism_permutations",
    "cayley._sigma_frame",
    "cayley.bounded_admissible_candidates",
    "classify._two_group_components",
    "factorlift.coset_reps",
    "factorlift.base_factor",
    "factorlift.factor_xn_plus1",
    "ideals.crt_split",
    "poly.least_irreducible",
    "poly.build_splitting_field",
    "poly.cyclotomic",
    "structure._group_tables",
    "structure.translation",
}


def rbcm_caches() -> dict:
    """'<module>.<name>' -> cache wrapper, over module functions and class attributes."""
    found = {}
    for info in pkgutil.iter_modules(rbcm.__path__):
        module = importlib.import_module(f"rbcm.{info.name}")
        for attr, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [(attr, obj)]
            if isinstance(obj, type):
                members = [(f"{attr}.{a}", v) for a, v in vars(obj).items()]
            for name, fn in members:
                if callable(getattr(fn, "cache_parameters", None)):
                    found[f"{info.name}.{name}"] = fn
    return found


def test_new_caches_are_bounded():
    caches = rbcm_caches()
    unbounded = {name for name, fn in caches.items() if fn.cache_parameters()["maxsize"] is None}
    assert unbounded <= UNBOUNDED_ALLOWED, f"unbounded caches: {sorted(unbounded - UNBOUNDED_ALLOWED)}"
    # an entry leaves the list once its cache is bounded or gone
    assert UNBOUNDED_ALLOWED <= unbounded, f"stale allow-list: {sorted(UNBOUNDED_ALLOWED - unbounded)}"


def test_shared_builds_are_bounded():
    """The per-process memos of map builds, combinations and descent levels."""
    caches = rbcm_caches()
    for name in ("cayley._realized", "ideals._combined", "ideals.descent_level"):
        maxsize = caches[name].cache_parameters()["maxsize"]
        assert maxsize is not None and 0 < maxsize <= 1 << 16, (name, maxsize)

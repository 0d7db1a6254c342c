"""
In-memory span tracer for the kcrystals benchmark.

The tracer wraps the public functions of the kcrystals modules from the
outside: every module namespace (and module-level dict) that holds one of
the functions gets the wrapper, and methods are wrapped on their class.
Each call records one span; spans are aggregated per layer in memory and
read out with ``snapshot()`` when the process ends.

A layer's ``self_s`` is its span time minus the time covered by wrapped
calls nested inside it, so the ``self_s`` of all layers partitions the
root spans.  Cache hits and misses are ``cache_info()`` deltas taken
between wrapping and ``snapshot()``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# layer name -> (module, attribute) pairs; "Class.method" wraps on the class.
TARGETS = {
    "polynomials.add": [("polynomials", "BetaPolynomial.__add__")],
    "polynomials.mul": [
        ("polynomials", "BetaPolynomial.__mul__"),
        ("polynomials", "BetaPolynomial.__rmul__"),
    ],
    "polynomials.apply_word": [("polynomials", "apply_word")],
    "polynomials.lascoux": [("polynomials", "lascoux")],
    "polynomials.lascoux_atom": [("polynomials", "lascoux_atom")],
    "crystal.ops": [
        ("crystal", "crystal_e"),
        ("crystal", "crystal_f"),
        ("crystal", "kcrystal_e"),
        ("crystal", "kcrystal_f"),
    ],
    "crystal.demazure_subset": [("crystal", "demazure_subset")],
    "crystal.decompose": [("crystal", "decompose")],
    "crystal.ik_strings": [("crystal", "ik_strings")],
    "crystal.flagged_set": [("crystal", "flagged_set")],
    "crystal.atom_subset": [("crystal", "atom_subset")],
    "crystal.beta_character": [("crystal", "beta_character")],
    "keys.lusztig_star": [("keys", "lusztig_star")],
    "keys.right_key": [("keys", "right_key")],
    "keys.k_lusztig_star": [("keys", "k_lusztig_star")],
    "keys.key_partition_report": [("keys", "key_partition_report")],
    "tableaux.enumerate_svt": [("tableaux", "enumerate_svt")],
    "kohnert.closure": [("kohnert", "closure")],
    "kohnert.phi": [("kohnert", "phi")],
    "kohnert.svt_kohnert_move": [("kohnert", "svt_kohnert_move")],
    "skyline.enumerate_skyline": [("skyline", "enumerate_skyline")],
    "skyline.validate_skyline": [("skyline", "validate_skyline")],
    "skyline.psi": [("skyline", "psi")],
    "permutations.coset_reps": [("permutations", "coset_reps")],
    "permutations.bruhat_ideal": [("permutations", "bruhat_ideal")],
    "permutations.reduced_words": [("permutations", "reduced_words")],
    "verify.iter_cases": [("verify", "iter_cases")],
    "verify.run_case": [("verify", "run_case")],
    "cli.main": [("cli", "main")],
}

# Layers whose results are collections: "objects" sums their lengths over
# the calls that did the work (cache misses).
OBJECT_LAYERS = {"tableaux.enumerate_svt", "kohnert.closure", "skyline.enumerate_skyline"}

CALLS, SELF_S, OBJECTS = range(3)

PACKAGE = "kcrystals"


def package_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    ]


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}
        self.root_s = 0.0
        self._stack: list[list[float]] = []
        self._cached: dict[str, list] = {}
        self._baseline: dict[str, tuple[int, int]] = {}

    def wrap(self, layer: str, fn):
        """A wrapper that records one span per call of fn under layer."""
        stack = self._stack
        stat = self.stats.setdefault(layer, [0, 0.0, 0])
        clock = time.perf_counter
        cache_info = getattr(fn, "cache_info", None)
        if cache_info is not None:
            self._cached.setdefault(layer, []).append(fn)
            hits, misses = self._baseline.get(layer, (0, 0))
            info = cache_info()
            self._baseline[layer] = (hits + info.hits, misses + info.misses)
        count_objects = layer in OBJECT_LAYERS

        def wrapper(*args, **kwargs):
            covered = [0.0]
            stack.append(covered)
            misses = cache_info().misses if count_objects and cache_info else 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if count_objects and (cache_info is None or cache_info().misses > misses):
                    stat[OBJECTS] += len(result)
                return result
            finally:
                span = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += span
                else:
                    self.root_s += span
                stat[CALLS] += 1
                stat[SELF_S] += span - covered[0]

        return functools.update_wrapper(wrapper, fn)

    def patch(self, layer: str, original, namespaces) -> None:
        """Replace original by its wrapper wherever the namespaces hold it:
        as a module attribute or as a value of a module-level dict."""
        wrapper = self.wrap(layer, original)
        for namespace in namespaces:
            for name, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, name, wrapper)
                elif isinstance(value, dict):
                    for key, item in value.items():
                        if item is original:
                            value[key] = wrapper

    def install(self) -> None:
        for module_name in {module for targets in TARGETS.values() for module, _ in targets}:
            importlib.import_module(f"{PACKAGE}.{module_name}")
        modules = package_modules()
        by_name = {module.__name__: module for module in modules}
        for layer, targets in TARGETS.items():
            for module_name, attr in targets:
                owner = by_name[f"{PACKAGE}.{module_name}"]
                if "." in attr:
                    class_name, method = attr.split(".")
                    cls = getattr(owner, class_name)
                    setattr(cls, method, self.wrap(layer, cls.__dict__[method]))
                else:
                    self.patch(layer, getattr(owner, attr), modules)

    def _cache_counts(self, layer: str) -> tuple[int, int]:
        infos = [fn.cache_info() for fn in self._cached[layer]]
        return sum(i.hits for i in infos), sum(i.misses for i in infos)

    def snapshot(self) -> dict:
        """Per-layer calls, self_s, objects and cache deltas, plus the total
        time of the root spans; plain data, so it can cross a pipe."""
        layers = {}
        for layer, (calls, self_s, objects) in self.stats.items():
            entry = {"calls": calls, "self_s": self_s, "objects": objects}
            if layer in self._cached:
                hits, misses = self._cache_counts(layer)
                base_hits, base_misses = self._baseline[layer]
                entry["hits"] = hits - base_hits
                entry["misses"] = misses - base_misses
            layers[layer] = entry
        return {"layers": layers, "root_s": self.root_s}


def merge(snapshots) -> dict:
    """Sum snapshots taken in several processes."""
    total = {"layers": {}, "root_s": 0.0}
    for snap in snapshots:
        total["root_s"] += snap["root_s"]
        for layer, entry in snap["layers"].items():
            into = total["layers"].setdefault(layer, {})
            for key, value in entry.items():
                into[key] = into.get(key, 0) + value
    return total

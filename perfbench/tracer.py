"""Timing wrappers installed around the package's public functions.

The wrappers replace each function under every name it is looked up by
(``orbits.move_right_state``, ``constructions.move_right_state``, ...), so
calls between modules are seen too; ``Perm`` methods are replaced on the
class.  Coarse calls (``cli.main``, the ``reports``, ``orbits``,
``class_metrics`` and ``constructions`` entry points) each record a span
with name, start, end, parent and request id, kept in memory until
:meth:`Tracer.dump`.  Hot leaves (``Perm`` methods, ``closure``, the move
functions, ``conjugate_state``) only add to per-name call counts and times.

Every wrapper charges its duration, minus the time of wrapped calls nested
inside it, to its layer as self time.  Code that no wrapper covers (for
example ``Factorization`` parsing) is charged to the nearest wrapped caller.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

LAYERS = ("perms", "words", "orbits", "class_metrics", "constructions", "reports", "cli")

# (layer, module, attribute) of the hot leaves: counted, never spanned.
LEAVES = [
    ("perms", "perms", "Perm.__mul__"),
    ("perms", "perms", "Perm.conjugate"),
    ("perms", "perms", "Perm.inverse"),
    ("perms", "perms", "Perm.cycle_type"),
    ("perms", "perms", "closure"),
    ("words", "words", "move_right_state"),
    ("words", "words", "move_left_state"),
    ("words", "words", "conjugate_state"),
]

SPANS = [
    ("cli", "cli", "main"),
    ("reports", "reports", "count_components"),
    ("reports", "reports", "theorem_report"),
    ("reports", "reports", "emit"),
    ("reports", "reports", "cache_get"),
    ("reports", "reports", "cache_put"),
    ("orbits", "orbits", "enumerate_orbit"),
    ("orbits", "orbits", "are_equivalent"),
    ("orbits", "orbits", "enumerate_fiber"),
    ("orbits", "orbits", "count_orbits_in_fiber"),
    ("orbits", "orbits", "stable_length_scan"),
    ("class_metrics", "class_metrics", "compute_class_metrics"),
    ("class_metrics", "class_metrics", "min_factors_to_transposition"),
    ("class_metrics", "class_metrics", "min_factors_to_transposition_fixing"),
    ("class_metrics", "class_metrics", "generates_full_group"),
    ("constructions", "constructions", "check_centralizer_invariance"),
    ("constructions", "constructions", "check_conjugation_classes"),
    ("constructions", "constructions", "check_braid_relations"),
    ("constructions", "constructions", "check_stable_tail"),
    ("constructions", "constructions", "check_length_formulas"),
    ("constructions", "constructions", "check_defining_relation"),
    ("constructions", "constructions", "rewrite_with_stable_tail"),
]

MODULES = ("hurwitz", "hurwitz.perms", "hurwitz.words", "hurwitz.orbits",
           "hurwitz.class_metrics", "hurwitz.constructions", "hurwitz.reports", "hurwitz.cli")


def _count_result(counters, name, args, result):
    """Work counts read off the return values of the coarse calls."""
    if name == "enumerate_orbit":
        counters["orbit_states"] += result.size
        counters["limit_hits"] += not result.complete
    elif name == "are_equivalent":
        counters["equiv_states"] += result.states_explored
        counters["limit_hits"] += result.status == "unknown"
    elif name == "enumerate_fiber":
        counters["fiber_words"] += result.size
        counters["limit_hits"] += not result.complete
    elif name == "count_orbits_in_fiber" and result.complete:
        spec = args[0]
        d = spec.degree
        per_word = spec.type_vector.total() - 1
        if spec.conjugation_quotient:
            per_word += d * (d - 1) // 2
        counters["uf_edges"] += result.fiber_size * per_word
    elif name.startswith("check_"):
        counters["check_rows"] += len(result.rows)
        counters["certificate_moves"] += sum(len(r.moves or ()) for r in result.rows)
    elif name == "rewrite_with_stable_tail":
        counters["limit_hits"] += (result.detail or "").startswith("max_states")
    elif name == "emit":
        counters["emit_bytes"] += len(result)
    elif name == "cache_get":
        counters["cache_hits"] += result is not None


class Tracer:
    """Self-time accounting over a stack of open wrapped calls."""

    def __init__(self) -> None:
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.calls = defaultdict(lambda: [0, 0.0])      # name -> [calls, inclusive s]
        self.counters = defaultdict(int)
        self.spans: list[tuple] = []
        self.request = None
        self.fiber_in_count_s = 0.0
        # frame: [nested wrapped time, span id, span name]
        self._stack = [[0.0, None, None]]

    def _leaf(self, layer, name, fn):
        stat = self.calls[name]
        stack = self._stack
        layer_self = self.layer_self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, None, None]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                layer_self[layer] += dt - frame[0]
                stack[-1][0] += dt
        return wrapper

    def _span(self, layer, name, fn):
        stat = self.calls[name]
        stack = self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span_id = len(self.spans)
            self.spans.append(None)
            frame = [0.0, span_id, name]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                dt = t1 - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                self.layer_self[layer] += dt - frame[0]
                parent[0] += dt
                self.spans[span_id] = (span_id, parent[1], self.request, f"{layer}.{name}", t0, t1)
                if name == "enumerate_fiber" and parent[2] == "count_orbits_in_fiber":
                    self.fiber_in_count_s += dt
            _count_result(self.counters, name, args, result)
            return result
        return wrapper

    def install(self) -> None:
        """Import the package and replace every traced name in every module."""
        for mod in MODULES:
            __import__(mod)
        for kind, table in ((self._leaf, LEAVES), (self._span, SPANS)):
            for layer, module, attr in table:
                owner_name, _, fname = attr.rpartition(".")
                source = sys.modules["hurwitz." + module]
                if owner_name:
                    owner = getattr(source, owner_name)
                    setattr(owner, fname, kind(layer, attr, getattr(owner, fname)))
                    continue
                original = getattr(source, fname)
                wrapped = kind(layer, fname, original)
                for mod in MODULES:
                    m = sys.modules[mod]
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapped)

    def summary(self) -> dict:
        return {
            "layer_self": self.layer_self,
            "calls": {k: list(v) for k, v in self.calls.items()},
            "counters": dict(self.counters),
            "fiber_in_count_s": self.fiber_in_count_s,
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"summary": self.summary(),
                       "spans": [s for s in self.spans if s is not None]}, handle)

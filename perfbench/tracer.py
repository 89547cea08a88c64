"""Span tracing of isotough's layers, installed from outside the package.

The package modules import names directly (``from .toughness import
exact_isolated_toughness_variant``), so a function is wrapped at every
module attribute that holds it: the binding each consumer looks up at call
time.  Nothing under ``src/`` changes; ``Tracer.installed()`` patches the
bindings and restores them on exit.

Each wrapped call records a span (name, start, end, parent span, operation
id).  Spans stay in memory until ``write`` is called.  Self time is a
span's duration minus the time its child spans cover; calls nest strictly
(one thread, synchronous calls), so that is the duration minus the sum of
the children's durations.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

import networkx
from isotough import canonical, cli, errors, evolve, factors, oracle, \
    toughness

_MODULES = (cli, evolve, factors, canonical, oracle, toughness)

# (defining module, function, span name, modules whose binding is wrapped;
# None means every isotough module that holds the function).
# canonical_code is wrapped only where oracle looks it up: inside
# canonical_form it is the labelling that canonical.form measures.
# hamming_distance is left alone: it is called ~10^4 times per solve and
# costs less than a span.
_TARGETS = (
    (cli, "main", "cli.solve", None),
    (evolve, "run_solver", "evolve.solve", None),
    (evolve, "initial_population", "evolve.breed", None),
    (evolve, "binary_mutation", "evolve.breed", None),
    (evolve, "single_point_crossover", "evolve.breed", None),
    (evolve, "diversity_enhancement", "evolve.diversify", None),
    (toughness, "pseudo_greedy_estimate", "toughness.screen", None),
    (toughness, "exact_isolated_toughness", "toughness.exact", None),
    (toughness, "exact_isolated_toughness_variant", "toughness.exact", None),
    (factors, "requirement_check", "factors.requirement", None),
    (factors, "certify_requirement", "factors.certify", None),
    (factors, "has_fractional_factor", "factors.flow", None),
    (factors, "fractional_k_factor", "factors.flow", None),
    (canonical, "canonical_form", "canonical.form", None),
    (canonical, "deduplicate", "canonical.dedup", None),
    (canonical, "canonical_code", "canonical.code", (oracle,)),
    (networkx, "is_isomorphic", "canonical.vf2", (networkx,)),
    (oracle, "enumerate_exact", "oracle.enumerate", None),
    (oracle, "nonisomorphic_graphs", "oracle.noniso", None),
    (oracle, "explore_minimizers", "oracle.explore", None),
)

LAYERS = ("toughness", "evolve", "canonical", "factors", "oracle", "cli")


class Tracer:
    """Collects spans and per-layer counters while installed."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, op)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span index, name, child seconds]
        self._open: Counter = Counter()
        self.op_id = -1

    # ----- recording ------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, name, 0.0]
        self._stack.append(frame)
        self._open[name] += 1
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._open[name] -= 1
            duration = end - start
            self.spans[index] = (name, start, end, parent, self.op_id)
            self.self_s[name] += duration - frame[2]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][2] += duration

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                if name == "toughness.exact" and self._open["evolve.solve"]:
                    self.counts["exact_in_solve"] += 1
                try:
                    result = fn(*args, **kwargs)
                except errors.CapacityError:
                    if name == "toughness.exact":
                        self.counts["exact_refusals"] += 1
                    raise
                self._observe(name, result)
                return result
        return traced

    def _observe(self, name: str, result) -> None:
        if name == "evolve.solve":
            config = result.config
            self.counts["solves"] += 1
            self.counts["archived"] += len(result.archive)
            if config.n <= config.exact_verify_limit:
                for entry in result.generations:
                    self.counts["passers_verified"] += entry.false_positives \
                        + sum(len(r) for r in entry.buckets.values())
                    self.counts["false_positives"] += entry.false_positives
        elif name == "canonical.dedup":
            self.counts["dedup_classes"] += len(result)
        elif name == "oracle.noniso":
            self.counts["noniso_classes"] += len(result)
        elif name == "oracle.enumerate":
            self.counts["encodings"] += result.total_scanned

    @contextlib.contextmanager
    def installed(self):
        """Patch every target binding; restore the originals on exit."""
        patched = []
        try:
            for home, attribute, name, where in _TARGETS:
                original = getattr(home, attribute)
                wrapper = self._wrap(name, original)
                for module in where or _MODULES:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            patched.append((module, key, value))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for module, key, value in reversed(patched):
                setattr(module, key, value)

    # ----- reporting ------------------------------------------------------

    def layer_metrics(self, operations: int, overheads: list[float]) -> dict:
        """Per-layer metrics; totals are divided by the operation count."""
        per_op = 1.0 / max(operations, 1)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        s, c, n = self.self_s, self.calls, self.counts
        return {
            "toughness.screen.calls": (c["toughness.screen"] * per_op, "count"),
            "toughness.screen.self_s": (s["toughness.screen"] * per_op, "s"),
            "toughness.screen.false_positive_rate": (
                ratio(n["false_positives"], n["passers_verified"]), "ratio"),
            "toughness.exact.calls": (c["toughness.exact"] * per_op, "count"),
            "toughness.exact.self_s": (s["toughness.exact"] * per_op, "s"),
            "toughness.exact.s_per_call": (
                ratio(s["toughness.exact"], c["toughness.exact"]), "s"),
            "toughness.exact.refusals": (n["exact_refusals"] * per_op,
                                         "count"),
            "evolve.breed.calls": (c["evolve.breed"] * per_op, "count"),
            "evolve.breed.self_s": (s["evolve.breed"] * per_op, "s"),
            "evolve.solve.self_s": (s["evolve.solve"] * per_op, "s"),
            "evolve.verify_cache_hit_rate": (
                1.0 - ratio(n["exact_in_solve"], n["passers_verified"])
                if n["passers_verified"] else 0.0, "ratio"),
            "evolve.diversify.self_s": (s["evolve.diversify"] * per_op, "s"),
            "evolve.archived_per_solve": (
                ratio(n["archived"], n["solves"]), "count"),
            "canonical.form.calls": (c["canonical.form"] * per_op, "count"),
            "canonical.form.self_s": (s["canonical.form"] * per_op, "s"),
            "canonical.dedup.self_s": (s["canonical.dedup"] * per_op, "s"),
            "canonical.vf2.calls": (c["canonical.vf2"] * per_op, "count"),
            "canonical.classes": (n["dedup_classes"] * per_op, "count"),
            "canonical.code.calls": (c["canonical.code"] * per_op, "count"),
            "canonical.code.self_s": (s["canonical.code"] * per_op, "s"),
            "factors.flow.calls": (c["factors.flow"] * per_op, "count"),
            "factors.flow.self_s": (s["factors.flow"] * per_op, "s"),
            "factors.certify.self_s": (s["factors.certify"] * per_op, "s"),
            "factors.requirement.calls": (c["factors.requirement"] * per_op,
                                          "count"),
            "factors.requirement.self_s": (s["factors.requirement"] * per_op,
                                           "s"),
            "oracle.enumerate.self_s": (s["oracle.enumerate"] * per_op, "s"),
            "oracle.encodings_per_s": (
                ratio(n["encodings"], s["oracle.enumerate"]), "1/s"),
            "oracle.noniso.self_s": (s["oracle.noniso"] * per_op, "s"),
            "oracle.noniso.classes": (n["noniso_classes"] * per_op, "count"),
            "oracle.explore.self_s": (s["oracle.explore"] * per_op, "s"),
            "cli.solve.self_s": (s["cli.solve"] * per_op, "s"),
            "trace.overhead_s": (statistics.median(overheads), "s"),
        }

    def layer_self_s(self, operations: int) -> dict[str, float]:
        """Self seconds per operation, summed by module."""
        totals = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_s.items():
            layer = name.split(".")[0]
            if layer in totals:
                totals[layer] += seconds / max(operations, 1)
        return totals

    def write(self, path: Path) -> None:
        """Write every recorded span as one gzipped JSON document."""
        with gzip.open(path, "wt") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, handle)

"""Ground-truth companions to the solver.

enumerate_exact scans every adjacency encoding at a given order, computes
minimum degree and the exact variant toughness for each, and records the
per-degree minimum that strictly clears the acceptance bound, together
with a witness.  The scan runs on numpy over fixed-size encoding chunks
whose partial results merge associatively, so chunking never changes the
outcome.

explore_minimizers exhaustively compares the minimizer sets of the plain
and variant parameters over all isomorphism classes up to order 7 (random
sampling beyond), checking that minimizers of different cardinality always
order the same way in both size and isolated count.
"""

from __future__ import annotations

import math
import platform
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .canonical import canonical_code
from .errors import CapacityError
from .evolve import SolverConfig, report, run_solver
from .factors import delta_scope, requirement_bound
from .graphs import Graph, edge_index, pair_count
from .rational import INFINITY, Ratio
from .toughness import exact_isolated_toughness, \
    exact_isolated_toughness_variant

DEFAULT_ENUMERATION_LIMIT = 7
_CHUNK = 1 << 20


@dataclass(frozen=True)
class DegreeOptimum:
    delta: int
    value: Optional[Ratio]        # None when no graph qualifies
    witness: Optional[Graph]


@dataclass
class EnumerationResult:
    n: int
    k: int
    scope: tuple[int, int]
    total_scanned: int
    optima: dict[int, DegreeOptimum]
    elapsed_s: float


def _scan_chunk(start: int, stop: int, n: int, k: int,
                scope: tuple[int, int], position: list[list[int]],
                subset_masks: list[tuple[int, tuple[int, ...]]],
                lcm: int, sentinel: int) -> dict[int, tuple[int, int]]:
    """Per-degree (scaled value, witness code) minima over one code range."""
    lo, hi = scope
    codes = np.arange(start, stop, dtype=np.int64)
    degrees = np.zeros((n, len(codes)), dtype=np.int16)
    for u in range(n):
        for v in range(u + 1, n):
            bit = ((codes >> position[u][v]) & 1).astype(np.int16)
            degrees[u] += bit
            degrees[v] += bit
    delta = degrees.min(axis=0)
    keep = (delta >= lo) & (delta <= hi)
    if not keep.any():
        return {}
    codes = codes[keep]
    delta = delta[keep]

    scaled = np.full(len(codes), sentinel, dtype=np.int64)
    for size_s, outside_masks in subset_masks:
        iso = np.zeros(len(codes), dtype=np.int16)
        for edge_mask in outside_masks:
            iso += (codes & edge_mask) == 0
        qualifies = iso >= 2
        if not qualifies.any():
            continue
        values = size_s * (lcm // (iso[qualifies].astype(np.int64) - 1))
        slot = np.flatnonzero(qualifies)
        np.minimum.at(scaled, slot, values)

    minima: dict[int, tuple[int, int]] = {}
    for d in range(lo, hi + 1):
        bound = requirement_bound(k, d)
        bound_scaled = bound.numerator * lcm // bound.denominator
        picked = (delta == d) & (scaled > bound_scaled)
        if not picked.any():
            continue
        sub = scaled[picked]
        low = int(sub.min())
        witness = int(codes[picked][sub == low].min())
        minima[d] = (low, witness)
    return minima


def enumerate_exact(n: int, k: int, scope: Optional[tuple[int, int]] = None,
                    *, limit: int = DEFAULT_ENUMERATION_LIMIT,
                    force: bool = False, chunk: int = _CHUNK
                    ) -> EnumerationResult:
    """Exhaustive per-degree optima over every encoding of order n."""
    if n < 2:
        raise ValueError("enumeration needs order n >= 2")
    if k < 2:
        raise ValueError("capacity k must be at least 2")
    if n > limit and not force:
        raise CapacityError(
            f"enumerating order {n} means {1 << pair_count(n)} encodings; "
            "pass force to override")
    if scope is None:
        scope = delta_scope(n, k)
    started = time.perf_counter()

    position = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            position[u][v] = edge_index(u, v, n)

    # Deletion sets worth testing leave at least two vertices outside.
    subset_masks = []
    for smask in range(1 << n):
        size_s = smask.bit_count()
        if size_s > n - 2:
            continue
        outside = [v for v in range(n) if not (smask >> v) & 1]
        masks = []
        for v in outside:
            edge_mask = 0
            for u in outside:
                if u != v:
                    edge_mask |= 1 << position[min(u, v)][max(u, v)]
            masks.append(edge_mask)
        subset_masks.append((size_s, tuple(masks)))

    lcm = math.lcm(*range(1, n + 1))
    sentinel = (n + 1) * lcm  # larger than any finite scaled ratio
    total = 1 << pair_count(n)
    merged: dict[int, tuple[int, int]] = {}
    for start in range(0, total, chunk):
        partial = _scan_chunk(start, min(start + chunk, total), n, k, scope,
                              position, subset_masks, lcm, sentinel)
        for d, (value, witness) in partial.items():
            if d not in merged or (value, witness) < merged[d]:
                merged[d] = (value, witness)

    optima: dict[int, DegreeOptimum] = {}
    for d in range(scope[0], scope[1] + 1):
        if d not in merged:
            optima[d] = DegreeOptimum(d, None, None)
            continue
        value_scaled, witness_code = merged[d]
        value: Ratio = INFINITY if value_scaled >= sentinel \
            else Fraction(value_scaled, lcm)
        optima[d] = DegreeOptimum(d, value, Graph(n, witness_code))
    return EnumerationResult(n=n, k=k, scope=scope, total_scanned=total,
                             optima=optima,
                             elapsed_s=time.perf_counter() - started)


# ----- non-isomorphic graph generation --------------------------------------

def nonisomorphic_graphs(n: int) -> list[Graph]:
    """Canonical representatives of every isomorphism class at order n."""
    if n < 1:
        raise ValueError("need order n >= 1")
    level = [Graph(1, 0)]
    for m in range(2, n + 1):
        seen: set[int] = set()
        for g in level:
            base_edges = list(g.edges())
            for mask in range(1 << (m - 1)):
                edges = base_edges + [(u, m - 1) for u in range(m - 1)
                                      if (mask >> u) & 1]
                code = 0
                for u, v in edges:
                    code |= 1 << edge_index(u, v, m)
                seen.add(canonical_code(Graph(m, code)))
        level = [Graph(m, code) for code in sorted(seen)]
    return level


# ----- minimizer cardinality survey -----------------------------------------

@dataclass(frozen=True)
class MinimizerViolation:
    graph: Graph
    plain_set: tuple[int, ...]
    variant_set: tuple[int, ...]
    plain_isolated: int
    variant_isolated: int


@dataclass
class MinimizerSurvey:
    n_max: int
    graphs_checked: int
    pairs_checked: int
    violations: list[MinimizerViolation]
    differing_examples: list[MinimizerViolation]
    sampled: bool = False


def _survey_graph(g: Graph, survey: MinimizerSurvey) -> None:
    plain = exact_isolated_toughness(g)
    variant = exact_isolated_toughness_variant(g)
    if plain.value == INFINITY or variant.value == INFINITY:
        return
    survey.graphs_checked += 1
    recorded = False
    for s_plain, iso_plain in zip(plain.minimizers, plain.witness_i):
        for s_variant, iso_variant in zip(variant.minimizers,
                                          variant.witness_i):
            survey.pairs_checked += 1
            if len(s_plain) == len(s_variant):
                continue
            entry = MinimizerViolation(g, s_plain, s_variant,
                                       iso_plain, iso_variant)
            if len(s_variant) > len(s_plain) and iso_variant > iso_plain:
                if not recorded:
                    survey.differing_examples.append(entry)
                    recorded = True
            else:
                survey.violations.append(entry)


def explore_minimizers(n_max: int, *, samples: int = 200,
                       seed: int = 0) -> MinimizerSurvey:
    """Cross-compare all minimizers of both parameters.

    Exhaustive over isomorphism classes up to order 7; orders beyond are
    spot-checked on seeded random encodings.
    """
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    survey = MinimizerSurvey(n_max=n_max, graphs_checked=0, pairs_checked=0,
                             violations=[], differing_examples=[])
    exhaustive_top = min(n_max, DEFAULT_ENUMERATION_LIMIT)
    for n in range(1, exhaustive_top + 1):
        for g in nonisomorphic_graphs(n):
            _survey_graph(g, survey)
    if n_max > DEFAULT_ENUMERATION_LIMIT:
        survey.sampled = True
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(seed)))
        for n in range(DEFAULT_ENUMERATION_LIMIT + 1, n_max + 1):
            length = pair_count(n)
            for _ in range(samples):
                draws = rng.random(length)
                code = 0
                for at in np.flatnonzero(draws < 0.5):
                    code |= 1 << int(at)
                _survey_graph(Graph(n, code), survey)
    return survey


# ----- benchmark ------------------------------------------------------------

@dataclass
class BenchmarkReport:
    n: int
    k: int
    runs: int
    solver_optima: dict[int, Optional[Ratio]]
    enumeration_optima: dict[int, Optional[Ratio]]
    agreement: dict[int, bool]
    sound: bool
    solver_avg_s: float
    enumeration_s: float
    machine: str = field(default_factory=lambda: platform.platform())


def benchmark(n: int, k: int, *, runs: int = 10, seed: int = 42,
              config: Optional[SolverConfig] = None,
              force: bool = False) -> BenchmarkReport:
    """Solver quality and runtime against the exhaustive enumeration."""
    if runs < 1:
        raise ValueError("need at least one run")
    enumeration = enumerate_exact(n, k, force=force)
    scope = enumeration.scope

    solver_best: dict[int, Optional[Ratio]] = {d: None
                                               for d in range(scope[0],
                                                              scope[1] + 1)}
    total_solver = 0.0
    for at in range(runs):
        if config is None:
            run_config = SolverConfig(n=n, k=k, seed=seed + at)
        else:
            run_config = SolverConfig(
                n=n, k=k, population_size=config.population_size,
                generations=config.generations,
                mutation_rate=config.mutation_rate,
                counterexample_fraction=config.counterexample_fraction,
                seed=seed + at, scope=config.scope,
                exact_verify_limit=config.exact_verify_limit)
        result = run_solver(run_config)
        total_solver += result.timings["total_s"]
        for delta, value in report(result).optima.items():
            if value is None:
                continue
            current = solver_best.get(delta)
            if current is None or value < current:
                solver_best[delta] = value

    agreement: dict[int, bool] = {}
    sound = True
    for d in range(scope[0], scope[1] + 1):
        truth = enumeration.optima[d].value
        found = solver_best[d]
        agreement[d] = found == truth
        if found is not None and (truth is None or found < truth):
            sound = False  # solver claims something enumeration rules out
    return BenchmarkReport(n=n, k=k, runs=runs, solver_optima=solver_best,
                           enumeration_optima={
                               d: o.value for d, o in enumeration.optima.items()},
                           agreement=agreement, sound=sound,
                           solver_avg_s=total_solver / runs,
                           enumeration_s=enumeration.elapsed_s)

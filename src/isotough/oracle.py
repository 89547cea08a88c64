"""Ground-truth companions to the solver.

enumerate_exact scores every isomorphism class of order n from
nonisomorphic_graphs with the exact engine of `toughness`, the same
engine the solver verifies with.  For each minimum degree in scope it
keeps the lowest variant toughness that strictly clears the acceptance
bound, and as witness the smallest labelled encoding over every
relabeling of the classes that reach it.  That witness is the minimum
over all n! relabelings, not canonical_code's class invariant; a small
search finds it by handing out labels from n-1 down, since each label
fixes the next-highest row of the encoding.

nonisomorphic_graphs builds the classes order by order: it adds a vertex
to each class of the order below in every way that leaves the new vertex
with minimum degree, and keeps one canonical code per class.  Deleting a
minimum-degree vertex of any graph leaves a class of the order below, so
no class is lost.

explore_minimizers exhaustively compares the minimizer sets of the plain
and variant parameters over all isomorphism classes up to order 7 (random
sampling beyond), checking that minimizers of different cardinality always
order the same way in both size and isolated count.
"""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .canonical import canonical_code
from .errors import CapacityError
from .evolve import SolverConfig, report, run_solver
from .factors import check_scope, delta_scope, requirement_bound
from .graphs import Graph, from_edges, pair_count
from .rational import INFINITY, Ratio
from .toughness import exact_isolated_toughness, \
    exact_isolated_toughness_variant

DEFAULT_ENUMERATION_LIMIT = 7


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
    total_scanned: int            # labelled encodings the optima cover
    optima: dict[int, DegreeOptimum]
    elapsed_s: float


def _min_code(g: Graph) -> int:
    """Smallest encoding over all relabelings of g.

    Labels go out from n-1 down.  Handing out label a fixes the pairs
    (a, b), b > a, which are the highest bits not yet fixed, so a child
    must give a its smallest possible row; a branch stops once its fixed
    bits exceed the best code.  Of two tied candidates that are twins,
    only the first is tried: swapping them is an automorphism.
    """
    n = g.n
    adj = g.adjacency
    best: Optional[int] = None

    def search(a: int, rows: dict[int, int], code: int) -> None:
        nonlocal best
        if a < 0:
            if best is None or code < best:
                best = code
            return
        low = min(rows.values())
        start = a * (n - 1) - a * (a - 1) // 2  # bit of the pair (a, a+1)
        code |= low >> (a + 1) << start
        if best is not None and code >> start > best >> start:
            return
        tried: list[int] = []
        for v, row in rows.items():
            if row != low or any((adj[u] & ~(1 << v)) == (adj[v] & ~(1 << u))
                                 for u in tried):
                continue
            tried.append(v)
            search(a - 1, {u: r | (adj[v] >> u & 1) << a
                           for u, r in rows.items() if u != v}, code)

    search(n - 1, dict.fromkeys(range(n), 0), 0)
    return best


def enumerate_exact(n: int, k: int, scope: Optional[tuple[int, int]] = None,
                    *, limit: int = DEFAULT_ENUMERATION_LIMIT,
                    force: bool = False) -> EnumerationResult:
    """Exhaustive per-degree optima over every isomorphism class of order n.

    Each optimum is the lowest variant toughness above the bound at that
    minimum degree, witnessed by the smallest encoding of order n that
    attains it; `total_scanned` counts the labelled encodings covered.
    """
    if n < 2:
        raise ValueError("enumeration needs order n >= 2")
    if k < 2:
        raise ValueError("capacity k must be at least 2")
    if n > limit and not force:
        raise CapacityError(
            f"enumeration stops at order {limit}: the isomorphism classes "
            f"of order {n} take far longer to generate and score; "
            "pass force to override")
    if scope is None:
        scope = delta_scope(n, k)
    else:
        check_scope(n, k, scope)
    started = time.perf_counter()

    lo, hi = scope
    best: dict[int, tuple[Ratio, list[Graph]]] = {}
    for g in nonisomorphic_graphs(n):
        d = g.min_degree
        if not lo <= d <= hi:
            continue
        value = exact_isolated_toughness_variant(g).value
        if not value > requirement_bound(k, d):
            continue
        if d not in best or value < best[d][0]:
            best[d] = (value, [g])
        elif value == best[d][0]:
            best[d][1].append(g)

    optima: dict[int, DegreeOptimum] = {}
    for d in range(lo, hi + 1):
        if d not in best:
            optima[d] = DegreeOptimum(d, None, None)
            continue
        value, tied = best[d]
        witness = min(_min_code(g) for g in tied)
        optima[d] = DegreeOptimum(d, value, Graph(n, witness))
    return EnumerationResult(n=n, k=k, scope=scope,
                             total_scanned=1 << pair_count(n), optima=optima,
                             elapsed_s=time.perf_counter() - started)


# ----- non-isomorphic graph generation --------------------------------------

def nonisomorphic_graphs(n: int) -> list[Graph]:
    """Canonical representatives of every isomorphism class at order n.

    A class of order m comes from one of order m-1 plus a new vertex of
    minimum degree in the result, so only those extensions are labelled.
    """
    if n < 1:
        raise ValueError("need order n >= 1")
    level = [Graph(1, 0)]
    for m in range(2, n + 1):
        seen: set[int] = set()
        for g in level:
            base_edges = list(g.edges())
            degrees = g.degrees
            for mask in range(1 << (m - 1)):
                if any(mask.bit_count() > d + (mask >> u & 1)
                       for u, d in enumerate(degrees)):
                    continue
                child = from_edges(m, base_edges + [
                    (u, m - 1) for u in range(m - 1) if (mask >> u) & 1])
                seen.add(canonical_code(child))
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
    base = SolverConfig(n=n, k=k) if config is None else config
    for at in range(runs):
        result = run_solver(replace(base, n=n, k=k, seed=seed + at))
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

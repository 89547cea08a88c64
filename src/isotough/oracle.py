"""Ground-truth companions to the solver.

enumerate_exact decides every isomorphism class of order n from
nonisomorphic_graphs with factors.requirement_check, the same single
acceptance decision the solver makes: the exact engine of `toughness` in
its floor mode drops a class whose value does not clear the bound as
soon as the search finds a ratio at or below it.  For each minimum
degree in scope it keeps the lowest variant toughness that strictly
clears the bound, and as witness the smallest labelled encoding over
every relabeling of the classes that reach it: the least of the tied
classes' minima over all n! relabelings (not canonical_code's invariant),
each found once per process by a cached search that hands out labels
from n-1 down, each fixing the next-highest row of the encoding.

nonisomorphic_graphs builds the classes order by order: it adds a vertex
to each class of the order below in every way that leaves the new vertex
with minimum degree, and keeps one canonical code per class.  Deleting a
minimum-degree vertex of any graph leaves a class of the order below, so
no class is lost.  Swapping two twins of the parent is an automorphism,
so the extension masks are tried one per orbit of those swaps (the
witness search and the class build read one twin rule, _twin_groups): 1808
canonical_code calls at order 7 where every admissible mask took 2690,
and 22 194 against 29 755 at order 8.  Each level's graphs,
sorted by code, are built once per process and shared: Graph is
immutable, and each class decodes its adjacency on first use and keeps
it, so a later call, from enumerate_exact, explore_minimizers or for
another k, neither rebuilds nor decodes a class and pays only for its
searches.  The graphs stay in memory once built, about 0.5 KB each
decoded (274 668 at order 9).  Order m tries at most
|classes(m-1)| * 2^(m-1) masks; at m = 10 the twin orbits still leave
120 417 020, hours of work: hence ENUMERATION_LIMIT, which
nonisomorphic_graphs enforces for every caller before any class is built.

explore_minimizers compares the minimizer sets of the plain and variant
parameters, both from one exact search per graph, over all isomorphism
classes up to ENUMERATION_LIMIT (uniform random encodings beyond, which
needs samples >= 1), checking that minimizers of different cardinality
always order the same way in both size and isolated count.  It reads the
engine's neighbourhood masks and sizes directly and visits only the
pairs of different sizes, in full-product order: it turns masks into
vertices for a violation and counts the graphs with any other such pair.
pairs_checked counts every pair, plain times variant minimizers per graph.
"""

from __future__ import annotations

import functools
import itertools
import platform
import random
import time
from dataclasses import dataclass, field, replace
from typing import Optional

from .canonical import canonical_code
from .errors import CapacityError, InputError
from .evolve import DEFAULT_SEED, SolverConfig, report, run_solver
from .factors import check_capacity, check_scope, delta_scope, \
    require_factor, requirement_check
from .graphs import Graph, _check_order, pair_count, set_bits
from .rational import Ratio
from .toughness import _independent_set_search

ENUMERATION_LIMIT = 9


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


@functools.cache
def _min_code(g: Graph) -> int:
    """Smallest encoding over all relabelings of g.

    Labels go out from n-1 down.  Handing out label a fixes the pairs
    (a, b), b > a, which are the highest bits not yet fixed, so a child
    must give a its smallest possible row: the unlabelled vertices sit in
    cells of equal row, ascending, and labelling v splits each cell into
    v's non-neighbours, then its neighbours, so the first cell holds the
    candidates.  A branch stops once its fixed bits exceed the best code,
    at first g's own.  Of tied twins (_twin_groups) only the first is
    tried, as swapping two is an automorphism.  Cached per graph, so each
    shared class graph is searched at most once per process.
    """
    n, adj, best = g.n, g.adjacency, g.code
    below = {u: sum(1 << w for w in group[:i])  # each vertex's lower twins
             for group in _twin_groups(g) for i, u in enumerate(group)}

    def search(a: int, cells: list[tuple[int, int]], code: int) -> None:
        nonlocal best
        first, low = cells[0]  # (vertices, their row)
        start = a * (n - 1) - a * (a - 1) // 2  # bit of the pair (a, a+1)
        code |= low >> (a + 1) << start
        if code >> start > best >> start:
            return
        if a == 0:
            best = code
            return
        for v in set_bits(first):
            if first & below.get(v, 0):
                continue
            near, split = adj[v], []
            for mask, row in cells:
                mask &= ~(1 << v)
                if mask & ~near:
                    split.append((mask & ~near, row))
                if mask & near:
                    split.append((mask & near, row | 1 << a))
            search(a - 1, split, code)

    search(n - 1, [((1 << n) - 1, 0)], 0)
    return best


def enumerate_exact(n: int, k: int, scope: Optional[tuple[int, int]] = None
                    ) -> EnumerationResult:
    """Exhaustive per-degree optima over every isomorphism class of order n.

    Each optimum is the lowest variant toughness above the bound at that
    minimum degree, witnessed by the smallest encoding of order n that
    attains it, whose fractional k-factor the flow search must build
    (ConsistencyError otherwise); `total_scanned` counts the labelled
    encodings covered.
    Orders above ENUMERATION_LIMIT raise CapacityError before any work.
    """
    if n < 2:
        raise InputError("enumeration needs order n >= 2")
    check_capacity(k)
    if scope is None:
        scope = delta_scope(n, k)
    else:
        check_scope(n, k, scope)
    started = time.perf_counter()

    lo, hi = scope
    best: dict[int, tuple[Ratio, list[Graph]]] = {}
    for g in nonisomorphic_graphs(n):
        verdict = requirement_check(g, k, scope)
        if not verdict.accepted:
            continue
        d, value = verdict.delta, verdict.value
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
        witness = Graph(n, min(map(_min_code, tied)))
        require_factor(witness, k, d, value)
        optima[d] = DegreeOptimum(d, value, witness)
    return EnumerationResult(n=n, k=k, scope=scope,
                             total_scanned=1 << pair_count(n), optima=optima,
                             elapsed_s=time.perf_counter() - started)


# ----- non-isomorphic graph generation --------------------------------------

def nonisomorphic_graphs(n: int) -> list[Graph]:
    """Canonical representatives of every isomorphism class at order n,
    ascending by code.

    A class of order m comes from one of order m-1 plus a new vertex of
    minimum degree in the result, so only those extensions are labelled.
    Each level is built once per process, and every call hands out the
    same Graph objects, decoded at most once each; the returned list
    itself is the caller's own.  Orders above ENUMERATION_LIMIT raise
    CapacityError before any level is built.
    """
    if n < 1:
        raise ValueError("need order n >= 1")
    if n > ENUMERATION_LIMIT:
        raise CapacityError(
            f"enumeration stops at order {ENUMERATION_LIMIT}: building the "
            f"isomorphism classes of order {n} takes hours")
    return list(_level(n))


def _twin_groups(g: Graph) -> list[list[int]]:
    """The classes of two or more twins of g, each ascending: vertices
    with equal open or equal closed neighbourhoods, so swapping two is an
    automorphism.  No two classes meet: open twins v and u with a closed
    twin w of u give w in N(v), v in N[w] = N[u], so v adjacent to u."""
    # keyed by N(u) and by N[u] = N(u) + u: no open neighbourhood equals
    # a closed one, since v in N(u) = N[v] would put u in N[v] = N(u)
    twins: dict[int, list[int]] = {}
    for u, row in enumerate(g.adjacency):
        twins.setdefault(row, []).append(u)
        twins.setdefault(row | 1 << u, []).append(u)
    return [group for group in twins.values() if len(group) > 1]


def _twin_orbit_masks(parent: Graph) -> list[int]:
    """One neighbourhood mask per orbit of the parent's twin swaps.

    Any permutation of a class of _twin_groups fixes the parent, so a
    mask's orbit is fixed by how many of each class it takes: here always
    a prefix of the class, ascending, with every vertex outside the
    classes free.  That makes prod(|C| + 1) * 2^(free vertices) masks.
    """
    masks = [0]
    free = (1 << parent.n) - 1
    for group in _twin_groups(parent):
        prefixes = itertools.accumulate((1 << u for u in group), initial=0)
        masks = [mask | prefix for prefix in prefixes for mask in masks]
        free &= ~sum(1 << u for u in group)
    for u in set_bits(free):
        masks += [mask | 1 << u for mask in masks]
    return masks


@functools.cache
def _level(m: int) -> tuple[Graph, ...]:
    """The shared class graphs of order m, sorted by canonical code.

    Each parent of order m-1 is extended by one mask per orbit of its
    twin swaps (_twin_orbit_masks), of those that leave the new vertex
    with minimum degree: a mask of at most delta vertices, delta the
    parent's minimum degree, or one of delta + 1 that holds every vertex
    of degree delta.  Each graph decodes on first use and keeps its
    adjacency, so building order m+1 decodes this level's graphs, and a
    scan of them decodes each at most once per process.
    """
    if m == 1:
        return (Graph(1),)
    seen: set[int] = set()
    for parent in _level(m - 1):
        code, delta = parent.code, parent.min_degree
        lowest = sum(1 << u for u, d in enumerate(parent.degrees)
                     if d == delta)
        # the new vertex is 0: row 0 is the mask, the parent's rows follow
        for mask in _twin_orbit_masks(parent):
            size = mask.bit_count()
            if size <= delta or size == delta + 1 and mask & lowest == lowest:
                seen.add(canonical_code(Graph(m, code << (m - 1) | mask)))
    return tuple(Graph(m, code) for code in sorted(seen))


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
    differing: int                # graphs with minimizers of unequal size
    sampled: bool = False


def _survey_graph(g: Graph, survey: MinimizerSurvey) -> None:
    # the engine's {N(J): |J|} dicts, each walked in mask order as a
    # ToughnessResult lists it; |S| is a mask's bit count
    (_, plain), (_, variant) = _independent_set_search(g)
    if not plain or not variant:
        return  # INFINITY: no S qualifies
    survey.graphs_checked += 1
    survey.pairs_checked += len(plain) * len(variant)
    variants = [(mask, mask.bit_count(), iso)
                for mask, iso in sorted(variant.items())]
    differs = False
    for s_plain, iso_plain in sorted(plain.items()):
        size = s_plain.bit_count()
        for s_variant, variant_size, iso_variant in variants:
            if variant_size > size and iso_variant > iso_plain:
                differs = True
            elif variant_size != size:
                survey.violations.append(MinimizerViolation(
                    g, set_bits(s_plain), set_bits(s_variant),
                    iso_plain, iso_variant))
    survey.differing += differs


def explore_minimizers(n_max: int, *, samples: int = 200,
                       seed: int = 0) -> MinimizerSurvey:
    """Cross-compare all minimizers of both parameters.

    Exhaustive over isomorphism classes up to ENUMERATION_LIMIT, the
    orders nonisomorphic_graphs builds; orders beyond, up to MAX_ORDER,
    are spot-checked on `samples` seeded uniform random encodings each,
    so there `samples` must be at least 1.
    """
    if n_max < 1:
        raise InputError("need n_max >= 1")
    _check_order(n_max)
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    if n_max > ENUMERATION_LIMIT and samples < 1:
        raise InputError(
            f"orders above {ENUMERATION_LIMIT} are sampled: "
            "need samples >= 1")
    survey = MinimizerSurvey(n_max=n_max, graphs_checked=0, pairs_checked=0,
                             violations=[], differing=0)
    for n in range(1, min(n_max, ENUMERATION_LIMIT) + 1):
        for g in nonisomorphic_graphs(n):
            _survey_graph(g, survey)
    if n_max > ENUMERATION_LIMIT:
        survey.sampled = True
        rng = random.Random(seed)
        for n in range(ENUMERATION_LIMIT + 1, n_max + 1):
            for _ in range(samples):
                _survey_graph(Graph(n, rng.getrandbits(pair_count(n))),
                              survey)
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


def benchmark(n: int, k: int, *, runs: int = 10,
              seed: int = DEFAULT_SEED) -> BenchmarkReport:
    """Solver quality and runtime against enumerate_exact, inputs first."""
    if runs < 1:
        raise InputError("need at least one run")
    config = SolverConfig(n=n, k=k, seed=seed)
    enumeration = enumerate_exact(n, k)
    lo, hi = enumeration.scope

    solver_best: dict[int, Optional[Ratio]] = dict.fromkeys(range(lo, hi + 1))
    total_solver = 0.0
    for at in range(runs):
        result = run_solver(replace(config, seed=seed + at))
        total_solver += result.timings["total_s"]
        for delta, value in report(result).optima.items():
            if value is None:
                continue
            current = solver_best.get(delta)
            if current is None or value < current:
                solver_best[delta] = value

    agreement: dict[int, bool] = {}
    sound = True
    for d in range(lo, hi + 1):
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

"""Evolutionary search for graphs meeting the toughness requirement.

Each generation scores every individual once: by the cached exact I' at
orders up to the verify limit, by the pseudo-greedy estimate above it.
The requirement check and the elite both read that value.  Up to the
limit, accepted records are bucketed by minimum degree and each bucket's
best moves into the archive, where the flow search certifies its
fractional k-factor once more (a mismatch is a ConsistencyError); above
the limit they go to the unverified list.  The next population comes from
random non-self pairing, single-point crossover and per-bit mutation, with
the elite surviving unchanged.

All randomness is derived from the master seed through per-purpose
SeedSequence spawn keys (phase, generation, index), so each individual's
draws do not depend on the order in which the population is evaluated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .canonical import canonical_form, deduplicate
from .errors import EmptyArchiveError
from .factors import check_scope, delta_scope, require_factor, \
    requirement_check
from .graphs import Graph, complete, counterexample_family, hamming_distance, \
    pair_count
from .rational import Ratio
from .toughness import exact_isolated_toughness_variant, \
    pseudo_greedy_estimate

DEFAULT_SEED = 42
DEFAULT_EXACT_VERIFY_LIMIT = 16

_PHASE_INIT, _PHASE_EVAL, _PHASE_BREED = 0, 1, 2


@dataclass(frozen=True)
class SolverConfig:
    n: int
    k: int
    population_size: int = 10
    generations: int = 100
    mutation_rate: float = 0.3
    counterexample_fraction: float = 0.5
    seed: int = DEFAULT_SEED
    scope: Optional[tuple[int, int]] = None
    exact_verify_limit: int = DEFAULT_EXACT_VERIFY_LIMIT

    def __post_init__(self):
        if self.n < 4:
            raise ValueError("solver needs order n >= 4")
        if self.k < 2:
            raise ValueError("capacity k must be at least 2")
        if self.population_size < 2:
            raise ValueError("population size must be at least 2")
        if self.generations < 1:
            raise ValueError("need at least one generation")
        if not 0.0 < self.mutation_rate < 1.0:
            raise ValueError("mutation rate must lie in (0, 1)")
        if not 0.0 < self.counterexample_fraction < 1.0:
            raise ValueError("counterexample fraction must lie in (0, 1)")
        if self.scope is not None:
            check_scope(self.n, self.k, self.scope)


@dataclass(frozen=True)
class CandidateRecord:
    graph: Graph
    delta: int
    value: Ratio            # exact I' when verified, else the estimate
    generation: int
    verified: bool


@dataclass(frozen=True)
class GenerationSummary:
    generation: int
    buckets: dict[int, tuple[CandidateRecord, ...]]
    harvested: dict[int, CandidateRecord]
    screening_rejects: int
    false_positives: int    # always 0; perfbench/tracer.py still reads it


@dataclass(frozen=True)
class DiversityStep:
    chosen: Graph
    distance: int
    alternatives: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class DiversitySelection:
    selected: tuple[Graph, ...]
    steps: tuple[DiversityStep, ...]


@dataclass
class RunResult:
    config: SolverConfig
    scope: tuple[int, int]
    archive: list[CandidateRecord]
    unverified: list[CandidateRecord]
    generations: list[GenerationSummary]
    diversified: DiversitySelection
    timings: dict[str, float] = field(default_factory=dict)


def _stream(seed: int, phase: int, generation: int, index: int
            ) -> np.random.Generator:
    sequence = np.random.SeedSequence(seed,
                                      spawn_key=(phase, generation, index))
    return np.random.Generator(np.random.PCG64(sequence))


def flip_bits(g: Graph, mask: int) -> Graph:
    return Graph(g.n, g.code ^ mask)


def _bernoulli_mask(rng: np.random.Generator, length: int,
                    rate: float) -> int:
    """Bit p set when the p-th of `length` uniform draws is below rate."""
    hits = rng.random(length) < rate
    return int.from_bytes(np.packbits(hits, bitorder="little").tobytes(),
                          "little")


def binary_mutation(g: Graph, rate: float, rng: np.random.Generator) -> Graph:
    """Flip each encoded bit independently with the given probability."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("mutation rate must lie in [0, 1]")
    return flip_bits(g, _bernoulli_mask(rng, pair_count(g.n), rate))


def single_point_crossover(g1: Graph, g2: Graph, rng: np.random.Generator
                           ) -> tuple[Graph, Graph]:
    """Swap the tails of two equal-order encodings at a uniform cut."""
    if g1.n != g2.n:
        raise ValueError("crossover needs equal orders")
    length = pair_count(g1.n)
    if length < 2:
        raise ValueError("crossover needs at least two encoded bits")
    cut = int(rng.integers(1, length))  # both extremes excluded
    low = (1 << cut) - 1
    high = ((1 << length) - 1) ^ low
    return (Graph(g1.n, (g1.code & low) | (g2.code & high)),
            Graph(g2.n, (g2.code & low) | (g1.code & high)))


def counterexample_parameter(n: int, k: int) -> Optional[int]:
    """t with order(counterexample(k, t)) == n, if one exists."""
    numerator = n - 1 - 2 * k
    if numerator >= 0 and numerator % (k + 1) == 0:
        return numerator // (k + 1)
    return None


def initial_population(config: SolverConfig) -> list[Graph]:
    """Mutated boundary-family seeds when the order admits them, random
    Bernoulli(1/2) encodings for the remainder."""
    length = pair_count(config.n)
    t = counterexample_parameter(config.n, config.k)
    seeded = 0
    base: Optional[Graph] = None
    if t is not None:
        base = counterexample_family(config.k, t)
        seeded = int(config.counterexample_fraction * config.population_size)
    population = []
    for index in range(config.population_size):
        rng = _stream(config.seed, _PHASE_INIT, 0, index)
        if index < seeded and base is not None:
            population.append(
                binary_mutation(base, config.mutation_rate, rng))
        else:
            population.append(
                Graph(config.n, _bernoulli_mask(rng, length, 0.5)))
    return population


def _screen(population: Sequence[Graph], config: SolverConfig,
            generation: int) -> list[Ratio]:
    estimates = []
    for index, g in enumerate(population):
        rng = _stream(config.seed, _PHASE_EVAL, generation, index)
        estimates.append(pseudo_greedy_estimate(g, rng).estimate)
    return estimates


def _elite(population: Sequence[Graph], values: Sequence[Ratio],
           passing: Sequence[bool]) -> Graph:
    passers = [i for i in range(len(population)) if passing[i]]
    if passers:
        pick = min(passers,
                   key=lambda i: (values[i], population[i].bits()))
        return population[pick]
    # nobody passes: keep the member closest to clearing the strict bound
    best = max(values)
    pick = min((i for i, v in enumerate(values) if v == best),
               key=lambda i: population[i].bits())
    return population[pick]


def _next_population(population: Sequence[Graph], elite: Graph,
                     config: SolverConfig, generation: int) -> list[Graph]:
    rng = _stream(config.seed, _PHASE_BREED, generation, 0)
    size = len(population)
    order = [int(i) for i in rng.permutation(size)]
    offspring: list[Graph] = []
    for at in range(0, size - 1, 2):
        first, second = population[order[at]], population[order[at + 1]]
        child1, child2 = single_point_crossover(first, second, rng)
        offspring.append(binary_mutation(child1, config.mutation_rate, rng))
        offspring.append(binary_mutation(child2, config.mutation_rate, rng))
    if size % 2:
        first = population[order[-1]]
        second = population[order[0]]
        child, _ = single_point_crossover(first, second, rng)
        offspring.append(binary_mutation(child, config.mutation_rate, rng))
    return [elite] + offspring[:size - 1]


def run_solver(config: SolverConfig,
               population: Optional[Sequence[Graph]] = None) -> RunResult:
    started = time.perf_counter()
    scope = config.scope if config.scope is not None \
        else delta_scope(config.n, config.k)
    if population is None:
        population = initial_population(config)
    else:
        population = list(population)

    archive: list[CandidateRecord] = []
    unverified: list[CandidateRecord] = []
    summaries: list[GenerationSummary] = []
    exact_cache: dict[int, Ratio] = {}
    canonical_cache: dict[int, str] = {}
    certified: set[int] = set()

    def exact_value(g: Graph) -> Ratio:
        cached = exact_cache.get(g.code)
        if cached is None:
            cached = exact_isolated_toughness_variant(g).value
            exact_cache[g.code] = cached
        return cached

    def canonical_key(g: Graph) -> str:
        cached = canonical_cache.get(g.code)
        if cached is None:
            cached = canonical_form(g).key
            canonical_cache[g.code] = cached
        return cached

    verified = config.n <= config.exact_verify_limit
    for generation in range(config.generations):
        if verified:
            values = [exact_value(g) for g in population]
        else:
            values = _screen(population, config, generation)
        verdicts = [requirement_check(g, config.k, scope, value=v)
                    for g, v in zip(population, values)]
        buckets: dict[int, list[CandidateRecord]] = {}
        rejects = 0
        for g, value, verdict in zip(population, values, verdicts):
            if not verdict.accepted:
                rejects += 1
                continue
            record = CandidateRecord(g, verdict.delta, value, generation,
                                     verified)
            if verified:
                buckets.setdefault(verdict.delta, []).append(record)
            else:
                unverified.append(record)
        harvested: dict[int, CandidateRecord] = {}
        for delta in sorted(buckets):
            best = min(buckets[delta],
                       key=lambda r: (r.value, canonical_key(r.graph)))
            if best.graph.code not in certified:
                require_factor(best.graph, config.k, delta, best.value)
                certified.add(best.graph.code)
            harvested[delta] = best
            archive.append(best)
        summaries.append(GenerationSummary(
            generation=generation,
            buckets={d: tuple(records) for d, records in buckets.items()},
            harvested=harvested,
            screening_rejects=rejects,
            false_positives=0))
        elite = _elite(population, values, [v.accepted for v in verdicts])
        population = _next_population(population, elite, config, generation)

    if archive:
        diversified = diversity_enhancement([r.graph for r in archive],
                                            config.population_size,
                                            key=canonical_key)
    else:
        diversified = DiversitySelection(selected=(), steps=())
    timings = {"total_s": time.perf_counter() - started}
    return RunResult(config=config, scope=scope, archive=archive,
                     unverified=unverified, generations=summaries,
                     diversified=diversified, timings=timings)


def diversity_enhancement(graphs: Sequence[Graph], limit: int,
                          key: Optional[Callable[[Graph], str]] = None
                          ) -> DiversitySelection:
    """Dedup up to isomorphism, then spread by greedy max-min Hamming.

    The first pick maximizes distance from the complete graph; each later
    pick maximizes the minimum distance to everything already chosen.
    Ties always go to the lexicographically smallest bit string.  `key` is
    passed on to `deduplicate`.
    """
    if not graphs:
        raise EmptyArchiveError("diversity enhancement needs a non-empty"
                                " archive")
    orders = {g.n for g in graphs}
    if len(orders) != 1:
        raise ValueError("diversity enhancement needs equal orders")
    representatives = deduplicate(graphs, key=key)
    reference = complete(next(iter(orders)))

    chosen: list[Graph] = []
    steps: list[DiversityStep] = []
    remaining = sorted(representatives, key=lambda g: g.bits())
    target = min(limit, len(remaining))
    while len(chosen) < target:
        if not chosen:
            scored = [(hamming_distance(g, reference), g) for g in remaining]
        else:
            scored = [(min(hamming_distance(g, c) for c in chosen), g)
                      for g in remaining]
        best = max(score for score, _ in scored)
        pick = min((g for score, g in scored if score == best),
                   key=lambda g: g.bits())
        steps.append(DiversityStep(
            chosen=pick, distance=best,
            alternatives=tuple((g.bits(), score) for score, g in scored)))
        chosen.append(pick)
        remaining = [g for g in remaining if g is not pick]
    return DiversitySelection(selected=tuple(chosen), steps=tuple(steps))


@dataclass(frozen=True)
class SolverReport:
    scope: tuple[int, int]
    optima: dict[int, Optional[Ratio]]
    counts: dict[int, int]

    def render(self) -> str:
        from .rational import format_ratio
        lines = ["delta  best_value  count"]
        for delta in range(self.scope[0], self.scope[1] + 1):
            value = self.optima[delta]
            shown = "Null" if value is None else format_ratio(value)
            lines.append(f"{delta:<5}  {shown:<10}  {self.counts[delta]}")
        return "\n".join(lines) + "\n"


def report(result: RunResult) -> SolverReport:
    """Per-degree archive optima and counts (before diversity)."""
    optima: dict[int, Optional[Ratio]] = {}
    counts: dict[int, int] = {}
    lo, hi = result.scope
    for delta in range(lo, hi + 1):
        members = [r for r in result.archive if r.delta == delta]
        counts[delta] = len(members)
        optima[delta] = min((r.value for r in members), default=None)
    return SolverReport(scope=result.scope, optima=optima, counts=counts)

"""Evolutionary search for graphs meeting the toughness requirement.

Up to the verify limit, every distinct encoding gets one verdict per run
from factors.requirement_check, the single acceptance decision: a
minimum degree outside scope rejects it outright, and otherwise the
early-exit exact search either rejects it at the first ratio at or below
the bound or returns its exact I'.  Passers keep that value for the
harvest and the elite.  Only in a generation with no passer does the
elite need every member's value; then the exact engine's value search,
which keeps no minimizers, takes I', again once per encoding per run.
Above the limit, by default toughness.DEFAULT_EXACT_LIMIT, the order
through which every graph fits the exact engine's node budget, every
individual is scored by the pseudo-greedy estimate, which
requirement_check and the elite both read.
Up to the limit, accepted records are bucketed by minimum degree and
each bucket's best moves into the archive, where the flow search
certifies its fractional k-factor once more (a mismatch is a
ConsistencyError); above the limit they go to the unverified list.  A
tie on value goes first to a graph the archive does not hold yet, then
to the smallest bit string, so the harvest labels no graph canonically;
only the diversity step does, and only for archived graphs whose sorted
degree sequence another archived graph shares.  The
next population comes from random non-self pairing, single-point
crossover and per-bit mutation, with the elite surviving unchanged; each
mutation mask is drawn a word of getrandbits at a time (_bernoulli_mask).

All randomness comes from random.Random streams, one per purpose, each
seeded with the string "seed:phase:generation:index"; CPython hashes a
string seed with SHA-512, so the streams stay apart, and each
individual's draws do not depend on the order in which the population is
evaluated.  Every draw is a call to random() or getrandbits() on such a
stream.  Both read CPython's Mersenne Twister, whose sequences CPython
keeps fixed across versions, so equal flags give equal results on every
supported Python.
"""

from __future__ import annotations

import functools
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .canonical import canonical_form, deduplicate
from .errors import EmptyArchiveError, InputError
from .factors import check_capacity, check_scope, delta_scope, \
    require_factor, requirement_check
from .graphs import Graph, _check_order, complete, counterexample_family, \
    hamming_distance, pair_count
from .rational import Ratio
from .toughness import DEFAULT_EXACT_LIMIT, \
    exact_variant_value, pseudo_greedy_estimate

DEFAULT_SEED = 42

_PHASE_INIT, _PHASE_EVAL, _PHASE_BREED = 0, 1, 2


@dataclass(frozen=True)
class SolverConfig:
    n: int
    k: int
    population_size: int = 10
    generations: int = 100
    mutation_rate: float = 0.3
    seed: int = DEFAULT_SEED
    scope: Optional[tuple[int, int]] = None
    exact_verify_limit: int = DEFAULT_EXACT_LIMIT

    def __post_init__(self):
        if self.n < 4:
            raise InputError("solver needs order n >= 4")
        _check_order(self.n)
        check_capacity(self.k)
        if self.population_size < 2:
            raise InputError("population size must be at least 2")
        if self.generations < 1:
            raise InputError("need at least one generation")
        if not 0.0 < self.mutation_rate < 1.0:
            raise InputError("mutation rate must lie in (0, 1)")
        if self.seed < 0:
            raise InputError(f"seed must be non-negative, got {self.seed}")
        if self.exact_verify_limit < 0:
            raise InputError("the exact verify limit must be non-negative")
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
    rejects: int
    false_positives: int    # always 0; perfbench/tracer.py still reads it


@dataclass(frozen=True)
class DiversityStep:
    chosen: Graph
    distance: int


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
            ) -> random.Random:
    return random.Random(f"{seed}:{phase}:{generation}:{index}")


def flip_bits(g: Graph, mask: int) -> Graph:
    return Graph(g.n, g.code ^ mask)


@functools.cache
def _binary_digits(rate: float) -> tuple[int, ...]:
    """The binary digits of a rate in [0, 1), most significant first.

    Doubling a float and subtracting 1 from a float in [1, 2) are exact,
    so the digits are exact and end with the last 1 of the expansion.
    """
    digits = []
    while rate:
        rate *= 2
        digits.append(int(rate >= 1))
        rate -= digits[-1]
    return tuple(digits)


def _bernoulli_mask(rng: random.Random, length: int, rate: float) -> int:
    """Bit p set when a uniform U_p in [0, 1) is below rate.

    Word i = 1, 2, ... of rng.getrandbits(length) holds the i-th binary
    digit of every U_p, bit p for U_p.  A position is decided at the first
    digit where U_p and rate differ (set when rate has the 1), or unset
    once rate's digits run out, since U_p >= rate then; words are drawn
    only while a position is undecided, about log2(length) + 2 of them.
    Rate 0 draws nothing and rate 1 sets every bit without a draw.
    """
    undecided = (1 << length) - 1
    if rate >= 1.0:
        return undecided
    draw = rng.getrandbits
    mask = 0
    for digit in _binary_digits(rate):
        if not undecided:
            break
        kept = undecided & draw(length)  # U_p's digit is 1 here
        if digit:
            mask |= undecided ^ kept
            undecided = kept
        else:
            undecided ^= kept
    return mask


def binary_mutation(g: Graph, rate: float, rng: random.Random) -> Graph:
    """Flip each encoded bit independently with the given probability."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("mutation rate must lie in [0, 1]")
    return flip_bits(g, _bernoulli_mask(rng, pair_count(g.n), rate))


def _crossover_codes(first: int, second: int, length: int,
                     rng: random.Random) -> tuple[int, int]:
    """Both children's codes: the tails swapped at one uniform cut."""
    cut = 1 + int(rng.random() * (length - 1))  # both extremes excluded
    low = (1 << cut) - 1
    high = ((1 << length) - 1) ^ low
    return (first & low) | (second & high), (second & low) | (first & high)


def single_point_crossover(g1: Graph, g2: Graph, rng: random.Random
                           ) -> tuple[Graph, Graph]:
    """Swap the tails of two equal-order encodings at a uniform cut."""
    if g1.n != g2.n:
        raise ValueError("crossover needs equal orders")
    length = pair_count(g1.n)
    if length < 2:
        raise ValueError("crossover needs at least two encoded bits")
    child1, child2 = _crossover_codes(g1.code, g2.code, length, rng)
    return Graph(g1.n, child1), Graph(g2.n, child2)


def counterexample_parameter(n: int, k: int) -> Optional[int]:
    """t with order(counterexample(k, t)) == n, if one exists."""
    numerator = n - 1 - 2 * k
    if numerator >= 0 and numerator % (k + 1) == 0:
        return numerator // (k + 1)
    return None


def initial_population(config: SolverConfig) -> list[Graph]:
    """Mutated boundary-family seeds for the first half when the order
    admits them, random Bernoulli(1/2) encodings for the remainder."""
    length = pair_count(config.n)
    t = counterexample_parameter(config.n, config.k)
    base = None if t is None else counterexample_family(config.k, t)
    seeded = config.population_size // 2
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
        estimates.append(pseudo_greedy_estimate(g, rng))
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
    order = list(range(size))
    for at in range(size - 1, 0, -1):  # Fisher-Yates
        swap = int(rng.random() * (at + 1))
        order[at], order[swap] = order[swap], order[at]
    n, rate = config.n, config.mutation_rate
    length = pair_count(n)
    # the elite and size - 1 children, each built once from its crossover
    # code XOR its mask, drawn in the order cut, first mask, second mask; a
    # pair's second child past size - 1 is neither drawn nor built
    offspring = [elite]
    for at in range(0, size - 1, 2):
        children = _crossover_codes(population[order[at]].code,
                                    population[order[at + 1]].code,
                                    length, rng)
        for code in children[:size - len(offspring)]:
            offspring.append(
                Graph(n, code ^ _bernoulli_mask(rng, length, rate)))
    return offspring


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
    certified: set[int] = set()
    # one entry per distinct encoding: all graphs of a run share the order
    decide = functools.cache(
        lambda g: requirement_check(g, config.k, scope))
    exact_value = functools.cache(exact_variant_value)

    verified = config.n <= config.exact_verify_limit
    for generation in range(config.generations):
        if verified:
            verdicts = [decide(g) for g in population]
            values = [v.value for v in verdicts]
            if not any(v.accepted for v in verdicts):
                # no passer: the elite reads every member's full value
                values = [exact_value(g) for g in population]
        else:
            values = _screen(population, config, generation)
            verdicts = [requirement_check(g, config.k, scope, value=v)
                        for g, v in zip(population, values)]
        passing = [v.accepted for v in verdicts]
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
        for delta in sorted(buckets):
            # ties go to a graph the archive lacks, then the smallest bits
            best = min(buckets[delta],
                       key=lambda r: (r.value, r.graph.code in certified,
                                      r.graph.bits()))
            if best.graph.code not in certified:
                require_factor(best.graph, config.k, delta, best.value)
                certified.add(best.graph.code)
            archive.append(best)
        summaries.append(GenerationSummary(
            generation=generation,
            buckets={d: tuple(records) for d, records in buckets.items()},
            rejects=rejects,
            false_positives=0))
        elite = _elite(population, values, passing)
        population = _next_population(population, elite, config, generation)

    if archive:
        diversified = diversity_enhancement([r.graph for r in archive],
                                            config.population_size)
    else:
        diversified = DiversitySelection(selected=(), steps=())
    timings = {"total_s": time.perf_counter() - started}
    return RunResult(config=config, scope=scope, archive=archive,
                     unverified=unverified, generations=summaries,
                     diversified=diversified, timings=timings)


def diversity_enhancement(graphs: Sequence[Graph], limit: int
                          ) -> DiversitySelection:
    """Dedup up to isomorphism, then spread by greedy max-min Hamming.

    Isomorphic graphs share their sorted degree sequence, so a graph whose
    sequence no other distinct graph of the batch has is a class of its
    own, keyed by that sequence.  Only the graphs that share a sequence are
    canonically labelled, each once.  Each class keeps its smallest bit
    string.  The first pick maximizes distance from the complete graph;
    each later pick maximizes the minimum distance to everything already
    chosen.  Ties always go to the lexicographically smallest bit string.
    """
    if not graphs:
        raise EmptyArchiveError("diversity enhancement needs a non-empty"
                                " archive")
    orders = {g.n for g in graphs}
    if len(orders) != 1:
        raise ValueError("diversity enhancement needs equal orders")
    sequence = {g: tuple(sorted(g.degrees)) for g in graphs}
    shared = Counter(sequence.values())
    representatives = deduplicate(
        sequence, key=lambda g: canonical_form(g).key
        if shared[sequence[g]] > 1 else repr(sequence[g]))
    reference = complete(next(iter(orders)))

    chosen: list[Graph] = []
    steps: list[DiversityStep] = []
    remaining = sorted(representatives, key=lambda g: g.bits())
    # each remaining graph's distance to its nearest pick, to K_n before
    # the first; the first maximum is the tie with the smallest bits
    nearest = [hamming_distance(g, reference) for g in remaining]
    for _ in range(min(limit, len(remaining))):
        best = max(nearest)
        at = nearest.index(best)
        pick = remaining.pop(at)
        del nearest[at]
        if chosen:
            nearest = [min(d, hamming_distance(g, pick))
                       for g, d in zip(remaining, nearest)]
        else:
            nearest = [hamming_distance(g, pick) for g in remaining]
        steps.append(DiversityStep(chosen=pick, distance=best))
        chosen.append(pick)
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

"""Evolutionary solver: operators, generation loop, diversity, reporting."""

import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from isotough import canonical, evolve
from isotough.canonical import canonical_form, deduplicate
from isotough.errors import EmptyArchiveError, ScopeError
from isotough.evolve import (
    DiversitySelection,
    DiversityStep,
    SolverConfig,
    binary_mutation,
    counterexample_parameter,
    diversity_enhancement,
    initial_population,
    report,
    run_solver,
    single_point_crossover,
)
from isotough.factors import requirement_check
from isotough.graphs import Graph, complete, counterexample_family, \
    disjoint_cliques, empty_graph, from_bits, from_edges, \
    hamming_distance, pair_count
from isotough.rational import INFINITY
from isotough.toughness import exact_isolated_toughness_variant


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(n=3, k=2)
    with pytest.raises(ValueError):
        SolverConfig(n=7, k=1)
    with pytest.raises(ValueError):
        SolverConfig(n=7, k=2, population_size=1)
    with pytest.raises(ValueError):
        SolverConfig(n=7, k=2, mutation_rate=0.0)


# ----- variation operators --------------------------------------------------

def test_flip_bits_complement():
    g = empty_graph(4)
    assert binary_mutation(g, 1.0, random.Random(0)) == complete(4)


def test_mutation_rate_zero_is_identity():
    g = from_bits(5, "1111010010")
    assert binary_mutation(g, 0.0, random.Random(0)) == g


def test_mutation_rate_one_complements():
    g = from_bits(5, "1111010010")
    mutated = binary_mutation(g, 1.0, random.Random(0))
    assert mutated.code == g.code ^ ((1 << pair_count(5)) - 1)


def test_mutation_is_seed_deterministic():
    g = complete(6)
    one = binary_mutation(g, 0.3, random.Random(5))
    two = binary_mutation(g, 0.3, random.Random(5))
    assert one == two


def test_crossover_of_identical_parents():
    g = from_bits(5, "1111010010")
    child1, child2 = single_point_crossover(g, g, random.Random(1))
    assert child1 == g and child2 == g


def test_crossover_mixes_complementary_parents():
    ones = complete(5)
    zeros = empty_graph(5)
    for seed in range(20):
        child1, child2 = single_point_crossover(ones, zeros,
                                                random.Random(seed))
        # the cut excludes both extremes, so each child mixes both parents
        assert 0 < child1.code.bit_count() < pair_count(5)
        assert child1.code ^ child2.code == (1 << pair_count(5)) - 1


def test_crossover_needs_equal_orders():
    with pytest.raises(ValueError):
        single_point_crossover(complete(4), complete(5), random.Random(0))


# ----- initialization -------------------------------------------------------

def test_counterexample_parameter_solutions():
    assert counterexample_parameter(5, 2) == 0
    assert counterexample_parameter(8, 2) == 1
    assert counterexample_parameter(7, 2) is None
    assert counterexample_parameter(7, 3) == 0


def test_initial_population_mixes_boundary_seeds():
    config = SolverConfig(n=8, k=2, population_size=10, seed=11)
    population = initial_population(config)
    assert len(population) == 10
    base = counterexample_family(2, 1)
    # the first half are mutated boundary graphs: close to the base in
    # Hamming distance compared with the random remainder on average
    seeded = [hamming_distance(g, base) for g in population[:5]]
    assert all(g.n == 8 for g in population)
    assert max(seeded) < pair_count(8) // 2


def test_initial_population_all_random_when_no_parameter_fits():
    config = SolverConfig(n=7, k=2, population_size=6, seed=3)
    population = initial_population(config)
    assert len(population) == 6
    assert len({g.code for g in population}) > 1


def test_initial_population_is_deterministic():
    config = SolverConfig(n=8, k=2, seed=4)
    assert initial_population(config) == initial_population(config)


def mask_by_positions(rng, length, rate):
    """The word-parallel draw, each position decided on its own.

    Word i, one rng.getrandbits(length) call drawn when the first position
    needs it, holds the i-th binary digit of every U_p in bit p.  With
    prefix u of U_p's first i digits, U_p lies in [u / 2^i, (u + 1) / 2^i):
    position p is set once that interval lies below rate and unset once it
    lies at or above rate, both read from the exact Fraction of rate.
    """
    rate = Fraction(rate)
    words, mask = [], 0
    for position in range(length):
        prefix, depth = 0, 0
        while True:
            if prefix + 1 <= rate * 2 ** depth:
                mask |= 1 << position
                break
            if prefix >= rate * 2 ** depth:
                break
            if depth == len(words):
                words.append(rng.getrandbits(length))
            prefix = 2 * prefix + (words[depth] >> position & 1)
            depth += 1
    return mask


@pytest.mark.parametrize("n", [4, 7, 13])  # 6, 21, 78 bits: not bytes
@pytest.mark.parametrize("rate", [0.0, 0.3, 0.5, 1.0])
def test_mutation_matches_per_bit_loop(n, rate):
    # the reference loops over the bits, so the mask and the number of
    # words drawn must both match
    for seed in range(5):
        g = Graph(n, random.Random(seed).getrandbits(pair_count(n)))
        rng = random.Random(seed)
        expected_rng = random.Random(seed)
        mask = mask_by_positions(expected_rng, pair_count(n), rate)
        assert binary_mutation(g, rate, rng) == Graph(n, g.code ^ mask)
        assert rng.getstate() == expected_rng.getstate()


def test_mask_positions_are_independent_bernoulli_draws():
    # rate 0.3 at (18, 3)'s 153 bits: every position's count lies in a
    # 5-sigma binomial band, and so does the count of positions 63 and 64
    # (either side of a 64-bit boundary of getrandbits) set together
    rng = random.Random(30)
    draws, length, rate = 4000, 153, 0.3
    counts, both = [0] * length, 0
    for _ in range(draws):
        mask = evolve._bernoulli_mask(rng, length, rate)
        for position in range(length):
            counts[position] += mask >> position & 1
        both += mask >> 63 & mask >> 64 & 1

    def within_five_sigma(count, p):
        return abs(count - draws * p) <= 5 * (draws * p * (1 - p)) ** 0.5

    assert all(within_five_sigma(count, rate) for count in counts)
    assert within_five_sigma(both, rate * rate)


@pytest.mark.parametrize("rate", [0.3, 0.5, 0.99, 2.0 ** -60, 1.0])
def test_mask_sets_no_bit_at_or_above_its_length(rate):
    rng = random.Random(7)
    for length in (1, 6, 21, 31, 32, 33, 63, 64, 65, 153):
        for _ in range(50):
            assert evolve._bernoulli_mask(rng, length, rate) >> length == 0


@pytest.mark.parametrize("n, k", [(4, 2), (7, 2), (7, 3), (13, 2)])
def test_initial_population_matches_per_bit_loop(n, k):
    # (7, 3) seeds half the population from counterexample_family(3, 0)
    config = SolverConfig(n=n, k=k, seed=8)
    t = counterexample_parameter(n, k)
    seeded = config.population_size // 2 if t is not None else 0
    expected = []
    for index in range(config.population_size):
        # the stream of individual `index`: "seed:phase:generation:index"
        rng = random.Random(f"8:{evolve._PHASE_INIT}:0:{index}")
        if index < seeded:
            base = counterexample_family(k, t)
            mask = mask_by_positions(rng, pair_count(n),
                                     config.mutation_rate)
            expected.append(Graph(n, base.code ^ mask))
        else:
            expected.append(
                Graph(n, mask_by_positions(rng, pair_count(n), 0.5)))
    assert initial_population(config) == expected


# ----- generation loop ------------------------------------------------------

def test_solver_rejects_empty_scope():
    with pytest.raises(ScopeError):
        run_solver(SolverConfig(n=4, k=2))


def test_archive_is_sound_and_in_scope():
    config = SolverConfig(n=7, k=2, generations=30, seed=42)
    result = run_solver(config)
    assert result.archive
    for record in result.archive:
        assert record.verified
        assert result.scope[0] <= record.delta <= result.scope[1]
        exact = exact_isolated_toughness_variant(record.graph).value
        assert exact == record.value
        verdict = requirement_check(record.graph, config.k, result.scope,
                                    value=exact)
        assert verdict.accepted
        assert verdict.delta == record.delta


def test_archive_at_seven_two_limited_to_scope_degrees():
    result = run_solver(SolverConfig(n=7, k=2, generations=40, seed=1))
    assert {record.delta for record in result.archive} <= {2, 3}


def test_harvest_is_per_bucket_minimum():
    result = run_solver(SolverConfig(n=7, k=2, generations=30, seed=8))
    harvests = {}
    for record in result.archive:
        harvests.setdefault(record.generation, {})[record.delta] = record
    assert harvests
    assert sum(map(len, harvests.values())) == len(result.archive)
    # ties go to a graph not archived yet, then to the smallest bits; at
    # this seed the archived rule decides some ties
    archived, decided_by_archive = set(), 0
    for summary in result.generations:
        harvested = harvests.get(summary.generation, {})
        assert set(harvested) == set(summary.buckets)
        for delta in sorted(harvested):
            best, bucket = harvested[delta], summary.buckets[delta]
            assert best in bucket
            assert all(best.value <= record.value for record in bucket)
            assert best == min(bucket, key=lambda r: (
                r.value, r.graph.code in archived, r.graph.bits()))
            decided_by_archive += best != min(
                bucket, key=lambda r: (r.value, r.graph.bits()))
            archived.add(best.graph.code)
    assert decided_by_archive


def test_population_size_constant_each_generation():
    # track population size through the public breeding helper
    config = SolverConfig(n=7, k=2, population_size=7, generations=10,
                          seed=2)
    result = run_solver(config)
    assert result.generations[-1].generation == 9
    # bucket totals can never exceed the population size
    for summary in result.generations:
        accepted = sum(len(b) for b in summary.buckets.values())
        assert accepted + summary.rejects \
            + summary.false_positives == config.population_size


def test_complete_graph_seeds_accepted_with_explicit_scope():
    n, k = 6, 2
    config = SolverConfig(n=n, k=k, population_size=2, generations=1,
                          mutation_rate=0.01, scope=(k, n - 1), seed=0)
    result = run_solver(config, population=[complete(n), complete(n)])
    assert result.archive
    assert result.archive[0].value == INFINITY
    assert result.archive[0].delta == n - 1


def test_runs_with_same_seed_are_identical():
    config = SolverConfig(n=7, k=2, generations=15, seed=21)
    first = run_solver(config)
    second = run_solver(config)
    assert [r.graph for r in first.archive] == [r.graph for r in second.archive]
    assert first.diversified.selected == second.diversified.selected


def test_explicit_initial_population_does_not_change_results():
    config = SolverConfig(n=7, k=2, generations=15, seed=33)
    implicit = run_solver(config)
    explicit = run_solver(config, population=initial_population(config))
    assert [r.graph for r in implicit.archive] \
        == [r.graph for r in explicit.archive]
    assert implicit.diversified.selected == explicit.diversified.selected


def test_unverified_stream_when_order_above_limit():
    config = SolverConfig(n=7, k=2, generations=10, seed=5,
                          exact_verify_limit=6)
    result = run_solver(config)
    assert not result.archive  # nothing can be exact-verified
    assert result.unverified
    for record in result.unverified:
        assert not record.verified


def _sorted_degrees(g):
    return tuple(sorted(g.degrees))


def test_solver_labels_only_archived_graphs_sharing_a_degree_sequence(
        monkeypatch):
    # the harvest labels nothing; the diversity step labels each archived
    # graph whose sorted degree sequence another archived graph shares,
    # once, and no other graph.  At (12, 3) seed 42 no archived graph
    # shares its sequence, so nothing is labelled.
    real = canonical.canonical_form
    seen = []

    def counting(g):
        seen.append(g.code)
        return real(g)

    monkeypatch.setattr(evolve, "canonical_form", counting)
    monkeypatch.setattr(canonical, "canonical_form", counting)
    for n, k, seed, labels in ((7, 2, 42, True), (9, 2, 42, True),
                               (12, 3, 42, False)):
        seen.clear()
        config = SolverConfig(n=n, k=k, generations=30, seed=seed)
        result = run_solver(config)
        labelled = seen[:]
        assert result.diversified.selected
        archived = {r.graph for r in result.archive}
        sharing = Counter(map(_sorted_degrees, archived))
        assert bool(labelled) == labels
        assert len(labelled) == len(set(labelled))
        assert set(labelled) == {g.code for g in archived
                                 if sharing[_sorted_degrees(g)] > 1}
        assert result.diversified == diversity_enhancement(
            [r.graph for r in result.archive], config.population_size)


def test_solver_evaluates_each_distinct_code_once(monkeypatch):
    # at orders up to the verify limit no screen runs; every distinct code
    # gets one no-value requirement_check, the acceptance decision, and no
    # check is given a value; exact values are taken only in generations
    # with no passer, at most once per code.  At (7, 2) seed 0 has no such
    # generation, seed 10 opens with one and seed 2 with two.
    def no_screen(g, rng):
        raise AssertionError("pseudo-greedy screen called below the limit")

    real_check = evolve.requirement_check
    real_exact = evolve.exact_variant_value
    real_next = evolve._next_population
    generation = 0
    accepted_calls, full_calls, evaluated = [], [], set()

    def counting_check(g, k, scope, value=None):
        assert value is None, "a value was passed below the limit"
        accepted_calls.append(g.code)
        return real_check(g, k, scope)

    def counting_exact(g, **kwargs):
        full_calls.append((generation, g.code))
        return real_exact(g, **kwargs)

    def recording_next(population, *args):
        # called once at the end of every generation with its population
        nonlocal generation
        evaluated.update(g.code for g in population)
        generation += 1
        return real_next(population, *args)

    monkeypatch.setattr(evolve, "pseudo_greedy_estimate", no_screen)
    monkeypatch.setattr(evolve, "requirement_check", counting_check)
    monkeypatch.setattr(evolve, "exact_variant_value", counting_exact)
    monkeypatch.setattr(evolve, "_next_population", recording_next)
    for seed, expect_fallback in ((0, False), (10, True), (2, True)):
        generation = 0
        accepted_calls.clear()
        full_calls.clear()
        evaluated.clear()
        result = run_solver(SolverConfig(n=7, k=2, generations=30,
                                         seed=seed))
        assert result.archive and not result.unverified
        assert len(accepted_calls) == len(set(accepted_calls))
        assert set(accepted_calls) == evaluated
        no_passer = {s.generation for s in result.generations
                     if not s.buckets}
        assert {gen for gen, _ in full_calls} <= no_passer
        full_codes = [code for _, code in full_calls]
        assert len(full_codes) == len(set(full_codes))
        assert bool(full_calls) == bool(no_passer) == expect_fallback


# ----- diversity enhancement ------------------------------------------------

def test_diversity_empty_archive_raises():
    with pytest.raises(EmptyArchiveError):
        diversity_enhancement([], 5)


def test_diversity_dedups_relabelings():
    g = from_bits(4, "110100")  # triangle on {0, 1, 2} plus an isolate
    permutation = (3, 2, 1, 0)
    twin = from_edges(4, [(permutation[u], permutation[v])
                          for u, v in g.edges()])
    assert canonical_form(g).key == canonical_form(twin).key
    selection = diversity_enhancement([g, twin], 5)
    assert len(selection.selected) == 1


def test_diversity_hand_example():
    # three order-3 graphs with encodings 000, 011, 111 and budget 2:
    # empty graph is farthest from the triangle, then 111 beats 011
    batch = [from_bits(3, "000"), from_bits(3, "011"), from_bits(3, "111")]
    selection = diversity_enhancement(batch, 2)
    assert [g.bits() for g in selection.selected] == ["000", "111"]
    assert selection.steps[0].distance == 3
    assert selection.steps[1].distance == 3


def test_diversity_first_pick_is_farthest_from_complete():
    sparse = from_bits(5, "1000000001")
    dense = from_bits(5, "1111111101")
    selection = diversity_enhancement([dense, sparse], 2)
    assert selection.selected[0] == sparse


@pytest.mark.parametrize("seed, n, size, limit", [(17, 6, 12, 6)] + [
    (seed, 5 + seed % 4, 16, 1 + seed % 10) for seed in range(19)])
def test_diversity_each_step_is_greedy_optimal(seed, n, size, limit):
    rng = np.random.default_rng(seed)
    batch = [Graph(n, int(rng.integers(0, 1 << pair_count(n))))
             for _ in range(size)]
    selection = diversity_enhancement(batch, limit)
    pool = deduplicate(batch)
    assert len(selection.steps) == min(limit, len(pool))
    reference = complete(n)
    for at, step in enumerate(selection.steps):
        chosen_before = selection.selected[:at]
        remaining = [h for h in pool if h not in chosen_before]
        if at:
            scores = [min(hamming_distance(h, earlier)
                          for earlier in chosen_before) for h in remaining]
        else:
            scores = [hamming_distance(h, reference) for h in remaining]
        assert step.distance == max(scores)
        assert step.chosen.bits() == min(
            h.bits() for h, score in zip(remaining, scores)
            if score == step.distance)
        if at:
            measured = min(hamming_distance(step.chosen, earlier)
                           for earlier in chosen_before)
            assert measured == step.distance


def _deduplicated_selection(batch, limit):
    """The greedy spread over deduplicate(batch), which labels every
    graph canonically, recomputing each score at every step."""
    remaining = sorted(deduplicate(batch), key=lambda g: g.bits())
    reference = complete(batch[0].n)
    chosen, steps = [], []
    while remaining and len(chosen) < limit:
        scores = [min(hamming_distance(g, c) for c in chosen) if chosen
                  else hamming_distance(g, reference) for g in remaining]
        best = max(scores)
        pick = remaining.pop(scores.index(best))
        chosen.append(pick)
        steps.append(DiversityStep(chosen=pick, distance=best))
    return DiversitySelection(selected=tuple(chosen), steps=tuple(steps))


def _relabeled(g, permutation):
    return from_edges(g.n, [(permutation[u], permutation[v])
                            for u, v in g.edges()])


K33 = from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])
PRISM = from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                       (0, 3), (1, 4), (2, 5)])
C6 = from_edges(6, [(v, (v + 1) % 6) for v in range(6)])
TWO_K3 = disjoint_cliques(2, 3)


@pytest.mark.parametrize("seed", range(12))
def test_diversity_matches_selection_over_full_canonical_dedup(seed):
    rng = random.Random(seed)
    n = 6
    batch = [Graph(n, rng.getrandbits(pair_count(n))) for _ in range(10)]
    batch += [K33, PRISM, C6, TWO_K3]
    # relabelled twins, some of them of the named pairs, and repeats
    for g in rng.sample(batch, 6):
        permutation = list(range(n))
        rng.shuffle(permutation)
        batch.append(_relabeled(g, permutation))
    batch += rng.sample(batch, 3)
    rng.shuffle(batch)
    for limit in (1, 3, 8, len(batch)):
        assert diversity_enhancement(batch, limit) \
            == _deduplicated_selection(batch, limit)


@pytest.mark.parametrize("g, h, classes", [
    (K33, PRISM, 2), (C6, TWO_K3, 2),
    (K33, _relabeled(K33, (0, 3, 1, 4, 2, 5)), 1),
    (PRISM, _relabeled(PRISM, (0, 1, 3, 2, 4, 5)), 1)])
def test_diversity_separates_classes_within_a_degree_sequence(g, h, classes):
    assert g != h and sorted(g.degrees) == sorted(h.degrees)
    assert (canonical_form(g).key == canonical_form(h).key) \
        == (classes == 1)
    selection = diversity_enhancement([g, h, g], 5)
    assert len(selection.selected) == classes
    assert selection == _deduplicated_selection([g, h, g], 5)


def test_diversity_respects_budget():
    batch = [Graph(5, code) for code in range(40, 60)]
    selection = diversity_enhancement(batch, 4)
    assert len(selection.selected) <= 4
    for g in selection.selected:
        key = canonical_form(g).key
        assert any(canonical_form(member).key == key for member in batch)


# ----- reporting ------------------------------------------------------------

def test_report_counts_partition_archive():
    result = run_solver(SolverConfig(n=7, k=2, generations=30, seed=42))
    table = report(result)
    assert sum(table.counts.values()) == len(result.archive)
    for delta in range(result.scope[0], result.scope[1] + 1):
        members = [r.value for r in result.archive if r.delta == delta]
        if members:
            assert table.optima[delta] == min(members)
        else:
            assert table.optima[delta] is None


def test_report_renders_null_rows():
    result = run_solver(SolverConfig(n=5, k=2, generations=5, seed=0))
    assert not result.archive  # no order-5 graph can clear the bound
    rendered = report(result).render()
    assert "Null" in rendered
    assert rendered.splitlines()[0].split() == ["delta", "best_value",
                                                "count"]

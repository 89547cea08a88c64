"""Evolutionary solver: operators, generation loop, diversity, reporting."""

import random

import numpy as np
import pytest

from isotough import canonical, evolve
from isotough.canonical import are_isomorphic
from isotough.errors import EmptyArchiveError, ScopeError
from isotough.evolve import (
    SolverConfig,
    binary_mutation,
    counterexample_parameter,
    diversity_enhancement,
    flip_bits,
    initial_population,
    report,
    run_solver,
    single_point_crossover,
)
from isotough.factors import requirement_check
from isotough.graphs import Graph, complete, counterexample_family, \
    empty_graph, from_bits, from_edges, hamming_distance, pair_count
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
    with pytest.raises(ValueError):
        SolverConfig(n=7, k=2, counterexample_fraction=1.0)


# ----- variation operators --------------------------------------------------

def test_flip_bits_complement():
    g = empty_graph(4)
    assert flip_bits(g, (1 << pair_count(4)) - 1) == complete(4)


def test_mutation_rate_zero_is_identity():
    g = from_bits(5, "1111010010")
    assert binary_mutation(g, 0.0, np.random.default_rng(0)) == g


def test_mutation_rate_one_complements():
    g = from_bits(5, "1111010010")
    mutated = binary_mutation(g, 1.0, np.random.default_rng(0))
    assert mutated.code == g.code ^ ((1 << pair_count(5)) - 1)


def test_mutation_is_seed_deterministic():
    g = complete(6)
    one = binary_mutation(g, 0.3, np.random.default_rng(5))
    two = binary_mutation(g, 0.3, np.random.default_rng(5))
    assert one == two


def test_crossover_of_identical_parents():
    g = from_bits(5, "1111010010")
    child1, child2 = single_point_crossover(g, g, np.random.default_rng(1))
    assert child1 == g and child2 == g


def test_crossover_mixes_complementary_parents():
    ones = complete(5)
    zeros = empty_graph(5)
    for seed in range(20):
        child1, child2 = single_point_crossover(
            ones, zeros, np.random.default_rng(seed))
        # the cut excludes both extremes, so each child mixes both parents
        assert 0 < child1.edge_count < pair_count(5)
        assert child1.code ^ child2.code == (1 << pair_count(5)) - 1


def test_crossover_needs_equal_orders():
    with pytest.raises(ValueError):
        single_point_crossover(complete(4), complete(5),
                               np.random.default_rng(0))


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


def mask_by_bits(draws, rate):
    """Bit p set when draws[p] < rate, one bit at a time."""
    mask = 0
    for position in np.flatnonzero(draws < rate):
        mask |= 1 << int(position)
    return mask


@pytest.mark.parametrize("n", [4, 7, 13])  # 6, 21, 78 bits: not bytes
@pytest.mark.parametrize("rate", [0.0, 0.3, 0.5, 1.0])
def test_mutation_matches_per_bit_loop(n, rate):
    for seed in range(5):
        g = Graph(n, random.Random(seed).getrandbits(pair_count(n)))
        rng = np.random.default_rng(seed)
        expected_rng = np.random.default_rng(seed)
        mask = mask_by_bits(expected_rng.random(pair_count(n)), rate)
        assert binary_mutation(g, rate, rng) == Graph(n, g.code ^ mask)
        assert rng.bit_generator.state == expected_rng.bit_generator.state


@pytest.mark.parametrize("n, k", [(4, 2), (7, 2), (7, 3), (13, 2)])
def test_initial_population_matches_per_bit_loop(n, k):
    # (7, 3) seeds half the population from counterexample_family(3, 0)
    config = SolverConfig(n=n, k=k, seed=8)
    t = counterexample_parameter(n, k)
    seeded = int(config.counterexample_fraction * config.population_size) \
        if t is not None else 0
    expected = []
    for index in range(config.population_size):
        rng = evolve._stream(config.seed, evolve._PHASE_INIT, 0, index)
        draws = rng.random(pair_count(n))
        if index < seeded:
            base = counterexample_family(k, t)
            mask = mask_by_bits(draws, config.mutation_rate)
            expected.append(Graph(n, base.code ^ mask))
        else:
            expected.append(Graph(n, mask_by_bits(draws, 0.5)))
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
    for summary in result.generations:
        for delta, best in summary.harvested.items():
            bucket = summary.buckets[delta]
            assert best in bucket
            assert all(best.value <= record.value for record in bucket)


def test_population_size_constant_each_generation():
    # track population size through the public breeding helper
    config = SolverConfig(n=7, k=2, population_size=7, generations=10,
                          seed=2)
    result = run_solver(config)
    assert result.generations[-1].generation == 9
    # bucket totals can never exceed the population size
    for summary in result.generations:
        accepted = sum(len(b) for b in summary.buckets.values())
        assert accepted + summary.screening_rejects \
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


def test_solver_canonicalizes_each_distinct_code_once(monkeypatch):
    # the harvest tie-break and diversification share one key per code
    real = canonical.canonical_form
    seen = []

    def counting(g):
        seen.append(g.code)
        return real(g)

    monkeypatch.setattr(evolve, "canonical_form", counting)
    monkeypatch.setattr(canonical, "canonical_form", counting)
    config = SolverConfig(n=7, k=2, generations=30, seed=42)
    result = run_solver(config)
    assert result.diversified.selected
    assert len(seen) == len(set(seen))
    assert {r.graph.code for r in result.archive} <= set(seen)
    assert result.diversified == diversity_enhancement(
        [r.graph for r in result.archive], config.population_size)


def test_solver_evaluates_each_distinct_code_once(monkeypatch):
    # at orders up to the verify limit every individual is scored by the
    # cached exact engine alone: no screen, one exact call per code
    def no_screen(g, rng):
        raise AssertionError("pseudo-greedy screen called below the limit")

    real_exact = evolve.exact_isolated_toughness_variant
    real_check = evolve.requirement_check
    exact_calls, checked = [], set()

    def counting_exact(g, **kwargs):
        exact_calls.append(g.code)
        return real_exact(g, **kwargs)

    def recording_check(g, *args, **kwargs):
        checked.add(g.code)
        return real_check(g, *args, **kwargs)

    monkeypatch.setattr(evolve, "pseudo_greedy_estimate", no_screen)
    monkeypatch.setattr(evolve, "exact_isolated_toughness_variant",
                        counting_exact)
    monkeypatch.setattr(evolve, "requirement_check", recording_check)
    config = SolverConfig(n=7, k=2, generations=30, seed=42)
    result = run_solver(config)
    assert result.archive and not result.unverified
    assert len(exact_calls) == len(set(exact_calls)) == len(checked)
    assert set(exact_calls) == checked


# ----- diversity enhancement ------------------------------------------------

def test_diversity_empty_archive_raises():
    with pytest.raises(EmptyArchiveError):
        diversity_enhancement([], 5)


def test_diversity_dedups_relabelings():
    g = from_bits(4, "110100")  # triangle on {0, 1, 2} plus an isolate
    permutation = (3, 2, 1, 0)
    twin = from_edges(4, [(permutation[u], permutation[v])
                          for u, v in g.edges()])
    assert are_isomorphic(g, twin)
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


def test_diversity_each_step_is_greedy_optimal():
    rng = np.random.default_rng(17)
    batch = [Graph(6, int(rng.integers(0, 1 << pair_count(6))))
             for _ in range(12)]
    selection = diversity_enhancement(batch, 6)
    for at, step in enumerate(selection.steps):
        assert step.distance == max(score for _, score in step.alternatives)
        if at:
            chosen_before = selection.selected[:at]
            measured = min(hamming_distance(step.chosen, earlier)
                           for earlier in chosen_before)
            assert measured == step.distance


def test_diversity_respects_budget():
    batch = [Graph(5, code) for code in range(40, 60)]
    selection = diversity_enhancement(batch, 4)
    assert len(selection.selected) <= 4
    for g in selection.selected:
        assert any(are_isomorphic(g, member) for member in batch)


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

"""Exact toughness values, minimizers, roulette selection, pseudo-greedy."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isotough import toughness
from isotough.errors import CapacityError
from isotough.factors import requirement_bound
from isotough.graphs import (
    Graph,
    clique_join_singles,
    complete,
    counterexample_family,
    disjoint_cliques,
    empty_graph,
    extremal_family,
    from_bits,
    from_edges,
    pair_count,
    star,
)
from isotough.oracle import nonisomorphic_graphs
from isotough.rational import INFINITY
from isotough.toughness import (
    exact_isolated_toughness,
    exact_isolated_toughness_pair,
    exact_isolated_toughness_variant,
    exact_variant_above,
    exact_variant_value,
    pseudo_greedy_estimate,
    roulette_select,
)

from _graph_helpers import complete_bipartite, cycle, isolated_count, \
    vertex_mask
from _pseudo_greedy_reference import reference_estimate, \
    roulette_select_loop

WORKED_BITS = "1111010010"


def brute_force(g, variant):
    """Reference: direct Fraction minimization over all vertex subsets."""
    best = INFINITY
    minimizers = []
    for size in range(0, g.n - 1):
        for subset in itertools.combinations(range(g.n), size):
            iso = isolated_count(g, subset)
            if iso < 2:
                continue
            ratio = Fraction(len(subset), iso - 1 if variant else iso)
            if ratio < best:
                best, minimizers = ratio, [subset]
            elif ratio == best:
                minimizers.append(subset)
    return best, minimizers


def expected_result(g, variant):
    """The engine's contract, from brute_force: value, minimizers in
    ascending bitmask order, and the isolated count of each minimizer."""
    value, subsets = brute_force(g, variant)
    subsets = sorted(subsets, key=lambda s: vertex_mask(s, g.n))
    return (value, tuple(subsets),
            tuple(isolated_count(g, s) for s in subsets))


def as_tuple(outcome):
    return outcome.value, outcome.minimizers, outcome.witness_i


def graphs(n_min=2, n_max=8):
    return st.integers(n_min, n_max).flatmap(
        lambda n: st.integers(0, (1 << pair_count(n)) - 1).map(
            lambda code: Graph(n, code)))


# ----- closed-form values ---------------------------------------------------

def test_complete_graphs_are_infinite():
    for n in (2, 4, 6):
        assert exact_isolated_toughness(complete(n)).value == INFINITY
        assert exact_isolated_toughness_variant(complete(n)).value == INFINITY
        assert exact_isolated_toughness(complete(n)).minimizers == ()


def test_star_extreme_values():
    assert exact_isolated_toughness(star(5)).value == Fraction(1, 4)
    assert exact_isolated_toughness_variant(star(5)).value == Fraction(1, 3)
    for n in range(4, 9):
        assert exact_isolated_toughness(star(n)).value == Fraction(1, n - 1)
        assert exact_isolated_toughness_variant(star(n)).value \
            == Fraction(1, n - 2)


def test_clique_join_singles_values():
    assert exact_isolated_toughness(clique_join_singles(3, 4)).value \
        == Fraction(3, 4)
    for c, d in [(2, 3), (2, 5), (4, 4)]:
        assert exact_isolated_toughness(clique_join_singles(c, d)).value \
            == Fraction(c, d)
        assert exact_isolated_toughness_variant(
            clique_join_singles(c, d + 1)).value == Fraction(c, d)


def test_extremal_family_values():
    assert exact_isolated_toughness(extremal_family(2, 3)).value \
        == Fraction(5, 3)
    assert exact_isolated_toughness_variant(extremal_family(2, 2)).value \
        == Fraction(3)
    for k in (2, 3):
        for l in range(2, 6):
            g = extremal_family(k, l)
            assert exact_isolated_toughness(g).value == k - Fraction(1, l)
            assert exact_isolated_toughness_variant(g).value \
                == k + Fraction(k - 1, l - 1)


def test_extremal_family_monotone_in_copies():
    for k in (2, 3):
        plain = [exact_isolated_toughness(extremal_family(k, l)).value
                 for l in range(2, 7)]
        variant = [exact_isolated_toughness_variant(
            extremal_family(k, l)).value for l in range(2, 7)]
        assert all(a < b for a, b in zip(plain, plain[1:]))
        assert all(a > b for a, b in zip(variant, variant[1:]))


def test_counterexample_family_sits_on_the_bound():
    for k in (2, 3, 4):
        for t in range(4):
            g = counterexample_family(k, t)
            assert exact_isolated_toughness_variant(g).value \
                == k + Fraction(k - 1, t + 1)


def test_empty_graph_value_zero():
    for n in (3, 24):
        for compute in (exact_isolated_toughness,
                        exact_isolated_toughness_variant):
            outcome = compute(empty_graph(n))
            assert outcome.value == 0
            assert outcome.minimizers == ((),)
            assert outcome.witness_i == (n,)


def test_worked_example_values():
    g = from_bits(5, WORKED_BITS)
    assert exact_isolated_toughness(g).value == Fraction(3, 2)
    assert exact_isolated_toughness_variant(g).value == Fraction(3)


def test_cycle_on_24_vertices():
    outcome = exact_isolated_toughness_variant(
        from_edges(24, [(v, (v + 1) % 24) for v in range(24)]))
    assert outcome.value == Fraction(12, 11)
    assert outcome.minimizers == (tuple(range(0, 24, 2)),
                                  tuple(range(1, 24, 2)))
    assert outcome.witness_i == (12, 12)


def test_perfect_matching_on_24_vertices():
    # I': one endpoint of every edge is deleted, 2^12 minimizers.  I: one
    # endpoint of each of j >= 2 edges, ratio 1, sum over j of
    # C(12, j) 2^j = 3^12 - 1 - 24 minimizers, each leaving j isolated
    plain, variant = exact_isolated_toughness_pair(disjoint_cliques(12, 2))
    assert variant.value == Fraction(12, 11)
    assert len(variant.minimizers) == 1 << 12
    assert len(set(variant.minimizers)) == 1 << 12
    assert variant.witness_i == (12,) * (1 << 12)
    assert plain.value == 1
    assert len(plain.minimizers) == 531_416 == 3**12 - 1 - 24
    assert all(len(subset) == iso
               for subset, iso in zip(plain.minimizers, plain.witness_i))


def test_complete_bipartite_past_order_32():
    g = complete_bipartite(17, 17)
    outcome = exact_isolated_toughness_variant(g)
    assert outcome.value == Fraction(17, 16)
    assert outcome.minimizers == (tuple(range(17)), tuple(range(17, 34)))
    assert outcome.witness_i == (17, 17)


def test_cycle_on_32_vertices_fits_the_budget():
    # 243 547 nodes, under a quarter of the budget
    outcome = exact_isolated_toughness_variant(cycle(32))
    assert outcome.value == Fraction(16, 15)
    assert outcome.witness_i == (16, 16)


def test_exact_node_budget(monkeypatch):
    # the budget counts search nodes, not vertices: the order-30 empty
    # graph takes 31 nodes, the order-12 perfect matching 3**6 - 1
    assert exact_isolated_toughness(Graph(30, 0)).value == 0
    monkeypatch.setattr(toughness, "NODE_BUDGET", 100)
    with pytest.raises(CapacityError, match="budget of 100 nodes"):
        exact_isolated_toughness(disjoint_cliques(6, 2))
    assert exact_isolated_toughness(Graph(25, 0)).value == 0


def test_every_class_through_order_seven_fits_35_nodes(monkeypatch):
    # the exhaustive worst cases through order 7 are 11, 26 and 35 nodes
    # at orders 5-7, far below the real budget; floor decisions visit a
    # subset of the full search's nodes
    monkeypatch.setattr(toughness, "NODE_BUDGET", 35)
    for n in range(1, 8):
        for g in nonisomorphic_graphs(n):
            exact_isolated_toughness(g)
            value = exact_isolated_toughness_variant(g).value
            for floor in floors_for(g, value):
                exact_variant_above(g, floor)


# ----- minimizer contracts --------------------------------------------------

def assert_pair_matches_brute_force(g):
    """Both halves of one pair search, and each half called alone, give
    brute_force's value, minimizers and witnesses."""
    plain, variant = exact_isolated_toughness_pair(g)
    assert as_tuple(plain) == as_tuple(exact_isolated_toughness(g)) \
        == expected_result(g, False)
    assert as_tuple(variant) == as_tuple(exact_isolated_toughness_variant(g)) \
        == expected_result(g, True)


@given(graphs(1, 9))
@settings(max_examples=200, deadline=None)
def test_exact_matches_brute_force(g):
    assert_pair_matches_brute_force(g)


def test_pair_matches_brute_force_on_every_class_through_order_six():
    for n in range(1, 7):
        for g in nonisomorphic_graphs(n):
            assert_pair_matches_brute_force(g)


@pytest.mark.parametrize("n", [10, 11, 12, 13])
def test_exact_matches_brute_force_on_seeded_graphs(n):
    rng = random.Random(n)
    for p in (0.15, 0.3, 0.7, 0.9):
        code = sum(1 << b for b in range(pair_count(n)) if rng.random() < p)
        assert_pair_matches_brute_force(Graph(n, code))


def assert_minimizers_attain(g):
    """Each witness is the isolated count of its minimizer, taken afresh,
    and each minimizer attains the value, for both parameters."""
    for shift, compute in ((0, exact_isolated_toughness),
                           (1, exact_isolated_toughness_variant)):
        outcome = compute(g)
        assert len(outcome.witness_i) == len(outcome.minimizers)
        if outcome.value == INFINITY:
            assert outcome.minimizers == ()
            continue
        assert outcome.minimizers
        for subset, iso in zip(outcome.minimizers, outcome.witness_i):
            assert isolated_count(g, subset) == iso, (g, subset)
            assert iso >= 2
            assert Fraction(len(subset), iso - shift) == outcome.value


@given(graphs(2, 8))
@settings(max_examples=150, deadline=None)
def test_minimizers_achieve_the_value(g):
    assert_minimizers_attain(g)


def test_witnesses_on_every_class_through_order_seven():
    for n in range(1, 8):
        for g in nonisomorphic_graphs(n):
            assert_minimizers_attain(g)


@pytest.mark.parametrize("n", range(2, 13))
def test_witnesses_on_seeded_graphs(n):
    rng = random.Random(100 + n)
    for p in (0.1, 0.25, 0.5, 0.75, 0.9):
        code = sum(1 << b for b in range(pair_count(n)) if rng.random() < p)
        assert_minimizers_attain(Graph(n, code))


@pytest.mark.parametrize("n", range(3, 13))
def test_witnesses_with_three_or_more_isolated_vertices(n):
    # the only minimizer is S = {} at ratio 0, which the search reaches
    # with every J of two or more isolated vertices; the witness counts
    # them all
    rng = random.Random(200 + n)
    for _ in range(4):
        lonely = set(rng.sample(range(n), rng.randint(3, n)))
        pairs = itertools.combinations(range(n), 2)
        g = from_edges(n, [(u, v) for u, v in pairs
                           if u not in lonely and v not in lonely
                           and rng.random() < 0.6])
        iso = isolated_count(g, ())
        assert iso >= 3
        for compute in (exact_isolated_toughness,
                        exact_isolated_toughness_variant):
            outcome = compute(g)
            assert (outcome.value, outcome.minimizers,
                    outcome.witness_i) == (0, ((),), (iso,))
        assert_minimizers_attain(g)


@given(graphs(3, 7))
@settings(max_examples=150, deadline=None)
def test_variant_beats_plain_on_shared_sets(g):
    # per deletion set with |S| >= 1, i >= 2: |S|/(i-1) > |S|/i
    plain = exact_isolated_toughness(g)
    for subset, iso in zip(plain.minimizers, plain.witness_i):
        if subset:
            assert Fraction(len(subset), iso - 1) \
                > Fraction(len(subset), iso)


# ----- floor mode -------------------------------------------------------------

def floors_for(g, value):
    """The value itself (pins strictness), a hair either side of it when
    finite, and the acceptance bound for each k in {2, 3} the degree
    admits."""
    floors = []
    if value != INFINITY:
        floors += [value, value - Fraction(1, 97), value + Fraction(1, 97)]
    floors += [requirement_bound(k, g.min_degree) for k in (2, 3)
               if k <= g.min_degree]
    return floors


def assert_floor_mode_agrees(g):
    value = exact_isolated_toughness_variant(g).value
    for floor in floors_for(g, value):
        expected = value if value > floor else None
        assert exact_variant_above(g, floor) == expected, (g, floor)


@given(graphs(1, 9))
@settings(max_examples=300, deadline=None)
def test_floor_mode_matches_full_engine(g):
    assert_floor_mode_agrees(g)


@pytest.mark.parametrize("n", [10, 11, 12, 13])
def test_floor_mode_matches_full_engine_on_seeded_graphs(n):
    rng = random.Random(n)
    for p in (0.15, 0.3, 0.7, 0.9):
        code = sum(1 << b for b in range(pair_count(n)) if rng.random() < p)
        assert_floor_mode_agrees(Graph(n, code))


def test_floor_mode_matches_full_engine_on_order_seven_classes():
    classes = nonisomorphic_graphs(7)
    assert len(classes) == 1044
    for g in classes:
        assert_floor_mode_agrees(g)


def test_value_search_matches_the_pair_on_order_seven_classes():
    for n in range(1, 8):
        for g in nonisomorphic_graphs(n):
            assert exact_variant_value(g) \
                == exact_isolated_toughness_pair(g)[1].value, g


@pytest.mark.parametrize("n", range(8, 19))
def test_value_search_matches_the_pair_on_seeded_graphs(n):
    rng = random.Random(300 + n)
    for p in (0.15, 0.3, 0.5, 0.7, 0.9):
        code = sum(1 << b for b in range(pair_count(n)) if rng.random() < p)
        g = Graph(n, code)
        assert exact_variant_value(g) \
            == exact_isolated_toughness_pair(g)[1].value, g


def test_floor_mode_on_complete_graphs_is_infinite():
    for n in range(1, 8):
        assert exact_variant_above(complete(n), Fraction(1000)) == INFINITY


def test_floor_mode_gates(monkeypatch):
    assert exact_variant_above(Graph(30, 1), Fraction(-1)) == 0
    monkeypatch.setattr(toughness, "NODE_BUDGET", 100)
    with pytest.raises(CapacityError):
        exact_variant_above(disjoint_cliques(6, 2), Fraction(1))
    assert exact_variant_above(Graph(25, 1), Fraction(-1)) == 0
    with pytest.raises(ValueError):
        exact_variant_above(Graph(0, 0), Fraction(0))
    for floor in (INFINITY, math.inf, float("inf")):
        with pytest.raises(ValueError, match="the floor must be finite"):
            exact_variant_above(Graph(5, 0), floor)


@pytest.mark.parametrize("g", [
    counterexample_family(2, 1), extremal_family(2, 3), star(6),
    clique_join_singles(2, 3), complete(5),
    from_bits(5, WORKED_BITS),
    from_edges(8, [(v, (v + 1) % 8) for v in range(8)]),
], ids=["counterexample-2-1", "extremal-2-3", "star6", "K2+3K1", "K5",
        "worked", "C8"])
def test_floor_types_give_the_same_answer(g):
    # int, Fraction and finite float floors are compared exactly with I'
    value = exact_isolated_toughness_variant(g).value
    floors = [0, 1, 2, 3, 5, Fraction(3, 2), Fraction(7, 3), 0.0, 0.5, 1.5,
              2.25, 1 / 3, -1, -0.5]
    if value != INFINITY:
        floors += [value, float(value), math.floor(value),
                   float(value) + 1e-9, float(value) - 1e-9]
    for floor in floors:
        expected = value if value > floor else None
        assert exact_variant_above(g, floor) == expected, (g, floor)


def test_floor_equal_to_the_value_returns_none():
    for g, value in ((from_bits(5, WORKED_BITS), Fraction(3)),
                     (counterexample_family(2, 1), Fraction(5, 2)),
                     (star(6), Fraction(1, 4)),
                     (extremal_family(2, 4), Fraction(7, 3))):
        assert exact_isolated_toughness_variant(g).value == value
        # the same number as an int or float, where that is exact
        equal = [floor for floor in (value, float(value), int(value))
                 if floor == value]
        for floor in equal:
            assert exact_variant_above(g, floor) is None, (g, floor)
        assert exact_variant_above(g, value - Fraction(1, 1000)) == value


@pytest.mark.parametrize("g", [
    from_edges(24, [(v, (v + 1) % 24) for v in range(24)]),
    disjoint_cliques(12, 2),
], ids=["C24", "matching24"])
def test_floor_mode_at_order_24(g):
    value = Fraction(12, 11)
    assert exact_variant_above(g, value - Fraction(1, 10 ** 6)) == value
    assert exact_variant_above(g, value) is None


def test_engine_values_are_shared_fractions():
    # every value is one interned Fraction per ratio, whichever unreduced
    # pair |N(J)| / f(|J|) the search ended on
    shared = {}
    for n in range(2, 8):
        for g in nonisomorphic_graphs(n):
            plain = exact_isolated_toughness(g).value
            variant = exact_isolated_toughness_variant(g).value
            if variant == INFINITY:
                assert plain == INFINITY
                continue
            above = exact_variant_above(g, variant - Fraction(1, 100))
            for value in (plain, variant, above):
                assert type(value) is Fraction
                fresh = Fraction(value.numerator, value.denominator)
                assert value == fresh and hash(value) == hash(fresh)
                assert shared.setdefault(value, value) is value
    assert len(shared) == 17
    assert toughness._ratio(6, 4) is toughness._ratio(3, 2) \
        is shared[Fraction(3, 2)]
    assert toughness._ratio(0, 5) is toughness._ratio(0, 1) is shared[0]


def test_ratio_cache_stays_within_its_bound():
    # both terms of an engine ratio are at most n <= 64
    for g in (complete_bipartite(30, 34), Graph(64, 1),
              star(64)):
        exact_isolated_toughness(g)
        exact_isolated_toughness_variant(g)
    info = toughness._ratio.cache_info()
    assert info.currsize <= 65 * 65


# ----- roulette selection ---------------------------------------------------

def test_roulette_worked_examples():
    degrees = [4, 2, 2, 2, 2]
    assert roulette_select(degrees, 0.0) == 0
    assert roulette_select(degrees, 0.34) == 1
    assert roulette_select([0, 5], 0.99) == 1


def test_roulette_interval_partition():
    degrees = [4, 2, 2, 2, 2]
    total = sum(degrees)
    prefix = [0]
    for d in degrees:
        prefix.append(prefix[-1] + d)
    for j in range(len(degrees)):
        low, high = prefix[j] / total, prefix[j + 1] / total
        assert roulette_select(degrees, low) == j
        assert roulette_select(degrees, (low + high) / 2) == j


def test_roulette_rejects_bad_input():
    with pytest.raises(ValueError):
        roulette_select([1, 2], 1.0)
    with pytest.raises(ValueError):
        roulette_select([1, 2], -0.1)
    with pytest.raises(ValueError):
        roulette_select([0, 0], 0.5)


@given(st.lists(st.integers(0, 40), min_size=1, max_size=30),
       st.floats(0.0, 1.0, exclude_max=True))
def test_roulette_matches_loop_reference(degrees, p):
    if sum(degrees) == 0:
        with pytest.raises(ValueError):
            roulette_select(degrees, p)
    else:
        assert roulette_select(degrees, p) == roulette_select_loop(degrees, p)


def test_roulette_never_picks_zero_degree(seeded_rng):
    degrees = [0, 3, 0, 1, 0]
    for _ in range(200):
        assert degrees[roulette_select(degrees, float(seeded_rng.random()))]


# ----- pseudo-greedy estimator ----------------------------------------------

def test_pseudo_greedy_star():
    estimate = pseudo_greedy_estimate(star(5), np.random.default_rng(0))
    assert estimate == Fraction(1, 3)


def test_pseudo_greedy_complete_six_is_infinite():
    estimate = pseudo_greedy_estimate(complete(6), np.random.default_rng(0))
    assert estimate == INFINITY


def test_pseudo_greedy_small_orders_delegate_to_exact():
    # every graph of order 1-3: the floor search's value, and no draw
    for n in range(1, 4):
        for code in range(1 << pair_count(n)):
            g = Graph(n, code)
            rng = np.random.default_rng(0)
            state = rng.bit_generator.state
            assert pseudo_greedy_estimate(g, rng) == exact_variant_value(g)
            assert rng.bit_generator.state == state


def test_pseudo_greedy_is_seed_deterministic():
    g = from_bits(5, WORKED_BITS)
    runs = [pseudo_greedy_estimate(g, np.random.default_rng(7))
            for _ in range(3)]
    assert len(set(runs)) == 1


def test_pseudo_greedy_draws_one_uniform_per_step_with_an_edge():
    # star(8): after the first step the roulette track has no edge left
    # (the hub went, or a reset copied the maximum-degree track that
    # deleted it), so one uniform is drawn; K_8 keeps an edge through
    # all n - 3 steps
    for g, draws in ((star(8), 1), (complete(8), 5)):
        rng = np.random.default_rng(3)
        pseudo_greedy_estimate(g, rng)
        expected = np.random.default_rng(3)
        for _ in range(draws):
            expected.random()
        assert rng.bit_generator.state == expected.bit_generator.state


def perfect_matching(n):
    """n // 2 disjoint edges; an odd order leaves its last vertex alone."""
    return from_edges(n, [(2 * i, 2 * i + 1) for i in range(n // 2)])


def seeded_graph(n, density, seed):
    draws = np.random.default_rng(seed).random(pair_count(n))
    code = 0
    for position, draw in enumerate(draws):
        if draw < density:
            code |= 1 << position
    return Graph(n, code)


@st.composite
def estimator_graphs(draw):
    n = draw(st.integers(4, 24))
    kind = draw(st.sampled_from(("random", "empty", "complete", "star",
                                 "matching")))
    if kind == "empty":
        return empty_graph(n)
    if kind == "complete":
        return complete(n)
    if kind == "star":
        return star(n)
    if kind == "matching":
        return perfect_matching(n)
    return seeded_graph(n, draw(st.integers(0, 100)) / 100,
                        draw(st.integers(0, 2 ** 32 - 1)))


def assert_matches_reference(g, seed):
    rng = np.random.default_rng(seed)
    reference_rng = np.random.default_rng(seed)
    assert pseudo_greedy_estimate(g, rng) \
        == reference_estimate(g, reference_rng)
    # equal generator states pin the number of uniforms drawn
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@given(estimator_graphs(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=400, deadline=None)
def test_pseudo_greedy_matches_reference(g, seed):
    assert_matches_reference(g, seed)


@pytest.mark.parametrize("n", range(4, 25))
def test_pseudo_greedy_matches_reference_on_families(n):
    for g in (empty_graph(n), complete(n), star(n), perfect_matching(n),
              seeded_graph(n, 0.2, n), seeded_graph(n, 0.5, n)):
        for seed in range(3):
            assert_matches_reference(g, seed)


@given(graphs(4, 9), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_pseudo_greedy_upper_bounds_exact(g, seed):
    estimate = pseudo_greedy_estimate(g, np.random.default_rng(seed))
    exact = exact_isolated_toughness_variant(g).value
    if exact == INFINITY:
        assert estimate == INFINITY
    else:
        assert estimate >= exact


@pytest.fixture
def seeded_rng():
    return np.random.Generator(np.random.PCG64(99))

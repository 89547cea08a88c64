"""Exhaustive enumeration, minimizer survey and benchmark oracles."""

import functools
import itertools
import random
from fractions import Fraction

import pytest

from isotough import oracle
from isotough.canonical import canonical_code
from isotough.errors import CapacityError, ScopeError
from isotough.factors import requirement_bound
from isotough.graphs import Graph, complete, from_bits, from_edges, \
    pair_count, star
from isotough.oracle import MinimizerSurvey, MinimizerViolation, \
    _min_code, benchmark, enumerate_exact, explore_minimizers, \
    nonisomorphic_graphs
from isotough.rational import INFINITY
from isotough.toughness import ToughnessResult, _independent_set_search, \
    exact_isolated_toughness, exact_isolated_toughness_variant


def test_enumeration_validation():
    with pytest.raises(ValueError):
        enumerate_exact(1, 2)
    with pytest.raises(ValueError):
        enumerate_exact(5, 1)
    with pytest.raises(ScopeError):
        enumerate_exact(4, 2)  # default window for (4, 2) is empty


def test_enumeration_capacity_gate():
    with pytest.raises(CapacityError):
        enumerate_exact(10, 2)


def test_enumeration_order_six():
    result = enumerate_exact(6, 2)
    assert result.scope == (2, 2)
    assert result.total_scanned == 1 << pair_count(6)
    optimum = result.optima[2]
    assert optimum.value == Fraction(4)
    assert optimum.witness == from_bits(6, "100010001110100")


def test_enumeration_order_eight():
    result = enumerate_exact(8, 2)
    assert result.scope == (2, 3)
    assert {d: (o.value, o.witness.bits()) for d, o in result.optima.items()} \
        == {2: (Fraction(6), "1000001000001111101110110100"),
            3: (Fraction(6), "1100001100001000011110110100")}


def test_order_eight_survey_is_exhaustive():
    # next to the order-8 enumeration, so it scores that build's classes
    survey = explore_minimizers(8)
    assert not survey.sampled
    assert (survey.graphs_checked, survey.pairs_checked,
            survey.differing, len(survey.violations)) \
        == (13590, 171529, 5033, 0)


def test_enumeration_order_four_explicit_window():
    result = enumerate_exact(4, 2, scope=(2, 3))
    assert result.optima[2].value is None
    assert result.optima[2].witness is None
    assert result.optima[3].value == INFINITY
    assert result.optima[3].witness == complete(4)


def test_witnesses_reproduce_their_claims():
    result = enumerate_exact(5, 2, scope=(2, 4))
    for delta, optimum in result.optima.items():
        if optimum.value is None:
            continue
        g = optimum.witness
        assert g.min_degree == delta
        assert exact_isolated_toughness_variant(g).value == optimum.value
        assert optimum.value > requirement_bound(2, delta)


def test_enumeration_complete_graph_clears_every_bound():
    # K_n has no qualifying deletion set, so its value is infinite and
    # strictly above the bound, however large the bound
    for n, k in ((4, 3), (5, 4)):
        optimum = enumerate_exact(n, k).optima[n - 1]
        assert optimum.value == INFINITY
        assert optimum.witness == complete(n)


@functools.lru_cache(maxsize=None)
def labelled_scan(n):
    """Independent route: every encoding of order n through the engine.

    Per minimum degree, (value, code) pairs in ascending order, so the first
    pair above a bound holds the optimum and its smallest witness code.
    """
    by_delta = {}
    for code in range(1 << pair_count(n)):
        g = Graph(n, code)
        value = exact_isolated_toughness_variant(g).value
        by_delta.setdefault(g.min_degree, []).append((value, code))
    return {d: sorted(pairs) for d, pairs in by_delta.items()}


def labelled_optima(n, k, scope):
    best = {}
    for d in range(scope[0], scope[1] + 1):
        bound = requirement_bound(k, d)
        value, code = next((pair for pair in labelled_scan(n).get(d, ())
                            if pair[0] > bound), (None, None))
        best[d] = (value, None if code is None else Graph(n, code))
    return best


@pytest.mark.parametrize("n,k,scope", [(4, 2, (2, 3)), (5, 2, (2, 4)),
                                       (5, 3, (3, 4))])
def test_encoding_scan_matches_isomorphism_class_scan(n, k, scope):
    # every relabeling of a class appears in the labelled scan, so both
    # routes must agree on each optimum and on its smallest witness
    result = enumerate_exact(n, k, scope=scope)
    assert {d: (o.value, o.witness) for d, o in result.optima.items()} \
        == labelled_optima(n, k, scope)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_class_route_matches_labelled_scan_on_every_window(n):
    for k in (2, 3, 4):
        for lo in range(k, n):
            for hi in range(lo, n):
                result = enumerate_exact(n, k, scope=(lo, hi))
                assert {d: (o.value, o.witness)
                        for d, o in result.optima.items()} \
                    == labelled_optima(n, k, (lo, hi)), (k, lo, hi)


def test_min_code_is_smallest_over_all_relabelings():
    rng = random.Random(5)
    for n in range(1, 7):
        for g in nonisomorphic_graphs(n):
            shuffled = list(range(n))
            rng.shuffle(shuffled)
            twin = from_edges(n, [(shuffled[u], shuffled[v])
                                  for u, v in g.edges()])
            smallest = min(
                from_edges(n, [(p[u], p[v]) for u, v in g.edges()]).code
                for p in itertools.permutations(range(n)))
            assert _min_code(twin) == smallest, g.bits()


def test_each_tied_class_is_searched_once_per_process():
    # the witness is the least of the tied classes' cached minima, so a
    # repeated enumeration, or another k, starts no new witness search
    enumerate_exact(7, 2)
    searched = _min_code.cache_info().misses
    first = enumerate_exact(7, 2)
    again = enumerate_exact(7, 3)
    assert _min_code.cache_info().misses == searched
    assert {d: o.witness.bits() for d, o in first.optima.items()} \
        == {2: "100001000011110110100", 3: "111111100010001110100"}
    assert again.optima[3].witness is None


# ----- isomorphism class generation -----------------------------------------

def test_class_build_above_the_limit_builds_no_class():
    # the class builder owns the order limit, so every caller stops there
    oracle._level.cache_clear()
    with pytest.raises(CapacityError, match="enumeration stops at order 9"):
        nonisomorphic_graphs(oracle.ENUMERATION_LIMIT + 1)
    assert oracle._level.cache_info().currsize == 0


def test_nonisomorphic_counts_match_known_sequence():
    oracle._level.cache_clear()  # test generation, not a warmed cache
    assert [len(nonisomorphic_graphs(n)) for n in range(1, 8)] \
        == [1, 2, 4, 11, 34, 156, 1044]


def test_nonisomorphic_level_is_pairwise_distinct():
    level = nonisomorphic_graphs(5)
    codes = [canonical_code(g) for g in level]
    assert len(set(codes)) == len(level)
    assert all(g.n == 5 for g in level)


def test_class_levels_are_built_once_per_process(monkeypatch):
    oracle._level.cache_clear()
    calls = 0

    def counted(g):
        nonlocal calls
        calls += 1
        return canonical_code(g)

    monkeypatch.setattr(oracle, "canonical_code", counted)
    enumerate_exact(7, 2)
    # one per extension labelled, one per twin orbit, orders 2..7
    assert calls == 2 + 4 + 11 + 42 + 221 + 1808
    calls = 0
    enumerate_exact(7, 3)
    explore_minimizers(7)
    nonisomorphic_graphs(6)
    assert calls == 0


def brute_force_levels(top):
    """Classes of orders 1..top, each order from the one below through
    every extension mask that leaves the new vertex with minimum degree."""
    levels = [[Graph(1)]]
    for m in range(2, top + 1):
        codes = set()
        for parent in levels[-1]:
            for mask in range(1 << (m - 1)):
                if all(mask.bit_count() <= d + (mask >> u & 1)
                       for u, d in enumerate(parent.degrees)):
                    codes.add(canonical_code(
                        Graph(m, parent.code << (m - 1) | mask)))
        levels.append([Graph(m, code) for code in sorted(codes)])
    return levels


def test_twin_orbit_levels_match_a_brute_force_build():
    oracle._level.cache_clear()
    for m, level in enumerate(brute_force_levels(7), start=1):
        assert [g.code for g in nonisomorphic_graphs(m)] \
            == [g.code for g in level], m


def twin_swap_orbit(g, mask):
    """Every image of mask under swaps of two vertices with equal
    neighbourhoods apart from each other."""
    adj = g.adjacency
    swaps = [(u, v) for u, v in itertools.combinations(range(g.n), 2)
             if adj[u] & ~(1 << v) == adj[v] & ~(1 << u)]
    orbit, todo = {mask}, [mask]
    while todo:
        current = todo.pop()
        for u, v in swaps:
            if (current >> u ^ current >> v) & 1:
                image = current ^ (1 << u | 1 << v)
                if image not in orbit:
                    orbit.add(image)
                    todo.append(image)
    return orbit


@pytest.mark.parametrize("name,g,count", [
    ("K1,4", star(5), 5 * 2),
    ("K2,3", from_edges(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)]),
     3 * 4),
    ("C4", from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), 3 * 3),
    ("K4", complete(4), 5),
    ("diamond", from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
     3 * 3),
    ("P4, no twins", from_edges(4, [(0, 1), (1, 2), (2, 3)]), 2 ** 4),
])
def test_twin_orbit_masks_cover_every_mask_once(name, g, count):
    # prod(|C| + 1) * 2^(vertices outside twin classes) masks, and every
    # mask of the parent's vertices is a twin-swap image of exactly one
    masks = oracle._twin_orbit_masks(g)
    assert len(masks) == count
    covered = [image for mask in masks for image in twin_swap_orbit(g, mask)]
    assert sorted(covered) == list(range(1 << g.n))


def test_twin_groups_are_the_pairwise_twin_test():
    # one twin rule: two vertices share a class of _twin_groups exactly
    # when their neighbourhoods are equal apart from each other
    named = [star(5),
             from_edges(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)]),
             from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), complete(4),
             from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
             from_edges(4, [(0, 1), (1, 2), (2, 3)])]
    for g in named + [g for n in range(1, 8) for g in nonisomorphic_graphs(n)]:
        groups = oracle._twin_groups(g)
        assert all(len(group) > 1 and group == sorted(group)
                   for group in groups), g.bits()
        label = {u: i for i, group in enumerate(groups) for u in group}
        assert len(label) == sum(map(len, groups))  # the classes are disjoint
        adj = g.adjacency
        for u, v in itertools.combinations(range(g.n), 2):
            assert (u in label and label.get(u) == label.get(v)) \
                == (adj[u] & ~(1 << v) == adj[v] & ~(1 << u)), (g.bits(), u, v)


def test_class_graphs_are_shared_and_decoded_once():
    oracle._level.cache_clear()
    first, second = nonisomorphic_graphs(6), nonisomorphic_graphs(6)
    assert first is not second
    assert all(a is b for a, b in zip(first, second, strict=True))
    assert not any("adjacency" in vars(g) for g in first)  # decoded lazily
    enumerate_exact(6, 2)
    assert all("adjacency" in vars(g) for g in nonisomorphic_graphs(6))


def test_shared_level_is_not_changed_through_a_returned_list():
    oracle._level.cache_clear()
    first = nonisomorphic_graphs(5)
    expected = list(first)
    first.pop()
    first[0] = complete(5)
    assert nonisomorphic_graphs(5) == expected
    nonisomorphic_graphs(5).clear()
    assert nonisomorphic_graphs(5) == expected


def test_survey_asks_for_each_order_once(monkeypatch):
    # the census benchmark taps oracle.nonisomorphic_graphs and relies on
    # one call per order
    oracle._level.cache_clear()
    orders = []

    def tap(n):
        orders.append(n)
        return nonisomorphic_graphs(n)

    monkeypatch.setattr(oracle, "nonisomorphic_graphs", tap)
    explore_minimizers(7)
    assert orders == [1, 2, 3, 4, 5, 6, 7]


# ----- minimizer survey -----------------------------------------------------

def test_minimizer_survey_small_orders():
    survey = explore_minimizers(5)
    assert not survey.sampled
    assert survey.graphs_checked > 0
    assert survey.pairs_checked >= survey.graphs_checked
    assert survey.violations == []
    assert survey.differing > 0  # differing cardinality does occur


def survey_by_every_pair(graphs,
                         variant_engine=exact_isolated_toughness_variant):
    """Reference survey: every plain minimizer against every variant one,
    counting each pair, skipping the ones of equal size and counting the
    graphs with a pair of differing size that is no violation."""
    survey = MinimizerSurvey(n_max=0, graphs_checked=0, pairs_checked=0,
                             violations=[], differing=0)
    for g in graphs:
        plain = exact_isolated_toughness(g)
        variant = variant_engine(g)
        if plain.value == INFINITY or variant.value == INFINITY:
            continue
        survey.graphs_checked += 1
        differs = False
        for s_plain, iso_plain in zip(plain.minimizers, plain.witness_i):
            for s_variant, iso_variant in zip(variant.minimizers,
                                              variant.witness_i):
                survey.pairs_checked += 1
                if len(s_plain) == len(s_variant):
                    continue
                if len(s_variant) > len(s_plain) \
                        and iso_variant > iso_plain:
                    differs = True
                else:
                    survey.violations.append(MinimizerViolation(
                        g, s_plain, s_variant, iso_plain, iso_variant))
        survey.differing += differs
    return survey


def test_order_seven_survey_contents():
    # the survey visits only pairs of different sizes and counts each
    # graph with such a pair once
    survey = explore_minimizers(7)
    assert (survey.graphs_checked, survey.pairs_checked) == (1245, 14165)
    assert survey.violations == []
    assert survey.differing == 311


def test_survey_matches_a_scan_of_every_pair(monkeypatch):
    # with the limit at 7, order 8 is sampled without an order-9 build
    monkeypatch.setattr(oracle, "ENUMERATION_LIMIT", 7)
    survey = explore_minimizers(8, samples=30, seed=5)
    rng = random.Random(5)
    graphs = [g for n in range(1, 8) for g in nonisomorphic_graphs(n)]
    graphs += [Graph(8, rng.getrandbits(pair_count(8))) for _ in range(30)]
    expected = survey_by_every_pair(graphs)
    assert (survey.graphs_checked, survey.pairs_checked) \
        == (expected.graphs_checked, expected.pairs_checked)
    assert survey.differing == expected.differing
    assert survey.violations == expected.violations == []


def test_survey_records_violations_in_pair_order(monkeypatch):
    # with every variant witness negated, each pair of different sizes
    # breaks the rule and is recorded, in the order of the full product
    def negated(g):
        result = exact_isolated_toughness_variant(g)
        return ToughnessResult(result.value, result.minimizers,
                               tuple(-i for i in result.witness_i))

    def negated_search(g):
        plain, (value, sizes) = _independent_set_search(g)
        return plain, (value, {mask: -i for mask, i in sizes.items()})

    expected = survey_by_every_pair(
        [g for n in range(1, 7) for g in nonisomorphic_graphs(n)], negated)
    monkeypatch.setattr(oracle, "_independent_set_search", negated_search)
    survey = explore_minimizers(6)
    assert survey.violations and not survey.differing
    assert survey.violations == expected.violations
    assert survey.pairs_checked == expected.pairs_checked


def test_minimizer_survey_samples_beyond_exhaustive_range(monkeypatch):
    monkeypatch.setattr(oracle, "ENUMERATION_LIMIT", 7)
    survey = explore_minimizers(8, samples=5, seed=1)
    assert survey.sampled
    assert survey.violations == []


def test_minimizer_survey_validation():
    with pytest.raises(ValueError):
        explore_minimizers(0)


@pytest.mark.parametrize("samples", [0, -3])
def test_minimizer_survey_needs_samples_beyond_exhaustive_range(
        samples, monkeypatch):
    def unreachable(n):
        raise AssertionError("validation must come before any work")

    monkeypatch.setattr(oracle, "nonisomorphic_graphs", unreachable)
    with pytest.raises(ValueError, match="samples"):
        explore_minimizers(10, samples=samples)
    # up to the exhaustive range the count is unused
    monkeypatch.undo()
    assert not explore_minimizers(4, samples=samples).sampled


# ----- benchmark ------------------------------------------------------------

def test_benchmark_order_six():
    result = benchmark(6, 2, runs=3)
    assert result.sound
    assert result.agreement == {2: True}
    assert result.enumeration_optima == {2: Fraction(4)}
    assert result.solver_optima == {2: Fraction(4)}
    assert result.solver_avg_s > 0
    assert result.enumeration_s > 0
    assert result.machine


def test_benchmark_validation():
    with pytest.raises(ValueError):
        benchmark(6, 2, runs=0)

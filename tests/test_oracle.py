"""Exhaustive enumeration, minimizer survey and benchmark oracles."""

from fractions import Fraction

import pytest

from isotough.errors import CapacityError, ScopeError
from isotough.factors import requirement_bound
from isotough.graphs import complete, from_bits, pair_count
from isotough.oracle import benchmark, enumerate_exact, explore_minimizers, \
    nonisomorphic_graphs
from isotough.rational import INFINITY
from isotough.toughness import exact_isolated_toughness_variant


def test_enumeration_validation():
    with pytest.raises(ValueError):
        enumerate_exact(1, 2)
    with pytest.raises(ValueError):
        enumerate_exact(5, 1)
    with pytest.raises(ScopeError):
        enumerate_exact(4, 2)  # default window for (4, 2) is empty


def test_enumeration_capacity_gate():
    with pytest.raises(CapacityError):
        enumerate_exact(8, 2)


def test_enumeration_order_six():
    result = enumerate_exact(6, 2)
    assert result.scope == (2, 2)
    assert result.total_scanned == 1 << pair_count(6)
    optimum = result.optima[2]
    assert optimum.value == Fraction(4)
    assert optimum.witness == from_bits(6, "100010001110100")


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


def brute_optima(n, k, scope):
    """Independent route: scan isomorphism classes with the exact engine."""
    best = {d: None for d in range(scope[0], scope[1] + 1)}
    for g in nonisomorphic_graphs(n):
        delta = g.min_degree
        if not scope[0] <= delta <= scope[1]:
            continue
        value = exact_isolated_toughness_variant(g).value
        if not value > requirement_bound(k, delta):
            continue
        if best[delta] is None or value < best[delta]:
            best[delta] = value
    return best


@pytest.mark.parametrize("n,k,scope", [(4, 2, (2, 3)), (5, 2, (2, 4)),
                                       (5, 3, (3, 4))])
def test_encoding_scan_matches_isomorphism_class_scan(n, k, scope):
    # every relabeling of a class appears in the raw-encoding scan, so the
    # per-degree optima of the two routes must coincide exactly
    result = enumerate_exact(n, k, scope=scope)
    expected = brute_optima(n, k, scope)
    assert {d: o.value for d, o in result.optima.items()} == expected


def test_chunking_does_not_change_results():
    coarse = enumerate_exact(6, 2)
    expected = {d: (o.value, o.witness) for d, o in coarse.optima.items()}
    for chunk in (1 << 8, 1 << 10, 1000):  # 1000 leaves a ragged last chunk
        fine = enumerate_exact(6, 2, chunk=chunk)
        assert {d: (o.value, o.witness) for d, o in fine.optima.items()} \
            == expected


# ----- isomorphism class generation -----------------------------------------

def test_nonisomorphic_counts_match_known_sequence():
    assert [len(nonisomorphic_graphs(n)) for n in range(1, 8)] \
        == [1, 2, 4, 11, 34, 156, 1044]


def test_nonisomorphic_level_is_pairwise_distinct():
    from isotough.canonical import canonical_code
    level = nonisomorphic_graphs(5)
    codes = [canonical_code(g) for g in level]
    assert len(set(codes)) == len(level)
    assert all(g.n == 5 for g in level)


# ----- minimizer survey -----------------------------------------------------

def test_minimizer_survey_small_orders():
    survey = explore_minimizers(5)
    assert not survey.sampled
    assert survey.graphs_checked > 0
    assert survey.pairs_checked >= survey.graphs_checked
    assert survey.violations == []
    assert survey.differing_examples  # differing cardinality does occur
    for example in survey.differing_examples:
        assert len(example.variant_set) > len(example.plain_set)
        assert example.variant_isolated > example.plain_isolated


def test_minimizer_survey_samples_beyond_exhaustive_range():
    survey = explore_minimizers(8, samples=5, seed=1)
    assert survey.sampled
    assert survey.violations == []


def test_minimizer_survey_validation():
    with pytest.raises(ValueError):
        explore_minimizers(0)


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

"""Fractional factor feasibility, degree scope, and the requirement check."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isotough import factors
from isotough.errors import ScopeError
from isotough.factors import (
    FactorSpec,
    _double_cover_arcs,
    certify_requirement,
    delta_scope,
    fractional_k_factor,
    has_fractional_factor,
    requirement_bound,
    requirement_check,
)
from isotough.graphs import (
    Graph,
    complete,
    counterexample_family,
    empty_graph,
    from_bits,
    from_edges,
    join,
    pair_count,
    star,
)
from isotough.oracle import nonisomorphic_graphs
from isotough.rational import INFINITY
from isotough.toughness import exact_isolated_toughness_variant

from _feasibility_oracles import (
    cut_condition_feasible,
    scipy_flow_feasible,
    simplex_feasible,
)


def cycle(n):
    return from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def graphs(n_min=2, n_max=7):
    return st.integers(n_min, n_max).flatmap(
        lambda n: st.integers(0, (1 << pair_count(n)) - 1).map(
            lambda code: Graph(n, code)))


# ----- FactorSpec -----------------------------------------------------------

def test_factor_spec_validation():
    assert FactorSpec.k_factor(2) == FactorSpec(2, 2)
    with pytest.raises(ValueError):
        FactorSpec(0, 1)
    with pytest.raises(ValueError):
        FactorSpec(3, 2)
    with pytest.raises(ValueError):
        FactorSpec(1.5, 2)


# ----- feasibility against both oracles -------------------------------------

def test_known_feasible_cases():
    assert has_fractional_factor(complete(2), FactorSpec(1, 1))
    for n in (4, 5, 7):
        assert has_fractional_factor(cycle(n), FactorSpec.k_factor(2))
    assert has_fractional_factor(complete(5), FactorSpec.k_factor(2))


def test_known_infeasible_cases():
    assert not has_fractional_factor(counterexample_family(2, 0),
                                     FactorSpec.k_factor(2))
    assert not has_fractional_factor(counterexample_family(3, 0),
                                     FactorSpec.k_factor(3))
    assert not has_fractional_factor(star(4), FactorSpec.k_factor(2))
    assert not has_fractional_factor(empty_graph(3), FactorSpec(1, 1))


@given(graphs(2, 6), st.integers(1, 3), st.integers(0, 2))
@settings(max_examples=200, deadline=None)
def test_flow_checker_matches_cut_condition(g, a, extra):
    b = a + extra
    assert has_fractional_factor(g, FactorSpec(a, b)) \
        == cut_condition_feasible(g, a, b)


@given(graphs(2, 5), st.integers(1, 3), st.integers(0, 1))
@settings(max_examples=60, deadline=None)
def test_flow_checker_matches_exact_simplex(g, a, extra):
    b = a + extra
    assert has_fractional_factor(g, FactorSpec(a, b)) \
        == simplex_feasible(g, a, b)


def test_the_two_oracles_agree_with_each_other():
    for code in range(1 << pair_count(4)):
        g = Graph(4, code)
        for a, b in [(1, 1), (1, 2), (2, 2)]:
            assert cut_condition_feasible(g, a, b) \
                == simplex_feasible(g, a, b)


@given(graphs(3, 6), st.integers(1, 2), st.integers(0, 1))
@settings(max_examples=100, deadline=None)
def test_widening_the_window_preserves_feasibility(g, a, extra):
    if has_fractional_factor(g, FactorSpec(a, a + extra)):
        assert has_fractional_factor(g, FactorSpec(a, a + extra + 1))
        if a > 1:
            assert has_fractional_factor(g, FactorSpec(a - 1, a + extra))


# ----- concrete factor recovery ---------------------------------------------

def test_cycle_factor_is_all_ones():
    assignment = fractional_k_factor(cycle(5), 2)
    assert assignment is not None
    assert set(assignment.values()) == {Fraction(1)}


def test_recovered_factor_meets_the_window():
    g = complete(5)
    for k in (2, 3, 4):
        assignment = fractional_k_factor(g, k)
        assert assignment is not None
        for weight in assignment.values():
            assert 0 <= weight <= 1
            assert weight.denominator in (1, 2)  # half-integral
        for v in range(g.n):
            at_v = sum(w for (x, y), w in assignment.items()
                       if v in (x, y))
            assert at_v == k


def test_infeasible_factor_returns_none():
    assert fractional_k_factor(counterexample_family(2, 0), 2) is None


# ----- degree scope ---------------------------------------------------------

def test_delta_scope_examples():
    assert delta_scope(15, 2) == (2, 7)
    assert delta_scope(7, 2) == (2, 3)
    assert delta_scope(9, 4) == (4, 8)
    assert delta_scope(6, 2) == (2, 2)


def test_delta_scope_empty_interval():
    with pytest.raises(ScopeError):
        delta_scope(4, 2)
    with pytest.raises(ScopeError):
        delta_scope(2, 2)


def test_scope_upper_regime_switch():
    # below n = 4k-5 the top is n-1; at or above, just under half of n
    assert delta_scope(9, 4) == (4, 8)      # 9 < 11 = 4*4-5
    assert delta_scope(11, 4) == (4, 5)     # 11 >= 11


# ----- requirement bound and check ------------------------------------------

def test_requirement_bound_values():
    assert requirement_bound(2, 2) == Fraction(3)
    assert requirement_bound(2, 3) == Fraction(5, 2)
    assert requirement_bound(3, 4) == Fraction(4)
    with pytest.raises(ValueError):
        requirement_bound(2, 1)


def test_requirement_check_reasons():
    scope = (2, 3)
    low = requirement_check(star(5), 2, scope)
    assert (low.accepted, low.reason) == (False, "degree-below-k")
    out = requirement_check(complete(5), 2, scope)
    assert (out.accepted, out.reason) == (False, "degree-out-of-scope")
    flat = requirement_check(counterexample_family(2, 0), 2, (2, 4))
    assert (flat.accepted, flat.reason) == (False, "value-not-above-bound")
    good = requirement_check(complete(4), 2, (2, 3))
    assert (good.accepted, good.reason) == (True, "accepted")
    assert good.value == INFINITY


def test_requirement_check_uses_supplied_screening_value():
    g = counterexample_family(2, 0)
    opinion = requirement_check(g, 2, (2, 4), value=Fraction(10))
    assert opinion.accepted  # screening value taken at face value
    with pytest.raises(ValueError):
        requirement_check(g, 1, (2, 4))


def test_requirement_check_without_value_matches_the_full_engine():
    # the early-exit search decides exactly as the full value would
    for n in range(4, 8):
        for g in nonisomorphic_graphs(n):
            for k in (2, 3):
                scope = (k, max(k, n - 1))
                full = exact_isolated_toughness_variant(g).value
                given = requirement_check(g, k, scope, value=full)
                decided = requirement_check(g, k, scope)
                assert (decided.accepted, decided.reason, decided.delta,
                        decided.bound) == (given.accepted, given.reason,
                                           given.delta, given.bound), g
                if decided.accepted:
                    assert decided.value == full


def test_requirement_check_rejection_on_value_carries_no_value():
    # I'(counterexample(2, 0)) = 3 sits on the bound 3: the search stops
    # at that ratio and never takes the full value
    g = counterexample_family(2, 0)
    verdict = requirement_check(g, 2, (2, 4))
    assert (verdict.accepted, verdict.reason) \
        == (False, "value-not-above-bound")
    assert verdict.bound == Fraction(3)
    assert verdict.value is None
    supplied = requirement_check(g, 2, (2, 4), value=Fraction(3))
    assert supplied.value == Fraction(3)


def test_requirement_check_rejects_out_of_scope_degree_with_no_search(
        monkeypatch):
    def no_search(g, floor):
        raise AssertionError("searched a graph whose degree is out of scope")

    monkeypatch.setattr(factors, "exact_variant_above", no_search)
    out = requirement_check(complete(5), 2, (2, 3))
    assert (out.accepted, out.reason) == (False, "degree-out-of-scope")
    low = requirement_check(star(5), 2, (2, 3))
    assert (low.accepted, low.reason) == (False, "degree-below-k")


def test_valueless_rejections_are_shared_per_reason_k_and_delta():
    scope = (2, 3)
    cases = [
        # (reason, k, two graphs with the same minimum degree)
        ("degree-below-k", 2, star(5), star(7)),
        ("degree-out-of-scope", 2, complete(5),
         Graph(6, complete(6).code & ~from_edges(6, [(0, 1), (2, 3), (4, 5)])
               .code)),
        ("value-not-above-bound", 2, counterexample_family(2, 0),
         from_edges(6, [(v, (v + 1) % 6) for v in range(6)])),
    ]
    for reason, k, first, second in cases:
        one = requirement_check(first, k, scope)
        other = requirement_check(second, k, scope)
        assert (one.accepted, one.reason) == (False, reason)
        assert one == other and one is other
        assert one.value is None
        assert one.delta == first.min_degree == second.min_degree
        expected = requirement_bound(k, one.delta) \
            if reason == "value-not-above-bound" else None
        assert one.bound == expected
    # the bound depends on k, so a value rejection is shared per k
    g = join(empty_graph(3), empty_graph(4))  # K3,4: I' = 1, delta = 3
    at2 = requirement_check(g, 2, (2, 3))
    at3 = requirement_check(g, 3, (3, 3))
    assert (at2.reason, at2.delta, at2.bound) \
        == ("value-not-above-bound", 3, Fraction(5, 2))
    assert (at3.reason, at3.delta, at3.bound) \
        == ("value-not-above-bound", 3, Fraction(5))
    assert requirement_check(g, 3, (3, 3)) is at3


def test_supplied_value_is_carried_as_given():
    scope = (2, 3)
    for g in (star(5), complete(5), counterexample_family(2, 0),
              complete(4)):
        for value in (Fraction(3), Fraction(10), INFINITY, 2.5):
            assert requirement_check(g, 2, scope, value=value).value \
                is value


# ----- certification --------------------------------------------------------

def test_certificate_on_boundary_family():
    certificate = certify_requirement(counterexample_family(2, 0), 2)
    assert certificate.delta == 2
    assert certificate.i_prime == Fraction(3)
    assert certificate.bound == Fraction(3)
    assert not certificate.accepted
    assert not certificate.factor_exists


def test_certificate_accepted_implies_factor():
    certificate = certify_requirement(complete(6), 2, scope=(2, 5))
    assert certificate.accepted
    assert certificate.factor_exists


@given(graphs(4, 7), st.integers(2, 3))
@settings(max_examples=150, deadline=None)
def test_certification_never_raises_on_arbitrary_graphs(g, k):
    # ConsistencyError would mean an accepted graph without a factor,
    # exactly the situation the acceptance bound is meant to rule out.
    certificate = certify_requirement(g, k)
    if certificate.accepted:
        assert certificate.factor_exists


# ----- the bitmask search against the references ----------------------------

def windows(n):
    return [(a, b) for a in range(1, n + 1) for b in range(a, n + 1)]


def gnp(rng, n, p):
    return from_edges(n, [pair for pair in itertools.combinations(range(n), 2)
                          if rng.random() < p])


def assert_arcs_fit(g, arcs, a, b):
    """The chosen double-cover arcs use edges only and put every left and
    right degree inside [a, b]."""
    assert len(arcs) == g.n
    for v in range(g.n):
        assert arcs[v] & ~g.adjacency[v] == 0
        assert a <= arcs[v].bit_count() <= b
        assert a <= sum(arcs[u] >> v & 1 for u in range(g.n)) <= b


def assert_k_factor(g, assignment, k):
    """Weights on edges only, each in {0, 1/2, 1}, summing to k at every
    vertex."""
    assert set(assignment) <= set(g.edges())
    assert set(assignment.values()) <= {Fraction(0), Fraction(1, 2),
                                        Fraction(1)}
    at = [Fraction(0)] * g.n
    for (u, v), weight in assignment.items():
        at[u] += weight
        at[v] += weight
    assert at == [k] * g.n


def test_order_zero_is_feasible():
    assert has_fractional_factor(Graph(0, 0), FactorSpec(1, 1))
    assert has_fractional_factor(Graph(0, 0), FactorSpec(3, 5))
    assert fractional_k_factor(Graph(0, 0), 2) == {}


def test_search_matches_cut_condition_on_every_small_encoding():
    for n in range(1, 6):
        for code in range(1 << pair_count(n)):
            g = Graph(n, code)
            for a, b in windows(n):
                assert has_fractional_factor(g, FactorSpec(a, b)) \
                    == cut_condition_feasible(g, a, b), (n, g.bits(), a, b)


def test_search_matches_cut_condition_on_order_six_classes():
    for g in nonisomorphic_graphs(6):
        for a, b in windows(6):
            arcs = _double_cover_arcs(g, a, b)
            assert (arcs is not None) == cut_condition_feasible(g, a, b), \
                (g.bits(), a, b)
            if arcs is not None:
                assert_arcs_fit(g, arcs, a, b)


def test_search_matches_scipy_on_random_graphs():
    rng = np.random.default_rng(20261018)
    feasible = infeasible = 0
    for _ in range(300):
        n = int(rng.integers(7, 25))
        g = gnp(rng, n, float(rng.uniform(0.15, 0.9)))
        delta = max(1, g.min_degree)
        a = int(rng.integers(1, delta + 1))
        cases = {(delta, delta), (max(1, delta // 2), max(1, delta // 2)),
                 (1, delta), (a, a + int(rng.integers(0, 3)))}
        for a, b in sorted(cases):
            arcs = _double_cover_arcs(g, a, b)
            assert (arcs is not None) == scipy_flow_feasible(g, a, b), \
                (g.n, g.bits(), a, b)
            if arcs is None:
                infeasible += 1
            else:
                assert_arcs_fit(g, arcs, a, b)
                feasible += 1
    assert feasible > 500 and infeasible > 50


@pytest.mark.parametrize("n, bits, a, b", [
    (6, "100110011111110", 1, 2),
    (7, "110011010110111111110", 2, 3),
    (7, "000011110110111111110", 2, 3),
    (7, "000001000011110110011", 1, 2),
])
def test_repair_path_ending_at_a_vertex_above_a(n, bits, a, b):
    # Over every class of order <= 7 and every window, these are the only
    # cases whose repair path ends at a vertex above a, which then gives
    # up an arc; every other path ends at a vertex below b.
    g = from_bits(n, bits)
    arcs = _double_cover_arcs(g, a, b)
    assert arcs is not None and cut_condition_feasible(g, a, b)
    assert_arcs_fit(g, arcs, a, b)


def order_64_grid():
    """(label, graph, a, b): the dense order-64 cases, also timed by
    tests/time_flow_worst_cases.py."""
    rng = np.random.default_rng(64)
    grid = [("K64 k=32", complete(64), 32, 32),
            ("K64 [1,63]", complete(64), 1, 63)]
    for p in (0.2, 0.5, 0.8):
        g = gnp(rng, 64, p)
        delta = g.min_degree
        grid += [(f"G(64,{p}) k=delta={delta}", g, delta, delta),
                 (f"G(64,{p}) k=delta/2={delta // 2}", g, delta // 2,
                  delta // 2)]
    return grid


def test_search_matches_scipy_on_dense_order_64_grid():
    for label, g, a, b in order_64_grid():
        arcs = _double_cover_arcs(g, a, b)
        assert (arcs is not None) == scipy_flow_feasible(g, a, b), label
        if arcs is not None:
            assert_arcs_fit(g, arcs, a, b)
        if arcs is not None and a == b:
            assert_k_factor(g, fractional_k_factor(g, a), a)


def test_k_factor_on_every_small_class():
    found = 0
    for n in range(1, 7):
        for g in nonisomorphic_graphs(n):
            for k in (1, 2, 3):
                assignment = fractional_k_factor(g, k)
                assert (assignment is not None) \
                    == cut_condition_feasible(g, k, k), (g.bits(), k)
                if assignment is not None:
                    assert_k_factor(g, assignment, k)
                    found += 1
    assert found > 100

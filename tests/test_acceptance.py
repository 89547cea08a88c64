"""Release gate: nine end-to-end acceptance checks.

Each test covers one numbered criterion; conftest.py prints a PASS/FAIL
line per criterion at the end of the run.  The checks cross the module
boundaries on purpose: closed-form families against the exact engine,
the evolutionary solver against the exhaustive enumeration, the flow
reduction against two independent feasibility oracles, and the shipped
command line against its own documented byte-determinism promise.
"""

import hashlib
import time
from fractions import Fraction

import numpy as np

from _feasibility_oracles import cut_condition_feasible, simplex_feasible
from _graph_helpers import cycle
from isotough.cli import main as cli_main
from isotough.evolve import SolverConfig, diversity_enhancement, report, \
    run_solver
from isotough.factors import FactorSpec, has_fractional_factor
from isotough.canonical import deduplicate
from isotough.graphs import Graph, clique_join_singles, complete, \
    counterexample_family, extremal_family, from_bits, from_edges, \
    hamming_distance, pair_count, star
from isotough.oracle import enumerate_exact, explore_minimizers, \
    nonisomorphic_graphs
from isotough.toughness import exact_isolated_toughness, \
    exact_isolated_toughness_variant, pseudo_greedy_estimate


def random_graph(n, rng):
    draws = rng.random(pair_count(n))
    code = 0
    for at in np.flatnonzero(draws < 0.5):
        code |= 1 << int(at)
    return Graph(n, code)


def test_criterion_1_closed_form_families():
    """The exact engine reproduces every closed-form family value."""
    start = time.perf_counter()
    for n in range(4, 9):
        assert exact_isolated_toughness(star(n)).value == Fraction(1, n - 1)
        assert exact_isolated_toughness_variant(star(n)).value \
            == Fraction(1, n - 2)
    for k in (2, 3):
        for copies in range(2, 6):
            g = extremal_family(k, copies)
            assert exact_isolated_toughness(g).value \
                == Fraction(k * copies - 1, copies)
            assert exact_isolated_toughness_variant(g).value \
                == k + Fraction(k - 1, copies - 1)
    for k in (2, 3, 4):
        for t in range(0, 4):
            g = counterexample_family(k, t)
            assert g.min_degree == k + t
            assert exact_isolated_toughness_variant(g).value \
                == k + Fraction(k - 1, t + 1)
    for core, singles in ((2, 3), (3, 4), (3, 5)):
        assert exact_isolated_toughness(
            clique_join_singles(core, singles)).value \
            == Fraction(core, singles)
        assert exact_isolated_toughness_variant(
            clique_join_singles(core, singles + 1)).value \
            == Fraction(core, singles)
    assert time.perf_counter() - start < 60.0


def test_criterion_2_exhaustive_enumeration():
    """Per-degree optima at orders 6 and 7 match frozen values, quickly."""
    start = time.perf_counter()
    six = enumerate_exact(6, 2)
    assert {d: o.value for d, o in six.optima.items()} == {2: Fraction(4)}
    seven = enumerate_exact(7, 2)
    assert {d: o.value for d, o in seven.optima.items()} \
        == {2: Fraction(5), 3: Fraction(5)}
    assert time.perf_counter() - start < 60.0


def test_criterion_3_factor_verification():
    """The flow reduction agrees with two independent feasibility routes."""
    # boundary families admit no fractional factor at their capacity
    for k in (2, 3):
        for t in (0, 1, 2):
            g = counterexample_family(k, t)
            assert not has_fractional_factor(g, FactorSpec(k, k))
    # cycles always carry a 2-factor
    for n in range(3, 9):
        assert has_fractional_factor(cycle(n), FactorSpec(2, 2))
    # every order-6 encoding against the deficiency-style cut oracle
    spec = FactorSpec(2, 2)
    for code in range(1 << pair_count(6)):
        g = Graph(6, code)
        assert has_fractional_factor(g, spec) \
            == cut_condition_feasible(g, 2, 2), f"code {code}"
    # every order-6 isomorphism class against the exact rational simplex
    for g in nonisomorphic_graphs(6):
        assert has_fractional_factor(g, spec) == simplex_feasible(g, 2, 2)


def test_criterion_4_archived_graphs_have_factors():
    """Thirty solver runs: every archived graph carries its factor."""
    grid = [(7, 2), (8, 2), (9, 2), (11, 2), (9, 3), (11, 3)]
    runs = 0
    checked = 0
    for n, k in grid:
        spec = FactorSpec(k, k)
        cache: dict[int, bool] = {}
        for seed in range(5):
            result = run_solver(SolverConfig(n=n, k=k, seed=seed))
            runs += 1
            for record in result.archive:
                assert record.verified
                exists = cache.get(record.graph.code)
                if exists is None:
                    exists = has_fractional_factor(record.graph, spec)
                    cache[record.graph.code] = exists
                assert exists, (f"archived graph without a fractional"
                                f" {k}-factor at n={n} seed={seed}")
                checked += 1
    assert runs >= 30
    assert checked > 0


def test_criterion_5_estimator_never_undercuts_exact():
    """A thousand random graphs: the screening estimate stays an upper
    bound on the exact variant toughness."""
    rng = np.random.default_rng(20260825)
    for _ in range(1000):
        n = int(rng.integers(4, 13))
        g = random_graph(n, rng)
        estimate = pseudo_greedy_estimate(g, rng)
        assert estimate >= exact_isolated_toughness_variant(g).value


def test_criterion_6_minimizer_cardinality_survey():
    """Exhaustive cross-comparison of minimizer sets through order 7."""
    survey = explore_minimizers(7)
    assert not survey.sampled
    assert survey.graphs_checked == 1245
    assert survey.pairs_checked == 14165
    assert survey.violations == []


def test_criterion_7_solver_finds_enumeration_optima():
    """Thirty seeds at order 7: at least 80 percent hit both per-degree
    optima, and no archived value ever beats the exhaustive one."""
    target = {2: Fraction(5), 3: Fraction(5)}
    enumeration = enumerate_exact(7, 2)
    assert {d: o.value for d, o in enumeration.optima.items()} == target
    hits = 0
    for seed in range(30):
        result = run_solver(SolverConfig(n=7, k=2, seed=seed))
        optima = report(result).optima
        for delta, value in optima.items():
            if value is not None:
                assert value >= target[delta]
        if optima == target:
            hits += 1
    assert hits >= 24


def test_criterion_8_byte_identical_outputs(tmp_path, capsys):
    """Identical flags give byte-identical files, whatever the --out."""
    base = ["solve", "--n", "7", "--k", "2", "--generations", "20"]
    digests = {}
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli_main(base + ["--out", str(out)]) == 0
        digests[name] = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir()}
    capsys.readouterr()
    assert digests["first"] == digests["second"]
    assert "manifest.json" in digests["first"]
    assert "summary.csv" in digests["first"]


def test_criterion_9_diversity_selection():
    """Dedup collapses relabelings and every pick is greedy-optimal."""
    g = from_bits(4, "110100")
    twin = from_edges(4, [(3 - u, 3 - v) for u, v in g.edges()])
    assert len(diversity_enhancement([g, twin], 3).selected) == 1

    rng = np.random.default_rng(9)
    for _ in range(20):
        batch = [random_graph(6, rng) for _ in range(8)]
        selection = diversity_enhancement(batch, 5)
        pool = sorted(deduplicate(batch), key=lambda h: h.bits())
        chosen: list[Graph] = []
        reference = complete(6)
        for pick, distance in zip(selection.selected, selection.distances):
            if chosen:
                scores = {h.bits(): min(hamming_distance(h, c)
                                        for c in chosen) for h in pool}
            else:
                scores = {h.bits(): hamming_distance(h, reference)
                          for h in pool}
            best = max(scores.values())
            assert distance == best
            assert scores[pick.bits()] == best
            assert pick.bits() \
                == min(b for b, s in scores.items() if s == best)
            chosen.append(pick)
            pool = [h for h in pool if h.bits() != pick.bits()]
        assert list(selection.selected) == chosen
        assert len(selection.distances) == len(chosen)

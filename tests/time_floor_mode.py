"""Time the early-exit decision against the full exact engine and the screen.

    PYTHONPATH=src python tests/time_floor_mode.py

For each solve case of the benchmark (seeds 0-2) the script replays the
solver and collects every distinct encoding it decides, then times three
routes over that set: the full exact engine on every graph, the solver's
decision (degree outside scope rejects, otherwise exact_variant_above
against the bound), and one pseudo-greedy screen per graph.  Each route
is timed three times and the fastest run is kept.  One row per case: the
share of graphs rejected by degree, rejected by value and accepted, each
route's mean cost per graph and the full/decision ratio.
"""

import time

import numpy as np

from isotough import evolve
from isotough.evolve import SolverConfig, run_solver
from isotough.factors import delta_scope, requirement_bound
from isotough.toughness import exact_isolated_toughness_variant, \
    exact_variant_above, pseudo_greedy_estimate

CASES = (
    ("7,2", dict(n=7, k=2)),
    ("9,2", dict(n=9, k=2)),
    ("12,3", dict(n=12, k=3)),
    ("13,3", dict(n=13, k=3)),
    ("16,3", dict(n=16, k=3)),
    ("18,3 limit 18, 25 gens",
     dict(n=18, k=3, exact_verify_limit=18, generations=25)),
)


def decided_graphs(config):
    """Each run's distinct encodings, in the order the solver first saw
    them (every generation's population reaches _next_population)."""
    seen = {}
    real = evolve._next_population

    def recording(population, *args):
        for g in population:
            seen.setdefault(g.code, g)
        return real(population, *args)

    evolve._next_population = recording
    try:
        run_solver(config)
    finally:
        evolve._next_population = real
    return list(seen.values())


def fastest(call, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - started)
    return best


def main():
    print(f"{'case':<24} {'graphs':>6} {'deg rej':>7} {'val rej':>7}"
          f" {'pass':>5} {'full us':>8} {'decide us':>9} {'screen us':>9}"
          f" {'ratio':>5}")
    for label, fields in CASES:
        graphs, bounds = [], []
        for seed in range(3):
            config = SolverConfig(seed=seed, **fields)
            lo, hi = delta_scope(config.n, config.k)
            for g in decided_graphs(config):
                graphs.append(g)
                d = g.min_degree
                bounds.append(requirement_bound(config.k, d)
                              if lo <= d <= hi else None)

        def decide():
            return [None if bound is None else exact_variant_above(g, bound)
                    for g, bound in zip(graphs, bounds)]

        def full():
            for g in graphs:
                exact_isolated_toughness_variant(g)

        def screen():
            rng = np.random.default_rng(0)
            for g in graphs:
                pseudo_greedy_estimate(g, rng)

        verdicts = decide()
        degree = bounds.count(None)
        passed = sum(v is not None for v in verdicts)
        count = len(graphs)
        t_full, t_decide, t_screen = fastest(full), fastest(decide), \
            fastest(screen)
        print(f"{label:<24} {count:>6} {degree / count:>7.0%}"
              f" {(count - degree - passed) / count:>7.0%}"
              f" {passed / count:>5.0%} {1e6 * t_full / count:>8.1f}"
              f" {1e6 * t_decide / count:>9.1f}"
              f" {1e6 * t_screen / count:>9.1f}"
              f" {t_full / t_decide:>5.2f}")


if __name__ == "__main__":
    main()

"""Time the early-exit decision against the full exact engine and the screen.

    PYTHONPATH=src python tests/time_floor_mode.py

For each solve case of the benchmark (seeds 0-2) the script replays the
solver and collects every distinct encoding it decides, then times four
routes over that set:

- decode: `Graph.adjacency` and `Graph.degrees`, the per-graph set-up every
  other route pays once;
- decide: the solver's decision, `requirement_check` (degree outside scope
  rejects, otherwise exact_variant_above against the bound);
- full: the full exact engine, `exact_isolated_toughness_variant` (value,
  minimizers and witnesses);
- screen: one pseudo-greedy screen per graph, drawing from
  `random.Random(0)`.

Every route builds each graph afresh from its encoding, so each pays the
decode once, as the solver does for a new candidate.  Each route is timed
five times and the fastest run is kept.  One row per case: the share of
graphs rejected by degree, rejected by value and accepted, each route's
mean cost per graph in microseconds and the full/decide ratio.  It needs
only the standard library.
"""

import random
import time

from isotough import evolve
from isotough.evolve import SolverConfig, run_solver
from isotough.factors import delta_scope, requirement_check
from isotough.graphs import Graph
from isotough.toughness import exact_isolated_toughness_variant, \
    pseudo_greedy_estimate

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


def fastest(call, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - started)
    return best


def main():
    print(f"{'case':<24} {'graphs':>6} {'deg rej':>7} {'val rej':>7}"
          f" {'pass':>5} {'decode us':>9} {'decide us':>9} {'full us':>8}"
          f" {'screen us':>9} {'ratio':>5}")
    for label, fields in CASES:
        n, k = fields["n"], fields["k"]
        scope = delta_scope(n, k)
        codes = [g.code for seed in range(3)
                 for g in decided_graphs(SolverConfig(seed=seed, **fields))]

        def decode():
            for code in codes:
                Graph(n, code).degrees

        def decide():
            return [requirement_check(Graph(n, code), k, scope)
                    for code in codes]

        def full():
            for code in codes:
                exact_isolated_toughness_variant(Graph(n, code))

        def screen():
            rng = random.Random(0)
            for code in codes:
                pseudo_greedy_estimate(Graph(n, code), rng)

        reasons = [verdict.reason for verdict in decide()]
        count = len(codes)
        degree = count - reasons.count("accepted") \
            - reasons.count("value-not-above-bound")
        passed = reasons.count("accepted")
        t_decode, t_decide, t_full, t_screen = (
            fastest(decode), fastest(decide), fastest(full), fastest(screen))
        print(f"{label:<24} {count:>6} {degree / count:>7.0%}"
              f" {(count - degree - passed) / count:>7.0%}"
              f" {passed / count:>5.0%} {1e6 * t_decode / count:>9.1f}"
              f" {1e6 * t_decide / count:>9.1f}"
              f" {1e6 * t_full / count:>8.1f}"
              f" {1e6 * t_screen / count:>9.1f}"
              f" {t_full / t_decide:>5.2f}")


if __name__ == "__main__":
    main()

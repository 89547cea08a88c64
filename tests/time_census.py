"""Time a census pass step by step, and the constant costs per class.

    PYTHONPATH=src python tests/time_census.py [ORDER]

A census pass is the benchmark's ground-truth work at order 7:
enumerate_exact(7, 2), enumerate_exact(7, 3) and explore_minimizers(7).
One warm pass builds the class levels, as the benchmark's warm-up and
first pass do, then ten passes are timed and the median of each step and
of the pass total is printed in seconds.  Another ORDER runs the same
three calls at that order (forced past enumeration's gate; the survey
samples above order 7); order 8 takes about a minute.

Then four costs per class of that order, each the fastest of five runs
over all its classes (1044 at order 7), as a mean in microseconds:

- decode: `Graph.adjacency` and `Graph.degrees` of a graph built afresh
  from its code, with the construction itself subtracted;
- reject by degree, reject by value: `requirement_check` at k = 2 on the
  classes it rejects for their minimum degree, with no search, and on
  those whose early-exit search finds a ratio at or below the bound, on
  graphs already decoded;
- full: `exact_isolated_toughness_variant`, value, minimizers and
  witnesses, on graphs already decoded.

It needs only the standard library.
"""

import statistics
import sys
import time

from isotough.factors import delta_scope, requirement_check
from isotough.graphs import Graph
from isotough.oracle import enumerate_exact, explore_minimizers, \
    nonisomorphic_graphs
from isotough.toughness import exact_isolated_toughness_variant

ORDER = int(sys.argv[1]) if len(sys.argv) > 1 else 7
PASSES = 10
STEPS = (
    (f"enumerate_exact({ORDER}, 2)",
     lambda: enumerate_exact(ORDER, 2, force=True)),
    (f"enumerate_exact({ORDER}, 3)",
     lambda: enumerate_exact(ORDER, 3, force=True)),
    (f"explore_minimizers({ORDER})", lambda: explore_minimizers(ORDER)),
)


def fastest(call, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - started)
    return best


def timed_passes():
    """Seconds per step and per pass, one list each, over PASSES passes."""
    for _, call in STEPS:  # warm pass: builds the class levels
        call()
    steps = [[] for _ in STEPS]
    totals = []
    for _ in range(PASSES):
        total = 0.0
        for column, (_, call) in zip(steps, STEPS):
            started = time.perf_counter()
            call()
            column.append(time.perf_counter() - started)
            total += column[-1]
        totals.append(total)
    return steps, totals


def per_class_costs():
    """Mean microseconds per class for each cost, by label."""
    codes = [g.code for g in nonisomorphic_graphs(ORDER)]
    scope = delta_scope(ORDER, 2)

    def build():
        for code in codes:
            Graph(ORDER, code)

    def decode():
        for code in codes:
            Graph(ORDER, code).degrees

    graphs = nonisomorphic_graphs(ORDER)
    rejected = {"degree": [], "value": []}
    for g in graphs:
        reason = requirement_check(g, 2, scope).reason
        if reason != "accepted":
            rejected["value" if reason == "value-not-above-bound"
                     else "degree"].append(g)

    def reject(group):
        for g in group:
            requirement_check(g, 2, scope)

    def full():
        for g in graphs:
            exact_isolated_toughness_variant(g)

    costs = {"decode": (fastest(decode) - fastest(build)) / len(codes)}
    for cause, group in rejected.items():
        costs[f"reject by {cause} ({len(group)})"] = \
            fastest(lambda: reject(group)) / len(group)
    costs["full"] = fastest(full) / len(graphs)
    return {label: seconds * 1e6 for label, seconds in costs.items()}


def main():
    steps, totals = timed_passes()
    print(f"census pass at order {ORDER}, median of {PASSES} passes after"
          " one warm pass")
    for (label, _), column in zip(STEPS, steps):
        print(f"  {label:<24} {statistics.median(column):.4f} s")
    print(f"  {'pass':<24} {statistics.median(totals):.4f} s")
    print(f"per class of order {ORDER}, fastest of five runs")
    for label, micros in per_class_costs().items():
        print(f"  {label:<24} {micros:.2f} us")


if __name__ == "__main__":
    main()

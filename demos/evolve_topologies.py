"""
Evolving order-7 topologies and checking them against ground truth
==================================================================

Runs the evolutionary search for capacity-2 networks on seven sites,
prints the per-degree archive optima, then replays the exhaustive
enumeration to confirm the search found the true minima.  Ends with the
diversified representatives the solver would hand to a planner.
"""

from isotough import (SolverConfig, enumerate_exact, format_ratio, report,
                      run_solver)

config = SolverConfig(n=7, k=2, generations=60, seed=7)
result = run_solver(config)
summary = report(result)

print(f"degree window {result.scope[0]}..{result.scope[1]},"
      f" archive of {len(result.archive)} verified records")
print(summary.render(), end="")

# The archive keeps one best record per degree and generation; the last
# generation's records show where the search settled.
last = result.generations[-1].generation
for record in result.archive:
    if record.generation == last:
        print(f"final harvest at delta={record.delta}:"
              f" I' = {format_ratio(record.value)}"
              f" bits={record.graph.bits()}")

# Seven sites are small enough to enumerate outright, so the claim above
# can be checked against every one of the 2^21 encodings.
truth = enumerate_exact(7, 2)
print("exhaustive ground truth:")
for delta, optimum in sorted(truth.optima.items()):
    found = summary.optima[delta]
    agree = "agrees" if found == optimum.value else "DISAGREES"
    print(f"  delta={delta}: optimum {format_ratio(optimum.value)}"
          f" ({agree})")

# The diversified picks are pairwise non-isomorphic and spread out in
# edit distance, so they make genuinely different planning starts.
print("diversified representatives:")
for g, spread in zip(result.diversified.selected,
                     result.diversified.distances):
    print(f"  bits={g.bits()} degrees={g.degrees} spread={spread}")

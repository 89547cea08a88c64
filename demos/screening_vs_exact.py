"""
How tight is the pseudo-greedy screening estimate?
==================================================

The paper's evolutionary loop screens every candidate with a pseudo-greedy
deletion heuristic that only ever errs upward, and verifies the passers
exactly.  The solver here scores candidates with the exact engine up to
`--exact-verify-limit` and uses the estimate only above it.  This script
samples random graphs, compares the estimate with the exact value, and
tallies how often and by how much the estimate overshoots.
"""

from fractions import Fraction

import numpy as np

from isotough import (Graph, INFINITY, exact_isolated_toughness_variant,
                      format_ratio, pair_count, pseudo_greedy_estimate)

rng = np.random.default_rng(2024)
samples = 400
exact_hits = 0
overshoots = []

for _ in range(samples):
    n = int(rng.integers(5, 11))
    draws = rng.random(pair_count(n))
    code = 0
    for at in np.flatnonzero(draws < 0.5):
        code |= 1 << int(at)
    g = Graph(n, code)

    estimate = pseudo_greedy_estimate(g, rng).estimate
    exact = exact_isolated_toughness_variant(g).value

    # the estimate is an upper bound by construction; anything else
    # would be a bug worth crashing on
    assert estimate >= exact
    if estimate == exact:
        exact_hits += 1
    elif exact != INFINITY and estimate != INFINITY:
        overshoots.append(Fraction(estimate) - Fraction(exact))

print(f"{samples} random graphs on 5..10 sites")
print(f"estimate equal to the exact value: {exact_hits}"
      f" ({100.0 * exact_hits / samples:.1f}%)")
if overshoots:
    worst = max(overshoots)
    mean = sum(overshoots) / len(overshoots)
    print(f"finite overshoots: {len(overshoots)},"
          f" mean {float(mean):.3f}, worst {format_ratio(worst)}")

# The moral: the estimate is optimistic about toughness, never pessimistic,
# so a graph it accepts may still fail the exact bound.  That is why the
# solver files what it accepts above the verify limit as unverified.

"""
How tight is the pseudo-greedy screening estimate?
==================================================

The paper's evolutionary loop screens every candidate with a pseudo-greedy
deletion heuristic that only ever errs upward, and verifies the passers
exactly.  The solver here scores candidates with the exact engine up to
`--exact-verify-limit`, which defaults to 24, the order through which
every graph fits the engine's node budget, and uses the estimate only
above it.  This script samples random graphs, compares the estimate with
the exact value, and tallies how often and by how much the estimate
overshoots.
"""

import random
from fractions import Fraction

from isotough import (Graph, INFINITY, exact_variant_value, format_ratio,
                      pair_count, pseudo_greedy_estimate)

rng = random.Random(2024)
samples = 400
exact_hits = 0
overshoots = []

for _ in range(samples):
    n = rng.randint(5, 10)
    g = Graph(n, rng.getrandbits(pair_count(n)))  # each pair with p = 1/2

    estimate = pseudo_greedy_estimate(g, rng)
    exact = exact_variant_value(g)

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
# solver files what it accepts above the verify limit, by default the
# orders above 24, as unverified.

"""
Closed-form families and the sharp acceptance boundary
======================================================

Three constructions bracket the acceptance requirement.  Stars sit far
below it, the clique-join families move the two toughness parameters
around freely, and the boundary family meets the bound exactly while
still missing its fractional factor, which is what makes the strict
inequality necessary rather than cosmetic.
"""

from isotough import (FactorSpec, certify_requirement, counterexample_family,
                      exact_isolated_toughness_pair, exact_variant_value,
                      extremal_family, format_ratio, has_fractional_factor,
                      requirement_bound, star)

# A star is as fragile as it gets: deleting the hub isolates every leaf,
# so one deletion buys n - 1 isolated vertices.
print("stars")
for n in (5, 6, 7):
    plain, variant = exact_isolated_toughness_pair(star(n))
    print(f"  star({n}): I = {format_ratio(plain.value)},"
          f" I' = {format_ratio(variant.value)}")

# The extremal family joins a small clique onto disjoint capacity-sized
# blocks.  Growing the number of blocks walks both parameters along
# closed-form curves, which is how the engine gets exercised at values
# that are awkward to hit with random graphs.
print("extremal family, capacity 2")
for copies in range(2, 6):
    g = extremal_family(2, copies)
    plain, variant = exact_isolated_toughness_pair(g)
    print(f"  {copies} blocks (order {g.n}): I = {format_ratio(plain.value)},"
          f" I' = {format_ratio(variant.value)}")

# The boundary family is the reason the acceptance test uses a strict
# inequality.  Its variant toughness lands exactly on the bound for its
# minimum degree, and the promised factor really is missing.
print("boundary family")
for k, t in ((2, 0), (2, 1), (3, 0)):
    g = counterexample_family(k, t)
    value = exact_variant_value(g)
    bound = requirement_bound(k, g.min_degree)
    factored = has_fractional_factor(g, FactorSpec(k, k))
    print(f"  k={k} t={t} (order {g.n}): I' = {format_ratio(value)}"
          f" vs bound {format_ratio(bound)},"
          f" fractional {k}-factor: {'yes' if factored else 'no'}")

# One full certificate, end to end: the check refuses the boundary graph
# and the flow cross-check confirms there is nothing to certify.
certificate = certify_requirement(counterexample_family(2, 0), 2)
print("certificate for the k=2, t=0 boundary graph:")
print(f"  delta = {certificate.delta}")
print(f"  I' = {format_ratio(certificate.i_prime)}"
      f" vs bound {format_ratio(certificate.bound)}")
print(f"  accepted: {'yes' if certificate.accepted else 'no'}"
      f" ({certificate.reason})")
print(f"  factor exists: {'yes' if certificate.factor_exists else 'no'}")

"""Reference pseudo-greedy estimator: per-step scans over all n vertices.

Every step recounts the isolated vertices, sums the degrees, and walks
all vertices for the roulette and maximum-degree picks; no count is
carried from one step to the next.  The differential tests hold the
library's incremental estimator to it, including the number of uniforms
it draws.
"""

from fractions import Fraction

from isotough.graphs import Graph
from isotough.rational import INFINITY
from isotough.toughness import exact_isolated_toughness_variant


def roulette_select_loop(degrees, p):
    """First j with p * sum(degrees) < sum(degrees[:j+1])."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"p must lie in [0, 1), got {p}")
    total = sum(degrees)
    if total <= 0:
        raise ValueError("no selectable vertex: all degrees are zero")
    target = p * total
    acc = 0
    last_positive = -1
    for j, d in enumerate(degrees):
        if d < 0:
            raise ValueError(f"negative degree at {j}")
        if d > 0:
            last_positive = j
        acc += d
        if target < acc:
            return j
    return last_positive  # float rounding pushed target to the top edge


class _Track:
    def __init__(self, g: Graph):
        self.remaining = (1 << g.n) - 1
        self.deg = list(g.degrees)
        self.adjacency = g.adjacency

    def clone_from(self, other):
        self.remaining = other.remaining
        self.deg = list(other.deg)

    def delete(self, v):
        mask = self.adjacency[v] & self.remaining
        while mask:
            low = mask & -mask
            self.deg[low.bit_length() - 1] -= 1
            mask ^= low
        self.remaining &= ~(1 << v)
        self.deg[v] = 0

    def isolated(self):
        remaining = self.remaining
        return sum(1 for v, d in enumerate(self.deg)
                   if d == 0 and (remaining >> v) & 1)

    def pick_roulette(self, rng):
        if sum(self.deg) > 0:
            return roulette_select_loop(self.deg, rng.random())
        return (self.remaining & -self.remaining).bit_length() - 1

    def pick_max_degree(self):
        best_v, best_d = -1, -1
        remaining = self.remaining
        for v, d in enumerate(self.deg):
            if (remaining >> v) & 1 and d > best_d:
                best_v, best_d = v, d
        return best_v


def reference_estimate(g: Graph, rng):
    """The estimate the library estimator must return; orders below 4
    take the exact value."""
    n = g.n
    if n < 4:
        return exact_isolated_toughness_variant(g).value

    track_r = _Track(g)
    track_m = _Track(g)
    best = None
    for step in range(1, n - 2):
        v_r = track_r.pick_roulette(rng)
        v_m = track_m.pick_max_degree()
        track_r.delete(v_r)
        track_m.delete(v_m)
        iso_r = track_r.isolated()
        iso_m = track_m.isolated()
        if iso_r >= 2 and (best is None or Fraction(step, iso_r - 1) < best):
            best = Fraction(step, iso_r - 1)
        else:
            track_r.clone_from(track_m)
        if iso_m >= 2 and (best is None or Fraction(step, iso_m - 1) < best):
            best = Fraction(step, iso_m - 1)
    return INFINITY if best is None else best

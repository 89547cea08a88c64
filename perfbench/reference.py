"""A fixed pure-Python kernel that samples the interpreter's current speed.

On a shared host the speed of interpreted Python can switch by a factor
of up to 1.7 within seconds, as other work on the host comes and goes,
while numpy's loops over small arrays barely move.  The timed section
runs this kernel every `INTERVAL` seconds between operations; each
operation's time is then scaled to the speed at which the kernel runs in
`NOMINAL_S`:

    t_ref = t / ((1 - share) + share * local / NOMINAL_S)

`local` is the mean of the kernel samples just before and just after the
operation, and `share` is the workload's share of time that scales with
interpreter speed (``Workload.interpreted_share``).  The kernel touches
nothing of isotough, so a change to the package moves `t_ref` exactly as
it moves `t` at a fixed host speed.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

INTERVAL = 0.5  # seconds of operations between two kernel samples
# The kernel's time on the 2-vCPU KVM guest (Xeon, Python 3.11) where the
# benchmark was written, in that host's usual state.  Any fixed value works
# for comparing two commits on one machine; this one keeps t_ref close to
# wall-clock seconds there.
NOMINAL_S = 0.0125
_ORDER = 48
_ROUNDS = 8


def _graph() -> dict[int, list[int]]:
    rng = random.Random(12345)
    adjacency: dict[int, list[int]] = {v: [] for v in range(_ORDER)}
    for u in range(_ORDER):
        for v in range(u + 1, _ORDER):
            if rng.random() < 0.15:
                adjacency[u].append(v)
                adjacency[v].append(u)
    return adjacency


_ADJACENCY = _graph()


def _distances() -> Fraction:
    """Breadth-first search from every vertex; mean distances as ratios."""
    total = Fraction(0)
    for source in range(_ORDER):
        seen = {source: 0}
        frontier = [source]
        while frontier:
            reached = []
            for u in frontier:
                for w in _ADJACENCY[u]:
                    if w not in seen:
                        seen[w] = seen[u] + 1
                        reached.append(w)
            frontier = reached
        total += Fraction(sum(seen.values()), len(seen))
    return total


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    started = time.perf_counter()
    for _ in range(_ROUNDS):
        _distances()
    return time.perf_counter() - started

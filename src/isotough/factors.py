"""Fractional [a,b]-factor feasibility and the acceptance requirement.

A fractional [a,b]-factor is an edge weighting h: E -> [0,1] whose sum at
every vertex lies in [a,b].  It exists iff the bipartite double cover has
an integral one: a set of arcs u_L -> v_R, each an edge uv taken in one
direction, with every left and every right degree in [a,b].  Given such
arcs x, h(uv) = (x_uv + x_vu) / 2 is a half-integral factor; conversely
any factor can be rebalanced to that form.

The arcs are found by a search over Python-int bitmasks.  A balanced
greedy start gives each left vertex, lowest graph degree first, a arcs to
its least-loaded right partners below b.  Each vertex left below a is
then repaired by an alternating path from it: add an arc, remove an arc,
and so on, ending at a vertex with slack, a right vertex below b or a
left vertex above a.  Only the two ends change degree.  The same repair
then runs with the sides swapped for the right vertices.  Degrees are
read as popcounts of the partner masks, so no separate count can drift
from the arcs.  When a deficient vertex has no such path, the vertices
it reaches violate the degree sums of every solution, so the instance is
infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import ConsistencyError, ScopeError
from .graphs import Graph
from .rational import Ratio
from .toughness import exact_isolated_toughness_variant


@dataclass(frozen=True)
class FactorSpec:
    """Vertex-sum window for a fractional factor; a = b = k is a k-factor."""

    a: int
    b: int

    def __post_init__(self):
        if not (isinstance(self.a, int) and isinstance(self.b, int)):
            raise ValueError("factor bounds must be integers")
        if not 1 <= self.a <= self.b:
            raise ValueError(f"need 1 <= a <= b, got [{self.a}, {self.b}]")

    @classmethod
    def k_factor(cls, k: int) -> "FactorSpec":
        return cls(k, k)


def _double_cover_arcs(g: Graph, a: int, b: int) -> Optional[list[int]]:
    """Arcs u_L -> v_R with every left and right degree in [a, b], as one
    mask of right partners per left vertex; None when infeasible."""
    n = g.n
    adjacency, degrees = g.adjacency, g.degrees
    if n and min(degrees) < a:
        return None
    out = [0] * n           # right partners of each left vertex
    into = [0] * n          # left partners of each right vertex
    loads = [(1 << n) - 1] + [0] * b    # loads[j]: right vertices of degree j
    for u in sorted(range(n), key=degrees.__getitem__):
        want = a
        for j in range(b):
            pick = adjacency[u] & loads[j] & ~out[u]
            while pick and want:
                low = pick & -pick
                pick ^= low
                loads[j] ^= low
                loads[j + 1] |= low
                out[u] |= low
                into[low.bit_length() - 1] |= 1 << u
                want -= 1
            if not want:
                break
    for near, far in ((out, into), (into, out)):
        for s in range(n):
            while near[s].bit_count() < a:
                if not _augment(s, adjacency, near, far, a, b):
                    return None
    return out


def _augment(s: int, adjacency: tuple[int, ...], near: list[int],
             far: list[int], a: int, b: int) -> bool:
    """Give the near vertex s one more arc along an alternating path.

    `near[x]` holds the far partners of near vertex x and `far[y]` the
    near partners of far vertex y; the adjacency serves both sides.  The
    breadth-first search leaves a near vertex by an unchosen arc and a far
    vertex by a chosen one.  It stops at the first far vertex below b,
    which gains an arc, or near vertex above a, which loses one.  Every
    vertex between keeps its degree.  False when no path exists.
    """
    via_far: dict[int, int] = {}    # far vertex -> near vertex before it
    via_near: dict[int, int] = {}   # near vertex -> far vertex before it
    seen_far, seen_near = 0, 1 << s
    frontier = [s]
    while frontier:
        following = []
        for x in frontier:
            fresh = adjacency[x] & ~near[x] & ~seen_far
            seen_far |= fresh
            while fresh:
                low = fresh & -fresh
                fresh ^= low
                y = low.bit_length() - 1
                if far[y].bit_count() < b:
                    near[x] |= low
                    far[y] |= 1 << x
                    _flip_path(x, s, near, far, via_far, via_near)
                    return True
                via_far[y] = x
                back = far[y] & ~seen_near
                seen_near |= back
                while back:
                    low = back & -back
                    back ^= low
                    z = low.bit_length() - 1
                    via_near[z] = y
                    if near[z].bit_count() > a:
                        _flip_path(z, s, near, far, via_far, via_near)
                        return True
                    following.append(z)
        frontier = following
    return False


def _flip_path(x: int, s: int, near: list[int], far: list[int],
               via_far: dict[int, int], via_near: dict[int, int]) -> None:
    """Walk the search tree back from near vertex x to s, dropping each
    chosen arc it climbs and choosing each unchosen one."""
    while x != s:
        y = via_near[x]
        near[x] ^= 1 << y
        far[y] ^= 1 << x
        x = via_far[y]
        near[x] |= 1 << y
        far[y] |= 1 << x


def has_fractional_factor(g: Graph, spec: FactorSpec) -> bool:
    return _double_cover_arcs(g, spec.a, spec.b) is not None


def fractional_k_factor(g: Graph, k: int
                        ) -> Optional[dict[tuple[int, int], Fraction]]:
    """A concrete half-integral k-factor, or None when infeasible."""
    spec = FactorSpec.k_factor(k)
    out = _double_cover_arcs(g, spec.a, spec.b)
    if out is None:
        return None
    return {(u, v): Fraction((out[u] >> v & 1) + (out[v] >> u & 1), 2)
            for u, v in g.edges()}


def delta_scope(n: int, k: int) -> tuple[int, int]:
    """Minimum-degree interval worth searching at order n for capacity k.

    Once the minimum degree reaches n/2 (and n >= 4k-5), a fractional
    k-factor is guaranteed outright, so the search tops out just below.
    """
    if k < 1 or n < 1:
        raise ValueError("need n >= 1 and k >= 1")
    lo = k
    hi = (n + 1) // 2 - 1 if n >= 4 * k - 5 else n - 1
    if lo > hi:
        raise ScopeError(
            f"no admissible minimum degree for n={n}, k={k}"
            f" (interval [{lo}, {hi}] is empty)")
    return lo, hi


def check_scope(n: int, k: int, scope: tuple[int, int]) -> None:
    """Raise ScopeError unless the explicit scope meets k <= lo <= hi <= n-1."""
    lo, hi = scope
    if not k <= lo <= hi <= n - 1:
        raise ScopeError(
            f"scope [{lo}, {hi}] must satisfy {k} <= lo <= hi <= {n - 1}"
            f" for n={n}, k={k}")


def requirement_bound(k: int, delta: int) -> Fraction:
    """Strict lower bound the variant toughness must exceed."""
    t = delta - k
    if t < 0:
        raise ValueError("bound undefined below minimum degree k")
    return Fraction(k) + Fraction(k - 1, t + 1)


@dataclass(frozen=True)
class RequirementVerdict:
    accepted: bool
    reason: str
    delta: int
    bound: Optional[Fraction]
    value: Optional[Ratio]


def requirement_check(g: Graph, k: int, scope: tuple[int, int],
                      value: Optional[Ratio] = None) -> RequirementVerdict:
    """Accept iff the minimum degree sits in scope and the variant
    toughness (screening or exact, as supplied) strictly exceeds the
    degree-dependent bound."""
    if k < 2:
        raise ValueError("capacity k must be at least 2")
    delta = g.min_degree
    if delta < k:
        return RequirementVerdict(False, "degree-below-k", delta, None, value)
    lo, hi = scope
    if not lo <= delta <= hi:
        return RequirementVerdict(False, "degree-out-of-scope", delta, None,
                                  value)
    if value is None:
        value = exact_isolated_toughness_variant(g).value
    bound = requirement_bound(k, delta)
    if value > bound:
        return RequirementVerdict(True, "accepted", delta, bound, value)
    return RequirementVerdict(False, "value-not-above-bound", delta, bound,
                              value)


@dataclass(frozen=True)
class FactorCertificate:
    delta: int
    i_prime: Ratio
    bound: Optional[Fraction]
    accepted: bool
    reason: str
    factor_exists: bool
    k: int


def require_factor(g: Graph, k: int, delta: int, value: Ratio) -> None:
    """An accepted graph is guaranteed a fractional k-factor; raise
    ConsistencyError when the flow search cannot build it."""
    if not has_fractional_factor(g, FactorSpec.k_factor(k)):
        raise ConsistencyError(
            "accepted graph lacks a fractional factor: "
            f"n={g.n} bits={g.bits()} k={k} delta={delta} value={value}")


def certify_requirement(g: Graph, k: int,
                        scope: Optional[tuple[int, int]] = None
                        ) -> FactorCertificate:
    """Exact requirement check plus an independent factor-existence check.

    An accepted graph is guaranteed a fractional k-factor; if the flow
    checker disagrees the two routes are inconsistent and we fail loudly.
    """
    if scope is None:
        scope = (k, max(k, g.n - 1))
    else:
        check_scope(g.n, k, scope)
    exact = exact_isolated_toughness_variant(g)
    verdict = requirement_check(g, k, scope, value=exact.value)
    if verdict.accepted:
        require_factor(g, k, verdict.delta, exact.value)
        factor = True
    else:
        factor = has_fractional_factor(g, FactorSpec.k_factor(k))
    return FactorCertificate(delta=verdict.delta, i_prime=exact.value,
                             bound=verdict.bound, accepted=verdict.accepted,
                             reason=verdict.reason, factor_exists=factor,
                             k=k)

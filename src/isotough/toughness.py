"""Isolated toughness, its variant, and a fast stochastic upper bound.

Both exact parameters minimize |S| / f(i(G-S)) over vertex subsets S whose
deletion leaves at least two isolated vertices; the plain parameter divides
by i(G-S), the variant by i(G-S) - 1.  Complete graphs have no qualifying
S, so both parameters are INFINITY there.

The exact engine searches independent sets J rather than deletion sets:
the vertices that deleting S isolates form an independent J with N(J)
inside S, so the minimum is min |N(J)| / f(|J|) over independent J with
|J| >= 2, and every minimizer is N(J) for an optimal closed J (the
isolated set of G - N(J) is J itself).  So the search keeps |J| with
each minimizing mask, and that size is the minimizer's witness
i(G - N(J)): no isolated count is taken afterwards.  Only at ratio 0
does one mask, the empty one, tie at several sizes of J, and the
largest, all the isolated vertices, is kept.

A depth-first search grows J in vertex order over bitmasks and cuts a
branch when its best reachable ratio, |N(J)| over f(|J| + |candidates|),
is strictly above the best found (so ties survive), or when a
passed-over vertex outside N(J) has its whole neighbourhood in N(J),
which leaves no closed extension.  Ratios are compared by integer
cross-multiplication.  The value is interned: every search that ends on
the same ratio returns the same Fraction object, from a cache of at most
65 x 65 entries since both terms are at most n <= 64.

The engine has two modes.  The full mode walks the independent sets once
for both parameters: it keeps the plain best and the variant best, each
with its minimizer masks, and cuts a branch only when both bound tests
cut it.  exact_isolated_toughness_pair returns both results.  Its
halves, exact_isolated_toughness and exact_isolated_toughness_variant,
are kept only for perfbench's tracer, which wraps them.  This pass
visits exactly the union of the nodes that two single-parameter
searches would visit.  A node's ratio does not depend
on the search, and a cut branch holds no ratio below the best it was
cut by, so each best at any point of the walk is the minimum over all
earlier nodes, in both the pass and a single search.  Both bound tests
only get stronger later in the walk, where the bests are lower, and
deeper in the tree, where |N(J)| grows and the reachable |J| shrinks.
So if the pass reaches a node, some parameter's test fails at the last
branch above it and hence at every branch above it: that parameter's
own search reaches the node too.  Conversely the pass cuts only where
both searches cut.  It thus visits at most the sum of the two searches'
nodes, which stays under NODE_BUDGET, twice the largest single search
seen through order DEFAULT_EXACT_LIMIT.

The floor mode serves callers that read only I': exact_variant_above,
which needs I' only when it strictly clears a bound, and
exact_variant_value, which uses the floor -1, below every ratio.  The
floor enters as an integer numerator and denominator, the search stops
at the first ratio at or below it, the bound cut also drops branches
that can at best tie the best ratio found, no masks are kept, and a
Fraction is built only for a value that clears the floor.  The plain
best stays at -1/0 there, which cuts every bound, so the variant alone
decides each cut at the cost of one comparison.

The estimator walks two deletion tracks, one driven by a degree-roulette
draw and one by the maximum degree, recording |deleted| / (isolated - 1)
whenever a deletion leaves at least two isolated vertices.  It only
screens, so its whole output is that best ratio, always an upper bound
on the exact variant value; orders below 4 take the value from the floor
search instead.  Each track keeps its isolated count and degree total up
to date as it deletes, so a step walks only the deleted vertex's
remaining neighbours; the picks are C-level max/index and
accumulate/bisect calls over the degree list.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import gcd
from typing import Optional, Sequence

from .errors import CapacityError, InputError
from .graphs import Graph, set_bits
from .rational import INFINITY, Ratio

# Search nodes before a CapacityError: twice the worst case seen through
# order DEFAULT_EXACT_LIMIT for either parameter, the perfect matching's
# 3**12 - 1, so a pass for both, at most their sum, fits.
NODE_BUDGET = 2 * 3**12
DEFAULT_EXACT_LIMIT = 24


@dataclass(frozen=True, slots=True)
class ToughnessResult:
    value: Ratio
    minimizers: tuple[tuple[int, ...], ...]
    witness_i: tuple[int, ...]


@cache
def _ratio(num: int, den: int) -> Fraction:
    """The one shared Fraction equal to num/den.

    Building a Fraction takes about five times as long as a cache hit.
    Every engine value is |N(J)| / f(|J|) with both terms at most
    n <= 64, so the cache holds at most 65 x 65 entries.  Unreduced pairs map to the
    object of the reduced one, so equal values are the same object.
    """
    common = gcd(num, den)
    if common > 1:
        return _ratio(num // common, den // common)
    return Fraction(num, den)


class _AtOrBelowFloor(Exception):
    """Raised inside the search once a ratio at or below the floor turns
    up."""


_Best = tuple[Ratio, dict[int, int]]


def _independent_set_search(g: Graph,
                            floor: Optional[tuple[int, int]] = None
                            ) -> tuple[_Best, _Best]:
    """(plain, variant): each parameter's minimum ratio and, for each
    neighbourhood mask N(J) attaining it, the largest |J| found with it,
    which is i(G - N(J)).

    With a floor, given as (numerator, denominator), only the variant is
    searched: the plain half reads INFINITY, no masks are kept, ties are
    cut, and _AtOrBelowFloor ends the search at the first ratio at or
    below the floor.  Past NODE_BUDGET nodes it raises CapacityError.
    """
    n = g.n
    if n < 1:
        raise InputError("toughness needs at least one vertex")
    if g.is_complete():  # no qualifying S at any order
        return (INFINITY, {}), (INFINITY, {})

    adj = g.adjacency
    budget = NODE_BUDGET
    keep = floor is None
    tie = 0 if keep else 1  # a bound equal to a best is cut iff tie
    # -1/1 lies below every ratio, so without a floor the stop never fires
    floor_num, floor_den = (-1, 1) if keep else floor
    # 1/0 stands for INFINITY: every ratio improves on it and it cuts no
    # bound.  In floor mode the plain best is -1/0, which no ratio
    # improves on and which cuts every bound, so the variant alone cuts.
    plain_num, plain_den = (1 if keep else -1), 0
    variant_num, variant_den = 1, 0
    plain_masks: dict[int, int] = {}
    variant_masks: dict[int, int] = {}

    def visit(size: int, nbrs: int, cand: int, skipped: int) -> None:
        # J has `size` vertices and neighbourhood `nbrs`; `cand` holds the
        # later vertices J may still take, `skipped` the passed-over ones
        nonlocal plain_num, plain_den, variant_num, variant_den, budget
        budget -= 1
        if budget < 0:
            raise CapacityError(f"the exact search at order {n} passed its"
                                f" budget of {NODE_BUDGET} nodes")
        covered = nbrs.bit_count()
        if size >= 2:
            # only the empty mask ties at several sizes (ratio 0); the
            # largest J is the closed one
            den = size - 1
            if covered * variant_den < variant_num * den:
                if covered * floor_den <= floor_num * den:
                    raise _AtOrBelowFloor
                variant_num, variant_den = covered, den
                if keep:
                    variant_masks.clear()
                    variant_masks[nbrs] = size
            elif keep and covered * variant_den == variant_num * den:
                if variant_masks.get(nbrs, 0) < size:
                    variant_masks[nbrs] = size
            if keep:
                if covered * plain_den < plain_num * size:
                    plain_num, plain_den = covered, size
                    plain_masks.clear()
                    plain_masks[nbrs] = size
                elif covered * plain_den == plain_num * size:
                    if plain_masks.get(nbrs, 0) < size:
                        plain_masks[nbrs] = size
        while cand:
            top = size + cand.bit_count()  # largest |J| left on this branch
            if top < 2 or (
                    covered * variant_den + tie > variant_num * (top - 1)
                    and covered * plain_den + tie > plain_num * top):
                return  # bound cut, for both parameters
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            grown = nbrs | adj[v]
            left = skipped & ~adj[v]
            rest = left
            while rest:  # closure cut for J + v
                bit = rest & -rest
                if adj[bit.bit_length() - 1] & ~grown == 0:
                    break
                rest ^= bit
            else:
                visit(size + 1, grown, cand & ~adj[v], left)
            if adj[v] & ~nbrs == 0:
                return  # closure cut: v is skipped from here on
            skipped |= low

    visit(0, 0, (1 << n) - 1, 0)
    return ((INFINITY if plain_den == 0 else _ratio(plain_num, plain_den),
             plain_masks),
            (INFINITY if variant_den == 0
             else _ratio(variant_num, variant_den), variant_masks))


def _result(value: Ratio, sizes: dict[int, int]) -> ToughnessResult:
    masks = sorted(sizes)
    return ToughnessResult(value, tuple(map(set_bits, masks)),
                           tuple(map(sizes.__getitem__, masks)))


def exact_isolated_toughness_pair(g: Graph
                                  ) -> tuple[ToughnessResult, ToughnessResult]:
    """(I(g), I'(g)), each with all its minimizers, from one search."""
    plain, variant = _independent_set_search(g)
    return _result(*plain), _result(*variant)


# This and exact_isolated_toughness_variant are bound by perfbench/tracer.py.
def exact_isolated_toughness(g: Graph) -> ToughnessResult:
    """min |S| / i(G-S) over S with i(G-S) >= 2, with all minimizers."""
    return _result(*_independent_set_search(g)[0])


def exact_isolated_toughness_variant(g: Graph) -> ToughnessResult:
    """min |S| / (i(G-S) - 1) over S with i(G-S) >= 2."""
    return _result(*_independent_set_search(g)[1])


def exact_variant_value(g: Graph) -> Ratio:
    """I'(g) alone, for callers that read no minimizer: the floor mode
    with the floor -1, which never fires, so ties are cut and no masks
    are kept."""
    return _independent_set_search(g, (-1, 1))[1][0]


def exact_variant_above(g: Graph, floor: Ratio) -> Optional[Ratio]:
    """I'(g) when it strictly exceeds the finite floor, else None.

    For callers that read the value only when it clears a bound: the
    search stops at the first ratio at or below the floor and keeps no
    minimizers.  The floor may be an int, a Fraction or a finite float.
    """
    try:
        ratio = floor.as_integer_ratio()
    except OverflowError:  # a float infinity
        raise ValueError("the floor must be finite") from None
    try:
        return _independent_set_search(g, ratio)[1][0]
    except _AtOrBelowFloor:
        return None


def roulette_select(degrees: Sequence[int], p: float) -> int:
    """Index j whose cumulative-degree interval contains p.

    The interval of vertex j is [sum(deg[:j])/T, sum(deg[:j+1])/T), so a
    zero-degree vertex is never selected.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"p must lie in [0, 1), got {p}")
    if degrees and min(degrees) < 0:
        first = next(j for j, d in enumerate(degrees) if d < 0)
        raise ValueError(f"negative degree at {first}")
    cumulative = list(accumulate(degrees))
    total = cumulative[-1] if cumulative else 0
    if total <= 0:
        raise ValueError("no selectable vertex: all degrees are zero")
    j = bisect_right(cumulative, p * total)  # first j with target < acc
    if j < len(cumulative):
        return j
    # float rounding pushed the target to the top edge: the last positive
    return bisect_left(cumulative, total)


class _Track:
    """One deletion track; `isolated` and `total` (the degree sum) are
    kept up to date by `delete`."""

    __slots__ = ("remaining", "deg", "adjacency", "isolated", "total")

    def __init__(self, g: Graph):
        self.remaining = (1 << g.n) - 1
        self.deg = list(g.degrees)
        self.adjacency = g.adjacency
        self.isolated = self.deg.count(0)
        self.total = sum(self.deg)

    def clone_from(self, other: "_Track") -> None:
        self.remaining = other.remaining
        self.deg = other.deg.copy()
        self.isolated = other.isolated
        self.total = other.total

    def delete(self, v: int) -> None:
        deg = self.deg
        if deg[v]:
            mask = self.adjacency[v] & self.remaining
            while mask:
                low = mask & -mask
                u = low.bit_length() - 1
                deg[u] -= 1
                if not deg[u]:
                    self.isolated += 1
                mask ^= low
            self.total -= 2 * deg[v]
            deg[v] = 0
        else:
            self.isolated -= 1
        self.remaining &= ~(1 << v)

    def lowest_remaining(self) -> int:
        return (self.remaining & -self.remaining).bit_length() - 1

    def pick_roulette(self, rng) -> int:
        if self.total:
            return roulette_select(self.deg, rng.random())
        return self.lowest_remaining()

    def pick_max_degree(self) -> int:
        # deleted vertices hold degree 0, so a positive maximum is remaining
        top = max(self.deg)
        return self.deg.index(top) if top else self.lowest_remaining()


def pseudo_greedy_estimate(g: Graph, rng) -> Ratio:
    """Two-track greedy upper bound for the variant toughness.

    One uniform draw is consumed per step while the roulette track still
    has an edge; with no edge left both tracks fall back to deleting the
    lowest remaining index.  Orders below 4 return the exact value from
    the floor search and draw nothing.
    """
    n = g.n
    if n < 4:
        return exact_variant_value(g)

    track_r = _Track(g)
    track_m = _Track(g)
    best_num, best_den = -1, 0  # -1/0 stands for INFINITY

    def better(step: int, iso: int) -> bool:
        # step/(iso-1) < best, with the empty best treated as infinite
        if best_num < 0:
            return True
        return step * best_den < best_num * (iso - 1)

    for step in range(1, n - 2):
        track_r.delete(track_r.pick_roulette(rng))
        track_m.delete(track_m.pick_max_degree())

        iso_r = track_r.isolated
        if iso_r >= 2 and better(step, iso_r):
            best_num, best_den = step, iso_r - 1
        else:
            track_r.clone_from(track_m)

        iso_m = track_m.isolated
        if iso_m >= 2 and better(step, iso_m):
            best_num, best_den = step, iso_m - 1

    return INFINITY if best_num < 0 else Fraction(best_num, best_den)

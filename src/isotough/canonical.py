"""Canonical forms and isomorphism-aware deduplication.

Canonical labeling uses iterated degree refinement plus an
individualization search: branch on the vertices of the first smallest
non-singleton color class and relabel each leaf by its discrete coloring.
Refinement starts from the degree ranks and stops at a discrete coloring,
and the neighbor rows and edges come from the set bits of the adjacency
masks, so a graph pays for no setup round or vertex scan.
The canonical code is the smallest relabeled encoding over the leaves of
that search tree.  The tree depends only on the isomorphism class, so the
code is a class invariant; it is not in general the smallest encoding over
all n! relabelings.

Two leaves with equal codes yield an automorphism, and the search prunes
with those in the individualization-refinement way (McKay & Piperno,
"Practical graph isomorphism, II", J. Symb. Comput. 60, 2014): a child that
shares an orbit of the prefix stabilizer with an earlier sibling is skipped,
and a leaf that equals the best one jumps back to the two leaves' common
ancestor.  Pruning changes how many leaves are visited, never the code.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .graphs import MAX_ORDER, Graph, set_bits

# Every order up to MAX_ORDER is labeled exactly.  The name stays because
# callers outside the package (perfbench) still compare orders against it.
DEFAULT_CANONICAL_LIMIT = MAX_ORDER


def _refine(adj: Sequence[Sequence[int]], colors: list[int]) -> list[int]:
    """Iterated neighbor-color refinement with invariant class numbering.

    A vertex's signature is its color plus its sorted neighbor colors; the
    neighbor part only orders vertices within a class, so singletons skip it.
    A discrete coloring is returned as it stands: another round would only
    renumber it, and a leaf orders vertices by color either way.
    """
    while True:
        sizes = Counter(colors)
        if len(sizes) == len(colors):
            return colors
        color_of = colors.__getitem__
        sigs = [(c, tuple(sorted(map(color_of, adj[v]))) if sizes[c] > 1
                 else ()) for v, c in enumerate(colors)]
        palette = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [palette[sig] for sig in sigs]
        if new == colors:
            return colors
        colors = new


def _individualize(colors: Sequence[int], v: int) -> list[int]:
    # Split v's class with v ordered first; all other classes keep order.
    cv = colors[v]
    return [2 * c + (1 if c == cv and u != v else 0)
            for u, c in enumerate(colors)]


def _relabeled_code(edges: Sequence[tuple[int, int]], label: Sequence[int],
                    row: Sequence[int]) -> int:
    # Pair (a, b), a < b, sits at bit row[a] + b; see graphs.edge_index.
    code = 0
    for u, v in edges:
        a, b = label[u], label[v]
        code |= 1 << (row[a] + b if a < b else row[b] + a)
    return code


def _find(orbit: list[int], x: int) -> int:
    while orbit[x] != x:
        orbit[x] = orbit[orbit[x]]
        x = orbit[x]
    return x


def canonical_code(g: Graph) -> int:
    """Smallest relabeled encoding over the leaves of the refinement search.

    Isomorphic graphs get equal codes and non-isomorphic graphs of one order
    get different ones.
    """
    n = g.n
    if n <= 1:
        return 0
    adj = tuple(map(set_bits, g.adjacency))
    edges = [(u, v) for u, row in enumerate(adj) for v in row if v > u]
    row = [a * (n - 1) - a * (a - 1) // 2 - a - 1 for a in range(n)]

    best: dict = {"code": None, "order": None, "path": None}
    autos: list[dict[int, int]] = []  # each keeps only its moved points
    path: list[int] = []

    def leaf(colors: list[int]) -> int:
        order = sorted(range(n), key=colors.__getitem__)
        label = [0] * n
        for position, v in enumerate(order):
            label[v] = position
        code = _relabeled_code(edges, label, row)
        if best["code"] is None or code < best["code"]:
            best.update(code=code, order=order, path=path[:])
        elif code == best["code"]:
            # Mapping this leaf onto the best one is an automorphism that
            # fixes their common prefix, so the rest of this leaf's branch
            # mirrors an explored one: resume at the common ancestor.
            order = best["order"]
            autos.append({v: order[label[v]] for v in range(n)
                          if order[label[v]] != v})
            return next(depth for depth, (a, b)
                        in enumerate(zip(path, best["path"])) if a != b)
        return len(path)

    def search(colors: list[int]) -> int:
        """Explore one node; return the depth the search resumes at."""
        depth = len(path)
        sizes = Counter(colors)
        if len(sizes) == n:
            return leaf(colors)
        target = min((size, c) for c, size in sizes.items() if size > 1)[1]
        cell = [v for v in range(n) if colors[v] == target]
        # Orbits of the automorphisms found so far that fix the prefix; each
        # root is the smallest vertex of its orbit, so a child is tried only
        # if no smaller sibling shares its orbit.
        orbit = list(range(n))
        merged = 0
        for v in cell:
            if _find(orbit, v) != v:
                continue
            path.append(v)
            resume = search(_refine(adj, _individualize(colors, v)))
            path.pop()
            if resume < depth:
                return resume
            for moved in autos[merged:]:
                if moved.keys().isdisjoint(path):
                    for x, y in moved.items():
                        rx, ry = _find(orbit, x), _find(orbit, y)
                        if rx != ry:
                            orbit[max(rx, ry)] = min(rx, ry)
            merged = len(autos)
        return depth

    # one refinement round from a uniform coloring ranks the degrees
    rank = {d: i for i, d in enumerate(sorted(set(g.degrees)))}
    search(_refine(adj, [rank[d] for d in g.degrees]))
    return best["code"]


@dataclass(frozen=True)
class CanonicalForm:
    key: str


def canonical_form(g: Graph) -> CanonicalForm:
    """Key `"n:<canonical bits>"`; equal keys iff isomorphic."""
    return CanonicalForm(key=f"{g.n}:{canonical_graph(g).bits()}")


def canonical_graph(g: Graph) -> Graph:
    return Graph(g.n, canonical_code(g))


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return False
    return canonical_code(g1) == canonical_code(g2)


def deduplicate(graphs: Iterable[Graph],
                key: Optional[Callable[[Graph], str]] = None) -> list[Graph]:
    """One representative per isomorphism class, smallest bit string wins.

    Output is ordered by first appearance of each class.  `key` must give
    equal strings exactly for isomorphic graphs; it defaults to
    `canonical_form(g).key` and lets a caller reuse keys it already holds.
    """
    reps: list[Graph] = []
    index: dict[str, int] = {}
    for g in graphs:
        class_key = canonical_form(g).key if key is None else key(g)
        at = index.get(class_key)
        if at is None:
            index[class_key] = len(reps)
            reps.append(g)
        elif g.bits() < reps[at].bits():
            reps[at] = g
    return reps

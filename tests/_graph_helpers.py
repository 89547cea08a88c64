"""Graph helpers that only the tests read.

`isolated_count` counts the isolated vertices left by a deletion set
directly, the reference that the exact engine's minimizer witnesses are
checked against.  `cycle` and `complete_bipartite` build test inputs.
"""

from typing import Iterable, Union

from isotough.graphs import Graph, from_edges


def vertex_mask(s: Union[int, Iterable[int]], n: int) -> int:
    """Normalize a vertex collection (or ready-made bitmask) to a bitmask."""
    if isinstance(s, int):
        mask = s
    else:
        mask = 0
        for v in s:
            mask |= 1 << v
    if not 0 <= mask < 1 << n:
        raise ValueError(f"vertex set does not fit order {n}")
    return mask


def isolated_count(g: Graph, s: Union[int, Iterable[int]]) -> int:
    """Number of degree-zero vertices left after deleting the set s."""
    mask = vertex_mask(s, g.n)
    outside = ((1 << g.n) - 1) & ~mask
    adjacency = g.adjacency
    return sum(1 for v in range(g.n)
               if (outside >> v) & 1 and adjacency[v] & outside == 0)


def cycle(n: int) -> Graph:
    return from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: vertices 0..a-1 on one side, a..a+b-1 on the other."""
    return from_edges(a + b, [(u, a + v) for u in range(a) for v in range(b)])

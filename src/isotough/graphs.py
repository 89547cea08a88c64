"""Simple undirected graphs encoded as upper-triangular bit strings.

A graph on n vertices is a single integer whose bit p holds the presence of
the p-th vertex pair in row-major upper-triangular order:
(0,1), (0,2), ..., (0,n-1), (1,2), ..., (n-2,n-1).
The encoding doubles as the chromosome of the evolutionary solver, so all
operations here are pure functions on immutable values.

A Graph decodes its adjacency rows and degrees on first access and keeps
them in its instance dict, with no lock: the decode is pure, so a race
at worst computes it twice.  Equality, hashing and repr read only the
order and the code, so they do not depend on whether a graph has been
decoded.

Result files are indent-2 JSON text built by `json_text`.  It writes
exactly what `json.dumps(value, indent=2, sort_keys=...)` writes, at a
fraction of the cost: CPython's json falls back to its pure-Python
encoder whenever `indent` is set.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from functools import cache
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Sequence, Union

from .errors import CapacityError, GraphParseError, InputError

# Encoded graphs above this order are refused (quadratic bit strings grow
# fast and every exact routine downstream is exponential in n anyway).
MAX_ORDER = 64

VertexSetLike = Union[int, Iterable[int]]


def _check_order(n: int) -> None:
    """CapacityError for an order above MAX_ORDER, so a caller can refuse
    before any work that grows with the order."""
    if n > MAX_ORDER:
        raise CapacityError(
            f"order {n} exceeds the supported maximum {MAX_ORDER}")


def pair_count(n: int) -> int:
    """Number of encoded bits for order n."""
    return n * (n - 1) // 2


def edge_index(u: int, v: int, n: int) -> int:
    """Bit position of the unordered pair {u, v} at order n."""
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"vertex out of range for order {n}: {(u, v)}")
    if u == v:
        raise ValueError(f"self-loops are not encodable: {(u, v)}")
    if u > v:
        u, v = v, u
    row_start = u * (n - 1) - u * (u - 1) // 2
    return row_start + (v - u - 1)


def _small_sets(bits: int) -> tuple[tuple[int, ...], ...]:
    """set_bits of every mask below 2^bits, indexed by mask: the lowest
    bit of m is followed by the bits of m with that bit cleared."""
    table: list[tuple[int, ...]] = [()]
    for mask in range(1, 1 << bits):
        table.append(((mask & -mask).bit_length() - 1,)
                     + table[mask & (mask - 1)])
    return tuple(table)


# Every vertex set of a graph of order 9 or less, the largest order that
# enumerate_exact scans (oracle.ENUMERATION_LIMIT): 512 tuples, 43 KB.
_SMALL_SETS = _small_sets(9)


def set_bits(mask: int) -> tuple[int, ...]:
    """Positions of the set bits of a non-negative mask, ascending.

    Masks below 512 are read from a table built at import, so the
    minimizers and neighbourhoods of graphs up to order 9 cost one
    lookup; larger masks walk their bits.
    """
    if mask < 512:
        return _SMALL_SETS[mask]
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return tuple(members)


@cache
def _decode_layout(n: int) -> tuple[tuple[tuple[int, int], ...],
                                     tuple[tuple[int, int], ...],
                                     struct.Struct, int]:
    """Masks that decode an order-n encoding into adjacency rows.

    Row u of the encoding, the pairs (u, v) for v > u, must move from its
    bit offset to u * side + u + 1.  Those shifts grow with u, so taking
    their binary digits from the top down moves every row by one power of
    two per step with no row ever overlapping another: `steps` holds one
    (rows-to-move mask, power) pair per digit.  `swaps` holds, for each
    block size j = side/2, ..., 1, the mask of the upper-right j x j
    blocks and the distance j * (side - 1) to their lower-left partners.
    The last two fields unpack the first n rows.  At order 64 the masks
    take about 8 KB.
    """
    side = max(8, 1 << (n - 1).bit_length())
    rows = []  # (offset, width, shift) per nonempty encoded row
    offset = 0
    for u in range(n - 1):
        width = n - 1 - u
        rows.append((offset, width, u * side + u + 1 - offset))
        offset += width
    steps = []
    top = rows[-1][2].bit_length() if rows else 0
    for digit in reversed(range(top)):
        mask = 0
        for offset, width, shift in rows:
            if shift >> digit & 1:
                done = shift >> (digit + 1) << (digit + 1)
                mask |= ((1 << width) - 1) << (offset + done)
        if mask:
            steps.append((mask, 1 << digit))
    swaps = []
    j = side >> 1
    while j:
        right = sum(1 << c for c in range(side) if c & j)
        mask = sum(right << r * side for r in range(side) if not r & j)
        swaps.append((mask, j * (side - 1)))
        j >>= 1
    unpack = struct.Struct(f"<{n}{'BHIQ'[(side // 8).bit_length() - 1]}")
    return tuple(steps), tuple(swaps), unpack, n * side // 8


class _lazy:
    """A computed attribute stored in the instance dict on first access.

    Like functools.cached_property, which takes a per-instance lock on
    every first access up to Python 3.11, but with no lock: the value is
    pure, so two threads racing on one graph at worst both compute it.
    After the first access the instance dict answers and this descriptor
    is not consulted.  A frozen dataclass still refuses assignment.
    """

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


@dataclass(frozen=True)
class Graph:
    """Immutable graph; `code` packs the upper-triangular bit string."""

    n: int
    code: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise InputError(f"order must be non-negative, got {self.n}")
        _check_order(self.n)
        if not 0 <= self.code < 1 << pair_count(self.n):
            raise ValueError("encoded bits do not fit the given order")

    @_lazy
    def adjacency(self) -> tuple[int, ...]:
        """Neighbor bitmask per vertex, decoded word-parallel.

        The upper-triangular rows are shifted into place as the strict
        upper triangle U of a square bit matrix, row u at bit u * side,
        whose side is the next power of two (at least 8, so rows are
        whole bytes).  U | U^T is the adjacency matrix; the transpose is
        log2(side) block swaps on one int, and the rows are unpacked from
        its bytes.  The masks come from _decode_layout.
        """
        steps, swaps, unpack, size = _decode_layout(self.n)
        upper = int(self.code)  # callers may pass numpy ints
        for mask, amount in steps:
            moved = upper & mask
            upper = upper ^ moved | moved << amount
        matrix = upper
        for mask, distance in swaps:
            swapped = (matrix ^ matrix >> distance) & mask
            matrix ^= swapped | swapped << distance
        return unpack.unpack((matrix | upper).to_bytes(size, "little"))

    @_lazy
    def degrees(self) -> tuple[int, ...]:
        return tuple(map(int.bit_count, self.adjacency))

    @property
    def min_degree(self) -> int:
        if self.n == 0:
            raise ValueError("order-0 graph has no degrees")
        return min(self.degrees)

    @property
    def edge_count(self) -> int:
        return self.code.bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.code >> edge_index(u, v, self.n)) & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges in bit-position order: row u of the adjacency shifted
        down by u + 1 holds the pairs (u, v), v > u, in ascending v."""
        for u, mask in enumerate(self.adjacency):
            row = mask >> (u + 1)
            while row:
                low = row & -row
                yield u, u + low.bit_length()
                row ^= low

    def bits(self) -> str:
        """The encoding as a 0/1 string, bit position 0 first."""
        return format(self.code, f"0{pair_count(self.n)}b")[::-1] \
            if self.n > 1 else ""

    def is_complete(self) -> bool:
        return self.code == (1 << pair_count(self.n)) - 1

    def neighbors(self, v: int) -> tuple[int, ...]:
        return set_bits(self.adjacency[v])


def from_bits(n: int, bits: Union[str, Sequence[int]]) -> Graph:
    """Build a graph from an explicit 0/1 sequence (position 0 first)."""
    if len(bits) != pair_count(n):
        raise GraphParseError(
            f"expected {pair_count(n)} bits for order {n}, got {len(bits)}")
    _check_order(n)
    code = 0
    for position, bit in enumerate(bits):
        if isinstance(bit, str):
            if bit not in "01":
                raise GraphParseError(f"invalid bit {bit!r}", position)
            bit = int(bit)
        elif bit not in (0, 1):
            raise GraphParseError(f"invalid bit {bit!r}", position)
        code |= bit << position
    return Graph(n, code)


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    _check_order(n)
    code = 0
    for u, v in edges:
        code |= 1 << edge_index(u, v, n)
    return Graph(n, code)


def vertex_mask(s: VertexSetLike, n: int) -> int:
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


def isolated_count(g: Graph, s: VertexSetLike) -> int:
    """Number of degree-zero vertices left after deleting the set s."""
    mask = vertex_mask(s, g.n)
    outside = ((1 << g.n) - 1) & ~mask
    adjacency = g.adjacency
    return sum(1 for v in range(g.n)
               if (outside >> v) & 1 and adjacency[v] & outside == 0)


def hamming_distance(g1: Graph, g2: Graph) -> int:
    if g1.n != g2.n:
        raise ValueError("hamming distance needs equal orders")
    return (g1.code ^ g2.code).bit_count()


def join(g1: Graph, g2: Graph) -> Graph:
    """Graph join: disjoint union plus every cross edge; CapacityError
    above MAX_ORDER."""
    n = g1.n + g2.n
    edges = list(g1.edges())
    edges += [(u + g1.n, v + g1.n) for u, v in g2.edges()]
    edges += [(u, v) for u in range(g1.n) for v in range(g1.n, n)]
    return from_edges(n, edges)


# ----- named families -------------------------------------------------------

def complete(n: int) -> Graph:
    _check_order(n)
    return Graph(n, (1 << pair_count(n)) - 1)


def empty_graph(n: int) -> Graph:
    return Graph(n, 0)


def star(n: int) -> Graph:
    """K_{1,n-1}: vertex 0 joined to every other vertex."""
    if n < 1:
        raise InputError("star needs at least one vertex")
    _check_order(n)
    return from_edges(n, [(0, v) for v in range(1, n)])


def disjoint_cliques(m: int, k: int) -> Graph:
    """m disjoint copies of K_k."""
    if m < 1 or k < 1:
        raise InputError("need m >= 1 and k >= 1")
    _check_order(m * k)
    edges = []
    for block in range(m):
        base = block * k
        edges += [(base + u, base + v)
                  for u in range(k) for v in range(u + 1, k)]
    return from_edges(m * k, edges)


def clique_join_blocks(c: int, m: int, k: int) -> Graph:
    """K_c joined with m disjoint copies of K_k."""
    return join(complete(c), disjoint_cliques(m, k))


def clique_join_singles(c: int, d: int) -> Graph:
    """K_c joined with d isolated vertices."""
    if d < 1:
        raise InputError("need d >= 1")
    return join(complete(c), empty_graph(d))


def counterexample_family(k: int, t: int) -> Graph:
    """K_{t+1} joined with (t+2) copies of K_k.

    Minimum degree k+t; the variant toughness sits exactly on the strict
    acceptance bound, and no fractional k-factor exists.
    """
    if k < 1 or t < 0:
        raise InputError("need k >= 1 and t >= 0")
    return clique_join_blocks(t + 1, t + 2, k)


def extremal_family(k: int, l: int) -> Graph:
    """K_{l-1} joined with l copies of K_k (the tight family G_l)."""
    if k < 1 or l < 2:
        raise InputError("need k >= 1 and l >= 2")
    return clique_join_blocks(l - 1, l, k)


# ----- serialization --------------------------------------------------------

def graph_to_json(g: Graph, i_prime: str | None = None) -> dict:
    """JSON-ready dict.  `i_prime` is written as given, a formatted ratio
    from the caller, or null; serializing runs no search."""
    return {
        "n": g.n,
        "bits": g.bits(),
        "edges": [list(e) for e in g.edges()],
        "delta": g.min_degree if g.n else 0,
        "i_prime": i_prime,
    }


def graph_to_json_text(g: Graph, i_prime: str | None = None) -> str:
    """graph_to_json as a file, keys in the dict's order."""
    return json_text(graph_to_json(g, i_prime))


_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}
# JSON's array types; a lookup of any other type raises KeyError
_ARRAYS = {list: iter, tuple: iter}


def _json_value(value, depth: int, sort_keys: bool) -> str:
    """Indent-2 text of a value whose first line sits at nesting level
    `depth`, without the final line break.  Floats, and whatever json
    itself would reject, go to json.dumps."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    newline = "\n" + "  " * depth
    inner = newline + "  "
    if isinstance(value, dict):
        items = sorted(value.items()) if sort_keys else value.items()
        body = ("," + inner).join([
            f"{encode_basestring_ascii(key)}:"
            f" {_json_value(item, depth + 1, sort_keys)}"
            for key, item in items])
        return f"{{{inner}{body}{newline}}}" if body else "{}"
    if isinstance(value, (list, tuple)):
        try:  # an array of scalars, such as an edge, needs no call per item
            items = [_SCALARS[type(item)](item) for item in value]
        except KeyError:
            try:  # nor does an array of such arrays, such as the edges
                rows = [[_SCALARS[type(x)](x)
                         for x in _ARRAYS[type(item)](item)]
                        for item in value]
            except KeyError:
                items = [_json_value(item, depth + 1, sort_keys)
                         for item in value]
            else:
                deeper = inner + "  "
                comma = "," + deeper
                items = [f"[{deeper}{comma.join(row)}{inner}]" if row
                         else "[]" for row in rows]
        body = ("," + inner).join(items)
        return f"[{inner}{body}{newline}]" if body else "[]"
    return json.dumps(value)


def json_text(value, sort_keys: bool = False) -> str:
    """Exactly `json.dumps(value, indent=2, sort_keys=sort_keys) + "\\n"`
    for a value made of dicts with str keys, lists, tuples and scalars."""
    return _json_value(value, 0, sort_keys) + "\n"


def graph_from_json(source: Union[str, dict]) -> Graph:
    """Parse the JSON graph schema; derived fields are ignored."""
    if isinstance(source, str):
        try:
            data = json.loads(source)
        except json.JSONDecodeError as exc:
            raise GraphParseError(f"invalid JSON: {exc.msg}",
                                  position=exc.pos) from exc
        except (ValueError, RecursionError) as exc:
            # an integer too long to convert, or arrays nested too deeply
            raise GraphParseError(f"invalid JSON: {exc}") from exc
    else:
        data = source
    if not isinstance(data, dict):
        raise GraphParseError("graph JSON must be an object")
    try:
        n = data["n"]
        bits = data["bits"]
    except KeyError as exc:
        raise GraphParseError(f"missing field {exc.args[0]!r}") from exc
    if isinstance(n, bool) or not isinstance(n, int):
        raise GraphParseError("field 'n' must be an integer")
    if not isinstance(bits, str):
        raise GraphParseError("field 'bits' must be a string")
    return from_bits(n, bits)


def graph_to_dot(g: Graph) -> str:
    """Graphviz text; isolated vertices are listed bare."""
    lines = ["graph G {"]
    seen = 0
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
        seen |= (1 << u) | (1 << v)
    for v in range(g.n):
        if not (seen >> v) & 1:
            lines.append(f"  {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"

"""Encoding, families, structural queries, and serialization."""

import copy
import json
import math
import pickle
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from isotough import graphs
from isotough.errors import CapacityError, GraphParseError
from isotough.graphs import (
    Graph,
    clique_join_blocks,
    clique_join_singles,
    complete,
    counterexample_family,
    disjoint_cliques,
    edge_index,
    empty_graph,
    extremal_family,
    from_bits,
    from_edges,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    graph_to_json_text,
    hamming_distance,
    json_text,
    pair_count,
    set_bits,
    star,
)
from isotough.oracle import ENUMERATION_LIMIT
from isotough.rational import INFINITY, format_ratio, parse_ratio

from _graph_helpers import isolated_count, vertex_mask

# The worked five-vertex example: one hub of degree 4, four rim vertices.
WORKED_BITS = "1111010010"


def random_graph_strategy(n_min=2, n_max=9):
    return st.integers(n_min, n_max).flatmap(
        lambda n: st.integers(0, (1 << pair_count(n)) - 1).map(
            lambda code: Graph(n, code)))


# ----- encoding -------------------------------------------------------------

def test_edge_index_endpoints():
    assert edge_index(0, 1, 5) == 0
    assert edge_index(3, 4, 5) == 9
    assert edge_index(4, 3, 5) == 9  # order of endpoints is irrelevant


def test_edge_index_rejects_bad_pairs():
    with pytest.raises(ValueError):
        edge_index(2, 2, 5)
    with pytest.raises(ValueError):
        edge_index(0, 5, 5)


@given(st.integers(0, 64), st.data())
def test_edges_walk_set_bits_in_position_order(n, data):
    code = data.draw(st.integers(0, (1 << pair_count(n)) - 1))
    g = Graph(n, code)
    positions = [p for p in range(pair_count(n)) if code >> p & 1]
    assert [edge_index(u, v, n) for u, v in g.edges()] == positions
    assert all(0 <= u < v < n for u, v in g.edges())


def test_worked_example_decodes_to_expected_degrees():
    g = from_bits(5, WORKED_BITS)
    assert g.degrees == (4, 2, 2, 2, 2)
    assert g.bits() == WORKED_BITS


def test_from_bits_validates():
    with pytest.raises(GraphParseError):
        from_bits(5, "111")
    with pytest.raises(GraphParseError) as err:
        from_bits(3, "1x0")
    assert err.value.position == 1


def test_order_cap_enforced():
    with pytest.raises(CapacityError):
        Graph(65, 0)


def refuse_above_the_cap(function):
    """`function`, failing the test when asked about an order above 64:
    such an order must be refused before any work that grows with it."""
    def guarded(*args):
        if args[-1] > 64:
            raise AssertionError("work done before the order check")
        return function(*args)
    return guarded


class UnreadBits:
    """A bit sequence of the right length that fails if it is read."""

    def __init__(self, n):
        self.length = pair_count(n)

    def __len__(self):
        return self.length

    def __iter__(self):
        raise AssertionError("bits read before the order check")


MESSAGE = "order {} exceeds the supported maximum 64"


def test_from_bits_refuses_a_large_order_before_reading_bits():
    with pytest.raises(CapacityError, match=MESSAGE.format(100)):
        from_bits(100, UnreadBits(100))
    assert from_bits(4, "111000").n == 4


def test_from_edges_refuses_a_large_order_before_any_edge(monkeypatch):
    monkeypatch.setattr(graphs, "edge_index",
                        refuse_above_the_cap(graphs.edge_index))
    with pytest.raises(CapacityError, match=MESSAGE.format(100)):
        from_edges(100, [(0, 1)])
    assert from_edges(64, [(0, 63)]).adjacency[63] == 1


def test_complete_refuses_a_large_order_before_any_shift(monkeypatch):
    monkeypatch.setattr(graphs, "pair_count",
                        refuse_above_the_cap(graphs.pair_count))
    with pytest.raises(CapacityError, match=MESSAGE.format(100000)):
        complete(100000)
    assert complete(64).is_complete()


def test_families_refuse_a_large_order_before_any_edge(monkeypatch):
    # their edges are listed by range(order) or range(block); a block of
    # 100 000 vertices would list five billion of them
    monkeypatch.setattr(graphs, "range", refuse_above_the_cap(range),
                        raising=False)
    with pytest.raises(CapacityError, match=MESSAGE.format(100000)):
        disjoint_cliques(1, 100000)
    with pytest.raises(CapacityError, match=MESSAGE.format(100000)):
        star(100000)
    assert disjoint_cliques(8, 8).n == star(64).n == 64


@given(random_graph_strategy())
def test_degree_sum_counts_each_edge_twice(g):
    assert sum(g.degrees) == 2 * g.code.bit_count()


@given(random_graph_strategy())
def test_bits_roundtrip(g):
    assert from_bits(g.n, g.bits()) == g


@given(random_graph_strategy())
def test_edges_match_bits(g):
    rebuilt = from_edges(g.n, g.edges())
    assert rebuilt == g
    for u, v in g.edges():
        assert g.code >> edge_index(u, v, g.n) & 1
        assert g.adjacency[u] >> v & 1 and g.adjacency[v] >> u & 1


@given(random_graph_strategy())
def test_neighbors_are_the_set_bits_of_the_adjacency(g):
    for v in range(g.n):
        expected = tuple(u for u in range(g.n) if g.adjacency[v] >> u & 1)
        assert set_bits(g.adjacency[v]) == expected


def test_set_bits():
    assert set_bits(0) == ()
    assert set_bits(0b101001) == (0, 3, 5)
    assert set_bits(1 << 63) == (63,)


def bits_by_scan(mask):
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def test_set_bits_table_covers_every_enumerated_vertex_set():
    assert 1 << ENUMERATION_LIMIT == 512
    assert all(set_bits(mask) == bits_by_scan(mask) for mask in range(512))


@given(st.integers(0, (1 << 64) - 1))
def test_set_bits_matches_a_scan_of_every_bit(mask):
    assert set_bits(mask) == bits_by_scan(mask)


def adjacency_by_pairs(g):
    """Neighbour masks from a test of every encoded pair."""
    masks = [0] * g.n
    position = 0
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if (g.code >> position) & 1:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
            position += 1
    return tuple(masks)


@pytest.mark.parametrize("n", range(65))
def test_adjacency_matches_pair_loop(n):
    rng = random.Random(n)
    length = pair_count(n)
    codes = [0, (1 << length) - 1, star(n).code if n else 0]
    codes += [rng.getrandbits(length) for _ in range(3)]
    codes.append(rng.getrandbits(length) & rng.getrandbits(length)
                 & rng.getrandbits(length))  # sparse
    for code in codes:
        g = Graph(n, code)
        expected = adjacency_by_pairs(g)
        assert g.adjacency == expected
        degrees = tuple(mask.bit_count() for mask in expected)
        assert g.degrees == degrees
        if n:
            assert g.min_degree == min(degrees)
        else:
            with pytest.raises(ValueError):
                g.min_degree


def test_decode_runs_once_per_graph():
    g = from_bits(5, WORKED_BITS)
    assert "adjacency" not in vars(g) and "degrees" not in vars(g)
    assert g.adjacency is g.adjacency
    assert g.degrees is g.degrees
    assert vars(g)["adjacency"] is g.adjacency
    assert g.degrees == (4, 2, 2, 2, 2)


@pytest.mark.parametrize("name", ["adjacency", "degrees", "n"])
@pytest.mark.parametrize("decoded", [False, True], ids=["fresh", "decoded"])
def test_graph_refuses_assignment(name, decoded):
    g = from_bits(5, WORKED_BITS)
    if decoded:
        g.degrees
    with pytest.raises(FrozenInstanceError):
        setattr(g, name, (0,) * 5)
    assert g.n == 5
    assert g.adjacency == adjacency_by_pairs(g)
    assert g.degrees == (4, 2, 2, 2, 2)


def test_equality_hash_and_repr_ignore_the_decode():
    fresh, decoded = from_bits(5, WORKED_BITS), from_bits(5, WORKED_BITS)
    decoded.degrees
    assert fresh == decoded and decoded == fresh
    assert hash(fresh) == hash(decoded)
    assert repr(fresh) == repr(decoded) == f"Graph(n=5, code={fresh.code})"
    assert len({fresh, decoded}) == 1
    assert fresh != from_bits(5, "1111010011")


@pytest.mark.parametrize("decoded", [False, True], ids=["fresh", "decoded"])
def test_pickle_and_copy_keep_the_graph(decoded):
    for g in (from_bits(5, WORKED_BITS), star(9), Graph(64, 0)):
        if decoded:
            g.degrees
        for clone in (pickle.loads(pickle.dumps(g)), copy.copy(g),
                      copy.deepcopy(g)):
            assert clone == g and hash(clone) == hash(g)
            assert clone.adjacency == adjacency_by_pairs(g) == g.adjacency
            assert clone.degrees == g.degrees
            with pytest.raises(FrozenInstanceError):
                clone.adjacency = ()


# ----- isolated vertex counting ---------------------------------------------

def test_isolated_count_examples():
    assert isolated_count(complete(5), 0) == 0
    assert isolated_count(star(5), {0}) == 4
    assert isolated_count(empty_graph(3), ()) == 3


def test_vertex_mask_forms():
    assert vertex_mask({0, 2}, 4) == 0b101
    assert vertex_mask(0b101, 4) == 0b101
    with pytest.raises(ValueError):
        vertex_mask({4}, 4)


# ----- clique joins and families ---------------------------------------------

def test_join_of_hub_and_two_edges():
    g = clique_join_blocks(1, 2, 2)
    assert g.n == 5
    # hub reaches all four; each block vertex has one block edge + the hub
    assert g.degrees == (4, 2, 2, 2, 2)
    assert g == counterexample_family(2, 0)


def test_join_identity_and_cliques():
    # K_0 joined with one block is the block; two cliques join to one
    assert clique_join_blocks(0, 1, 4) == complete(4)
    assert clique_join_blocks(2, 1, 2) == complete(4)


def test_join_size_limit():
    # the joined order 70 is past MAX_ORDER, which Graph refuses
    with pytest.raises(CapacityError):
        clique_join_blocks(40, 1, 30)


@given(st.integers(0, 5), st.integers(1, 5), st.integers(1, 5))
def test_join_degree_law(c, m, b):
    # a clique vertex sees every other vertex; a block vertex sees the
    # clique and the rest of its block
    joined = clique_join_blocks(c, m, b)
    assert joined.degrees == (c + m * b - 1,) * c + (c + b - 1,) * (m * b)


def test_family_orders_and_degrees():
    g = counterexample_family(2, 0)
    assert (g.n, g.min_degree) == (5, 2)
    assert extremal_family(2, 2).n == 5
    assert star(5).degrees == (4, 1, 1, 1, 1)
    assert clique_join_singles(3, 4).degrees == (6, 6, 6, 3, 3, 3, 3)
    assert clique_join_blocks(1, 2, 2) == counterexample_family(2, 0)
    for k in (2, 3, 4):
        for t in range(4):
            g = counterexample_family(k, t)
            assert g.n == (t + 1) + k * (t + 2)
            assert g.min_degree == k + t


def test_family_parameter_validation():
    with pytest.raises(ValueError):
        counterexample_family(0, 1)
    with pytest.raises(ValueError):
        extremal_family(2, 1)
    with pytest.raises(ValueError):
        star(0)


# ----- hamming distance -----------------------------------------------------

def test_hamming_examples():
    g = from_bits(5, WORKED_BITS)
    assert hamming_distance(g, g) == 0
    assert hamming_distance(complete(5), empty_graph(5)) == 10
    assert hamming_distance(g, complete(5)) == 4


def test_hamming_needs_equal_orders():
    with pytest.raises(ValueError):
        hamming_distance(complete(3), complete(4))


@given(random_graph_strategy(4, 6), st.data())
def test_hamming_is_a_metric(g1, data):
    code2 = data.draw(st.integers(0, (1 << pair_count(g1.n)) - 1))
    code3 = data.draw(st.integers(0, (1 << pair_count(g1.n)) - 1))
    g2, g3 = Graph(g1.n, code2), Graph(g1.n, code3)
    assert hamming_distance(g1, g2) == hamming_distance(g2, g1)
    assert (hamming_distance(g1, g2) == 0) == (g1 == g2)
    assert hamming_distance(g1, g3) <= \
        hamming_distance(g1, g2) + hamming_distance(g2, g3)


# ----- serialization --------------------------------------------------------

def test_json_schema_fields():
    data = graph_to_json(from_bits(5, WORKED_BITS), i_prime="3/1")
    assert data == {
        "n": 5,
        "bits": WORKED_BITS,
        "edges": [[0, 1], [0, 2], [0, 3], [0, 4], [1, 3], [2, 4]],
        "delta": 2,
        "i_prime": "3/1",
    }


def test_json_writes_the_given_i_prime_and_runs_no_search(monkeypatch):
    def unreachable(*args):
        raise AssertionError("serializing must not search")

    monkeypatch.setattr("isotough.toughness._independent_set_search",
                        unreachable)
    assert graph_to_json(star(5))["i_prime"] is None
    assert '"i_prime": null' in graph_to_json_text(star(5))
    assert graph_to_json(star(5), "1/3")["i_prime"] == "1/3"


def test_empty_graph_serializes_with_no_edges():
    data = graph_to_json(empty_graph(3), i_prime="0/1")
    assert data["edges"] == []
    assert data["delta"] == 0


@given(random_graph_strategy(2, 8))
def test_json_roundtrip(g):
    assert graph_from_json(graph_to_json_text(g, i_prime="1/1")) == g


def test_json_parse_errors():
    with pytest.raises(GraphParseError):
        graph_from_json("{not json")
    with pytest.raises(GraphParseError):
        graph_from_json(json.dumps({"n": 3}))
    with pytest.raises(GraphParseError):
        graph_from_json(json.dumps({"n": "3", "bits": "000"}))
    with pytest.raises(GraphParseError):
        graph_from_json(json.dumps({"n": 3, "bits": "0000"}))
    with pytest.raises(GraphParseError, match="'n' must be an integer"):
        graph_from_json(json.dumps({"n": True, "bits": ""}))
    with pytest.raises(GraphParseError):  # past int's digit limit
        graph_from_json('{"n": ' + "1" * 5000 + ', "bits": ""}')
    with pytest.raises(GraphParseError):  # past the recursion limit
        graph_from_json("[" * 100000 + "]" * 100000)


JSON_VALUES = [
    {},
    [],
    {"a": [], "b": {}, "c": [[]], "d": [{}]},
    {"z": 1, "a": [1, 2.5, "x"], "m": {"y": None, "b": True, "a": False}},
    [0.1, 1e-05, 1e300, -0.0, float("inf"), -float("inf"), float("nan")],
    ["caf\u00e9", "tab\tquote\"back\\slash", "\u2603", ""],
    (1, (2, 3), [4, {"k": (5,)}]),
    {"10": 1, "3": {"2": [True, [False, None]], "1": []}, "": 0},
    {"deep": [[[[[[1]]]]]], "n": -7, "big": 1 << 70},
    # arrays of arrays, mixed with what the scalar-array path must refuse
    [[0, 1], [0, 2], [1, 2]],
    [[1, 2], [], (3, "x", None, True)],
    [[1, 2], 3, [], [[4]], {"a": [5, 6]}],
    [("a", 0.5), ("b", 1.5), ("c", float("nan"))],
    (("a", "b"), ("é", ""), ()),
    [[], []],
    [[1], "ab"],
    ["ab", [1]],
    [[1, 2.5], [3]],
    [[1, [2]], [3]],
]


@pytest.mark.parametrize("value", JSON_VALUES)
@pytest.mark.parametrize("sort_keys", [False, True])
def test_json_text_matches_json_dumps(value, sort_keys):
    expected = json.dumps(value, indent=2, sort_keys=sort_keys) + "\n"
    assert json_text(value, sort_keys=sort_keys) == expected


def test_json_text_rejects_what_json_rejects():
    with pytest.raises(TypeError):
        json_text({"a": {1, 2}})


@given(random_graph_strategy())
def test_graph_json_text_matches_json_dumps(g):
    data = graph_to_json(g, i_prime="3/2")
    assert graph_to_json_text(g, "3/2") == json.dumps(data, indent=2) + "\n"


def test_dot_output():
    text = graph_to_dot(from_edges(4, [(0, 1)]))
    assert text.splitlines() == ["graph G {", "  0 -- 1;", "  2;", "  3;",
                                 "}"]


# ----- rational formatting --------------------------------------------------

def test_format_ratio_always_shows_denominator():
    assert format_ratio(parse_ratio("3/1")) == "3/1"
    assert format_ratio(parse_ratio("7/2")) == "7/2"
    assert format_ratio(INFINITY) == "inf"
    assert format_ratio(parse_ratio("0/1")) == "0/1"
    assert format_ratio(Fraction(-6, 4)) == "-3/2"
    assert format_ratio(0.5) == "1/2"
    assert format_ratio(3) == "3/1"
    assert format_ratio(float("inf")) == "inf"


def test_format_ratio_rejects_what_fraction_rejects():
    with pytest.raises(OverflowError):
        format_ratio(-INFINITY)
    with pytest.raises(ValueError):
        format_ratio(math.nan)


def test_parse_ratio_accepts_inf_and_rejects_junk():
    assert parse_ratio("inf") == INFINITY
    assert math.isinf(parse_ratio("inf"))
    with pytest.raises(GraphParseError):
        parse_ratio("three halves")
    with pytest.raises(GraphParseError):
        parse_ratio("1/0")


@given(st.integers(0, 500), st.integers(1, 500))
def test_format_parse_roundtrip(p, q):
    value = parse_ratio(f"{p}/{q}")
    assert parse_ratio(format_ratio(value)) == value

"""Command-line interface: exit codes, output formats, determinism."""

import hashlib
import inspect
import io
import itertools
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import isotough
from isotough import cli, evolve, factors, oracle
from isotough.cli import build_parser, main
from isotough.evolve import DEFAULT_SEED, SolverConfig
from isotough.factors import delta_scope
from isotough.graphs import clique_join_blocks, clique_join_singles, \
    complete, counterexample_family, disjoint_cliques, empty_graph, \
    extremal_family, from_edges, graph_from_json, graph_to_json, \
    graph_to_json_text, star
from isotough.oracle import MinimizerSurvey, benchmark
from isotough.rational import format_ratio, parse_ratio
from isotough.toughness import DEFAULT_EXACT_LIMIT, exact_variant_value


def cycle(n):
    return from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def feed(monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))


# ----- exit codes -----------------------------------------------------------

def test_no_command_is_usage_error(capsys):
    assert main([]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["solve", "--n", "7", "--out", "x"]) == 1


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "isotough 0.1.0" in capsys.readouterr().out


def test_capacity_refusal_exits_two(capsys, monkeypatch):
    # C40 passes the real node budget within seconds; the order-30 empty
    # graph is decided at once
    feed(monkeypatch, graph_to_json_text(cycle(40), "unused"))
    assert main(["exact"]) == 2
    assert "capacity error" in capsys.readouterr().err
    bits = "0" * (30 * 29 // 2)
    assert main(["exact", "--bits", bits, "--n", "30"]) == 0
    assert "I' = 0/1" in capsys.readouterr().out


def test_enumerate_capacity_refusal(capsys):
    assert main(["enumerate", "--n", "10", "--k", "2"]) == 2


def test_enumeration_above_the_limit_builds_no_class(capsys):
    # the refusal comes before class generation, which takes hours at
    # order 10, and no flag or keyword overrides it
    oracle._level.cache_clear()
    for call in (lambda: oracle.enumerate_exact(10, 3),
                 lambda: benchmark(10, 3)):
        with pytest.raises(isotough.CapacityError):
            call()
    assert oracle._level.cache_info().currsize == 0
    assert main(["enumerate", "--n", "10", "--k", "3"]) == 2
    assert "capacity error: enumeration stops at order 9" \
        in capsys.readouterr().err
    for argv in (["enumerate", "--n", "8", "--k", "3", "--force"],
                 ["benchmark", "--n", "6", "--k", "2", "--force"]):
        assert main(argv) == 1
        assert "unrecognized arguments: --force" in capsys.readouterr().err


def test_bits_without_order_is_input_error(capsys):
    assert main(["exact", "--bits", "111"]) == 1


@pytest.mark.parametrize("argv, flag", [
    (["exact", "--bits", "x", "--n", "3", "--json", "-"], "--json"),
    (["certify", "--k", "2", "--bits", "x", "--n", "3", "--json", "-"],
     "--json"),
    (["exact", "--json", "-", "--n", "5"], "--n"),
    (["certify", "--k", "2", "--n", "5"], "--n"),
    (["certify", "--a", "1", "--b", "2", "--scope", "2", "3"], "--scope"),
])
def test_unread_flag_is_input_error_before_the_graph_is_read(
        argv, flag, capsys, monkeypatch):
    # each flag used to be ignored with exit 0; the broken graph shows
    # that the refusal comes first
    feed(monkeypatch, "not a graph")
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert flag in captured.err
    assert "graph JSON" not in captured.err
    assert captured.out == ""


def test_graph_file_that_is_not_text_is_input_error(capsys, tmp_path):
    source = tmp_path / "graph.json"
    source.write_bytes(b"\xff\xfe{")
    assert main(["exact", "--json", str(source)]) == 1
    assert "graph JSON is not text" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["exact"], ["certify", "--k", "2"]])
def test_boolean_order_in_graph_json_is_input_error(command, capsys,
                                                    monkeypatch):
    feed(monkeypatch, '{"n": true, "bits": ""}')
    assert main(command) == 1
    assert "error: field 'n' must be an integer" in capsys.readouterr().err


def test_explore_above_the_maximum_order_is_capacity_error(capsys,
                                                           monkeypatch):
    def unreachable(n):
        raise AssertionError("the refusal must come before any work")

    monkeypatch.setattr(oracle, "nonisomorphic_graphs", unreachable)
    assert main(["explore", "--n-max", "65", "--samples", "1"]) == 2
    captured = capsys.readouterr()
    assert "capacity error" in captured.err
    assert "graphs checked" not in captured.out


def test_solve_refuses_a_large_order_before_any_work(capsys, monkeypatch,
                                                    tmp_path):
    # a random member of order 3000 would take minutes to draw
    def unreachable(rng, length, rate):
        raise AssertionError("the refusal must come before any draw")

    monkeypatch.setattr(evolve, "_bernoulli_mask", unreachable)
    out = tmp_path / "huge"
    assert main(["solve", "--n", "3000", "--k", "2", "--out", str(out)]) == 2
    assert "capacity error: order 3000 exceeds the supported maximum 64" \
        in capsys.readouterr().err
    assert not out.exists()


def test_empty_scope_is_input_error(capsys):
    assert main(["scope", "--n", "4", "--k", "2"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["scope", "--n", "5"],
    ["enumerate", "--n", "5"],
    ["solve", "--n", "5", "--out", "unused"],
    ["certify", "--bits", "1111111111", "--n", "5"],
])
def test_capacity_one_is_refused_by_every_command(argv, capsys):
    # one capacity rule: scope used to print 1..2 and exit 0 at k = 1
    assert main([*argv, "--k", "1"]) == 1
    captured = capsys.readouterr()
    assert "error: capacity k must be at least 2" in captured.err
    assert captured.out == ""


def test_certify_refuses_capacity_one_before_any_search(capsys,
                                                      monkeypatch):
    # C40 passes the node budget: searching first used to exit 2
    def unreachable(*args):
        raise AssertionError("the capacity rule must come before a search")

    monkeypatch.setattr(factors, "exact_variant_value", unreachable)
    monkeypatch.setattr(factors, "exact_variant_above", unreachable)
    feed(monkeypatch, graph_to_json_text(cycle(40)))
    assert main(["certify", "--k", "1"]) == 1
    assert "error: capacity k must be at least 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["enumerate", "--n", "6", "--k", "2", "--scope", "4", "2"],
    ["enumerate", "--n", "6", "--k", "2", "--scope", "1", "3"],
    ["certify", "--bits", "111111", "--n", "4", "--k", "2",
     "--scope", "5", "1"],
])
def test_explicit_scope_out_of_range_is_input_error(capsys, argv):
    # an explicit scope must satisfy k <= lo <= hi <= n - 1
    assert main(argv) == 1
    assert "lo <= hi" in capsys.readouterr().err


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_solve_refuses_an_unusable_out_before_the_search(under, capsys,
                                                         monkeypatch,
                                                         tmp_path):
    # --out names a file, or a path under one: the search, seconds long
    # at larger orders, must not run first
    def unreachable(config):
        raise AssertionError("the search ran before --out was made")

    monkeypatch.setattr(cli, "run_solver", unreachable)
    taken = tmp_path / "taken"
    taken.write_text("kept")
    out = taken / "run" if under else taken
    assert main(["solve", "--n", "16", "--k", "3", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert taken.read_text() == "kept"


def test_solve_rejects_out_of_range_scope_before_searching(capsys, tmp_path):
    out = tmp_path / "run"
    assert main(["solve", "--n", "7", "--k", "2", "--scope", "5", "2",
                 "--out", str(out)]) == 1
    assert "lo <= hi" in capsys.readouterr().err
    assert not out.exists()


# ----- scope ----------------------------------------------------------------

def test_scope_output(capsys):
    assert main(["scope", "--n", "15", "--k", "2"]) == 0
    assert capsys.readouterr().out == "2..7\n"
    assert main(["scope", "--n", "9", "--k", "4"]) == 0
    assert capsys.readouterr().out == "4..8\n"


# ----- exact ----------------------------------------------------------------

def test_exact_worked_example(capsys):
    assert main(["exact", "--bits", "1111010010", "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert "delta = 2" in out
    assert "I = 3/2" in out
    assert "I' = 3/1" in out
    minimizer_lines = [line for line in out.splitlines()
                       if "minimizer" in line]
    assert minimizer_lines
    assert all(line.endswith("leaves 2 isolated")
               for line in minimizer_lines)


def test_exact_reads_stdin_by_default(capsys, monkeypatch):
    feed(monkeypatch, graph_to_json_text(star(5)))
    assert main(["exact"]) == 0
    out = capsys.readouterr().out
    assert "I = 1/4" in out
    assert "I' = 1/3" in out


def test_exact_reads_json_file(capsys, tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(graph_to_json_text(star(6)))
    assert main(["exact", "--json", str(path)]) == 0
    assert "I = 1/5" in capsys.readouterr().out


# ----- family ---------------------------------------------------------------

def test_family_emits_parseable_json(capsys):
    assert main(["family", "counterexample", "--k", "2", "--t", "0"]) == 0
    g = graph_from_json(capsys.readouterr().out)
    assert g == counterexample_family(2, 0)


def test_family_dot_format(capsys):
    assert main(["family", "complete", "--n", "3", "--format", "dot"]) == 0
    assert capsys.readouterr().out.startswith("graph")


def test_family_writes_file(capsys, tmp_path):
    path = tmp_path / "star.json"
    assert main(["family", "star", "--n", "4", "--out", str(path)]) == 0
    assert "wrote" in capsys.readouterr().out
    assert graph_from_json(path.read_text()) == star(4)


@pytest.mark.parametrize("argv", [["complete", "--n", "30"],
                                  ["star", "--n", "40"],
                                  ["cliques", "--m", "9", "--b", "3"],
                                  ["empty", "--n", "0"],
                                  ["complete", "--n", "0"],
                                  ["cliques", "--m", "20", "--b", "2"]])
def test_family_above_the_exact_order_gate(argv, capsys):
    # above order 24 the engine answers unless its node budget trips, as
    # it does on the order-40 perfect matching; the order-0 graphs have
    # no I': both are written as null
    assert main(["family", *argv]) == 0
    data = json.loads(capsys.readouterr().out)
    expected = {"complete --n 30": "inf", "star --n 40": "1/38",
                "cliques --m 9 --b 3": "9/4"}
    assert data["i_prime"] == expected.get(" ".join(argv))


def test_family_writes_null_when_the_budget_trips(capsys, monkeypatch):
    monkeypatch.setattr("isotough.toughness.NODE_BUDGET", 100)
    assert main(["family", "cliques", "--m", "6", "--b", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["i_prime"] is None


def test_family_missing_parameter(capsys):
    assert main(["family", "counterexample", "--k", "2"]) == 1
    assert "--t" in capsys.readouterr().err


def test_family_alias_flags(capsys):
    assert main(["family", "extremal", "--capacity", "2", "--copies",
                 "3"]) == 0
    first = capsys.readouterr().out
    assert main(["family", "extremal", "--k", "2", "--l", "3"]) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("argv, g", [
    (["complete", "--n", "5"], complete(5)),
    (["empty", "--n", "4"], empty_graph(4)),
    (["empty", "--n", "0"], empty_graph(0)),
    (["star", "--n", "6"], star(6)),
    (["cliques", "--m", "3", "--b", "2"], disjoint_cliques(3, 2)),
    (["clique-singles", "--c", "2", "--d", "3"], clique_join_singles(2, 3)),
    (["clique-blocks", "--c", "1", "--m", "2", "--b", "3"],
     clique_join_blocks(1, 2, 3)),
    (["extremal", "--k", "2", "--l", "3"], extremal_family(2, 3)),
    (["counterexample", "--k", "2", "--t", "1"], counterexample_family(2, 1)),
], ids=lambda value: " ".join(value) if isinstance(value, list) else "")
def test_family_json_is_the_indented_dump(argv, g, capsys):
    # the text writer must emit what json.dumps(indent=2) emits
    assert main(["family", *argv, "--format", "json"]) == 0
    text = capsys.readouterr().out
    i_prime = format_ratio(exact_variant_value(g)) if g.n else None
    assert text == json.dumps(graph_to_json(g, i_prime), indent=2) + "\n"
    if g.n == 0:
        assert '"i_prime": null' in text


# each family kind's flags in order: every name of each, and a small value
FAMILY_FLAGS = {
    "complete": [(("--n", "--sites"), 5)],
    "empty": [(("--n", "--sites"), 4)],
    "star": [(("--n", "--sites"), 6)],
    "cliques": [(("--l", "--m", "--copies"), 3), (("--b", "--block"), 2)],
    "clique-singles": [(("--c", "--core"), 2), (("--d", "--singles"), 3)],
    "clique-blocks": [(("--c", "--core"), 1), (("--l", "--m", "--copies"), 2),
                      (("--b", "--block"), 3)],
    "extremal": [(("--k", "--capacity"), 2), (("--l", "--m", "--copies"), 3)],
    "counterexample": [(("--k", "--capacity"), 2), (("--t", "--surplus"), 1)],
}


def family_argv(kind, names=None, skip=None):
    """`family kind` with each flag under the given name (default: the
    first), leaving out the flag at index skip."""
    flags = FAMILY_FLAGS[kind]
    names = names or [aliases[0] for aliases, _ in flags]
    argv = ["family", kind]
    for index, (name, (_, value)) in enumerate(zip(names, flags)):
        if index != skip:
            argv += [name, str(value)]
    return argv


@pytest.mark.parametrize("kind", FAMILY_FLAGS)
def test_family_refuses_the_flags_of_other_kinds(kind, capsys):
    # cliques against clique-singles' --c also checks that no kind reads
    # a prefix: --c would be taken for --copies
    read = {name for aliases, _ in FAMILY_FLAGS[kind] for name in aliases}
    for other, flags in FAMILY_FLAGS.items():
        foreign = [aliases[0] for aliases, _ in flags
                   if aliases[0] not in read]
        if other == kind or not foreign:
            continue
        assert main(family_argv(kind) + [foreign[0], "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {foreign[0]} 3" in captured.err


@pytest.mark.parametrize("kind", FAMILY_FLAGS)
def test_family_aliases_give_the_same_json(kind, capsys):
    texts = set()
    for names in itertools.product(
            *(aliases for aliases, _ in FAMILY_FLAGS[kind])):
        assert main(family_argv(kind, names)) == 0
        texts.add(capsys.readouterr().out)
    assert len(texts) == 1
    graph_from_json(texts.pop())


@pytest.mark.parametrize("kind", FAMILY_FLAGS)
def test_family_names_each_missing_flag(kind, capsys):
    for index, (aliases, _) in enumerate(FAMILY_FLAGS[kind]):
        assert main(family_argv(kind, skip=index)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the following arguments are required: " + "/".join(aliases) \
            in captured.err


def test_family_flag_before_the_kind_is_usage_error(capsys):
    assert main(["family", "--n", "4", "star"]) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["solve", "--n", "7", "--k", "2", "--out", "unused", "--bits", "1"],
    ["exact", "--bits", "111", "--n", "3", "--k", "2"],
    ["enumerate", "--n", "6", "--k", "2", "--seed", "1"],
    ["family", "star", "--n", "4", "--k", "3"],
    ["certify", "--k", "2", "--bits", "111", "--n", "3", "--seed", "1"],
    ["explore", "--n-max", "5", "--k", "2"],
    ["benchmark", "--n", "6", "--k", "2", "--out", "unused"],
    ["scope", "--n", "7", "--k", "2", "--seed", "1"],
], ids=lambda argv: argv[0])
def test_every_subcommand_refuses_a_flag_it_does_not_read(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in captured.err


@pytest.mark.parametrize("argv, prefix", [
    (["solve", "--n", "7", "--k", "2", "--out", "unused", "--m", "0.5"],
     "--m"),
    (["solve", "--n", "7", "--k", "2", "--out", "unused", "--gen", "5"],
     "--gen"),
    (["exact", "--n", "3", "--bit", "111"], "--bit"),
    (["enumerate", "--n", "6", "--k", "2", "--sco", "2", "3"], "--sco"),
    (["family", "star", "--n", "4", "--form", "dot"], "--form"),
    (["certify", "--k", "2", "--bits", "111", "--n", "3", "--show"],
     "--show"),
    (["explore", "--n", "3"], "--n"),
    (["benchmark", "--n", "6", "--k", "2", "--run", "2"], "--run"),
    (["scope", "--n", "7", "--k", "2", "--capa", "3"], "--capa"),
], ids=lambda value: value[0] if isinstance(value, list) else value)
def test_no_subcommand_reads_a_prefix_of_a_flag(argv, prefix, capsys):
    # a prefix is not read as the flag it starts: --m is not
    # --mutation-rate, --n is not --n-max
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    tail = " ".join(argv[argv.index(prefix):])
    assert f"unrecognized arguments: {tail}" in captured.err


# ----- certify --------------------------------------------------------------

def test_boundary_family_pipe(capsys, monkeypatch):
    assert main(["family", "counterexample", "--k", "2", "--t", "0"]) == 0
    emitted = capsys.readouterr().out
    feed(monkeypatch, emitted)
    assert main(["certify", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "delta = 2" in out
    assert "bound = 3/1" in out
    assert "I' = 3/1" in out
    assert "accepted = no (value-not-above-bound)" in out
    assert "no fractional 2-factor" in out


def test_certify_accepted_graph(capsys, monkeypatch):
    feed(monkeypatch, graph_to_json_text(cycle(5)))
    assert main(["certify", "--k", "2", "--scope", "2", "4"]) == 0
    out = capsys.readouterr().out
    # a cycle has I' = 1, below the bound, yet still carries a 2-factor
    assert "accepted = no" in out
    assert "fractional 2-factor exists" in out


def test_certify_window_mode(capsys, monkeypatch):
    feed(monkeypatch, graph_to_json_text(cycle(5)))
    assert main(["certify", "--a", "1", "--b", "2"]) == 0
    assert "fractional [1, 2]-factor exists" in capsys.readouterr().out
    feed(monkeypatch, graph_to_json_text(from_edges(3, [])))
    assert main(["certify", "--a", "1", "--b", "1"]) == 0
    assert "no fractional [1, 1]-factor" in capsys.readouterr().out


def test_certify_flag_conflicts(capsys, monkeypatch):
    feed(monkeypatch, graph_to_json_text(cycle(4)))
    assert main(["certify", "--k", "2", "--a", "1", "--b", "2"]) == 1
    feed(monkeypatch, graph_to_json_text(cycle(4)))
    assert main(["certify"]) == 1


def test_certify_window_refuses_show_factor_before_any_work(capsys,
                                                          monkeypatch):
    # only the --k mode prints a factor; the refusal comes before the
    # graph is read, so a broken graph goes unnoticed
    feed(monkeypatch, "not a graph")
    assert main(["certify", "--a", "1", "--b", "1", "--show-factor"]) == 1
    captured = capsys.readouterr()
    assert "error: --show-factor needs --k" in captured.err
    assert captured.out == ""


def test_certify_show_factor_weights_meet_capacity(capsys, monkeypatch):
    feed(monkeypatch, graph_to_json_text(cycle(6)))
    assert main(["certify", "--k", "2", "--scope", "2", "5",
                 "--show-factor"]) == 0
    out = capsys.readouterr().out
    assert "fractional 2-factor exists" in out
    loads = {v: Fraction(0) for v in range(6)}
    for line in out.splitlines():
        hit = re.fullmatch(r"h\((\d+), (\d+)\) = (\S+)", line)
        if hit:
            weight = parse_ratio(hit.group(3))
            loads[int(hit.group(1))] += weight
            loads[int(hit.group(2))] += weight
    assert all(total == 2 for total in loads.values())


# ----- enumerate ------------------------------------------------------------

def test_enumerate_order_six_output(capsys):
    assert main(["enumerate", "--n", "6", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "scope 2..2" in out
    assert "scanned 32768 encodings" in out
    assert "(2, 4/1) witness 100010001110100" in out
    assert "elapsed" in out


def test_enumerate_checks_each_witness_by_flow(capsys, monkeypatch):
    # a witness the flow search cannot certify is a consistency fault
    monkeypatch.setattr(factors, "has_fractional_factor",
                        lambda g, spec: False)
    assert main(["enumerate", "--n", "6", "--k", "2"]) == 4
    captured = capsys.readouterr()
    assert "consistency error: accepted graph lacks a fractional factor" \
        in captured.err
    assert "witness" not in captured.out


def test_enumerate_null_and_infinite_rows(capsys):
    assert main(["enumerate", "--n", "4", "--k", "2",
                 "--scope", "2", "3"]) == 0
    out = capsys.readouterr().out
    assert "(2, Null)" in out
    assert "(3, inf) witness 111111" in out


def test_enumerate_default_window_keeps_the_complete_graph(capsys):
    # at (4, 3) only K4 has minimum degree 3; its infinite value clears
    # the bound 5
    assert main(["enumerate", "--n", "4", "--k", "3"]) == 0
    assert "(3, inf) witness 111111" in capsys.readouterr().out


# ----- explore --------------------------------------------------------------

def test_explore_small_survey(capsys):
    assert main(["explore", "--n-max", "5"]) == 0
    out = capsys.readouterr().out
    assert "orders up to 5 (exhaustive)" in out
    assert "0 violations" in out


def test_explore_counts_graphs_with_differing_cardinality(capsys):
    # at most one example is kept per graph: 311 graphs hold the 1895
    # pairs of different sizes at order 7
    assert main(["explore", "--n-max", "7"]) == 0
    out = capsys.readouterr().out
    assert "minimizer pairs checked: 14165\n" in out
    assert "graphs with differing-cardinality minimizers: 311\n" in out
    assert "differing-cardinality pairs" not in out


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_explore_rejects_unusable_sample_count(samples, capsys):
    assert main(["explore", "--n-max", "10", "--samples", samples]) == 1
    captured = capsys.readouterr()
    assert "samples" in captured.err
    assert "graphs checked" not in captured.out


@pytest.mark.parametrize("flags", [["--samples", "3"], ["--seed", "9"],
                                   ["--samples", "3", "--seed", "9"]])
def test_explore_refuses_sampling_flags_where_it_is_exhaustive(
        flags, capsys, monkeypatch):
    # through order 9 the survey is exhaustive and reads neither flag
    def unreachable(*args, **kwargs):
        raise AssertionError("the refusal must come before the survey")

    monkeypatch.setattr(cli, "explore_minimizers", unreachable)
    for n_max in ("1", "6", "9"):
        assert main(["explore", "--n-max", n_max, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert all(flag in captured.err for flag in flags[::2])


def test_explore_passes_only_the_flags_given(capsys, monkeypatch):
    calls = []

    def survey(n_max, **given):
        calls.append((n_max, given))
        return MinimizerSurvey(n_max, 0, 0, [], 0)

    monkeypatch.setattr(cli, "explore_minimizers", survey)
    for argv in (["--n-max", "6"], ["--n-max", "10", "--seed", "4"],
                 ["--n-max", "11", "--samples", "2", "--seed", "0"]):
        assert main(["explore", *argv]) == 0
    assert calls == [(6, {}), (10, {"seed": 4}),
                     (11, {"samples": 2, "seed": 0})]


@pytest.mark.parametrize("argv", [
    ["solve", "--n", "7", "--k", "2", "--seed", "-1"],
    ["explore", "--n-max", "8", "--seed", "-3"],
    ["explore", "--n-max", "10", "--samples", "1", "--seed", "-3"]])
def test_negative_seed_is_input_error(argv, capsys, tmp_path):
    # at order 8 the survey is exhaustive and reads no seed: that flag is
    # refused before its value is looked at
    out = tmp_path / "run"
    if argv[0] == "solve":
        argv = argv + ["--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    if argv[2] == "8":
        assert "error: --seed: read only when --n-max is above 9" \
            in captured.err
    else:
        assert "seed must be non-negative" in captured.err
    assert "graphs checked" not in captured.out
    assert not out.exists()


# ----- benchmark ------------------------------------------------------------

def test_benchmark_checks_solver_inputs_before_enumerating(capsys,
                                                          monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("enumerated before checking the seed")

    monkeypatch.setattr(oracle, "enumerate_exact", unreachable)
    with pytest.raises(isotough.InputError):
        benchmark(8, 3, seed=-5)
    assert main(["benchmark", "--n", "8", "--k", "3", "--seed", "-5",
                 "--runs", "2"]) == 1
    assert "seed must be non-negative" in capsys.readouterr().err


def test_benchmark_small_run_is_sound(capsys):
    assert main(["benchmark", "--n", "6", "--k", "2", "--runs", "2"]) == 0
    out = capsys.readouterr().out
    assert "runs: 2" in out
    assert "2      4/1     4/1          yes" in out
    assert "sound: yes" in out


# ----- solve ----------------------------------------------------------------

SOLVE_FAST = ["solve", "--n", "7", "--k", "2", "--generations", "15"]


def test_solve_defaults_are_the_solver_defaults():
    parser = build_parser()
    args = parser.parse_args(["solve", "--n", "20", "--k", "3",
                              "--out", "unused"])
    config = SolverConfig(n=20, k=3)
    assert args.population == config.population_size
    assert args.generations == config.generations
    assert args.mutation_rate == config.mutation_rate
    assert not hasattr(args, "counterexample_fraction")
    assert args.seed == config.seed
    assert args.scope is None and config.scope is None
    assert args.exact_verify_limit == config.exact_verify_limit \
        == DEFAULT_EXACT_LIMIT
    bench = parser.parse_args(["benchmark", "--n", "6", "--k", "2"])
    assert bench.seed == DEFAULT_SEED \
        == inspect.signature(benchmark).parameters["seed"].default


@pytest.mark.parametrize("n, code, verified", [(17, 0, True), (25, 3, False)])
def test_solve_verifies_up_to_the_exact_engine_gate(n, code, verified, capsys,
                                                    tmp_path):
    # up to the default verify limit of 24 every record is exact; above
    # it the pseudo-greedy estimate scores candidates and nothing is
    # archived
    out = tmp_path / "run"
    assert main(["solve", "--n", str(n), "--k", "3", "--generations", "5",
                 "--seed", "2", "--out", str(out)]) == code
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    kept = manifest["archive"] if verified else manifest["unverified"]
    dropped = manifest["unverified"] if verified else manifest["archive"]
    assert kept and not dropped
    assert all(record["verified"] is verified for record in kept)


def test_solve_writes_result_files(capsys, tmp_path):
    out = tmp_path / "run"
    assert main(SOLVE_FAST + ["--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "scope 2..3" in printed
    assert "selected" in printed

    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {"config", "generations", "archive",
                             "unverified", "diversified", "optima",
                             "counts", "timings"}
    assert manifest["timings"] is None
    assert manifest["config"]["n"] == 7
    assert manifest["config"]["scope"] == [2, 3]
    assert "threads" not in manifest["config"]
    assert manifest["archive"]
    assert len(manifest["generations"]) == 15

    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == "delta,best_value,count"
    assert len(lines) == 3  # header plus one row per degree in scope

    selections = sorted(out.glob("selected-*.json"))
    assert selections
    for path in selections:
        record = json.loads(path.read_text())
        assert {"n", "bits", "edges", "delta", "i_prime"} <= set(record)
        assert path.with_suffix(".dot").exists()


def test_solve_reruns_are_byte_identical(capsys, tmp_path):
    first, second, third = (tmp_path / name for name in ("a", "b", "c"))
    assert main(SOLVE_FAST + ["--out", str(first)]) == 0
    assert main(SOLVE_FAST + ["--out", str(second)]) == 0
    assert main(SOLVE_FAST + ["--out", str(third)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    assert names == sorted(p.name for p in third.iterdir())
    for name in names:
        reference = (first / name).read_bytes()
        assert (second / name).read_bytes() == reference
        assert (third / name).read_bytes() == reference


def test_solve_into_a_used_directory_leaves_only_its_own_files(
        capsys, tmp_path):
    # the first run selects 10 graphs, the second 2: selected-2..9 of the
    # first run must not outlive it, and no other file is touched
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    second = ["solve", "--n", "7", "--k", "2", "--seed", "4",
              "--generations", "3"]
    assert main(["solve", "--n", "12", "--k", "3", "--seed", "42",
                 "--out", str(reused)]) == 0
    (reused / "notes.txt").write_text("kept")
    (reused / "selected-x.json").write_text("kept")
    assert main(second + ["--out", str(reused)]) == 0
    assert main(second + ["--out", str(fresh)]) == 0
    capsys.readouterr()
    assert (reused / "notes.txt").read_text() == "kept"
    assert (reused / "selected-x.json").read_text() == "kept"
    (reused / "notes.txt").unlink()
    (reused / "selected-x.json").unlink()
    names = sorted(p.name for p in fresh.iterdir())
    assert "selected-1.json" in names and "selected-2.json" not in names
    assert sorted(p.name for p in reused.iterdir()) == names
    for name in names:
        assert (reused / name).read_bytes() == (fresh / name).read_bytes()


# sha256 of every file `solve --n 12 --k 3 --seed 42` writes.  A screening,
# breeding or output change that alters any result changes one of these;
# update them only for an intended change, and log it.  Every draw is a
# random() or getrandbits() call on a per-purpose random.Random stream, and
# CPython's Mersenne Twister keeps both sequences fixed across versions, so
# the files match under every supported Python.
GOLDEN_N12_K3 = {
    "manifest.json":
        "dff69093d667f8c53d834237d136e15a2d05bbc6dcb5310765d9984d5ba84b43",
    "selected-0.dot":
        "6a9f64f7587f25dabef6f05f406150b4f15dd0451109af497ddbf97d9151d14d",
    "selected-0.json":
        "27d523365ae3f2c1419d6ebd77c10e7450102d7069c7b6f64ebcede805c1013c",
    "selected-1.dot":
        "1e4d7ee8066e82cf98133f25580caf8972854f18a724edc67a78d3dd4bf0cf9e",
    "selected-1.json":
        "14b48429adbdbb88be9c68e2438909cbd34f14f2a6cd9f415c93d3f8f22e7d34",
    "selected-2.dot":
        "27df88746d24b8a8dec12c70a71b05ec0d3de30908bb5888ff0e9cf171394fb8",
    "selected-2.json":
        "5936acba9271267a8ac90749c55c993048f0ab8509cf97f92dbebeb80cb6269e",
    "selected-3.dot":
        "76d40d83f4130fa5d24408349a644df40c5710201bbd7d2717fc71688eae4738",
    "selected-3.json":
        "4cc29cad1163d5830ee546f77ba2eaf13a0f71ad5d155c999ebbab09ecdba3d3",
    "selected-4.dot":
        "272c8394d7cd76b4814cc251dcd9366c6fa5f4f494b70478954e99655caed96f",
    "selected-4.json":
        "f2161f7851c06a7c529b069d70efd7783a3a1d9b62fadcc2235035b3f5361973",
    "selected-5.dot":
        "ce3f94a1861706cd3cde8110610779080809e743d38f8440b1d1bd1ebeec0a45",
    "selected-5.json":
        "046bafc7690807a97988d07f7ab385a77ba4f53632008cc3c918d39139b3ad66",
    "selected-6.dot":
        "2cbd478477f871d40764c78810cbd98755fa21d682648b5469d2630759fc6760",
    "selected-6.json":
        "4acf680499285a55301ae1946f8e248db0094cb106959fb340c5aa582cb54679",
    "selected-7.dot":
        "751018178e1f85dc09c0465702b973fdbc3212b1b15bd5ae5746e2dfe51601bb",
    "selected-7.json":
        "7edd1b654b0ca824757f012f33a89a3718ef75169bd74bf5a2349951250b5b5c",
    "selected-8.dot":
        "d7d9c2e5bd712e14a60c8b532141466770c95b7766fd87f248ab255c83a6b25c",
    "selected-8.json":
        "b2cf59f200c3958201f24b41e371418e3752602f7446c119bafe97794fd9447e",
    "selected-9.dot":
        "82dccfa5976218e53e08290dbf41f34496cc38bb76f7fa083b8acaa5278bb50b",
    "selected-9.json":
        "f4ff7954065339a32a0873788805862fb0208ffe0728502f4e1ae00e905db6f2",
    "summary.csv":
        "81df47731230bfaadf77d7db52bef95361d500c91fd42e073fb417a15d48af93",
}


def test_solve_n12_k3_files_match_golden_digests(capsys, tmp_path):
    out = tmp_path / "golden"
    assert main(["solve", "--n", "12", "--k", "3", "--seed", "42",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.iterdir()}
    assert digests == GOLDEN_N12_K3


def test_solve_seed_changes_output(capsys, tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(SOLVE_FAST + ["--out", str(first)]) == 0
    assert main(SOLVE_FAST + ["--out", str(second), "--seed", "7"]) == 0
    capsys.readouterr()
    one = json.loads((first / "manifest.json").read_text())
    two = json.loads((second / "manifest.json").read_text())
    assert one["config"]["seed"] != two["config"]["seed"]


def test_solve_factor_disagreement_exits_four(capsys, tmp_path, monkeypatch):
    # an accepted graph whose fractional k-factor the flow cannot build
    monkeypatch.setattr("isotough.factors.has_fractional_factor",
                        lambda g, spec: False)
    assert main(SOLVE_FAST + ["--out", str(tmp_path / "run")]) == 4
    captured = capsys.readouterr()
    assert "consistency error" in captured.err
    assert "lacks a fractional factor" in captured.err


def test_library_value_error_mid_solve_exits_four(capsys, tmp_path,
                                                 monkeypatch):
    # a ValueError that is not an InputError is a fault of the library,
    # not bad input: it must not exit 1
    def broken(g, k, scope, value=None):
        raise ValueError("decision broke")

    monkeypatch.setattr("isotough.evolve.requirement_check", broken)
    assert main(SOLVE_FAST + ["--out", str(tmp_path / "run")]) == 4
    assert "internal error: decision broke" in capsys.readouterr().err


@pytest.mark.parametrize("call", [
    lambda: SolverConfig(n=3, k=2),
    lambda: SolverConfig(n=7, k=2, seed=-1),
    lambda: isotough.FactorSpec(0, 1),
    lambda: delta_scope(0, 2),
    lambda: delta_scope(4, 2),
    lambda: isotough.requirement_check(complete(4), 1, (1, 3)),
    lambda: isotough.enumerate_exact(1, 2),
    lambda: isotough.explore_minimizers(0),
    lambda: benchmark(6, 2, runs=0),
    lambda: star(0),
    lambda: empty_graph(-1),
    lambda: extremal_family(0, 2),
    lambda: isotough.exact_isolated_toughness(empty_graph(0)),
    lambda: isotough.from_bits(3, "12"),
], ids=range(14))
def test_checks_reachable_from_the_command_line_raise_input_error(call):
    with pytest.raises(isotough.InputError):
        call()


def test_negative_exact_verify_limit_is_input_error(capsys, tmp_path):
    # every limit in use passes: the default, perfbench's 18, tests' 6
    for limit in (DEFAULT_EXACT_LIMIT, 18, 6, 0):
        SolverConfig(n=7, k=2, exact_verify_limit=limit)
    with pytest.raises(isotough.InputError):
        SolverConfig(n=7, k=2, exact_verify_limit=-1)
    out = tmp_path / "run"
    assert main(["solve", "--n", "7", "--k", "2", "--exact-verify-limit",
                 "-1", "--out", str(out)]) == 1
    assert "verify limit" in capsys.readouterr().err
    assert not out.exists()


def test_solve_empty_archive_still_writes_manifest(capsys, tmp_path):
    out = tmp_path / "empty"
    code = main(["solve", "--n", "5", "--k", "2", "--generations", "5",
                 "--out", str(out)])
    assert code == 3
    captured = capsys.readouterr()
    assert "empty archive" in captured.err
    assert "Null" in captured.out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["archive"] == []
    assert manifest["diversified"] == []


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n", [5, 7, 9, 12, 17, 25])
def test_solve_files_are_the_indented_dumps(n, seed, capsys, tmp_path):
    # the manifest is written as text: it must be what json.dumps with
    # indent=2 and sorted keys writes for its data, and each selected file
    # what indent=2 writes in insertion order.  Order 5 archives nothing
    # (exit 3); order 25 is above the verify gate, so its records are
    # unverified; the mutation rates exercise float repr.
    k = 2 if n < 9 else 3
    lo, hi = delta_scope(n, k)
    variants = [[], ["--scope", str(lo), str(min(lo + 1, hi)),
                     "--mutation-rate", "0.05"],
                ["--mutation-rate", "1e-05"]]
    unverified = []
    for index, flags in enumerate(variants):
        out = tmp_path / str(index)
        code = main(["solve", "--n", str(n), "--k", str(k), "--seed",
                     str(seed), "--generations", "10", "--out", str(out),
                     *flags])
        capsys.readouterr()
        text = (out / "manifest.json").read_text()
        manifest = json.loads(text)
        assert text == json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        assert code == (0 if manifest["archive"] else 3)
        if n == 5:
            assert code == 3 and manifest["diversified"] == []
        unverified += manifest["unverified"]
        for path in out.glob("selected-*.json"):
            text = path.read_text()
            assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert bool(unverified) == (n == 25)
    assert all(record["verified"] is False for record in unverified)


def test_manifest_sorts_degree_keys_as_strings(capsys, tmp_path):
    # at (23,2), seed 3, a generation accepts degrees on both sides of 10;
    # sorted keys put "10" before "9"
    out = tmp_path / "run"
    assert main(["solve", "--n", "23", "--k", "2", "--seed", "3",
                 "--generations", "10", "--out", str(out)]) == 0
    capsys.readouterr()
    text = (out / "manifest.json").read_text()
    manifest = json.loads(text)
    assert text == json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    assert any(min(map(int, entry["accepted"])) < 10
               <= max(map(int, entry["accepted"]))
               for entry in manifest["generations"] if entry["accepted"])


@pytest.mark.parametrize("argv, code", [
    (SOLVE_FAST, 0),
    (["solve", "--n", "23", "--k", "2", "--seed", "1", "--generations",
      "10"], 0),
    (["solve", "--n", "25", "--k", "3", "--seed", "2", "--generations",
      "5"], 3),
], ids=["7-2", "23-2", "25-3-screened"])
def test_accepted_degrees_are_the_archived_harvests(argv, code, capsys,
                                                    tmp_path):
    # a generation's harvest at degree d is the archive record with that
    # generation and delta d, one for each degree it accepted; above the
    # verify limit nothing is accepted and nothing archived
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == code
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    assert all(set(entry) == {"accepted", "generation", "rejects"}
               for entry in manifest["generations"])
    accepted = sorted((entry["generation"], int(delta))
                      for entry in manifest["generations"]
                      for delta in entry["accepted"])
    harvested = sorted((record["generation"], record["delta"])
                       for record in manifest["archive"])
    assert accepted == harvested


def test_selected_files_reingest_consistently(capsys, tmp_path, monkeypatch):
    out = tmp_path / "run"
    assert main(SOLVE_FAST + ["--out", str(out)]) == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    archived = {record["bits"]: record for record in manifest["archive"]}
    assert manifest["diversified"]
    for rank, bits in enumerate(manifest["diversified"]):
        path = out / f"selected-{rank}.json"
        entry = json.loads(path.read_text())
        assert entry["bits"] == bits
        assert entry["delta"] == archived[bits]["delta"]
        assert entry["i_prime"] == archived[bits]["value"]
        assert main(["exact", "--json", str(path)]) == 0
        shown = capsys.readouterr().out
        assert f"delta = {entry['delta']}" in shown
        assert f"I' = {entry['i_prime']}" in shown


# ----- the parser ------------------------------------------------------------

def test_main_builds_its_parser_once(capsys, monkeypatch):
    assert main(["scope", "--n", "7", "--k", "2"]) == 0

    def rebuilt():
        raise AssertionError("main built a second parser")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    assert main(["scope", "--n", "9", "--k", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == ["2..3", "2..4"]


def test_usage_error_then_valid_call(capsys):
    assert main(["scope", "--n", "7"]) == 1
    assert "--k" in capsys.readouterr().err
    assert main(["scope", "--n", "7", "--k", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "2..3\n" and captured.err == ""


def test_parsed_state_stays_per_call(capsys, tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(SOLVE_FAST + ["--seed", "5", "--scope", "3", "3",
                              "--out", str(first)]) == 0
    assert main(["scope", "--n", "7", "--k", "2"]) == 0
    assert capsys.readouterr().out.endswith("2..3\n")
    assert main(SOLVE_FAST + ["--out", str(second)]) == 0
    capsys.readouterr()
    config = json.loads((second / "manifest.json").read_text())["config"]
    assert config["seed"] == DEFAULT_SEED
    assert config["scope"] == [2, 3]
    assert main(["family", "star", "--n", "4", "--format", "dot"]) == 0
    assert main(["family", "star", "--n", "4"]) == 0
    assert capsys.readouterr().out.split("}\n", 1)[1] \
        == graph_to_json_text(star(4), "1/2")


# ----- runtime dependencies -------------------------------------------------

_WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import isotough
from isotough.cli import main
assert main(["solve", "--n", "7", "--k", "2", "--generations", "5",
             "--out", sys.argv[1]]) == 0
assert main(["explore", "--n-max", "8"]) == 0
assert main(["enumerate", "--n", "6", "--k", "2"]) == 0
"""


def test_package_runs_without_numpy(tmp_path):
    source = str(Path(isotough.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [source, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY,
                           str(tmp_path / "run")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "run" / "manifest.json").exists()
    assert "graphs checked" in done.stdout

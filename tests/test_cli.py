"""Command-line interface: exit codes, output formats, determinism."""

import hashlib
import io
import json
import re
from fractions import Fraction

import pytest

from isotough.cli import main
from isotough.graphs import counterexample_family, from_edges, \
    graph_from_json, graph_to_json_text, star
from isotough.rational import parse_ratio


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


def test_capacity_refusal_exits_two(capsys):
    bits = "0" * (30 * 29 // 2)
    assert main(["exact", "--bits", bits, "--n", "30"]) == 2
    assert "capacity error" in capsys.readouterr().err


def test_enumerate_capacity_refusal(capsys):
    assert main(["enumerate", "--n", "8", "--k", "2"]) == 2


def test_bits_without_order_is_input_error(capsys):
    assert main(["exact", "--bits", "111"]) == 1


def test_empty_scope_is_input_error(capsys):
    assert main(["scope", "--n", "4", "--k", "2"]) == 1
    assert "error" in capsys.readouterr().err


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


def test_family_missing_parameter(capsys):
    assert main(["family", "counterexample", "--k", "2"]) == 1
    assert "--t" in capsys.readouterr().err


def test_family_alias_flags(capsys):
    assert main(["family", "extremal", "--capacity", "2", "--copies",
                 "3"]) == 0
    first = capsys.readouterr().out
    assert main(["family", "extremal", "--k", "2", "--l", "3"]) == 0
    assert capsys.readouterr().out == first


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


# ----- solve ----------------------------------------------------------------

SOLVE_FAST = ["solve", "--n", "7", "--k", "2", "--generations", "15"]


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


# sha256 of every file `solve --n 12 --k 3 --seed 42` writes.  A screening,
# breeding or output change that alters any result changes one of these;
# update them only for an intended change, and log it.
GOLDEN_N12_K3 = {
    "manifest.json":
        "aab0f6984b8d5c847352e8c73708f9104b0e0a49d23ad57d96d50e49ee84c790",
    "selected-0.dot":
        "7f3935b03141cb6cd54894f1b39b2c0c04509a9d3f6c7cb37075a3f528651878",
    "selected-0.json":
        "09d8fb0b41f0867a50867ccf62bb8832ff6556246539b8d85bd4d28623035dfb",
    "selected-1.dot":
        "ff1c38c995e850632e29ad3ce86d06068d2bddd13b31cc7e8fb025bf909a58fd",
    "selected-1.json":
        "bb9735a7356e1ff7c54c9de302ee6601dcfbcef689e22c8839d5ead7f5a67f6a",
    "selected-2.dot":
        "87f707efabd21e8821fab816d97268f6a374ca0a58b1a98d7dd12df2b92ff9cd",
    "selected-2.json":
        "90a54425e8944e5ec5fb24c4cf618db1f8faa9da6a690091f04851a09a25b964",
    "selected-3.dot":
        "1a5e8cb094154ccf18dd062ad0cb0018a2367a99213db3069b7ce5b79e484f33",
    "selected-3.json":
        "b2297760e3354132169df4f81e132d6751dd47f40ed0ee312129d947ec74e106",
    "selected-4.dot":
        "8be50a2356c3bb189c0331c0ab533a11a8b3fde15ecf2f2f92f766220e3baf97",
    "selected-4.json":
        "c4f708575c8271bb854d975e6e1e5a43cb6777c563276fefbbd48990dfdda7a0",
    "selected-5.dot":
        "06a4897a91358b0e79acfd4301a7091ea256e25a81c88f906edac981ac825a7d",
    "selected-5.json":
        "764e6a2653ee921e5b19fc4dd3acfdeb3a5cc433439bfd01a33c268d11b8cc76",
    "selected-6.dot":
        "617e427e0a7e316d50a6367f485b7ec30cabf7dd1de0ca73851d5980f781d0bd",
    "selected-6.json":
        "2cb3e311fbe18d38b51491c67532109bff51c408d62b27f3b4fc59b610326ca3",
    "selected-7.dot":
        "5cdc7586bb99cea7a93128c5b92b96550529ce3505000c3f40e63c0096cb2c7c",
    "selected-7.json":
        "8fb6ce325e468489968f1364dcbbdd274f7d6f1798bd421a944fd653cb565076",
    "selected-8.dot":
        "d08f3f1cbd684cb34b41710dc06ce2416886ee395a85c0176f43f0cf2b9dc96c",
    "selected-8.json":
        "6b61da7ddf411d0442c0bb540d27664ecfe3afc52f352b2f32c7a29a2115f0d3",
    "selected-9.dot":
        "c5a338e7369286a77dfd4c8e09d7118c28714506a3109250ce7ae926b35618f4",
    "selected-9.json":
        "a10b4ee0b8e9216482385f942bf1c02252ef1f9e226daac9554c2b7eba3bfc76",
    "summary.csv":
        "94183f7f6de5afde405ad7fff35a51e1150e70c80be35fee1d9164b1e4020e95",
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


def test_selected_files_reingest_consistently(capsys, tmp_path, monkeypatch):
    out = tmp_path / "run"
    assert main(SOLVE_FAST + ["--out", str(out)]) == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    for rank, entry in enumerate(manifest["diversified"]):
        assert main(["exact", "--json",
                     str(out / f"selected-{rank}.json")]) == 0
        shown = capsys.readouterr().out
        assert f"delta = {entry['delta']}" in shown
        assert f"I' = {entry['i_prime']}" in shown

"""Command-line front end.

Exit codes: 0 success, 1 usage or input errors, 2 capacity refusals (a
work budget or order limit), 3 empty result archive, 4 internal
failures: a tripped consistency check, or a ValueError that is not an
InputError.

Each subcommand declares only the flags it reads, so argparse refuses
any other (exit 1), and no parser takes a prefix of a flag: `explore
--n` is not read as --n-max.  `family` has one subparser per kind.
`explore` refuses --samples and --seed through ENUMERATION_LIMIT, where
it reads neither.

All file outputs are deterministic for identical flags, byte for byte,
whatever the output directory.  Wall-clock timings therefore go to stdout
only, never into files; the manifest keeps a null timings slot.

`solve` renders every result file's text first, then writes each file as
that text, after removing any selected-<rank> file of an earlier run that
it does not write, so its directory ends holding exactly this run's
files.  The JSON files are indent-2 text from graphs.json_text: the
manifest, one dict with sorted keys that records each fact once, and the
selected graphs in graph_to_json's key order.  The argument parser is
built once per process and reused by every main call.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import re
import sys
from pathlib import Path
from typing import Optional

from . import __version__
from .errors import CapacityError, ConsistencyError, EmptyArchiveError, \
    GraphParseError, InputError
from .evolve import DEFAULT_SEED, CandidateRecord, RunResult, SolverConfig, \
    SolverReport, report, run_solver
from .factors import FactorSpec, certify_requirement, delta_scope, \
    fractional_k_factor, has_fractional_factor
from .graphs import Graph, clique_join_blocks, clique_join_singles, complete, \
    counterexample_family, disjoint_cliques, empty_graph, extremal_family, \
    from_bits, graph_from_json, graph_to_dot, graph_to_json_text, \
    json_text, star
from .oracle import ENUMERATION_LIMIT, benchmark, enumerate_exact, \
    explore_minimizers
from .rational import format_ratio
from .toughness import exact_isolated_toughness_pair, exact_variant_value


class _Parser(argparse.ArgumentParser):
    """argparse variant that takes no prefix of a flag and whose usage
    errors exit with status 1; subparsers inherit both."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--bits", help="explicit 0/1 pair string")
    parser.add_argument("--n", "--sites", dest="sites", type=int,
                        help="order, required with --bits")
    parser.add_argument("--json", help="graph JSON file (default: stdin)")


def _load_graph(args: argparse.Namespace) -> Graph:
    """The graph of --bits and --n, else of --json or stdin.  A source
    flag that would go unread is refused before anything is read."""
    if args.bits is not None:
        if args.json is not None:
            raise InputError("give either --bits or --json, not both")
        if args.sites is None:
            raise GraphParseError("--bits needs --n for the order")
        return from_bits(args.sites, args.bits)
    if args.sites is not None:
        raise InputError("--n needs --bits: a JSON graph carries its order")
    try:
        if args.json is not None and args.json != "-":
            text = Path(args.json).read_text()
        else:
            text = sys.stdin.read()
    except UnicodeDecodeError as exc:
        raise GraphParseError(f"graph JSON is not text: {exc.reason}") \
            from exc
    return graph_from_json(text)


# ----- subcommand handlers --------------------------------------------------

def _record(record: CandidateRecord) -> dict:
    """A record as the manifest's archive and unverified lists hold it."""
    return {"bits": record.graph.bits(), "delta": record.delta,
            "generation": record.generation,
            "value": format_ratio(record.value), "verified": record.verified}


def _manifest(result: RunResult, summary: SolverReport) -> dict:
    """manifest.json's data: the run record, each fact once.

    A generation's harvest at degree d is the archive record with that
    generation and delta d; a selected graph's record is its own file.
    """
    return {
        "config": {**dataclasses.asdict(result.config),
                   "scope": list(result.scope)},
        "generations": [
            {"accepted": {str(d): len(records)
                          for d, records in entry.buckets.items()},
             "generation": entry.generation,
             "rejects": entry.rejects}
            for entry in result.generations],
        "archive": [_record(r) for r in result.archive],
        "unverified": [_record(r) for r in result.unverified],
        "diversified": [g.bits() for g in result.diversified.selected],
        "optima": {str(d): None if v is None else format_ratio(v)
                   for d, v in summary.optima.items()},
        "counts": {str(d): c for d, c in summary.counts.items()},
        "timings": None,
    }


def _result_files(result: RunResult, summary: SolverReport
                  ) -> dict[str, str]:
    """Every file `solve` writes, by name, as text."""
    files = {"manifest.json": json_text(_manifest(result, summary),
                                        sort_keys=True)}
    table = io.StringIO()
    writer = csv.writer(table)  # rows end in \r\n, csv's default
    writer.writerow(["delta", "best_value", "count"])
    for delta in range(result.scope[0], result.scope[1] + 1):
        value = summary.optima[delta]
        writer.writerow([delta,
                         "Null" if value is None else format_ratio(value),
                         summary.counts[delta]])
    files["summary.csv"] = table.getvalue()
    # diversity_enhancement picks only from the archive, so every selected
    # graph has its exact I' here
    values = {r.graph.code: r.value for r in result.archive}
    for rank, g in enumerate(result.diversified.selected):
        files[f"selected-{rank}.json"] = graph_to_json_text(
            g, format_ratio(values[g.code]))
        files[f"selected-{rank}.dot"] = graph_to_dot(g)
    return files


def _cmd_solve(args: argparse.Namespace) -> int:
    scope = tuple(args.scope) if args.scope else None
    config = SolverConfig(
        n=args.sites, k=args.capacity,
        population_size=args.population,
        generations=args.generations,
        mutation_rate=args.mutation_rate,
        seed=args.seed, scope=scope,
        exact_verify_limit=args.exact_verify_limit)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # an unusable --out fails now
    result = run_solver(config)
    summary = report(result)
    files = _result_files(result, summary)
    for stale in out.glob("selected-*"):
        if stale.name not in files \
                and re.fullmatch(r"selected-[0-9]+\.(json|dot)", stale.name):
            stale.unlink()
    for name, text in files.items():
        (out / name).write_text(text, newline="")

    print(f"scope {result.scope[0]}..{result.scope[1]}")
    print(summary.render(), end="")
    print(f"selected {len(result.diversified.selected)} representative(s)")
    print(f"wrote {out}")
    print(f"total {result.timings['total_s']:.2f}s")
    if config.n > config.exact_verify_limit:
        raise EmptyArchiveError(
            f"n={config.n} is above the exact verify limit"
            f" {config.exact_verify_limit}; {len(result.unverified)}"
            f" screened harvest(s) went to unverified")
    if not result.archive:
        raise EmptyArchiveError(
            f"no qualifying graph found for n={config.n}, k={config.k}")
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    plain, variant = exact_isolated_toughness_pair(g)
    print(f"delta = {g.min_degree if g.n else 0}")
    print(f"I = {format_ratio(plain.value)}")
    print(f"I' = {format_ratio(variant.value)}")
    for label, outcome in (("I", plain), ("I'", variant)):
        for subset, isolated in zip(outcome.minimizers, outcome.witness_i):
            shown = "{" + ", ".join(str(v) for v in subset) + "}"
            print(f"{label} minimizer {shown} leaves {isolated} isolated")
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    scope = tuple(args.scope) if args.scope else None
    outcome = enumerate_exact(args.sites, args.capacity, scope)
    print(f"scope {outcome.scope[0]}..{outcome.scope[1]}")
    print(f"scanned {outcome.total_scanned} encodings")
    for delta in range(outcome.scope[0], outcome.scope[1] + 1):
        optimum = outcome.optima[delta]
        if optimum.value is None:
            print(f"({delta}, Null)")
        else:
            print(f"({delta}, {format_ratio(optimum.value)})"
                  f" witness {optimum.witness.bits()}")
    print(f"elapsed {outcome.elapsed_s:.2f}s")
    return 0


# family kind -> (builder, the dests of its arguments, in order)
_FAMILIES = {
    "complete": (complete, ("sites",)),
    "empty": (empty_graph, ("sites",)),
    "star": (star, ("sites",)),
    "cliques": (disjoint_cliques, ("copies", "block")),
    "clique-singles": (clique_join_singles, ("core", "singles")),
    "clique-blocks": (clique_join_blocks, ("core", "copies", "block")),
    "extremal": (extremal_family, ("capacity", "copies")),
    "counterexample": (counterexample_family, ("capacity", "surplus")),
}

# family argument dest -> its flag names
_FAMILY_FLAGS = {
    "sites": ("--n", "--sites"),
    "capacity": ("--k", "--capacity"),
    "surplus": ("--t", "--surplus"),
    "copies": ("--l", "--m", "--copies"),
    "block": ("--b", "--block"),
    "core": ("--c", "--core"),
    "singles": ("--d", "--singles"),
}


def _cmd_family(args: argparse.Namespace) -> int:
    build, dests = _FAMILIES[args.kind]
    g = build(*(getattr(args, dest) for dest in dests))

    if args.format == "dot":
        text = graph_to_dot(g)
    else:  # I' is null at order 0 and when the search passes its budget
        i_prime = None
        if g.n:
            try:
                i_prime = format_ratio(exact_variant_value(g))
            except CapacityError:
                pass
        text = graph_to_json_text(g, i_prime)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    window = (args.lower, args.upper)
    if args.capacity is None and None in window:
        raise InputError("certify needs --k, or both --a and --b")
    if args.capacity is not None and window != (None, None):
        raise InputError("give either --k or the --a/--b window, not both")
    if args.capacity is None and args.show_factor:
        raise InputError("--show-factor needs --k: the --a/--b window"
                         " prints no factor")
    if args.capacity is None and args.scope:
        raise InputError("--scope needs --k: the --a/--b window has no"
                         " degree scope")
    g = _load_graph(args)

    if args.capacity is None:
        spec = FactorSpec(args.lower, args.upper)
        exists = has_fractional_factor(g, spec)
        kind = f"fractional [{spec.a}, {spec.b}]-factor"
        print(f"{kind} exists" if exists else f"no {kind}")
        return 0

    scope = tuple(args.scope) if args.scope else None
    certificate = certify_requirement(g, args.capacity, scope)
    print(f"delta = {certificate.delta}")
    bound = certificate.bound
    print(f"bound = {'Null' if bound is None else format_ratio(bound)}")
    print(f"I' = {format_ratio(certificate.i_prime)}")
    print(f"accepted = {'yes' if certificate.accepted else 'no'}"
          f" ({certificate.reason})")
    kind = f"fractional {certificate.k}-factor"
    print(f"{kind} exists" if certificate.factor_exists else f"no {kind}")
    if args.show_factor and certificate.factor_exists:
        assignment = fractional_k_factor(g, args.capacity)
        for (u, v), weight in sorted(assignment.items()):
            print(f"h({u}, {v}) = {format_ratio(weight)}")
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    given = {name: getattr(args, name) for name in ("samples", "seed")
             if getattr(args, name) is not None}
    if given and args.n_max <= ENUMERATION_LIMIT:
        flags = " and ".join(f"--{name}" for name in given)
        raise InputError(f"{flags}: read only when --n-max is above"
                         f" {ENUMERATION_LIMIT}, where the survey samples")
    survey = explore_minimizers(args.n_max, **given)
    mode = "sampled beyond exhaustive range" if survey.sampled \
        else "exhaustive"
    print(f"orders up to {survey.n_max} ({mode})")
    print(f"graphs checked: {survey.graphs_checked}")
    print(f"minimizer pairs checked: {survey.pairs_checked}")
    print("graphs with differing-cardinality minimizers:"
          f" {survey.differing}")
    print(f"{len(survey.violations)} violations")
    for entry in survey.violations:
        print(f"  n={entry.graph.n} bits={entry.graph.bits()}"
              f" plain={entry.plain_set} (i={entry.plain_isolated})"
              f" variant={entry.variant_set} (i={entry.variant_isolated})")
    if survey.violations:
        raise ConsistencyError(
            f"{len(survey.violations)} minimizer pair(s) break the"
            " cardinality ordering")
    return 0


def _cmd_benchmark(args: argparse.Namespace) -> int:
    outcome = benchmark(args.sites, args.capacity, runs=args.runs,
                        seed=args.seed)
    print(f"machine: {outcome.machine}")
    print(f"runs: {outcome.runs}")
    print("delta  solver  enumeration  agree")
    for delta in sorted(outcome.enumeration_optima):
        solver = outcome.solver_optima.get(delta)
        truth = outcome.enumeration_optima[delta]
        shown_solver = "Null" if solver is None else format_ratio(solver)
        shown_truth = "Null" if truth is None else format_ratio(truth)
        print(f"{delta:<5}  {shown_solver:<6}  {shown_truth:<11}"
              f"  {'yes' if outcome.agreement[delta] else 'no'}")
    print(f"sound: {'yes' if outcome.sound else 'no'}")
    print(f"solver avg {outcome.solver_avg_s:.2f}s per run,"
          f" enumeration {outcome.enumeration_s:.2f}s")
    return 0


def _cmd_scope(args: argparse.Namespace) -> int:
    lo, hi = delta_scope(args.sites, args.capacity)
    print(f"{lo}..{hi}")
    return 0


# ----- parser wiring --------------------------------------------------------

def _instance_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", "--sites", dest="sites", type=int,
                        required=True, help="number of sites (order)")
    parser.add_argument("--k", "--capacity", dest="capacity", type=int,
                        required=True, help="per-site capacity")


def build_parser() -> _Parser:
    parser = _Parser(prog="isotough",
                     description="Evolve, verify and diversify network"
                                 " topologies meeting an isolated-toughness"
                                 " requirement.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="run the evolutionary search")
    _instance_flags(solve)
    solve.add_argument("--population", type=int,
                       default=SolverConfig.population_size)
    solve.add_argument("--generations", type=int,
                       default=SolverConfig.generations)
    solve.add_argument("--mutation-rate", type=float,
                       default=SolverConfig.mutation_rate)
    solve.add_argument("--seed", type=int, default=SolverConfig.seed)
    solve.add_argument("--scope", type=int, nargs=2, metavar=("LO", "HI"))
    solve.add_argument("--exact-verify-limit", type=int,
                       default=SolverConfig.exact_verify_limit)
    solve.add_argument("--out", required=True,
                       help="directory for result files")
    solve.set_defaults(handler=_cmd_solve)

    exact = commands.add_parser(
        "exact", help="exact parameters and minimizers of a single graph")
    _add_graph_source(exact)
    exact.set_defaults(handler=_cmd_exact)

    enum = commands.add_parser("enumerate",
                               help="exhaustive per-degree optima")
    _instance_flags(enum)
    enum.add_argument("--scope", type=int, nargs=2, metavar=("LO", "HI"))
    enum.set_defaults(handler=_cmd_enumerate)

    family = commands.add_parser("family",
                                 help="emit a named closed-form family")
    kinds = family.add_subparsers(dest="kind", required=True)
    for kind, (_, dests) in _FAMILIES.items():
        each = kinds.add_parser(kind)
        for dest in dests:
            each.add_argument(*_FAMILY_FLAGS[dest], dest=dest, type=int,
                              required=True)
        each.add_argument("--format", choices=("json", "dot"), default="json")
        each.add_argument("--out", help="write to a file instead of stdout")
    family.set_defaults(handler=_cmd_family)

    certify = commands.add_parser(
        "certify", help="exact requirement check plus factor cross-check")
    _add_graph_source(certify)
    certify.add_argument("--k", "--capacity", dest="capacity", type=int,
                         help="per-site capacity")
    certify.add_argument("--a", dest="lower", type=int,
                         help="window lower bound (factor-only check)")
    certify.add_argument("--b", dest="upper", type=int,
                         help="window upper bound (factor-only check)")
    certify.add_argument("--scope", type=int, nargs=2, metavar=("LO", "HI"))
    certify.add_argument("--show-factor", action="store_true",
                         help="print a concrete fractional factor")
    certify.set_defaults(handler=_cmd_certify)

    explore = commands.add_parser(
        "explore", help="survey minimizer cardinalities of both parameters")
    explore.add_argument("--n-max", "--max-order", dest="n_max", type=int,
                         default=7)
    explore.add_argument("--samples", type=int)
    explore.add_argument("--seed", type=int)
    explore.set_defaults(handler=_cmd_explore)

    bench = commands.add_parser(
        "benchmark", help="solver quality and runtime against enumeration")
    _instance_flags(bench)
    bench.add_argument("--runs", type=int, default=10)
    bench.add_argument("--seed", type=int, default=DEFAULT_SEED)
    bench.set_defaults(handler=_cmd_benchmark)

    scope = commands.add_parser(
        "scope", help="minimum-degree interval for given order and capacity")
    _instance_flags(scope)
    scope.set_defaults(handler=_cmd_scope)

    return parser


@functools.cache
def _parser() -> _Parser:
    # Built once per process: parse_args keeps no state between calls and
    # returns a fresh namespace each time.
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.handler(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 2
    except EmptyArchiveError as exc:
        print(f"empty archive: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"consistency error: {exc}", file=sys.stderr)
        return 4
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # a library fault, not the caller's input
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()

"""Command-line front end.

Exit codes: 0 success, 1 usage or input errors, 2 capacity refusals,
3 empty result archive, 4 internal consistency failures.

All file outputs are deterministic for identical flags, byte for byte,
whatever the output directory.  Wall-clock timings therefore go to stdout
only, never into files; the manifest keeps a null timings slot.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import Optional

from .errors import CapacityError, ConsistencyError, EmptyArchiveError, \
    GraphParseError, ScopeError
from .evolve import RunResult, SolverConfig, report, run_solver
from .factors import FactorSpec, certify_requirement, delta_scope, \
    fractional_k_factor, has_fractional_factor
from .graphs import Graph, clique_join_blocks, clique_join_singles, complete, \
    counterexample_family, disjoint_cliques, empty_graph, extremal_family, \
    from_bits, graph_from_json, graph_to_dot, graph_to_json, \
    graph_to_json_text, star
from .oracle import benchmark, enumerate_exact, explore_minimizers
from .rational import format_ratio
from .toughness import DEFAULT_EXACT_LIMIT, exact_isolated_toughness, \
    exact_isolated_toughness_variant

_VERSION = "0.1.0"


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--bits", help="explicit 0/1 pair string")
    parser.add_argument("--json", help="graph JSON file (default: stdin)")


def _load_graph(args: argparse.Namespace) -> Graph:
    if args.bits is not None:
        if getattr(args, "sites", None) is None:
            raise GraphParseError("--bits needs --n for the order")
        return from_bits(args.sites, args.bits)
    if args.json is not None and args.json != "-":
        text = Path(args.json).read_text()
    else:
        text = sys.stdin.read()
    return graph_from_json(text)


# ----- subcommand handlers --------------------------------------------------

def _record_json(record) -> dict:
    return {
        "generation": record.generation,
        "delta": record.delta,
        "value": format_ratio(record.value),
        "verified": record.verified,
        "bits": record.graph.bits(),
    }


def _manifest(result: RunResult, summary) -> dict:
    config = result.config
    generations = []
    for entry in result.generations:
        generations.append({
            "generation": entry.generation,
            "accepted": {str(d): len(records)
                         for d, records in sorted(entry.buckets.items())},
            "harvested": {str(d): _record_json(r)
                          for d, r in sorted(entry.harvested.items())},
            "screening_rejects": entry.screening_rejects,
            "false_positives": entry.false_positives,
        })
    values = {r.graph.code: r.value for r in result.archive}
    diversified = []
    for g in result.diversified.selected:
        i_prime = format_ratio(values[g.code]) if g.code in values else None
        diversified.append(graph_to_json(g, i_prime))
    return {
        "config": {
            "n": config.n,
            "k": config.k,
            "population_size": config.population_size,
            "generations": config.generations,
            "mutation_rate": config.mutation_rate,
            "counterexample_fraction": config.counterexample_fraction,
            "seed": config.seed,
            "scope": list(result.scope),
            "exact_verify_limit": config.exact_verify_limit,
        },
        "generations": generations,
        "archive": [_record_json(r) for r in result.archive],
        "unverified": [_record_json(r) for r in result.unverified],
        "diversified": diversified,
        "optima": {str(d): None if v is None else format_ratio(v)
                   for d, v in summary.optima.items()},
        "counts": {str(d): c for d, c in summary.counts.items()},
        "timings": None,
    }


def _cmd_solve(args: argparse.Namespace) -> int:
    scope = tuple(args.scope) if args.scope else None
    config = SolverConfig(
        n=args.sites, k=args.capacity,
        population_size=args.population,
        generations=args.generations,
        mutation_rate=args.mutation_rate,
        counterexample_fraction=args.counterexample_fraction,
        seed=args.seed, scope=scope,
        exact_verify_limit=args.exact_verify_limit)
    result = run_solver(config)
    summary = report(result)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").write_text(
        json.dumps(_manifest(result, summary), indent=2, sort_keys=True)
        + "\n")

    with (out / "summary.csv").open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["delta", "best_value", "count"])
        for delta in range(result.scope[0], result.scope[1] + 1):
            value = summary.optima[delta]
            writer.writerow([delta,
                             "Null" if value is None else format_ratio(value),
                             summary.counts[delta]])

    values = {r.graph.code: r.value for r in result.archive}
    for rank, g in enumerate(result.diversified.selected):
        i_prime = format_ratio(values[g.code]) if g.code in values else None
        (out / f"selected-{rank}.json").write_text(
            graph_to_json_text(g, i_prime))
        (out / f"selected-{rank}.dot").write_text(graph_to_dot(g))

    print(f"scope {result.scope[0]}..{result.scope[1]}")
    print(summary.render(), end="")
    print(f"selected {len(result.diversified.selected)} representative(s)")
    print(f"wrote {out}")
    print(f"total {result.timings['total_s']:.2f}s")
    if not result.archive:
        raise EmptyArchiveError(
            f"no qualifying graph found for n={config.n}, k={config.k}")
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    plain = exact_isolated_toughness(g, limit=args.limit)
    variant = exact_isolated_toughness_variant(g, limit=args.limit)
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
    outcome = enumerate_exact(args.sites, args.capacity, scope,
                              force=args.force)
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


def _require(args: argparse.Namespace, pairs: list[tuple[str, str]],
             kind: str) -> list:
    values = []
    for attribute, flag in pairs:
        value = getattr(args, attribute)
        if value is None:
            raise ValueError(f"family kind {kind!r} needs --{flag}")
        values.append(value)
    return values


def _cmd_family(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind in ("complete", "empty", "star"):
        (n,) = _require(args, [("sites", "n")], kind)
        g = {"complete": complete, "empty": empty_graph, "star": star}[kind](n)
    elif kind == "cliques":
        m, b = _require(args, [("copies", "m"), ("block", "b")], kind)
        g = disjoint_cliques(m, b)
    elif kind == "clique-singles":
        c, d = _require(args, [("core", "c"), ("singles", "d")], kind)
        g = clique_join_singles(c, d)
    elif kind == "clique-blocks":
        c, m, b = _require(args, [("core", "c"), ("copies", "m"),
                                  ("block", "b")], kind)
        g = clique_join_blocks(c, m, b)
    elif kind == "extremal":
        k, m = _require(args, [("capacity", "k"), ("copies", "l")], kind)
        g = extremal_family(k, m)
    else:  # counterexample
        k, t = _require(args, [("capacity", "k"), ("surplus", "t")], kind)
        g = counterexample_family(k, t)

    text = graph_to_dot(g) if args.format == "dot" else graph_to_json_text(g)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    window = (args.lower, args.upper)
    if args.capacity is None and None in window:
        raise ValueError("certify needs --k, or both --a and --b")
    if args.capacity is not None and window != (None, None):
        raise ValueError("give either --k or the --a/--b window, not both")

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
    survey = explore_minimizers(args.n_max, samples=args.samples,
                                seed=args.seed)
    mode = "sampled beyond exhaustive range" if survey.sampled \
        else "exhaustive"
    print(f"orders up to {survey.n_max} ({mode})")
    print(f"graphs checked: {survey.graphs_checked}")
    print(f"minimizer pairs checked: {survey.pairs_checked}")
    print(f"differing-cardinality pairs: {len(survey.differing_examples)}")
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
                        seed=args.seed, force=args.force)
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

def _instance_flags(parser: argparse.ArgumentParser,
                    required: bool = True) -> None:
    parser.add_argument("--n", "--sites", dest="sites", type=int,
                        required=required, help="number of sites (order)")
    parser.add_argument("--k", "--capacity", dest="capacity", type=int,
                        required=required, help="per-site capacity")


def build_parser() -> _Parser:
    parser = _Parser(prog="isotough",
                     description="Evolve, verify and diversify network"
                                 " topologies meeting an isolated-toughness"
                                 " requirement.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {_VERSION}")
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="run the evolutionary search")
    _instance_flags(solve)
    solve.add_argument("--population", type=int, default=10)
    solve.add_argument("--generations", type=int, default=100)
    solve.add_argument("--mutation-rate", type=float, default=0.3)
    solve.add_argument("--counterexample-fraction", type=float, default=0.5)
    solve.add_argument("--seed", type=int, default=42)
    solve.add_argument("--scope", type=int, nargs=2, metavar=("LO", "HI"))
    solve.add_argument("--exact-verify-limit", type=int, default=16)
    solve.add_argument("--out", required=True,
                       help="directory for result files")
    solve.set_defaults(handler=_cmd_solve)

    exact = commands.add_parser(
        "exact", help="exact parameters and minimizers of a single graph")
    _add_graph_source(exact)
    exact.add_argument("--n", "--sites", dest="sites", type=int,
                       help="order, required with --bits")
    exact.add_argument("--limit", type=int, default=DEFAULT_EXACT_LIMIT)
    exact.set_defaults(handler=_cmd_exact)

    enum = commands.add_parser("enumerate",
                               help="exhaustive per-degree optima")
    _instance_flags(enum)
    enum.add_argument("--scope", type=int, nargs=2, metavar=("LO", "HI"))
    enum.add_argument("--force", action="store_true",
                      help="enumerate past the default order limit")
    enum.set_defaults(handler=_cmd_enumerate)

    family = commands.add_parser("family",
                                 help="emit a named closed-form family")
    family.add_argument("kind", choices=("complete", "empty", "star",
                                         "cliques", "clique-singles",
                                         "clique-blocks", "extremal",
                                         "counterexample"))
    family.add_argument("--n", "--sites", dest="sites", type=int,
                        help="order, for complete/empty/star")
    family.add_argument("--k", "--capacity", dest="capacity", type=int,
                        help="per-site capacity (clique block order)")
    family.add_argument("--t", "--surplus", dest="surplus", type=int,
                        help="degree surplus above the capacity")
    family.add_argument("--l", "--m", "--copies", dest="copies", type=int,
                        help="number of clique blocks")
    family.add_argument("--b", "--block", dest="block", type=int,
                        help="block order")
    family.add_argument("--c", "--core", dest="core", type=int,
                        help="joined clique order")
    family.add_argument("--d", "--singles", dest="singles", type=int,
                        help="number of isolated vertices joined")
    family.add_argument("--format", choices=("json", "dot"), default="json")
    family.add_argument("--out", help="write to a file instead of stdout")
    family.set_defaults(handler=_cmd_family)

    certify = commands.add_parser(
        "certify", help="exact requirement check plus factor cross-check")
    _add_graph_source(certify)
    certify.add_argument("--n", "--sites", dest="sites", type=int,
                         help="order, required with --bits")
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
    explore.add_argument("--samples", type=int, default=200)
    explore.add_argument("--seed", type=int, default=0)
    explore.set_defaults(handler=_cmd_explore)

    bench = commands.add_parser(
        "benchmark", help="solver quality and runtime against enumeration")
    _instance_flags(bench)
    bench.add_argument("--runs", type=int, default=10)
    bench.add_argument("--seed", type=int, default=42)
    bench.add_argument("--force", action="store_true")
    bench.set_defaults(handler=_cmd_benchmark)

    scope = commands.add_parser(
        "scope", help="minimum-degree interval for given order and capacity")
    _instance_flags(scope)
    scope.set_defaults(handler=_cmd_scope)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
    except (GraphParseError, ScopeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()

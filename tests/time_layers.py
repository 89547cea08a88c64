"""Time isotough layer by layer: the parts of a solve, a census pass, and
one table of per-graph routes.  Standard library only.

    PYTHONPATH=src python tests/time_layers.py [SEEDS [ORDER]]

Solves.  Each of the benchmark's six solve inputs (INPUTS) runs through
`cli.main` at seed 0 untimed, then at seeds 1..SEEDS (default 5).  A probe
over `cli.run_solver`, `cli._result_files`, `evolve.canonical_form` and
`evolve._next_population` prints the median ms per solve of each part:
main (the whole call), solver (`run_solver`), canonical (the labels the
diversity step takes, inside the solver: only archived graphs whose
sorted degree sequence another archived graph shares), breed (inside the
solver: `_next_population`, the crossover and mutation of every
generation's offspring), render (every
result file's text, no I/O), write (render return to main return:
creating the files, then the lines printed) and parser (main start to
solver start).  At seeds 0..SEEDS it also records each distinct encoding
a generation decides and each one the diversity step labels (keyed).

Census.  The benchmark's census pass at ORDER (default 7, at most
oracle.ENUMERATION_LIMIT, 9): enumerate_exact(ORDER, 2) and (ORDER, 3), and
explore_minimizers(ORDER), exhaustive at every such order.  One first class
build from an empty cache is timed, and the extensions it labels are
counted per order, one per call to canonical_code.  Then, per step and
per pass, in seconds: the first pass after that build (cold: it decodes
the classes of order ORDER) beside the median of the ten passes after it
(warm: the classes are decoded, so only the searches remain).  Below each
enumerate_exact step, a row gives the part of it spent in the min-code
witness search over the tied classes (oracle._min_code), whose witness
cache (oracle._witness, one per tied set) is emptied with the class
cache: cold is the first search of each tied set, warm only the lookups
of the witnesses cached by then.

Routes.  Each row of ROUTES is timed as the fastest of five runs over a
group of graphs already decoded, in us per graph, on each solve input's
decided graphs and on the classes of order ORDER at k = 2:

- decode: `Graph(n, code)` with adjacency and degrees, paid once per new
  candidate (so no other route includes it);
- decide: `requirement_check`, over all graphs, then over those it rejects
  by degree (no search), rejects by value and accepts;
- full: `exact_isolated_toughness_pair`: both parameters' values,
  minimizers and witnesses from one search, as `exact` takes them (the
  survey runs the same search and reads its masks without building the
  results);
- value: `exact_variant_value`: I' alone, no minimizers, as certify, graph
  JSON and a solve generation with no passer take it;
- screen: one pseudo-greedy screen, drawing from `random.Random(0)`;
- canonical: `canonical_form`, over the graphs keyed, those the diversity
  step labels (for the classes, all; '-' where a solve labels none);
- flow: `has_fractional_factor(g, FactorSpec.k_factor(k))`.

Each column also gives its counts, its share of each decision and the
full/decide ratio.  A new layer is one more row of ROUTES.
"""

import contextlib
import io
import random
import statistics
import sys
import tempfile
import time
from collections import Counter
from functools import partial
from pathlib import Path

from isotough import cli, evolve, oracle
from isotough.canonical import canonical_form
from isotough.factors import FactorSpec, delta_scope, \
    has_fractional_factor, requirement_check
from isotough.graphs import Graph
from isotough.oracle import enumerate_exact, explore_minimizers, \
    nonisomorphic_graphs
from isotough.toughness import exact_isolated_toughness_pair, \
    exact_variant_value, pseudo_greedy_estimate

# (n, k, flags) of the benchmark's SCREEN_CASES + VERIFY_CASES, copied so
# that the script needs only the standard library; test_time_layers.py
# keeps the copy in step.
INPUTS = (
    (7, 2, ()), (9, 2, ()), (12, 3, ()), (13, 3, ()), (16, 3, ()),
    (18, 3, ("--exact-verify-limit", "18", "--generations", "25")),
)
PARTS = ("main", "solver", "canonical", "breed", "render", "write",
         "parser")
PASSES = 10
# requirement_check's outcomes: group and row label
OUTCOMES = (("degree", "rejected by degree"), ("value", "rejected by value"),
            ("accepted", "accepted"))


def _decide(k, scope):
    return partial(requirement_check, k=k, scope=scope)


# label, group of graphs timed, and a factory (k, scope) -> route on one
# graph, called once per timed run so that the screen draws afresh
ROUTES = (
    ("decode", "decided", lambda k, _: lambda g: Graph(g.n, g.code).degrees),
    ("decide", "decided", _decide),
    *((f"  {label}", group, _decide) for group, label in OUTCOMES),
    ("full", "decided", lambda k, _: exact_isolated_toughness_pair),
    ("value", "decided", lambda k, _: exact_variant_value),
    ("screen", "decided",
     lambda k, _: partial(pseudo_greedy_estimate, rng=random.Random(0))),
    ("canonical", "keyed", lambda k, _: canonical_form),
    ("flow", "decided",
     lambda k, _: partial(has_fractional_factor, spec=FactorSpec.k_factor(k))),
)


def fastest(call, repeats=5):
    """Seconds taken by the fastest of `repeats` calls."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - started)
    return best


class Probe:
    """Timestamps around run_solver and _result_files, running totals of
    canonical_form and _next_population, and the encodings decided (each
    generation reaches _next_population) and keyed, installed over the
    names that cli and evolve look up."""

    def __init__(self):
        self.solver = self.render = (0.0, 0.0)
        self.canonical = self.breed = 0.0
        self.decided, self.keyed = set(), set()
        run_solver, form = cli.run_solver, evolve.canonical_form
        render, breed = cli._result_files, evolve._next_population

        def timed_solver(*args, **kwargs):
            started = time.perf_counter()
            result = run_solver(*args, **kwargs)
            self.solver = (started, time.perf_counter())
            return result

        def timed_render(*args):
            started = time.perf_counter()
            files = render(*args)
            self.render = (started, time.perf_counter())
            return files

        def timed_form(g):
            started = time.perf_counter()
            key = form(g)
            self.canonical += time.perf_counter() - started
            self.keyed.add(g.code)
            return key

        def recording(population, *args):
            self.decided.update(g.code for g in population)
            started = time.perf_counter()
            offspring = breed(population, *args)
            self.breed += time.perf_counter() - started
            return offspring

        cli.run_solver, evolve.canonical_form = timed_solver, timed_form
        cli._result_files = timed_render
        evolve._next_population = recording

    def solve(self, n, k, flags, seed, out):
        """Seconds per part of one `isotough solve`, by part."""
        self.canonical = self.breed = 0.0
        argv = ["solve", "--n", str(n), "--k", str(k), "--seed", str(seed),
                "--out", str(out), *flags]
        with contextlib.redirect_stdout(io.StringIO()):
            started = time.perf_counter()
            code = cli.main(argv)
            ended = time.perf_counter()
        if code != 0:
            raise SystemExit(f"solve {' '.join(argv)} exited {code}")
        begin, end = self.solver
        rendering, rendered = self.render
        return {"main": ended - started, "solver": end - begin,
                "canonical": self.canonical, "breed": self.breed,
                "render": rendered - rendering, "write": ended - rendered,
                "parser": begin - started}


def route_column(n, k, decided, keyed):
    """One corpus's column of the route table, row label to text."""
    scope = delta_scope(n, k)
    groups = {"decided": [Graph(n, code) for code in sorted(decided)],
              "keyed": [Graph(n, code) for code in sorted(keyed)]}
    groups.update((group, []) for group, _ in OUTCOMES)
    for g in groups["keyed"]:
        g.degrees  # decoded beforehand, as in the solver
    for g in groups["decided"]:
        reason = requirement_check(g, k, scope).reason
        groups["accepted" if reason == "accepted" else "value"
               if reason == "value-not-above-bound" else "degree"].append(g)
    count = len(groups["decided"])
    column = {"graphs": f"{count}", "keyed": f"{len(groups['keyed'])}"}
    column.update((f"% {label}", f"{len(groups[group]) / count:.0%}")
                  for group, label in OUTCOMES)
    micros = {}
    for label, group, make in ROUTES:
        graphs = groups[group]

        def run():
            route = make(k, scope)
            for g in graphs:
                route(g)

        micros[label] = fastest(run) / len(graphs) * 1e6 if graphs else None
        column[label] = "-" if not graphs else f"{micros[label]:.1f}"
    column["full/decide"] = f"{micros['full'] / micros['decide']:.2f}"
    return column


def census(order):
    """Print the first class build, then the census pass's cold first
    pass beside its warm step medians."""
    steps = ((f"enumerate_exact({order}, 2)",
              lambda: enumerate_exact(order, 2)),
             (f"enumerate_exact({order}, 3)",
              lambda: enumerate_exact(order, 3)),
             (f"explore_minimizers({order})",
              lambda: explore_minimizers(order)))
    oracle._level.cache_clear()
    oracle._witness.cache_clear()
    labelled = Counter()
    label = oracle.canonical_code

    def counted(g):
        labelled[g.n] += 1
        return label(g)

    oracle.canonical_code = counted
    try:
        first = fastest(lambda: nonisomorphic_graphs(order), repeats=1)
    finally:
        oracle.canonical_code = label
    print(f"first class build at order {order}: {first:.3f} s")
    print("  extensions labelled, by order: "
          + ", ".join(f"{m}: {labelled[m]}" for m in range(2, order + 1)))
    searching = 0.0
    search = oracle._min_code

    def timed_search(g):
        nonlocal searching
        started = time.perf_counter()
        code = search(g)
        searching += time.perf_counter() - started
        return code

    def timed(call):
        """Seconds of one call, and of the witness search within it."""
        nonlocal searching
        searching = 0.0
        return fastest(call, repeats=1), searching

    oracle._min_code = timed_search
    try:
        passes = [[timed(call) for _, call in steps]
                  for _ in range(PASSES + 1)]
    finally:
        oracle._min_code = search
    print(f"census pass at order {order}, s: the first pass after the build"
          f" (cold) and the median of the {PASSES} passes after it (warm)")
    print(f"  {'':<24} {'cold':>8} {'warm':>8}")
    rows, columns = [], []
    for index, (label, _) in enumerate(steps):
        rows.append(label)
        columns.append([times[index][0] for times in passes])
        if label.startswith("enumerate_exact"):
            rows.append("  witness search")
            columns.append([times[index][1] for times in passes])
    rows.append("pass")
    columns.append([sum(step for step, _ in times) for times in passes])
    for label, (cold, *warm) in zip(rows, columns):
        print(f"  {label:<24} {cold:>8.4f} {statistics.median(warm):>8.4f}")


def main(argv):
    numbers = [*map(int, argv), *(5, 7)[len(argv):]]
    if len(numbers) != 2 or numbers[0] < 1 \
            or numbers[1] > oracle.ENUMERATION_LIMIT:
        raise SystemExit("usage: time_layers.py [SEEDS [ORDER]], SEEDS >= 1,"
                         f" ORDER <= {oracle.ENUMERATION_LIMIT}")
    seeds, order = numbers
    probe, rows, columns = Probe(), [], []
    with tempfile.TemporaryDirectory() as scratch:
        for n, k, flags in INPUTS:
            probe.decided, probe.keyed = set(), set()
            runs = [probe.solve(n, k, flags, seed, Path(scratch) /
                                f"{n}-{k}-{seed}")
                    for seed in range(seeds + 1)][1:]
            rows.append((f"{n} {k}", flags, {
                part: statistics.median(run[part] for run in runs)
                for part in PARTS}))
            columns.append((f"{n} {k}", route_column(n, k, probe.decided,
                                                     probe.keyed)))
    print(f"solve parts, median ms per solve over seeds 1..{seeds}")
    print(f"  {'n k':<6}" + "".join(f"{part:>10}" for part in PARTS))
    for label, flags, medians in rows:
        print(f"  {label:<6}"
              + "".join(f"{medians[part] * 1e3:>10.2f}" for part in PARTS)
              + ("  " + " ".join(flags) if flags else ""))
    census(order)
    classes = {g.code for g in nonisomorphic_graphs(order)}
    columns.append((f"order {order}",
                    route_column(order, 2, classes, classes)))
    print(f"per graph, us, fastest of five runs: graphs decided at seeds"
          f" 0..{seeds}, and the classes of order {order} at k = 2")
    print(f"  {'':<22}" + "".join(f"{label:>9}" for label, _ in columns))
    for row in columns[0][1]:
        print(f"  {row:<22}"
              + "".join(f"{column[row]:>9}" for _, column in columns))


if __name__ == "__main__":
    main(sys.argv[1:])

"""Time the parts of `isotough solve` per solve, and canonical form per graph.

    PYTHONPATH=src python tests/time_solve.py [SEEDS]

Each of the benchmark's six solve inputs, (7,2), (9,2), (12,3) and
(13,3) with default flags, (16,3) with default flags and (18,3) with
`--exact-verify-limit 18 --generations 25`, is solved through `cli.main`
once untimed and then at seeds 1..SEEDS (default 5), writing to a
temporary directory.  The median per solve of each part is printed in
milliseconds:

- main: the whole `cli.main` call;
- solver: `run_solver`, the search itself;
- canonical: the canonical keys the search takes, inside the solver;
- write: from the solver's return to main's, building and writing the
  result files (and printing the summary);
- parser: from main's start to the solver's, parsing the arguments.

Then canonical form per graph: every distinct graph the solves key by
canonical form (their bucketed candidates and archive), decoded
beforehand, each input's graphs timed together as the fastest of five
runs, as a mean in microseconds.

It needs only the standard library.
"""

import contextlib
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

from isotough import cli, evolve
from isotough.graphs import Graph

SEEDS = int(sys.argv[1]) if len(sys.argv) > 1 else 5
INPUTS = (
    ("7 2", ()),
    ("9 2", ()),
    ("12 3", ()),
    ("13 3", ()),
    ("16 3", ()),
    ("18 3", ("--exact-verify-limit", "18", "--generations", "25")),
)
PARTS = ("main", "solver", "canonical", "write", "parser")


class Probe:
    """Timestamps around run_solver and a running total of canonical_form,
    installed over the names that cli and evolve look up."""

    def __init__(self):
        self.solver = (0.0, 0.0)
        self.canonical = 0.0
        self.keyed: set[tuple[int, int]] = set()
        run_solver, canonical_form = cli.run_solver, evolve.canonical_form

        def timed_solver(*args, **kwargs):
            started = time.perf_counter()
            try:
                return run_solver(*args, **kwargs)
            finally:
                self.solver = (started, time.perf_counter())

        def timed_form(g):
            started = time.perf_counter()
            try:
                return canonical_form(g)
            finally:
                self.canonical += time.perf_counter() - started
                self.keyed.add((g.n, g.code))

        cli.run_solver, evolve.canonical_form = timed_solver, timed_form

    def solve(self, n, k, flags, seed, out):
        self.canonical = 0.0
        argv = ["solve", "--n", n, "--k", k, "--seed", str(seed),
                "--out", str(out), *flags]
        with contextlib.redirect_stdout(io.StringIO()):
            started = time.perf_counter()
            code = cli.main(argv)
            ended = time.perf_counter()
        if code != 0:
            raise SystemExit(f"solve {' '.join(argv)} exited {code}")
        begin, end = self.solver
        return {"main": ended - started, "solver": end - begin,
                "canonical": self.canonical, "write": ended - end,
                "parser": begin - started}


def per_graph_micros(keyed, canonical_form, repeats=5):
    graphs = [Graph(n, code) for n, code in sorted(keyed)]
    for g in graphs:
        g.degrees  # decoded beforehand, as in the solver
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for g in graphs:
            canonical_form(g)
        best = min(best, time.perf_counter() - started)
    return best / len(graphs) * 1e6, len(graphs)


def main():
    canonical_form = evolve.canonical_form
    probe = Probe()
    rows = []
    with tempfile.TemporaryDirectory() as scratch:
        for index, (instance, flags) in enumerate(INPUTS):
            n, k = instance.split()
            probe.keyed = set()
            probe.solve(n, k, flags, 0, Path(scratch) / f"{index}-warm")
            probe.keyed = set()
            runs = [probe.solve(n, k, flags, seed,
                                Path(scratch) / f"{index}-{seed}")
                    for seed in range(1, SEEDS + 1)]
            medians = {part: statistics.median(run[part] for run in runs)
                       for part in PARTS}
            rows.append((instance, flags, medians,
                         per_graph_micros(probe.keyed, canonical_form)))
    print(f"solve parts, median ms per solve over seeds 1..{SEEDS}")
    print(f"  {'n k':<6}" + "".join(f"{part:>10}" for part in PARTS))
    for instance, flags, medians, _ in rows:
        print(f"  {instance:<6}"
              + "".join(f"{medians[part] * 1e3:>10.2f}" for part in PARTS)
              + ("  " + " ".join(flags) if flags else ""))
    print("canonical form per keyed graph, fastest of five runs")
    for instance, _, _, (micros, count) in rows:
        print(f"  {instance:<6}{micros:>10.1f} us  ({count} graphs)")


if __name__ == "__main__":
    main()

"""isotough benchmark: one workload per process, result on the last line.

    python3 perfbench/run.py --workload solve-screen --seed 1 --seconds 20 \\
        --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the timed section runs operations until ``--seconds``
have passed, sampling a fixed reference kernel between them, and the last
line reports every end-to-end metric of BENCHMARK.json; timings are scaled
to the kernel's nominal speed (reference.py).  With ``--trace 1`` it
replays a fixed list of operations in rounds, once plain and once with
every layer traced, and reports every per-layer metric.  Output checks
run afterwards, untimed; any failure makes ``correct`` false and the exit
code 1.  ``--smoke`` runs every workload at tiny sizes and checks the
metric names and that a planted wrong output is counted as a failure.
README.md beside this file lists the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 3
SETUP_SHARE = 1.0  # imports and the warm-up run interpreted Python
# numpy, scipy and their BLAS/OpenMP pools stay single-threaded.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")
WORKLOADS = ("solve-screen", "solve-verify", "audit", "census")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test")
    parser.add_argument("--plant", action="store_true",
                        help="corrupt one output before the checks")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload tiny and check the result")
    parser.add_argument("--setup-sample", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.smoke:
        if args.workload is None or args.seed is None:
            parser.error("--workload and --seed are required")
        if args.seed < 0:
            parser.error("--seed must be non-negative")
        if not args.setup_sample and (args.seconds is None
                                      or args.seconds <= 0):
            parser.error("--seconds must be positive")
    return args


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples above it; below 21 samples that percentile would not reach the
    median, so the maximum stands in."""
    ordered = sorted(samples)
    count = len(ordered)
    if count >= 21:
        return ordered[count - 11], 100.0 * (count - 10) / count
    return ordered[-1], 100.0


def group_median(workload, pairs) -> tuple[float, int]:
    """The workload's combination of each input group's median step time.

    A run stops wherever --seconds falls, so the share of each group it
    completes varies from run to run; a median per group keeps that share
    out of the figure."""
    groups: dict[str, list[float]] = {}
    for group, seconds in pairs:
        groups.setdefault(group, []).append(seconds)
    medians = [statistics.median(v) for v in groups.values()]
    return workload.combine(medians), len(groups)


def unit_times(done) -> list[float]:
    """Seconds of each counted operation, summed over its steps."""
    units: dict[int, float] = {}
    for d in done:
        if d.op.unit is not None:
            units[d.op.unit] = units.get(d.op.unit, 0.0) + d.seconds
    return list(units.values())


def at_nominal(seconds: float, local: float, share: float) -> float:
    """`seconds` taken while the kernel ran in `local`, scaled to the
    kernel's nominal speed (reference.py)."""
    from reference import NOMINAL_S
    return seconds / (1 - share + share * local / NOMINAL_S)


def at_reference_speed(done, samples, share: float) -> list[float]:
    """Each step's time at the kernel's nominal speed.  The host speed
    during a step is the mean of the kernel samples taken just before and
    just after it."""
    starts = [start for start, _ in samples]
    scaled = []
    for d in done:
        after = min(bisect.bisect_left(starts, d.started + d.seconds),
                    len(samples) - 1)
        local = (samples[max(after - 1, 0)][1] + samples[after][1]) / 2
        scaled.append(at_nominal(d.seconds, local, share))
    return scaled


def run_record(args) -> dict:
    import networkx
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "machine": platform.platform(), "processor": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "networkx": networkx.__version__,
        "git_commit": commit, "source_sha256": digest.hexdigest(),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
    }


def setup_sample(args) -> tuple[float, float]:
    """Import plus warm-up, timed in a fresh process: (wall, at the
    kernel's nominal speed)."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--setup-sample", "--workload", args.workload,
               "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"setup sample failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["setup_s"], result["setup_ref_s"]


def execute(workload, op, tracer=None):
    from workloads import Done
    started = time.perf_counter()
    try:
        if tracer is None:
            output = workload.run(op)
        else:
            tracer.op_id += 1
            with tracer.span("bench.op"):
                output = workload.run(op)
        error = None
    except Exception as exc:  # an operation that raises has failed
        output, error = None, f"{type(exc).__name__}: {exc}"
    return Done(op, time.perf_counter() - started, output, error,
                started=started)


def timed_section(workload, seconds: float):
    """Steps until `seconds` pass, with a kernel sample every
    reference.INTERVAL seconds between them and one after the last."""
    import reference
    done, samples = [], []
    operations = workload.operations()
    started = time.perf_counter()
    due = started
    while time.perf_counter() - started < seconds:
        if time.perf_counter() >= due:
            samples.append((time.perf_counter(), reference.sample()))
            due = time.perf_counter() + reference.INTERVAL
        done.append(execute(workload, next(operations)))
    samples.append((time.perf_counter(), reference.sample()))
    wall = samples[-1][0] - started
    return done, wall, samples


def traced_rounds(workload, seconds: float):
    """Replay one fixed list plain, then traced, until `seconds` pass."""
    from tracer import Tracer
    tracer = Tracer()
    listed = workload.trace_round()
    done, overheads = [], []
    started = time.perf_counter()
    while not overheads or time.perf_counter() - started < seconds:
        begin = time.perf_counter()
        done += [execute(workload, op) for op in listed]
        plain = time.perf_counter() - begin
        with tracer.installed():
            begin = time.perf_counter()
            done += [execute(workload, op, tracer) for op in listed]
            traced = time.perf_counter() - begin
        overheads.append(traced - plain)
    units = {op.unit for op in listed if op.unit is not None}
    operations = len(overheads) * len(units)
    return done, tracer, operations, overheads


def report_line(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name} {value:.6g} {unit}{'  (' + note + ')' if note else ''}")


def measure(args) -> int:
    import reference
    reference.sample()  # the first run compiles and warms the kernel
    before = reference.sample()
    started = time.perf_counter()
    import isotough  # noqa: F401  (the import is part of set-up)
    import workloads
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny,
                                                  scratch)
    try:
        workload.warm_up()
        setup = time.perf_counter() - started
        setup = (setup, at_nominal(setup, (before + reference.sample()) / 2,
                                   SETUP_SHARE))
        if args.setup_sample:
            print(json.dumps({"setup_s": setup[0], "setup_ref_s": setup[1]}))
            return 0
        record = run_record(args)
        print("run record", json.dumps(record, sort_keys=True))
        if args.trace:
            done, tracer, operations, overheads = traced_rounds(
                workload, args.seconds)
        else:
            samples = [setup] + [setup_sample(args)
                                 for _ in range(SETUP_SAMPLES - 1)]
            done, wall, samples_ref = timed_section(workload, args.seconds)
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        first = next((d for d in done if d.error is None), None)
        if first is not None:
            mismatch = workload.repeat(first)
            if mismatch:
                first.failures.append(mismatch)
        if args.plant:
            workload.plant(done)
        met, cells = workload.check(done)
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)

    failed = sum(d.failed for d in done)
    for entry in [d for d in done if d.failed][:10]:
        print(f"FAILED {entry.op.kind} {entry.op.index}:",
              entry.error or "; ".join(entry.failures[:3]))
    for note in workload.notes:
        print(note)
    print(f"workload {args.workload} seed {args.seed}: {len(done)}"
          f" operations, {failed} failed")
    hit_rate = met / cells if cells else 1.0
    report_line("failure_rate", failed / len(done), "ratio")
    noun = workload.noun
    if args.trace:
        metrics = tracer.layer_metrics(operations, overheads)
        layers = tracer.layer_self_s(operations)
        for layer, seconds in sorted(layers.items(), key=lambda p: -p[1]):
            report_line(f"layer {layer} self", seconds, f"s/{noun}")
        spans = {name: seconds for name, seconds in tracer.self_s.items()
                 if name.split(".")[0] in layers}
        print(f"most self time: layer {max(layers, key=layers.get)}, span"
              f" {max(spans, key=spans.get)} ({operations} operations"
              f" traced in {len(overheads)} rounds)")
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz")
    else:
        times = unit_times(done)
        grouped = [d for d in done if d.op.group]
        p50, groups = group_median(workload, ((d.op.group, d.seconds)
                                              for d in grouped))
        scaled = at_reference_speed(grouped, samples_ref,
                                    workload.interpreted_share)
        p50_ref, _ = group_median(workload, zip(
            (d.op.group for d in grouped), scaled))
        kernel = [seconds for _, seconds in samples_ref]
        tail_s, tail_pct = tail(times)
        per_s = len(times) / sum(d.seconds for d in done)
        time_name, rate_name = workload.printed_as
        setup_wall = statistics.median(wall_s for wall_s, _ in samples)
        setup_ref = statistics.median(ref_s for _, ref_s in samples)
        report_line("setup_wall_s", setup_wall, "s",
                    f"median of {len(samples)}")
        report_line("setup_s", setup_ref, "s", "at the kernel's nominal"
                    f" speed, median of {len(samples)}")
        report_line("wall_s", wall, "s")
        report_line("peak_rss_mb", peak_rss_mb, "MB")
        report_line("reference_kernel_s", statistics.median(kernel), "s",
                    f"median of {len(kernel)} samples, range"
                    f" {min(kernel):.4g} to {max(kernel):.4g}")
        report_line(f"{time_name}_p50", p50, "s",
                    f"{len(times)} samples in {groups} input groups")
        report_line(f"{time_name}_p50_ref", p50_ref, "s",
                    "at the kernel's nominal speed, interpreted share"
                    f" {workload.interpreted_share}")
        report_line(f"{time_name}_tail", tail_s, "s",
                    f"p{tail_pct:.1f} of {len(times)} samples")
        report_line(rate_name, per_s, "1/s")
        report_line("optima_hit_rate", hit_rate, "ratio",
                    f"{met} of {cells} reference cells")
        metrics = {
            "setup_s": (setup_ref, "s"),
            "op_s_p50_ref": (p50_ref, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "optima_hit_rate": (hit_rate, "ratio"),
        }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    result = {"correct": failed == 0, "attempted": len(done),
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def smoke() -> int:
    """Every workload tiny: metric names, clean checks, a planted fault."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for entry in spec["workloads"]:
        for trace, plant in ((0, False), (1, False), (0, True)):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", entry["name"], "--seed", "1",
                       "--seconds", "1", "--trace", str(trace), "--tiny"] \
                + (["--plant"] if plant else [])
            label = f"{entry['name']} trace={trace} plant={plant}"
            before = len(problems)
            proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, timeout=180)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{label}: no result line\n{proc.stderr}")
                continue
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{label}: metrics {sorted(units)}")
            want_failure = plant
            if (result["failed"] > 0) != want_failure \
                    or result["correct"] == want_failure \
                    or (proc.returncode != 0) != want_failure:
                problems.append(f"{label}: failed={result['failed']}"
                                f" exit={proc.returncode}\n{proc.stdout}")
            print(f"{label}: {'ok' if len(problems) == before else 'FAIL'}")
    for problem in problems:
        print("SMOKE PROBLEM:", problem)
    return 1 if problems else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "isotough" / "__init__.py").is_file():
        print(f"perfbench: no isotough sources under {ROOT / 'src'};"
              " run it from a full checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    if args.smoke:
        return smoke()
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())

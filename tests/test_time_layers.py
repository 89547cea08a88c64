"""The layer-timing script solves the benchmark's own solve inputs."""

import importlib.util
import sys
from pathlib import Path

import time_layers

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_solve_inputs_are_the_benchmark_solve_cases(monkeypatch):
    # the script copies the cases to need only the standard library
    spec = importlib.util.spec_from_file_location("_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    cases = workloads.SCREEN_CASES + workloads.VERIFY_CASES
    assert time_layers.INPUTS == tuple((c.n, c.k, c.flags) for c in cases)

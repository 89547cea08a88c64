"""Time the flow search against the scipy reference on the order-64 grid.

    PYTHONPATH=src:tests python tests/time_flow_worst_cases.py

Each case is timed five times per route and the fastest run is kept.  One
row per case: the feasibility answer, both times and their ratio.  Needs
the test extra (scipy).
"""

from _feasibility_oracles import scipy_flow_feasible
from isotough.factors import FactorSpec, has_fractional_factor
from test_factors import order_64_grid
from time_layers import fastest


def main():
    print(f"{'case':<26} {'factor':<6} {'search ms':>9} {'scipy ms':>9}"
          f" {'ratio':>6}")
    for label, g, a, b in order_64_grid():
        spec = FactorSpec(a, b)
        answer = has_fractional_factor(g, spec)
        reference = scipy_flow_feasible(g, a, b)
        ours = fastest(lambda: has_fractional_factor(g, spec))
        theirs = fastest(lambda: scipy_flow_feasible(g, a, b))
        if answer != reference:
            raise SystemExit(f"{label}: search {answer}, scipy {reference}")
        print(f"{label:<26} {str(answer):<6} {ours * 1e3:9.2f}"
              f" {theirs * 1e3:9.2f} {ours / theirs:6.2f}")


if __name__ == "__main__":
    main()

"""Independent references for fractional [a, b]-factor feasibility.

Two oracles, both exact and free of flow machinery:

* cut_condition_feasible: integer deficiency check over every vertex
  subset T: the weighting exists iff b|T| plus the sum over all vertices
  of min(0, deg_{G-T}(v) - a) is non-negative for every T.
* simplex_feasible: phase-one simplex over exact Fractions on the literal
  linear program 0 <= h_e <= 1, a <= sum_{e at v} h_e <= b.

A third, scipy_flow_feasible, is the former product route: scipy's
integral max-flow on the double cover with the lower bounds removed by
the circulation transform.  It is fast enough for order 64, so it is the
reference where the two exact oracles above would take too long.  scipy
is a test-only dependency and is imported only when it is called.
"""

from fractions import Fraction

from isotough.graphs import Graph


def cut_condition_feasible(g: Graph, a: int, b: int) -> bool:
    n = g.n
    adjacency = g.adjacency
    for t_mask in range(1 << n):
        t_size = t_mask.bit_count()
        deficiency = 0
        for v in range(n):
            outside_degree = (adjacency[v] & ~t_mask).bit_count()
            if outside_degree < a:
                deficiency += outside_degree - a
        if b * t_size + deficiency < 0:
            return False
    return True


def _phase_one_feasible(rows, num_vars):
    """Exact phase-one simplex (Bland's rule); rows are (coeffs, rhs>=0)."""
    m = len(rows)
    total = num_vars + m
    tableau = []
    for i, (coeffs, rhs) in enumerate(rows):
        row = [Fraction(c) for c in coeffs] + [Fraction(0)] * m
        row.append(Fraction(rhs))
        row[num_vars + i] = Fraction(1)
        tableau.append(row)
    basis = list(range(num_vars, total))

    # objective row: reduced costs for minimizing the artificial sum
    objective = [Fraction(0)] * (total + 1)
    for row in tableau:
        for j in range(total + 1):
            objective[j] += row[j]
    for j in range(num_vars, total):
        objective[j] -= 1

    while True:
        enter = next((j for j in range(total) if objective[j] > 0), None)
        if enter is None:
            return objective[total] == 0
        pivot_row = None
        best = None
        for i, row in enumerate(tableau):
            if row[enter] > 0:
                ratio = row[total] / row[enter]
                if best is None or ratio < best or \
                        (ratio == best and basis[i] < basis[pivot_row]):
                    best, pivot_row = ratio, i
        assert pivot_row is not None  # phase one is never unbounded
        pivot = tableau[pivot_row][enter]
        tableau[pivot_row] = [c / pivot for c in tableau[pivot_row]]
        for i, row in enumerate(tableau):
            if i != pivot_row and row[enter]:
                factor = row[enter]
                tableau[i] = [c - factor * p
                              for c, p in zip(row, tableau[pivot_row])]
        if objective[enter]:
            factor = objective[enter]
            objective = [c - factor * p
                         for c, p in zip(objective, tableau[pivot_row])]
        basis[pivot_row] = enter


def simplex_feasible(g: Graph, a: int, b: int) -> bool:
    edges = list(g.edges())
    incident = {v: [] for v in range(g.n)}
    for at, (u, v) in enumerate(edges):
        incident[u].append(at)
        incident[v].append(at)

    num_edges = len(edges)
    # variables: h_e, then one slack per constraint row
    rows = []
    slack = num_edges

    def blank():
        return [0] * num_vars

    num_vars = num_edges
    specs = []
    for at in range(num_edges):            # h_e + s = 1
        specs.append(([(at, 1)], 1, 1))
        num_vars += 1
    for v in range(g.n):                   # sum h - s = a
        specs.append(([(at, 1) for at in incident[v]], -1, a))
        num_vars += 1
    for v in range(g.n):                   # sum h + s = b
        specs.append(([(at, 1) for at in incident[v]], 1, b))
        num_vars += 1

    for terms, slack_sign, rhs in specs:
        coeffs = blank()
        for at, c in terms:
            coeffs[at] = c
        coeffs[slack] = slack_sign
        slack += 1
        rows.append((coeffs, rhs))
    return _phase_one_feasible(rows, num_vars)


def scipy_flow_feasible(g: Graph, a: int, b: int) -> bool:
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    n = g.n
    if n == 0:
        return True
    source, sink = 0, 1          # circulation super source / sink
    s, t = 2, 3                  # original terminals
    left = lambda v: 4 + v
    right = lambda v: 4 + n + v

    caps: dict[tuple[int, int], int] = {}

    def add(u: int, v: int, c: int) -> None:
        if c > 0:
            caps[u, v] = caps.get((u, v), 0) + c

    for v in range(n):
        add(s, left(v), b - a)       # arc s -> v_L with lower bound a
        add(source, left(v), a)
        add(s, sink, a)
        add(right(v), t, b - a)      # arc v_R -> t with lower bound a
        add(source, t, a)
        add(right(v), sink, a)
    for u, v in g.edges():
        add(left(u), right(v), 1)
        add(left(v), right(u), 1)
    add(t, s, n * b)                 # closes the circulation

    size = 4 + 2 * n
    rows = np.fromiter((u for u, _ in caps), dtype=np.int32, count=len(caps))
    cols = np.fromiter((v for _, v in caps), dtype=np.int32, count=len(caps))
    data = np.fromiter(caps.values(), dtype=np.int32, count=len(caps))
    matrix = csr_matrix((data, (rows, cols)), shape=(size, size))
    return maximum_flow(matrix, source, sink).flow_value == 2 * n * a

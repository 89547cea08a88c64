"""Inverse design of network topologies from isolated-toughness targets.

Given a site count and a per-site capacity, the package searches for
graphs whose variant isolated toughness strictly clears the
degree-dependent acceptance bound, verifies every find exactly, certifies
the promised fractional factor by a search on the bipartite double cover,
and reduces the archive to a diverse set of pairwise non-isomorphic
representatives.
"""

from .canonical import CanonicalForm, canonical_code, canonical_form, \
    deduplicate
from .errors import CapacityError, ConsistencyError, EmptyArchiveError, \
    GraphParseError, InputError, ScopeError
from .evolve import CandidateRecord, DiversitySelection, RunResult, \
    SolverConfig, SolverReport, binary_mutation, diversity_enhancement, \
    initial_population, report, run_solver
from .factors import FactorCertificate, FactorSpec, RequirementVerdict, \
    certify_requirement, delta_scope, fractional_k_factor, \
    has_fractional_factor, requirement_bound, requirement_check
from .graphs import Graph, clique_join_blocks, clique_join_singles, \
    complete, counterexample_family, disjoint_cliques, empty_graph, \
    extremal_family, from_bits, graph_from_json, graph_to_dot, \
    graph_to_json, graph_to_json_text, hamming_distance, pair_count, star
from .oracle import BenchmarkReport, EnumerationResult, MinimizerSurvey, \
    benchmark, enumerate_exact, explore_minimizers, nonisomorphic_graphs
from .rational import INFINITY, Ratio, format_ratio
from .toughness import ToughnessResult, exact_isolated_toughness_pair, \
    exact_variant_above, exact_variant_value, pseudo_greedy_estimate, \
    roulette_select

__version__ = "0.1.0"

__all__ = [
    "BenchmarkReport", "CandidateRecord", "CanonicalForm", "CapacityError",
    "ConsistencyError", "DiversitySelection", "EmptyArchiveError",
    "EnumerationResult", "FactorCertificate", "FactorSpec", "Graph",
    "GraphParseError", "INFINITY", "InputError", "MinimizerSurvey",
    "Ratio", "RequirementVerdict", "RunResult", "ScopeError",
    "SolverConfig", "SolverReport", "ToughnessResult",
    "benchmark", "binary_mutation", "canonical_code", "canonical_form",
    "certify_requirement", "clique_join_blocks", "clique_join_singles",
    "complete", "counterexample_family", "deduplicate", "delta_scope",
    "disjoint_cliques", "diversity_enhancement", "empty_graph",
    "enumerate_exact", "exact_isolated_toughness_pair",
    "exact_variant_above", "exact_variant_value", "explore_minimizers",
    "extremal_family", "format_ratio", "fractional_k_factor", "from_bits",
    "graph_from_json", "graph_to_dot", "graph_to_json",
    "graph_to_json_text", "hamming_distance", "has_fractional_factor",
    "initial_population", "nonisomorphic_graphs", "pair_count",
    "pseudo_greedy_estimate", "report", "requirement_bound",
    "requirement_check", "roulette_select", "run_solver", "star",
]

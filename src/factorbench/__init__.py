"""factorbench: exact graph-factor workbench.

Exact (rational-arithmetic) computation of isolated toughness, degree
criteria for [a,b]- and (g,f)-factor existence with certificates, star
factors, and deletion-avoiding factor checks, together with brute-force
oracles and a reporting harness.
"""

__version__ = "0.1.0"

from .errors import CapExceeded, GraphFormatError, SearchBudgetExceeded
from .graphs import (
    GRAPH6_MAX_N,
    DeletionResult,
    DeletionSpec,
    ExtremalWitness,
    Graph,
    build_extremal_H,
    complete_graph,
    cycle_graph,
    delete,
    delete_edges,
    delete_vertices,
    disjoint_union,
    emit_graph6,
    generate_random,
    isolated_count,
    join,
    parse_graph6,
    path_graph,
    star_graph,
)
from .toughness import (
    ToughnessReport,
    isolated_toughness,
    isolated_toughness_bruteforce,
    threshold,
)
from .factors import (
    FactorCertificate,
    FactorViolation,
    KaterinisPair,
    Star,
    StarCheck,
    StarForest,
    brute_force_factor,
    check_ab_factor,
    check_gf_factor,
    check_star_factor,
    delta,
    find_ab_factor,
    find_katerinis_pair,
    find_star_factor,
    low_set,
    scan_deficiency,
)
from .avoidance import (
    AvoidanceVerdict,
    Counterexample,
    Premise,
    RhoValue,
    check_edge_avoiding,
    check_edge_deletion_star,
    check_lemma_D1,
    check_matching_deletion,
    check_theorem_D,
    check_theorem_E,
    check_vertex_deletion_all,
    enumerate_matchings,
    rho,
    theorem_premises,
)
from .campaign import CampaignConfig, CampaignReport, run_campaign

__all__ = [
    "__version__",
    # errors
    "CapExceeded",
    "GraphFormatError",
    "SearchBudgetExceeded",
    # graphs
    "GRAPH6_MAX_N",
    "DeletionResult",
    "DeletionSpec",
    "ExtremalWitness",
    "Graph",
    "build_extremal_H",
    "complete_graph",
    "cycle_graph",
    "delete",
    "delete_edges",
    "delete_vertices",
    "disjoint_union",
    "emit_graph6",
    "generate_random",
    "isolated_count",
    "join",
    "parse_graph6",
    "path_graph",
    "star_graph",
    # toughness
    "ToughnessReport",
    "isolated_toughness",
    "isolated_toughness_bruteforce",
    "threshold",
    # factor engine
    "FactorCertificate",
    "FactorViolation",
    "KaterinisPair",
    "Star",
    "StarCheck",
    "StarForest",
    "brute_force_factor",
    "check_ab_factor",
    "check_gf_factor",
    "check_star_factor",
    "delta",
    "find_ab_factor",
    "find_katerinis_pair",
    "find_star_factor",
    "low_set",
    "scan_deficiency",
    # avoidance
    "AvoidanceVerdict",
    "Counterexample",
    "Premise",
    "RhoValue",
    "check_edge_avoiding",
    "check_edge_deletion_star",
    "check_lemma_D1",
    "check_matching_deletion",
    "check_theorem_D",
    "check_theorem_E",
    "check_vertex_deletion_all",
    "enumerate_matchings",
    "rho",
    "theorem_premises",
    # campaign
    "CampaignConfig",
    "CampaignReport",
    "run_campaign",
]

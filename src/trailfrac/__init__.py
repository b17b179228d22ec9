"""Trail-representable edge subsets of directed multigraphs.

Decide whether an edge subset can be ordered as a trail, count and estimate
the trail fraction f(G) = d(G)/2^m, build greedy edge-increasing vertex
sequences, and check the combinatorial inequalities behind the asymptotic
behaviour of f(G).
"""

from .bounds import (
    BoundReport,
    Case2TailCheck,
    FamilyRatioRow,
    StirlingBounds,
    balance_window_probability,
    bound_report,
    case2_tail_bound_check,
    central_binomial_bound_check,
    family_ratio_csv,
    family_ratio_scan,
    proof_ingredient_summary,
    stirling_bounds,
    theorem_upper_bound,
    vandermonde_identity_check,
)
from .counting import (
    EXACT_MAX_STATES,
    CountReport,
    EstimateReport,
    FamilyCount,
    count_family_closed_form,
    count_trails_exact,
    estimate_trail_fraction,
    wilson_interval,
)
from .eis import EisSequence, greedy_eis, verify_eis
from .generators import gen_cycle, gen_family, gen_path, gen_random_multigraph, gen_star
from .graphs import (
    Degree,
    DegreeProfile,
    Edge,
    EdgeSubset,
    GraphFormatError,
    Multigraph,
    degree,
    degree_profile,
    imbalance_profile,
    incident_edges,
    parse_graph,
    serialize_graph,
    subset_mask,
)
from .trails import (
    ORACLE_MAX_EDGES,
    FailureReason,
    TrailVerdict,
    is_trail,
    necessary_balance_condition,
    oracle_is_trail,
    witness_trail,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "Case2TailCheck",
    "CountReport",
    "Degree",
    "DegreeProfile",
    "Edge",
    "EdgeSubset",
    "EisSequence",
    "EstimateReport",
    "EXACT_MAX_STATES",
    "FailureReason",
    "FamilyCount",
    "FamilyRatioRow",
    "GraphFormatError",
    "Multigraph",
    "ORACLE_MAX_EDGES",
    "StirlingBounds",
    "TrailVerdict",
    "balance_window_probability",
    "bound_report",
    "case2_tail_bound_check",
    "central_binomial_bound_check",
    "count_family_closed_form",
    "count_trails_exact",
    "degree",
    "degree_profile",
    "estimate_trail_fraction",
    "family_ratio_csv",
    "family_ratio_scan",
    "gen_cycle",
    "gen_family",
    "gen_path",
    "gen_random_multigraph",
    "gen_star",
    "greedy_eis",
    "imbalance_profile",
    "incident_edges",
    "is_trail",
    "necessary_balance_condition",
    "oracle_is_trail",
    "parse_graph",
    "proof_ingredient_summary",
    "serialize_graph",
    "stirling_bounds",
    "subset_mask",
    "theorem_upper_bound",
    "vandermonde_identity_check",
    "verify_eis",
    "wilson_interval",
    "witness_trail",
]

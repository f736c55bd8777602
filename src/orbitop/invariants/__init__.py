"""Global numerical invariants: orbifold Euler characteristics, quotient
Betti numbers, the desingularization ledger, sign-data combinatorics,
and node-configuration checks."""

from .betti import (
    POINT_CASE_PATTERNS,
    BettiVector,
    ContributionTable,
    DesingPlan,
    exterior_power_matrix,
    ledger_apply,
    plan_from_choices,
    quotient_betti,
)
from .chi import (
    ChiCensus,
    ChiData,
    chi_admissible,
    chi_count_brute_force,
    chi_family_census,
    chi_total_count,
    code_admissible,
)
from .euler import EulerReport, orbifold_euler
from .nodes import (
    KahlerResult,
    NodeConfiguration,
    SmoothabilityResult,
    generic_combination,
    node_kahler,
    node_smoothable,
)

__all__ = [
    "BettiVector",
    "ChiCensus",
    "ChiData",
    "ContributionTable",
    "DesingPlan",
    "EulerReport",
    "KahlerResult",
    "NodeConfiguration",
    "POINT_CASE_PATTERNS",
    "SmoothabilityResult",
    "chi_admissible",
    "chi_count_brute_force",
    "chi_family_census",
    "chi_total_count",
    "code_admissible",
    "exterior_power_matrix",
    "generic_combination",
    "ledger_apply",
    "node_kahler",
    "node_smoothable",
    "orbifold_euler",
    "plan_from_choices",
    "quotient_betti",
]

"""optimal subpackage — the offline optimal-tree DP subsystem.

:mod:`repro.optimal.general` holds the Theorem 2 DP (exact int64 forward
pass + reconstruction); :mod:`repro.optimal.context` the demand-derived
inputs shared across the arities of a sweep; :mod:`repro.optimal.uniform`
the O(n²k) uniform-workload specialization; :mod:`repro.optimal.reference`
the slow, independent, exact oracles the tests check against.
"""

from repro.optimal.context import (
    DemandContext,
    clear_context_cache,
    context_cache_stats,
    demand_context,
)
from repro.optimal.general import (
    OptimalTreeResult,
    optimal_static_cost_table,
    optimal_static_tree,
)

__all__ = [
    "DemandContext",
    "OptimalTreeResult",
    "clear_context_cache",
    "context_cache_stats",
    "demand_context",
    "optimal_static_cost_table",
    "optimal_static_tree",
]

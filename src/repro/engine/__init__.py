"""Execution engines for the MCP relaxation loop.

``cycle``
    The faithful transaction-level simulator (lives in :mod:`repro.core`):
    every bus primitive is individually executed and charged. Required for
    fault plans, span tracing, bus traces and reduction-routine ablations.

``compiled``
    The analytic-cost engine (:mod:`repro.engine.compiled`): each
    relaxation round is one vectorised numpy kernel, and the counters are
    charged from a per-configuration cost vector replayed off the cycle
    engine (:mod:`repro.engine.costs`). Sparse shared planes relax over
    their edge list — row by row, or lane-minor over its jagged layout
    for sweeps with many lanes; dense planes and per-lane stacks over
    cache-blocked tiles. Bit-identical results and ledgers, orders of
    magnitude less Python dispatch.

``fused``
    The whole-array dense reference (:mod:`repro.engine.fused`): the same
    analytic replay through one ``(..., n, n)`` temporary per round. Run
    only on request — the differential suites, the P17/P18 baselines and
    the serving tier's degradation ladder use it.

``auto`` (default everywhere)
    :func:`~repro.engine.select.resolve_engine` upgrades to ``compiled``
    on every eligible machine and silently falls back to ``cycle``
    otherwise.

Process-parallel APSP destination sharding (:mod:`repro.engine.shard`)
composes with any tier through ``all_pairs_minimum_cost(workers=...)``.
"""

from repro.engine.compiled import (
    EDGE_LIST_MAX_DENSITY,
    LANE_MINOR_MIN_LANES,
    blocked_relax,
    compiled_batched_minimum_cost_path,
    compiled_kernel_info,
    compiled_minimum_cost_path,
    edge_list,
    edge_relax,
    jagged_layout,
    jagged_relax,
    lane_block,
    row_block,
)
from repro.engine.costs import (
    MCPCostVector,
    clear_cost_cache,
    cost_cache_size,
    cost_cache_stats,
    mcp_cost_vector,
    reset_cost_cache_stats,
)
from repro.engine.fused import (
    fused_batched_minimum_cost_path,
    fused_minimum_cost_path,
)
from repro.engine.select import (
    ENGINE_DEGRADE_ORDER,
    ENGINE_NAMES,
    EngineChoice,
    compiled_block_reason,
    degrade_engine,
    fused_block_reason,
    resolve_engine,
)
from repro.engine.shard import (
    DEFAULT_SHARD_TIMEOUT,
    ShardFailure,
    clear_shard_chaos,
    destination_shards,
    set_shard_chaos,
    sharded_all_pairs,
    workers_block_reason,
)

__all__ = [
    "ENGINE_NAMES",
    "EngineChoice",
    "fused_block_reason",
    "compiled_block_reason",
    "resolve_engine",
    "MCPCostVector",
    "mcp_cost_vector",
    "clear_cost_cache",
    "cost_cache_size",
    "cost_cache_stats",
    "reset_cost_cache_stats",
    "fused_minimum_cost_path",
    "fused_batched_minimum_cost_path",
    "EDGE_LIST_MAX_DENSITY",
    "LANE_MINOR_MIN_LANES",
    "edge_list",
    "edge_relax",
    "jagged_layout",
    "jagged_relax",
    "row_block",
    "lane_block",
    "blocked_relax",
    "compiled_kernel_info",
    "compiled_minimum_cost_path",
    "compiled_batched_minimum_cost_path",
    "workers_block_reason",
    "destination_shards",
    "sharded_all_pairs",
    "DEFAULT_SHARD_TIMEOUT",
    "ShardFailure",
    "set_shard_chaos",
    "clear_shard_chaos",
    "ENGINE_DEGRADE_ORDER",
    "degrade_engine",
]

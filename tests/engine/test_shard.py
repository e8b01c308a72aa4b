"""Sharded APSP workers: worker-count invariance, gating, cost inheritance.

The sharding layer must be invisible in every result a recorded
experiment could consume: ``dist``/``succ``/``iterations``, the
serial-equivalent ``counters`` and the per-destination ``lane_counters``
are bit-identical across worker counts and engines. ``machine_counters``
legitimately depend on the shard/lane chunking (exactly as the inline
sweep's depend on ``lanes=``), so they are validated structurally — the
parent machine must be charged the merged worker delta.
"""

import numpy as np
import pytest

from repro.core import all_pairs_minimum_cost
from repro.engine import (
    destination_shards,
    sharded_all_pairs,
    workers_block_reason,
)
from repro.errors import EngineError
from repro.ppa import FaultKind, FaultPlan, PPAConfig, PPAMachine
from repro.ppc.reductions import word_parallel_min


def _graph(n, seed=7, density=0.3):
    rng = np.random.default_rng(seed)
    maxint = (1 << 16) - 1
    W = rng.integers(1, 9, size=(n, n)).astype(np.int64)
    W[rng.random((n, n)) < 1.0 - density] = maxint
    np.fill_diagonal(W, 0)
    return W


def _assert_equal(a, b, context=""):
    assert np.array_equal(a.dist, b.dist), context
    assert np.array_equal(a.succ, b.succ), context
    assert np.array_equal(a.iterations, b.iterations), context
    assert a.counters == b.counters, context
    for name in a.lane_counters:
        assert np.array_equal(
            a.lane_counters[name], b.lane_counters[name]
        ), f"{context}: {name}"


class TestWorkerInvariance:
    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_results_and_serial_ledgers(self, workers):
        n = 13
        W = _graph(n)
        base = all_pairs_minimum_cost(PPAMachine(PPAConfig(n=n)), W)
        res = all_pairs_minimum_cost(
            PPAMachine(PPAConfig(n=n)), W, workers=workers
        )
        _assert_equal(base, res, f"workers={workers}")
        assert res.shard_report["workers"] == workers

    @pytest.mark.parametrize("engine", ["cycle", "fused", "compiled"])
    def test_every_engine_shards_identically(self, engine):
        n = 9
        W = _graph(n, seed=3)
        base = all_pairs_minimum_cost(
            PPAMachine(PPAConfig(n=n)), W, engine="cycle"
        )
        res = all_pairs_minimum_cost(
            PPAMachine(PPAConfig(n=n)), W, engine=engine, workers=2
        )
        _assert_equal(base, res, engine)
        assert res.shard_report["engine"] == engine

    def test_lane_cap_composes_with_workers(self):
        n = 11
        W = _graph(n, seed=5)
        base = all_pairs_minimum_cost(PPAMachine(PPAConfig(n=n)), W)
        res = all_pairs_minimum_cost(
            PPAMachine(PPAConfig(n=n)), W, workers=2, lanes=3
        )
        _assert_equal(base, res, "lanes=3")
        assert res.shard_report["lane_cap"] == 3

    def test_workers_clamped_to_n(self):
        n = 3
        W = _graph(n, seed=1, density=0.9)
        res = all_pairs_minimum_cost(
            PPAMachine(PPAConfig(n=n)), W, workers=8
        )
        assert res.shard_report["workers"] == n
        assert res.shard_report["requested_workers"] == 8

    def test_parent_machine_charged_merged_delta(self):
        n = 8
        W = _graph(n, seed=2)
        machine = PPAMachine(PPAConfig(n=n))
        before = machine.counters.snapshot()
        res = all_pairs_minimum_cost(machine, W, workers=2)
        assert machine.counters.diff(before) == res.machine_counters
        assert sum(res.machine_counters.values()) > 0


class TestCostCacheShipping:
    def test_workers_hit_never_probe(self):
        n = 10
        W = _graph(n, seed=9)
        res = all_pairs_minimum_cost(
            PPAMachine(PPAConfig(n=n)), W, workers=2, engine="fused"
        )
        stats = [w["cost_cache"] for w in res.shard_report["worker_stats"]]
        assert len(stats) == 2
        for s in stats:
            assert s["misses"] == 0, "worker re-derived an inherited vector"
            assert s["hits"] >= 1


class TestGating:
    def test_serial_request_blocks(self, machine8):
        assert "serial" in workers_block_reason(machine8, serial=True)

    def test_fault_plan_blocks(self, machine8):
        plan = FaultPlan()
        plan.add(1, 1, FaultKind.STUCK_OPEN)
        machine8.inject_faults(plan)
        assert "fault plan" in workers_block_reason(machine8)

    def test_tracer_blocks(self, machine8):
        machine8.telemetry.enable()
        assert "span tracer" in workers_block_reason(machine8)

    def test_bus_trace_blocks(self, machine8):
        machine8.trace.enabled = True
        assert "bus trace" in workers_block_reason(machine8)

    def test_word_parallel_blocks(self, machine8):
        assert "word-parallel" in workers_block_reason(
            machine8, word_parallel=True
        )

    def test_custom_routines_block(self, machine8):
        assert "min routine" in workers_block_reason(
            machine8, min_routine=word_parallel_min
        )
        sentinel = lambda *a: None  # noqa: E731
        assert "selected_min" in workers_block_reason(
            machine8, selected_min_routine=sentinel
        )

    def test_batched_machine_blocks(self):
        machine = PPAMachine(PPAConfig(n=4, word_bits=16), batch=3)
        assert "already batched" in workers_block_reason(machine)

    def test_plain_machine_clears(self, machine8):
        assert workers_block_reason(machine8) is None

    def test_blocked_request_falls_back_inline_with_reason(self):
        n = 6
        W = _graph(n, seed=4)
        machine = PPAMachine(PPAConfig(n=n))
        machine.trace.enabled = True
        base = all_pairs_minimum_cost(PPAMachine(PPAConfig(n=n)), W)
        res = all_pairs_minimum_cost(machine, W, workers=4)
        assert np.array_equal(base.dist, res.dist)
        assert res.shard_report["workers"] == 1
        assert "bus trace" in res.shard_report["blocked"]

    def test_direct_entry_raises_when_blocked(self, machine8):
        machine8.telemetry.enable()
        with pytest.raises(EngineError, match="span tracer"):
            sharded_all_pairs(machine8, np.zeros((8, 8)), workers=2)


class TestShardLayout:
    def test_contiguous_cover(self):
        shards = destination_shards(10, 3)
        assert shards == [(0, 4), (4, 7), (7, 10)]
        assert shards[0][0] == 0 and shards[-1][1] == 10
        for (a, b), (c, _) in zip(shards, shards[1:]):
            assert b == c

    def test_clamps_and_validates(self):
        assert destination_shards(2, 99) == [(0, 1), (1, 2)]
        with pytest.raises(EngineError, match="workers"):
            destination_shards(4, 0)

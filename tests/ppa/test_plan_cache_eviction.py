"""Plan-cache eviction under interleaved workloads.

The two module-wide LRUs in :mod:`repro.ppa.segments` — shared-plane
broadcast and reduce plans — are host-side accelerators; per-lane plane
stacks are resolved per call and never cached. The LRUs must (a) stay
within their documented bound no matter how many distinct
machines/workloads hammer them, (b) evict least-recently used entries
first, and (c) never leak hit/miss accounting into any machine counter
snapshot.
"""

import numpy as np
import pytest

from repro.core import minimum_cost_path
from repro.errors import GraphError
from repro.core.batched import batched_minimum_cost_path
from repro.ppa import FaultKind, FaultPlan, PPAConfig, PPAMachine
from repro.ppa.directions import EAST
from repro.ppa.segments import (
    _PLAN_CACHE_SIZE,
    _broadcast_plans,
    clear_plan_cache,
    plan_cache_sizes,
    reset_plan_cache_stats,
)
from repro.workloads import WeightSpec, gnp_digraph


@pytest.fixture(autouse=True)
def _fresh():
    clear_plan_cache()
    reset_plan_cache_stats()
    yield
    clear_plan_cache()


def _graph(n, seed, maxint):
    return gnp_digraph(n, 0.5, seed=seed, weights=WeightSpec(1, 9),
                      inf_value=maxint)


def _run_serial(n, seed=0):
    machine = PPAMachine(PPAConfig(n=n, word_bits=16))
    W = _graph(n, seed, machine.maxint)
    minimum_cost_path(machine, W, 0, engine="cycle")


def _run_batched(n, batch, seed=0):
    machine = PPAMachine(PPAConfig(n=n, word_bits=16), batch=batch)
    W = _graph(n, seed, machine.maxint)
    dest = np.arange(batch) % n
    batched_minimum_cost_path(machine, W, dest, engine="cycle")


def _run_faulted(n, row, col, seed=0):
    machine = PPAMachine(PPAConfig(n=n, word_bits=16))
    plan = FaultPlan()
    plan.add(row, col, FaultKind.STUCK_OPEN)
    machine.inject_faults(plan)
    W = _graph(n, seed, machine.maxint)
    try:
        minimum_cost_path(machine, W, 0)  # auto falls back to cycle
    except GraphError:
        pass  # a stuck-open switch may break convergence; we only
        # care that the faulted planes exercised the caches


class TestBounds:
    def test_documented_bounds(self):
        assert _PLAN_CACHE_SIZE == 64

    def test_interleaved_workloads_stay_bounded(self):
        """Serial, batched and faulted runs over many shapes interleaved:
        no cache may ever exceed its bound."""
        for i, n in enumerate(range(2, 14)):
            _run_serial(n, seed=i)
            _run_batched(n, batch=(i % 3) + 1, seed=i)
            if n >= 3:
                _run_faulted(n, row=1, col=n // 2, seed=i)
            sizes = plan_cache_sizes()
            assert set(sizes) == {"broadcast", "reduce"}
            assert sizes["broadcast"] <= _PLAN_CACHE_SIZE
            assert sizes["reduce"] <= _PLAN_CACHE_SIZE

    def test_plane_churn_saturates_at_bound(self):
        """Enough distinct planes to overflow: the per-plane LRU pins at
        exactly its bound and keeps serving."""
        machine = PPAMachine(PPAConfig(n=8, word_bits=16))
        data = np.arange(64, dtype=np.int64).reshape(8, 8)
        rng = np.random.default_rng(0)
        for _ in range(_PLAN_CACHE_SIZE + 20):
            plane = rng.random((8, 8)) < 0.5
            machine.broadcast(data, EAST, plane)
        assert plan_cache_sizes()["broadcast"] == _PLAN_CACHE_SIZE

    def test_stack_churn_adds_no_cache_entries(self):
        """Distinct batched stacks are resolved per call: however many
        pass through, they leave no plan behind."""
        machine = PPAMachine(PPAConfig(n=4, word_bits=16), batch=3)
        data = np.ones((3, 4, 4), dtype=np.int64)
        rng = np.random.default_rng(1)
        for _ in range(_PLAN_CACHE_SIZE + 10):
            stack = rng.random((3, 4, 4)) < 0.5
            machine.broadcast(data, EAST, stack)
            machine.bus_reduce(data, EAST, stack, "sum")
        assert plan_cache_sizes() == {"broadcast": 0, "reduce": 0}
        assert machine.counters.plan_cache.misses == 2 * (_PLAN_CACHE_SIZE + 10)


class TestLRUOrder:
    def test_least_recently_used_is_evicted_first(self):
        machine = PPAMachine(PPAConfig(n=4, word_bits=16))
        data = np.arange(16, dtype=np.int64).reshape(4, 4)

        def plane(i):
            # Bit pattern of i: distinct for every i < 2**16.
            bits = [(i >> b) & 1 for b in range(16)]
            return np.array(bits, dtype=bool).reshape(4, 4)

        first = plane(0)
        machine.broadcast(data, EAST, first)
        key0 = next(iter(_broadcast_plans))
        # Fill to the brim with other planes, touching the first again
        # midway so it is *not* the LRU victim.
        for i in range(1, _PLAN_CACHE_SIZE - 1):
            machine.broadcast(data, EAST, plane(i))
        machine.broadcast(data, EAST, first)  # refresh
        for i in range(_PLAN_CACHE_SIZE, _PLAN_CACHE_SIZE + 10):
            machine.broadcast(data, EAST, plane(i))
        assert key0 in _broadcast_plans  # survived: it was refreshed
        assert len(_broadcast_plans) == _PLAN_CACHE_SIZE


class TestStatsIsolation:
    def test_stats_never_enter_counter_snapshots(self):
        machine = PPAMachine(PPAConfig(n=6, word_bits=16), batch=2)
        W = _graph(6, 7, machine.maxint)
        res = batched_minimum_cost_path(machine, W, [0, 1], engine="cycle")
        stats_fields = {
            "broadcast_hits", "broadcast_misses", "reduce_hits",
            "reduce_misses", "hits", "misses",
        }
        assert not stats_fields & set(res.counters)
        assert not stats_fields & set(machine.counters.snapshot())
        for name in res.lane_counters:
            assert name not in stats_fields

    def test_eviction_churn_is_counter_neutral(self):
        """Two identical runs, one against a cold cache and one against a
        cache poisoned past its bound, charge identical counters."""
        def run():
            machine = PPAMachine(PPAConfig(n=5, word_bits=16))
            W = _graph(5, 3, machine.maxint)
            return minimum_cost_path(machine, W, 1, engine="cycle").counters

        cold = run()
        # Poison: overflow the plane LRU with junk planes.
        machine = PPAMachine(PPAConfig(n=5, word_bits=16))
        data = np.zeros((5, 5), dtype=np.int64)
        rng = np.random.default_rng(9)
        for _ in range(_PLAN_CACHE_SIZE + 5):
            machine.broadcast(data, EAST, rng.random((5, 5)) < 0.5)
        assert run() == cold

"""The analytic cost vector: replay correctness, the constant-size
derivation, and cache behaviour."""

import itertools
import multiprocessing as mp
import sys
import threading

import numpy as np
import pytest

import repro.engine.costs as costs
from repro.core import minimum_cost_path
from repro.engine import (
    clear_cost_cache,
    cost_cache_size,
    cost_cache_stats,
    mcp_cost_vector,
    reset_cost_cache_stats,
)
from repro.engine.costs import _COST_CACHE_SIZE
from repro.errors import EngineError
from repro.ppa import BusCostModel, PPAConfig, PPAMachine
from repro.workloads import WeightSpec, gnp_digraph

_DERIVED_CONFIGS = [
    PPAConfig(n=n, word_bits=h, bus_cost_model=model)
    for model, h, n in itertools.product(
        BusCostModel, (2, 8, 16, 30, 62), (1, 2, 3, 5, 6, 7, 33, 64, 257)
    )
] + [
    PPAConfig(n=n, bus_cost_model=model, torus=torus, strict_bus=strict)
    for model, torus, strict, n in itertools.product(
        BusCostModel, (True, False), (True, False), (2, 6, 40)
    )
    if not (torus and not strict)
] + [PPAConfig(n=512, bus_cost_model=model) for model in BusCostModel]


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cost_cache()
    reset_cost_cache_stats()
    yield
    clear_cost_cache()


class TestVector:
    def test_probe_verifies_two_rounds_when_possible(self):
        vec = mcp_cost_vector(PPAConfig(n=8, word_bits=16))
        assert vec.probe_iterations == 2

    def test_probe_falls_back_to_one_round_on_n2(self):
        vec = mcp_cost_vector(PPAConfig(n=2, word_bits=8))
        assert vec.probe_iterations == 1

    def test_total_is_init_plus_k_iterations(self):
        vec = mcp_cost_vector(PPAConfig(n=5, word_bits=16))
        k = 7
        for name, value in vec.total(k).items():
            assert value == vec.init[name] + k * vec.iteration[name]

    @pytest.mark.parametrize("word_bits", [8, 12, 16])
    def test_replay_matches_cycle_run_exactly(self, word_bits):
        """init + iterations * iteration == an arbitrary cycle run's
        counter delta (the whole point of the replay)."""
        config = PPAConfig(n=8, word_bits=word_bits)
        vec = mcp_cost_vector(config)
        machine = PPAMachine(config)
        W = gnp_digraph(8, 0.4, seed=9, weights=WeightSpec(1, 9),
                        inf_value=machine.maxint)
        res = minimum_cost_path(machine, W, 3, engine="cycle")
        assert vec.total(res.iterations) == res.counters

    def test_vector_depends_on_bus_cost_model(self):
        unit = mcp_cost_vector(PPAConfig(n=6, word_bits=16))
        linear = mcp_cost_vector(
            PPAConfig(n=6, word_bits=16, bus_cost_model=BusCostModel.LINEAR)
        )
        assert unit.iteration["bus_cycles"] < linear.iteration["bus_cycles"]
        # Instruction issue counts are model-independent.
        assert unit.iteration["instructions"] == linear.iteration["instructions"]

    @pytest.mark.parametrize(
        "config",
        _DERIVED_CONFIGS,
        ids=lambda c: (
            f"{c.bus_cost_model.name}-h{c.word_bits}-n{c.n}"
            f"{'' if c.torus else '-mesh'}{'-strict' if c.strict_bus else ''}"
        ),
    )
    def test_derived_equals_full_size_replay(self, config):
        """The fit over constant-size replays reproduces the replay on the
        full grid (probe_iterations may differ: it comes from the small
        replays)."""
        vec = mcp_cost_vector(config)
        full = costs._replay(config)
        assert vec.config == config
        assert vec.init == full.init
        assert vec.iteration == full.iteration

    def test_superlinear_charge_is_refused(self, monkeypatch):
        """A charge growing with n**2 breaks the affine fit's third-point
        check instead of being extrapolated."""
        monkeypatch.setattr(
            PPAConfig, "bus_transaction_cycles", lambda self: self.n * self.n
        )
        with pytest.raises(EngineError, match="not affine"):
            mcp_cost_vector(PPAConfig(n=8, word_bits=8))
        assert cost_cache_size() == 0

    def test_vector_scales_with_word_width(self):
        h8 = mcp_cost_vector(PPAConfig(n=6, word_bits=8))
        h16 = mcp_cost_vector(PPAConfig(n=6, word_bits=16))
        # The bit-serial min dominates: 2h wired-ORs per iteration.
        assert h16.iteration["reductions"] - h8.iteration["reductions"] == 16


class TestCache:
    def test_hit_miss_accounting(self):
        config = PPAConfig(n=5, word_bits=16)
        mcp_cost_vector(config)
        assert cost_cache_stats() == {"hits": 0, "misses": 1}
        again = mcp_cost_vector(PPAConfig(n=5, word_bits=16))
        assert cost_cache_stats() == {"hits": 1, "misses": 1}
        assert again.config == config
        assert cost_cache_size() == 1

    def test_distinct_configs_probe_separately(self):
        mcp_cost_vector(PPAConfig(n=5, word_bits=16))
        mcp_cost_vector(PPAConfig(n=5, word_bits=8))
        mcp_cost_vector(
            PPAConfig(n=6, word_bits=16, bus_cost_model=BusCostModel.LINEAR)
        )
        assert cost_cache_stats()["misses"] == 3
        assert cost_cache_size() == 3

    @pytest.mark.parametrize("model", list(BusCostModel), ids=lambda m: m.name)
    def test_grid_side_keys_the_cache_only_under_linear(self, model):
        """UNIT vectors do not depend on n, so three grid sizes derive
        once; LINEAR ones do, so each size derives its own. Every lookup
        returns a vector for the configuration it asked for."""
        sides = (64, 128, 256)
        for n in sides:
            config = PPAConfig(n=n, word_bits=16, bus_cost_model=model)
            vec = mcp_cost_vector(config)
            assert vec.config == config
            fresh = costs._probe(config)
            assert (vec.init, vec.iteration) == (fresh.init, fresh.iteration)
        linear = model is BusCostModel.LINEAR
        misses = len(sides) if linear else 1
        assert cost_cache_stats() == {
            "hits": len(sides) - misses, "misses": misses,
        }
        assert cost_cache_size() == misses

    @pytest.mark.parametrize("word_bits", [8, 16])
    @pytest.mark.parametrize(
        "torus, strict", list(itertools.product([True, False], repeat=2))
    )
    def test_unit_vector_is_the_same_at_every_grid_side(
        self, word_bits, torus, strict
    ):
        """The premise of the UNIT cache key, from fresh derivations."""
        vectors = [
            costs._probe(PPAConfig(n=n, word_bits=word_bits, torus=torus,
                                   strict_bus=strict))
            for n in (1, 2, 3, 5, 6, 64, 256)
        ]
        for vec in vectors[1:]:
            assert vec.init == vectors[0].init
            assert vec.iteration == vectors[0].iteration

    def test_clear_cache_forces_reprobe(self):
        config = PPAConfig(n=4, word_bits=16)
        first = mcp_cost_vector(config)
        clear_cost_cache()
        assert cost_cache_size() == 0
        second = mcp_cost_vector(config)
        assert cost_cache_stats()["misses"] == 2
        assert first.init == second.init
        assert first.iteration == second.iteration

    def test_lru_stays_bounded(self):
        for word_bits in range(2, 2 + _COST_CACHE_SIZE + 8):
            mcp_cost_vector(PPAConfig(n=4, word_bits=word_bits))
        assert cost_cache_stats()["misses"] == _COST_CACHE_SIZE + 8
        assert cost_cache_size() == _COST_CACHE_SIZE

    def test_racing_threads_derive_once(self):
        config = PPAConfig(n=256, word_bits=16)
        threads = 8
        barrier = threading.Barrier(threads)
        vectors = []

        def lookup():
            barrier.wait(timeout=30)
            vectors.append(mcp_cost_vector(config))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=lookup) for _ in range(threads)]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in pool)
        assert len(vectors) == threads
        assert cost_cache_stats() == {"hits": threads - 1, "misses": 1}
        assert all(v is vectors[0] for v in vectors)

    def test_forked_child_looks_up_while_parent_thread_holds_lock(self):
        """A child forked while another thread holds the cache lock gets a
        fresh lock, and keeps the vectors the parent already derived."""
        config = PPAConfig(n=6, word_bits=16)
        vector = mcp_cost_vector(config)
        ctx = mp.get_context("fork")
        out = ctx.Queue()
        held, release = threading.Event(), threading.Event()

        def hold():
            with costs._lock:
                held.set()
                release.wait(timeout=60)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert held.wait(timeout=30)
            child = ctx.Process(target=_child_lookup, args=(config, out))
            child.start()
            try:
                got = out.get(timeout=30)
            finally:
                child.join(timeout=30)
                if child.is_alive():
                    child.kill()
                    child.join()
        finally:
            release.set()
            holder.join(timeout=30)
        assert not holder.is_alive()
        assert child.exitcode == 0
        assert got == (vector.init, vector.iteration, {"hits": 1, "misses": 0})

    def test_probe_counters_never_leak_into_caller(self, machine8):
        """Probing runs on a scratch machine: the caller's books and the
        module-wide probe must not interact."""
        before = machine8.counters.snapshot()
        mcp_cost_vector(machine8.config)
        assert machine8.counters.snapshot() == before


def _child_lookup(config, out):
    reset_cost_cache_stats()
    vector = mcp_cost_vector(config)
    out.put((vector.init, vector.iteration, cost_cache_stats()))

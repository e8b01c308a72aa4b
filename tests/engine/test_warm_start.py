"""Warm-started analytic solves must be bit-identical to cold solves.

The serving tier's incremental re-solve path seeds `run_analytic_mcp`
with certified upper bounds (`warm_sow`). The contract (proved in
`repro/engine/_loop.py`): for ANY seed that is an entrywise-sound upper
bound, the returned SOW, PTN and iteration count are byte-for-byte what
the cold run returns. A seed that is NOT a sound upper bound (claims a
cost below the true fixpoint) must be detected and rejected, never
silently served.
"""

import numpy as np
import pytest

from repro.core.apsp import all_pairs_minimum_cost
from repro.core.batched import batched_minimum_cost_path
from repro.core.mcp import minimum_cost_path
from repro.errors import GraphError
from repro.ppa.machine import PPAMachine
from repro.ppa.topology import PPAConfig
from repro.serve.delta import apply_edge_delta, certify_warm_plane

ENGINES = ("fused", "compiled")


def machine(n, word_bits=16):
    return PPAMachine(PPAConfig(n=n, word_bits=word_bits))


def random_grid(n, rng, density=0.4, maxint=(1 << 16) - 1):
    W = np.full((n, n), maxint, dtype=np.int64)
    mask = rng.random((n, n)) < density
    W[mask] = rng.integers(1, 10, size=int(mask.sum()))
    np.fill_diagonal(W, 0)
    return W


class TestWarmEqualsCold:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_certified_seed_reproduces_cold_run_exactly(self, engine):
        rng = np.random.default_rng(11)
        for trial in range(15):
            n = int(rng.integers(5, 14))
            m = machine(n)
            W_old = random_grid(n, rng)
            cold_old = {
                d: minimum_cost_path(m, W_old, d, engine=engine)
                for d in range(n)
            }
            # perturb a few edges, certify old answers as warm seeds
            edges = []
            for _ in range(int(rng.integers(1, 4))):
                u = int(rng.integers(0, n))
                v = int(rng.integers(0, n - 1))
                v += v >= u
                w = None if rng.random() < 0.3 else int(rng.integers(1, 10))
                edges.append((u, v, m.maxint if w is None else w))
            W_new = apply_edge_delta(W_old, edges, m.maxint)
            for d in range(n):
                seed = certify_warm_plane(
                    W_new, cold_old[d].sow[:, None], cold_old[d].ptn[:, None],
                    [d], m.maxint,
                )[:, 0]
                cold = minimum_cost_path(m, W_new, d, engine=engine)
                warm = minimum_cost_path(m, W_new, d, engine=engine,
                                         warm_sow=seed)
                np.testing.assert_array_equal(warm.sow, cold.sow)
                np.testing.assert_array_equal(warm.ptn, cold.ptn)
                assert warm.iterations == cold.iterations

    @pytest.mark.parametrize("engine", ENGINES)
    def test_exact_fixpoint_seed_reproduces_cold_run(self, engine):
        # the tightest sound seed there is: the answer itself
        rng = np.random.default_rng(23)
        n = 10
        m = machine(n)
        W = random_grid(n, rng)
        for d in range(n):
            cold = minimum_cost_path(m, W, d, engine=engine)
            warm = minimum_cost_path(m, W, d, engine=engine,
                                     warm_sow=cold.sow.copy())
            np.testing.assert_array_equal(warm.sow, cold.sow)
            np.testing.assert_array_equal(warm.ptn, cold.ptn)
            assert warm.iterations == cold.iterations

    @pytest.mark.parametrize("engine", ENGINES)
    def test_batched_warm_plane_matches_cold(self, engine):
        rng = np.random.default_rng(31)
        n = 9
        m = machine(n)
        W_old = random_grid(n, rng)
        res_old = all_pairs_minimum_cost(m, W_old, engine=engine)
        edges = [(0, 1, 1), (3, 4, m.maxint)]
        W_new = apply_edge_delta(W_old, edges, m.maxint)
        dests = np.arange(n, dtype=np.int64)
        warm_plane = certify_warm_plane(
            W_new, res_old.dist, res_old.succ, dests, m.maxint
        )
        cold = batched_minimum_cost_path(m.lanes(n), W_new, dests,
                                         engine=engine)
        warm = batched_minimum_cost_path(
            m.lanes(n), W_new, dests, engine=engine,
            warm_sow=np.ascontiguousarray(warm_plane.T),
        )
        np.testing.assert_array_equal(warm.sow, cold.sow)
        np.testing.assert_array_equal(warm.ptn, cold.ptn)
        np.testing.assert_array_equal(warm.iterations, cold.iterations)

    def test_apsp_sweep_accepts_warm_plane(self):
        rng = np.random.default_rng(47)
        n = 8
        m = machine(n)
        W = random_grid(n, rng)
        cold = all_pairs_minimum_cost(m, W, engine="fused")
        warm = all_pairs_minimum_cost(m, W, engine="fused",
                                      warm_sow=cold.dist)
        np.testing.assert_array_equal(warm.dist, cold.dist)
        np.testing.assert_array_equal(warm.succ, cold.succ)
        np.testing.assert_array_equal(warm.iterations, cold.iterations)


class TestUnsoundSeedRejected:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_lying_seed_raises_instead_of_serving_wrong_cost(self, engine):
        rng = np.random.default_rng(5)
        n = 8
        m = machine(n)
        W = random_grid(n, rng)
        cold = minimum_cost_path(m, W, 0, engine=engine)
        finite = np.flatnonzero(
            (cold.sow > 0) & (cold.sow < m.maxint)
        )
        assert finite.size, "graph too sparse for the test to bite"
        lying = cold.sow.copy()
        lying[finite[0]] -= 1  # claims a cost below the true fixpoint
        with pytest.raises(GraphError):
            minimum_cost_path(m, W, 0, engine=engine, warm_sow=lying)

    def test_cycle_engine_ignores_warm_seed(self):
        # the simulator is ground truth: it always runs cold, so even a
        # lying seed changes nothing
        rng = np.random.default_rng(7)
        n = 7
        m = machine(n)
        W = random_grid(n, rng)
        cold = minimum_cost_path(m, W, 0, engine="cycle")
        lying = np.zeros(n, dtype=np.int64)
        warm = minimum_cost_path(m, W, 0, engine="cycle", warm_sow=lying)
        np.testing.assert_array_equal(warm.sow, cold.sow)
        np.testing.assert_array_equal(warm.ptn, cold.ptn)
        assert warm.iterations == cold.iterations

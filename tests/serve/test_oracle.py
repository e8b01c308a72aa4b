"""Answer verification: the fixpoint check accepts truth, rejects lies."""

import tracemalloc

import numpy as np
import pytest

from repro.core import all_pairs_minimum_cost, minimum_cost_path
from repro.ppa import PPAConfig, PPAMachine
from repro.serve.oracle import (
    _min_plus_column,
    bellman_reference,
    oracle_csr,
    verify_apsp,
    verify_mcp,
)
from repro.workloads import WeightSpec, gnp_digraph

MAXINT = (1 << 16) - 1


def _graph(n, seed=11, density=0.35):
    rng = np.random.default_rng(seed)
    W = rng.integers(1, 9, size=(n, n)).astype(np.int64)
    W[rng.random((n, n)) < 1.0 - density] = MAXINT
    np.fill_diagonal(W, 0)
    return W


@pytest.fixture(params=[6, 10])
def solved(request):
    n = request.param
    W = _graph(n)
    machine = PPAMachine(PPAConfig(n=n, word_bits=16))
    res = minimum_cost_path(machine, W, 0)
    return W, res


class TestVerifyMcp:
    def test_accepts_engine_output(self, solved):
        W, res = solved
        assert verify_mcp(W, res.sow, res.ptn, 0, MAXINT) == []

    def test_rejects_wrong_cost(self, solved):
        W, res = solved
        sow = res.sow.copy()
        victim = int(np.flatnonzero((sow > 0) & (sow < MAXINT))[0])
        sow[victim] += 1
        problems = verify_mcp(W, sow, res.ptn, 0, MAXINT)
        assert any("fixpoint violated" in p for p in problems)

    def test_rejects_fake_reachability(self, solved):
        W, res = solved
        sow = res.sow.copy()
        unreachable = np.flatnonzero(sow >= MAXINT)
        if unreachable.size == 0:
            pytest.skip("all vertices reachable in this instance")
        sow[int(unreachable[0])] = 7  # claim a path that does not exist
        assert verify_mcp(W, sow, res.ptn, 0, MAXINT) != []

    def test_rejects_nonzero_destination(self, solved):
        W, res = solved
        sow = res.sow.copy()
        sow[0] = 1
        problems = verify_mcp(W, sow, res.ptn, 0, MAXINT)
        assert any("expected 0" in p for p in problems)

    def test_rejects_bad_successor(self, solved):
        W, res = solved
        ptn = res.ptn.copy()
        reachable = np.flatnonzero((res.sow < MAXINT)
                                   & (np.arange(len(ptn)) != 0))
        v = int(reachable[0])
        # point v at a vertex that is not on any optimal continuation
        for candidate in range(len(ptn)):
            if candidate == ptn[v]:
                continue
            edge = W[v, candidate]
            if edge >= MAXINT or res.sow[candidate] >= MAXINT \
                    or edge + res.sow[candidate] != res.sow[v]:
                ptn[v] = candidate
                break
        problems = verify_mcp(W, res.sow, ptn, 0, MAXINT)
        assert any("ptn" in p for p in problems)

    def test_rejects_self_supporting_underestimate(self, solved):
        # the zero diagonal must not let a vertex claim cost 0 to
        # everything with itself as successor (the stuck-open bus fault
        # signature: seed-34 chaos regression)
        W, res = solved
        sow, ptn = res.sow.copy(), res.ptn.copy()
        victim = int(np.flatnonzero(sow > 0)[0])
        sow[victim] = 0
        ptn[victim] = victim
        problems = verify_mcp(W, sow, ptn, 0, MAXINT)
        assert problems != []

    def test_rejects_mutually_supporting_cycle(self):
        # two vertices joined by zero-weight edges claiming each other as
        # successors telescope perfectly but never reach the destination
        W = np.full((4, 4), MAXINT, dtype=np.int64)
        np.fill_diagonal(W, 0)
        W[1, 0] = 5
        W[2, 3] = 0
        W[3, 2] = 0
        W[2, 0] = 9
        sow = np.array([0, 5, 2, 2], dtype=np.int64)
        ptn = np.array([0, 0, 3, 2], dtype=np.int64)
        problems = verify_mcp(W, sow, ptn, 0, MAXINT)
        assert any("cycle" in p for p in problems)

    def test_rejects_out_of_range(self, solved):
        W, res = solved
        sow = res.sow.copy()
        sow[1] = -3
        assert verify_mcp(W, sow, res.ptn, 0, MAXINT) != []
        assert verify_mcp(W, res.sow, res.ptn, len(sow), MAXINT) != []
        assert verify_mcp(W, res.sow[:-1], res.ptn, 0, MAXINT) != []


class TestVerifyApsp:
    def test_accepts_engine_output(self):
        W = _graph(8)
        machine = PPAMachine(PPAConfig(n=8, word_bits=16))
        res = all_pairs_minimum_cost(machine, W)
        assert verify_apsp(W, res.dist, res.succ, MAXINT) == []

    def test_rejects_corruption_anywhere(self):
        W = _graph(8)
        machine = PPAMachine(PPAConfig(n=8, word_bits=16))
        res = all_pairs_minimum_cost(machine, W)
        dist = res.dist.copy()
        off = np.argwhere((dist > 0) & (dist < MAXINT))
        v, d = off[len(off) // 2]
        dist[v, d] -= 1
        problems = verify_apsp(W, dist, res.succ, MAXINT)
        assert any("fixpoint violated" in p for p in problems)

    def test_rejects_self_supporting_underestimate(self):
        W = _graph(8)
        machine = PPAMachine(PPAConfig(n=8, word_bits=16))
        res = all_pairs_minimum_cost(machine, W)
        dist, succ = res.dist.copy(), res.succ.copy()
        off = np.argwhere((dist > 0) & (dist < MAXINT))
        v, d = (int(x) for x in off[0])
        dist[v, d] = 0
        succ[v, d] = v
        assert verify_apsp(W, dist, succ, MAXINT) != []

    def test_rejects_nonzero_diagonal(self):
        W = _graph(6)
        machine = PPAMachine(PPAConfig(n=6, word_bits=16))
        res = all_pairs_minimum_cost(machine, W)
        dist = res.dist.copy()
        dist[2, 2] = 5
        problems = verify_apsp(W, dist, res.succ, MAXINT)
        assert any("diagonal" in p for p in problems)


class TestBellmanReference:
    def test_matches_the_machine(self, solved):
        W, res = solved
        np.testing.assert_array_equal(
            bellman_reference(W, 0, MAXINT), res.sow
        )

    def test_every_destination(self):
        n = 7
        W = _graph(n, seed=5)
        machine = PPAMachine(PPAConfig(n=n, word_bits=16))
        apsp = all_pairs_minimum_cost(machine, W)
        for d in range(n):
            np.testing.assert_array_equal(
                bellman_reference(W, d, MAXINT), apsp.dist[:, d]
            )


def _dense_verify_mcp(W, sow, ptn, d, maxint):
    """The dense reference: the same checks as verify_mcp, with the
    fixpoint from a full ``n x n`` min-plus and an n-step walk."""
    W, sow, ptn = (np.asarray(a, dtype=np.int64) for a in (W, sow, ptn))
    n = W.shape[0]
    if sow.shape != (n,) or ptn.shape != (n,):
        return [f"shape mismatch: W {W.shape}, sow {sow.shape}, "
                f"ptn {ptn.shape}"]
    if not 0 <= d < n:
        return [f"destination {d} out of range for n={n}"]
    problems = []
    if sow[d] != 0:
        problems.append(f"sow[{d}] = {int(sow[d])}, expected 0")
    if (sow < 0).any() or (sow > maxint).any():
        return problems + ["sow leaves [0, maxint]"]
    expected = _min_plus_column(W, sow, maxint, off_diagonal=True)
    expected[d] = 0
    bad = np.flatnonzero(expected != sow)
    for v in bad[:4]:
        problems.append(f"fixpoint violated at {int(v)}: sow={int(sow[v])}, "
                        f"min-plus={int(expected[v])}")
    if bad.size > 4:
        problems.append(f"... and {int(bad.size) - 4} more fixpoint "
                        "violations")
    reachable = sow < maxint
    via = np.flatnonzero(reachable & (np.arange(n) != d))
    if via.size:
        succ = ptn[via]
        if (succ < 0).any() or (succ >= n).any():
            problems.append("ptn points outside the vertex range")
            return problems
        edge = W[via, succ]
        hop_ok = ((succ != via) & (edge < maxint) & (sow[succ] < maxint)
                  & (sow[via] == edge + sow[succ]))
        bad_hop = np.flatnonzero(~hop_ok)
        if bad_hop.size:
            v = int(via[bad_hop[0]])
            problems.append(f"ptn inconsistent at {v}: sow={int(sow[v])} != "
                            f"W[v,ptn]+sow[ptn] ({int(bad_hop.size)} such)")
        elif not problems:
            pos = np.arange(n)
            for _ in range(n):
                pos = np.where(reachable & (pos != d), ptn[pos], pos)
            stuck = np.flatnonzero(reachable & (pos != d))
            if stuck.size:
                problems.append(f"ptn cycles without reaching {d} from "
                                f"{int(stuck[0])} ({int(stuck.size)} such)")
    return problems


def _dense_verify_apsp(W, dist, succ, maxint):
    """verify_apsp's verdict from one dense verify_mcp per column."""
    n = W.shape[0]
    return [p for d in range(n)
            for p in _dense_verify_mcp(W, dist[:, d], succ[:, d], d, maxint)]


def _random_case(rng):
    """A random grid — zero-weight edges, some rows emptied — and the
    engine's column for a random destination."""
    n = int(rng.integers(2, 30))
    W = rng.integers(0, 5, size=(n, n)).astype(np.int64)
    W[rng.random((n, n)) > rng.random()] = MAXINT
    W[rng.random(n) < 0.15, :] = MAXINT  # rows with no way out
    np.fill_diagonal(W, 0)
    d = int(rng.integers(0, n))
    res = minimum_cost_path(PPAMachine(PPAConfig(n=n, word_bits=16)), W, d)
    return W, d, res.sow, res.ptn


def _mutate(rng, kind, sow, ptn, d):
    sow, ptn = sow.copy(), ptn.copy()
    n = sow.size
    i, j = (int(x) for x in rng.integers(0, n, size=2))
    if kind == "lower":
        sow[i] = sow[i] - 1 if 0 < sow[i] < MAXINT else 2
    elif kind == "successor":
        ptn[i] = j
    elif kind == "unreachable":
        sow[i] = MAXINT
    elif kind == "cycle":
        ptn[i], ptn[j] = j, i
    elif kind == "garbage":
        sow[i] = int(rng.integers(0, 20))
        ptn[i] = int(rng.integers(-1, n + 1))
    return sow, ptn


class TestCsrMatchesDense:
    """The CSR fixpoint and the pointer-doubling walk give exactly the
    problem lists of the dense n x n reference."""

    KINDS = ("none", "lower", "successor", "unreachable", "cycle",
             "garbage")

    def test_verify_mcp_problem_lists(self):
        rng = np.random.default_rng(25)
        rejected = 0
        for _ in range(300):
            W, d, sow, ptn = _random_case(rng)
            csr = oracle_csr(W, MAXINT)
            for kind in self.KINDS:
                s, p = _mutate(rng, kind, sow, ptn, d)
                want = _dense_verify_mcp(W, s, p, d, MAXINT)
                assert verify_mcp(W, s, p, d, MAXINT) == want
                assert verify_mcp(W, s, p, d, MAXINT, csr=csr) == want
                rejected += bool(want)
                if kind == "none":
                    assert want == []
        assert rejected > 900  # the mutations mostly produce lies

    def test_zero_cost_successor_cycle(self):
        # 2 and 3 underestimate together over zero-weight edges: the
        # fixpoint and every hop hold, only the walk can refuse them
        W = np.full((5, 5), MAXINT, dtype=np.int64)
        np.fill_diagonal(W, 0)
        W[1, 0] = 4
        W[2, 3] = W[3, 2] = 0
        W[2, 1] = W[3, 1] = 9
        sow = np.array([0, 4, 1, 1, MAXINT], dtype=np.int64)
        ptn = np.array([0, 0, 3, 2, 4], dtype=np.int64)
        want = ["ptn cycles without reaching 0 from 2 (2 such)"]
        assert _dense_verify_mcp(W, sow, ptn, 0, MAXINT) == want
        assert verify_mcp(W, sow, ptn, 0, MAXINT) == want

    def test_csr_is_off_diagonal_and_read_only(self):
        W = _graph(9, seed=4)
        csr = oracle_csr(W, MAXINT)
        rows = np.repeat(csr.rows, np.diff(np.append(csr.starts,
                                                     csr.cols.size)))
        assert np.array_equal(W[rows, csr.cols], csr.weights)
        assert (rows != csr.cols).all()
        mask = W < MAXINT
        np.fill_diagonal(mask, False)
        assert csr.cols.size == np.count_nonzero(mask)
        for array in csr:
            assert not array.flags.writeable


class TestVerifyApspCsr:
    def _solved(self, n, seed, p=0.3):
        """A solved APSP plane whose vertices 1 and 2 are joined by
        zero-weight edges both ways."""
        W = gnp_digraph(n, p, seed=seed, weights=WeightSpec(0, 6))
        W = np.where(np.isfinite(W), W, MAXINT).astype(np.int64)
        W[1, 2] = W[2, 1] = 0
        np.fill_diagonal(W, 0)
        machine = PPAMachine(PPAConfig(n=n, word_bits=16))
        res = all_pairs_minimum_cost(machine, W)
        return W, res.dist.copy(), res.succ.copy()

    @pytest.mark.parametrize("kind", ["lowered", "successor", "cycle",
                                      "unreachable"])
    def test_corrupted_planes_match_dense_verdict(self, kind):
        for seed in range(6):
            W, dist, succ = self._solved(12, seed)
            n = W.shape[0]
            reach = np.argwhere((dist > 0) & (dist < MAXINT)
                                & (succ != np.arange(n)[None, :]))
            v, d = (int(x) for x in reach[len(reach) // 2])
            if kind == "lowered":
                dist[v, d] -= 1
            elif kind == "successor":
                # a vertex v has no edge to
                succ[v, d] = next(x for x in range(n) if W[v, x] >= MAXINT)
            elif kind == "cycle":
                # 1 and 2 cost the same everywhere: pointing them at each
                # other keeps every hop telescoping, only the walk fails
                d = next(d for d in range(3, n) if dist[1, d] < MAXINT)
                succ[1, d], succ[2, d] = 2, 1
            else:
                dist[int(succ[v, d]), d] = MAXINT
            want = _dense_verify_apsp(W, dist, succ, MAXINT)
            got = verify_apsp(W, dist, succ, MAXINT)
            assert (got == []) == (want == []), (kind, seed, got, want)
            assert got != []
            if kind == "cycle":
                # everything routed through 1 or 2 is stuck as well
                assert len(got) == 1 and got[0].startswith(
                    "succ cycles without reaching the destination")
                assert any("cycles" in line for line in want)
            assert verify_apsp(W, dist, succ, MAXINT,
                               csr=oracle_csr(W, MAXINT)) == got

    def test_correct_planes_verify(self):
        for seed in range(4):
            W, dist, succ = self._solved(16, seed, p=0.15)
            assert verify_apsp(W, dist, succ, MAXINT) == []
            assert _dense_verify_apsp(W, dist, succ, MAXINT) == []

    def test_problem_order_and_counts(self):
        """Several lies at once: the first four fixpoint violations in
        row-major order, then the count of the rest."""
        W, dist, succ = self._solved(12, 3)
        lied = dist.copy()
        lied[dist < MAXINT] += 1
        np.fill_diagonal(lied, 0)
        got = verify_apsp(W, lied, succ, MAXINT)
        expected = np.stack([
            _min_plus_column(W, lied[:, d], MAXINT, off_diagonal=True)
            for d in range(W.shape[0])
        ], axis=1)
        np.fill_diagonal(expected, 0)
        bad = np.argwhere(expected != lied)
        assert len(bad) > 4
        assert got[:5] == [
            f"fixpoint violated at ({v} -> {d}): dist={lied[v, d]}, "
            f"min-plus={expected[v, d]}" for v, d in bad[:4]
        ] + [f"... and {len(bad) - 4} more fixpoint violations"]
        assert got[5:] == [f"succ inconsistent at ({bad[0][0]} -> "
                           f"{bad[0][1]})"]

    def test_memory_stays_a_few_planes(self):
        """No (n, n, n) candidate cube: at n = 128 the check's peak
        traced allocation stays below four n x n int64 planes."""
        n = 128
        W = gnp_digraph(n, 16 / n, seed=1, weights=WeightSpec(1, 9))
        machine = PPAMachine(PPAConfig(n=n, word_bits=16))
        res = all_pairs_minimum_cost(machine, W)
        plane = np.where(np.isfinite(W), W, MAXINT).astype(np.int64)
        np.fill_diagonal(plane, 0)
        dist, succ = res.dist.copy(), res.succ.copy()
        tracemalloc.start()
        try:
            problems = verify_apsp(plane, dist, succ, MAXINT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert problems == []
        assert peak < 4 * n * n * 8, peak

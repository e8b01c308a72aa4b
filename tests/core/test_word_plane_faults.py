"""Transient flips of the top word bit reach the MCP listings' planes.

A flip of bit ``h - 1`` on every word transfer of the cycle listings —
SOW, MIN_SOW, PTN and the COL deliveries of ``selected_min()`` — must land
in the received word and survive the store that follows, whatever dtype
the listing keeps its planes in. Run at ``h = 16`` and on both sides of
every 8/16/32-bit dtype edge, for the serial and the batched listing.
"""

import numpy as np
import pytest

from repro.core import minimum_cost_path
from repro.core.batched import batched_minimum_cost_path
from repro.errors import GraphError
from repro.ppa import PPAConfig, PPAMachine
from repro.ppa.faults import FaultPlan
from repro.workloads import WeightSpec, gnp_digraph

N = 6
#: One faulty PE on destination 0's row, one off it: the listing stores
#: row-d transfers (statements 16 and 18) and off-row ones (10-12).
PES = ((0, 1), (3, 4))


def _spy(monkeypatch, word_bits):
    """Record every word transfer's flip and every store's losses."""
    flip = np.zeros((N, N), dtype=np.int64)
    for r, c in PES:
        flip[r, c] = 1 << (word_bits - 1)
    seen = {"transfers": 0, "bad_flips": [], "lossy_stores": []}
    corrupt, store = FaultPlan.corrupt, PPAMachine.store

    def spy_corrupt(self, values, axis, *, width):
        out = corrupt(self, values, axis, width=width)
        if width > 1:
            seen["transfers"] += 1
            wide = np.asarray(values).astype(np.int64)
            if not np.array_equal(out.astype(np.int64) ^ wide,
                                  np.broadcast_to(flip, wide.shape)):
                seen["bad_flips"].append(seen["transfers"])
        return out

    def spy_store(self, dest, value):
        mask = self.active_mask
        want = np.broadcast_to(np.asarray(value), dest.shape).astype(np.int64)
        out = store(self, dest, value)
        mask = np.broadcast_to(mask, dest.shape)
        if not np.array_equal(dest[mask].astype(np.int64), want[mask]):
            seen["lossy_stores"].append(dest.dtype)
        return out

    monkeypatch.setattr(FaultPlan, "corrupt", spy_corrupt)
    monkeypatch.setattr(PPAMachine, "store", spy_store)
    return seen


def _plan(word_bits):
    plan = FaultPlan(seed=0)
    for r, c in PES:
        plan.add_transient(r, c, word_bits - 1, 1.0)
    return plan


@pytest.mark.parametrize("word_bits", [8, 9, 16, 17, 32, 33])
@pytest.mark.parametrize("batched", [False, True], ids=["serial", "batched"])
def test_top_bit_flip_lands_on_every_word_transfer(
    monkeypatch, word_bits, batched
):
    machine = PPAMachine(PPAConfig(n=N, word_bits=word_bits))
    W = gnp_digraph(N, 0.5, seed=4, weights=WeightSpec(1, 9),
                    inf_value=machine.maxint)
    machine.inject_faults(_plan(word_bits))
    seen = _spy(monkeypatch, word_bits)
    try:  # a flip on every round may keep row d changing
        if batched:
            batched_minimum_cost_path(machine, W, [0, 2, 5], engine="cycle")
        else:
            minimum_cost_path(machine, W, 0, engine="cycle")
    except GraphError:
        pass
    rounds = machine.counters.global_ors
    assert rounds >= 1
    # The init's two broadcasts, then per round: statement 10's SOW,
    # min()'s two deliveries of SOW, selected_min()'s two of COL, and
    # statements 16 (MIN_SOW) and 18 (PTN).
    assert seen["transfers"] == 2 + 7 * rounds
    assert seen["bad_flips"] == []
    assert seen["lossy_stores"] == []

"""cycle == compiled at the word-dtype edges.

The cycle listings keep their planes at the narrowest unsigned dtype that
holds the word (8, 16 or 32 bits; int64 past 32), and ``sat_add`` adds
them one dtype wider. These seeded cases put the word on each side of
every dtype edge and compare the cycle engine against the compiled tier
on everything: ``dist``, ``succ``, iterations, the serial-equivalent and
batched counter books, and every lane's ledger. Both listings run: the
serial one for one destination, the batched one at ``B = 1``, 3 and 64
lanes (at ``n = 8``, 64 lanes repeat each destination eight times).
"""

import itertools

import numpy as np
import pytest

from repro.core import all_pairs_minimum_cost, minimum_cost_path
from repro.core.batched import batched_minimum_cost_path
from repro.ppa import BusCostModel, PPAConfig, PPAMachine
from repro.workloads import WeightSpec, gnp_digraph

#: ``(word_bits, n)``: the edges 15|16|17, 31|32|33 and 62 at n = 64, and
#: 7|8|9 at n = 8 (at n = 64 the headroom check needs ``h >= 10``).
WIDTHS = [(h, 64) for h in (15, 16, 17, 31, 32, 33, 62)] + [
    (h, 8) for h in (7, 8, 9)
]
#: ``(bus_cost_model, strict_bus)``; torus is off throughout.
BUSES = list(itertools.product(BusCostModel, (False, True)))


def _config(word_bits, n, model, strict):
    return PPAConfig(n=n, word_bits=word_bits, bus_cost_model=model,
                     strict_bus=strict, torus=False)


def _graph(config, seed):
    return gnp_digraph(config.n, min(1.0, 12 / config.n), seed=seed,
                       weights=WeightSpec(1, 9), inf_value=config.maxint)


def _assert_same_books(cyc, comp):
    assert cyc.counters == comp.counters
    assert cyc.lane_counters.keys() == comp.lane_counters.keys()
    for name, plane in cyc.lane_counters.items():
        assert np.array_equal(plane, comp.lane_counters[name]), name


def _case_id(case):
    (h, n), (model, strict) = case
    return f"h{h}-n{n}-{model.name}{'-strict' if strict else ''}"


CASES = list(itertools.product(WIDTHS, BUSES))


@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
def test_serial_and_few_lane_listings(case):
    (h, n), (model, strict) = case
    config = _config(h, n, model, strict)
    W = _graph(config, seed=h)
    d = n // 3
    cyc = minimum_cost_path(PPAMachine(config), W, d, engine="cycle")
    comp = minimum_cost_path(PPAMachine(config), W, d, engine="compiled")
    assert np.array_equal(cyc.sow, comp.sow)
    assert np.array_equal(cyc.ptn, comp.ptn)
    assert cyc.iterations == comp.iterations
    assert cyc.counters == comp.counters
    for dests in ([d], [n - 1, 0, d]):
        cyc = batched_minimum_cost_path(PPAMachine(config), W, dests,
                                        engine="cycle")
        comp = batched_minimum_cost_path(PPAMachine(config), W, dests,
                                         engine="compiled")
        assert np.array_equal(cyc.sow, comp.sow)
        assert np.array_equal(cyc.ptn, comp.ptn)
        assert np.array_equal(cyc.iterations, comp.iterations)
        _assert_same_books(cyc, comp)


#: 64 lanes: every width under one bus configuration from each model.
WIDE_CASES = [
    (width, bus) for width in WIDTHS
    for bus in ((BusCostModel.UNIT, False), (BusCostModel.LINEAR, True))
]


@pytest.mark.parametrize(
    "case", WIDE_CASES, ids=[_case_id(c) for c in WIDE_CASES]
)
def test_sixty_four_lane_listing(case):
    (h, n), (model, strict) = case
    config = _config(h, n, model, strict)
    W = _graph(config, seed=100 + h)
    if n == 64:
        cyc = all_pairs_minimum_cost(PPAMachine(config), W, engine="cycle")
        comp = all_pairs_minimum_cost(PPAMachine(config), W,
                                      engine="compiled")
        assert np.array_equal(cyc.dist, comp.dist)
        assert np.array_equal(cyc.succ, comp.succ)
        assert cyc.machine_counters == comp.machine_counters
    else:
        dests = np.arange(64) % n
        cyc = batched_minimum_cost_path(PPAMachine(config), W, dests,
                                        engine="cycle")
        comp = batched_minimum_cost_path(PPAMachine(config), W, dests,
                                         engine="compiled")
        assert np.array_equal(cyc.sow, comp.sow)
        assert np.array_equal(cyc.ptn, comp.ptn)
    assert np.array_equal(cyc.iterations, comp.iterations)
    _assert_same_books(cyc, comp)

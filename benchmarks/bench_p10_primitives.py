"""P10 — simulator throughput on the machine primitives.

Engineering benchmark (not a paper artefact): wall-clock of one simulated
bus transaction / reduction / bit-serial min at several array sizes, to
keep the simulator's own performance from regressing.
"""

import itertools

import numpy as np
import pytest

from repro.ppa import Direction, PPAConfig, PPAMachine
from repro.ppc.reductions import ppa_min


@pytest.fixture(params=[16, 64, 256], ids=lambda n: f"n={n}")
def machine(request):
    return PPAMachine(PPAConfig(n=request.param, word_bits=16))


def test_p10_broadcast(benchmark, machine):
    src = machine.new_parallel(7)
    L = machine.row_index == 0
    benchmark(lambda: machine.broadcast(src, Direction.SOUTH, L))


def test_p10_wired_or(benchmark, machine):
    bits = machine.bit(machine.col_index, 0)
    L = machine.col_index == 0
    benchmark(lambda: machine.bus_or(bits, Direction.EAST, L))


def test_p10_shift(benchmark, machine):
    src = machine.new_parallel(3)
    benchmark(lambda: machine.shift(src, Direction.EAST))


def test_p10_bit_serial_min(benchmark, machine):
    rng = np.random.default_rng(0)
    vals = rng.integers(0, machine.maxint, size=machine.shape)
    L = machine.col_index == machine.n - 1
    benchmark(lambda: ppa_min(machine, vals, Direction.WEST, L))


# -- Batched bus transactions at B = n = 64 (the n = 64 cycle APSP shape) --

B64 = 64


@pytest.fixture(scope="module")
def lanes64():
    machine = PPAMachine(PPAConfig(n=B64, word_bits=16), batch=B64)
    rng = np.random.default_rng(0)
    vals = rng.integers(0, machine.maxint, size=machine.parallel_shape)
    dest = np.arange(B64)[:, None, None]
    row_d = machine.row_index[None, :, :] == dest
    # min() survivors: each row's minimum achievers, ~2.7 ties per row
    # (the n = 64 APSP averages ~2.2), a fresh plane on every call.
    survivors = []
    for _ in range(32):
        coarse = rng.integers(0, 24, size=machine.parallel_shape)
        survivors.append(coarse == coarse.min(axis=-1, keepdims=True))
    dense = rng.random(machine.parallel_shape) < 0.5
    return machine, vals, row_d, itertools.cycle(survivors), dense


def test_p10_batched_shared_wired_or(benchmark, lanes64):
    """One of the 2h wired-ORs per MCP iteration: the shared col_last
    plane, one whole-ring cluster per row."""
    machine, vals, *_ = lanes64
    bits = (vals & 1) == 1
    col_last = machine.col_index == B64 - 1
    benchmark(lambda: machine.bus_or(bits, Direction.WEST, col_last))


def test_p10_batched_one_open_per_ring(benchmark, lanes64):
    """Statement 10's broadcast: a per-lane row-d stack, one Open per
    column ring."""
    machine, vals, row_d, *_ = lanes64
    benchmark(lambda: machine.broadcast(vals, Direction.SOUTH, row_d))


def test_p10_batched_sparse_survivors(benchmark, lanes64):
    """min()'s delivery broadcast: a per-lane stack of sparse survivors
    with ties, different on every call."""
    machine, vals, _row_d, survivors, _dense = lanes64
    benchmark(lambda: machine.broadcast(vals, Direction.EAST,
                                        next(survivors)))


def test_p10_batched_dense_stack_represented(benchmark, lanes64):
    """A dense random per-lane stack presented unchanged on every call:
    the case a content-keyed stack cache would serve from memory."""
    machine, vals, _row_d, _survivors, dense = lanes64
    benchmark(lambda: machine.broadcast(vals, Direction.EAST, dense))


# -- The listings' own word planes at B = n = 64 (uint16 for h = 16) --


def test_p10_batched_word_min(benchmark, lanes64):
    """min() on a word-dtype SOW stack against the shared col_last plane:
    h wired-ORs and the two delivery broadcasts."""
    machine, vals, *_ = lanes64
    sow = vals.astype(machine.word_dtype)
    col_last = machine.col_index == B64 - 1
    benchmark(lambda: ppa_min(machine, sow, Direction.WEST, col_last))


def test_p10_batched_word_sat_add_store(benchmark, lanes64):
    """Statement 10's arithmetic on word planes: sat_add of a SOW stack
    and W (summed one dtype wider), stored back under the per-lane
    off-row-d mask."""
    machine, vals, row_d, *_ = lanes64
    word = machine.word_dtype
    sow = vals.astype(word)
    W = vals[0].astype(word)
    dest = machine.new_parallel(0, word)

    def statement_10():
        with machine.where(~row_d):
            machine.store(dest, machine.sat_add(sow, W))

    benchmark(statement_10)

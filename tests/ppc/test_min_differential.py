"""Packed min() against a literal bool-plane reference.

The cycle simulator runs the paper's bit-serial elimination (statements
8-10) on row-packed 1-bit planes and resolves statement 12's broadcast at
the PEs of ``L`` only. The reference below is the bool-plane listing the
packed code replaced: one bool plane per 1-bit register, a wired-OR
resolved by the generic (never packed) reduction, and a full-plane
broadcast followed by the masked store into a copy of ``src``.

Both must agree transaction for transaction: outputs, scalar counters,
lane ledgers, span counters, bus-trace records, the type and message of
any error, and the fault plan's next random draw.
"""

from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ppa import Direction, FaultKind, FaultPlan, PPAConfig, PPAMachine
from repro.ppa.directions import opposite
from repro.ppa.switchbox import as_switch_plane
from repro.ppc import reductions


def _ref_wired_or(machine, bits, orientation, L):
    """``or(bits, orientation, L)`` over a 0/1 uint8 plane: the generic
    reduction, charged, traced and fault-drawn like ``bus_or``. A flip
    of a bit above 0 leaves the 1-bit result alone, as on the bus."""
    seen = machine.bus_reduce(bits.view(np.uint8), orientation, L, "max",
                              bits=1)
    return (seen & 1).astype(bool)


def _ref_survivors(machine, src, orientation, L, enable):
    h = machine.word_bits
    src = src.astype(machine.word_dtype, copy=False)
    enable = enable.copy()
    bit_j = np.empty(src.shape, dtype=bool)
    drive = np.empty(enable.shape, dtype=bool)
    tele = machine.telemetry
    for j in range(h - 1, -1, -1):
        with tele.span("min.bit_slice", j=j):
            machine.bit(src, j, out=bit_j)
            np.greater(enable, bit_j, out=drive)
            zero_seen = _ref_wired_or(machine, drive, orientation, L)
            machine.count_alu(2)
            np.logical_and(zero_seen, bit_j, out=drive)
            np.greater(enable, drive, out=enable)
            machine.count_alu(2)
    return enable


def _ref_deliver(machine, src, orientation, L, enable):
    with machine.telemetry.span("min.deliver"):
        to_heads = machine.broadcast(src, opposite(orientation), enable)
        L = as_switch_plane(L, machine.shape, lanes=machine.batch)
        shape = np.broadcast_shapes(to_heads.shape, L.shape)
        staged = np.array(np.broadcast_to(src, shape),
                          dtype=np.result_type(src, to_heads))
        np.copyto(staged, to_heads, where=L)
        machine.count_alu()
        return machine.broadcast(staged, orientation, L)


def _reference():
    stack = ExitStack()
    stack.enter_context(mock.patch.object(
        reductions, "_bit_serial_survivors", _ref_survivors))
    stack.enter_context(mock.patch.object(
        reductions, "_deliver_min", _ref_deliver))
    return stack


ROUTINES = {
    "min": lambda m, src, o, L, sel: reductions.ppa_min(m, src, o, L),
    "selected_min": reductions.ppa_selected_min,
    "max": lambda m, src, o, L, sel: reductions.ppa_max(m, src, o, L),
    "digit1": lambda m, src, o, L, sel: reductions.ppa_min_digit_serial(
        m, src, o, L, 1),
    "digit3": lambda m, src, o, L, sel: reductions.ppa_min_digit_serial(
        m, src, o, L, 3),
}


def _switches(rng, kind, n, lanes, orientation):
    """An ``L`` plane: one Open per ring, a sparse shared plane with
    undriven rings, or a per-lane stack."""
    if kind == "per-lane" and lanes is not None:
        return rng.random((lanes, n, n)) < rng.choice([0.05, 0.3])
    if kind == "one-per-ring":
        heads = rng.integers(0, n, size=n)
        plane = np.zeros((n, n), dtype=bool)
        if orientation.axis == 1:
            plane[np.arange(n), heads] = True
        else:
            plane[heads, np.arange(n)] = True
        return plane
    plane = rng.random((n, n)) < 2.0 / n
    plane[rng.integers(0, n)] = False  # an undriven row
    plane[:, rng.integers(0, n)] = False  # and column
    return plane


def _faults(rng, n, h, seed):
    plan = FaultPlan(seed=seed)
    pes = iter(rng.permutation(n * n)[:5].tolist())
    row_col = lambda: divmod(next(pes), n)  # noqa: E731
    if n * n >= 5:
        plan.add(*row_col(), rng.choice(list(FaultKind)), axis=1)
        plan.add_intermittent(*row_col(), FaultKind.STUCK_OPEN, 0.3)
        plan.add_intermittent(*row_col(), FaultKind.STUCK_SHORT, 0.4,
                              axis=0)
        plan.add_transient(*row_col(), 0, 0.3)
        plan.add_transient(*row_col(), int(rng.integers(0, h)), 0.5)
    return plan


def _spans(machine):
    def strip(span):
        return (span.name, span.counters,
                [strip(c) for c in span.children])
    return [strip(root) for root in machine.telemetry.roots]


def _run(case, reference):
    (n, lanes, orientation, kind, h, strict, conflicts, trace, faulty,
     routine, seed) = case
    rng = np.random.default_rng(seed)
    config = PPAConfig(n=n, word_bits=h, strict_bus=strict)
    machine = PPAMachine(config, batch=lanes, trace=trace,
                         check_bus_conflicts=conflicts)
    machine.telemetry.enabled = True
    plan = _faults(rng, n, h, seed) if faulty else None
    if plan is not None:
        machine.inject_faults(plan)
    shape = machine.parallel_shape
    # Few distinct values, so clusters hold ties; MAXINT included.
    pool = rng.integers(0, machine.maxint, size=4, endpoint=True)
    pool[0] = machine.maxint
    src = rng.choice(pool, size=shape)
    if routine == "selected_min" and rng.random() < 0.5:
        src = machine.col_index  # the MCP listing's shared COL plane
    L = _switches(rng, kind, n, lanes, orientation)
    selected = rng.random(shape) < rng.choice([0.02, 0.2, 0.9])
    with ExitStack() as stack:
        if reference:
            stack.enter_context(_reference())
        try:
            out = ROUTINES[routine](machine, src, orientation, L, selected)
            error = None
        except Exception as exc:  # compared by type and message
            out, error = None, (type(exc), str(exc))
    return {
        "out": out,
        "error": error,
        "counters": machine.counters.snapshot(),
        "lanes": (None if lanes is None
                  else machine.lane_counters.snapshot()),
        "spans": _spans(machine),
        "trace": machine.trace.records,
        "next_draw": None if plan is None else plan._rng.random(),
    }


def _assert_same(got, want):
    assert got["error"] == want["error"]
    if want["out"] is not None:
        assert got["out"].dtype == want["out"].dtype
        assert got["out"].shape == want["out"].shape
        np.testing.assert_array_equal(got["out"], want["out"])
    assert got["counters"] == want["counters"]
    if want["lanes"] is not None:
        assert got["lanes"].keys() == want["lanes"].keys()
        for name, plane in want["lanes"].items():
            np.testing.assert_array_equal(got["lanes"][name], plane)
    assert got["spans"] == want["spans"]
    assert got["trace"] == want["trace"]
    assert got["next_draw"] == want["next_draw"]


@st.composite
def cases(draw):
    n = draw(st.sampled_from([1, 3, 7, 8, 9, 63, 64, 65, 130]))
    lanes = draw(st.sampled_from(
        [None, 1, 3, 64] if n <= 9 else [None, 1, 3]))
    return (
        n,
        lanes,
        draw(st.sampled_from(list(Direction))),
        draw(st.sampled_from(["one-per-ring", "segmented", "per-lane"])),
        draw(st.sampled_from([8, 16, 17, 33])),
        draw(st.booleans()),  # strict bus
        draw(st.booleans()),  # bus-conflict screening
        draw(st.booleans()),  # bus trace
        draw(st.booleans()),  # fault plan
        draw(st.sampled_from(sorted(ROUTINES))),
        draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_packed_min_matches_bool_reference(case):
    _assert_same(_run(case, reference=False), _run(case, reference=True))


@pytest.mark.parametrize("orientation", list(Direction))
@pytest.mark.parametrize("routine", sorted(ROUTINES))
@pytest.mark.parametrize("kind", ["one-per-ring", "segmented", "per-lane"])
def test_batched_faulty_cases(orientation, routine, kind):
    """Every routine, orientation and plane kind on lanes of n = 64 (one
    word per row), traced, under a fault plan: once plain, once strict
    and screened for bus conflicts."""
    for strict in (False, True):
        case = (64, 8, orientation, kind, 16, strict, strict, True, True,
                routine, 7)
        _assert_same(_run(case, reference=False),
                     _run(case, reference=True))


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("orientation", list(Direction))
def test_ring_without_survivor(orientation, strict):
    """A selected_min ring with nothing selected leaves statement 12's
    broadcast undriven there: strict mode names its lane and ring,
    otherwise its receivers keep their own values."""
    n, lanes = 9, 4
    L = np.zeros((n, n), dtype=bool)
    selected = np.ones((lanes, n, n), dtype=bool)
    if orientation.axis == 1:
        L[:, 2] = True
        selected[2, 5, :] = False
    else:
        L[2, :] = True
        selected[2, :, 5] = False
    results = []
    for reference in (False, True):
        machine = PPAMachine(PPAConfig(n=n, word_bits=8, strict_bus=strict),
                             batch=lanes)
        src = np.arange(lanes * n * n).reshape(lanes, n, n) % 251
        with ExitStack() as stack:
            if reference:
                stack.enter_context(_reference())
            try:
                results.append(reductions.ppa_selected_min(
                    machine, src, orientation, L, selected))
            except Exception as exc:
                results.append((type(exc), str(exc)))
    got, want = results
    if strict:
        assert got == want
        assert "lane 2 ring 5" in got[1]
    else:
        np.testing.assert_array_equal(got, want)

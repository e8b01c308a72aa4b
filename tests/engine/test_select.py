"""Engine selection policy: eligibility, fallback reasons, hard requests."""

import numpy as np
import pytest

from repro.engine import (
    ENGINE_NAMES,
    EngineChoice,
    compiled_block_reason,
    fused_block_reason,
    resolve_engine,
)
from repro.errors import EngineError
from repro.ppa import FaultKind, FaultPlan, PPAConfig, PPAMachine
from repro.ppc.reductions import ppa_min, ppa_selected_min, word_parallel_min


class TestEligibility:
    def test_plain_machine_is_eligible(self, machine8):
        assert fused_block_reason(machine8) is None

    def test_fault_plan_blocks(self, machine8):
        plan = FaultPlan()
        plan.add(1, 1, FaultKind.STUCK_OPEN)
        machine8.inject_faults(plan)
        assert "fault plan" in fused_block_reason(machine8)
        machine8.clear_faults()
        assert fused_block_reason(machine8) is None

    def test_telemetry_blocks(self, machine8):
        machine8.telemetry.enable()
        assert "span tracer" in fused_block_reason(machine8)

    def test_bus_trace_blocks(self, machine8):
        machine8.trace.enabled = True
        assert "bus trace" in fused_block_reason(machine8)

    def test_non_default_min_routine_blocks(self, machine8):
        assert "min routine" in fused_block_reason(
            machine8, min_routine=word_parallel_min
        )
        assert fused_block_reason(machine8, min_routine=ppa_min) is None

    def test_non_default_selected_min_blocks(self, machine8):
        sentinel = lambda *a: None  # noqa: E731
        reason = fused_block_reason(machine8, selected_min_routine=sentinel)
        assert "selected_min" in reason
        assert (
            fused_block_reason(machine8, selected_min_routine=ppa_selected_min)
            is None
        )

    def test_tiny_grid_blocks(self):
        machine = PPAMachine(PPAConfig(n=1, word_bits=8))
        assert "grid side" in fused_block_reason(machine)

    def test_batched_machine_is_eligible(self):
        machine = PPAMachine(PPAConfig(n=4, word_bits=16), batch=3)
        assert fused_block_reason(machine) is None

    def test_lanes_view_inherits_blockers(self, machine8):
        machine8.trace.enabled = True
        view = machine8.lanes(4)
        assert "bus trace" in fused_block_reason(view)


    def test_compiled_blockers_match_fused(self, machine8):
        assert compiled_block_reason(machine8) is None
        machine8.trace.enabled = True
        assert compiled_block_reason(machine8) == fused_block_reason(machine8)


class TestResolve:
    def test_auto_upgrades_when_eligible(self, machine8):
        choice = resolve_engine(machine8, "auto")
        assert choice == EngineChoice(
            "compiled", "auto", "machine eligible for analytic execution"
        )
        assert choice.compiled and choice.analytic and not choice.fused

    def test_auto_prefers_compiled_on_large_grids(self):
        """``auto`` resolves to ``compiled`` at every eligible grid side,
        large or small; the kernel is chosen later, by the plane's
        density."""
        for n in (2, 64, 255, 256, 1024):
            machine = PPAMachine(PPAConfig(n=n, word_bits=16))
            choice = resolve_engine(machine, "auto")
            assert choice.name == "compiled", n
            assert choice.compiled and choice.analytic and not choice.fused

    def test_auto_large_grid_still_falls_back_when_blocked(self):
        machine = PPAMachine(PPAConfig(n=256, word_bits=16))
        machine.trace.enabled = True
        choice = resolve_engine(machine, "auto")
        assert choice.name == "cycle" and not choice.analytic

    def test_auto_falls_back_with_reason(self, machine8):
        machine8.trace.enabled = True
        choice = resolve_engine(machine8, "auto")
        assert choice.name == "cycle" and not choice.fused
        assert "bus trace" in choice.reason

    def test_cycle_always_honoured(self, machine8):
        assert resolve_engine(machine8, "cycle").name == "cycle"
        machine8.telemetry.enable()
        assert resolve_engine(machine8, "cycle").name == "cycle"

    def test_fused_raises_when_blocked(self, machine8):
        machine8.telemetry.enable()
        with pytest.raises(EngineError, match="span tracer"):
            resolve_engine(machine8, "fused")

    def test_compiled_raises_when_blocked(self, machine8):
        machine8.telemetry.enable()
        with pytest.raises(EngineError, match="span tracer"):
            resolve_engine(machine8, "compiled")

    def test_fused_honoured_when_eligible(self, machine8):
        choice = resolve_engine(machine8, "fused")
        assert choice.name == "fused" and choice.requested == "fused"

    def test_compiled_honoured_when_eligible(self, machine8):
        choice = resolve_engine(machine8, "compiled")
        assert choice.name == "compiled" and choice.requested == "compiled"
        assert choice.compiled and choice.analytic

    def test_unknown_engine_rejected(self, machine8):
        with pytest.raises(EngineError, match="unknown engine"):
            resolve_engine(machine8, "warp")

    def test_engine_names_constant(self):
        assert ENGINE_NAMES == ("auto", "cycle", "fused", "compiled")


class TestDispatchEntryPoints:
    """The public MCP entry points honour engine= end to end."""

    def test_minimum_cost_path_rejects_unknown_engine(self, machine4):
        from repro.core import minimum_cost_path

        W = np.zeros((4, 4), dtype=np.int64)
        with pytest.raises(EngineError, match="unknown engine"):
            minimum_cost_path(machine4, W, 0, engine="warp")

    def test_fused_request_on_traced_machine_raises(self, machine4):
        from repro.core import minimum_cost_path

        machine4.trace.enabled = True
        W = np.zeros((4, 4), dtype=np.int64)
        with pytest.raises(EngineError, match="bus trace"):
            minimum_cost_path(machine4, W, 0, engine="fused")

    def test_fused_entry_points_revalidate(self, machine4):
        from repro.engine import (
            fused_batched_minimum_cost_path,
            fused_minimum_cost_path,
        )

        machine4.trace.enabled = True
        W = np.zeros((4, 4), dtype=np.int64)
        with pytest.raises(EngineError, match="bus trace"):
            fused_minimum_cost_path(machine4, W, 0)
        with pytest.raises(EngineError, match="bus trace"):
            fused_batched_minimum_cost_path(machine4, W, np.arange(4))

    def test_compiled_entry_points_revalidate(self, machine4):
        from repro.engine import (
            compiled_batched_minimum_cost_path,
            compiled_minimum_cost_path,
        )

        machine4.trace.enabled = True
        W = np.zeros((4, 4), dtype=np.int64)
        with pytest.raises(EngineError, match="bus trace"):
            compiled_minimum_cost_path(machine4, W, 0)
        with pytest.raises(EngineError, match="bus trace"):
            compiled_batched_minimum_cost_path(machine4, W, np.arange(4))

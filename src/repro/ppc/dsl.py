"""Python-embedded Polymorphic Parallel C DSL.

Mirrors the PPC programming model on top of :class:`PPAMachine`:

* ``parallel`` variables (:class:`ParallelInt`, :class:`ParallelLogical`)
  with overloaded word arithmetic — each operator charges one parallel ALU
  instruction, so DSL programs produce the same cycle accounting a PPC
  compiler would;
* ``where``/``elsewhere`` blocks as context managers gating assignment;
* the communication primitives ``shift``, ``broadcast``, ``min``,
  ``selected_min`` and the controller-level ``any`` test.

Example
-------
>>> from repro.ppa import PPAMachine
>>> from repro.ppc.dsl import PPCEnvironment
>>> env = PPCEnvironment(PPAMachine(4))
>>> a = env.parallel_int(init=env.machine.row_index)
>>> with env.where(a == 2):
...     a.assign(99)
>>> int(a.value[2, 0]), int(a.value[1, 0])
(99, 1)
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.errors import VariableError
from repro.ppa.directions import Direction
from repro.ppa.machine import PPAMachine
from repro.ppc import reductions

__all__ = ["PPCEnvironment", "ParallelInt", "ParallelLogical"]

Operand = Union["ParallelInt", "ParallelLogical", int, bool, np.ndarray]


def _raw(x) -> np.ndarray | int:
    """Unwrap a DSL operand to its numpy payload (or scalar)."""
    if isinstance(x, (ParallelInt, ParallelLogical)):
        return x.data
    return x


class _ParallelBase:
    """Shared mechanics of parallel variables: storage + masked assignment."""

    __slots__ = ("env", "data")

    def __init__(self, env: "PPCEnvironment", data: np.ndarray):
        self.env = env
        self.data = data

    @property
    def value(self) -> np.ndarray:
        """Copy of the variable's grid contents."""
        return self.data.copy()

    def assign(self, value: Operand) -> "_ParallelBase":
        """PPC assignment: store under the current ``where`` mask."""
        self.env.machine.store(self.data, _raw(value))
        return self

    def _binary(self, other: Operand, op, result_logical: bool):
        m = self.env.machine
        m.count_alu()
        out = op(self.data, _raw(other))
        cls = ParallelLogical if result_logical else ParallelInt
        return cls(self.env, np.asarray(out))


class ParallelInt(_ParallelBase):
    """A ``parallel int``: one machine word per PE."""

    def __init__(self, env: "PPCEnvironment", data):
        data = np.array(np.broadcast_to(data, env.machine.shape),
                        dtype=np.int64, order="C")
        super().__init__(env, data)

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: Operand):
        return self._binary(other, np.add, False)

    __radd__ = __add__

    def __sub__(self, other: Operand):
        return self._binary(other, np.subtract, False)

    def __rsub__(self, other: Operand):
        m = self.env.machine
        m.count_alu()
        return ParallelInt(self.env, np.subtract(_raw(other), self.data))

    def __mul__(self, other: Operand):
        return self._binary(other, np.multiply, False)

    __rmul__ = __mul__

    def __floordiv__(self, other: Operand):
        return self._binary(other, np.floor_divide, False)

    def __mod__(self, other: Operand):
        return self._binary(other, np.mod, False)

    def __and__(self, other: Operand):
        return self._binary(other, np.bitwise_and, False)

    def __or__(self, other: Operand):
        return self._binary(other, np.bitwise_or, False)

    def __xor__(self, other: Operand):
        return self._binary(other, np.bitwise_xor, False)

    def __lshift__(self, other: Operand):
        return self._binary(other, np.left_shift, False)

    def __rshift__(self, other: Operand):
        return self._binary(other, np.right_shift, False)

    def sat_add(self, other: Operand) -> "ParallelInt":
        """Saturating word addition (MAXINT absorbs)."""
        out = self.env.machine.sat_add(self.data, _raw(other))
        return ParallelInt(self.env, out)

    # -- comparisons ---------------------------------------------------
    def __eq__(self, other: Operand):  # type: ignore[override]
        return self._binary(other, np.equal, True)

    def __ne__(self, other: Operand):  # type: ignore[override]
        return self._binary(other, np.not_equal, True)

    def __lt__(self, other: Operand):
        return self._binary(other, np.less, True)

    def __le__(self, other: Operand):
        return self._binary(other, np.less_equal, True)

    def __gt__(self, other: Operand):
        return self._binary(other, np.greater, True)

    def __ge__(self, other: Operand):
        return self._binary(other, np.greater_equal, True)

    __hash__ = None  # mutable, == overloaded

    def bit(self, j: int) -> "ParallelLogical":
        """Parallel ``bit(x, j)``: boolean plane of bit *j*."""
        return ParallelLogical(self.env, self.env.machine.bit(self.data, j))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParallelInt({self.data!r})"


class ParallelLogical(_ParallelBase):
    """A ``parallel logical``: one boolean flag per PE."""

    def __init__(self, env: "PPCEnvironment", data):
        data = np.array(np.broadcast_to(data, env.machine.shape),
                        dtype=bool, order="C")
        super().__init__(env, data)

    def __and__(self, other: Operand):
        return self._binary(other, np.logical_and, True)

    __rand__ = __and__

    def __or__(self, other: Operand):
        return self._binary(other, np.logical_or, True)

    __ror__ = __or__

    def __xor__(self, other: Operand):
        return self._binary(other, np.logical_xor, True)

    def __invert__(self):
        self.env.machine.count_alu()
        return ParallelLogical(self.env, ~self.data)

    def __eq__(self, other: Operand):  # type: ignore[override]
        return self._binary(other, np.equal, True)

    def __ne__(self, other: Operand):  # type: ignore[override]
        return self._binary(other, np.not_equal, True)

    __hash__ = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParallelLogical({self.data!r})"


class PPCEnvironment:
    """Execution environment binding the DSL to one machine."""

    def __init__(self, machine: PPAMachine):
        self.machine = machine

    # -- declarations ---------------------------------------------------
    def parallel_int(self, name: str | None = None, init=0) -> ParallelInt:
        """Declare a ``parallel int`` (optionally registered by *name*)."""
        pv = ParallelInt(self, init)
        if name is not None:
            self._register(name, pv, "int")
        return pv

    def parallel_logical(
        self, name: str | None = None, init=False
    ) -> ParallelLogical:
        """Declare a ``parallel logical`` (optionally registered by *name*)."""
        pv = ParallelLogical(self, init)
        if name is not None:
            self._register(name, pv, "logical")
        return pv

    def _register(self, name: str, pv: _ParallelBase, kind: str) -> None:
        # Register the DSL array as the backing store in machine memory so
        # interpreter-level and DSL-level views of a variable coincide.
        mem = self.machine.memory
        if name in mem:
            raise VariableError(f"parallel variable {name!r} already declared")
        mem.declare(name, kind)
        mem._vars[name] = pv.data  # share storage

    # -- index planes / constants ----------------------------------------
    @property
    def ROW(self) -> ParallelInt:
        """The ``ROW`` index plane as a parallel int."""
        return ParallelInt(self, self.machine.row_index)

    @property
    def COL(self) -> ParallelInt:
        """The ``COL`` index plane as a parallel int."""
        return ParallelInt(self, self.machine.col_index)

    @property
    def MAXINT(self) -> int:
        return self.machine.maxint

    # -- control flow ------------------------------------------------------
    def where(self, condition):
        """``where (condition) { ... }`` block (context manager)."""
        return self.machine.where(_raw(condition))

    def elsewhere(self, condition):
        """``elsewhere`` arm for *condition* (complement under parent mask)."""
        return self.machine.elsewhere(_raw(condition))

    def any(self, flags) -> bool:
        """Controller-level "at least one PE satisfies" test (global OR)."""
        return self.machine.global_or(_raw(flags))

    # -- communication -------------------------------------------------
    def shift(self, src, direction: Direction, *, fill=0) -> ParallelInt:
        """``shift(src, dir)``: nearest-neighbour move downstream."""
        return ParallelInt(self, self.machine.shift(_raw(src), direction, fill=fill))

    def broadcast(self, src, direction: Direction, L):
        """``broadcast(src, dir, L)``: segmented bus broadcast."""
        out = self.machine.broadcast(_raw(src), direction, _raw(L))
        if out.dtype == np.bool_:
            return ParallelLogical(self, out)
        return ParallelInt(self, out)

    def min(self, src, orientation: Direction, L) -> ParallelInt:
        """Paper's bit-serial cluster ``min()``."""
        return ParallelInt(
            self, reductions.ppa_min(self.machine, _raw(src), orientation, _raw(L))
        )

    def selected_min(
        self, src, orientation: Direction, L, selected
    ) -> ParallelInt:
        """Paper's ``selected_min()``."""
        return ParallelInt(
            self,
            reductions.ppa_selected_min(
                self.machine, _raw(src), orientation, _raw(L), _raw(selected)
            ),
        )

    def max(self, src, orientation: Direction, L) -> ParallelInt:
        """Cluster maximum (complement trick over :meth:`min`)."""
        return ParallelInt(
            self, reductions.ppa_max(self.machine, _raw(src), orientation, _raw(L))
        )

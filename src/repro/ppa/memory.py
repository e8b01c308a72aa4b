"""Per-PE local memory model.

The PPA allocates ``parallel`` variables as one word per PE (paper,
Section 2: "a memorization class called parallel ... allocated in multiple
copies in the local memory of each PE"). :class:`ParallelMemory` is the
named-variable table used by the PPC interpreter and available to the DSL;
it tracks allocation so experiments can report per-PE memory footprints.

Grid state is stored as ``int64`` numpy arrays regardless of the machine's
logical word width ``h``; ``h`` constrains *values* (enforced by the
algorithms), not storage, which keeps the simulator vectorisable.
"""

from __future__ import annotations

import numpy as np

from repro.errors import VariableError

__all__ = ["ParallelMemory"]

_DTYPES = {"int": np.int64, "logical": np.bool_}


class ParallelMemory:
    """A named table of parallel (per-PE) variables on one machine grid."""

    def __init__(self, shape: tuple[int, ...]):
        #: grid shape — ``(n, n)``, or ``(B, n, n)`` on a batched machine
        #: (one copy of every variable per lane; see ``PPAMachine(batch=B)``)
        self._shape = tuple(shape)
        self._vars: dict[str, np.ndarray] = {}
        self._kinds: dict[str, str] = {}

    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    def declare(self, name: str, kind: str = "int", init=None) -> np.ndarray:
        """Allocate variable *name* of *kind* (``"int"`` or ``"logical"``).

        Re-declaring an existing name is an error (mirrors C block scoping
        handled one level up by the interpreter's scopes).
        """
        if kind not in _DTYPES:
            raise VariableError(f"unknown parallel kind {kind!r}")
        if name in self._vars:
            raise VariableError(f"parallel variable {name!r} already declared")
        dtype = _DTYPES[kind]
        if init is None:
            arr = np.zeros(self._shape, dtype=dtype)
        else:
            arr = np.array(np.broadcast_to(init, self._shape), dtype=dtype,
                           order="C")
        self._vars[name] = arr
        self._kinds[name] = kind
        return arr

    def read(self, name: str) -> np.ndarray:
        try:
            return self._vars[name]
        except KeyError:
            raise VariableError(f"undeclared parallel variable {name!r}") from None

    def write(self, name: str, value, mask: np.ndarray | None = None) -> None:
        """Store *value* into *name*, optionally under an activity *mask*."""
        arr = self.read(name)
        value = np.broadcast_to(np.asarray(value, dtype=arr.dtype), self._shape)
        if mask is None:
            arr[...] = value
        else:
            np.copyto(arr, value, where=mask)

    def kind(self, name: str) -> str:
        self.read(name)
        return self._kinds[name]

    def free(self, name: str) -> None:
        if name not in self._vars:
            raise VariableError(f"undeclared parallel variable {name!r}")
        del self._vars[name]
        del self._kinds[name]

    def names(self) -> list[str]:
        return sorted(self._vars)

    def words_allocated(self) -> int:
        """Number of per-PE words currently allocated (one per variable)."""
        return len(self._vars)

    def __contains__(self, name: str) -> bool:
        return name in self._vars

    def __len__(self) -> int:
        return len(self._vars)

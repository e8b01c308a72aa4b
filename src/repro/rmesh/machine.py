"""RMESH machine: port-level bus resolution by connected components.

Every PE exposes four ports; its configuration fuses some of them
internally, and the wiring fuses each ``E`` port with the ``W`` port of
the east neighbour and each ``S`` port with the ``N`` port below (linear
edges — the canonical RMESH is not a torus). A *bus* is a connected
component of the resulting port graph; a signal driven anywhere on a bus
is visible on every port of it within one cycle (the same constant-time
assumption as the PPA's, ablated there by A8).

Bus resolution uses ``scipy.sparse.csgraph.connected_components`` over the
4·n² ports — one call per transaction, vectorised edge construction.
"""

from __future__ import annotations

import enum

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from repro.errors import BusError, ConfigurationError
from repro.ppa.counters import CycleCounters
from repro.rmesh.switches import ALL_PARTITIONS, CONFIGS
from repro.telemetry.spans import Tracer

__all__ = ["Port", "RMeshMachine"]


class Port(enum.IntEnum):
    N = 0
    E = 1
    S = 2
    W = 3


_PORT_INDEX = {p.name: int(p) for p in Port}


class RMeshMachine:
    """An ``n x n`` reconfigurable mesh with per-PE port partitions."""

    architecture = "rmesh"

    def __init__(self, n: int, word_bits: int = 16):
        if n < 1:
            raise ConfigurationError(f"grid side must be >= 1, got {n}")
        if not (2 <= word_bits <= 62):
            raise ConfigurationError(f"word_bits out of range: {word_bits}")
        self.n = n
        self.word_bits = word_bits
        self.counters = CycleCounters()
        #: span tracer (see :mod:`repro.telemetry`); disabled by default.
        self.telemetry = Tracer(self.counters)
        self._config = np.full((n, n), CONFIGS["ISOLATE"].id, dtype=np.int64)
        self._labels: np.ndarray | None = None  # (n, n, 4) bus ids

    @property
    def maxint(self) -> int:
        return (1 << self.word_bits) - 1

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    def require_square_fit(self, size: int) -> None:
        if size != self.n:
            from repro.errors import MaskError

            raise MaskError(
                f"problem of size {size} requires an {size}x{size} machine; "
                f"this machine is {self.n}x{self.n}"
            )

    # -- configuration ------------------------------------------------------

    def set_config(self, config_ids) -> None:
        """Program every switch; *config_ids* is a grid of partition ids
        (0..14) or a scalar for a uniform configuration."""
        ids = np.asarray(config_ids, dtype=np.int64)
        ids = np.array(np.broadcast_to(ids, self.shape), order="C")
        if ids.size and (ids.min() < 0 or ids.max() >= len(ALL_PARTITIONS)):
            raise ConfigurationError(
                f"config ids must be in [0, {len(ALL_PARTITIONS)})"
            )
        self._config = ids
        self._labels = None  # lazily re-resolved
        self.counters.instructions += 1  # one SIMD reconfigure instruction

    def set_config_named(self, names) -> None:
        """Like :meth:`set_config` but from a grid (or scalar) of names."""
        arr = np.asarray(names)
        lookup = np.vectorize(lambda s: CONFIGS[str(s)].id)
        self.set_config(lookup(np.broadcast_to(arr, self.shape)))

    # -- bus resolution ------------------------------------------------------

    def _port_id(self, r, c, port) -> np.ndarray:
        return (np.asarray(r) * self.n + np.asarray(c)) * 4 + int(port)

    def bus_labels(self) -> np.ndarray:
        """Bus id per port, shape ``(n, n, 4)`` (recomputed lazily)."""
        if self._labels is not None:
            return self._labels
        n = self.n
        rows_a: list[np.ndarray] = []
        rows_b: list[np.ndarray] = []

        # Inter-PE wiring: E <-> W of the east neighbour, S <-> N below.
        r, c = np.nonzero(np.ones((n, n), dtype=bool))
        east = c < n - 1
        rows_a.append(self._port_id(r[east], c[east], Port.E))
        rows_b.append(self._port_id(r[east], c[east] + 1, Port.W))
        south = r < n - 1
        rows_a.append(self._port_id(r[south], c[south], Port.S))
        rows_b.append(self._port_id(r[south] + 1, c[south], Port.N))

        # Intra-PE fusing from the partition table.
        for cid in np.unique(self._config):
            mask = self._config == cid
            rr, cc = np.nonzero(mask)
            for block in ALL_PARTITIONS[int(cid)]:
                ports = sorted(block)
                for a, b in zip(ports, ports[1:]):
                    rows_a.append(self._port_id(rr, cc, _PORT_INDEX[a]))
                    rows_b.append(self._port_id(rr, cc, _PORT_INDEX[b]))

        a = np.concatenate(rows_a)
        b = np.concatenate(rows_b)
        total = 4 * n * n
        graph = coo_matrix(
            (np.ones(len(a), dtype=np.int8), (a, b)), shape=(total, total)
        )
        _, labels = connected_components(graph, directed=False)
        self._labels = labels.reshape(n, n, 4)
        return self._labels

    # -- transactions -----------------------------------------------------

    def _count(self, bits: int) -> None:
        c = self.counters
        c.instructions += 1
        c.broadcasts += 1
        c.bus_cycles += 1
        c.bit_cycles += bits

    def bus_signal(self, drivers) -> np.ndarray:
        """One 1-bit bus cycle: ``drivers`` is a ``(n, n, 4)`` boolean array
        of asserted ports; returns, per port, whether its bus carries a
        signal (wired-OR)."""
        drivers = np.asarray(drivers, dtype=bool)
        if drivers.shape != (self.n, self.n, 4):
            raise BusError(
                f"drivers must have shape {(self.n, self.n, 4)}, got "
                f"{drivers.shape}"
            )
        labels = self.bus_labels()
        self._count(1)
        nbuses = int(labels.max()) + 1
        driven = np.zeros(nbuses, dtype=bool)
        np.logical_or.at(driven, labels.reshape(-1), drivers.reshape(-1))
        return driven[labels]

    def broadcast(self, values, driver_ports) -> np.ndarray:
        """One word transaction: each driven bus carries its drivers' word
        (conflicting drivers raise :class:`BusError`); returns the word
        visible per port (0 on undriven buses)."""
        values = np.asarray(values, dtype=np.int64)
        drivers = np.asarray(driver_ports, dtype=bool)
        if drivers.shape != (self.n, self.n, 4):
            raise BusError(
                f"driver_ports must have shape {(self.n, self.n, 4)}"
            )
        labels = self.bus_labels()
        self._count(self.word_bits)
        nbuses = int(labels.max()) + 1
        flat_labels = labels.reshape(-1)
        flat_drive = drivers.reshape(-1)
        word = np.broadcast_to(values[..., None], labels.shape).reshape(-1)

        lo = np.full(nbuses, np.iinfo(np.int64).max, dtype=np.int64)
        hi = np.full(nbuses, np.iinfo(np.int64).min, dtype=np.int64)
        np.minimum.at(lo, flat_labels[flat_drive], word[flat_drive])
        np.maximum.at(hi, flat_labels[flat_drive], word[flat_drive])
        driven = np.zeros(nbuses, dtype=bool)
        driven[flat_labels[flat_drive]] = True
        if bool((driven & (lo != hi)).any()):
            raise BusError("conflicting drivers on one RMESH bus")
        out = np.where(driven, np.where(driven, lo, 0), 0)
        return out[labels]

    def global_or(self, bits) -> bool:
        """Controller test; on the RMESH a single fused bus suffices."""
        self.set_config(CONFIGS["ALL"].id)
        drivers = np.zeros((self.n, self.n, 4), dtype=bool)
        drivers[..., 0] = np.asarray(bits, dtype=bool)
        signal = self.bus_signal(drivers)
        self.counters.global_ors += 1
        return bool(signal[0, 0, 0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RMeshMachine(n={self.n}, word_bits={self.word_bits})"

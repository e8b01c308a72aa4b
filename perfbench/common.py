"""Small pure helpers shared by ``run.py`` and its system-under-test
processes: the metric-name grammar, the percentile rule, digests, the host
fingerprint and the JSON-lines pipe protocol between the two processes.

Nothing here imports :mod:`repro`; the benchmark's own checks must not lean
on the code they check.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import resource
import statistics
import sys
from importlib import util as importlib_util
from pathlib import Path

#: Root of the checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Samples a tail percentile must leave above it (choosing-metrics rule).
TAIL_SAMPLES = 10


def valid_name(name: str) -> bool:
    return bool(NAME_RE.match(name))


def valid_unit(unit: str) -> bool:
    return bool(UNIT_RE.match(unit))


def percentile(samples, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default rule)."""
    data = sorted(samples)
    if not data:
        raise ValueError("percentile of an empty sample")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_rank(count: int, ceiling: float = 90.0) -> float:
    """The highest percentile (at most *ceiling*) with at least
    :data:`TAIL_SAMPLES` samples beyond it, or 100 (the maximum) when
    the sample is too small to support even the median."""
    if count <= 0:
        raise ValueError("no samples")
    rank = min(ceiling, 100.0 * (1.0 - TAIL_SAMPLES / count))
    return rank if rank >= 50.0 else 100.0


def tail(samples, ceiling: float = 90.0) -> tuple[float, float]:
    """``(rank, value)`` of the tail percentile chosen by :func:`tail_rank`."""
    rank = tail_rank(len(samples), ceiling)
    return rank, percentile(samples, rank)


def median(samples) -> float:
    return float(statistics.median(samples))


def digest(*parts: bytes) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def json_digest(obj) -> str:
    return digest(json.dumps(obj, sort_keys=True,
                             separators=(",", ":")).encode())


def host_fingerprint() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba": importlib_util.find_spec("numba") is not None,
    }


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Max of this process's and its largest reaped child's max-RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def send(stream, message: dict) -> None:
    stream.write(json.dumps(message, separators=(",", ":")) + "\n")
    stream.flush()


def receive(stream) -> dict:
    line = stream.readline()
    if not line:
        raise EOFError("peer closed the pipe")
    return json.loads(line)


def require_source() -> None:
    """Put the checkout's ``src/`` on the import path, or exit non-zero
    when the checkout holds no ``repro`` package to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

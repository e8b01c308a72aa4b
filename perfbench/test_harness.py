"""Self-tests of the benchmark harness: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

common.require_source()

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((common.ROOT / "BENCHMARK.json").read_text())


def test_metric_names_follow_the_grammar():
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"]
                                            for w in BENCH["workloads"]]
    assert len(names) == len(set(names))
    for m in metrics:
        assert common.valid_name(m["name"]), m["name"]
        assert common.valid_unit(m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")
    for m in BENCH["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    assert {w["name"] for w in BENCH["workloads"]} == set(workloads.SPECS)
    for bad in ("", "_lead", "-lead", "sp ace", "a" * 65, "semi;colon"):
        assert not common.valid_name(bad)
    for bad in ("", "m s", "x" * 17):
        assert not common.valid_unit(bad)


def test_tail_percentile_leaves_ten_samples_beyond_it():
    assert common.tail_rank(1000, 99.0) == 99.0
    assert common.tail_rank(5000, 99.0) == 99.0
    assert common.tail_rank(5000) == 90.0  # the gated tail's ceiling
    assert common.tail_rank(100, 99.0) == 90.0
    assert common.tail_rank(20, 99.0) == 50.0
    assert common.tail_rank(19, 99.0) == 100.0  # too few: the maximum
    for count in (20, 37, 100, 999, 1000, 4321):
        samples = list(range(count))
        rank, value = common.tail(samples, 99.0)
        assert sum(1 for s in samples if s > value) >= common.TAIL_SAMPLES
        # one percentile point higher would leave fewer than ten beyond
        if rank < 99.0:  # not capped by the ceiling
            above = common.percentile(samples, rank + 1.0)
            assert sum(1 for s in samples if s > above) \
                < common.TAIL_SAMPLES + 1
    assert common.tail([5.0, 1.0, 3.0]) == (100.0, 5.0)


class _Response:
    def __init__(self, status):
        self.status = status


def _op(kind, status, latency_ms, wrong=False):
    op = run._Op(kind, None, 0, 0, due=10.0)
    op.sent = 10.0
    op.done = 10.0 + latency_ms / 1e3
    op.response = None if status is None else _Response(status)
    op.wrong = wrong
    return op


def test_failed_requests_miss_the_latency_limit():
    spec = dict(workloads.SPECS["serve-update"], limit_ms=100.0)
    ops = [
        _op("point", "ok", 5.0),              # good
        _op("dest", "ok", 50.0),              # good
        _op("point", "ok", 150.0),            # ok but over the limit
        _op("point", "ok", 1.0, wrong=True),  # fast but wrong
        _op("point", "shed", 0.5),            # fast refusal
        _op("point", "deadline", 0.5),
        _op("point", "error", 0.5),
        _op("point", None, 0.5),              # transport error
        _op("write", "ok", 3.0),
    ]
    base = {"problems": [], "setup_s": [1.0], "cpu_s": 1.0, "rss_mb": 1.0,
            "checked": 8, "inputs_digest": "", "schedule_digest": "",
            "ops": ops, "start": 10.0}
    metrics, outcome = run.serve_metrics(spec, base, seconds=1.0)
    assert metrics["goodput_rps"] == 2.0
    assert metrics["ok_frac"] == 4 / 9  # 3 correct reads + 1 write
    assert outcome["failed"] == 5
    assert outcome["correct"] is False  # the wrong answer fails the run
    assert outcome["record"]["statuses"]["wrong"] == 1


def test_same_seed_same_schedule_digest():
    a = workloads.serve_schedule("serve-update", 3, 5.0)
    b = workloads.serve_schedule("serve-update", 3, 5.0)
    c = workloads.serve_schedule("serve-update", 4, 5.0)
    assert a["digest"] == b["digest"] != c["digest"]
    assert (a["at"] == b["at"]).all() and a["writes"] == b["writes"]
    assert a["digest"] != workloads.serve_schedule("serve-update", 3,
                                                   6.0)["digest"]
    g1 = workloads.graph("apsp-inline", 9, 0, 64)
    assert (g1 == workloads.graph("apsp-inline", 9, 0, 64)).all()
    assert not (g1 == workloads.graph("apsp-inline", 10, 0, 64)).all()


def test_self_time_excludes_nested_wrappers():
    rec = layers.Recorder()

    def leaf():
        time.sleep(0.02)

    timed_leaf = rec.wrap("leaf", leaf)

    def outer():
        time.sleep(0.02)
        timed_leaf()

    rec.wrap("outer", outer)()
    snap = rec.snapshot()["timed"]
    wall, self_wall = snap["outer"][layers._WALL], \
        snap["outer"][layers._SELF_WALL]
    assert wall >= 0.04
    assert abs(self_wall - (wall - snap["leaf"][layers._WALL])) < 1e-9
    assert snap["leaf"][layers._CALLS] == 1


def test_install_rebinds_and_restores_layer_entry_points():
    import repro.engine.compiled as compiled
    import repro.serve.service as service

    originals = (compiled.run_analytic_batched_mcp, service.verify_mcp)
    patches = layers.install(layers.Recorder())
    try:
        assert compiled.run_analytic_batched_mcp is not originals[0]
        assert service.verify_mcp.__wrapped__ is originals[1]
    finally:
        patches.restore()
    assert (compiled.run_analytic_batched_mcp, service.verify_mcp) \
        == originals
